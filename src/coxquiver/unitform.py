"""Integral unit quadratic forms, stored as their nonzero Gram entries."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import FrozenRecord
from .errors import NotConnected
from .linalg import IntMatrix, _psd_rank_rows, mat_mul, transpose
from .quiver import Quiver

_TRIPLES = "'upper' must be a list of [i, j, value] triples"


def _canonical_entries(n: int, entries: Iterable) -> tuple[tuple[int, int, int], ...]:
    """The entries as a sorted tuple of (i, j, value) with value != 0,
    after checking each is an integer triple with 1 <= i < j <= n and no
    position repeats; the first fault in input order is the one reported."""
    seen = set()
    out = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(_TRIPLES)
        i, j, value = entry
        # bool is a subclass of int, but a JSON true is not an integer
        if type(i) is not int or type(j) is not int or type(value) is not int:
            raise ValueError(_TRIPLES)
        if not 1 <= i < j <= n:
            raise ValueError(f"entry ({i}, {j}) is not strictly upper triangular")
        key = (i, j)
        if key in seen:
            raise ValueError(f"entry ({i}, {j}) is given twice")
        seen.add(key)
        if value:
            out.append((i, j, value))
    # input in canonical order, as to_json writes it, sorts in linear time
    out.sort()
    return tuple(out)


class UnitForm(FrozenRecord):
    """A unit form q(x) = x^T G x with G upper triangular, unit diagonal,
    stored as the nonzero entries of G above the diagonal: ``upper`` is a
    sorted tuple of 1-based (i, j, G_ij) with i < j, so that two forms are
    equal exactly when their Gram matrices are."""

    __slots__ = ("n", "upper")

    def __init__(self, n: int, upper: Iterable[Sequence[int]]) -> None:
        if n < 1:
            raise ValueError("a unit form needs at least one variable")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "upper", _canonical_entries(n, upper))

    @property
    def gram_upper(self) -> IntMatrix:
        """The dense upper triangular Gram matrix G: an O(n^2) view for the
        routes that need the whole matrix."""
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        for i, j, value in self.upper:
            rows[i - 1][j - 1] = value
        # from a list: tuple() of a generator resizes its result, and the
        # resized tuples pile up on CPython's tuple free list
        return tuple([tuple(row) for row in rows])

    def to_json(self) -> dict:
        return {"n": self.n, "upper": [*map(list, self.upper)]}

    @classmethod
    def from_json(cls, data: object, *, connected: bool = False) -> "UnitForm":
        """Parse ``{"n": n, "upper": [[i, j, value], ...]}``.

        With ``connected`` set, fewer than n - 1 entries raise NotConnected
        before any entry is read: they cannot connect n variables.
        """
        if not isinstance(data, dict):
            raise ValueError("unit form JSON must be an object")
        unknown = set(data) - {"n", "upper"}
        if unknown:
            raise ValueError(f"unknown keys in unit form JSON: {sorted(unknown)}")
        if "n" not in data or "upper" not in data:
            raise ValueError("unit form JSON needs 'n' and 'upper'")
        n, entries = data["n"], data["upper"]
        if type(n) is not int or n < 1:
            raise ValueError("'n' must be a positive integer")
        if not isinstance(entries, list):
            raise ValueError(_TRIPLES)
        if connected and len(entries) < n - 1:
            raise NotConnected(f"{len(entries)} entries cannot connect {n} "
                               "variables: the form is not connected")
        return cls(n, entries)


def evaluate(f: UnitForm, x: Sequence[int]) -> int:
    """q(x) = x^T G x, exactly."""
    if len(x) != f.n:
        raise ValueError(f"vector length {len(x)} does not match {f.n} variables")
    total = sum(xi * xi for xi in x)
    for i, j, value in f.upper:
        total += value * x[i - 1] * x[j - 1]
    return total


def _symmetric_rows(f: UnitForm) -> list:
    """The rows of G + G^T as dicts {column: value} of their nonzero
    entries, 0-based, built from the form's entries.  The entries are
    sorted, so every row lists its diagonal first and then its neighbours
    in ascending order."""
    rows = [{i: 2} for i in range(f.n)]
    for i, j, value in f.upper:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = value
    return rows


def corank(f: UnitForm) -> int:
    """n minus the rank of G + G^T, from the sparse elimination of
    :func:`linalg._psd_rank_rows` on the form's entries, as
    :func:`is_non_negative`.  The corank is defined for non-negative forms
    only: an indefinite form raises ValueError."""
    rank = _psd_rank_rows(_symmetric_rows(f))
    if rank is None:
        raise ValueError("the form is indefinite: its corank is not defined")
    return f.n - rank


def is_non_negative(f: UnitForm) -> bool:
    """Whether G + G^T is positive semidefinite, decided by the sparse
    elimination of :func:`linalg._psd_rank_rows` on the form's entries, in
    O(n + entries + fill) memory, with no fill when the Gram graph is a
    forest."""
    return _psd_rank_rows(_symmetric_rows(f)) is not None


def form_of_quiver(q: Quiver) -> UnitForm:
    """The unit form of a loop-less quiver: G_ij for i < j is the inner
    product of the incidence columns of arrows i and j.

    Only arrows with a common vertex have a nonzero product, so the entries
    come from the arrows already seen at each endpoint of each arrow.
    Evaluates identically to half the squared norm of I(Q) x.
    """
    if q.n == 0:
        raise ValueError("a quiver with no arrows has no unit form")
    # per vertex, the arrows at it so far with their incidence entry there
    seen: list[list[tuple[int, int]]] = [[] for _ in range(q.m + 1)]
    entries: dict[tuple[int, int], int] = {}
    for j, (s, t) in enumerate(q.arrows, start=1):
        for v, sign in ((s, 1), (t, -1)):
            for i, other in seen[v]:
                entries[i, j] = entries.get((i, j), 0) + sign * other
            seen[v].append((j, sign))
    return UnitForm(q.n, [(i, j, value) for (i, j), value in entries.items()])


def check_strong_congruence(f: UnitForm, g: UnitForm, b: IntMatrix) -> bool:
    """Whether b is unimodular and B^T G_f B = G_g exactly.

    The product test alone decides both: G_f and G_g are upper triangular
    with unit diagonal, so det G_f = det G_g = 1, and B^T G_f B = G_g gives
    det(B)^2 = det(B^T G_f B) = 1.  So an integer B that passes has
    determinant +-1 and is unimodular.
    """
    if f.n != g.n:
        return False
    if len(b) != f.n or any(len(row) != f.n for row in b):
        raise ValueError("basis change matrix must be square of matching size")
    bt = transpose(b)
    return mat_mul(mat_mul(bt, f.gram_upper), b) == g.gram_upper

