"""Integral unit quadratic forms as upper triangular Gram matrices."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from .errors import NotConnected
from .linalg import (
    IntMatrix,
    IntPoly,
    char_poly,
    coxeter_from_gram,
    determinant,
    is_psd,
    mat_mul,
    rational_rank,
    transpose,
    unitriangular_inverse,
)
from .quiver import Quiver, spanning_tree, triangular_gram


@dataclass(frozen=True)
class UnitForm:
    """A unit form q(x) = x^T G x with G upper triangular, unit diagonal."""

    n: int
    gram_upper: IntMatrix

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a unit form needs at least one variable")
        g = self.gram_upper
        if len(g) != self.n or any(len(row) != self.n for row in g):
            raise ValueError("Gram matrix size does not match the variable count")
        for i, row in enumerate(g):
            if row[i] != 1:
                raise ValueError("unit forms have unit diagonal")
            if any(row[:i]):
                raise ValueError("Gram matrix must be upper triangular")

    def to_json(self) -> dict:
        entries = [
            [i + 1, j + 1, self.gram_upper[i][j]]
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.gram_upper[i][j] != 0
        ]
        return {"n": self.n, "upper": entries}

    @classmethod
    def from_json(cls, data: object, *, connected: bool = False) -> "UnitForm":
        """Parse ``{"n": n, "upper": [[i, j, value], ...]}``.

        With ``connected`` set, fewer than n - 1 entries raise NotConnected
        before the n x n matrix is allocated: they cannot connect n
        variables.
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
            raise ValueError("'upper' must be a list of [i, j, value] triples")
        if connected and len(entries) < n - 1:
            raise NotConnected(f"{len(entries)} entries cannot connect {n} "
                               "variables: the form is not connected")
        seen = set()
        for entry in entries:
            # bool is a subclass of int, but a JSON true is not an integer
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not all(type(x) is int for x in entry)
            ):
                raise ValueError("'upper' must be a list of [i, j, value] triples")
            i, j, _ = entry
            if not (1 <= i < j <= n):
                raise ValueError(f"entry ({i}, {j}) is not strictly upper triangular")
            if (i, j) in seen:
                raise ValueError(f"entry ({i}, {j}) is given twice")
            seen.add((i, j))
        return form_from_upper(n, entries)


def form_from_upper(n: int, entries: Sequence[tuple[int, int, int]]) -> UnitForm:
    """Build a unit form from its nonzero strictly-upper entries (1-based)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for i, j, value in entries:
        if not (1 <= i < j <= n):
            raise ValueError(f"entry ({i}, {j}) is not strictly upper triangular")
        rows[i - 1][j - 1] = value
    return UnitForm(n, tuple(tuple(row) for row in rows))


def evaluate(f: UnitForm, x: Sequence[int]) -> int:
    """q(x) = x^T G x, exactly."""
    if len(x) != f.n:
        raise ValueError(f"vector length {len(x)} does not match {f.n} variables")
    g = f.gram_upper
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = g[i]
            total += xi * sum(row[j] * x[j] for j in range(i, f.n))
    return total


def symmetric_gram(f: UnitForm) -> IntMatrix:
    """G + G^T: symmetric with diagonal 2."""
    g = f.gram_upper
    return tuple([tuple(map(add, row, col)) for row, col in zip(g, zip(*g))])


def corank(f: UnitForm) -> int:
    return f.n - rational_rank(symmetric_gram(f))


def is_non_negative(f: UnitForm) -> bool:
    return is_psd(symmetric_gram(f))


def is_connected(f: UnitForm) -> bool:
    """Connectivity of the graph on variables with edges at nonzero Gram
    entries."""
    n = f.n
    g = f.gram_upper
    edges = ((i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if g[i][j])
    return len(spanning_tree(n, edges)) == n - 1


def form_of_quiver(q: Quiver) -> UnitForm:
    """The unit form of a loop-less quiver: its triangular Gram matrix.

    Evaluates identically to half the squared norm of I(Q) x.
    """
    if q.n == 0:
        raise ValueError("a quiver with no arrows has no unit form")
    return UnitForm(q.n, triangular_gram(q))


def coxeter_matrix(f: UnitForm) -> IntMatrix:
    """-G^T G^{-1}, using the exact unitriangular inverse."""
    return coxeter_from_gram(f.gram_upper, unitriangular_inverse(f.gram_upper))


def coxeter_polynomial_direct(f: UnitForm) -> IntPoly:
    """Characteristic polynomial of the Coxeter matrix (the oracle path,
    independent of cycle types)."""
    return char_poly(coxeter_matrix(f))


def check_strong_congruence(f: UnitForm, g: UnitForm, b: IntMatrix) -> bool:
    """Whether b is unimodular and B^T G_f B = G_g exactly."""
    if f.n != g.n:
        return False
    if len(b) != f.n or any(len(row) != f.n for row in b):
        raise ValueError("basis change matrix must be square of matching size")
    if determinant(b) not in (1, -1):
        return False
    bt = transpose(b)
    return mat_mul(mat_mul(bt, f.gram_upper), b) == g.gram_upper

