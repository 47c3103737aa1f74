"""Quiver realizations of unit forms, and the representative quivers.

A connected non-negative unit form is of Dynkin type A exactly when a
loop-less quiver realizes it: arrow i has the incidence column
e_source - e_target, and the inner products of these columns are the
entries of the symmetric Gram matrix G + G^T.  :func:`realize` finds such a
quiver in one breadth-first pass, or proves that none exists, and adds the
basis change onto the canonical extension quiver of the same rank and
corank.

The module also builds the representative quiver families realizing every
admissible cycle type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotConnected, NotDynkinTypeA
from .linalg import IntMatrix, is_psd
from .partitions import Partition
from .quiver import Quiver, spanning_tree
from .unitform import UnitForm, symmetric_gram

STRATEGY = "breadth_first"


@dataclass(frozen=True)
class RealizationResult:
    """A quiver with the same unit form as the input, the basis change B
    with I(quiver) B = I(canonical extension quiver), and the strategy
    name, which is always :data:`STRATEGY`."""

    quiver: Quiver
    basis_change: IntMatrix
    strategy: str

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "basis_change": [list(row) for row in self.basis_change],
            "strategy": self.strategy,
        }


# ---------------------------------------------------------------------------
# representative families
# ---------------------------------------------------------------------------

def _chord_indices(pi: Partition) -> list[int]:
    """Indices m - (pi_1 + ... + pi_k) for k = 1..length-1."""
    m = pi.m
    out = []
    total = 0
    for part in pi.parts[:-1]:
        total += part
        out.append(m - total)
    return out


def linear_quiver(m: int) -> Quiver:
    """Arrows j: v_j -> v_{j+1} for j = 1..m-1."""
    if m < 2:
        raise ValueError("linear quiver needs at least two vertices")
    return Quiver(m, tuple((j, j + 1) for j in range(1, m)))


def star_quiver(m: int) -> Quiver:
    """Arrows j: v_1 -> v_{j+1} for j = 1..m-1."""
    if m < 2:
        raise ValueError("star quiver needs at least two vertices")
    return Quiver(m, tuple((1, j + 1) for j in range(1, m)))


def representative_quiver_A(pi: Partition, d: int) -> Quiver:
    """Connected quiver with cycle type pi and corank length(pi) - 1 + 2d.

    Built from the linear quiver by adding chords that split the cycle into
    the prescribed parts, then d pairs of opposed parallel arrows that raise
    the corank without changing the vertex permutation.
    """
    m = pi.m
    if m < 2:
        raise ValueError("representative quivers need m >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    ell = pi.length
    arrows = [(j, j + 1) for j in range(1, m)]
    idx = _chord_indices(pi)
    if ell > 1:
        arrows.append((m, idx[0]))
        for k in range(ell - 2):
            arrows.append((idx[k], idx[k + 1]))
    for _ in range(d):
        if ell > 2:
            a, b = idx[ell - 2], idx[ell - 3]
        elif ell == 2:
            a, b = idx[0], m
        else:
            a, b = m, m - 1
        arrows.append((a, b))
        arrows.append((b, a))
    return Quiver(m, tuple(arrows))


def representative_quiver_star(pi: Partition, d: int) -> Quiver:
    """The inverse quiver of :func:`representative_quiver_A`, built directly
    on the maximal star quiver."""
    m = pi.m
    if m < 2:
        raise ValueError("representative quivers need m >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    ell = pi.length
    arrows = [(1, j + 1) for j in range(1, m)]
    idx = _chord_indices(pi)
    for k in range(ell - 1):
        arrows.append((1, idx[k] + 1))
    for _ in range(d):
        t = idx[ell - 2] + 1 if ell > 1 else m
        arrows.append((1, t))
        arrows.append((1, t))
    return Quiver(m, tuple(arrows))


def canonical_extension_quiver(r: int, c: int) -> Quiver:
    """Linear spine 1..r plus c arcs from vertex r+1 back to vertex 1,
    the reference quiver of rank r and corank c."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if c < 0:
        raise ValueError("corank must be >= 0")
    arrows = tuple((j, j + 1) for j in range(1, r + 1)) + ((r + 1, 1),) * c
    return Quiver(r + 1, arrows)




# ---------------------------------------------------------------------------
# breadth-first realization
# ---------------------------------------------------------------------------

def _breadth_first(g: IntMatrix) -> list[tuple[int, int]]:
    """Variables in breadth-first order of the Gram graph from variable 1,
    each paired with the neighbour it was reached from (-1 for the root)."""
    n = len(g)
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    for i in order:  # the list grows while it is walked
        row = g[i]
        for j in range(n):
            if row[j] and parent[j] == -2:
                parent[j] = i
                order.append(j)
    if len(order) < n:
        raise NotConnected("realization requires a connected unit form")
    return [(i, parent[i]) for i in order]


def _candidate(known: int, source: bool, row: tuple[int, ...],
               placed: list[int], arrows: list, fresh: int) -> tuple[int, int]:
    """The one column with ``known`` as its source (or target) that can have
    inner product ``row[j]`` with every placed column j.

    On a placed arrow (u, v) the column's inner product is the incidence
    entry of ``known`` plus or minus that of the other endpoint x, so the
    first placed arrow where the two disagree names x.  When none does, x
    touches no placed arrow and is the unused vertex ``fresh``.
    """
    sign = 1 if source else -1
    x = fresh
    for j in placed:
        u, v = arrows[j]
        r = sign * ((known == u) - (known == v)) - row[j]
        if r:
            x = u if r == sign else v
            break
    return (known, x) if source else (x, known)


def _fits(column: tuple[int, int], row: tuple[int, ...], placed: list[int],
          arrows: list) -> bool:
    s, t = column
    for j in placed:
        u, v = arrows[j]
        if (s == u) + (t == v) - (s == v) - (t == u) != row[j]:
            return False
    return True


def _stuck(i: int, row: tuple[int, ...], placed: list[int]) -> str:
    neighbours = sorted(j for j in placed if row[j])
    entries = ", ".join(f"{row[j]} with variable {j + 1}" for j in neighbours)
    others = len(placed) - len(neighbours)
    return (f"not Dynkin type A: no incidence column for variable {i + 1} has "
            f"the Gram entries {entries} and 0 with the {others} other placed "
            "variables")


def realize_quiver(f: UnitForm) -> Quiver:
    """A quiver whose triangular Gram matrix is the form's, for a connected
    form of Dynkin type A; raises NotDynkinTypeA for any other connected
    non-negative form.

    Variables are placed in breadth-first order of the Gram graph, the
    first one as the arrow (1, 2).  The next variable's column shares
    endpoints with the column of the neighbour p it was reached from: an
    entry 2 or -2 makes it that column or its reverse, an entry 1 or -1
    means one shared endpoint, as the same end (entry 1) or the opposite
    one (entry -1).  Each of the at most two shapes fixes the other
    endpoint, which is kept only if the column has the right inner product
    with every placed column.

    Why taking the first survivor never loses a realization: the placed
    columns span the root lattice of the vertices placed so far, so two
    survivors differ by a vector orthogonal to that lattice, constant on
    the placed vertices.  Once three or more vertices are placed that
    forces them to be equal.  With two
    vertices every placed column is +-(e_1 - e_2), and the two survivors
    differ by the symmetry -(1 2) of the A root system, which fixes the
    placed columns.  So if any quiver realizes the form, one realizes it
    with the columns placed so far, and a variable with no surviving
    column proves the form is not of type A.

    O(n^2) inner products; the vertex count gives the corank n - m + 1,
    and a realization proves non-negativity.  Exactness of the Gram matrix
    holds by construction: every pair of columns was checked when the
    later one was placed.
    """
    g = symmetric_gram(f)
    order = _breadth_first(g)
    arrows: list = [None] * f.n
    arrows[0] = (1, 2)
    placed = [0]
    m = 2
    for i, p in order[1:]:
        row = g[i]
        a, b = arrows[p]
        entry = row[p]
        if entry in (2, -2):
            shapes = [(a, b) if entry == 2 else (b, a)]
        elif entry in (1, -1):
            # the shape with the shared endpoint as source first, the other
            # built only when the first does not fit
            ends = ((a, True), (b, False)) if entry == 1 else ((b, True), (a, False))
            shapes = (_candidate(known, source, row, placed, arrows, m + 1)
                      for known, source in ends)
        else:
            shapes = ()
        # a loop has inner product 0 with the parent column, so never fits
        for column in shapes:
            if _fits(column, row, placed, arrows):
                break
        else:
            if not is_psd(g):
                raise ValueError("the form is indefinite: realization requires "
                                 "a non-negative unit form")
            raise NotDynkinTypeA(_stuck(i, row, placed))
        m = max(m, *column)
        arrows[i] = column
        placed.append(i)
    return Quiver(m, tuple(arrows))


def basis_change_to_canonical(q: Quiver) -> IntMatrix:
    """Unimodular B with I(Q) B = I(C) for the canonical extension quiver C
    of rank m - 1 and corank n - m + 1 of a connected quiver Q; then
    B^T (G + G^T) B is the symmetric Gram matrix of C.

    The spanning tree takes arrows in index order when they join two
    components.  Spine column j of B is the signed tree path from vertex j
    to j + 1.  The spine columns sum to the tree path from 1 to m, so each
    corank column, the arc m -> 1, is minus that sum plus the fundamental
    cycle of one arrow outside the tree.  B is unimodular because the tree
    paths are a basis change of the root lattice and each fundamental
    cycle adds one new arrow with coefficient 1.
    """
    m, n, arrows = q.m, q.n, q.arrows
    tree_arrows = spanning_tree(m, arrows)
    if len(tree_arrows) != m - 1:
        raise NotConnected("a basis change needs a connected quiver")
    tree: list[list[int]] = [[] for _ in range(m + 1)]
    for i in tree_arrows:
        s, t = arrows[i]
        tree[s].append(i)
        tree[t].append(i)
    in_tree = set(tree_arrows)
    cycles = [i for i in range(n) if i not in in_tree]
    # path[v]: arrow coefficients of the tree path with sum e_v - e_1
    path: list = [None] * (m + 1)
    path[1] = {}
    stack = [1]
    while stack:
        v = stack.pop()
        for i in tree[v]:
            s, t = arrows[i]
            w = s if t == v else t
            if path[w] is None:
                path[w] = {**path[v], i: 1 if s == w else -1}
                stack.append(w)

    def combine(*terms: tuple[int, dict]) -> dict:
        out: dict[int, int] = {}
        for sign, vector in terms:
            for i, x in vector.items():
                out[i] = out.get(i, 0) + sign * x
        return out

    columns = [combine((1, path[j]), (-1, path[j + 1])) for j in range(1, m)]
    columns += [combine((1, path[m]), (1, {i: 1}), (-1, path[arrows[i][0]]),
                        (1, path[arrows[i][1]])) for i in cycles]
    target = canonical_extension_quiver(m - 1, len(cycles)).arrows
    rows = [[0] * n for _ in range(n)]
    for k, (column, (s, t)) in enumerate(zip(columns, target)):
        image = [0] * (m + 1)
        for i, x in column.items():
            rows[i][k] = x
            u, v = arrows[i]
            image[u] += x
            image[v] -= x
        if image[s] != 1 or image[t] != -1 or sum(map(abs, image)) != 2:
            raise InvariantViolation(
                f"column {k + 1} of the basis change does not map the quiver's "
                "incidence matrix onto the canonical one")
    return tuple(tuple(row) for row in rows)


def realize(f: UnitForm) -> RealizationResult:
    """The breadth-first realization of a connected form of Dynkin type A,
    with the basis change onto the canonical extension quiver.

    Raises NotConnected for a disconnected form, ValueError for an
    indefinite one and NotDynkinTypeA for any other form not of type A.
    """
    q = realize_quiver(f)
    return RealizationResult(q, basis_change_to_canonical(q), STRATEGY)


def weak_congruence_to_canonical(f: UnitForm) -> IntMatrix:
    """Unimodular B with B^T (G_f + G_f^T) B equal to the symmetric Gram
    matrix of the canonical extension quiver of matching rank and corank."""
    return realize(f).basis_change
