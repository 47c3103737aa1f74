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

from ._record import FrozenRecord
from .errors import InvariantViolation, NotConnected, NotDynkinTypeA
from .linalg import IntMatrix
from .partitions import Partition
from .quiver import Quiver, spanning_tree
from .unitform import UnitForm, _symmetric_rows, is_non_negative


class RealizationResult(FrozenRecord):
    """A quiver with the same unit form as the input, and the basis change B
    with I(quiver) B = I(canonical extension quiver)."""

    __slots__ = ("quiver", "basis_change")

    def __init__(self, quiver: Quiver, basis_change: IntMatrix) -> None:
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "basis_change", basis_change)

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "basis_change": [list(row) for row in self.basis_change],
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

def _breadth_first(rows: list[dict[int, int]]) -> list[tuple[int, int]]:
    """Variables in breadth-first order of the Gram graph from variable 1,
    neighbours in ascending order, each paired with the neighbour it was
    reached from (-1 for the root).  ``rows`` are those of
    :func:`unitform._symmetric_rows`; the diagonal key of a row names its
    own variable, reached before the row is walked, so it adds no edge."""
    n = len(rows)
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    for i in order:  # the list grows while it is walked
        for j in rows[i]:
            if parent[j] == -2:
                parent[j] = i
                order.append(j)
    if len(order) < n:
        raise NotConnected("realization requires a connected unit form")
    return [(i, parent[i]) for i in order]


def _candidate(known: int, source: bool, row: dict[int, int], near: list,
               at: list, arrows: list, fresh: int) -> tuple[int, int]:
    """The one column with ``known`` as its source (or target) that can have
    inner product ``row.get(j, 0)`` with every placed column j; ``near``
    lists the placed neighbours j with their entries.

    On a placed arrow the column's inner product is the incidence entry of
    ``known`` plus or minus that of the other endpoint x, so a placed arrow
    where the two disagree names x.  Only placed neighbours and arrows at
    ``known`` can disagree, and an arrow at ``known`` that is no neighbour
    always does.  When none does, x touches no placed arrow and is the
    unused vertex ``fresh``.
    """
    sign = 1 if source else -1
    here = at[known]
    for j, value in near:
        r = sign * here.get(j, 0) - value
        if r:
            break
    else:
        for j, incidence in here.items():
            if j not in row:
                r = sign * incidence
                break
        else:
            return (known, fresh) if source else (fresh, known)
    u, v = arrows[j]
    x = u if r == sign else v
    return (known, x) if source else (x, known)


def _fits(column: tuple[int, int], row: dict[int, int], near: list,
          at: list) -> bool:
    """Whether the column (s, t) has inner product ``row.get(j, 0)`` with
    every placed column j.  That product is the incidence entry of arrow j
    at s minus its entry at t: checked on the placed neighbours in
    ``near``, and nonzero on every other arrow at s or t, so none may be
    there."""
    s, t = column
    at_s, at_t = at[s], at[t]
    for j, value in near:
        if at_s.get(j, 0) - at_t.get(j, 0) != value:
            return False
    return at_s.keys() <= row.keys() and at_t.keys() <= row.keys()


def _stuck(i: int, near: list, placed: int) -> str:
    entries = ", ".join(f"{value} with variable {j + 1}" for j, value in near)
    others = placed - len(near)
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

    Why looking only near the column is enough: a column (s, t) has inner
    product 0 with every placed arrow at neither s nor t, so only the
    placed arrows at s and t, and the variable's placed neighbours, which
    must be among them, can contradict it.  A shape with one endpoint x
    still open is fixed by any placed arrow that disagrees with the known
    endpoint alone, and each such arrow names x by itself; a surviving
    column agrees with all of them, so they all name the same x, and the
    order in which they are scanned cannot change the column kept.

    So each placement costs time in the degrees of the vertices and the
    variable involved, not in n, and no Gram matrix is ever built.  A
    stuck variable runs :func:`unitform.is_non_negative` on the form's
    entries, a sparse elimination with no fill when the Gram graph is a
    forest (O(n^3) time and O(n^2) memory at worst), to tell an
    indefinite form from a non-negative one not of type A.  The vertex
    count gives the corank n - m + 1, and a realization proves
    non-negativity.  Exactness of the Gram matrix holds by construction:
    every pair of columns was checked when the later one was placed.
    """
    n = f.n
    rows = _symmetric_rows(f)
    order = _breadth_first(rows)
    arrows: list = [None] * n
    arrows[0] = (1, 2)
    # per vertex, the placed arrows at it with their incidence entry there;
    # a connected quiver with n arrows has at most n + 1 vertices, and the
    # fresh one is the next
    at: list[dict[int, int]] = [{} for _ in range(n + 3)]
    at[1][0] = 1
    at[2][0] = -1
    m = 2
    for placed, (i, p) in enumerate(order[1:], start=1):
        row = rows[i]
        # the row also holds its diagonal key i; variable i is not placed
        # yet, so that key is not near, no vertex has an arrow i, and
        # _candidate and _fits, which look the row up only at placed
        # arrows, never read it
        near = [(j, value) for j, value in row.items() if arrows[j] is not None]
        a, b = arrows[p]
        entry = row[p]
        if entry == 2 or entry == -2:
            column = (a, b) if entry == 2 else (b, a)
            fits = _fits(column, row, near, at)
        elif entry == 1 or entry == -1:
            # the shape with the shared endpoint as source first, the other
            # built only when the first does not fit
            if entry == -1:
                a, b = b, a
            column = _candidate(a, True, row, near, at, arrows, m + 1)
            fits = _fits(column, row, near, at)
            if not fits:
                column = _candidate(b, False, row, near, at, arrows, m + 1)
                fits = _fits(column, row, near, at)
        else:
            fits = False
        # a loop has inner product 0 with the parent column, so never fits
        if not fits:
            if not is_non_negative(f):
                raise ValueError("the form is indefinite: realization requires "
                                 "a non-negative unit form")
            raise NotDynkinTypeA(_stuck(i, near, placed))
        s, t = column
        m = max(m, s, t)
        arrows[i] = column
        at[s][i] = 1
        at[t][i] = -1
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

    One breadth-first pass from vertex 1 records each vertex's parent, the
    tree arrow to that parent with its sign, and its depth.  A tree path is
    found by walking its two ends up to their common ancestor, so a column
    costs the length of its paths: j -> j + 1 for spine column j, and
    m -> 1, plus the arrow, plus t -> s for the arc column of an arrow
    (s, t) outside the tree.
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
    # per vertex v other than the root 1: its parent, the tree arrow up[v]
    # between them and the sign that makes that arrow's column
    # e_v - e_parent, and its depth
    parent = [0] * (m + 1)
    up = [0] * (m + 1)
    sign = [0] * (m + 1)
    depth = [-1] * (m + 1)
    depth[1] = 0
    order = [1]
    for v in order:  # the list grows while it is walked
        for i in tree[v]:
            s, t = arrows[i]
            w = s if t == v else t
            if depth[w] < 0:
                parent[w], up[w], depth[w] = v, i, depth[v] + 1
                sign[w] = 1 if s == w else -1
                order.append(w)

    rows = [[0] * n for _ in range(n)]

    def walk(k: int, image: list, u: int, v: int) -> None:
        """Add the tree arrows with sum e_u - e_v to column k of B, and
        their columns to ``image``: the deeper end steps up until the two
        ends meet."""
        while u != v:
            if depth[u] >= depth[v]:
                i, x, u = up[u], sign[u], parent[u]
            else:
                i, x, v = up[v], -sign[v], parent[v]
            rows[i][k] += x
            s, t = arrows[i]
            image[s] += x
            image[t] -= x

    # image: column k of I(Q) B, which must be the canonical arrow's column
    target = canonical_extension_quiver(m - 1, len(cycles)).arrows
    for k, (s, t) in enumerate(target):
        image = [0] * (m + 1)
        if k < m - 1:
            walk(k, image, k + 1, k + 2)
        else:
            # e_m - e_1 = (e_m - e_1) + (e_a - e_b) + (e_b - e_a) for the
            # arrow i = (a, b) outside the tree
            i = cycles[k - m + 1]
            a, b = arrows[i]
            rows[i][k] = 1
            image[a] += 1
            image[b] -= 1
            walk(k, image, m, 1)
            walk(k, image, b, a)
        if image[s] != 1 or image[t] != -1 or sum(map(abs, image)) != 2:
            raise InvariantViolation(
                f"column {k + 1} of the basis change does not map the quiver's "
                "incidence matrix onto the canonical one")
    # from a list: tuple() of a generator resizes its result
    return tuple([tuple(row) for row in rows])


def realize(f: UnitForm) -> RealizationResult:
    """The breadth-first realization of a connected form of Dynkin type A,
    with the basis change onto the canonical extension quiver.

    Raises NotConnected for a disconnected form, ValueError for an
    indefinite one and NotDynkinTypeA for any other form not of type A.
    """
    q = realize_quiver(f)
    return RealizationResult(q, basis_change_to_canonical(q))
