"""Quivers with totally ordered vertices and arrows.

A quiver here is a directed multigraph without loops: vertices are 1..m in
their numeric order, arrows are an ordered tuple of (source, target) pairs,
and arrow i is the pair at position i (1-based).  The arrow order is part of
the data: reordering arrows gives a different quiver.

The central construction is the vertex permutation.  It is defined by
minimally decreasing walks and computed as the product of the
transpositions that swap the endpoints of each arrow, in arrow order; the
inverse quiver comes from the prefixes of the same product.  The Coxeter
matrix is built entrywise from the arrows of the quiver and its inverse;
its docstring proves the identity that ties it to the triangular Gram
matrix.  The identity Id - I(Q^-1) I(Q)^T = P(xi) that ties the inverse
quiver to the vertex permutation is proved, and checked on the arrows, in
``sweep._inverse_and_xi_problems``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ._record import FrozenRecord
from .errors import NotConnected
from .linalg import IntMatrix, PermutationMap, check_permutation
from .partitions import Partition, cycle_type_of_permutation


class Quiver(FrozenRecord):
    """m vertices named 1..m and an ordered tuple of loop-less arrows."""

    __slots__ = ("m", "arrows")

    def __init__(self, m: int, arrows: tuple[tuple[int, int], ...]) -> None:
        if m < 1:
            raise ValueError("a quiver needs at least one vertex")
        for i, (s, t) in enumerate(arrows, start=1):
            if not (1 <= s <= m and 1 <= t <= m):
                raise ValueError(f"arrow {i} endpoint out of range: ({s}, {t})")
            if s == t:
                raise ValueError(f"arrow {i} is a loop at vertex {s}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "arrows", arrows)

    @property
    def n(self) -> int:
        return len(self.arrows)

    def to_json(self) -> dict:
        return {"vertices": self.m, "arrows": [list(a) for a in self.arrows]}

    @classmethod
    def from_json(cls, data: object, *, connected: bool = False) -> "Quiver":
        """Parse ``{"vertices": m, "arrows": [[s, t], ...]}``.

        With ``connected`` set, fewer than m - 1 arrows raise NotConnected
        before anything of size m is allocated: they cannot connect m
        vertices.
        """
        if not isinstance(data, dict):
            raise ValueError("quiver JSON must be an object")
        unknown = set(data) - {"vertices", "arrows"}
        if unknown:
            raise ValueError(f"unknown keys in quiver JSON: {sorted(unknown)}")
        if "vertices" not in data or "arrows" not in data:
            raise ValueError("quiver JSON needs 'vertices' and 'arrows'")
        m, arrows = data["vertices"], data["arrows"]
        # bool is a subclass of int, but a JSON true is not an integer
        if type(m) is not int or m < 1:
            raise ValueError("'vertices' must be a positive integer")
        if not isinstance(arrows, list) or not all(
            isinstance(a, list) and len(a) == 2 and all(type(x) is int for x in a)
            for a in arrows
        ):
            raise ValueError("quiver arrows must be a list of [source, target] pairs")
        if connected and len(arrows) < m - 1:
            raise NotConnected(f"{len(arrows)} arrows cannot connect {m} "
                               "vertices: the quiver is not connected")
        return cls(m, tuple((a[0], a[1]) for a in arrows))


def spanning_tree(m: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Indices of the edges on vertices 1..m, taken in order, that join two
    components; the graph is connected exactly when there are m - 1."""
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for i, (s, t) in enumerate(edges):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            tree.append(i)
    return tree


def is_connected(q: Quiver) -> bool:
    """Connectivity of the underlying graph (single vertices are connected)."""
    return len(spanning_tree(q.m, q.arrows)) == q.m - 1


# ---------------------------------------------------------------------------
# the vertex permutation and the inverse quiver
# ---------------------------------------------------------------------------

def _prefix_products(q: Quiver) -> tuple[list[int], list[tuple[int, int]]]:
    """The image list of P_n (index 0 unused) and the arrows
    (P_{i-1}(s_i), P_{i-1}(t_i)), where P_i = tau_1 o ... o tau_i and
    tau_i swaps the endpoints s_i, t_i of arrow i.

    Proof that these are the walk constructions.  A minimally decreasing
    walk that reached x along arrow i goes on along the largest arrow
    j < i at x, to its other endpoint, and stops if there is none.  Push x
    through tau_{i-1}, ..., tau_1 in turn: the transpositions of arrows
    not at the current point fix it, so the first to move x is tau_j, to
    the other end of arrow j, and the argument repeats below j.  So that
    walk ends at P_{i-1}(x).  A structural walk starts as if v had been
    reached along an arrow n + 1, so it ends at P_n(v).  Arrow i of the
    inverse quiver joins the ends of the walks that cross arrow i
    backwards (reaching s_i) and forwards (reaching t_i).

    Swapping entries s and t of the image list of P gives P o tau, so the
    list holds P_i after arrow i.  Every P_i is a bijection, so P_n is a
    permutation and no inverse arrow is a loop.
    """
    p = list(range(q.m + 1))
    arrows = []
    for s, t in q.arrows:
        arrows.append((p[s], p[t]))
        p[s], p[t] = p[t], p[s]
    return p, arrows


def vertex_permutation(q: Quiver) -> PermutationMap:
    """The permutation sending each vertex to the end of its structural
    decreasing walk, computed as the product tau_1 o ... o tau_n of the
    arrow transpositions of a connected quiver."""
    if not is_connected(q):
        raise ValueError("vertex permutation requires a connected quiver")
    p, _ = _prefix_products(q)
    return tuple(p[1:])


def inverse_quiver(q: Quiver) -> Quiver:
    """The quiver on the same vertices whose arrow i runs from the end of
    the decreasing walk entering arrow i backwards to the end of the walk
    entering it forwards; satisfies I(Q^{-1}) = I(Q) G^{-1}."""
    if not is_connected(q):
        raise ValueError("inverse quiver requires a connected quiver")
    _, arrows = _prefix_products(q)
    return Quiver(q.m, tuple(arrows))


def coxeter_matrix_of_quiver(q: Quiver) -> IntMatrix:
    """The n x n Coxeter matrix -G^T G^{-1}, built entrywise as
    Id_n - I(Q)^T I(Q^{-1}) (see :func:`_coxeter_matrix`)."""
    if not is_connected(q):
        raise ValueError("Coxeter matrix requires a connected quiver")
    _, inverse_arrows = _prefix_products(q)
    return _coxeter_matrix(q.arrows, inverse_arrows)


def _coxeter_matrix(arrows, inverse_arrows) -> IntMatrix:
    """Id_n - I(Q)^T I(Q^{-1}): entry (i, j) is delta_ij minus the inner
    product of the incidence columns of arrow i of Q and arrow j of Q^{-1}.

    Proof that this is -G^T G^{-1}.  I(Q^{-1}) = I(Q) G^{-1} and
    I(Q)^T I(Q) = G + G^T give
    Id - I(Q)^T I(Q^{-1}) = Id - (G + G^T) G^{-1} = -G^T G^{-1}.  With
    Id - I(Q^{-1}) I(Q)^T = P(xi) (``sweep._inverse_and_xi_problems``) it
    gives Phi I(Q)^T = I(Q)^T - I(Q)^T I(Q^{-1}) I(Q)^T = I(Q)^T P(xi):
    Phi acts on the image of I(Q)^T as P(xi) acts on R^m.

    The column of arrow i of Q is e_{s_i} - e_{t_i}, so its inner product
    with a column of Q^{-1} is that column's entry at s_i minus its entry
    at t_i.  Row i is therefore built from the inverse arrows at s_i and
    at t_i alone, each listed per vertex with the sign of its entry there.
    """
    at: dict[int, list[tuple[int, int]]] = {}
    for j, (s, t) in enumerate(inverse_arrows):
        at.setdefault(s, []).append((j, 1))
        at.setdefault(t, []).append((j, -1))
    n = len(inverse_arrows)
    rows = []
    for i, (s, t) in enumerate(arrows):
        row = [0] * n
        row[i] = 1
        for j, sign in at.get(s, ()):
            row[j] -= sign
        for j, sign in at.get(t, ()):
            row[j] += sign
        rows.append(tuple(row))
    return tuple(rows)


def cycle_type_of_quiver(q: Quiver) -> Partition:
    """Cycle type of the vertex permutation."""
    return cycle_type_of_permutation(vertex_permutation(q))


# ---------------------------------------------------------------------------
# editing operations
# ---------------------------------------------------------------------------

def relabel_vertices(q: Quiver, rho: PermutationMap) -> Quiver:
    """Map every source and target through rho (triangular Gram unchanged)."""
    if len(rho) != q.m:
        raise ValueError("permutation size does not match the vertex count")
    check_permutation(rho)
    return Quiver(q.m, tuple((rho[s - 1], rho[t - 1]) for s, t in q.arrows))


def opposite(q: Quiver) -> Quiver:
    """Reverse every arrow, keeping the order."""
    return Quiver(q.m, tuple((t, s) for s, t in q.arrows))


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------

def ordered_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All loop-less ordered vertex pairs on {1..m}, lexicographic."""
    return tuple((s, t) for s in range(1, m + 1) for t in range(1, m + 1) if s != t)


def iter_connected_quivers(m: int, n: int,
                           first_pair: tuple[int, int] | None = None
                           ) -> Iterator[tuple[int, Quiver]]:
    """All connected loop-less quivers with m vertices and n arrows whose
    arrow tuple is a lexicographically sorted multiset of ordered pairs,
    each with the number of leading arrows it shares with the quiver
    yielded before it (0 for the first).

    Every multiset of arrows appears exactly once, in its sorted order and
    in the order of ``combinations_with_replacement``; vertex labelings are
    not collapsed.  ``first_pair`` restricts the enumeration to multisets
    whose smallest arrow is that pair (used to partition the index space
    for parallel sweeps).

    The multisets are walked depth first: a prefix is extended only by
    pairs no smaller than its last arrow, and its components are kept as a
    label per vertex.  A prefix whose components, less one, outnumber the
    arrows still to come cannot be completed to a connected quiver and is
    dropped with everything below it.  Consumers that keep state per prefix
    rebuild it only from the first arrow that changed.
    """
    if m == 1:
        if n == 0 and first_pair is None:
            yield 0, Quiver(1, ())
        return
    if n < m - 1:
        return
    pairs = ordered_pairs(m)
    if first_pair is None:
        choice, first_end = 0, len(pairs)
    elif first_pair in pairs:
        choice = pairs.index(first_pair)
        first_end = choice + 1
    else:
        return
    # before arrow d: labels[d][v] names the component of vertex v and
    # counts[d] is the number of components
    labels = [tuple(range(m + 1))] + [()] * (n - 1)
    counts = [m] + [0] * (n - 1)
    choices = [choice] + [0] * (n - 1)
    arrows = [(0, 0)] * n
    shared = depth = 0
    while True:
        choice = choices[depth]
        if choice == (first_end if depth == 0 else len(pairs)):
            if depth == 0:
                return
            depth -= 1
            choices[depth] += 1
            continue
        pair = arrows[depth] = pairs[choice]
        shared = min(shared, depth)
        label, count = labels[depth], counts[depth]
        a, b = label[pair[0]], label[pair[1]]
        if a != b:
            label = tuple([a if x == b else x for x in label])
            count -= 1
        if count + depth > n:
            # count - 1 merges needed, n - depth - 1 arrows left
            choices[depth] += 1
        elif depth == n - 1:
            yield shared, Quiver(m, tuple(arrows))
            shared = n
            choices[depth] += 1
        else:
            depth += 1
            labels[depth], counts[depth] = label, count
            choices[depth] = choice
