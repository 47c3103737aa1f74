"""Quivers with totally ordered vertices and arrows.

A quiver here is a directed multigraph without loops: vertices are 1..m in
their numeric order, arrows are an ordered tuple of (source, target) pairs,
and arrow i is the pair at position i (1-based).  The arrow order is part of
the data: reordering arrows gives a different quiver.

The central construction is the vertex permutation obtained by following
minimally decreasing walks, together with the matrix identities that tie it
to the incidence matrix, the triangular Gram matrix, the Laplace matrix and
the Coxeter matrix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .errors import InvariantViolation, NotConnected
from .linalg import (
    IntMatrix,
    PermutationMap,
    check_permutation,
    identity,
    mat_mul,
    mat_sub,
    permutation_matrix,
    transpose,
    unitriangular_inverse,
)
from .partitions import Partition, cycle_type_of_permutation


@dataclass(frozen=True)
class Quiver:
    """m vertices named 1..m and an ordered tuple of loop-less arrows."""

    m: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("a quiver needs at least one vertex")
        for i, (s, t) in enumerate(self.arrows, start=1):
            if not (1 <= s <= self.m and 1 <= t <= self.m):
                raise ValueError(f"arrow {i} endpoint out of range: ({s}, {t})")
            if s == t:
                raise ValueError(f"arrow {i} is a loop at vertex {s}")

    @property
    def n(self) -> int:
        return len(self.arrows)

    def source(self, i: int) -> int:
        return self.arrows[i - 1][0]

    def target(self, i: int) -> int:
        return self.arrows[i - 1][1]

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


@dataclass(frozen=True)
class Walk:
    """An alternating vertex/arrow path, stored as a start vertex plus
    (arrow, sign) steps; sign +1 traverses source -> target."""

    start: int
    steps: tuple[tuple[int, int], ...]


def add_arrow(q: Quiver, v: int, w: int) -> Quiver:
    """New quiver with an extra arrow v -> w placed last in the order."""
    return Quiver(q.m, q.arrows + ((v, w),))


def _incident_lists(q: Quiver) -> list[list[int]]:
    """incident[v] = ascending arrow indices touching vertex v (index 0 unused)."""
    incident: list[list[int]] = [[] for _ in range(q.m + 1)]
    for i, (s, t) in enumerate(q.arrows, start=1):
        incident[s].append(i)
        incident[t].append(i)
    return incident


def is_connected(q: Quiver) -> bool:
    """Connectivity of the underlying graph (single vertices are connected)."""
    if q.m == 1:
        return True
    parent = list(range(q.m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = q.m
    for s, t in q.arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            components -= 1
    return components == 1


# ---------------------------------------------------------------------------
# matrices attached to a quiver
# ---------------------------------------------------------------------------

def incidence_matrix(q: Quiver) -> IntMatrix:
    """m x n matrix whose column i is e_{source(i)} - e_{target(i)}."""
    rows = [[0] * q.n for _ in range(q.m)]
    for i, (s, t) in enumerate(q.arrows):
        rows[s - 1][i] = 1
        rows[t - 1][i] = -1
    return tuple(tuple(row) for row in rows)


def _column_dot(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Inner product of incidence columns given as endpoint pairs."""
    return (
        (a[0] == b[0]) + (a[1] == b[1]) - (a[0] == b[1]) - (a[1] == b[0])
    )


def triangular_gram(q: Quiver) -> IntMatrix:
    """The unique upper triangular G with G + G^T = I(Q)^T I(Q).

    Unit diagonal because the quiver has no loops.
    """
    n = q.n
    arrows = q.arrows
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        ai = arrows[i]
        for j in range(i + 1, n):
            row[j] = _column_dot(ai, arrows[j])
        rows.append(tuple(row))
    return tuple(rows)


def gram_matrix(q: Quiver) -> IntMatrix:
    """Symmetric Gram matrix I(Q)^T I(Q), computed combinatorially."""
    n = q.n
    arrows = q.arrows
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        ai = arrows[i]
        for j in range(i + 1, n):
            d = _column_dot(ai, arrows[j])
            rows[i][j] = d
            rows[j][i] = d
    return tuple(tuple(row) for row in rows)


def laplace(q: Quiver) -> IntMatrix:
    """Degree matrix minus symmetric adjacency of the underlying graph."""
    rows = [[0] * q.m for _ in range(q.m)]
    for s, t in q.arrows:
        rows[s - 1][s - 1] += 1
        rows[t - 1][t - 1] += 1
        rows[s - 1][t - 1] -= 1
        rows[t - 1][s - 1] -= 1
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# minimally monotonous walks
# ---------------------------------------------------------------------------

def _trace(q: Quiver, incident: list[list[int]], i: int, eps: int,
           decreasing: bool) -> tuple[list[tuple[int, int]], int]:
    """Follow the minimally decreasing (or increasing) walk with first step
    (i, eps); returns the steps and the final vertex."""
    arrows = q.arrows
    s, t = arrows[i - 1]
    vertex = t if eps == 1 else s
    steps = [(i, eps)]
    cur = i
    bound = 2 * q.n + 1
    while True:
        lst = incident[vertex]
        if decreasing:
            k = bisect_left(lst, cur) - 1
            if k < 0:
                break
        else:
            k = bisect_right(lst, cur)
            if k >= len(lst):
                break
        nxt = lst[k]
        ns, nt = arrows[nxt - 1]
        if ns == vertex:
            steps.append((nxt, 1))
            vertex = nt
        else:
            steps.append((nxt, -1))
            vertex = ns
        cur = nxt
        if len(steps) > bound:
            raise InvariantViolation("walk exceeded its termination bound")
    return steps, vertex


def _check_arrow_sign(q: Quiver, i: int, eps: int) -> None:
    if not 1 <= i <= q.n:
        raise ValueError(f"arrow index {i} out of range 1..{q.n}")
    if eps not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def min_decreasing_walk(q: Quiver, i: int, eps: int) -> Walk:
    """Right complete minimally decreasing walk starting with step (i, eps).

    Each later step takes the maximal incident arrow strictly smaller than
    the current one; orientation is forced by which endpoint was reached.
    """
    _check_arrow_sign(q, i, eps)
    steps, _ = _trace(q, _incident_lists(q), i, eps, decreasing=True)
    start = q.source(i) if eps == 1 else q.target(i)
    return Walk(start, tuple(steps))


def min_increasing_walk(q: Quiver, i: int, eps: int) -> Walk:
    """Dual of :func:`min_decreasing_walk`: minimal incident arrow strictly
    larger than the current one."""
    _check_arrow_sign(q, i, eps)
    steps, _ = _trace(q, _incident_lists(q), i, eps, decreasing=False)
    start = q.source(i) if eps == 1 else q.target(i)
    return Walk(start, tuple(steps))


def structural_walk(q: Quiver, v: int) -> Walk:
    """Left and right complete minimally decreasing walk starting at v.

    The first arrow is the maximal arrow incident to v.  Raises ValueError
    for an isolated vertex.
    """
    if not 1 <= v <= q.m:
        raise ValueError(f"vertex {v} out of range 1..{q.m}")
    incident = _incident_lists(q)
    if not incident[v]:
        raise ValueError(f"vertex {v} has no incident arrow")
    i0 = incident[v][-1]
    eps = 1 if q.source(i0) == v else -1
    steps, _ = _trace(q, incident, i0, eps, decreasing=True)
    return Walk(v, tuple(steps))


def structural_increasing_walk(q: Quiver, v: int) -> Walk:
    """Dual structural walk: starts with the minimal arrow incident to v."""
    if not 1 <= v <= q.m:
        raise ValueError(f"vertex {v} out of range 1..{q.m}")
    incident = _incident_lists(q)
    if not incident[v]:
        raise ValueError(f"vertex {v} has no incident arrow")
    i0 = incident[v][0]
    eps = 1 if q.source(i0) == v else -1
    steps, _ = _trace(q, incident, i0, eps, decreasing=False)
    return Walk(v, tuple(steps))


def walk_target(q: Quiver, w: Walk) -> int:
    """Final vertex of a walk, validating consecutive endpoints."""
    vertex = w.start
    for i, eps in w.steps:
        if not 1 <= i <= q.n:
            raise ValueError(f"walk uses arrow {i} outside 1..{q.n}")
        s, t = q.arrows[i - 1]
        if eps == 1:
            if s != vertex:
                raise ValueError("walk step does not start at the current vertex")
            vertex = t
        elif eps == -1:
            if t != vertex:
                raise ValueError("walk step does not start at the current vertex")
            vertex = s
        else:
            raise ValueError("walk step sign must be +1 or -1")
    return vertex


def reverse_walk(q: Quiver, w: Walk) -> Walk:
    end = walk_target(q, w)
    return Walk(end, tuple((i, -eps) for i, eps in reversed(w.steps)))


def incidence_vector(q: Quiver, w: Walk) -> tuple[int, ...]:
    """Signed arrow-count vector of a walk (length n)."""
    walk_target(q, w)  # validates the walk
    out = [0] * q.n
    for i, eps in w.steps:
        out[i - 1] += eps
    return tuple(out)


# ---------------------------------------------------------------------------
# the vertex permutation and the inverse quiver
# ---------------------------------------------------------------------------

def vertex_permutation(q: Quiver, *, allow_disconnected: bool = False) -> PermutationMap:
    """The permutation sending each vertex to the end of its structural
    decreasing walk.  Isolated vertices are fixed points.

    Requires a connected quiver unless ``allow_disconnected`` is set (the
    construction works per component).
    """
    if not allow_disconnected and not is_connected(q):
        raise ValueError("vertex permutation requires a connected quiver")
    incident = _incident_lists(q)
    arrows = q.arrows
    images = []
    for v in range(1, q.m + 1):
        lst = incident[v]
        if not lst:
            images.append(v)
            continue
        i0 = lst[-1]
        eps = 1 if arrows[i0 - 1][0] == v else -1
        _, end = _trace(q, incident, i0, eps, decreasing=True)
        images.append(end)
    try:
        return check_permutation(tuple(images))
    except ValueError as exc:
        raise InvariantViolation("structural walks did not induce a bijection") from exc


def vertex_permutation_increasing(q: Quiver, *, allow_disconnected: bool = False) -> PermutationMap:
    """Dual permutation from structural increasing walks; inverse of
    :func:`vertex_permutation`."""
    if not allow_disconnected and not is_connected(q):
        raise ValueError("vertex permutation requires a connected quiver")
    incident = _incident_lists(q)
    arrows = q.arrows
    images = []
    for v in range(1, q.m + 1):
        lst = incident[v]
        if not lst:
            images.append(v)
            continue
        i0 = lst[0]
        eps = 1 if arrows[i0 - 1][0] == v else -1
        _, end = _trace(q, incident, i0, eps, decreasing=False)
        images.append(end)
    try:
        return check_permutation(tuple(images))
    except ValueError as exc:
        raise InvariantViolation("structural walks did not induce a bijection") from exc


def inverse_quiver(q: Quiver) -> Quiver:
    """The quiver on the same vertices whose arrow i runs from the end of
    the decreasing walk entering arrow i backwards to the end of the walk
    entering it forwards; satisfies I(Q^{-1}) = I(Q) G^{-1}."""
    if not is_connected(q):
        raise ValueError("inverse quiver requires a connected quiver")
    incident = _incident_lists(q)
    arrows = []
    for i in range(1, q.n + 1):
        _, src = _trace(q, incident, i, -1, decreasing=True)
        _, tgt = _trace(q, incident, i, +1, decreasing=True)
        if src == tgt:
            raise InvariantViolation(f"inverse quiver produced a loop at arrow {i}")
        arrows.append((src, tgt))
    return Quiver(q.m, tuple(arrows))


def coxeter_laplace(q: Quiver) -> IntMatrix:
    """Id_m - I(Q^{-1}) I(Q)^T, verified to be the permutation matrix of the
    vertex permutation (two independent routes meet here)."""
    if not is_connected(q):
        raise ValueError("Coxeter-Laplace matrix requires a connected quiver")
    if q.n == 0:
        return identity(q.m)
    inc = incidence_matrix(q)
    gram_inv = unitriangular_inverse(triangular_gram(q))
    inc_inverse = mat_mul(inc, gram_inv)
    lam = mat_sub(identity(q.m), mat_mul(inc_inverse, transpose(inc)))
    expected = permutation_matrix(vertex_permutation(q))
    if lam != expected:
        raise InvariantViolation("Coxeter-Laplace matrix is not the walk permutation")
    return lam


def coxeter_matrix_of_quiver(q: Quiver) -> IntMatrix:
    """The n x n Coxeter matrix, computed as Id_n - I(Q)^T I(Q^{-1}) and as
    -G^T G^{-1}; the two must agree exactly."""
    if not is_connected(q):
        raise ValueError("Coxeter matrix requires a connected quiver")
    gram = triangular_gram(q)
    gram_inv = unitriangular_inverse(gram)
    by_gram = tuple(
        tuple(-sum(gram[k][i] * gram_inv[k][j] for k in range(q.n))
              for j in range(q.n))
        for i in range(q.n)
    )
    if q.n:
        inc = incidence_matrix(q)
        inc_inverse = mat_mul(inc, gram_inv)
        by_incidence = mat_sub(identity(q.n), mat_mul(transpose(inc), inc_inverse))
        if by_incidence != by_gram:
            raise InvariantViolation("the two Coxeter matrix formulas disagree")
    return by_gram


def cycle_type_of_quiver(q: Quiver) -> Partition:
    """Cycle type of the vertex permutation."""
    return cycle_type_of_permutation(vertex_permutation(q))


# ---------------------------------------------------------------------------
# editing operations
# ---------------------------------------------------------------------------

def remove_last_arrow(q: Quiver) -> Quiver:
    if q.n == 0:
        raise ValueError("quiver has no arrows to remove")
    return Quiver(q.m, q.arrows[:-1])


def relabel_vertices(q: Quiver, rho: PermutationMap) -> Quiver:
    """Map every source and target through rho (triangular Gram unchanged)."""
    if len(rho) != q.m:
        raise ValueError("permutation size does not match the vertex count")
    check_permutation(rho)
    return Quiver(q.m, tuple((rho[s - 1], rho[t - 1]) for s, t in q.arrows))


def opposite(q: Quiver) -> Quiver:
    """Reverse every arrow, keeping the order."""
    return Quiver(q.m, tuple((t, s) for s, t in q.arrows))


def transposition(m: int, v: int, w: int) -> PermutationMap:
    """The permutation of {1..m} swapping v and w."""
    if v == w:
        raise ValueError("transposition needs two distinct vertices")
    images = list(range(1, m + 1))
    images[v - 1], images[w - 1] = w, v
    return tuple(images)


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------

def ordered_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All loop-less ordered vertex pairs on {1..m}, lexicographic."""
    return tuple((s, t) for s in range(1, m + 1) for t in range(1, m + 1) if s != t)


def _multiset_connected(m: int, arrows: Sequence[tuple[int, int]]) -> bool:
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = m
    for s, t in arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            components -= 1
    return components == 1


def iter_connected_quivers(m: int, n: int,
                           first_pair: tuple[int, int] | None = None) -> Iterator[Quiver]:
    """All connected loop-less quivers with m vertices and n arrows whose
    arrow tuple is a lexicographically sorted multiset of ordered pairs.

    Every multiset of arrows appears exactly once, in its sorted order;
    vertex labelings are not collapsed.  ``first_pair`` restricts the
    enumeration to multisets whose smallest arrow is that pair (used to
    partition the index space for parallel sweeps).
    """
    if m == 1:
        if n == 0 and first_pair is None:
            yield Quiver(1, ())
        return
    if n < m - 1:
        return
    pairs = ordered_pairs(m)
    if first_pair is None:
        for combo in combinations_with_replacement(pairs, n):
            if _multiset_connected(m, combo):
                yield Quiver(m, combo)
    else:
        rest = tuple(p for p in pairs if p >= first_pair)
        if not rest or rest[0] != first_pair:
            return
        for combo in combinations_with_replacement(rest, n - 1):
            arrows = (first_pair,) + combo
            if _multiset_connected(m, arrows):
                yield Quiver(m, arrows)
