"""Quiver, walk and matrix-identity tests.

Small expected values (walks, permutations, matrices) were computed by
simulating the definitions by hand; the exhaustive section re-derives all
identities over every small quiver, including arbitrary arrow orderings.
The package computes the vertex permutation and the inverse quiver as
products of arrow transpositions; the minimally monotonous walks of their
definition live here, as the oracle those products are checked against.
"""

import json
import random
from itertools import combinations_with_replacement
from dataclasses import dataclass
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxquiver.invariants import (
    coxeter_matrix_violations,
    coxeter_polynomial_of_cycle_type,
    cycle_type_and_corank,
)
from coxquiver.linalg import (
    identity,
    mat_mul,
    mat_sub,
    permutation_matrix,
    psd_rank,
    transpose,
)
from coxquiver.partitions import Partition, cycle_type_of_permutation, part1c
from coxquiver.quiver import (
    Quiver,
    _coxeter_laplace,
    _coxeter_matrix,
    _prefix_products,
    coxeter_matrix_of_quiver,
    cycle_type_of_quiver,
    inverse_quiver,
    is_connected,
    iter_connected_quivers,
    opposite,
    ordered_pairs,
    relabel_vertices,
    spanning_tree,
    vertex_permutation,
)
from coxquiver.sweep import _Prefixes, _inverse_and_xi_problems, _phase1_units
from coxquiver.unitform import UnitForm, form_of_quiver

from dense import (
    coxeter_from_gram,
    form_connected,
    gram_from_incidence,
    incidence_matrix,
    unitriangular_inverse,
)
from test_acceptance import EXPECTED_QUIVERS

A3 = Quiver(3, ((1, 2), (2, 3)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))


def linear_quiver(m):
    return Quiver(m, tuple((j, j + 1) for j in range(1, m)))


def coxeter_laplace(q):
    """The Coxeter-Laplace matrix of a connected quiver as the sweep builds
    it, from the arrows of q and of its inverse quiver."""
    return _coxeter_laplace(q.m, q.arrows, inverse_quiver(q).arrows)


def prefix_matrices(q):
    """G and the Laplace matrix I I^T of q as sweep phase 1 builds them,
    one arrow prefix after the other."""
    prefixes = _Prefixes(q.m, q.n)
    prefixes.rebuild(q.arrows, 0)
    return tuple(zip(*prefixes.gram_cols)), prefixes.laplace[-1]


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def all_quivers(m, n):
    """Every quiver with m vertices and n arrows, in every arrow order."""
    pairs = [(s, t) for s in range(1, m + 1) for t in range(1, m + 1) if s != t]
    for arrows in product(pairs, repeat=n):
        yield Quiver(m, arrows)


# ---------------------------------------------------------------------------
# construction and JSON
# ---------------------------------------------------------------------------

def test_quiver_rejects_loops_and_bad_ranges():
    with pytest.raises(ValueError):
        Quiver(2, ((1, 1),))
    with pytest.raises(ValueError):
        Quiver(2, ((1, 3),))


def test_quiver_json_roundtrip_is_bit_exact():
    q = Quiver(3, ((1, 2), (3, 1)))
    blob = json.dumps(q.to_json())
    assert blob == '{"vertices": 3, "arrows": [[1, 2], [3, 1]]}'
    assert Quiver.from_json(json.loads(blob)) == q
    assert json.dumps(Quiver.from_json(json.loads(blob)).to_json()) == blob


def test_quiver_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        Quiver.from_json({"vertices": 2, "arrows": [], "extra": 1})


# ---------------------------------------------------------------------------
# spanning trees and connectivity
# ---------------------------------------------------------------------------

def reachable(m, edges, start):
    """Vertices reachable from start, by breadth-first search."""
    neighbours = {v: [] for v in range(1, m + 1)}
    for s, t in edges:
        neighbours[s].append(t)
        neighbours[t].append(s)
    seen = [start]
    for v in seen:  # the list grows while it is walked
        seen.extend(w for w in neighbours[v] if w not in seen)
    return set(seen)


def test_spanning_tree_takes_the_first_joining_edge():
    assert spanning_tree(3, [(1, 2), (2, 1), (2, 3), (1, 3)]) == [0, 2]
    assert spanning_tree(4, [(3, 4), (1, 2), (4, 3)]) == [0, 1]
    assert spanning_tree(1, []) == []


def test_spanning_tree_and_connectivity_match_a_bfs_oracle():
    rng = random.Random(20261018)
    connected_seen = disconnected_seen = 0
    for _ in range(400):
        m = rng.randint(1, 7)
        edges = [tuple(rng.sample(range(1, m + 1), 2))
                 for _ in range(rng.randint(0, 9) if m > 1 else 0)]
        if edges and rng.random() < 0.5:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        tree = spanning_tree(m, edges)
        # an edge is in the tree exactly when the earlier edges leave its
        # endpoints in different components
        assert tree == [i for i, (s, t) in enumerate(edges)
                        if t not in reachable(m, edges[:i], s)]
        connected = reachable(m, edges, 1) == set(range(1, m + 1))
        connected_seen += connected
        disconnected_seen += not connected
        assert (len(tree) == m - 1) == connected
        assert is_connected(Quiver(m, tuple(edges))) == connected
        entries = {(min(e), max(e), -1) for e in edges}
        assert form_connected(UnitForm(m, sorted(entries))) == connected
    assert connected_seen > 50 and disconnected_seen > 50


# ---------------------------------------------------------------------------
# incidence and Gram matrices
# ---------------------------------------------------------------------------

def test_incidence_single_arrow():
    assert incidence_matrix(Quiver(2, ((1, 2),))) == ((1,), (-1,))


def test_incidence_linear_a3():
    assert incidence_matrix(A3) == ((1, 0), (-1, 1), (0, -1))


def test_incidence_reorder_right_multiplies():
    q = Quiver(3, ((1, 2), (2, 3), (3, 1)))
    rho = (2, 3, 1)  # arrow i of the new quiver is arrow rho(i) of q
    reordered = Quiver(3, tuple(q.arrows[r - 1] for r in rho))
    assert incidence_matrix(reordered) == \
        mat_mul(incidence_matrix(q), permutation_matrix(rho))


def test_triangular_gram_examples():
    for q, gram in ((Quiver(2, ((1, 2),)), ((1,),)),
                    (KRONECKER, ((1, 2), (0, 1))),
                    (A3, ((1, -1), (0, 1)))):
        assert form_of_quiver(q).gram_upper == gram
        assert prefix_matrices(q)[0] == gram


def test_laplace_examples():
    assert prefix_matrices(Quiver(2, ((1, 2),)))[1] == ((1, -1), (-1, 1))
    assert prefix_matrices(KRONECKER)[1] == ((2, -2), (-2, 2))


def test_laplace_rank_connected():
    for q in (A3, KRONECKER, linear_quiver(5)):
        assert psd_rank(prefix_matrices(q)[1]) == q.m - 1


# ---------------------------------------------------------------------------
# the walk oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Walk:
    """An alternating vertex/arrow path, stored as a start vertex plus
    (arrow, sign) steps; sign +1 traverses source -> target."""

    start: int
    steps: tuple[tuple[int, int], ...]


def incident_arrows(q):
    """incident[v] = ascending indices of the arrows touching vertex v."""
    incident = {v: [] for v in range(1, q.m + 1)}
    for j, (s, t) in enumerate(q.arrows, start=1):
        incident[s].append(j)
        incident[t].append(j)
    return incident


def min_walk(q, i, eps, decreasing=True):
    """Right complete minimally decreasing walk starting with step (i, eps):
    each later step takes the maximal incident arrow strictly smaller than
    the current one, oriented away from the vertex reached, and the walk
    stops when there is none.  With ``decreasing`` unset, the dual walk
    takes the minimal incident arrow strictly larger than the current one."""
    incident = incident_arrows(q)
    s, t = q.arrows[i - 1]
    start, vertex = (s, t) if eps == 1 else (t, s)
    steps = [(i, eps)]
    while True:
        current = steps[-1][0]
        candidates = [j for j in incident[vertex]
                      if (j < current if decreasing else j > current)]
        if not candidates:
            return Walk(start, tuple(steps))
        j = max(candidates) if decreasing else min(candidates)
        a, b = q.arrows[j - 1]
        steps.append((j, 1 if a == vertex else -1))
        vertex = b if a == vertex else a


def structural_walk(q, v, decreasing=True):
    """Left and right complete minimally decreasing walk starting at v: the
    first arrow is the maximal arrow incident to v (the minimal one for the
    dual walk).  Raises ValueError for an isolated vertex."""
    incident = incident_arrows(q)[v]
    if not incident:
        raise ValueError(f"vertex {v} has no incident arrow")
    first = incident[-1 if decreasing else 0]
    return min_walk(q, first, 1 if q.arrows[first - 1][0] == v else -1, decreasing)


def walk_target(q, w):
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


def reverse_walk(q, w):
    return Walk(walk_target(q, w), tuple((i, -eps) for i, eps in reversed(w.steps)))


def incidence_vector(q, w):
    """Signed arrow-count vector of a walk (length n)."""
    walk_target(q, w)  # validates the walk
    out = [0] * q.n
    for i, eps in w.steps:
        out[i - 1] += eps
    return tuple(out)


def walk_permutation(q, decreasing=True):
    """Each vertex sent to the end of its structural walk; isolated vertices
    are fixed."""
    incident = incident_arrows(q)
    return tuple(walk_target(q, structural_walk(q, v, decreasing)) if incident[v] else v
                 for v in range(1, q.m + 1))


def walk_inverse_arrows(q):
    """Arrow i of the inverse quiver: from the end of the decreasing walk
    crossing arrow i backwards to the end of the one crossing it forwards."""
    return tuple((walk_target(q, min_walk(q, i, -1)), walk_target(q, min_walk(q, i, 1)))
                 for i in range(1, q.n + 1))


def test_min_decreasing_walk_minimal_arrow_halts():
    w = min_walk(A3, 1, 1)
    assert w == Walk(1, ((1, 1),))
    assert walk_target(A3, w) == 2


def test_min_decreasing_walk_a3_second_arrow():
    w = min_walk(A3, 2, 1)
    assert w == Walk(2, ((2, 1),))
    assert walk_target(A3, w) == 3


def test_min_decreasing_walk_kronecker():
    w = min_walk(KRONECKER, 2, 1)
    assert w == Walk(1, ((2, 1), (1, -1)))
    assert walk_target(KRONECKER, w) == 1


def test_min_increasing_walk_examples():
    assert min_walk(Quiver(2, ((1, 2),)), 1, 1, decreasing=False) == Walk(1, ((1, 1),))
    w = min_walk(A3, 1, 1, decreasing=False)
    assert w == Walk(1, ((1, 1), (2, 1)))
    assert walk_target(A3, w) == 3


def test_structural_walk_linear():
    q = linear_quiver(4)
    for t in range(1, 4):
        assert walk_target(q, structural_walk(q, t)) == t + 1
    assert walk_target(q, structural_walk(q, 4)) == 1


def test_structural_walk_kronecker():
    w = structural_walk(KRONECKER, 1)
    assert w == Walk(1, ((2, 1), (1, -1)))


def test_structural_walk_isolated_vertex_errors():
    with pytest.raises(ValueError):
        structural_walk(Quiver(2, ()), 1)


def test_increasing_structural_walk_reverses_decreasing():
    # the increasing walk from the end of a structural walk is its reverse
    for q in (A3, KRONECKER, linear_quiver(5), Quiver(3, ((2, 1), (1, 3), (3, 2)))):
        for v in range(1, q.m + 1):
            down = structural_walk(q, v)
            w = walk_target(q, down)
            up = structural_walk(q, w, decreasing=False)
            assert up == reverse_walk(q, down)


# ---------------------------------------------------------------------------
# vertex permutation
# ---------------------------------------------------------------------------

def test_vertex_permutation_linear_is_cycle():
    for m in range(2, 7):
        xi = vertex_permutation(linear_quiver(m))
        assert xi == tuple(list(range(2, m + 1)) + [1])


def test_vertex_permutation_kronecker_identity():
    assert vertex_permutation(KRONECKER) == (1, 2)


def test_vertex_permutation_single_vertex():
    assert vertex_permutation(Quiver(1, ())) == (1,)
    assert cycle_type_of_quiver(Quiver(1, ())) == Partition((1,))


def test_vertex_permutation_requires_connected():
    for q in (Quiver(4, ((1, 2), (3, 4))), Quiver(3, ((1, 2), (2, 1)))):
        with pytest.raises(ValueError, match="connected"):
            vertex_permutation(q)
    with pytest.raises(TypeError):
        vertex_permutation(KRONECKER, allow_disconnected=True)


def per_component_xi(q):
    """The prefix-product vertex permutation of any quiver, connected or
    not; isolated vertices are fixed points."""
    return tuple(_prefix_products(q)[0][1:])


def test_trees_give_single_cycle():
    trees = [
        Quiver(4, ((1, 2), (1, 3), (1, 4))),
        Quiver(5, ((2, 1), (2, 3), (4, 3), (4, 5))),
        Quiver(4, ((3, 1), (2, 3), (3, 4))),
    ]
    for q in trees:
        assert cycle_type_of_quiver(q) == Partition((q.m,))


def test_increasing_permutation_inverts_decreasing():
    for q in (A3, KRONECKER, linear_quiver(6), Quiver(3, ((2, 1), (3, 2), (1, 3)))):
        xi_minus = vertex_permutation(q)
        xi_plus = walk_permutation(q, decreasing=False)
        assert all(xi_plus[xi_minus[v] - 1] == v + 1 for v in range(q.m))


# ---------------------------------------------------------------------------
# inverse quiver
# ---------------------------------------------------------------------------

def test_inverse_of_linear_is_star():
    for m in range(2, 7):
        inv = inverse_quiver(linear_quiver(m))
        assert inv == Quiver(m, tuple((1, j + 1) for j in range(1, m)))


def test_inverse_quiver_involution():
    quivers = [A3, KRONECKER, linear_quiver(5),
               Quiver(3, ((2, 1), (1, 3), (3, 2))),
               Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1), (4, 1)))]
    for q in quivers:
        assert inverse_quiver(inverse_quiver(q)) == q


def test_inverse_quiver_alternating_pairs():
    q = Quiver(2, ((1, 2), (2, 1), (1, 2), (2, 1)))
    assert inverse_quiver(q) == Quiver(2, ((1, 2), (1, 2), (1, 2), (1, 2)))


def test_inverse_gram_is_inverse():
    for q in (A3, KRONECKER, linear_quiver(5)):
        assert form_of_quiver(inverse_quiver(q)).gram_upper == \
            unitriangular_inverse(form_of_quiver(q).gram_upper)


# ---------------------------------------------------------------------------
# transposition products against the walk oracle
# ---------------------------------------------------------------------------

@st.composite
def quivers_in_any_order(draw, max_vertices=40):
    """(quiver, connected): up to ``max_vertices`` vertices and 3m arrows in
    random order.  A connected quiver contains a random spanning tree; a
    disconnected one keeps its arrows inside the two parts of a random
    vertex split."""
    m = draw(st.integers(min_value=2, max_value=max_vertices))
    connected = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    vertices = list(range(1, m + 1))
    rng.shuffle(vertices)
    if connected:
        n = draw(st.integers(min_value=m - 1, max_value=3 * m))
        arrows = [(vertices[k], vertices[rng.randrange(k)]) for k in range(1, m)]
        arrows += [tuple(rng.sample(vertices, 2)) for _ in range(n - m + 1)]
        arrows = [a if rng.random() < 0.5 else a[::-1] for a in arrows]
    else:
        cut = rng.randint(1, m - 1)
        parts = [side for side in (vertices[:cut], vertices[cut:]) if len(side) > 1]
        n = draw(st.integers(min_value=0, max_value=3 * m)) if parts else 0
        arrows = [tuple(rng.sample(rng.choice(parts), 2)) for _ in range(n)]
    rng.shuffle(arrows)
    return Quiver(m, tuple(arrows)), connected


@given(quivers_in_any_order())
@settings(max_examples=150, deadline=None)
def test_transposition_products_match_the_walk_oracle(case):
    q, connected = case
    assert is_connected(q) == connected
    xi = per_component_xi(q)
    assert xi == walk_permutation(q)
    # the increasing structural walks invert xi
    xi_plus = walk_permutation(q, decreasing=False)
    assert all(xi_plus[xi[v] - 1] == v + 1 for v in range(q.m))
    expected = walk_inverse_arrows(q)
    if connected:
        assert vertex_permutation(q) == xi
        assert inverse_quiver(q).arrows == expected
        # the arrow constructions against the dense products
        inc = incidence_matrix(q)
        inc_inverse = incidence_matrix(Quiver(q.m, expected))
        assert coxeter_matrix_of_quiver(q) == mat_sub(
            identity(q.n), mat_mul(transpose(inc), inc_inverse))
        assert coxeter_laplace(q) == mat_sub(
            identity(q.m), mat_mul(inc_inverse, transpose(inc)))
        # Gram inversion: Q^-1 inverts xi, is an involution, and its form
        # has the cycle type and corank of the form of Q
        inverse = inverse_quiver(q)
        xi_inverse = vertex_permutation(inverse)
        assert all(xi_inverse[xi[v] - 1] == v + 1 for v in range(q.m))
        assert inverse_quiver(inverse) == q
        assert cycle_type_and_corank(form_of_quiver(inverse)) == \
            cycle_type_and_corank(form_of_quiver(q))
    else:
        with pytest.raises(ValueError, match="connected"):
            inverse_quiver(q)
        with pytest.raises(ValueError, match="connected"):
            vertex_permutation(q)
        assert tuple(_prefix_products(q)[1]) == expected
    # the inverse quiver's permutation tau_n o ... o tau_1 is xi^-1
    xi_of_inverse = per_component_xi(Quiver(q.m, expected))
    assert all(xi_of_inverse[xi[v] - 1] == v + 1 for v in range(q.m))


@given(quivers_in_any_order(max_vertices=12).filter(lambda case: case[1]))
@settings(max_examples=150, deadline=None)
def test_the_inverse_and_xi_identities_hold_and_the_walk_agrees(case):
    """Beyond the sweep's range, arrows in any order: the two identities
    that prove the polynomial and the Coxeter-number laws hold on the
    quiver's own G, and the walk of the powers of its Coxeter matrix finds
    the polynomial and the laws that the proof gives."""
    q, _ = case
    images, inverse_arrows = _prefix_products(q)
    xi = tuple(images[1:])
    gram_cols = tuple(zip(*gram_from_incidence(q)))
    assert _inverse_and_xi_problems(
        q.m, q.arrows, inverse_arrows, gram_cols, permutation_matrix(xi)) == []
    poly = coxeter_polynomial_of_cycle_type(
        cycle_type_of_permutation(xi), q.n - q.m + 1)
    assert coxeter_matrix_violations(
        _coxeter_matrix(q.arrows, inverse_arrows), poly) == ([], [])


# ---------------------------------------------------------------------------
# Coxeter-Laplace and Coxeter matrices
# ---------------------------------------------------------------------------

def test_coxeter_laplace_a3():
    expected = permutation_matrix((2, 3, 1))
    assert coxeter_laplace(A3) == expected


def test_coxeter_laplace_kronecker():
    assert coxeter_laplace(KRONECKER) == identity(2)


def test_coxeter_laplace_tree_is_cyclic():
    q = Quiver(4, ((1, 2), (1, 3), (1, 4)))
    lam = coxeter_laplace(q)
    assert cycle_type_of_permutation(
        tuple(next(r + 1 for r in range(4) if lam[r][v] == 1) for v in range(4))
    ) == Partition((4,))


def test_coxeter_matrix_single_arrow():
    assert coxeter_matrix_of_quiver(Quiver(2, ((1, 2),))) == ((-1,),)


def test_coxeter_matrix_kronecker():
    assert coxeter_matrix_of_quiver(KRONECKER) == ((-1, 2), (-2, 3))


@given(quivers_in_any_order().filter(lambda case: case[1]))
@settings(max_examples=100, deadline=None)
def test_coxeter_matrix_of_quiver_is_the_dense_product(case):
    # arrows in any order, as the sweep's phase 2 takes them from the
    # realizer, against -G^T G^-1 with the unitriangular inverse
    q, _ = case
    g = gram_from_incidence(q)
    assert coxeter_matrix_of_quiver(q) == coxeter_from_gram(g, unitriangular_inverse(g))


# ---------------------------------------------------------------------------
# editing operations
# ---------------------------------------------------------------------------

def test_remove_last_arrow_transposition_identity():
    # removing the maximal arrow composes the smaller quiver's permutation
    # with the transposition of the removed arrow's endpoints
    quivers = [
        KRONECKER,
        Quiver(2, ((1, 2), (2, 1), (1, 2), (2, 1))),
        Quiver(3, ((1, 2), (2, 3), (3, 1))),
        Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))),
        # removing the last arrow disconnects these; the smaller permutation
        # is assembled per component (isolated vertices become fixed points)
        Quiver(4, ((1, 2), (3, 4), (2, 3))),
        Quiver(3, ((1, 2), (2, 3))),
        Quiver(5, ((1, 2), (2, 3), (4, 5), (3, 4))),
    ]
    for q in quivers:
        smaller = Quiver(q.m, q.arrows[:-1])
        s, t = q.arrows[-1]
        tau = list(range(1, q.m + 1))
        tau[s - 1], tau[t - 1] = t, s
        xi_small = per_component_xi(smaller)
        composed = tuple(xi_small[tau[v] - 1] for v in range(q.m))
        assert vertex_permutation(q) == composed


def test_relabel_preserves_gram():
    q = Quiver(3, ((1, 2), (2, 3), (3, 1)))
    rho = (3, 1, 2)
    relabeled = relabel_vertices(q, rho)
    assert relabeled == Quiver(3, ((3, 1), (1, 2), (2, 3)))
    assert form_of_quiver(relabeled) == form_of_quiver(q)
    assert cycle_type_of_quiver(relabeled) == cycle_type_of_quiver(q)


def test_relabel_vertices_identity_and_swap():
    q = Quiver(2, ((1, 2),))
    assert relabel_vertices(q, (1, 2)) == q
    assert relabel_vertices(q, (2, 1)) == Quiver(2, ((2, 1),))


def test_opposite():
    assert opposite(Quiver(2, ((1, 2),))) == Quiver(2, ((2, 1),))
    q = Quiver(3, ((1, 2), (3, 2)))
    assert opposite(opposite(q)) == q
    assert form_of_quiver(opposite(q)) == form_of_quiver(q)


def test_adding_parallel_pair_preserves_permutation():
    quivers = [A3, KRONECKER, linear_quiver(5),
               Quiver(3, ((2, 1), (1, 3), (3, 2)))]
    for q in quivers:
        for v in range(1, q.m + 1):
            for w in range(1, q.m + 1):
                if v == w:
                    continue
                bigger = Quiver(q.m, q.arrows + ((v, w), (v, w)))
                assert vertex_permutation(bigger) == vertex_permutation(q)


# ---------------------------------------------------------------------------
# incidence vectors
# ---------------------------------------------------------------------------

def test_incidence_vector_trivial_walk():
    assert incidence_vector(A3, Walk(2, ())) == (0, 0)


def test_incidence_vector_single_arrow():
    assert incidence_vector(A3, Walk(1, ((1, 1),))) == (1, 0)


def test_incidence_vector_kronecker_walk():
    w = Walk(1, ((2, 1), (1, -1)))
    vec = incidence_vector(KRONECKER, w)
    assert vec == (-1, 1)
    inc = incidence_matrix(KRONECKER)
    assert tuple(sum(inc[r][i] * vec[i] for i in range(2)) for r in range(2)) == (0, 0)


def test_incidence_vector_rejects_invalid_walk():
    with pytest.raises(ValueError):
        incidence_vector(A3, Walk(1, ((2, 1),)))


def test_walk_incidence_identity():
    # I(Q) inc(alpha) = e_start - e_end for structural walks
    for q in (A3, KRONECKER, Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))):
        inc = incidence_matrix(q)
        for v in range(1, q.m + 1):
            w = structural_walk(q, v)
            vec = incidence_vector(q, w)
            end = walk_target(q, w)
            image = tuple(
                sum(inc[r][i] * vec[i] for i in range(q.n)) for r in range(q.m)
            )
            expected = tuple(
                (1 if r == v - 1 else 0) - (1 if r == end - 1 else 0)
                for r in range(q.m)
            )
            assert image == expected


def test_inverse_incidence_columns_are_increasing_walk_vectors():
    # column v of I(Q^-1)^T, i.e. row v of I(Q^-1), is inc of the
    # increasing structural walk at v
    for q in (A3, KRONECKER, linear_quiver(5),
              Quiver(3, ((2, 1), (1, 3), (3, 2))),
              Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))):
        inc_inv = incidence_matrix(inverse_quiver(q))
        for v in range(1, q.m + 1):
            vec = incidence_vector(q, structural_walk(q, v, decreasing=False))
            assert inc_inv[v - 1] == vec


# ---------------------------------------------------------------------------
# exhaustive identities over every arrow ordering
# ---------------------------------------------------------------------------

def test_all_identities_small_exhaustive_any_order():
    checked = 0
    for m in range(2, 4):
        for n in range(m - 1, 5):
            if n < 1:
                continue
            c = n - m + 1
            admissible = set(part1c(c, m))
            for q in all_quivers(m, n):
                if not is_connected(q):
                    continue
                checked += 1
                inc = incidence_matrix(q)
                inc_t = transpose(inc)
                gram = form_of_quiver(q).gram_upper
                assert mat_mul(inc_t, inc) == tuple(
                    tuple(gram[i][j] + gram[j][i] for j in range(n))
                    for i in range(n)
                )
                assert prefix_matrices(q) == (gram, mat_mul(inc, inc_t))
                gram_inv = unitriangular_inverse(gram)
                qinv = inverse_quiver(q)
                assert incidence_matrix(qinv) == mat_mul(inc, gram_inv)
                assert inverse_quiver(qinv) == q
                assert form_of_quiver(qinv).gram_upper == gram_inv
                assert is_connected(qinv)
                xi = vertex_permutation(q)
                lam = mat_sub(identity(m),
                              mat_mul(incidence_matrix(qinv), inc_t))
                assert lam == permutation_matrix(xi)
                assert coxeter_laplace(q) == lam
                phi = mat_sub(identity(n),
                              mat_mul(inc_t, incidence_matrix(qinv)))
                assert phi == mat_neg(mat_mul(transpose(gram), gram_inv))
                assert coxeter_matrix_of_quiver(q) == phi
                assert cycle_type_of_permutation(xi) in admissible
    # 30 connected arrow sequences on 2 vertices, 1464 on 3 (counted by hand)
    assert checked == 1494


@st.composite
def random_connected_quivers(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    extra = draw(st.integers(min_value=0, max_value=3))
    n = m - 1 + extra
    pairs = [(s, t) for s in range(1, m + 1) for t in range(1, m + 1) if s != t]
    arrows = tuple(draw(st.sampled_from(pairs)) for _ in range(n))
    q = Quiver(m, arrows)
    if not is_connected(q):
        # fall back to a spanning path plus random arrows, any order
        base = [(j, j + 1) for j in range(1, m)]
        rest = [draw(st.sampled_from(pairs)) for _ in range(extra)]
        mixed = base + rest
        order = draw(st.permutations(list(range(len(mixed)))))
        q = Quiver(m, tuple(mixed[i] for i in order))
    return q


@given(random_connected_quivers())
@settings(max_examples=120, deadline=None)
def test_identities_random_larger_quivers(q):
    inc = incidence_matrix(q)
    inc_t = transpose(inc)
    gram = gram_from_incidence(q)
    gram_inv = unitriangular_inverse(gram)
    qinv = inverse_quiver(q)
    assert incidence_matrix(qinv) == mat_mul(inc, gram_inv)
    lam = coxeter_laplace(q)
    assert lam == permutation_matrix(vertex_permutation(q))
    assert coxeter_matrix_of_quiver(q) == mat_neg(mat_mul(transpose(gram), gram_inv))
    order = 1
    ct = cycle_type_of_quiver(q)
    for p in ct.parts:
        import math
        order = order * p // math.gcd(order, p)
    # permutation order: Lambda^k = Id exactly when lcm divides k
    power = identity(q.m)
    for k in range(1, order + 1):
        power = mat_mul(power, lam)
        assert (power == identity(q.m)) == (k % order == 0)


def test_enumeration_counts_and_exactness():
    # spot-check the multiset enumeration: connected quivers on 2 vertices
    assert sorted(q.arrows for _, q in iter_connected_quivers(2, 2)) == [
        ((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (2, 1))
    ]
    # all yielded quivers are connected, sorted multisets, and unique
    seen = set()
    for _, q in iter_connected_quivers(4, 4):
        assert is_connected(q)
        assert tuple(sorted(q.arrows)) == q.arrows
        assert q not in seen
        seen.add(q)
    assert len(seen) == 816


def test_walk_enumerates_the_filtered_combinations_of_every_sweep_unit():
    # oracle: every sorted multiset of ordered pairs, in the order of
    # combinations_with_replacement, kept when it spans all m vertices
    for m, n, pair_index, _ in _phase1_units(4, 6, None):
        pairs = ordered_pairs(m)
        first = [None] + list(pairs) if pair_index < 0 else [pairs[pair_index]]
        for first_pair in first:
            expected = [
                combo for combo in combinations_with_replacement(pairs, n)
                if len(spanning_tree(m, combo)) == m - 1
                and first_pair in (None, combo[0])
            ]
            walked = list(iter_connected_quivers(m, n, first_pair))
            assert [q.arrows for _, q in walked] == expected, (m, n, first_pair)
            previous = ()
            for shared, q in walked:
                common = 0
                while common < len(previous) and previous[common] == q.arrows[common]:
                    common += 1
                assert shared == common, (m, n, first_pair, q.arrows)
                previous = q.arrows


def _connected_quiver_counts(max_vertices, max_arrows):
    """counts[m][n], the number of connected loop-less quivers on the
    vertices 1..m with a multiset of n arrows, for m <= max_vertices and
    n <= max_arrows, from generating functions.

    All such quivers on m vertices, connected or not, are counted by
    A_m(x) = (1 - x)^(-m(m-1)), the multisets of the m(m - 1) ordered
    pairs.  Splitting off the component of vertex 1, on k vertices, gives
    C_m = A_m - sum_{k<m} binom(m-1, k-1) C_k A_{m-k}, with C_1 = 1."""
    def all_quivers(m):
        pairs = m * (m - 1)
        return [comb(pairs + n - 1, n) if pairs else int(n == 0)
                for n in range(max_arrows + 1)]

    counts = {}
    for m in range(1, max_vertices + 1):
        c = all_quivers(m)
        for k in range(1, m):
            rest = all_quivers(m - k)
            for n in range(max_arrows + 1):
                c[n] -= comb(m - 1, k - 1) * sum(
                    counts[k][i] * rest[n - i] for i in range(n + 1))
        counts[m] = c
    return counts


def test_walk_counts_match_the_closed_form():
    counts = _connected_quiver_counts(5, 8)
    for m in range(1, 6):
        for n in range(8):
            if counts[m][n] < 20000:
                walked = sum(1 for _ in iter_connected_quivers(m, n))
                assert walked == counts[m][n], (m, n)

    def sweep_total(max_vertices, max_arrows):  # the sweep starts at m = 2
        return sum(counts[m][n] for m in range(2, max_vertices + 1)
                   for n in range(max_arrows + 1))
    assert [sweep_total(3, 4), sweep_total(4, 6), sweep_total(5, 7),
            sweep_total(5, 8)] == [181, 15437, 658429, 2537710]
    assert sweep_total(5, 7) == EXPECTED_QUIVERS
