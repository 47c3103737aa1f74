"""Quiver, walk and matrix-identity tests.

Small expected values (walks, permutations, matrices) were computed by
simulating the definitions by hand; the exhaustive section re-derives all
identities over every small quiver, including arbitrary arrow orderings.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxquiver.linalg import (
    identity,
    mat_mul,
    mat_neg,
    mat_sub,
    permutation_matrix,
    rational_rank,
    transpose,
    unitriangular_inverse,
)
from coxquiver.partitions import Partition, cycle_type_of_permutation, part1c
from coxquiver.quiver import (
    Quiver,
    Walk,
    add_arrow,
    coxeter_laplace,
    coxeter_matrix_of_quiver,
    cycle_type_of_quiver,
    incidence_matrix,
    incidence_vector,
    inverse_quiver,
    is_connected,
    iter_connected_quivers,
    laplace,
    min_decreasing_walk,
    min_increasing_walk,
    opposite,
    relabel_vertices,
    remove_last_arrow,
    reverse_walk,
    spanning_tree,
    structural_increasing_walk,
    structural_walk,
    transposition,
    triangular_gram,
    vertex_permutation,
    vertex_permutation_increasing,
    walk_target,
)
from coxquiver.unitform import form_from_upper, is_connected as form_connected

A3 = Quiver(3, ((1, 2), (2, 3)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))


def linear_quiver(m):
    return Quiver(m, tuple((j, j + 1) for j in range(1, m)))


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
        assert form_connected(form_from_upper(m, sorted(entries))) == connected
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
    assert triangular_gram(Quiver(2, ((1, 2),))) == ((1,),)
    assert triangular_gram(KRONECKER) == ((1, 2), (0, 1))
    assert triangular_gram(A3) == ((1, -1), (0, 1))


def test_laplace_examples():
    assert laplace(Quiver(2, ((1, 2),))) == ((1, -1), (-1, 1))
    assert laplace(KRONECKER) == ((2, -2), (-2, 2))


def test_laplace_rank_connected():
    for q in (A3, KRONECKER, linear_quiver(5)):
        assert rational_rank(laplace(q)) == q.m - 1


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def test_min_decreasing_walk_minimal_arrow_halts():
    w = min_decreasing_walk(A3, 1, 1)
    assert w == Walk(1, ((1, 1),))
    assert walk_target(A3, w) == 2


def test_min_decreasing_walk_a3_second_arrow():
    w = min_decreasing_walk(A3, 2, 1)
    assert w == Walk(2, ((2, 1),))
    assert walk_target(A3, w) == 3


def test_min_decreasing_walk_kronecker():
    w = min_decreasing_walk(KRONECKER, 2, 1)
    assert w == Walk(1, ((2, 1), (1, -1)))
    assert walk_target(KRONECKER, w) == 1


def test_min_increasing_walk_examples():
    assert min_increasing_walk(Quiver(2, ((1, 2),)), 1, 1) == Walk(1, ((1, 1),))
    w = min_increasing_walk(A3, 1, 1)
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
            up = structural_increasing_walk(q, w)
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
    with pytest.raises(ValueError):
        vertex_permutation(Quiver(4, ((1, 2), (3, 4))))


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
        xi_plus = vertex_permutation_increasing(q)
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
        assert triangular_gram(inverse_quiver(q)) == \
            unitriangular_inverse(triangular_gram(q))


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
        smaller = remove_last_arrow(q)
        s, t = q.arrows[-1]
        tau = transposition(q.m, s, t)
        xi_small = vertex_permutation(smaller, allow_disconnected=True)
        composed = tuple(xi_small[tau[v] - 1] for v in range(q.m))
        assert vertex_permutation(q) == composed


def test_remove_last_arrow_empty_errors():
    with pytest.raises(ValueError):
        remove_last_arrow(Quiver(1, ()))


def test_relabel_preserves_gram():
    q = Quiver(3, ((1, 2), (2, 3), (3, 1)))
    rho = (3, 1, 2)
    relabeled = relabel_vertices(q, rho)
    assert relabeled == Quiver(3, ((3, 1), (1, 2), (2, 3)))
    assert triangular_gram(relabeled) == triangular_gram(q)
    assert cycle_type_of_quiver(relabeled) == cycle_type_of_quiver(q)


def test_relabel_vertices_identity_and_swap():
    q = Quiver(2, ((1, 2),))
    assert relabel_vertices(q, (1, 2)) == q
    assert relabel_vertices(q, (2, 1)) == Quiver(2, ((2, 1),))


def test_opposite():
    assert opposite(Quiver(2, ((1, 2),))) == Quiver(2, ((2, 1),))
    q = Quiver(3, ((1, 2), (3, 2)))
    assert opposite(opposite(q)) == q
    assert triangular_gram(opposite(q)) == triangular_gram(q)


def test_adding_parallel_pair_preserves_permutation():
    quivers = [A3, KRONECKER, linear_quiver(5),
               Quiver(3, ((2, 1), (1, 3), (3, 2)))]
    for q in quivers:
        for v in range(1, q.m + 1):
            for w in range(1, q.m + 1):
                if v == w:
                    continue
                bigger = add_arrow(add_arrow(q, v, w), v, w)
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
            vec = incidence_vector(q, structural_increasing_walk(q, v))
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
                gram = triangular_gram(q)
                assert mat_mul(inc_t, inc) == tuple(
                    tuple(gram[i][j] + gram[j][i] for j in range(n))
                    for i in range(n)
                )
                assert mat_mul(inc, inc_t) == laplace(q)
                gram_inv = unitriangular_inverse(gram)
                qinv = inverse_quiver(q)
                assert incidence_matrix(qinv) == mat_mul(inc, gram_inv)
                assert inverse_quiver(qinv) == q
                assert triangular_gram(qinv) == gram_inv
                assert is_connected(qinv)
                xi = vertex_permutation(q)
                lam = mat_sub(identity(m),
                              mat_mul(incidence_matrix(qinv), inc_t))
                assert lam == permutation_matrix(xi)
                phi = mat_sub(identity(n),
                              mat_mul(inc_t, incidence_matrix(qinv)))
                assert phi == mat_neg(mat_mul(transpose(gram), gram_inv))
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
    gram = triangular_gram(q)
    gram_inv = unitriangular_inverse(gram)
    qinv = inverse_quiver(q)
    assert incidence_matrix(qinv) == mat_mul(inc, gram_inv)
    lam = coxeter_laplace(q)
    assert lam == permutation_matrix(vertex_permutation(q))
    coxeter_matrix_of_quiver(q)  # asserts its own two-formula agreement
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
    assert sorted(q.arrows for q in iter_connected_quivers(2, 2)) == [
        ((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (2, 1))
    ]
    # all yielded quivers are connected, sorted multisets, and unique
    seen = set()
    for q in iter_connected_quivers(4, 4):
        assert is_connected(q)
        assert tuple(sorted(q.arrows)) == q.arrows
        assert q not in seen
        seen.add(q)
    assert len(seen) == 816
