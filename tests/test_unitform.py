"""Unit form tests."""

import json
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxquiver.errors import NotDynkinTypeA
from coxquiver.linalg import char_poly, identity, mat_mul, transpose
from coxquiver.quiver import (
    Quiver,
    coxeter_matrix_of_quiver,
    opposite,
    relabel_vertices,
)
from coxquiver.realize import realize_quiver
from coxquiver.unitform import (
    UnitForm,
    check_strong_congruence,
    corank,
    evaluate,
    form_of_quiver,
    is_non_negative,
)

from dense import (
    dense_coxeter_matrix,
    form_connected,
    form_from_gram,
    fraction_det,
    incidence_matrix,
    symmetric_gram,
)
from test_linalg import TREES, _tree, _tree_form, closing_edge, fraction_rank
from test_realize import shuffled_connected_quivers

A3 = Quiver(3, ((1, 2), (2, 3)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A3_FORM = form_of_quiver(A3)          # gram ((1,-1),(0,1))
KRONECKER_FORM = form_of_quiver(KRONECKER)  # gram ((1,2),(0,1))


def test_unitform_validation():
    with pytest.raises(ValueError):
        UnitForm(2, ((1, 1, 1),))  # diagonal entry
    with pytest.raises(ValueError):
        UnitForm(2, ((2, 1, -1),))  # lower entry


def test_entries_are_stored_sorted_without_zeros():
    f = UnitForm(3, [(2, 3, 1), (1, 3, 0), (1, 2, -1)])
    assert f.upper == ((1, 2, -1), (2, 3, 1))
    assert f == UnitForm(3, (((1, 2, -1), (2, 3, 1))))
    assert hash(f) == hash(UnitForm(3, [[1, 2, -1], [2, 3, 1]]))
    assert f.gram_upper == ((1, -1, 0), (0, 1, 1), (0, 0, 1))
    assert form_from_gram(f.gram_upper) == f


def test_evaluate_zero_vector():
    assert evaluate(A3_FORM, (0, 0)) == 0


def test_evaluate_kronecker_isotropic():
    # x1^2 + x2^2 + 2 x1 x2 = (x1 + x2)^2
    assert evaluate(KRONECKER_FORM, (1, -1)) == 0
    assert evaluate(KRONECKER_FORM, (2, 3)) == 25


def test_evaluate_a3():
    # x1^2 + x2^2 - x1 x2
    assert evaluate(A3_FORM, (1, 1)) == 1


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(A3_FORM, (1, 2, 3))


def test_symmetric_gram():
    assert symmetric_gram(UnitForm(1, [])) == ((2,),)
    assert symmetric_gram(KRONECKER_FORM) == ((2, 2), (2, 2))
    assert symmetric_gram(A3_FORM) == ((2, -1), (-1, 2))


def test_corank_examples():
    assert corank(A3_FORM) == 0
    assert corank(KRONECKER_FORM) == 1
    four = form_of_quiver(Quiver(2, ((1, 2), (2, 1), (1, 2), (2, 1))))
    assert corank(four) == 3


@pytest.mark.parametrize("family, n", TREES, ids=[f"{f}_{n}" for f, n in TREES])
def test_corank_of_tree_forms_against_the_dense_rank(family, n):
    gram, signed, expected = _tree_form(family, n)
    f = _form_of_edges(len(gram), signed)
    assert corank(f) == f.n - fraction_rank(symmetric_gram(f)) == expected


@given(shuffled_connected_quivers())
@settings(max_examples=100, deadline=None)
def test_corank_of_type_a_forms_is_arrows_minus_vertices_plus_one(q):
    f = form_of_quiver(q)
    assert corank(f) == f.n - realize_quiver(f).m + 1


def test_corank_rejects_an_indefinite_form():
    with pytest.raises(ValueError, match="indefinite"):
        corank(UnitForm(2, [(1, 2, -3)]))


def test_corank_works_on_the_entries_without_the_dense_matrix():
    # a dense rank of G + G^T, with its row lists, takes about 62 MB at
    # n = 2000
    f = _form_of_edges(*_shuffled(_tree("D", 2000)[0], "D"))
    tracemalloc.start()
    try:
        assert corank(f) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_is_non_negative():
    assert is_non_negative(A3_FORM)
    assert is_non_negative(KRONECKER_FORM)
    assert not is_non_negative(UnitForm(2, [(1, 2, -3)]))
    assert is_non_negative(UnitForm(1, []))


def _large_forest(family):
    """D_n or D~_n with n = 100,000, or disjoint copies of E_6, E_7 and E_8
    (of E~_6, E~_7 and E~_8) with about 100,000 variables in all, through
    :func:`_shuffled`."""
    if family in ("D", "D~"):
        edges = _tree(family, 100_000)[0]
    else:
        edges, k = [], 0
        while True:
            copy = _tree(family, 6 + k % 3)[0]
            offset = len(edges) + k
            if offset + len(copy) + 1 > 100_000:
                break
            edges += [(u + offset, v + offset) for u, v in copy]
            k += 1
    return _shuffled(edges, family)


def _shuffled(edges, seed):
    """The forest with the edges ``edges``, in a random variable order with
    random signs: its size and its signed edges {(u, v): sign}."""
    size = max(map(max, edges)) + 1
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    return size, {(order[u], order[v]): rng.choice((-1, 1)) for u, v in edges}


def _form_of_edges(size, signed):
    return UnitForm(size, [(min(u, v) + 1, max(u, v) + 1, sign)
                           for (u, v), sign in signed.items()])


@pytest.mark.parametrize("family", ["D", "E", "D~", "E~"])
def test_large_tree_forms_are_non_negative_until_a_cycle_closes(family):
    size, signed = _large_forest(family)
    assert size > 99_900
    assert is_non_negative(_form_of_edges(size, signed))
    edge, value, y = closing_edge(size, signed, random.Random(family))
    closed = _form_of_edges(size, {**signed, edge: value})
    assert evaluate(closed, y) == -1
    assert not is_non_negative(closed)


def test_the_stuck_path_decides_non_negativity_without_the_dense_matrix():
    # D_n with n = 3000 gets stuck at a branch variable; the dense G + G^T
    # alone would take over 70 MB
    f = _form_of_edges(*_shuffled(_tree("D", 3000)[0], "D"))
    tracemalloc.start()
    try:
        with pytest.raises(NotDynkinTypeA):
            realize_quiver(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_quiver_forms_are_non_negative():
    quivers = [A3, KRONECKER, Quiver(4, ((1, 2), (3, 2), (3, 4), (1, 4))),
               Quiver(3, ((2, 1), (1, 3), (3, 2), (2, 3)))]
    for q in quivers:
        assert is_non_negative(form_of_quiver(q))


def test_is_connected():
    assert form_connected(UnitForm(1, []))
    assert form_connected(KRONECKER_FORM)
    assert not form_connected(UnitForm(2, []))
    block = UnitForm(4, [(1, 2, -1), (3, 4, -1)])
    assert not form_connected(block)


def test_form_of_quiver_matches_half_norm():
    quivers = [A3, KRONECKER, Quiver(3, ((2, 1), (1, 3), (3, 2)))]
    for q in quivers:
        f = form_of_quiver(q)
        inc = incidence_matrix(q)
        for x in product(range(-2, 3), repeat=q.n):
            image = [sum(inc[r][i] * x[i] for i in range(q.n))
                     for r in range(q.m)]
            half_norm2 = sum(y * y for y in image)
            assert half_norm2 == 2 * evaluate(f, x)


def test_form_of_quiver_examples():
    assert form_of_quiver(Quiver(2, ((1, 2),))).gram_upper == ((1,),)
    assert A3_FORM.gram_upper == ((1, -1), (0, 1))
    assert KRONECKER_FORM.gram_upper == ((1, 2), (0, 1))


def test_form_of_quiver_invariance():
    q = Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    assert form_of_quiver(opposite(q)) == form_of_quiver(q)
    assert form_of_quiver(relabel_vertices(q, (3, 1, 4, 2))) == form_of_quiver(q)


def test_coxeter_matrix_examples():
    assert dense_coxeter_matrix(UnitForm(1, [])) == ((-1,),)
    assert dense_coxeter_matrix(KRONECKER_FORM) == ((-1, 2), (-2, 3))


def _form_of_triples(n, triples):
    """The form with the last value drawn at each position (i, j) off the
    diagonal, taken above it."""
    entries = {(min(i, j), max(i, j)): value for i, j, value in triples if i != j}
    return UnitForm(n, [(i, j, value) for (i, j), value in entries.items()])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                 st.integers(-3, 3)), max_size=4 * n).map(
        lambda triples: _form_of_triples(n, triples))))
@example(UnitForm(3, [(1, 2, 3), (1, 3, -3), (2, 3, 3)]))  # indefinite
@example(UnitForm(4, [(1, 2, -1), (3, 4, 2)]))  # disconnected
def test_coxeter_matrix_solves_phi_g_equals_minus_g_transpose(f):
    # the dense oracle on any unit form, indefinite or disconnected ones
    # included, against the identity that defines Phi
    g = f.gram_upper
    phi = dense_coxeter_matrix(f)
    assert mat_mul(phi, g) == tuple(tuple(-x for x in col) for col in zip(*g))


def test_coxeter_polynomial_direct_examples():
    assert char_poly(dense_coxeter_matrix(UnitForm(1, []))) == (1, 1)
    assert char_poly(dense_coxeter_matrix(KRONECKER_FORM)) == (1, -2, 1)
    # linear quivers give nu_m
    for m in range(2, 7):
        q = Quiver(m, tuple((j, j + 1) for j in range(1, m)))
        assert char_poly(dense_coxeter_matrix(form_of_quiver(q))) == (1,) * m


def test_coxeter_polynomial_direct_is_char_poly():
    q = Quiver(3, ((2, 1), (1, 3), (3, 2)))
    assert char_poly(dense_coxeter_matrix(form_of_quiver(q))) == \
        char_poly(coxeter_matrix_of_quiver(q))


def test_check_strong_congruence_identity():
    assert check_strong_congruence(A3_FORM, A3_FORM, identity(2))
    assert not check_strong_congruence(A3_FORM, KRONECKER_FORM, identity(2))


def test_check_strong_congruence_negated_identity():
    minus = ((-1, 0), (0, -1))
    assert check_strong_congruence(KRONECKER_FORM, KRONECKER_FORM, minus)


def test_check_strong_congruence_rejects_non_unimodular():
    assert not check_strong_congruence(A3_FORM, A3_FORM, ((2, 0), (0, 1)))


@st.composite
def upper_unitriangular_congruences(draw, max_n=4):
    """A unit form f on n <= max_n variables with entries in -2..2, and an
    n x n integer B with entries in -2..2 for which B^T G_f B is upper
    unitriangular.  Column i of B is drawn among all x in {-2..2}^n with
    x^T G_f x = 1 and x^T G_f b = 0 for every earlier column b: the
    conditions on entry (i, i) and on the entries left of it.  Nothing asks
    for det B = +-1; a random B would almost never qualify at n >= 3."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    values = draw(st.lists(st.integers(-2, 2), min_size=len(pairs),
                           max_size=len(pairs)))
    f = UnitForm(n, [(i, j, v) for (i, j), v in zip(pairs, values)])
    gram = f.gram_upper

    def bilinear(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    columns = []
    for _ in range(n):
        candidates = [x for x in product(range(-2, 3), repeat=n)
                      if bilinear(x, x) == 1
                      and all(bilinear(x, b) == 0 for b in columns)]
        assume(candidates)
        columns.append(draw(st.sampled_from(candidates)))
    return f, transpose(tuple(columns))


@given(upper_unitriangular_congruences())
@example((A3_FORM, ((-1, 0), (0, -1))))
@example((UnitForm(3, [(1, 2, -1)]), ((1, 0, 0), (0, 0, 1), (0, 1, 0))))
@settings(max_examples=100, deadline=None)
def test_an_upper_unitriangular_congruence_is_unimodular(witness):
    # G_f and B^T G_f B are unitriangular, so det(B)^2 = 1: the product
    # test of check_strong_congruence implies its unimodularity
    f, b = witness
    congruent = mat_mul(mat_mul(transpose(b), f.gram_upper), b)
    assert fraction_det(b) in (1, -1)
    assert check_strong_congruence(f, form_from_gram(congruent), b)


def test_strong_congruence_from_relabeled_quivers():
    q = Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    relabeled = relabel_vertices(q, (2, 4, 1, 3))
    f, g = form_of_quiver(q), form_of_quiver(relabeled)
    assert f == g
    assert check_strong_congruence(f, g, identity(4))


def test_strong_congruence_preserves_coxeter_polynomial():
    # congruence by the permutation matrix that swaps two orthogonal variables
    f = UnitForm(3, [(1, 2, -1)])
    b = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    g = form_from_gram(((1, 0, -1), (0, 1, 0), (0, 0, 1)))
    assert check_strong_congruence(f, g, b)
    assert char_poly(dense_coxeter_matrix(f)) == char_poly(dense_coxeter_matrix(g))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_unitform_json_roundtrip():
    f = UnitForm(3, [(1, 2, -1), (1, 3, 2)])
    blob = json.dumps(f.to_json())
    assert UnitForm.from_json(json.loads(blob)) == f


def test_unitform_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        UnitForm.from_json({"n": 2, "upper": [], "extra": True})


def test_unitform_json_rejects_bad_entries():
    with pytest.raises(ValueError):
        UnitForm.from_json({"n": 2, "upper": [[2, 1, -1]]})
    with pytest.raises(ValueError):
        UnitForm.from_json({"n": 2, "upper": [[1, 1, 1]]})


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                          st.integers(-2, 2)), max_size=6))
@settings(max_examples=60)
def test_unitform_json_roundtrip_random(entries):
    triples = [(min(i, j), max(i, j), v) for i, j, v in entries if i != j]
    seen = set()
    unique = []
    for i, j, v in triples:
        if (i, j) not in seen:
            seen.add((i, j))
            unique.append((i, j, v))
    f = UnitForm(4, unique)
    assert UnitForm.from_json(json.loads(json.dumps(f.to_json()))) == f
