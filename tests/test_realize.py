"""Realization tests: representative families, the canonical extension
quiver, the breadth-first realizer and its basis change, and differential
checks against an exhaustive search kept here as an oracle."""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxquiver.errors import NotConnected, NotDynkinTypeA
from coxquiver.linalg import determinant, mat_mul, transpose
from coxquiver.partitions import Partition, part1c
from coxquiver.quiver import (
    Quiver,
    cycle_type_of_quiver,
    incidence_matrix,
    inverse_quiver,
    is_connected as quiver_connected,
    iter_connected_quivers,
    triangular_gram,
)
from coxquiver.realize import (
    STRATEGY,
    basis_change_to_canonical,
    canonical_extension_quiver,
    linear_quiver,
    realize,
    realize_quiver,
    representative_quiver_A,
    representative_quiver_star,
    star_quiver,
    weak_congruence_to_canonical,
)
from coxquiver.unitform import (
    UnitForm,
    corank,
    evaluate,
    form_from_upper,
    form_of_quiver,
    is_connected,
    is_non_negative,
    symmetric_gram,
)


# ---------------------------------------------------------------------------
# representative families
# ---------------------------------------------------------------------------

def test_representative_single_part_is_linear():
    for m in range(2, 7):
        assert representative_quiver_A(Partition((m,)), 0) == linear_quiver(m)
        assert representative_quiver_star(Partition((m,)), 0) == star_quiver(m)


def test_representative_11_d1_matches_figure():
    a = representative_quiver_A(Partition((1, 1)), 1)
    star = representative_quiver_star(Partition((1, 1)), 1)
    assert a == Quiver(2, ((1, 2), (2, 1), (1, 2), (2, 1)))
    assert star == Quiver(2, ((1, 2), (1, 2), (1, 2), (1, 2)))


def test_representative_322_d1_matches_figure():
    a = representative_quiver_A(Partition((3, 2, 2)), 1)
    assert a.m == 7 and a.n == 10
    # spine 1..6, chord 7 -> 4, chord 4 -> 2, then the opposed pair on {2, 4}
    assert a.arrows == (
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        (7, 4), (4, 2), (2, 4), (4, 2),
    )
    star = representative_quiver_star(Partition((3, 2, 2)), 1)
    assert star.arrows == (
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
        (1, 5), (1, 3), (1, 3), (1, 3),
    )


def test_representative_arrow_count_and_corank():
    for m in range(2, 7):
        for length in range(1, m + 1):
            for pi in [p for p in part1c(length - 1, m) if p.length == length]:
                for d in range(0, 3):
                    q = representative_quiver_A(pi, d)
                    assert q.m == m
                    assert q.n == m + length + 2 * (d - 1)
                    assert quiver_connected(q)
                    f = form_of_quiver(q)
                    assert corank(f) == length - 1 + 2 * d


def test_representative_cycle_type_surjectivity():
    for m in range(2, 7):
        for c in range(0, 5):
            for pi in part1c(c, m):
                d = (c - (pi.length - 1)) // 2
                q = representative_quiver_A(pi, d)
                assert cycle_type_of_quiver(q) == pi


def test_representative_inverse_pairing_exact():
    for m in range(2, 7):
        for c in range(0, 5):
            for pi in part1c(c, m):
                d = (c - (pi.length - 1)) // 2
                assert inverse_quiver(representative_quiver_A(pi, d)) == \
                    representative_quiver_star(pi, d)


def test_all_ones_vector_is_root_or_radical():
    # the incidence columns telescope to e_1 - e_{last part}, so the all-ones
    # vector is a root exactly when the smallest part exceeds 1 (or there is
    # a single part); for a trailing part 1 it is a radical vector instead
    for parts, d in (((3, 2, 2), 1), ((4,), 0), ((2, 1, 1), 0), ((1, 1), 2),
                     ((5,), 1), ((3, 3, 2), 0)):
        pi = Partition(parts)
        q = representative_quiver_A(pi, d)
        f = form_of_quiver(q)
        expected = 1 if (pi.length == 1 or pi.parts[-1] >= 2) else 0
        assert evaluate(f, (1,) * f.n) == expected


def test_representative_requires_two_vertices():
    with pytest.raises(ValueError):
        representative_quiver_A(Partition((1,)), 0)


# ---------------------------------------------------------------------------
# canonical extension quivers
# ---------------------------------------------------------------------------

def test_canonical_extension_no_arcs_is_linear():
    for r in range(1, 6):
        assert canonical_extension_quiver(r, 0) == linear_quiver(r + 1)


def test_canonical_extension_2_1():
    assert canonical_extension_quiver(2, 1) == \
        Quiver(3, ((1, 2), (2, 3), (3, 1)))


def test_canonical_extension_rank_and_corank():
    for r in range(1, 5):
        for c in range(0, 4):
            q = canonical_extension_quiver(r, c)
            assert q.m == r + 1 and q.n == r + c
            f = form_of_quiver(q)
            assert corank(f) == c
            assert cycle_type_of_quiver(q) is not None


# ---------------------------------------------------------------------------
# the exhaustive search, kept as an oracle for small forms
# ---------------------------------------------------------------------------

def realize_backtracking(f: UnitForm) -> Quiver:
    """Search for vertex pairs (s_i, t_i) whose incidence columns reproduce
    the symmetric Gram matrix exactly, on the n - corank + 1 vertices any
    realization has.

    Vertices are introduced in first-appearance order and the first arrow is
    pinned to (1, 2), which breaks the relabeling and the global orientation
    symmetry; otherwise the search is exhaustive, so it proves or refutes
    type A on its own.  Exponential in n: for small forms only.
    """
    if not is_connected(f):
        raise ValueError("realization requires a connected unit form")
    if not is_non_negative(f):
        raise ValueError("realization requires a non-negative unit form")
    n = f.n
    m = n - corank(f) + 1
    g = symmetric_gram(f)
    arrows: list[tuple[int, int]] = []

    def dot(a, b):
        return (a[0] == b[0]) + (a[1] == b[1]) - (a[0] == b[1]) - (a[1] == b[0])

    def extend(i: int, used: int) -> bool:
        if i == n:
            return used == m
        if used + 2 * (n - i) < m:
            return False
        for s in range(1, min(used + 1, m) + 1):
            used_s = used + 1 if s == used + 1 else used
            for t in range(1, min(used_s + 1, m) + 1):
                cand = (s, t)
                if t != s and all(dot(cand, arrows[j]) == g[i][j] for j in range(i)):
                    arrows.append(cand)
                    if extend(i + 1, used_s + 1 if t == used_s + 1 else used_s):
                        return True
                    arrows.pop()
        return False

    if not extend(0, 0):
        raise NotDynkinTypeA(f"no quiver on {m} vertices realizes this form")
    return Quiver(m, tuple(arrows))


def outcome(realizer, f):
    """'realized', 'not type A' or 'indefinite', checking any quiver."""
    try:
        q = realizer(f)
    except NotDynkinTypeA:
        return "not type A"
    except ValueError:
        return "indefinite"
    assert triangular_gram(q) == f.gram_upper
    return "realized"


def test_backtracking_path_form():
    f = form_from_upper(2, [(1, 2, -1)])
    q = realize_backtracking(f)
    assert form_of_quiver(q) == f
    assert cycle_type_of_quiver(q) == Partition((3,))


def test_backtracking_kronecker():
    f = form_from_upper(2, [(1, 2, 2)])
    assert realize_backtracking(f) == Quiver(2, ((1, 2), (1, 2)))


def test_backtracking_deterministic_labels():
    f = form_of_quiver(Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))))
    first = realize_backtracking(f)
    second = realize_backtracking(f)
    assert first == second
    assert first.arrows[0] == (1, 2)


def test_backtracking_rejects_type_d():
    d4 = form_from_upper(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA):
        realize_backtracking(d4)


def test_backtracking_rejects_type_e():
    # E6 diagram: path 1-2-3-4-5 with 6 attached to the middle vertex 3
    e6 = form_from_upper(6, [(1, 2, -1), (2, 3, -1), (3, 4, -1),
                             (4, 5, -1), (3, 6, -1)])
    with pytest.raises(NotDynkinTypeA):
        realize_backtracking(e6)


def test_backtracking_validates_preconditions():
    with pytest.raises(ValueError):
        realize_backtracking(form_from_upper(2, []))  # disconnected
    with pytest.raises(ValueError):
        realize_backtracking(form_from_upper(2, [(1, 2, -3)]))  # indefinite


# ---------------------------------------------------------------------------
# basis change onto the canonical extension quiver
# ---------------------------------------------------------------------------

def assert_weak_congruence(f, b):
    n = f.n
    m = n - corank(f) + 1
    target = symmetric_gram(form_of_quiver(canonical_extension_quiver(m - 1, n - m + 1)))
    assert determinant(b) in (1, -1)
    assert mat_mul(mat_mul(transpose(b), symmetric_gram(f)), b) == target


def test_weak_congruence_canonical_input_is_signed_permutation():
    f = form_of_quiver(canonical_extension_quiver(3, 2))
    b = weak_congruence_to_canonical(f)
    target = symmetric_gram(form_of_quiver(canonical_extension_quiver(3, 2)))
    assert mat_mul(mat_mul(transpose(b), symmetric_gram(f)), b) == target
    assert all(sum(1 for x in row if x != 0) == 1 for row in b)


def test_weak_congruence_kronecker():
    f = form_from_upper(2, [(1, 2, 2)])
    assert_weak_congruence(f, weak_congruence_to_canonical(f))


def test_weak_congruence_path_form():
    f = form_from_upper(2, [(1, 2, -1)])
    assert_weak_congruence(f, weak_congruence_to_canonical(f))


def test_weak_congruence_clears_positive_units():
    # gram with a +1 entry
    f = form_from_upper(2, [(1, 2, 1)])
    assert_weak_congruence(f, weak_congruence_to_canonical(f))


def test_weak_congruence_failure_raises():
    d4 = form_from_upper(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA):
        weak_congruence_to_canonical(d4)


def test_weak_congruence_of_two_isotropic_pairs():
    # two separate isotropic pairs: no signed permutation of the variables
    # carries this Gram matrix to the canonical one, a basis change does
    f = form_of_quiver(Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3))))
    assert_weak_congruence(f, weak_congruence_to_canonical(f))


def test_basis_change_maps_incidence_to_canonical():
    q = representative_quiver_A(Partition((3, 2, 2)), 1)
    b = basis_change_to_canonical(q)
    canonical = canonical_extension_quiver(q.m - 1, q.n - q.m + 1)
    assert mat_mul(incidence_matrix(q), b) == incidence_matrix(canonical)


# ---------------------------------------------------------------------------
# breadth-first realization
# ---------------------------------------------------------------------------

def test_algorithm71_on_canonical_form():
    q = canonical_extension_quiver(3, 2)
    f = form_of_quiver(q)
    result = realize(f)
    assert result.strategy == STRATEGY
    assert result.quiver == q
    assert form_of_quiver(result.quiver) == f


def test_algorithm71_path_form():
    f = form_from_upper(2, [(1, 2, -1)])
    result = realize(f)
    assert result.strategy == STRATEGY
    assert result.basis_change is not None
    assert form_of_quiver(result.quiver) == f
    assert cycle_type_of_quiver(result.quiver) == Partition((3,))


def test_realize_two_isotropic_pairs_without_fallback():
    q = Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
    f = form_of_quiver(q)
    result = realize(f)
    assert result.strategy == STRATEGY
    assert form_of_quiver(result.quiver) == f
    assert_weak_congruence(f, result.basis_change)


def test_algorithm71_representative_322():
    f = form_of_quiver(representative_quiver_A(Partition((3, 2, 2)), 1))
    result = realize(f)
    assert form_of_quiver(result.quiver) == f
    assert cycle_type_of_quiver(result.quiver) == Partition((3, 2, 2))


def test_realize_wrapper():
    f = form_from_upper(2, [(1, 2, 2)])
    assert form_of_quiver(realize(f).quiver) == f


def test_realize_first_arrow_and_labels():
    f = form_of_quiver(Quiver(4, ((3, 4), (2, 3), (1, 2), (4, 1))))
    q = realize_quiver(f)
    assert q.arrows[0] == (1, 2)
    assert q.m == 4 and sorted({v for a in q.arrows for v in a}) == [1, 2, 3, 4]


def test_realize_rejects_disconnected_and_indefinite():
    with pytest.raises(NotConnected, match="connected"):
        realize(form_from_upper(3, [(1, 2, -1)]))
    with pytest.raises(ValueError, match="indefinite"):
        realize(form_from_upper(2, [(1, 2, -3)]))
    with pytest.raises(ValueError, match="indefinite"):
        # four pairwise -1 entries: 3 Id - J has the eigenvalue -1
        realize(form_from_upper(4, [(i, j, -1) for i in range(1, 5)
                                    for j in range(i + 1, 5)]))


def test_realize_names_the_stuck_variable():
    d4 = form_from_upper(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA) as info:
        realize(d4)
    message = str(info.value)
    assert "not Dynkin type A" in message
    assert "variable 4" in message
    assert "-1 with variable 1" in message
    assert "0 with the 2 other placed variables" in message


def test_both_strategies_agree_exhaustively_small():
    # every connected quiver form with m <= 4, n <= 5: the breadth-first
    # realizer and the search both reproduce the form and the cycle type
    seen = set()
    for m in range(2, 5):
        for n in range(m - 1, 6):
            if n < 1:
                continue
            for q in iter_connected_quivers(m, n):
                gram = triangular_gram(q)
                if gram in seen:
                    continue
                seen.add(gram)
                f = UnitForm(n, gram)
                ct = cycle_type_of_quiver(q)
                bt = realize_backtracking(f)
                assert triangular_gram(bt) == gram
                assert cycle_type_of_quiver(bt) == ct
                result = realize(f)
                assert triangular_gram(result.quiver) == gram
                assert cycle_type_of_quiver(result.quiver) == ct
                assert determinant(result.basis_change) in (1, -1)


def test_realization_result_json():
    f = form_from_upper(2, [(1, 2, 2)])
    result = realize(f)
    data = json.loads(json.dumps(result.to_json()))
    assert set(data) == {"quiver", "basis_change", "strategy"}
    assert data["strategy"] == STRATEGY
    assert Quiver.from_json(data["quiver"]) == result.quiver
    assert data["basis_change"] == [list(row) for row in result.basis_change]


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@st.composite
def shuffled_connected_quivers(draw, max_vertices=25):
    """A random spanning tree with random orientations plus up to m extra
    arrows (parallel ones allowed), in random arrow order."""
    m = draw(st.integers(min_value=2, max_value=max_vertices))
    extra = draw(st.integers(min_value=0, max_value=m + 1))
    labels = draw(st.permutations(list(range(1, m + 1))))
    arrows = []
    for k in range(1, m):
        u = labels[k]
        v = labels[draw(st.integers(min_value=0, max_value=k - 1))]
        arrows.append((u, v) if draw(st.booleans()) else (v, u))
    vertices = st.integers(min_value=1, max_value=m)
    for _ in range(extra):
        s = draw(vertices)
        t = draw(vertices.filter(lambda x: x != s))
        arrows.append((s, t))
    order = draw(st.permutations(list(range(len(arrows)))))
    return Quiver(m, tuple(arrows[i] for i in order))


@given(shuffled_connected_quivers())
@settings(max_examples=150, deadline=None)
def test_realize_random_quivers(q):
    gram = triangular_gram(q)
    result = realize(UnitForm(q.n, gram))
    assert triangular_gram(result.quiver) == gram
    assert result.quiver.m == q.m
    assert cycle_type_of_quiver(result.quiver) == cycle_type_of_quiver(q)


@given(shuffled_connected_quivers(max_vertices=6).filter(lambda q: q.n <= 8))
@settings(max_examples=100, deadline=None)
def test_basis_change_is_a_weak_congruence(q):
    f = form_of_quiver(q)
    assert_weak_congruence(f, realize(f).basis_change)


@given(shuffled_connected_quivers(max_vertices=7).filter(lambda q: q.n <= 10),
       st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from((-2, -1, 0, 1, 2)))
@settings(max_examples=150, deadline=None)
def test_realize_agrees_with_search_oracle(q, position, value):
    # the form of a quiver with one Gram entry replaced: type A, another
    # non-negative form, or an indefinite one
    rows = [list(row) for row in triangular_gram(q)]
    pairs = [(i, j) for i in range(q.n) for j in range(i + 1, q.n)]
    if pairs:
        i, j = pairs[position % len(pairs)]
        rows[i][j] = value
    f = UnitForm(q.n, tuple(tuple(row) for row in rows))
    assume(is_connected(f))
    assert outcome(realize_quiver, f) == outcome(realize_backtracking, f)


def test_realize_agrees_with_search_oracle_on_every_form_with_4_variables():
    # every connected form on 4 variables with entries in -2..2: 624 are
    # of type A, 104 non-negative but not of type A, the rest indefinite
    pairs = list(itertools.combinations(range(1, 5), 2))
    counts = {"realized": 0, "not type A": 0, "indefinite": 0}
    for values in itertools.product((-2, -1, 0, 1, 2), repeat=len(pairs)):
        f = form_from_upper(4, [(i, j, v) for (i, j), v in zip(pairs, values) if v])
        if is_connected(f):
            got = outcome(realize_quiver, f)
            assert got == outcome(realize_backtracking, f), values
            counts[got] += 1
    assert counts == {"realized": 624, "not type A": 104, "indefinite": 14376}


def tree_edges(family, size):
    """Edges of D_n, E_n, D~_n or E~_n on vertices 0..N-1."""
    if family in ("D", "Dt"):
        path = [(i, i + 1) for i in range(size - 2)]
        if family == "D":
            return path + [(size - 3, size - 1)]
        return path + [(1, size - 1), (size - 3, size)]
    arms = {("E", 6): (1, 2, 2), ("E", 7): (1, 2, 3), ("E", 8): (1, 2, 4),
            ("Et", 6): (2, 2, 2), ("Et", 7): (1, 3, 3), ("Et", 8): (1, 2, 5)}
    edges, nxt = [], 1
    for length in arms[family, size]:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


SHAPES = ([("D", n) for n in range(4, 13)] + [("E", n) for n in (6, 7, 8)]
          + [("Dt", n) for n in range(4, 13)] + [("Et", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("family,size", SHAPES)
def test_realize_rejects_d_and_e_forms(family, size):
    rng = random.Random(f"{family}{size}")
    edges = tree_edges(family, size)
    count = len(edges) + 1
    for _ in range(5):
        order = list(range(1, count + 1))
        rng.shuffle(order)
        f = form_from_upper(count, [
            (min(order[a], order[b]), max(order[a], order[b]), rng.choice((-1, 1)))
            for a, b in edges
        ])
        assert is_non_negative(f)
        with pytest.raises(NotDynkinTypeA):
            realize(f)
        if count <= 10:
            assert outcome(realize_backtracking, f) == "not type A"
