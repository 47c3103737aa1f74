"""Realization tests: representative families, the canonical extension
quiver, the breadth-first realizer and its basis change, and differential
checks against an exhaustive search and the dense breadth-first realizer,
both kept here as oracles."""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxquiver.errors import NotConnected, NotDynkinTypeA
from coxquiver.linalg import mat_mul, psd_rank, transpose
from coxquiver.partitions import Partition, part1c
from coxquiver.quiver import (
    Quiver,
    cycle_type_of_quiver,
    inverse_quiver,
    is_connected as quiver_connected,
    iter_connected_quivers,
)
from coxquiver.realize import (
    basis_change_to_canonical,
    canonical_extension_quiver,
    realize,
    realize_quiver,
    representative_quiver_A,
    representative_quiver_star,
)
from coxquiver.unitform import (
    UnitForm,
    corank,
    evaluate,
    form_of_quiver,
    is_non_negative,
)

from dense import (
    basis_change_from_root_paths,
    form_connected,
    form_from_gram,
    fraction_det,
    gram_from_incidence,
    incidence_matrix,
    symmetric_gram,
)


# ---------------------------------------------------------------------------
# representative families
# ---------------------------------------------------------------------------

def linear_quiver(m):
    """Arrows j: v_j -> v_{j+1} for j = 1..m-1."""
    return Quiver(m, tuple((j, j + 1) for j in range(1, m)))


def star_quiver(m):
    """Arrows j: v_1 -> v_{j+1} for j = 1..m-1."""
    return Quiver(m, tuple((1, j + 1) for j in range(1, m)))


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
    if not form_connected(f):
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


# ---------------------------------------------------------------------------
# the dense breadth-first realizer, kept as an oracle for the sparse one
# ---------------------------------------------------------------------------

def _dense_breadth_first(g):
    n = len(g)
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    for i in order:
        row = g[i]
        for j in range(n):
            if row[j] and parent[j] == -2:
                parent[j] = i
                order.append(j)
    if len(order) < n:
        raise NotConnected("realization requires a connected unit form")
    return [(i, parent[i]) for i in order]


def _dense_candidate(known, source, row, placed, arrows, fresh):
    sign = 1 if source else -1
    x = fresh
    for j in placed:
        u, v = arrows[j]
        r = sign * ((known == u) - (known == v)) - row[j]
        if r:
            x = u if r == sign else v
            break
    return (known, x) if source else (x, known)


def _dense_fits(column, row, placed, arrows):
    s, t = column
    for j in placed:
        u, v = arrows[j]
        if (s == u) + (t == v) - (s == v) - (t == u) != row[j]:
            return False
    return True


def _dense_stuck(i, row, placed):
    neighbours = sorted(j for j in placed if row[j])
    entries = ", ".join(f"{row[j]} with variable {j + 1}" for j in neighbours)
    others = len(placed) - len(neighbours)
    return (f"not Dynkin type A: no incidence column for variable {i + 1} has "
            f"the Gram entries {entries} and 0 with the {others} other placed "
            "variables")


def realize_quiver_dense(f: UnitForm) -> Quiver:
    """The breadth-first realizer on the dense matrix G + G^T: each candidate
    column is compared with every placed column, in placement order."""
    g = symmetric_gram(f)
    order = _dense_breadth_first(g)
    arrows = [None] * f.n
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
            ends = ((a, True), (b, False)) if entry == 1 else ((b, True), (a, False))
            shapes = (_dense_candidate(known, source, row, placed, arrows, m + 1)
                      for known, source in ends)
        else:
            shapes = ()
        for column in shapes:
            if _dense_fits(column, row, placed, arrows):
                break
        else:
            if psd_rank(g) is None:
                raise ValueError("the form is indefinite: realization requires "
                                 "a non-negative unit form")
            raise NotDynkinTypeA(_dense_stuck(i, row, placed))
        m = max(m, *column)
        arrows[i] = column
        placed.append(i)
    return Quiver(m, tuple(arrows))


def realized_or_raised(realizer, f):
    """The quiver, or the type and message of the ValueError raised."""
    try:
        return realizer(f)
    except ValueError as exc:  # NotDynkinTypeA and NotConnected included
        return type(exc), str(exc)


def outcome(realizer, f):
    """'realized', 'not type A' or 'indefinite', checking any quiver."""
    try:
        q = realizer(f)
    except NotDynkinTypeA:
        return "not type A"
    except ValueError:
        return "indefinite"
    assert gram_from_incidence(q) == f.gram_upper
    return "realized"


def test_backtracking_path_form():
    f = UnitForm(2, [(1, 2, -1)])
    q = realize_backtracking(f)
    assert form_of_quiver(q) == f
    assert cycle_type_of_quiver(q) == Partition((3,))


def test_backtracking_kronecker():
    f = UnitForm(2, [(1, 2, 2)])
    assert realize_backtracking(f) == Quiver(2, ((1, 2), (1, 2)))


def test_backtracking_deterministic_labels():
    f = form_of_quiver(Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))))
    first = realize_backtracking(f)
    second = realize_backtracking(f)
    assert first == second
    assert first.arrows[0] == (1, 2)


def test_backtracking_rejects_type_d():
    d4 = UnitForm(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA):
        realize_backtracking(d4)


def test_backtracking_rejects_type_e():
    # E6 diagram: path 1-2-3-4-5 with 6 attached to the middle vertex 3
    e6 = UnitForm(6, [(1, 2, -1), (2, 3, -1), (3, 4, -1),
                             (4, 5, -1), (3, 6, -1)])
    with pytest.raises(NotDynkinTypeA):
        realize_backtracking(e6)


def test_backtracking_validates_preconditions():
    with pytest.raises(ValueError):
        realize_backtracking(UnitForm(2, []))  # disconnected
    with pytest.raises(ValueError):
        realize_backtracking(UnitForm(2, [(1, 2, -3)]))  # indefinite


# ---------------------------------------------------------------------------
# basis change onto the canonical extension quiver
# ---------------------------------------------------------------------------

def assert_weak_congruence(f, b):
    n = f.n
    m = n - corank(f) + 1
    target = symmetric_gram(form_of_quiver(canonical_extension_quiver(m - 1, n - m + 1)))
    assert fraction_det(b) in (1, -1)
    assert mat_mul(mat_mul(transpose(b), symmetric_gram(f)), b) == target


def test_weak_congruence_canonical_input_is_signed_permutation():
    f = form_of_quiver(canonical_extension_quiver(3, 2))
    b = realize(f).basis_change
    target = symmetric_gram(form_of_quiver(canonical_extension_quiver(3, 2)))
    assert mat_mul(mat_mul(transpose(b), symmetric_gram(f)), b) == target
    assert all(sum(1 for x in row if x != 0) == 1 for row in b)


def test_weak_congruence_kronecker():
    f = UnitForm(2, [(1, 2, 2)])
    assert_weak_congruence(f, realize(f).basis_change)


def test_weak_congruence_path_form():
    f = UnitForm(2, [(1, 2, -1)])
    assert_weak_congruence(f, realize(f).basis_change)


def test_weak_congruence_clears_positive_units():
    # gram with a +1 entry
    f = UnitForm(2, [(1, 2, 1)])
    assert_weak_congruence(f, realize(f).basis_change)


def test_weak_congruence_failure_raises():
    d4 = UnitForm(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA):
        realize(d4)


def test_weak_congruence_of_two_isotropic_pairs():
    # two separate isotropic pairs: no signed permutation of the variables
    # carries this Gram matrix to the canonical one, a basis change does
    f = form_of_quiver(Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3))))
    assert_weak_congruence(f, realize(f).basis_change)


def test_basis_change_maps_incidence_to_canonical():
    q = representative_quiver_A(Partition((3, 2, 2)), 1)
    b = basis_change_to_canonical(q)
    canonical = canonical_extension_quiver(q.m - 1, q.n - q.m + 1)
    assert mat_mul(incidence_matrix(q), b) == incidence_matrix(canonical)


# ---------------------------------------------------------------------------
# breadth-first realization
# ---------------------------------------------------------------------------

def test_realize_returns_the_canonical_quiver_of_its_form():
    q = canonical_extension_quiver(3, 2)
    f = form_of_quiver(q)
    result = realize(f)
    assert result.quiver == q
    assert form_of_quiver(result.quiver) == f


def test_realize_path_form():
    f = UnitForm(2, [(1, 2, -1)])
    result = realize(f)
    assert result.basis_change is not None
    assert form_of_quiver(result.quiver) == f
    assert cycle_type_of_quiver(result.quiver) == Partition((3,))


def test_realize_two_isotropic_pairs_without_fallback():
    q = Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
    f = form_of_quiver(q)
    result = realize(f)
    assert form_of_quiver(result.quiver) == f
    assert_weak_congruence(f, result.basis_change)


def test_realize_representative_322():
    f = form_of_quiver(representative_quiver_A(Partition((3, 2, 2)), 1))
    result = realize(f)
    assert form_of_quiver(result.quiver) == f
    assert cycle_type_of_quiver(result.quiver) == Partition((3, 2, 2))


def test_realize_wrapper():
    f = UnitForm(2, [(1, 2, 2)])
    assert form_of_quiver(realize(f).quiver) == f


def test_realize_first_arrow_and_labels():
    f = form_of_quiver(Quiver(4, ((3, 4), (2, 3), (1, 2), (4, 1))))
    q = realize_quiver(f)
    assert q.arrows[0] == (1, 2)
    assert q.m == 4 and sorted({v for a in q.arrows for v in a}) == [1, 2, 3, 4]


def test_realize_rejects_disconnected_and_indefinite():
    with pytest.raises(NotConnected, match="connected"):
        realize(UnitForm(3, [(1, 2, -1)]))
    with pytest.raises(ValueError, match="indefinite"):
        realize(UnitForm(2, [(1, 2, -3)]))
    with pytest.raises(ValueError, match="indefinite"):
        # four pairwise -1 entries: 3 Id - J has the eigenvalue -1
        realize(UnitForm(4, [(i, j, -1) for i in range(1, 5)
                                    for j in range(i + 1, 5)]))


def test_realize_names_the_stuck_variable():
    d4 = UnitForm(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA) as info:
        realize(d4)
    message = str(info.value)
    assert "not Dynkin type A" in message
    assert "variable 4" in message
    assert "-1 with variable 1" in message
    assert "0 with the 2 other placed variables" in message


def test_realize_and_the_search_oracle_reproduce_every_small_quiver_form():
    # every connected quiver form with m <= 4, n <= 5: the breadth-first
    # realizer and the search both reproduce the form and the cycle type
    seen = set()
    for m in range(2, 5):
        for n in range(m - 1, 6):
            if n < 1:
                continue
            for _, q in iter_connected_quivers(m, n):
                gram = gram_from_incidence(q)
                if gram in seen:
                    continue
                seen.add(gram)
                f = form_from_gram(gram)
                ct = cycle_type_of_quiver(q)
                bt = realize_backtracking(f)
                assert gram_from_incidence(bt) == gram
                assert cycle_type_of_quiver(bt) == ct
                result = realize(f)
                assert gram_from_incidence(result.quiver) == gram
                assert cycle_type_of_quiver(result.quiver) == ct
                assert fraction_det(result.basis_change) in (1, -1)


def test_realization_result_json():
    f = UnitForm(2, [(1, 2, 2)])
    result = realize(f)
    data = json.loads(json.dumps(result.to_json()))
    assert set(data) == {"quiver", "basis_change"}
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
    gram = gram_from_incidence(q)
    result = realize(form_from_gram(gram))
    assert gram_from_incidence(result.quiver) == gram
    assert result.quiver.m == q.m
    assert cycle_type_of_quiver(result.quiver) == cycle_type_of_quiver(q)


def test_basis_change_matches_the_root_path_oracle_on_every_small_quiver():
    count = 0
    for m in range(2, 5):
        for n in range(m - 1, 6):
            for _, q in iter_connected_quivers(m, n):
                assert basis_change_to_canonical(q) == basis_change_from_root_paths(q), q
                count += 1
    assert count == 4629


@given(shuffled_connected_quivers(max_vertices=30))
@settings(max_examples=150, deadline=None)
def test_basis_change_matches_the_root_path_oracle(q):
    """Arrows in any order, so the spanning tree, the root's subtrees and
    the arcs fall anywhere among the arrows."""
    assert basis_change_to_canonical(q) == basis_change_from_root_paths(q)


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
    rows = [list(row) for row in form_of_quiver(q).gram_upper]
    pairs = [(i, j) for i in range(q.n) for j in range(i + 1, q.n)]
    if pairs:
        i, j = pairs[position % len(pairs)]
        rows[i][j] = value
    f = form_from_gram(rows)
    assume(form_connected(f))
    assert outcome(realize_quiver, f) == outcome(realize_backtracking, f)


def test_realize_agrees_with_search_oracle_on_every_form_with_4_variables():
    # every connected form on 4 variables with entries in -2..2: 624 are
    # of type A, 104 non-negative but not of type A, the rest indefinite
    pairs = list(itertools.combinations(range(1, 5), 2))
    counts = {"realized": 0, "not type A": 0, "indefinite": 0}
    for values in itertools.product((-2, -1, 0, 1, 2), repeat=len(pairs)):
        f = UnitForm(4, [(i, j, v) for (i, j), v in zip(pairs, values) if v])
        if form_connected(f):
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
        f = UnitForm(count, [
            (min(order[a], order[b]), max(order[a], order[b]), rng.choice((-1, 1)))
            for a, b in edges
        ])
        assert is_non_negative(f)
        with pytest.raises(NotDynkinTypeA):
            realize(f)
        if count <= 10:
            assert outcome(realize_backtracking, f) == "not type A"


# ---------------------------------------------------------------------------
# the sparse realizer against the dense one
# ---------------------------------------------------------------------------

def flipped_and_shuffled(f, rng):
    """The form with each variable's sign flipped with probability 1/2, the
    form of a realization with those arrows reversed, given with its
    entries in shuffled order."""
    flip = [rng.random() < 0.5 for _ in range(f.n + 1)]
    entries = [(i, j, -v if flip[i] != flip[j] else v) for i, j, v in f.upper]
    rng.shuffle(entries)
    return UnitForm(f.n, entries)


def assert_realizers_agree(f):
    assert realized_or_raised(realize_quiver, f) == \
        realized_or_raised(realize_quiver_dense, f)


@given(shuffled_connected_quivers(max_vertices=40), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_sparse_realizer_matches_the_dense_one_on_quiver_forms(q, rng):
    f = flipped_and_shuffled(form_of_quiver(q), rng)
    assert isinstance(realize_quiver(f), Quiver)
    assert_realizers_agree(f)


@given(st.sampled_from([("D", n) for n in range(4, 21)] + [("E", n) for n in (6, 7, 8)]
                       + [("Dt", n) for n in range(4, 21)]
                       + [("Et", n) for n in (6, 7, 8)]),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_sparse_realizer_matches_the_dense_one_on_d_and_e_forms(shape, rng):
    edges = tree_edges(*shape)
    count = len(edges) + 1
    order = list(range(1, count + 1))
    rng.shuffle(order)
    f = UnitForm(count, [(min(order[a], order[b]), max(order[a], order[b]),
                          rng.choice((-1, 1))) for a, b in edges])
    assert_realizers_agree(f)


@given(shuffled_connected_quivers(max_vertices=40), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_sparse_realizer_matches_the_dense_one_on_changed_entries(q, rng, changes):
    # a quiver form with up to three entries set to a value in -3..3:
    # mostly indefinite forms, some of them disconnected
    assume(q.n >= 2)
    values = {(i, j): v for i, j, v in form_of_quiver(q).upper}
    for _ in range(changes):
        i, j = sorted(rng.sample(range(1, q.n + 1), 2))
        values[i, j] = rng.randint(-3, 3)
    f = UnitForm(q.n, [(i, j, v) for (i, j), v in values.items()])
    assert_realizers_agree(f)


@given(st.integers(min_value=1, max_value=7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(st.integers(1, n), st.integers(1, n))
                    .filter(lambda pair: pair[0] < pair[1]),
                    st.integers(-3, 3)))))
@settings(max_examples=300, deadline=None)
def test_sparse_realizer_matches_the_dense_one_on_small_forms(case):
    n, values = case
    assert_realizers_agree(UnitForm(n, [(i, j, v) for (i, j), v in values.items()]))
