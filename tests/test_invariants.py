"""Invariant suite tests: cycle types of forms, factored Coxeter
polynomials, Coxeter numbers, spectral multiplicities, the polynomial ->
cycle type inverse, and the enumeration of attainable polynomials."""

import json
import random
import tracemalloc
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxquiver.errors import NotDynkinTypeA
from coxquiver.invariants import (
    CoxeterNumbers,
    coxeter_matrix_violations,
    coxeter_numbers,
    coxeter_numbers_of_cycle_type,
    coxeter_polynomial,
    coxeter_polynomial_of_cycle_type,
    cycle_type_and_corank,
    cycle_type_from_cox_poly,
    cycle_type_of_form,
    enumerate_coxeter_polynomials,
    spectral_multiplicity,
)
from coxquiver.linalg import char_poly, identity, is_nilpotent, mat_mul, mat_sub
from coxquiver.partitions import FactoredCoxPoly, Partition, part1c, partitions_by_length
from coxquiver.quiver import (
    Quiver,
    cycle_type_of_quiver,
    iter_connected_quivers,
)
from coxquiver.realize import representative_quiver_A
from coxquiver.unitform import (
    UnitForm,
    corank,
    form_of_quiver,
)
from dense import (
    dense_coxeter_matrix,
    long_division_cycle_type,
    poly_mul,
    poly_pow,
    v_power_minus_one,
)

KRONECKER_FORM = form_of_quiver(Quiver(2, ((1, 2), (1, 2))))


def tree_form(m):
    return form_of_quiver(Quiver(m, tuple((j, j + 1) for j in range(1, m))))


def representative_form(parts, d):
    return form_of_quiver(representative_quiver_A(Partition(parts), d))


# ---------------------------------------------------------------------------
# cycle types of forms
# ---------------------------------------------------------------------------

def test_cycle_type_of_tree_forms():
    for m in range(2, 7):
        assert cycle_type_of_form(tree_form(m)) == Partition((m,))


def test_cycle_type_of_kronecker():
    assert cycle_type_of_form(KRONECKER_FORM) == Partition((1, 1))


def test_cycle_type_of_representative():
    f = representative_form((3, 2, 2), 1)
    assert cycle_type_of_form(f) == Partition((3, 2, 2))


def test_cycle_type_rejects_non_type_a():
    d4 = UnitForm(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA):
        cycle_type_of_form(d4)


def test_cycle_type_rejects_disconnected():
    with pytest.raises(ValueError):
        cycle_type_of_form(UnitForm(2, []))


def test_cycle_type_rejects_indefinite():
    with pytest.raises(ValueError):
        cycle_type_of_form(UnitForm(2, [(1, 2, -3)]))


# ---------------------------------------------------------------------------
# factored Coxeter polynomial
# ---------------------------------------------------------------------------

def test_coxeter_polynomial_corank2_on_5():
    f = representative_form((4,), 1)  # c = 0 + 2 = 2, n = 5
    assert corank(f) == 2
    poly = coxeter_polynomial(f)
    assert poly.cycle_parts == (4,)
    assert poly.unit_exponent == 1
    assert poly.expand() == poly_mul(v_power_minus_one(4), (-1, 1))


def test_coxeter_polynomial_corank4_on_8():
    f = representative_form((2, 2, 1), 1)  # c = 2 + 2 = 4, n = 8
    assert corank(f) == 4
    poly = coxeter_polynomial(f)
    expected = poly_mul(poly_pow(v_power_minus_one(2), 2), poly_pow((-1, 1), 4))
    assert poly.expand() == expected


def test_coxeter_polynomial_corank0_tree():
    f = tree_form(3)
    poly = coxeter_polynomial(f)
    assert poly.unit_exponent == -1
    assert poly.expand() == (1, 1, 1)
    assert poly.expand() == char_poly(dense_coxeter_matrix(f))


def test_coxeter_polynomial_matches_direct_route():
    forms = [
        KRONECKER_FORM,
        tree_form(4),
        representative_form((4,), 1),
        representative_form((2, 2, 1), 1),
        representative_form((3, 2, 2), 1),
        representative_form((2, 1, 1), 0),
    ]
    for f in forms:
        assert coxeter_polynomial(f).expand() == char_poly(dense_coxeter_matrix(f))


# ---------------------------------------------------------------------------
# Coxeter numbers
# ---------------------------------------------------------------------------

def test_coxeter_numbers_table_values():
    assert coxeter_numbers_of_cycle_type(Partition((5,))) == CoxeterNumbers(5, 5)
    assert coxeter_numbers_of_cycle_type(Partition((3, 1, 1))) == CoxeterNumbers(None, 3)
    assert coxeter_numbers_of_cycle_type(Partition((2, 2, 1))) == CoxeterNumbers(None, 2)
    assert coxeter_numbers_of_cycle_type(Partition((1, 1, 1, 1, 1))) == \
        CoxeterNumbers(None, 1)


def test_coxeter_numbers_of_form():
    assert coxeter_numbers(tree_form(4)) == CoxeterNumbers(4, 4)
    assert coxeter_numbers(KRONECKER_FORM) == CoxeterNumbers(None, 1)


def test_coxeter_numbers_validation():
    with pytest.raises(ValueError):
        CoxeterNumbers(3, 4)
    with pytest.raises(ValueError):
        CoxeterNumbers(None, 0)


def laws(phi, parts, c=0):
    """The Coxeter-number laws of the cycle type ``parts`` that exact powers
    of ``phi`` break; the corank ``c`` only sets the claimed polynomial,
    whose verdict the laws do not read."""
    poly = coxeter_polynomial_of_cycle_type(Partition(parts), c)
    return coxeter_matrix_violations(phi, poly)[1]


def violations(f, parts):
    """The Coxeter-number laws of the cycle type ``parts`` that exact powers
    of the Coxeter matrix of ``f`` break."""
    return laws(dense_coxeter_matrix(f), parts)


def plain_violations(phi, parts):
    """The oracle of the laws of coxeter_matrix_violations: every Phi^k for
    k = 1..lcm by one more multiplication, with no trace shortcut, and
    Id - Phi^k nilpotent exactly when its n-th power, n products, is zero."""
    n = len(phi)
    target = lcm(*parts)
    ident = identity(n)
    zero = ((0,) * n,) * n
    problems, first_identity, power = [], None, ident
    for k in range(1, target + 1):
        power = mat_mul(power, phi)
        shifted, nth = mat_sub(ident, power), ident
        for _ in range(n):
            nth = mat_mul(nth, shifted)
        if nth == zero and k < target:
            problems.append(f"Id - Phi^{k} nilpotent below lcm {target}")
        if nth != zero and k == target:
            problems.append("Id - Phi^lcm is not nilpotent")
        if power == ident and first_identity is None:
            first_identity = k
    if len(parts) == 1:
        if first_identity != parts[0]:
            problems.append(f"Coxeter number {first_identity} != {parts[0]}")
    elif first_identity is not None:
        problems.append(f"Phi^{first_identity} = Id for a multi-part cycle type")
    return problems


def test_coxeter_number_violations_against_plain_powers():
    # every form of a connected quiver with m <= 4 vertices and n <= 5
    # arrows, against its own cycle type and every other partition of m
    forms = {}
    for m in range(2, 5):
        for n in range(m - 1, 6):
            for _, q in iter_connected_quivers(m, n):
                forms.setdefault(form_of_quiver(q), q)
    for form, q in forms.items():
        phi = dense_coxeter_matrix(form)
        own = cycle_type_of_quiver(q)
        c = q.n - q.m + 1
        assert coxeter_matrix_violations(
            phi, coxeter_polynomial_of_cycle_type(own, c)) == ([], []), form
        for length in range(1, q.m + 1):
            for ct in partitions_by_length(q.m, length):
                assert (laws(phi, ct.parts, c)
                        == plain_violations(phi, ct.parts)), (form, ct)


def _bump_one_entry(phi, rng):
    """``phi`` with one random entry moved by a random nonzero amount."""
    n = len(phi)
    i, j = rng.randrange(n), rng.randrange(n)
    rows = [list(row) for row in phi]
    rows[i][j] += rng.choice((-2, -1, 1, 2))
    return tuple(map(tuple, rows))


def test_polynomial_verdict_of_the_walk_against_char_poly():
    # every form of a connected quiver with m <= 3 vertices and n <= 5
    # arrows, its Coxeter matrix and two seeded one-entry corruptions of it,
    # against the polynomial of every cycle type of m at the same corank
    # and against the own polynomial times v - 1, one degree too many
    rng = random.Random(27)
    forms = {}
    for m in range(2, 4):
        for n in range(m - 1, 6):
            for _, q in iter_connected_quivers(m, n):
                forms.setdefault(form_of_quiver(q), q)
    flagged = checked = 0
    for q in forms.values():
        phi = dense_coxeter_matrix(form_of_quiver(q))
        c = q.n - q.m + 1
        polys = [coxeter_polynomial_of_cycle_type(ct, c)
                 for length in range(1, q.m + 1)
                 for ct in partitions_by_length(q.m, length)]
        own = coxeter_polynomial_of_cycle_type(cycle_type_of_quiver(q), c)
        polys.append(FactoredCoxPoly(own.nu_exponent + 1, own.cycle_parts))
        for matrix in (phi, _bump_one_entry(phi, rng), _bump_one_entry(phi, rng)):
            direct = char_poly(matrix)
            for poly in polys:
                polynomial, _ = coxeter_matrix_violations(matrix, poly)
                assert (polynomial == []) == (direct == poly.expand()), (q, matrix, poly)
                flagged += polynomial != []
                checked += 1
    assert 0 < flagged < checked


def test_polynomial_check_fires_on_the_trace_alone():
    # Phi of cycle type (2, 2) at corank 1 against (v - 1)^2 (v^2 - 1):
    # both have degree 4 and lcm 2, and Id - Phi^2 is nilpotent, so only
    # tr Phi = 0, where the power sum is 2, tells them apart
    phi = dense_coxeter_matrix(representative_form((2, 2), 0))
    claimed = FactoredCoxPoly(3, (2,))
    assert len(phi) == 4 == claimed.unit_exponent + sum(claimed.cycle_parts)
    assert is_nilpotent(mat_sub(identity(4), mat_mul(phi, phi)))
    assert sum(phi[i][i] for i in range(4)) == 0
    polynomial, _ = coxeter_matrix_violations(phi, claimed)
    assert polynomial == ["factored expansion != Coxeter characteristic polynomial"]
    assert char_poly(phi) != claimed.expand()
    own = coxeter_polynomial_of_cycle_type(Partition((2, 2)), 1)
    assert coxeter_matrix_violations(phi, own) == ([], [])


def test_verify_reduced_coxeter_number():
    forms = [KRONECKER_FORM, tree_form(4), representative_form((3, 1, 1), 0),
             representative_form((3, 2, 2), 1), representative_form((2, 2, 1), 1)]
    for f in forms:
        assert violations(f, cycle_type_of_form(f).parts) == []


# ---------------------------------------------------------------------------
# spectral multiplicities
# ---------------------------------------------------------------------------

def test_coxeter_number_violations_name_each_broken_law():
    line = tree_form(4)  # cycle type (4)
    assert violations(line, (4,)) == []
    assert violations(line, (2, 2)) == ["Id - Phi^lcm is not nilpotent"]
    assert violations(line, (4, 2)) == ["Phi^4 = Id for a multi-part cycle type"]
    assert violations(KRONECKER_FORM, (1, 1)) == []
    assert violations(KRONECKER_FORM, (1,)) == ["Coxeter number None != 1"]
    assert violations(KRONECKER_FORM, (2,)) == [
        "Id - Phi^1 nilpotent below lcm 2", "Coxeter number None != 2"]
    f = representative_form((3, 2, 2), 1)
    assert violations(f, (3, 2, 2)) == []
    assert violations(f, (3, 3, 1)) != []


def test_spectral_multiplicity_even_parts():
    f = representative_form((2, 2, 1), 1)  # ct (2,2,1), c 4
    assert spectral_multiplicity(f, 2) == 2


def test_spectral_multiplicity_at_one():
    f = representative_form((2, 2, 1), 1)
    assert spectral_multiplicity(f, 1) == 6
    assert spectral_multiplicity(f, 1) + 2 == f.n


def test_spectral_multiplicity_large_d():
    f = representative_form((5,), 2)  # ct (5), c 4
    assert spectral_multiplicity(f, 5) == 1
    assert spectral_multiplicity(f, 3) == 0


def test_spectral_multiplicity_validation():
    with pytest.raises(ValueError):
        spectral_multiplicity(KRONECKER_FORM, 0)


# ---------------------------------------------------------------------------
# cycle type from the Coxeter polynomial
# ---------------------------------------------------------------------------

def test_from_poly_corank2():
    poly = poly_mul(v_power_minus_one(4), (-1, 1))
    assert cycle_type_from_cox_poly(poly, 2) == Partition((4,))


def test_from_poly_corank4_with_trailing_one():
    poly = poly_mul(poly_pow(v_power_minus_one(2), 2), poly_pow((-1, 1), 4))
    assert cycle_type_from_cox_poly(poly, 4) == Partition((2, 2, 1))


def test_from_poly_corank0():
    assert cycle_type_from_cox_poly((1, 1, 1, 1), 0) == Partition((4,))


def test_from_poly_rejects_bad_shape():
    with pytest.raises(ValueError):
        cycle_type_from_cox_poly((1, 0, 1), 2)  # (v-1) does not divide v^2+1
    with pytest.raises(ValueError):
        cycle_type_from_cox_poly((1, 1), 1)  # v + 1 has no (v^t - 1) factor
    with pytest.raises(ValueError):
        cycle_type_from_cox_poly((-1, 1), 2)  # bare (v-1): no cycle factors left


@pytest.mark.parametrize("poly, c, length", [
    ((1, -2, 1), 0, 3),        # (v-1)^2: (1, 1, 1) at corank 0
    ((-1, 0, 1), 1, 1),        # v^2 - 1: (2) at corank 1
    ((-1, 3, -3, 1), 1, 3),    # (v-1)^3: (1, 1, 1) at corank 1
])
def test_from_poly_rejects_a_length_the_corank_does_not_admit(poly, c, length):
    # part1c admits length l at corank c only when c - (l - 1) is even
    # and non-negative
    with pytest.raises(ValueError, match=rf"corank {c}: its cycle type has "
                                         rf"length {length}, and c - \(l - 1\)"):
        cycle_type_from_cox_poly(poly, c)


def test_from_poly_huge_corank_fails_before_building_the_power():
    # (v-1)^{c-1} has degree c - 1 > 1, so it cannot divide v - 1; the
    # second of at most deg + 1 = 2 divisions by v - 1 fails, where c - 1
    # divisions would take far too long
    with pytest.raises(ValueError, match=r"\(v-1\)\^999999999 does not divide it"):
        cycle_type_from_cox_poly((-1, 1), 10**9)


@pytest.mark.parametrize("c", [2, 4, 6])
def test_from_poly_rejects_the_cycle_type_of_one_vertex(c):
    # (v-1)^c = (v-1)^{c-1} (v^1 - 1) at even c: the cycle type (1), of a
    # quiver on one vertex, which has no arrow
    with pytest.raises(ValueError, match=rf"corank {c}: its cycle type \(1\) "
                                         "is that of a single vertex"):
        cycle_type_from_cox_poly(poly_pow((-1, 1), c), c)


def _outcome(recover, poly, c):
    try:
        return recover(poly, c)
    except ValueError as exc:
        return str(exc)


def test_from_poly_against_long_division():
    # every factored polynomial (v-1)^nu prod_a nu_{pi_a}(v) with m <= 6 and
    # nu <= 8, so each (v-1) exponent around c - 1, at every c <= 7, and
    # four perturbations of each: a bumped coefficient, a factor v + 1, a
    # factor v^2 + 1 and a trailing zero
    rng = random.Random(1)
    outcomes = {"accepted": 0, "rejected": 0, "one vertex": 0}
    for m in range(1, 7):
        for parts in (pi.parts for l in range(1, m + 1)
                      for pi in partitions_by_length(m, l)):
            for nu in range(9):
                base = FactoredCoxPoly(nu, parts).expand()
                bumped = list(base)
                bumped[rng.randrange(len(base))] += rng.choice((-1, 1))
                for poly in (base, tuple(bumped), poly_mul(base, (1, 1)),
                             poly_mul(base, (1, 0, 1)), base + (0,)):
                    for c in range(8):
                        old = _outcome(long_division_cycle_type, poly, c)
                        new = _outcome(cycle_type_from_cox_poly, poly, c)
                        if old == Partition((1,)):
                            outcomes["one vertex"] += 1
                            assert "(1) is that of a single vertex" in new
                        else:
                            outcomes["accepted" if isinstance(old, Partition)
                                     else "rejected"] += 1
                            assert new == old, (poly, c)
    assert min(outcomes.values()) > 0, outcomes


def test_from_poly_roundtrip_representatives():
    cases = [((4,), 1), ((2, 2, 1), 1), ((3, 2, 2), 1), ((5,), 2),
             ((2, 1, 1), 0), ((1, 1), 1)]
    for parts, d in cases:
        f = representative_form(parts, d)
        dense = coxeter_polynomial(f).expand()
        assert cycle_type_from_cox_poly(dense, corank(f)) == Partition(parts)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_5_2():
    polys = enumerate_coxeter_polynomials(5, 2)
    assert [p.cycle_parts for p in polys] == [(4,), (2, 1, 1)]
    assert polys[0].expand() == poly_mul(v_power_minus_one(4), (-1, 1))
    assert polys[1].expand() == poly_mul(v_power_minus_one(2), poly_pow((-1, 1), 3))


def test_enumerate_8_4():
    polys = enumerate_coxeter_polynomials(8, 4)
    assert [p.cycle_parts for p in polys] == [
        (5,), (3, 1, 1), (2, 2, 1), (1, 1, 1, 1, 1)
    ]
    assert polys[0].expand() == poly_mul(v_power_minus_one(5), poly_pow((-1, 1), 3))
    assert polys[3].expand() == poly_pow((-1, 1), 8)


def test_enumerate_corank0_is_single_nu():
    for n in range(1, 8):
        polys = enumerate_coxeter_polynomials(n, 0)
        assert len(polys) == 1
        assert polys[0].expand() == (1,) * (n + 1)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_coxeter_polynomials(4, 4)


def test_enumerate_counts_match_part1c():
    for n in range(1, 13):
        for c in range(0, n):
            polys = enumerate_coxeter_polynomials(n, c)
            members = part1c(c, n - c + 1)
            assert len(polys) == len(members)
            # distinct as polynomials, not only as factored data
            assert len({p.expand() for p in polys}) == len(members)


def test_enumerate_polys_are_realized():
    # every enumerated polynomial is the Coxeter polynomial of a concrete form
    for n, c in ((5, 2), (6, 3), (4, 1)):
        for poly in enumerate_coxeter_polynomials(n, c):
            pi = poly.partition()
            d = (c - (pi.length - 1)) // 2
            f = representative_form(pi.parts, d)
            assert f.n == n
            assert char_poly(dense_coxeter_matrix(f)) == poly.expand()


def test_coxeter_polynomial_of_cycle_type_matches_enumeration():
    assert coxeter_polynomial_of_cycle_type(Partition((2, 1, 1)), 2) in \
        enumerate_coxeter_polynomials(5, 2)


def test_surjectivity_through_forms():
    # every admissible cycle type is hit by the form of a representative
    # quiver, with the cycle type recomputed from scratch via realization
    for m in range(2, 7):
        for c in range(0, 5):
            for pi in part1c(c, m):
                d = (c - (pi.length - 1)) // 2
                f = form_of_quiver(representative_quiver_A(pi, d))
                assert corank(f) == c
                assert cycle_type_of_form(f) == pi


# ---------------------------------------------------------------------------
# differential test beyond the sweep
# ---------------------------------------------------------------------------

@st.composite
def connected_quivers(draw, max_vertices=40):
    """A random spanning tree with random orientations plus up to m + 1
    extra arrows (so n <= 2m), in random arrow order."""
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
        arrows.append((s, draw(vertices.filter(lambda x: x != s))))
    order = draw(st.permutations(list(range(len(arrows)))))
    return Quiver(m, tuple(arrows[i] for i in order))


@given(connected_quivers())
@settings(max_examples=100, deadline=None)
def test_cycle_type_from_characteristic_polynomial_matches_realization(q):
    # the Coxeter matrix's characteristic polynomial knows nothing of the
    # realizer, yet determines the same cycle type
    f = form_of_quiver(q)
    poly = char_poly(dense_coxeter_matrix(f))
    assert cycle_type_from_cox_poly(poly, corank(f)) == cycle_type_of_form(f)


def test_a_sparse_form_is_read_and_realized_in_linear_memory():
    # a random connected quiver with n = 3000 arrows on 1710 vertices, whose
    # form has about 3.5n entries; a dense n x n Gram matrix alone would
    # take over 70 MB
    rng = random.Random(1)
    m, n = 1710, 3000
    arrows = [(k + 1, rng.randrange(k) + 1)[::rng.choice((1, -1))] for k in range(1, m)]
    while len(arrows) < n:
        arrows.append(tuple(rng.sample(range(1, m + 1), 2)))
    rng.shuffle(arrows)
    q = Quiver(m, tuple(arrows))
    data = json.loads(json.dumps(form_of_quiver(q).to_json()))
    assert 3.4 * n < len(data["upper"]) < 3.7 * n
    tracemalloc.start()
    try:
        ct, c = cycle_type_and_corank(UnitForm.from_json(data, connected=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ct, c) == (cycle_type_of_quiver(q), n - m + 1)
    assert peak < 16 * 2 ** 20
