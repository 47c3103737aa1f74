"""Invariant suite tests: cycle types of forms, factored Coxeter
polynomials, Coxeter numbers, spectral multiplicities, the polynomial ->
cycle type inverse, and the enumeration of attainable polynomials."""

import pytest

from coxquiver.errors import NotDynkinTypeA
from coxquiver.invariants import (
    CoxeterNumbers,
    coxeter_number_violations,
    coxeter_numbers,
    coxeter_numbers_of_cycle_type,
    coxeter_polynomial,
    coxeter_polynomial_of_cycle_type,
    cycle_type_from_cox_poly,
    cycle_type_of_form,
    enumerate_coxeter_polynomials,
    spectral_multiplicity,
    verify_reduced_coxeter_number,
)
from coxquiver.linalg import char_poly, poly_mul, poly_pow, v_power_minus_one
from coxquiver.partitions import Partition, part1c
from coxquiver.quiver import Quiver
from coxquiver.realize import representative_quiver_A
from coxquiver.unitform import (
    corank,
    coxeter_matrix,
    coxeter_polynomial_direct,
    form_from_upper,
    form_of_quiver,
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
    d4 = form_from_upper(4, [(1, 2, -1), (1, 3, -1), (1, 4, -1)])
    with pytest.raises(NotDynkinTypeA):
        cycle_type_of_form(d4)


def test_cycle_type_rejects_disconnected():
    with pytest.raises(ValueError):
        cycle_type_of_form(form_from_upper(2, []))


def test_cycle_type_rejects_indefinite():
    with pytest.raises(ValueError):
        cycle_type_of_form(form_from_upper(2, [(1, 2, -3)]))


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
    assert poly.expand() == coxeter_polynomial_direct(f)


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
        assert coxeter_polynomial(f).expand() == coxeter_polynomial_direct(f)


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


def test_verify_reduced_coxeter_number():
    assert verify_reduced_coxeter_number(KRONECKER_FORM)
    assert verify_reduced_coxeter_number(tree_form(4))
    assert verify_reduced_coxeter_number(representative_form((3, 1, 1), 0))
    assert verify_reduced_coxeter_number(representative_form((3, 2, 2), 1))
    assert verify_reduced_coxeter_number(representative_form((2, 2, 1), 1))


# ---------------------------------------------------------------------------
# spectral multiplicities
# ---------------------------------------------------------------------------

def test_coxeter_number_violations_name_each_broken_law():
    def violations(f, parts):
        phi = coxeter_matrix(f)
        return coxeter_number_violations(phi, char_poly(phi), Partition(parts))

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


def test_from_poly_huge_corank_fails_before_building_the_power():
    # (v-1)^{c-1} has degree c - 1 > 1, so it cannot divide v - 1; the
    # power itself would take far too long to build
    with pytest.raises(ValueError, match=r"\(v-1\)\^999999999 does not divide it"):
        cycle_type_from_cox_poly((-1, 1), 10**9)


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
            assert coxeter_polynomial_direct(f) == poly.expand()


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
