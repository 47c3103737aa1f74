"""Exact linear algebra kernel tests.

Reference computations (rank, PSD, characteristic polynomials) are done
with independent brute-force or Fraction-based oracles inside this module.
The Faddeev-LeVerrier recurrence, exact over the integers, is the oracle
for the modular Hessenberg reduction of char_poly at large entries.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxquiver import linalg
from coxquiver.errors import InvariantViolation
from coxquiver.linalg import (
    _char_poly_modulus,
    char_poly,
    coxeter_from_gram,
    cycle_decomposition,
    identity,
    is_psd,
    mat_mul,
    mat_pow,
    permutation_matrix,
    poly_divmod,
    poly_mul,
    poly_normalize,
    rational_rank,
    transpose,
    unitriangular_inverse,
    v_power_minus_one,
)

small_entries = st.integers(min_value=-4, max_value=4)


def square_matrices(max_n=4, entries=small_entries, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: tuple(tuple(r) for r in rows))
    )


def symmetric_matrices(max_n=4):
    def symmetrize(rows):
        n = len(rows)
        return tuple(
            tuple(rows[i][j] if i <= j else rows[j][i] for j in range(n))
            for i in range(n)
        )
    return square_matrices(max_n).map(symmetrize)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fraction_rank(m):
    """Row reduction over Fraction, the rank oracle."""
    if not m or not m[0]:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rows):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def fraction_psd(m):
    """LDL-style PSD oracle over Fraction."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    for k in range(n):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def naive_char_poly(m):
    """det(v*Id - m) by cofactor expansion over polynomials."""
    n = len(m)
    entries = [
        [poly_normalize(((-m[i][j],) if i != j else (-m[i][j], 1)))
         for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if not rows:
            return (1,)
        i = rows[0]
        total = (0,)
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = poly_mul(entries[i][j], minor)
            if pos % 2:
                term = tuple(-x for x in term)
            total = poly_normalize(tuple(
                a + b for a, b in
                zip(total + (0,) * (len(term) - len(total)),
                    term + (0,) * (len(total) - len(term)))
            ))
        return total

    return det(list(range(n)), list(range(n)))


def faddeev_leverrier_char_poly(m):
    """det(v*Id - m) by the Faddeev-LeVerrier recurrence: n exact integer
    products, each trace divided exactly by its step number."""
    n = len(m)
    if n == 0:
        return (1,)
    coeffs_high = [1]  # leading coefficient of v^n
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(m, work)
        trace = sum(work[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        assert r == 0, "Faddeev-LeVerrier division was not exact"
        coeffs_high.append(q)
        if k < n:
            work = tuple(
                tuple(x + q if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(work)
            )
    return tuple(reversed(coeffs_high))


# ---------------------------------------------------------------------------
# matrix product / inverse
# ---------------------------------------------------------------------------

def test_mat_mul_identity():
    assert mat_mul(identity(2), identity(2)) == identity(2)


def test_mat_mul_outer_product():
    col = ((1,), (-1,))
    row = ((1, -1),)
    assert mat_mul(col, row) == ((1, -1), (-1, 1))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1, 2),))


def test_unitriangular_inverse_matches_general():
    m = ((1, -1, 3), (0, 1, -2), (0, 0, 1))
    assert unitriangular_inverse(m) == ((1, 1, -1), (0, 1, 2), (0, 0, 1))
    assert mat_mul(m, unitriangular_inverse(m)) == identity(3)
    assert mat_mul(unitriangular_inverse(m), m) == identity(3)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rational_rank_examples():
    assert rational_rank(((2, 2), (2, 2))) == 1
    assert rational_rank(identity(3)) == 3
    assert rational_rank(((0, 0), (0, 0))) == 0


@given(square_matrices(4))
@settings(max_examples=150)
def test_rational_rank_against_fraction_oracle(m):
    assert rational_rank(m) == fraction_rank(m)


@given(square_matrices(4))
@settings(max_examples=100)
def test_rank_of_gram_square(m):
    mt = transpose(m)
    assert rational_rank(mat_mul(mt, m)) == rational_rank(m)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_char_poly_one_by_one():
    assert char_poly(((-1,),)) == (1, 1)  # v + 1
    assert char_poly(((-2 ** 200,),)) == (2 ** 200, 1)


def test_char_poly_cycle_permutation():
    p = permutation_matrix((2, 3, 1))
    assert char_poly(p) == (-1, 0, 0, 1)  # v^3 - 1


def test_char_poly_two_by_two():
    # det(vI - M) for M = [[-1, 2], [-2, 3]] expands to v^2 - 2v + 1
    assert char_poly(((-1, 2), (-2, 3))) == (1, -2, 1)


@given(square_matrices(4, st.integers(min_value=-3, max_value=3)))
@settings(max_examples=100)
def test_char_poly_against_cofactor_oracle(m):
    assert char_poly(m) == naive_char_poly(m)


@given(st.permutations(list(range(1, 8))))
def test_char_poly_of_permutation_matrix_is_cycle_product(images):
    p = tuple(images)
    expected = (1,)
    for cycle in cycle_decomposition(p):
        expected = poly_mul(expected, v_power_minus_one(len(cycle)))
    assert char_poly(permutation_matrix(p)) == expected


# Entry ranges whose bounds at n <= 10 fall on different prime tiers:
# 2^61 - 1 for small entries, 2^89 - 1 .. 2^1279 - 1 for 70-bit entries and
# 2^521 - 1 .. 2^3217 - 1 for 300-bit entries.
ENTRY_RANGES = {
    "small": st.integers(min_value=-3, max_value=3),
    "2^70": st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    "2^300": st.integers(min_value=-2 ** 300, max_value=2 ** 300),
}


@pytest.mark.parametrize("entries", ENTRY_RANGES.values(), ids=ENTRY_RANGES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_char_poly_against_faddeev_leverrier_oracle(entries, data):
    m = data.draw(square_matrices(10, entries, min_n=0))
    assert char_poly(m) == faddeev_leverrier_char_poly(m)


def test_entry_ranges_reach_three_prime_tiers():
    tiers = {
        _char_poly_modulus(((x,) * n,) * n)
        for x in (3, 2 ** 70, 2 ** 300) for n in (1, 10)
    }
    assert {2 ** 61 - 1, 2 ** 1279 - 1, 2 ** 3217 - 1} <= tiers


def test_char_poly_coefficient_above_2_126():
    # (v - 2^70)^2 has constant term 2^140, which the prime 2^127 - 1 one
    # tier below the chosen 2^521 - 1 would wrap
    m = ((2 ** 70, 0), (0, 2 ** 70))
    assert char_poly(m) == (2 ** 140, -2 ** 71, 1)
    assert _char_poly_modulus(m) == 2 ** 521 - 1


def test_char_poly_of_empty_matrix():
    assert char_poly(()) == (1,)


def test_char_poly_needs_a_row_swap():
    # the subdiagonal pivot (1, 0) is zero, so row and column 2 move up
    m = ((1, 2, 3), (0, 4, 5), (6, 7, 8))
    assert char_poly(m) == faddeev_leverrier_char_poly(m) == naive_char_poly(m)


@pytest.mark.parametrize("m", [
    ((1, 2, 0, 0), (3, 4, 0, 0), (0, 0, 5, 6), (0, 0, 7, 8)),
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((2, 0, 0), (0, 0, 1), (0, -1, 0)),
], ids=["two_blocks", "involution", "diagonal_then_rotation"])
def test_char_poly_with_zero_subdiagonal(m):
    assert char_poly(m) == faddeev_leverrier_char_poly(m) == naive_char_poly(m)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_char_poly_of_strictly_triangular_is_power_of_v(n):
    upper = tuple(tuple(i + j + 1 if j > i else 0 for j in range(n))
                  for i in range(n))
    v_to_n = (0,) * n + (1,)
    assert char_poly(upper) == v_to_n
    assert char_poly(transpose(upper)) == v_to_n


def test_char_poly_bound_past_the_table():
    with pytest.raises(ValueError, match="bound"):
        char_poly(((2 ** 50000,),))
    with pytest.raises(ValueError, match="bound"):
        char_poly(((2 ** 30000, 1), (1, 2 ** 30000)))


def test_char_poly_requires_square():
    with pytest.raises(ValueError):
        char_poly(((1, 2),))


def test_char_poly_trace_guard(monkeypatch):
    # a modulus below twice the bound wraps the trace, which the guard sees
    monkeypatch.setattr(linalg, "_char_poly_modulus", lambda m: 2 ** 61 - 1)
    with pytest.raises(InvariantViolation):
        char_poly(((2 ** 100, 0), (0, 2 ** 100)))


# ---------------------------------------------------------------------------
# positive semidefiniteness
# ---------------------------------------------------------------------------

def test_is_psd_examples():
    assert is_psd(((2, -1), (-1, 2))) is True
    assert is_psd(((2, 2), (2, 2))) is True
    assert is_psd(((0, 1), (1, 0))) is False


def test_is_psd_requires_symmetry():
    with pytest.raises(ValueError):
        is_psd(((1, 2), (0, 1)))


@given(symmetric_matrices(4))
@settings(max_examples=200)
def test_is_psd_against_fraction_oracle(m):
    assert is_psd(m) == fraction_psd(m)


@given(symmetric_matrices(4))
@settings(max_examples=40, deadline=None)
def test_is_psd_brute_force_necessary_condition(m):
    n = len(m)
    if is_psd(m):
        for x in product(range(-3, 4), repeat=n):
            value = sum(x[i] * m[i][j] * x[j] for i in range(n) for j in range(n))
            assert value >= 0


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_cycle_decomposition_identity():
    assert cycle_decomposition((1, 2, 3)) == ((1,), (2,), (3,))


def test_cycle_decomposition_three_cycle():
    assert cycle_decomposition((2, 3, 1)) == ((1, 2, 3),)


def test_cycle_decomposition_partition_permutation():
    # consecutive cycles of lengths 2 and 1
    assert cycle_decomposition((2, 1, 3)) == ((1, 2), (3,))


def test_permutation_matrix_convention():
    # column v holds e_{p(v)}
    p = (2, 3, 1)
    mat = permutation_matrix(p)
    for v in range(3):
        col = tuple(mat[r][v] for r in range(3))
        assert col == tuple(1 if r == p[v] - 1 else 0 for r in range(3))
    # reading each column's 1 back recovers p
    assert tuple(next(r + 1 for r in range(3) if mat[r][v] == 1)
                 for v in range(3)) == p


@given(st.permutations(list(range(1, 7))))
def test_permutation_matrix_action(images):
    p = tuple(images)
    mat = permutation_matrix(p)
    for v in range(len(p)):
        e_v = tuple(1 if i == v else 0 for i in range(len(p)))
        p_e_v = tuple(sum(x * y for x, y in zip(row, e_v)) for row in mat)
        assert p_e_v == tuple(
            1 if i == p[v] - 1 else 0 for i in range(len(p))
        )


# ---------------------------------------------------------------------------
# polynomial division
# ---------------------------------------------------------------------------

def test_poly_divmod_exact():
    product_poly = poly_mul(v_power_minus_one(4), (-1, 1))
    q, r = poly_divmod(product_poly, (-1, 1))
    assert r == (0,)
    assert q == v_power_minus_one(4)


def test_poly_divmod_remainder():
    q, r = poly_divmod((1, 1, 1), (-1, 1))  # v^2 + v + 1 by v - 1
    assert poly_normalize(r) == (3,)
    assert q == (2, 1)


@settings(max_examples=40, deadline=None)
@given(square_matrices(4, st.integers(min_value=-2, max_value=2), min_n=0))
def test_mat_pow_matches_repeated_multiplication(m):
    expected = identity(len(m))
    for k in range(13):
        assert mat_pow(m, k) == expected, k
        expected = mat_mul(expected, m)


def test_mat_pow_rejects_non_square_and_negative_powers():
    with pytest.raises(ValueError, match="square"):
        mat_pow(((1, 2, 3), (4, 5, 6)), 2)
    with pytest.raises(ValueError, match="negative"):
        mat_pow(identity(2), -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.lists(st.integers(min_value=-2, max_value=2),
                       min_size=n * n, max_size=n * n).map(
        lambda xs: tuple(tuple(1 if i == j else xs[i * n + j] if j > i else 0
                               for j in range(n)) for i in range(n)))))
def test_coxeter_from_gram_matches_the_dense_product(gram):
    # -G^T G^{-1} as a dense product, for upper unitriangular G
    gram_inv = unitriangular_inverse(gram)
    dense = tuple(tuple(-x for x in row)
                  for row in mat_mul(transpose(gram), gram_inv))
    assert coxeter_from_gram(gram, gram_inv) == dense
