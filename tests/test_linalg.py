"""Exact linear algebra kernel tests.

Reference computations (rank, PSD, characteristic polynomials,
nilpotency) are done with independent brute-force or Fraction-based
oracles inside this module.
The Faddeev-LeVerrier recurrence, exact over the integers, is the oracle
for the modular Hessenberg reduction of char_poly at large entries and on
sparse input; on Coxeter matrices of quivers the oracle is the factored
Coxeter polynomial of the cycle type the walks of ``test_quiver`` give.
Long division in the polynomial ring of ``dense`` is the oracle for the
exact division by v^t - 1.  The unitriangular inverse, the Coxeter
matrix from it and the permutation matrix, oracles of ``dense`` too, are
checked here against their definitions.
"""

import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxquiver import linalg
from coxquiver.errors import InvariantViolation
from coxquiver.invariants import coxeter_polynomial_of_cycle_type
from coxquiver.linalg import (
    _char_poly_modulus,
    char_poly,
    divide_by_v_power_minus_one,
    identity,
    is_nilpotent,
    mat_mul,
    psd_rank,
    transpose,
)
from coxquiver.partitions import cycle_type_of_permutation
from coxquiver.quiver import Quiver, coxeter_matrix_of_quiver
from dense import (
    coxeter_from_gram,
    permutation_matrix,
    poly_divmod,
    poly_mul,
    poly_normalize,
    unitriangular_inverse,
    v_power_minus_one,
)
from test_partitions import orbit_sizes
from test_quiver import walk_permutation

small_entries = st.integers(min_value=-4, max_value=4)


def square_matrices(max_n=4, entries=small_entries, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: tuple(tuple(r) for r in rows))
    )


def symmetrize(rows):
    """The symmetric matrix with the upper triangle of ``rows``."""
    n = len(rows)
    return tuple(
        tuple(rows[i][j] if i <= j else rows[j][i] for j in range(n))
        for i in range(n)
    )


def symmetric_matrices(max_n=4):
    return square_matrices(max_n).map(symmetrize)


# mostly zero entries, so that diagonal entries and pivots vanish often
sparse_entries = st.sampled_from((0, 0, 0, 0, 0, -2, -1, 1, 2))


def sparse_square_matrices(max_n, min_n=0):
    """Square matrices in which about one entry in 1 + zeros / 6 is nonzero,
    for a drawn ``zeros`` from 0 (dense) to 30 (one entry in six)."""
    return st.integers(min_value=0, max_value=30).flatmap(
        lambda zeros: square_matrices(
            max_n, st.sampled_from((0,) * zeros + (-3, -2, -1, 1, 2, 3)), min_n))


@st.composite
def block_diagonal_matrices(draw, max_blocks=4, max_block=4):
    """Sparse blocks down the diagonal, so that the Hessenberg form has a
    zero subdiagonal entry at the end of each block; half the draws are
    also conjugated by a permutation, which scatters the blocks."""
    blocks = draw(st.lists(sparse_square_matrices(max_block, min_n=1),
                           min_size=1, max_size=max_blocks))
    n = sum(map(len, blocks))
    rows, offset = [], 0
    for block in blocks:
        for row in block:
            rows.append((0,) * offset + row + (0,) * (n - offset - len(block)))
        offset += len(block)
    order = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
    return tuple(tuple(rows[i][j] for j in order) for i in order)


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


def fraction_psd_rank(m):
    """The rank of m if m is PSD, None if not: the oracle of psd_rank."""
    return fraction_rank(m) if fraction_psd(m) else None


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
# rank of positive semidefinite matrices
# ---------------------------------------------------------------------------

def test_rational_rank_examples():
    assert psd_rank(((2, 2), (2, 2))) == 1
    assert psd_rank(identity(3)) == 3
    assert psd_rank(((0, 0), (0, 0))) == 0


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(
    st.lists(small_entries, min_size=n, max_size=n), min_size=1, max_size=4)))
@settings(max_examples=150)
def test_rational_rank_against_fraction_oracle(b):
    # B^T B for B of any shape is PSD, of the rank of B
    assert psd_rank(mat_mul(transpose(b), b)) == fraction_rank(b)


@given(square_matrices(4))
@settings(max_examples=100)
def test_rank_of_gram_square(m):
    # M^T M is PSD, of the rank of M
    assert psd_rank(mat_mul(transpose(m), m)) == fraction_rank(m)


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
    for size in orbit_sizes(p):
        expected = poly_mul(expected, v_power_minus_one(size))
    assert char_poly(permutation_matrix(p)) == expected


# Entry ranges whose bounds at n <= 10 fall on different prime tiers:
# 2^2 - 1 .. 2^61 - 1 for small entries, 2^89 - 1 .. 2^1279 - 1 for 70-bit
# entries and 2^521 - 1 .. 2^3217 - 1 for 300-bit entries.
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


def lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for an odd prime e."""
    p, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    return s == 0


def test_tabled_exponents_give_mersenne_primes():
    exponents = linalg._MERSENNE_EXPONENTS
    assert list(exponents) == sorted(set(exponents))
    assert exponents[:9] == (2, 3, 5, 7, 13, 17, 19, 31, 61)
    assert all(lucas_lehmer(e) for e in exponents if 2 < e <= 4423)


def hadamard_4(c):
    """c times the Sylvester Hadamard matrix H_4, whose square is 16 c^2 Id:
    its characteristic polynomial (v^2 - 4c^2)^2 has constant term (2c)^4,
    close to the bound (1 + 2c)^4 of char_poly."""
    signs = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
    return tuple(tuple(c * x for x in row) for row in signs)


@pytest.mark.parametrize("e", [13, 17, 31, 61, 127])
def test_char_poly_of_scaled_hadamard_on_both_sides_of_a_prime(e):
    # p = 2^e - 1 serves c H_4 exactly when 2 (1 + 2c)^4 < p, that is when
    # 1 + 2c is at most the integer fourth root of (p - 1) / 2; at the
    # largest such c the constant term (2c)^4 is above p / 8, near the
    # lifting limit p / 2, and c + 1 moves to the next tabled prime
    p = (1 << e) - 1
    c = (isqrt(isqrt((p - 1) // 2)) - 1) // 2
    assert _char_poly_modulus(hadamard_4(c)) == p
    assert _char_poly_modulus(hadamard_4(c + 1)) > p
    assert (2 * c) ** 4 > p // 8
    for scale in (c, c + 1):
        square = 4 * scale * scale
        assert char_poly(hadamard_4(scale)) == (square * square, 0, -2 * square, 0, 1)
        assert char_poly(hadamard_4(-scale)) == char_poly(hadamard_4(scale))


@given(sparse_square_matrices(12))
@example(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
@example(((0, 0, 1), (0, 5, 0), (1, 0, 0)))
@settings(max_examples=200, deadline=None)
def test_char_poly_on_sparse_matrices_against_faddeev_leverrier(m):
    assert char_poly(m) == faddeev_leverrier_char_poly(m)


@given(block_diagonal_matrices())
@settings(max_examples=150, deadline=None)
def test_char_poly_on_block_diagonal_matrices_against_faddeev_leverrier(m):
    assert char_poly(m) == faddeev_leverrier_char_poly(m)


def random_connected_quiver(rng, m, n):
    """A connected loop-less quiver on m vertices with n >= m - 1 arrows: a
    random spanning tree with random orientations plus random arrows, in
    shuffled order."""
    labels = list(range(1, m + 1))
    rng.shuffle(labels)
    arrows = []
    for k in range(1, m):
        u, v = labels[k], labels[rng.randrange(k)]
        arrows.append((u, v) if rng.random() < 0.5 else (v, u))
    while len(arrows) < n:
        arrows.append(tuple(rng.sample(range(1, m + 1), 2)))
    rng.shuffle(arrows)
    return Quiver(m, tuple(arrows))


def _seeded_sizes(count, max_n):
    rng = random.Random(f"sizes {max_n}")
    sizes = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        sizes.append((rng.randint(max(2, n // 3), n + 1), n))
    return sizes


@pytest.mark.parametrize("m, n", _seeded_sizes(16, 64) + [(40, 56), (65, 64)])
def test_char_poly_of_quiver_coxeter_matrices_against_the_walk_cycle_type(m, n):
    q = random_connected_quiver(random.Random(f"{m} {n}"), m, n)
    cycle_type = cycle_type_of_permutation(walk_permutation(q))
    expected = coxeter_polynomial_of_cycle_type(cycle_type, n - m + 1).expand()
    assert char_poly(coxeter_matrix_of_quiver(q)) == expected


def test_coxeter_matrices_of_40_vertices_and_56_arrows_need_at_most_127_bits():
    for seed in range(8):
        q = random_connected_quiver(random.Random(seed), 40, 56)
        assert _char_poly_modulus(coxeter_matrix_of_quiver(q)) <= 2 ** 127 - 1


def test_coxeter_matrices_of_at_most_7_arrows_reduce_below_2_31():
    # Phi = Id - I(Q)^T I(Q^-1) has entries in [-1, 3] on the diagonal and
    # [-2, 2] off it, so each factor of the bound is at most
    # 1 + ceil(sqrt(9 + 6 * 4)) = 7 and 2 * 7^7 < 2^31 - 1
    rng = random.Random(7)
    quivers = [Quiver(2, ((1, 2),) * 7), Quiver(2, ((1, 2), (2, 1)) * 3 + ((1, 2),))]
    for _ in range(300):
        n = rng.randint(1, 7)
        quivers.append(random_connected_quiver(rng, rng.randint(2, n + 1), n))
    for q in quivers:
        assert _char_poly_modulus(coxeter_matrix_of_quiver(q)) < 2 ** 31


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
    assert psd_rank(((2, -1), (-1, 2))) == 2
    assert psd_rank(((2, 2), (2, 2))) == 1
    assert psd_rank(((0, 1), (1, 0))) is None


def test_is_psd_requires_symmetry():
    with pytest.raises(ValueError):
        psd_rank(((1, 2), (0, 1)))


@given(symmetric_matrices(4))
@settings(max_examples=200)
def test_is_psd_against_fraction_oracle(m):
    assert psd_rank(m) == fraction_psd_rank(m)


@given(symmetric_matrices(4))
@settings(max_examples=40, deadline=None)
def test_is_psd_brute_force_necessary_condition(m):
    n = len(m)
    if psd_rank(m) is not None:
        for x in product(range(-3, 4), repeat=n):
            value = sum(x[i] * m[i][j] * x[j] for i in range(n) for j in range(n))
            assert value >= 0


# ---------------------------------------------------------------------------
# fraction-free elimination: the PSD rank
# ---------------------------------------------------------------------------

@st.composite
def sparse_symmetric_matrices(draw, max_n=12):
    """Mostly zero symmetric matrices with n <= max_n: B^T B for a sparse
    B, PSD with a zero pivot wherever a column of B depends on others and
    with rows that empty out, and then, half the time, up to four entries
    changed symmetrically, which can make it indefinite or leave a zero
    diagonal entry beside a nonzero one.  Rows of equal size are common,
    so the pivot order often falls to the lowest index."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    b = draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                      max_size=max_n))
    m = [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    if n and draw(st.booleans()):
        index = st.integers(min_value=0, max_value=n - 1)
        for i, j, delta in draw(st.lists(st.tuples(index, index, sparse_entries),
                                         max_size=4)):
            m[i][j] += delta
            if i != j:
                m[j][i] += delta
    return tuple(map(tuple, m))


@given(sparse_symmetric_matrices())
@example(())
@example(((0, 0), (0, 0)))
@example(((1, 1, 1), (1, 1, 1), (1, 1, 1)))   # rows that empty out
@example(((1, 1, 0), (1, 1, 0), (0, 0, 1)))   # a zero pivot whose row vanishes
@example(((2, 1, 0), (1, 0, 0), (0, 0, 0)))   # a zero pivot with a nonzero row
# a 4-cycle, every row of size 3: the affine form A~_3 (corank 1), and with
# one sign changed a positive definite form
@example(((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)))
@example(((2, -1, 0, 1), (-1, 2, -1, 0), (0, -1, 2, -1), (1, 0, -1, 2)))
@settings(max_examples=400, deadline=None)
def test_is_psd_on_sparse_matrices_against_fraction_oracle(m):
    assert psd_rank(m) == fraction_psd_rank(m)


@given(square_matrices(12, sparse_entries, min_n=0))
@example(((1, 1, 0), (1, 1, 0), (0, 0, 1)))   # a zero pivot whose row vanishes
@example(((1, 1, 1), (1, 1, 0), (1, 0, 1)))   # a zero pivot with a nonzero row
@example(((0, 0, 1), (0, 2, 0), (1, 0, 0)))
@settings(max_examples=200, deadline=None)
def test_elimination_on_sparse_matrices_against_fraction_oracles(m):
    sym = symmetrize(m)
    assert psd_rank(sym) == fraction_psd_rank(sym)
    # B^T B is PSD, with a zero pivot for each column dependent on earlier
    # ones, and of the rank of B
    assert psd_rank(mat_mul(transpose(m), m)) == fraction_rank(m)


def _arms(lengths):
    """Edges of the star with arms of the given lengths at centre 0."""
    edges, nxt = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


def _tree(family, n):
    """(edges, corank) of the Dynkin tree D_n or E_n (corank 0) or the
    Euclidean tree D~_n or E~_n (n + 1 vertices, corank 1)."""
    if family == "D":
        return _arms((1, 1, n - 3)), 0
    if family == "E":
        return _arms((1, 2, n - 4)), 0
    if family == "D~":
        path = [(i, i + 1) for i in range(n - 2)]
        return path + [(1, n - 1), (n - 3, n)], 1
    return _arms({6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}[n]), 1


TREES = ([("D", n) for n in range(4, 26)] + [("E", n) for n in (6, 7, 8)]
         + [("D~", n) for n in range(4, 26)] + [("E~", n) for n in (6, 7, 8)])


def _tree_form(family, n):
    """The symmetric Gram matrix of the tree's unit form in a random
    variable order with random edge signs, with its signed edges (in the
    new order) and its corank."""
    edges, corank = _tree(family, n)
    size = len(edges) + 1
    rng = random.Random(f"{family}{n}")
    order = list(range(size))
    rng.shuffle(order)
    signed = {(order[u], order[v]): rng.choice((-1, 1)) for u, v in edges}
    return _gram_of(size, signed), signed, corank


def _gram_of(size, signed):
    gram = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for (u, v), sign in signed.items():
        gram[u][v] = gram[v][u] = sign
    return tuple(map(tuple, gram))


@pytest.mark.parametrize("family, n", TREES, ids=[f"{f}_{n}" for f, n in TREES])
def test_tree_forms_are_psd_of_corank_at_most_one(family, n):
    gram, _, corank = _tree_form(family, n)
    assert psd_rank(gram) == len(gram) - corank


def closing_edge(size, signed, rng):
    """A signed edge that closes a cycle in a tree of the forest with the
    signed edges ``signed`` on 0..size-1, none of whose trees is a path,
    and a vector y with y^T (G + G^T) y = -2 for the form with that edge
    added.

    The new edge closes the tree path from u to w into a cycle; its sign
    makes the cycle's form vanish on h = (+-1 along the cycle).  The tree
    is not a path, so a vertex x off the cycle hangs on a cycle vertex v,
    and y = 2h - t h_v e_x, t the sign of edge vx, has y^T G y = -2.
    """
    adjacent = {i: {} for i in range(size)}
    for (u, v), sign in signed.items():
        adjacent[u][v] = adjacent[v][u] = sign
    u = rng.choice([a for a in range(size) if len(adjacent[a]) < size - 1])
    h = {u: 1}
    parent = {u: None}
    frontier = [u]
    while frontier:
        a = frontier.pop()
        for b, sign in adjacent[a].items():
            if b not in h:
                h[b], parent[b] = -sign * h[a], a
                frontier.append(b)
    w = rng.choice([b for b in range(size)
                    if b in h and b != u and b not in adjacent[u]])
    cycle = [w]
    while cycle[-1] != u:
        cycle.append(parent[cycle[-1]])
    on_cycle = set(cycle)
    x, v = next((x, v) for v in cycle for x in adjacent[v] if x not in on_cycle)
    y = [0] * size
    for c in cycle:
        y[c] = 2 * h[c]
    y[x] = -adjacent[v][x] * h[v]
    return (u, w), -h[u] * h[w], y


@pytest.mark.parametrize("family, n", TREES, ids=[f"{f}_{n}" for f, n in TREES])
def test_tree_forms_with_a_cycle_closing_edge_are_indefinite(family, n):
    gram, signed, _ = _tree_form(family, n)
    size = len(gram)
    edge, extra, y = closing_edge(size, signed, random.Random(f"{family}{n} edge"))
    closed = _gram_of(size, {**signed, edge: extra})
    assert sum(y[i] * closed[i][j] * y[j]
               for i in range(size) for j in range(size)) == -2
    assert psd_rank(closed) is None


def _skew_sparse(step, skew):
    def skewed(rows, near, k):
        # record fragment determinants that are not the minors the rows
        # were scaled by: the pivot's three times too large, or one more
        # fragment next to the pivot and every row it clears
        if skew == "pivot row":
            near[k] = {f: 3 * det for f, det in near[k].items()}
        else:
            for i in rows[k]:
                near[i][-1] = 7
        return step(rows, near, k)
    return skewed


# the step each function eliminates with, and how to skew its scales
STEPS = {psd_rank: ("_eliminate_sparse", _skew_sparse)}


@pytest.mark.parametrize("skew", ["pivot row", "rows below"])
@pytest.mark.parametrize("function", list(STEPS))
def test_exactness_guard_fires_on_an_inconsistent_recorded_scale(
        monkeypatch, function, skew):
    name, skewing = STEPS[function]
    monkeypatch.setattr(linalg, name, skewing(getattr(linalg, name), skew))
    # a triangle: the sparse step's second pivot shares a fragment with
    # the row it clears
    with pytest.raises(InvariantViolation, match="lost exactness"):
        function(((2, 1, 1), (1, 2, 1), (1, 1, 2)))


# ---------------------------------------------------------------------------
# the dense permutation matrix oracle
# ---------------------------------------------------------------------------

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
# exact division by v^t - 1
# ---------------------------------------------------------------------------

def test_divide_by_v_power_minus_one_examples():
    product_poly = poly_mul(v_power_minus_one(4), (-1, 1))
    assert divide_by_v_power_minus_one(product_poly, 1) == v_power_minus_one(4)
    assert divide_by_v_power_minus_one(product_poly, 4) == (-1, 1)
    assert divide_by_v_power_minus_one((1, 1, 1), 1) is None  # remainder 3
    assert divide_by_v_power_minus_one((-1, 0, 0, 0, 1), 2) == (1, 0, 1)
    assert divide_by_v_power_minus_one((1,), 1) is None  # a nonzero constant
    assert divide_by_v_power_minus_one((-1, 1), 3) is None  # degree below t
    # trailing zeros carry over to the quotient; zero divides to zero
    assert divide_by_v_power_minus_one((-1, 1, 0), 1) == (1, 0)
    assert divide_by_v_power_minus_one((0, 0), 3) == ()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=7), st.booleans(),
       st.integers(min_value=0, max_value=20), st.integers(min_value=-2, max_value=2))
def test_divide_by_v_power_minus_one_against_long_division(
        factors, cofactor, t, with_t, at, bump):
    # a product of v^t - 1 factors, v^t - 1 itself among them or not, times
    # a small polynomial, with one coefficient bumped
    p = poly_normalize(cofactor)
    for f in factors + [t] * with_t:
        p = poly_mul(p, v_power_minus_one(f))
    p = list(p)
    if at < len(p):
        p[at] += bump
    p = poly_normalize(p)
    quotient, rem = poly_divmod(p, v_power_minus_one(t))
    got = divide_by_v_power_minus_one(p, t)
    if rem != (0,):
        assert got is None
    else:
        assert got is not None and len(got) == max(len(p) - t, 0)
        assert poly_normalize(got) == quotient


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


def nilpotent_by_definition(m):
    """m^n = 0 for the n x n matrix m, by n repeated products."""
    power = identity(len(m))
    for _ in range(len(m)):
        power = mat_mul(power, m)
    return not any(any(row) for row in power)


@settings(max_examples=80, deadline=None)
@given(square_matrices(6, st.integers(min_value=-2, max_value=2), min_n=0))
def test_is_nilpotent_matches_the_definition(m):
    assert is_nilpotent(m) == nilpotent_by_definition(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.lists(st.integers(min_value=-2, max_value=2),
                       min_size=3 * n * n, max_size=3 * n * n).map(
        lambda xs: tuple(tuple(tuple(xs[t * n * n + i * n + j] for j in range(n))
                               for i in range(n)) for t in range(3)))))
def test_is_nilpotent_on_conjugated_strictly_triangular_matrices(blocks):
    # U N U^-1 with N strictly upper triangular and U = L^T R for upper
    # unitriangular L and R, so U^-1 = R^-1 (L^-1)^T
    strict, left, right = (
        tuple(tuple(x if j > i else int(i == j and k > 0) for j, x in enumerate(row))
              for i, row in enumerate(block))
        for k, block in enumerate(blocks))
    u = mat_mul(transpose(left), right)
    u_inv = mat_mul(unitriangular_inverse(right),
                    transpose(unitriangular_inverse(left)))
    m = mat_mul(mat_mul(u, strict), u_inv)
    assert is_nilpotent(m) is True
    assert nilpotent_by_definition(m)


def test_is_nilpotent_small_cases():
    assert is_nilpotent(()) is True
    assert is_nilpotent(((0,),)) is True
    assert is_nilpotent(((3,),)) is False
    # a Jordan block whose powers vanish only at the full size
    jordan = tuple(tuple(int(j == i + 1) for j in range(5)) for i in range(5))
    assert is_nilpotent(jordan) is True
    assert is_nilpotent(identity(4)) is False
