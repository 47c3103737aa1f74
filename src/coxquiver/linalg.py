"""Exact integer matrix kernel.

Everything here is arbitrary-precision integer arithmetic, with rational
questions (rank, definiteness) answered by fraction-free elimination; no
floating point is used anywhere in the package.  The characteristic
polynomial does not use fraction-free elimination: it comes from reduction
to Hessenberg form modulo the smallest tabled Mersenne prime that recovers
every integer coefficient under the bound prod_i (1 + ceil(|row i|)), with
sparse pivot rows chosen and only their nonzero columns updated.

Conventions
-----------
* A matrix is a tuple of row tuples of Python ints (``IntMatrix``).  A matrix
  with zero rows is ``()``; its column count is contextual.
* A polynomial is a tuple of int coefficients, lowest degree first
  (``IntPoly``).  The zero polynomial is ``(0,)``.
* A permutation of ``{1..m}`` is a tuple ``images`` of length ``m`` with
  ``images[v-1]`` the image of ``v`` (``PermutationMap``, 1-based values).
  Its permutation matrix ``P`` satisfies ``P e_v = e_{images[v-1]}``.
"""

from __future__ import annotations

from math import isqrt
from operator import mul, sub
from typing import Sequence

from .errors import InvariantViolation

IntMatrix = tuple[tuple[int, ...], ...]
IntPoly = tuple[int, ...]
PermutationMap = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic matrix operations
# ---------------------------------------------------------------------------

def identity(n: int) -> IntMatrix:
    zeros = (0,) * n
    return tuple([zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)])


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact integer product.  Raises on inner-dimension mismatch."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} columns vs {len(b)} rows")
    if not a:
        return ()
    if not b:
        # a must be rows x 0; the product has zero columns per row
        if a[0]:
            raise ValueError(f"dimension mismatch: {len(a[0])} columns vs 0 rows")
        return tuple(() for _ in a)
    bt = tuple(zip(*b))
    # from lists: tuple() of a generator resizes its result
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(a, b)])


def is_square(m: IntMatrix) -> bool:
    return not m or len(m) == len(m[0])


def is_symmetric(m: IntMatrix) -> bool:
    if not is_square(m):
        return False
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power of a square matrix, k >= 0, by repeated squaring;
    the product starts from the lowest set bit of k, not from the
    identity."""
    if not is_square(m):
        raise ValueError("matrix power requires a square matrix")
    if k < 0:
        raise ValueError("negative matrix power not supported")
    if k == 0:
        return identity(len(m))
    result = None
    base = m
    while True:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mat_mul(base, base)


def is_nilpotent(m: IntMatrix) -> bool:
    """Whether m^n = 0 for the n x n matrix m, by repeated squaring that
    stops at the first zero power m^k (m^n = 0 for every nilpotent m)."""
    power = m
    k = 1
    while any(map(any, power)):
        if k >= len(m):
            return False
        power = mat_mul(power, power)
        k *= 2
    return True


# ---------------------------------------------------------------------------
# determinant / rank / inverse
# ---------------------------------------------------------------------------

def _eliminate(a: list, since: list, k: int, col: int, prev: int) -> int:
    """One lazy fraction-free (Bareiss) step: clear column ``col`` below
    row ``k``, whose entry there is nonzero, and return that pivot.

    ``prev`` is the current leading minor, and row i is stored at the
    scale of the minor ``since[i]`` it was last brought to.  Bareiss'
    update of a row with a zero lead only scales it by pivot / prev, so
    such rows are left alone: a row untouched since minor d_j holds its
    stored values times d_k / d_j at minor d_k, and the quotient is exact
    by Bareiss' theorem (the scaled values are minors of the input).  The
    pivot row is brought to row_k * prev / since[k], and a row with a
    nonzero lead to (pivot * row_i - lead * row_k) / since[i].
    """
    row_k = a[k]
    if since[k] != prev:
        _combine(row_k, prev, 0, row_k, since[k], col)
        since[k] = prev
    pivot = row_k[col]
    for i in range(k + 1, len(a)):
        row_i = a[i]
        lead = row_i[col]
        if lead:
            _combine(row_i, pivot, lead, row_k, since[i], col + 1)
            row_i[col] = 0
            since[i] = pivot
    return pivot


def _combine(row: list, p: int, q: int, other: list, d: int, start: int) -> None:
    """row <- (p * row - q * other) / d in place from column ``start`` on;
    a remainder raises InvariantViolation."""
    for j in range(start, len(row)):
        quotient, r = divmod(p * row[j] - q * other[j], d)
        if r:
            raise InvariantViolation("fraction-free elimination lost exactness")
        row[j] = quotient


def determinant(m: IntMatrix) -> int:
    """Exact determinant by lazy fraction-free elimination, swapping a row
    with a nonzero entry into each zero pivot position."""
    if not is_square(m):
        raise ValueError("determinant requires a square matrix")
    a, since, sign, prev = [list(row) for row in m], [1] * len(m), 1, 1
    for k in range(len(m)):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, len(m)) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            since[k], since[i] = since[i], since[k]
            sign = -sign
        prev = _eliminate(a, since, k, k, prev)
    return sign * prev


def rational_rank(m: IntMatrix) -> int:
    """Rank over the rationals, by lazy fraction-free elimination: the
    number of columns in which a pivot is found."""
    if not m or not m[0]:
        return 0
    a, since, rank, prev = [list(row) for row in m], [1] * len(m), 0, 1
    for col in range(len(m[0])):
        i = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if i is None:
            continue
        a[rank], a[i] = a[i], a[rank]
        since[rank], since[i] = since[i], since[rank]
        prev = _eliminate(a, since, rank, col, prev)
        rank += 1
        if rank == len(a):
            break
    return rank


def unitriangular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of an upper triangular matrix with unit diagonal.

    Back substitution by rows, from the last up: row i of the inverse is
    e_i minus m[i][k] times row k for every k > i with m[i][k] nonzero.
    """
    n = len(m)
    rows: list = [None] * n
    for i in range(n - 1, -1, -1):
        row = [0] * n
        row[i] = 1
        for k in range(i + 1, n):
            c = m[i][k]
            if c:
                row_k = rows[k]
                for j in range(k, n):
                    row[j] -= c * row_k[j]
        rows[i] = tuple(row)
    return tuple(rows)


def coxeter_from_gram(gram: IntMatrix, gram_inv: IntMatrix) -> IntMatrix:
    """The Coxeter matrix -G^T G^{-1}, given an upper triangular G and its
    inverse.

    -G^T G^{-1} = -sum_k (row k of G)^T (row k of G^{-1}), so row i of the
    product is minus the rows k of G^{-1} weighted by g_ki.  G is upper
    triangular, so only k <= i with g_ki nonzero contribute.
    """
    n = len(gram)
    rows = []
    for i, g_col in enumerate(zip(*gram)):
        row = [0] * n
        for k in range(i + 1):
            c = g_col[k]
            if c == 1:
                row = list(map(sub, row, gram_inv[k]))
            elif c:
                row = [x - c * y for x, y in zip(row, gram_inv[k])]
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

# Exponents e of the Mersenne primes 2^e - 1 that char_poly may reduce by.
_MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607,
                       1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213,
                       19937, 21701, 23209, 44497)


def _char_poly_modulus(m: IntMatrix) -> int:
    """The smallest tabled Mersenne prime above twice the coefficient bound
    prod_i (1 + ceil(sqrt(sum_j m_ij^2))) of :func:`char_poly`."""
    bound = 1
    for row in m:
        squares = sum(x * x for x in row)
        root = isqrt(squares)
        bound *= 1 + root + (root * root < squares)
    for e in _MERSENNE_EXPONENTS:
        if (1 << e) - 1 > 2 * bound:
            return (1 << e) - 1
    raise ValueError(
        f"characteristic polynomial coefficient bound of {bound.bit_length()} "
        f"bits exceeds the largest modulus 2^{_MERSENNE_EXPONENTS[-1]} - 1"
    )


def char_poly(m: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(v*Id - m), exact over the integers.

    Coefficients are returned lowest degree first.  The work is O(n^3)
    operations on residues modulo one prime p, and fewer on sparse input:

    * Bound.  The coefficient c_k of v^(n-k) is (-1)^k times the sum of the
      principal k x k minors of m.  By Hadamard's inequality a minor on the
      rows S is at most the product of the norms of its k shortened rows,
      each at most the norm r_i of the whole row i of m.  So |c_k| is at
      most the elementary symmetric sum e_k(r_1, ..., r_n), and since
      prod_i (1 + r_i) is the sum of all e_k, every coefficient is at most
      B = prod_i (1 + ceil(r_i)) in absolute value.
    * Reduction.  p is the smallest tabled Mersenne prime with p > 2B.  Over
      the field Z/p, m is brought to upper Hessenberg form H by similarity.
      At column k, the pivot is the row i > k with a nonzero entry in
      column k that has the fewest nonzero entries, the lowest such i on a
      tie; a row swap with the matching column swap moves it to row k+1.
      Each row i > k+1 then loses a multiple of row k+1 while column k+1
      gains the same multiple of column i.  Every row below k+1 is zero
      left of column k by the earlier steps, and so is the pivot row, so a
      row update only touches the columns j >= k where the pivot row is
      nonzero: elsewhere it subtracts zero.  A pivot with few nonzero
      entries keeps the updates short and the rows they fill in few.
      Similar matrices share their characteristic polynomial, so
      det(v*Id - H) = char_poly(m) mod p; it is expanded along the last
      column by the Hessenberg recurrence.
    * Lifting.  Each true coefficient lies in [-B, B], an interval shorter
      than p, so it is the unique symmetric residue of its value mod p
      in (-p/2, p/2].

    As a guard, the v^(n-1) coefficient is compared with -trace(m) over the
    integers; a mismatch raises InvariantViolation.  A bound beyond the
    largest tabled prime raises ValueError.
    """
    if not is_square(m):
        raise ValueError("characteristic polynomial requires a square matrix")
    n = len(m)
    p = _char_poly_modulus(m)
    a = [[x % p for x in row] for row in m]
    for k in range(n - 2):
        rows = [i for i in range(k + 1, n) if a[i][k]]
        if not rows:
            continue
        # the most zeros, so the fewest nonzeros; max keeps the lowest i
        pivot = max(rows, key=lambda i: a[i].count(0))
        if pivot != k + 1:
            a[k + 1], a[pivot] = a[pivot], a[k + 1]
            for row in a:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
        top = a[k + 1]
        inv = pow(top[k], -1, p)
        support = [(j, y) for j, y in enumerate(top[k:], k) if y]
        factors = []
        for i in range(k + 2, n):
            row = a[i]
            if row[k]:
                f = row[k] * inv % p
                factors.append((i, f))
                for j, y in support:
                    row[j] = (row[j] - f * y) % p
        for i, f in factors:
            for row in a:
                if row[i]:
                    row[k + 1] = (row[k + 1] + f * row[i]) % p
    # polys[k] = det(v*Id - H_k) for the leading k x k block H_k of H;
    # along the last column, det(v*Id - H_{k+1}) is (v - h_kk) polys[k]
    # minus h_ik * h_{i+1,i} * ... * h_{k,k-1} * polys[i] for each i < k
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        diag = a[k][k]
        nxt = [x - diag * y for x, y in zip([0] + prev, prev)] + [1]
        chain = 1
        for i in range(k - 1, -1, -1):
            chain = chain * a[i + 1][i] % p
            if not chain:
                break
            c = chain * a[i][k] % p
            if c:
                nxt[:i + 1] = [x - c * y for x, y in zip(nxt, polys[i])]
        polys.append([x % p for x in nxt])
    half = p // 2
    # from a list: tuple() of a generator resizes its result, and the
    # resized tuples pile up on CPython's tuple free list
    coeffs = tuple([c - p if c > half else c for c in polys[n]])
    if n and coeffs[n - 1] != -sum(m[i][i] for i in range(n)):
        raise InvariantViolation(
            "characteristic polynomial disagrees with the trace"
        )
    return coeffs


# ---------------------------------------------------------------------------
# exact positive semidefiniteness
# ---------------------------------------------------------------------------

def is_psd(m: IntMatrix) -> bool:
    """Decide x^T m x >= 0 for all rational x, exactly.

    Symmetric lazy fraction-free elimination (:func:`_eliminate`) without
    row swaps: every pivot (a scaled Schur complement diagonal, same sign
    as the rational one) must be nonnegative, and a zero pivot is only
    admissible when its entire reduced row (hence column) vanishes.  A row
    untouched since minor d_j holds its stored values times d_k / d_j at
    minor d_k, exactly by Bareiss' theorem.  Every minor so far is a
    positive pivot, so the stored row k has the signs of the reduced one.
    Raises ValueError on non-symmetric input.
    """
    if not is_symmetric(m):
        raise ValueError("positive semidefiniteness requires a symmetric matrix")
    a, since, prev = [list(row) for row in m], [1] * len(m), 1
    for k, row_k in enumerate(a):
        if row_k[k] < 0 or (row_k[k] == 0 and any(row_k[k + 1:])):
            return False
        if row_k[k]:
            prev = _eliminate(a, since, k, k, prev)
    return True


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def check_permutation(p: PermutationMap) -> PermutationMap:
    """Validate that ``p`` is a bijection of {1..m}; returns it unchanged."""
    m = len(p)
    if sorted(p) != list(range(1, m + 1)):
        raise ValueError("not a permutation of 1..m")
    return tuple(p)


def permutation_matrix(p: PermutationMap) -> IntMatrix:
    """Matrix P with P e_v = e_{p(v)} (column v has a 1 in row p(v))."""
    m = len(p)
    rows = [[0] * m for _ in range(m)]
    for v in range(m):
        rows[p[v] - 1][v] = 1
    return tuple(tuple(row) for row in rows)


def cycle_decomposition(p: PermutationMap) -> tuple[tuple[int, ...], ...]:
    """Orbits of ``p`` as disjoint cycles covering {1..m}.

    Each cycle starts at its smallest element; cycles are ordered by that
    element.
    """
    check_permutation(p)
    m = len(p)
    seen = [False] * (m + 1)
    cycles = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        v = p[start - 1]
        while v != start:
            cycle.append(v)
            seen[v] = True
            v = p[v - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


# ---------------------------------------------------------------------------
# integer polynomials (lowest degree first)
# ---------------------------------------------------------------------------

def poly_normalize(coeffs: Sequence[int]) -> IntPoly:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0,)


def poly_degree(p: IntPoly) -> int:
    """Degree, with the convention deg(0) = -1."""
    p = poly_normalize(p)
    return -1 if p == (0,) else len(p) - 1


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if a == (0,) or b == (0,):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_normalize(out)


def poly_pow(a: IntPoly, k: int) -> IntPoly:
    if k < 0:
        raise ValueError("negative polynomial power")
    result: IntPoly = (1,)
    for _ in range(k):
        result = poly_mul(result, a)
    return result


def poly_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division by a polynomial with leading coefficient +-1."""
    a = poly_normalize(a)
    b = poly_normalize(b)
    if b == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[-1]
    if lead not in (1, -1):
        raise ValueError("division only supported for unit leading coefficient")
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 1)
    while len(rem) - 1 >= db and any(rem):
        shift = len(rem) - 1 - db
        factor = rem[-1] * lead
        quot[shift] = factor
        for i, y in enumerate(b):
            rem[shift + i] -= factor * y
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return poly_normalize(quot), poly_normalize(rem)


def v_power_minus_one(t: int) -> IntPoly:
    """The polynomial v^t - 1."""
    if t < 1:
        raise ValueError("exponent must be >= 1")
    return (-1,) + (0,) * (t - 1) + (1,)


def nu_poly(k: int) -> IntPoly:
    """nu_k(v) = v^{k-1} + ... + v + 1, so that v^k - 1 = (v-1) nu_k(v)."""
    if k < 1:
        raise ValueError("nu_k requires k >= 1")
    return (1,) * k
