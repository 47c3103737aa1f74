"""Exact integer matrix kernel.

Everything here is arbitrary-precision integer arithmetic, with rational
questions (rank, definiteness) answered by fraction-free elimination; no
floating point is used anywhere in the package.

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

from operator import mul, neg, sub
from typing import Sequence

from .errors import InvariantViolation

IntMatrix = tuple[tuple[int, ...], ...]
IntPoly = tuple[int, ...]
PermutationMap = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic matrix operations
# ---------------------------------------------------------------------------

def matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Freeze a nested sequence into an IntMatrix, checking rectangularity."""
    frozen = tuple(tuple(int(x) for x in row) for row in rows)
    if frozen and any(len(row) != len(frozen[0]) for row in frozen):
        raise ValueError("ragged rows in matrix")
    return frozen


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
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(a, b)])


def mat_neg(a: IntMatrix) -> IntMatrix:
    return tuple([tuple(map(neg, row)) for row in a])


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def is_square(m: IntMatrix) -> bool:
    return not m or len(m) == len(m[0])


def is_symmetric(m: IntMatrix) -> bool:
    if not is_square(m):
        return False
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power of a square matrix, k >= 0, by repeated squaring."""
    if not is_square(m):
        raise ValueError("matrix power requires a square matrix")
    if k < 0:
        raise ValueError("negative matrix power not supported")
    result = identity(len(m))
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def is_nilpotent(m: IntMatrix) -> bool:
    """Whether m^n = 0 for the n x n matrix m, by repeated squaring."""
    power = m
    k = 1
    while k < len(m):
        power = mat_mul(power, power)
        k *= 2
    return not any(any(row) for row in power)


# ---------------------------------------------------------------------------
# determinant / rank / inverse
# ---------------------------------------------------------------------------

def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not is_square(m):
        raise ValueError("determinant requires a square matrix")
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rational_rank(m: IntMatrix) -> int:
    """Rank over the rationals, via fraction-free Gaussian elimination."""
    if not m or not m[0]:
        return 0
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for i in range(rank, rows):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        pivot_row_vals = a[rank]
        for i in range(rank + 1, rows):
            row_i = a[i]
            lead = row_i[col]
            new_row = [0] * (col + 1)
            for j in range(col + 1, cols):
                num = pivot * row_i[j] - lead * pivot_row_vals[j]
                q, r = divmod(num, prev)
                if r:
                    raise InvariantViolation("fraction-free elimination lost exactness")
                new_row.append(q)
            a[i] = new_row
        prev = pivot
        rank += 1
        if rank == rows:
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
    """The Coxeter matrix -G^T G^{-1}, given G and its inverse."""
    return mat_neg(mat_mul(transpose(gram), gram_inv))


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly(m: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(v*Id - m), exact over the integers.

    Uses the Faddeev-LeVerrier recurrence; every division is exact.
    Coefficients are returned lowest degree first.
    """
    if not is_square(m):
        raise ValueError("characteristic polynomial requires a square matrix")
    n = len(m)
    if n == 0:
        return (1,)
    coeffs_high = [1]  # leading coefficient of v^n
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(m, work)
        trace = sum(work[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise InvariantViolation("Faddeev-LeVerrier division was not exact")
        coeffs_high.append(q)
        if k < n:
            work = tuple(
                tuple(x + q if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(work)
            )
    return tuple(reversed(coeffs_high))


# ---------------------------------------------------------------------------
# exact positive semidefiniteness
# ---------------------------------------------------------------------------

def is_psd(m: IntMatrix) -> bool:
    """Decide x^T m x >= 0 for all rational x, exactly.

    Fraction-free symmetric elimination: every pivot (a scaled Schur
    complement diagonal, same sign as the rational one) must be nonnegative,
    and a zero pivot is only admissible when its entire reduced row (hence
    column) vanishes.  Raises ValueError on non-symmetric input.
    """
    if not is_symmetric(m):
        raise ValueError("positive semidefiniteness requires a symmetric matrix")
    n = len(m)
    a = [list(row) for row in m]
    prev = 1
    for k in range(n):
        row_k = a[k]
        if row_k[k] < 0:
            return False
        if row_k[k] == 0:
            if any(row_k[j] != 0 for j in range(k + 1, n)):
                return False
            continue
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - lead * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise InvariantViolation("fraction-free elimination lost exactness")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
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


def permutation_from_matrix(m: IntMatrix) -> PermutationMap:
    """Inverse of :func:`permutation_matrix`; raises if not a permutation matrix."""
    n = len(m)
    images = [0] * n
    for v in range(n):
        ones = [i for i in range(n) if m[i][v] == 1]
        if len(ones) != 1 or any(m[i][v] != 0 for i in range(n) if i != ones[0]):
            raise ValueError("not a permutation matrix")
        images[v] = ones[0] + 1
    return check_permutation(tuple(images))


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
