"""Exact integer matrix kernel.

Everything here is arbitrary-precision integer arithmetic, with rational
questions (rank, definiteness) answered by fraction-free elimination; no
floating point is used anywhere in the package.  The characteristic
polynomial does not use fraction-free elimination: it comes from reduction
to Hessenberg form modulo the smallest tabled Mersenne prime that recovers
every integer coefficient under the bound prod_i (1 + ceil(|row i|)), with
sparse pivot rows chosen and only their nonzero columns updated.  No
matrix inverse is formed.  The one polynomial routine is exact division by
v^t - 1, the only factor a type-A Coxeter polynomial
(v-1)^(c-1) prod_a (v^pi_a - 1) is asked about.

Conventions
-----------
* A matrix is a tuple of row tuples of Python ints (``IntMatrix``).  A matrix
  with zero rows is ``()``; its column count is contextual.
* A polynomial is a tuple of int coefficients, lowest degree first
  (``IntPoly``).
* A permutation of ``{1..m}`` is a tuple ``images`` of length ``m`` with
  ``images[v-1]`` the image of ``v`` (``PermutationMap``, 1-based values).
  Its permutation matrix ``P`` satisfies ``P e_v = e_{images[v-1]}``.
"""

from __future__ import annotations

from math import isqrt
from operator import mul, sub

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
    if m and len(m) != len(m[0]):
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
# exact positive semidefiniteness and rank
# ---------------------------------------------------------------------------

def psd_rank(m: IntMatrix) -> int | None:
    """The rank of m if m is positive semidefinite, None if it is not,
    exactly, by the sparse elimination of :func:`_psd_rank_rows` on the
    nonzero entries of m.  Raises ValueError on non-symmetric input."""
    if transpose(m) != m:
        raise ValueError("positive semidefiniteness requires a symmetric matrix")
    return _psd_rank_rows([{j: x for j, x in enumerate(row) if x} for row in m])


def _psd_rank_rows(rows: list) -> int | None:
    """The rank of the symmetric matrix M with the rows ``rows`` if M is
    positive semidefinite, None if it is not, exactly.  Row i is a dict
    {column: value} of its nonzero entries; the rows are consumed.

    Symmetric fraction-free elimination (:func:`_eliminate_sparse`) whose
    next pivot is always the remaining row with the fewest entries, the
    lowest index on a tie, taken from a heap of (size, index) in which an
    entry whose size is no longer the row's is skipped.  A negative pivot
    means M is not PSD, and a zero pivot is admissible only when its whole
    reduced row vanishes; such an index is dropped without a step.

    * Any order.  Let P be the permutation of the order the pivots are
      taken in.  x^T P^T M P x = (Px)^T M (Px), and P is invertible, so
      P^T M P is PSD exactly when M is, and of the same rank.
    * Zero pivots.  Let K be the indices eliminated so far, all with
      positive pivots.  The Schur complement S of M[K, K] is PSD exactly
      when M is.  A PSD matrix with a zero diagonal entry has a zero row
      there, and dropping a zero row and column keeps a matrix PSD or not,
      whichever step the zero turns up at.
    * Rank.  rank M = |K| + rank S, and dropping a zero row and column
      keeps the rank, so the rank of a PSD M is its number of positive
      pivots.
    * Scales.  S_ij = det M[K + i, K + j] / det M[K, K].  A fragment is a
      connected component of the graph of M on K.  In M[K + i, K + j] the
      rows of a fragment F next to neither i nor j are zero outside the
      columns of F, the rows of one next to i alone are too, and so are
      the columns of one next to j alone.  So det M[F, F] splits off from
      that minor and from det M[K, K], and S_ij = det M[B + i, B + j] /
      det M[B, B] for the union B of the fragments next to both i and j.
      Let s_i be the product of det M[F, F] over the fragments F next to
      the remaining index i.  Row i is stored as s_i S_ij, which is the
      integer det M[B + i, B + j] times the determinants of the other
      fragments next to i.  The stored pivot s_k S_kk is det M[F', F'] for
      the fragment F' of k and the fragments next to it, which the step
      creates; it is positive when the step is taken, so every s_i is
      positive and the stored rows have the signs of S.  A row i next to
      F' goes from s_i S_i to s_i' S'_i with s_i' = s_i p / g, for p the
      pivot and g the product of det M[F, F] over the fragments next to
      both i and k.  As p * row_i - lead * row_k = s_i p S'_i, for lead
      its entry in column k, the division by g is exact.  A single
      global scale would multiply the determinants of all fragments,
      however far apart; s_i grows only with the fragments next to i.
    * Supports.  Entries that cancel to zero are kept, so the support of
      row k is the set of remaining indices joined to k by a path through
      K: exactly the rows next to F', whose C_i change.
    * Cost.  The rows hold the n diagonal entries, the nonzero entries of
      M and the fill, the entries a step adds outside the supports it
      started from, so memory is O(n + entries + fill).  A step takes
      time in the sizes of the rows and fragment sets it touches.  When
      the graph of M is a forest, a row of at most two entries is a leaf
      or an isolated vertex, or a vertex that lost its diagonal entry,
      where the run stops; a forest with an edge has a leaf, so the
      smallest row is one of these.  Eliminating a leaf changes only its
      neighbour's row, within its support, and leaves a forest: no fill.
      The worst case, a dense M, is O(n^3) time and O(n^2) memory.
    """
    # imported here, not with the module: every CLI call pays for the
    # package's import, and only the PSD rank needs a heap
    from heapq import heapify, heappop, heappush

    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    # per remaining row, its fragments: {id: det M[F, F]}, where a
    # fragment's id is the index whose step created it
    near = [{} for _ in rows]
    rank = 0
    while heap:
        size, k = heappop(heap)
        row_k = rows[k]
        if row_k is None or len(row_k) != size:
            continue
        pivot = row_k.get(k, 0)
        if pivot < 0 or (pivot == 0 and any(row_k.values())):
            return None
        if pivot:
            _eliminate_sparse(rows, near, k)
            rank += 1
        else:
            for i in row_k:
                if i != k:
                    del rows[i][k]
        for i in row_k:
            if i != k:
                heappush(heap, (len(rows[i]), i))
        rows[k] = near[k] = None
    return rank


def _eliminate_sparse(rows: list, near: list, k: int) -> None:
    """One step of :func:`_psd_rank_rows`: clear column k, whose diagonal
    entry is nonzero, from the rows of the other columns of row k.

    ``near[i]`` maps each fragment next to row i to its determinant.  Row
    i becomes (pivot * row_i - lead * row_k) / g over the union of the two
    supports, without column k, where lead is its entry in column k and g
    the product of the determinants of the fragments next to both rows;
    those fragments and k become one fragment, of determinant pivot.  A
    remainder raises InvariantViolation.
    """
    row_k, near_k = rows[k], near[k]
    pivot = row_k[k]
    for i in row_k:
        if i == k:
            continue
        row_i = rows[i]
        lead = row_i.pop(k)
        combined = {j: pivot * x for j, x in row_i.items()}
        for j, y in row_k.items():
            combined[j] = combined.get(j, 0) - lead * y
        del combined[k]
        g = 1
        apart = {k: pivot}
        for f, det in near[i].items():
            if f in near_k:
                g *= near_k[f]
            else:
                apart[f] = det
        if g != 1:
            for j, x in combined.items():
                quotient, r = divmod(x, g)
                if r:
                    raise InvariantViolation(
                        "fraction-free elimination lost exactness")
                combined[j] = quotient
        near[i] = apart
        rows[i] = combined


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
# exact division by v^t - 1
# ---------------------------------------------------------------------------

def divide_by_v_power_minus_one(p: IntPoly, t: int) -> IntPoly | None:
    """The quotient q with p = (v^t - 1) q, for t >= 1, or None when v^t - 1
    does not divide p exactly.  q has s = max(len(p) - t, 0) coefficients,
    trailing zeros of p carried over.

    Any such q has degree deg p - t < s, so q_j = 0 outside 0 <= j < s, and
    coefficient k of (v^t - 1) q is q_{k-t} - q_k.  Hence p = (v^t - 1) q
    exactly when q_k = q_{k-t} - p_k for every k < s, which fixes q from
    the bottom up, and p_k = q_{k-t} for each of the top coefficients
    k >= s, where q_k is 0.  The division takes O(len(p) + t) additions.
    """
    size = max(len(p) - t, 0)
    shifted = [0] * (t + size)  # v^t q: coefficient k is q_{k-t}
    for k in range(size):
        shifted[k + t] = shifted[k] - p[k]
    if shifted[size:len(p)] != list(p[size:]):
        return None
    return tuple(shifted[t:])
