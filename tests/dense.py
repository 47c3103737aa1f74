"""The tests' dense constructions of unit forms and quiver matrices, the
oracles built on them, and a general integer polynomial ring with long
division: the oracle for the package's one polynomial routine, exact
division by v^t - 1.  The Coxeter matrix -G^T G^{-1} from the unitriangular
inverse is the oracle for ``quiver._coxeter_matrix``, which builds it from
the arrows of a quiver and its inverse, and the Coxeter matrix of any unit
form, connected or not, that the tests need."""

from fractions import Fraction
from operator import add, mul, sub

from coxquiver.partitions import Partition
from coxquiver.quiver import spanning_tree
from coxquiver.unitform import UnitForm


def form_from_gram(gram) -> UnitForm:
    """The unit form whose upper triangular Gram matrix, unit diagonal, is
    ``gram``: its nonzero entries above the diagonal."""
    n = len(gram)
    if any(gram[i][i] != 1 or any(gram[i][:i]) for i in range(n)):
        raise ValueError("not an upper triangular matrix with unit diagonal")
    return UnitForm(n, [(i + 1, j + 1, gram[i][j])
                        for i in range(n) for j in range(i + 1, n) if gram[i][j]])


def symmetric_gram(f: UnitForm):
    """G + G^T: symmetric with diagonal 2."""
    g = f.gram_upper
    return tuple(tuple(map(add, row, column)) for row, column in zip(g, zip(*g)))


def incidence_matrix(q):
    """m x n matrix whose column i is e_{source(i)} - e_{target(i)}."""
    rows = [[0] * q.n for _ in range(q.m)]
    for i, (s, t) in enumerate(q.arrows):
        rows[s - 1][i] = 1
        rows[t - 1][i] = -1
    return tuple(map(tuple, rows))


def gram_from_incidence(q):
    """The upper triangular G with G + G^T = I(Q)^T I(Q), read off the dense
    product: its entries above the diagonal, and half its diagonal, 1 for a
    loop-less quiver.  The oracle for the G that ``form_of_quiver`` and the
    sweep build from the arrows at each vertex."""
    columns = tuple(zip(*incidence_matrix(q)))
    product = [[sum(map(mul, a, b)) for b in columns] for a in columns]
    rows = [[0] * q.n for _ in range(q.n)]
    for i, row in enumerate(rows):
        row[i] = product[i][i] // 2
        row[i + 1:] = product[i][i + 1:]
    return tuple(map(tuple, rows))


def form_connected(f: UnitForm) -> bool:
    """Connectivity of the graph on variables with edges at nonzero Gram
    entries."""
    return len(spanning_tree(f.n, ((i, j) for i, j, _ in f.upper))) == f.n - 1


def unitriangular_inverse(m):
    """Inverse of an upper triangular matrix with unit diagonal.

    Back substitution by rows, from the last up: row i of the inverse is
    e_i minus m[i][k] times row k for every k > i with m[i][k] nonzero.
    """
    n = len(m)
    rows = [None] * n
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


def coxeter_from_gram(gram, gram_inv):
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


def dense_coxeter_matrix(f: UnitForm):
    """The Coxeter matrix -G^T G^{-1} of ``f``, from its dense Gram matrix."""
    return coxeter_from_gram(f.gram_upper, unitriangular_inverse(f.gram_upper))


def fraction_det(m):
    """Gaussian elimination over Fraction with row swaps, the determinant
    oracle."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


# ---------------------------------------------------------------------------
# integer polynomials, lowest degree first; the zero polynomial is (0,)
# ---------------------------------------------------------------------------

def poly_normalize(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (0,)


def poly_degree(p):
    """Degree, with the convention deg(0) = -1."""
    p = poly_normalize(p)
    return -1 if p == (0,) else len(p) - 1


def poly_mul(a, b):
    if a == (0,) or b == (0,):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_normalize(out)


def poly_pow(a, k):
    if k < 0:
        raise ValueError("negative polynomial power")
    result = (1,)
    for _ in range(k):
        result = poly_mul(result, a)
    return result


def poly_divmod(a, b):
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


def v_power_minus_one(t):
    """The polynomial v^t - 1."""
    if t < 1:
        raise ValueError("exponent must be >= 1")
    return (-1,) + (0,) * (t - 1) + (1,)


def long_division_cycle_type(p, c):
    """The cycle type of a Coxeter polynomial of corank c by long division:
    (v-1)^{c-1} divided out as one power, then the maximal (v^t - 1)
    extracted with t scanned down from the full degree for every part.
    The oracle of :func:`invariants.cycle_type_from_cox_poly`, which
    accepts and rejects the same polynomials with the same messages, and
    rejects the cycle type (1) besides."""
    if c < 0:
        raise ValueError("corank must be nonnegative")
    p = poly_normalize(p)
    if poly_degree(p) < 1:
        raise ValueError("a Coxeter polynomial has positive degree")
    if c >= 1:
        divides = c - 1 <= poly_degree(p)
        if divides:
            quotient, rem = poly_divmod(p, poly_pow((-1, 1), c - 1))
            divides = rem == (0,)
        if not divides:
            raise ValueError(
                f"not a type-A Coxeter polynomial for corank {c}: "
                f"(v-1)^{c - 1} does not divide it"
            )
        p = quotient
    else:
        p = poly_normalize(tuple(a - b for a, b in zip((0,) + p, p + (0,))))
    parts = []
    while poly_degree(p) > 0:
        for t in range(poly_degree(p), 0, -1):
            quotient, rem = poly_divmod(p, v_power_minus_one(t))
            if rem == (0,):
                parts.append(t)
                p = quotient
                break
        else:
            raise ValueError(
                f"not a type-A Coxeter polynomial for corank {c}: "
                "no (v^t - 1) factor divides the remainder"
            )
    if p != (1,) or not parts:
        raise ValueError(
            f"not a type-A Coxeter polynomial for corank {c}: no admissible "
            "factorization"
        )
    excess = c - (len(parts) - 1)
    if excess < 0 or excess % 2:
        raise ValueError(
            f"not a type-A Coxeter polynomial for corank {c}: its cycle type "
            f"has length {len(parts)}, and c - (l - 1) = {excess} is not even "
            "and non-negative"
        )
    return Partition(tuple(sorted(parts, reverse=True)))
