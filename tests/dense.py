"""The tests' dense constructions of unit forms and quiver matrices, and
the oracles built on them."""

from fractions import Fraction
from operator import add

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


def form_connected(f: UnitForm) -> bool:
    """Connectivity of the graph on variables with edges at nonzero Gram
    entries."""
    return len(spanning_tree(f.n, ((i, j) for i, j, _ in f.upper))) == f.n - 1


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
