"""The tests' one dense construction of a unit form."""

from coxquiver.unitform import UnitForm


def form_from_gram(gram) -> UnitForm:
    """The unit form whose upper triangular Gram matrix, unit diagonal, is
    ``gram``: its nonzero entries above the diagonal."""
    n = len(gram)
    if any(gram[i][i] != 1 or any(gram[i][:i]) for i in range(n)):
        raise ValueError("not an upper triangular matrix with unit diagonal")
    return UnitForm(n, [(i + 1, j + 1, gram[i][j])
                        for i in range(n) for j in range(i + 1, n) if gram[i][j]])
