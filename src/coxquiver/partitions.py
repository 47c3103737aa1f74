"""Integer partitions, factored Coxeter polynomials, and length-filtered
partition families.

A partition of m >= 1 is a non-increasing tuple of positive integers summing
to m.  Any permutation with cycle type pi has the characteristic polynomial
prod_a (v^{pi_a} - 1), the factored polynomial with unit exponent 0.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import FrozenRecord
from .linalg import IntPoly, PermutationMap, cycle_decomposition


class Partition(FrozenRecord):
    """Non-increasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        if not parts:
            raise ValueError("a partition has at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    @property
    def m(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class FactoredCoxPoly(FrozenRecord):
    """A Coxeter polynomial kept in factored form.

    The internal representation is the nu-form

        (v-1)^nu_exponent * prod_a nu_{pi_a}(v),

    which has a nonnegative exponent for every corank (including corank 0,
    where the (v^k - 1)-form would need exponent -1 on (v-1)).  The
    equivalent (v^k - 1)-form is

        (v-1)^unit_exponent * prod_a (v^{pi_a} - 1),

    with ``unit_exponent = nu_exponent - len(cycle_parts)``.
    """

    __slots__ = ("nu_exponent", "cycle_parts")

    def __init__(self, nu_exponent: int, cycle_parts: tuple[int, ...]) -> None:
        if nu_exponent < 0:
            raise ValueError("nu-form exponent must be nonnegative")
        Partition(cycle_parts)  # validates ordering and positivity
        object.__setattr__(self, "nu_exponent", nu_exponent)
        object.__setattr__(self, "cycle_parts", cycle_parts)

    @property
    def unit_exponent(self) -> int:
        """Exponent of (v-1) in the (v^k - 1)-form; -1 exactly for corank 0."""
        return self.nu_exponent - len(self.cycle_parts)

    def partition(self) -> Partition:
        return Partition(self.cycle_parts)

    def expand(self) -> IntPoly:
        """Dense integer coefficients, lowest degree first."""
        return _expand_nu_form(self.nu_exponent, self.cycle_parts)

    def to_json(self) -> dict:
        return {
            "unit_exponent": self.unit_exponent,
            "cycle_parts": list(self.cycle_parts),
            "dense": list(self.expand()),
        }


@lru_cache(maxsize=4096)
def _expand_nu_form(nu_exponent: int, parts: tuple[int, ...]) -> IntPoly:
    """(v-1)^e from its binomial coefficients, then one running sum per
    part: times nu_p(v) = 1 + v + ... + v^(p-1), each coefficient is the
    sum of p consecutive ones.  O(e + degree * length) additions, where
    schoolbook products would take O(degree^2)."""
    e = nu_exponent
    term = -1 if e % 2 else 1
    out = [term]
    for i in range(e):
        # C(e, i + 1) (-1)^(e - i - 1) from C(e, i) (-1)^(e - i), exactly
        term = -term * (e - i) // (i + 1)
        out.append(term)
    for p in parts:
        size = len(out)
        window = 0
        product = []
        for k in range(size + p - 1):
            if k < size:
                window += out[k]
            if k >= p:
                window -= out[k - p]
            product.append(window)
        out = product
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_by_length(m: int, l: int) -> tuple[Partition, ...]:
    """All partitions of m with exactly l parts, lexicographically
    descending.

    The first is (m - l + 1, 1, ..., 1).  Each next one lowers by 1 the
    last part that can be lowered to a value v such that the k parts after
    it can hold their sum plus 1 as k values of at most v, and refills those
    parts greedily, each with the largest value that leaves 1 for every part
    after it.  The prefix is kept and the refilled suffix is the largest
    possible, so no partition lies between the two in lexicographic order.
    """
    if m < 1 or l < 1:
        raise ValueError("partitions_by_length requires m >= 1 and l >= 1")
    if l > m:
        return ()
    parts = [m - l + 1] + [1] * (l - 1)
    out = []
    while True:
        out.append(Partition(tuple(parts)))
        tail = 0  # sum of parts[i:], the parts after the one at i - 1
        for i in range(l - 1, 0, -1):
            tail += parts[i]
            v = parts[i - 1] - 1
            if tail + 1 <= (l - i) * v:
                break
        else:
            return tuple(out)
        parts[i - 1] = v
        rest = tail + 1
        for j in range(i, l):
            parts[j] = min(v, rest - (l - 1 - j))
            rest -= parts[j]


def admits_length(c: int, l: int) -> bool:
    """Whether corank c admits a cycle type of length l: c - (l - 1) is even
    and non-negative."""
    excess = c - (l - 1)
    return excess >= 0 and excess % 2 == 0


def admissible_lengths(c: int, m: int) -> tuple[int, ...]:
    """Lengths 1 <= l <= m that corank c admits, descending."""
    if m < 1 or c < 0:
        raise ValueError("admissible_lengths requires m >= 1 and c >= 0")
    return tuple([l for l in range(min(c + 1, m), 0, -1) if admits_length(c, l)])


def part1c(c: int, m: int) -> tuple[Partition, ...]:
    """Partitions of m of a length that corank c admits, ordered
    lexicographically descending."""
    out: list[Partition] = []
    for l in admissible_lengths(c, m):
        out.extend(partitions_by_length(m, l))
    return tuple(sorted(out, key=lambda p: p.parts, reverse=True))


def cycle_type_of_permutation(p: PermutationMap) -> Partition:
    """Orbit sizes of a permutation, sorted non-increasingly."""
    sizes = sorted((len(c) for c in cycle_decomposition(p)), reverse=True)
    return Partition(tuple(sizes))
