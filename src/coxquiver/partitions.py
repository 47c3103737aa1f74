"""Integer partitions, their characteristic polynomials, and length-filtered
partition families.

A partition of m >= 1 is a non-increasing tuple of positive integers summing
to m.  Its characteristic polynomial is prod_a (v^{pi_a} - 1), the
characteristic polynomial of any permutation with that cycle type.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import FrozenRecord
from .linalg import (
    IntPoly,
    PermutationMap,
    cycle_decomposition,
    nu_poly,
    poly_mul,
    poly_pow,
    v_power_minus_one,
)


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

    @classmethod
    def from_json(cls, data: object) -> "Partition":
        if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
            raise ValueError("partition JSON must be a list of integers")
        return cls(tuple(data))

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

    @classmethod
    def from_unit_exponent(cls, unit_exponent: int, parts: tuple[int, ...]) -> "FactoredCoxPoly":
        if unit_exponent < 0:
            raise ValueError("unit exponent must be nonnegative")
        return cls(unit_exponent + len(parts), tuple(parts))

    @property
    def unit_exponent(self) -> int:
        """Exponent of (v-1) in the (v^k - 1)-form; -1 exactly for corank 0."""
        return self.nu_exponent - len(self.cycle_parts)

    @property
    def degree(self) -> int:
        return self.nu_exponent + sum(p - 1 for p in self.cycle_parts)

    def partition(self) -> Partition:
        return Partition(self.cycle_parts)

    def expand(self) -> IntPoly:
        """Dense integer coefficients, lowest degree first."""
        return _expand_nu_form(self.nu_exponent, self.cycle_parts)

    def expand_unit_form(self) -> IntPoly:
        """Expansion through the (v^k - 1)-form; defined only when the
        unit exponent is nonnegative."""
        e = self.unit_exponent
        if e < 0:
            raise ValueError("(v^k - 1)-form undefined: unit exponent is negative")
        out = poly_pow((-1, 1), e)
        for p in self.cycle_parts:
            out = poly_mul(out, v_power_minus_one(p))
        return out

    def to_json(self) -> dict:
        return {
            "unit_exponent": self.unit_exponent,
            "cycle_parts": list(self.cycle_parts),
            "dense": list(self.expand()),
        }

    @classmethod
    def from_json(cls, data: object) -> "FactoredCoxPoly":
        if not isinstance(data, dict):
            raise ValueError("factored polynomial JSON must be an object")
        allowed = {"unit_exponent", "cycle_parts", "dense"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown keys in factored polynomial JSON: {sorted(unknown)}")
        try:
            unit_exponent = data["unit_exponent"]
            cycle_parts = tuple(data["cycle_parts"])
        except KeyError as exc:
            raise ValueError(f"missing key in factored polynomial JSON: {exc}") from exc
        poly = cls(unit_exponent + len(cycle_parts), cycle_parts)
        if "dense" in data and list(data["dense"]) != list(poly.expand()):
            raise ValueError("dense coefficients inconsistent with factored form")
        return poly


@lru_cache(maxsize=4096)
def _expand_nu_form(nu_exponent: int, parts: tuple[int, ...]) -> IntPoly:
    out = poly_pow((-1, 1), nu_exponent)
    for p in parts:
        out = poly_mul(out, nu_poly(p))
    return out


def char_poly_of_partition(p: Partition) -> FactoredCoxPoly:
    """prod_a (v^{pi_a} - 1) as a factored polynomial."""
    return FactoredCoxPoly.from_unit_exponent(0, p.parts)


@lru_cache(maxsize=None)
def partitions_by_length(m: int, l: int) -> tuple[Partition, ...]:
    """All partitions of m with exactly l parts.

    Recursive construction: partitions ending in 1 come from (m-1, l-1) by
    appending a trailing 1, partitions with all parts > 1 come from (m-l, l)
    by adding 1 to every part.  Results are ordered lexicographically
    descending.
    """
    if m < 1 or l < 1:
        raise ValueError("partitions_by_length requires m >= 1 and l >= 1")
    if l == 1:
        return (Partition((m,)),)
    if l == m:
        return (Partition((1,) * m),)
    if l > m:
        return ()
    with_trailing_one = [
        Partition(p.parts + (1,)) for p in partitions_by_length(m - 1, l - 1)
    ]
    all_bigger = [
        Partition(tuple(x + 1 for x in p.parts))
        for p in partitions_by_length(m - l, l)
    ]
    merged = sorted(with_trailing_one + all_bigger, key=lambda p: p.parts, reverse=True)
    return tuple(merged)


def admissible_lengths(c: int, m: int) -> tuple[int, ...]:
    """Lengths l >= 1 with 0 <= c - (l - 1) even, capped at m, descending."""
    if m < 1 or c < 0:
        raise ValueError("admissible_lengths requires m >= 1 and c >= 0")
    lengths = []
    l = c + 1
    while l >= 1:
        if l <= m:
            lengths.append(l)
        l -= 2
    return tuple(lengths)


def part1c(c: int, m: int) -> tuple[Partition, ...]:
    """Partitions of m whose number of parts l satisfies
    0 <= c - (l - 1) = 0 mod 2, ordered lexicographically descending."""
    out: list[Partition] = []
    for l in admissible_lengths(c, m):
        out.extend(partitions_by_length(m, l))
    return tuple(sorted(out, key=lambda p: p.parts, reverse=True))


def cycle_type_of_permutation(p: PermutationMap) -> Partition:
    """Orbit sizes of a permutation, sorted non-increasingly."""
    sizes = sorted((len(c) for c in cycle_decomposition(p)), reverse=True)
    return Partition(tuple(sizes))
