"""Headline invariants of realizable unit forms: cycle type, factored
Coxeter polynomial, (reduced) Coxeter numbers, spectral multiplicities, the
inverse computation from a Coxeter polynomial, and the enumeration of all
attainable Coxeter polynomials for given size and corank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linalg import (
    IntMatrix,
    IntPoly,
    identity,
    mat_mul,
    mat_sub,
    poly_degree,
    poly_divmod,
    poly_normalize,
    poly_pow,
    v_power_minus_one,
    zero_matrix,
)
from .partitions import (
    FactoredCoxPoly,
    Partition,
    admissible_lengths,
    partitions_by_length,
)
from .quiver import cycle_type_of_quiver
from .realize import realize_quiver
from .unitform import UnitForm, coxeter_matrix


@dataclass(frozen=True)
class CoxeterNumbers:
    """Coxeter number (None marks infinity) and reduced Coxeter number."""

    coxeter_number: int | None
    reduced_coxeter_number: int

    def __post_init__(self) -> None:
        if self.reduced_coxeter_number < 1:
            raise ValueError("reduced Coxeter number must be positive")
        if (
            self.coxeter_number is not None
            and self.coxeter_number != self.reduced_coxeter_number
        ):
            raise ValueError("a finite Coxeter number equals the reduced one")

    def to_json(self) -> dict:
        return {
            "coxeter_number": self.coxeter_number,
            "reduced_coxeter_number": self.reduced_coxeter_number,
        }


def cycle_type_of_form(f: UnitForm) -> Partition:
    """Cycle type of any quiver realization of the form.

    Well defined: all realizations of one form share their cycle type.
    Raises NotDynkinTypeA when no realization exists.
    """
    return cycle_type_of_quiver(realize_quiver(f))


def cycle_type_and_corank(f: UnitForm) -> tuple[Partition, int]:
    """Cycle type and corank from one realization: a connected quiver on m
    vertices realizing n variables has corank n - m + 1."""
    q = realize_quiver(f)
    return cycle_type_of_quiver(q), f.n - q.m + 1


def _lcm(values: tuple[int, ...]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def coxeter_numbers_of_cycle_type(ct: Partition) -> CoxeterNumbers:
    """Finite Coxeter number pi_1 exactly when the cycle type has a single
    part; the reduced Coxeter number is the lcm of the parts."""
    finite = ct.parts[0] if ct.length == 1 else None
    return CoxeterNumbers(finite, _lcm(ct.parts))


def coxeter_numbers(f: UnitForm) -> CoxeterNumbers:
    return coxeter_numbers_of_cycle_type(cycle_type_of_form(f))


def coxeter_polynomial(f: UnitForm) -> FactoredCoxPoly:
    """Factored Coxeter polynomial (v-1)^{c-1} prod_a (v^{pi_a} - 1), stored
    in the nu-form so corank 0 has a nonnegative exponent."""
    return coxeter_polynomial_of_cycle_type(*cycle_type_and_corank(f))


def coxeter_polynomial_of_cycle_type(ct: Partition, c: int) -> FactoredCoxPoly:
    if c < 0:
        raise ValueError("corank must be nonnegative")
    return FactoredCoxPoly(c + ct.length - 1, ct.parts)


def spectral_multiplicity(f: UnitForm, d: int) -> int:
    """Multiplicity of a primitive d-th root of unity in the Coxeter
    spectrum: for d > 1 the number of parts divisible by d, for d = 1 the
    corank plus length minus one."""
    if d < 1:
        raise ValueError("root order must be >= 1")
    ct, c = cycle_type_and_corank(f)
    if d == 1:
        return c + ct.length - 1
    return sum(1 for p in ct.parts if p % d == 0)


def cycle_type_from_cox_poly(p: IntPoly, c: int) -> Partition:
    """Recover the cycle type from a Coxeter polynomial of corank c.

    Divides out (v-1)^{c-1} (multiplies by (v-1) once when c = 0), then
    repeatedly extracts the maximal t with (v^t - 1) dividing the remainder.
    Raises ValueError when the polynomial is not of the admissible shape.
    """
    if c < 0:
        raise ValueError("corank must be nonnegative")
    p = poly_normalize(p)
    if poly_degree(p) < 1:
        raise ValueError("a Coxeter polynomial has positive degree")
    if c >= 1:
        quotient, rem = poly_divmod(p, poly_pow((-1, 1), c - 1))
        if rem != (0,):
            raise ValueError(
                f"not a type-A Coxeter polynomial for corank {c}: "
                f"(v-1)^{c - 1} does not divide it"
            )
        p = quotient
    else:
        p = poly_normalize(tuple(
            a - b
            for a, b in zip((0,) + p, p + (0,))
        ))  # multiply by (v - 1): coefficients shift minus original
    parts: list[int] = []
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
    return Partition(tuple(sorted(parts, reverse=True)))


def enumerate_coxeter_polynomials(n: int, c: int) -> tuple[FactoredCoxPoly, ...]:
    """All Coxeter polynomials of connected non-negative unit forms with n
    variables and corank c, ordered by descending cycle type."""
    if n < 1:
        raise ValueError("need at least one variable")
    if not 0 <= c < n:
        raise ValueError("corank must satisfy 0 <= c < n")
    m = n - c + 1
    out = []
    for length in admissible_lengths(c, m):
        for pi in partitions_by_length(m, length):
            out.append(FactoredCoxPoly(c + pi.length - 1, pi.parts))
    out.sort(key=lambda f: f.cycle_parts, reverse=True)
    return tuple(out)


def _is_nilpotent(m: IntMatrix) -> bool:
    n = len(m)
    if n == 0:
        return True
    power = m
    k = 1
    while k < n:
        power = mat_mul(power, power)
        k *= 2
    return power == zero_matrix(n, n)


def verify_reduced_coxeter_number(f: UnitForm) -> bool:
    """Cross-check the reduced Coxeter number against exact matrix powering.

    Computes Phi^k for k = 1..lcm(cycle type), finds the minimal k with
    Id - Phi^k nilpotent, and compares with the combinatorial answer; also
    checks that Phi^k = Id happens within that range exactly for cycle types
    with one part, at k = pi_1.
    """
    ct = cycle_type_of_form(f)
    numbers = coxeter_numbers_of_cycle_type(ct)
    target = numbers.reduced_coxeter_number
    phi = coxeter_matrix(f)
    ident = identity(f.n)
    power = ident
    minimal_nilpotent = None
    first_identity = None
    for k in range(1, target + 1):
        power = mat_mul(power, phi)
        if minimal_nilpotent is None and _is_nilpotent(mat_sub(ident, power)):
            minimal_nilpotent = k
        if first_identity is None and power == ident:
            first_identity = k
    if minimal_nilpotent != target:
        return False
    if numbers.coxeter_number is None:
        return first_identity is None
    return first_identity == numbers.coxeter_number

