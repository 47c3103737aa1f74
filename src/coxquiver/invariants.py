"""Headline invariants of realizable unit forms: cycle type, factored
Coxeter polynomial, (reduced) Coxeter numbers, spectral multiplicities, the
inverse computation from a Coxeter polynomial, and the enumeration of all
attainable Coxeter polynomials for given size and corank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import (
    IntMatrix,
    IntPoly,
    char_poly,
    identity,
    is_nilpotent,
    mat_pow,
    mat_sub,
    poly_degree,
    poly_divmod,
    poly_normalize,
    poly_pow,
    v_power_minus_one,
)
from .partitions import FactoredCoxPoly, Partition, part1c
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


def coxeter_numbers_of_cycle_type(ct: Partition) -> CoxeterNumbers:
    """Finite Coxeter number pi_1 exactly when the cycle type has a single
    part; the reduced Coxeter number is the lcm of the parts."""
    finite = ct.parts[0] if ct.length == 1 else None
    return CoxeterNumbers(finite, lcm(*ct.parts))


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
    spectrum of the form."""
    return spectral_multiplicity_of_cycle_type(*cycle_type_and_corank(f), d)


def spectral_multiplicity_of_cycle_type(ct: Partition, c: int, d: int) -> int:
    """Multiplicity of a primitive d-th root of unity in the Coxeter
    spectrum for cycle type ct and corank c: for d > 1 the number of parts
    divisible by d, for d = 1 the corank plus length minus one."""
    if d < 1:
        raise ValueError("root order must be >= 1")
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
        # (v-1)^{c-1} cannot divide a polynomial of smaller degree; checking
        # that first keeps a huge c from building a huge power
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
    return tuple(coxeter_polynomial_of_cycle_type(pi, c)
                 for pi in part1c(c, n - c + 1))


def _power_sums(coeffs_low: IntPoly, upto: int) -> list[int]:
    """Traces of matrix powers 1..upto from the characteristic polynomial,
    by Newton's identities (exact)."""
    n = len(coeffs_low) - 1
    c = [coeffs_low[n - i] for i in range(n + 1)]  # c[i] multiplies v^{n-i}
    sums = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = k * c[k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc += c[i] * sums[k - i]
        sums[k] = -acc
    return sums


def coxeter_number_violations(phi: IntMatrix, poly: IntPoly,
                              ct: Partition) -> list[str]:
    """The Coxeter-number laws that the Coxeter matrix ``phi``, with
    characteristic polynomial ``poly``, breaks for cycle type ``ct``; an
    empty list when all hold.

    The minimal k with Id - Phi^k nilpotent must be lcm(ct), and Phi^k = Id
    happens within that range exactly for cycle types with one part, first
    at k = pi_1.  Traces of powers come from ``poly``: a trace other than n
    rules out both Id - Phi^k nilpotent and Phi^k = Id, so exact matrix
    powers are needed only where the trace is n.
    """
    n = len(phi)
    numbers = coxeter_numbers_of_cycle_type(ct)
    target = numbers.reduced_coxeter_number
    sums = _power_sums(poly, target)
    ident = identity(n)
    problems = []
    first_identity = None
    for k in range(1, target):
        if sums[k] == n:
            power = mat_pow(phi, k)
            if is_nilpotent(mat_sub(ident, power)):
                problems.append(f"Id - Phi^{k} nilpotent below lcm {target}")
            if power == ident and first_identity is None:
                first_identity = k
    final_power = mat_pow(phi, target)
    if not is_nilpotent(mat_sub(ident, final_power)):
        problems.append("Id - Phi^lcm is not nilpotent")
    if first_identity is None and final_power == ident:
        first_identity = target
    if numbers.coxeter_number is not None:
        if first_identity != numbers.coxeter_number:
            problems.append(
                f"Coxeter number {first_identity} != {numbers.coxeter_number}")
    elif first_identity is not None:
        problems.append(f"Phi^{first_identity} = Id for a multi-part cycle type")
    return problems


def verify_reduced_coxeter_number(f: UnitForm) -> bool:
    """Cross-check the (reduced) Coxeter number of the form's cycle type
    against exact powers of its Coxeter matrix; see
    :func:`coxeter_number_violations`."""
    phi = coxeter_matrix(f)
    return not coxeter_number_violations(phi, char_poly(phi), cycle_type_of_form(f))

