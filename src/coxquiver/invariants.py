"""Headline invariants of realizable unit forms: cycle type, factored
Coxeter polynomial, (reduced) Coxeter numbers, spectral multiplicities, the
inverse computation from a Coxeter polynomial, and the enumeration of all
attainable Coxeter polynomials for given size and corank.
"""

from __future__ import annotations

from math import lcm

from ._record import FrozenRecord
from .linalg import (
    IntMatrix,
    IntPoly,
    divide_by_v_power_minus_one,
    identity,
    is_nilpotent,
    mat_mul,
    mat_sub,
)
from .partitions import FactoredCoxPoly, Partition, admits_length, part1c
from .quiver import cycle_type_of_quiver
from .realize import realize_quiver
from .unitform import UnitForm


class CoxeterNumbers(FrozenRecord):
    """Coxeter number (None marks infinity) and reduced Coxeter number."""

    __slots__ = ("coxeter_number", "reduced_coxeter_number")

    def __init__(self, coxeter_number: int | None, reduced_coxeter_number: int) -> None:
        if reduced_coxeter_number < 1:
            raise ValueError("reduced Coxeter number must be positive")
        if coxeter_number is not None and coxeter_number != reduced_coxeter_number:
            raise ValueError("a finite Coxeter number equals the reduced one")
        object.__setattr__(self, "coxeter_number", coxeter_number)
        object.__setattr__(self, "reduced_coxeter_number", reduced_coxeter_number)

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
    repeatedly extracts the maximal t with (v^t - 1) dividing the remainder,
    each by :func:`linalg.divide_by_v_power_minus_one`.

    * (v-1)^k divides a nonzero p of degree d only for k <= d, so at most
      d + 1 divisions by v - 1 are tried, however large c is: when
      c - 1 > d, the last of them fails.
    * The scan for the next t starts at the previous part, not at the
      degree: if (v^t - 1) divided the quotient after the largest t_0
      dividing p was removed, (v^t - 1)(v^{t_0} - 1) would divide p, so
      t <= t_0.  The parts come out non-increasing, as the maximal ones.

    Raises ValueError when the polynomial is not of the admissible shape,
    when the recovered cycle type has a length l that corank c does not
    admit (:func:`partitions.admits_length`), or when it is (1), the cycle
    type of a single vertex, which has no arrow and so realizes no unit
    form.
    """
    if c < 0:
        raise ValueError("corank must be nonnegative")
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    p = tuple(p)
    if len(p) < 2:
        raise ValueError("a Coxeter polynomial has positive degree")
    if c >= 1:
        for _ in range(min(c - 1, len(p))):
            p = divide_by_v_power_minus_one(p, 1)
            if p is None:
                raise ValueError(
                    f"not a type-A Coxeter polynomial for corank {c}: "
                    f"(v-1)^{c - 1} does not divide it"
                )
    else:
        # multiply by (v - 1): coefficients shift minus original
        p = tuple([a - b for a, b in zip((0,) + p, p + (0,))])
    parts: list[int] = []
    while len(p) > 1:
        for t in range(min(parts[-1] if parts else len(p), len(p) - 1), 0, -1):
            quotient = divide_by_v_power_minus_one(p, t)
            if quotient is not None:
                break
        else:
            raise ValueError(
                f"not a type-A Coxeter polynomial for corank {c}: "
                "no (v^t - 1) factor divides the remainder"
            )
        parts.append(t)
        p = quotient
    if p != (1,) or not parts:
        raise ValueError(
            f"not a type-A Coxeter polynomial for corank {c}: no admissible "
            "factorization"
        )
    if not admits_length(c, len(parts)):
        raise ValueError(
            f"not a type-A Coxeter polynomial for corank {c}: its cycle type "
            f"has length {len(parts)}, and c - (l - 1) = {c - len(parts) + 1} "
            "is not even and non-negative"
        )
    if parts == [1]:
        raise ValueError(
            f"not a type-A Coxeter polynomial for corank {c}: its cycle type "
            "(1) is that of a single vertex, which carries no arrow"
        )
    return Partition(tuple(parts))


def enumerate_coxeter_polynomials(n: int, c: int) -> tuple[FactoredCoxPoly, ...]:
    """All Coxeter polynomials of connected non-negative unit forms with n
    variables and corank c, ordered by descending cycle type."""
    if n < 1:
        raise ValueError("need at least one variable")
    if not 0 <= c < n:
        raise ValueError("corank must satisfy 0 <= c < n")
    return tuple(coxeter_polynomial_of_cycle_type(pi, c)
                 for pi in part1c(c, n - c + 1))


def coxeter_matrix_violations(phi: IntMatrix,
                              poly: FactoredCoxPoly) -> tuple[list[str], list[str]]:
    """What the Coxeter matrix ``phi`` breaks of the claimed Coxeter
    polynomial ``poly`` and of the Coxeter-number laws of its cycle type,
    as two lists of problems, each empty when all holds, from one walk
    Phi, Phi^2, ..., Phi^L, one product each, for L the lcm of the parts.

    The polynomial, by traces.  Let u be the unit exponent of P = poly.
    Every root of P is an L-th root of unity, its degree is u + sum_a pi_a,
    and the k-th power sum of its roots is p_k = u + sum_{pi_a | k} pi_a.
    If Id - Phi^L is nilpotent, every eigenvalue of Phi is an L-th root of
    unity, and tr Phi^k for k = 0 .. L - 1 is the discrete Fourier
    transform of the eigenvalue multiplicities over the L-th roots of
    unity, which is invertible.  So char Phi = P exactly when deg P = n,
    tr Phi^k = p_k for 1 <= k < L and Id - Phi^L is nilpotent; conversely
    char Phi = P makes Id - Phi^L nilpotent.  No higher power is needed.

    The laws.  The minimal k with Id - Phi^k nilpotent must be L, and
    Phi^k = Id happens within that range exactly for cycle types with one
    part, first at k = pi_1.  A nilpotent matrix has trace 0, so a trace of
    Phi^k other than n rules out both Id - Phi^k nilpotent and Phi^k = Id,
    and the nilpotency test runs only where the trace is n.
    """
    n = len(phi)
    parts, u = poly.cycle_parts, poly.unit_exponent
    numbers = coxeter_numbers_of_cycle_type(poly.partition())
    target = numbers.reduced_coxeter_number
    matches = u + sum(parts) == n
    ident = identity(n)
    problems = []
    first_identity = None
    power = phi
    for k in range(1, target + 1):
        if k > 1:
            power = mat_mul(power, phi)
        trace = sum(power[i][i] for i in range(n))
        if k < target and trace != u + sum(p for p in parts if k % p == 0):
            matches = False
        nilpotent = trace == n and is_nilpotent(mat_sub(ident, power))
        if nilpotent and k < target:
            problems.append(f"Id - Phi^{k} nilpotent below lcm {target}")
        if nilpotent and first_identity is None and power == ident:
            first_identity = k
    if not nilpotent:
        problems.append("Id - Phi^lcm is not nilpotent")
    if numbers.coxeter_number is not None:
        if first_identity != numbers.coxeter_number:
            problems.append(
                f"Coxeter number {first_identity} != {numbers.coxeter_number}")
    elif first_identity is not None:
        problems.append(f"Phi^{first_identity} = Id for a multi-part cycle type")
    polynomial = ([] if matches and nilpotent else
                  ["factored expansion != Coxeter characteristic polynomial"])
    return polynomial, problems
