"""Exhaustive verification sweeps over small connected quivers.

Phase 1 walks every connected loop-less quiver in range and checks the
matrix identities tying the incidence matrix, triangular Gram matrix,
Laplace matrix, Coxeter matrix and Coxeter-Laplace matrix together, plus
the walk-based constructions; it collects the distinct unit forms seen.
Phase 2 runs the form-level checks (polynomial identities, Coxeter numbers,
realization round trips, spectral multiplicities) once per distinct form.

Every check goes through the library's own functions (Coxeter matrices,
Coxeter-number laws, spectral multiplicities, the realizer), so a clean
sweep vouches for the code that users call.

Both phases can fan out over worker processes; each work unit fills its own
report, and the reports are merged in submission order, so aggregation is
deterministic.  The sweep is the engine behind the ``verify`` CLI verb and
the acceptance tests.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb, isqrt

from .errors import InvariantViolation
from .invariants import (
    coxeter_number_violations,
    coxeter_polynomial_of_cycle_type,
    cycle_type_from_cox_poly,
    spectral_multiplicity_of_cycle_type,
)
from .linalg import (
    char_poly,
    coxeter_from_gram,
    identity,
    mat_mul,
    mat_sub,
    permutation_matrix,
    poly_divmod,
    rational_rank,
    transpose,
    unitriangular_inverse,
    v_power_minus_one,
)
from .partitions import Partition, cycle_type_of_permutation, part1c
from .quiver import (
    Quiver,
    incidence_matrix,
    inverse_quiver,
    iter_connected_quivers,
    laplace,
    opposite,
    ordered_pairs,
    relabel_vertices,
    triangular_gram,
    vertex_permutation,
)
from .realize import realize
from .unitform import UnitForm, coxeter_matrix, symmetric_gram

_SAMPLE_CAP = 20
_SPLIT_THRESHOLD = 20000

CHECKS = (
    "matrix_identities",
    "laplace_kernel",
    "cycle_type_membership",
    "polynomial_factorization",
    "coxeter_numbers",
    "realization_roundtrip",
    "polynomial_roundtrip",
    "spectral_multiplicities",
    "congruence_invariance",
)


@dataclass
class SweepReport:
    max_vertices: int
    max_arrows: int
    quiver_count: int = 0
    form_count: int = 0
    strategy_counts: dict[str, int] = field(default_factory=dict)
    failure_counts: dict[str, int] = field(default_factory=lambda: {c: 0 for c in CHECKS})
    failure_samples: dict[str, list[str]] = field(default_factory=lambda: {c: [] for c in CHECKS})

    def record(self, check: str, message: str) -> None:
        self.failure_counts[check] += 1
        samples = self.failure_samples[check]
        if len(samples) < _SAMPLE_CAP:
            samples.append(message)

    def merge(self, other: SweepReport) -> None:
        """Add the counts of ``other``, the report of a later part of the
        sweep; samples are kept in order up to the cap per check."""
        self.quiver_count += other.quiver_count
        self.form_count += other.form_count
        for name, value in other.strategy_counts.items():
            self.strategy_counts[name] = self.strategy_counts.get(name, 0) + value
        for check in CHECKS:
            self.failure_counts[check] += other.failure_counts[check]
            kept = self.failure_samples[check]
            kept.extend(other.failure_samples[check][:_SAMPLE_CAP - len(kept)])

    @property
    def total_failures(self) -> int:
        return sum(self.failure_counts.values())

    def ok(self) -> bool:
        return self.total_failures == 0

    def to_json(self) -> dict:
        return {
            "max_vertices": self.max_vertices,
            "max_arrows": self.max_arrows,
            "quiver_count": self.quiver_count,
            "form_count": self.form_count,
            "strategy_counts": dict(sorted(self.strategy_counts.items())),
            "failure_counts": self.failure_counts,
            "failure_samples": self.failure_samples,
        }


def _encode_gram(gram_tri) -> bytes:
    """Triangular Gram matrices of quivers have entries in [-2, 2]."""
    return bytes(x + 2 for row in gram_tri for x in row)


def _decode_gram(blob: bytes):
    n = isqrt(len(blob))
    it = iter(blob)
    return tuple(tuple(next(it) - 2 for _ in range(n)) for _ in range(n))


# ---------------------------------------------------------------------------
# phase 1: per-quiver identities
# ---------------------------------------------------------------------------

def _check_quiver(q: Quiver, rec, admissible: frozenset) -> tuple | None:
    """All matrix identities for one connected quiver.  Returns the pair
    (triangular Gram, cycle type parts), or None when the walk machinery
    itself failed."""
    m, n = q.m, q.n
    label = f"m={m} arrows={q.arrows}"

    inc = incidence_matrix(q)
    inc_t = transpose(inc)
    gram_tri = triangular_gram(q)

    # I^T I = G + G^T (matrix product against the combinatorial Gram matrix)
    if mat_mul(inc_t, inc) != symmetric_gram(UnitForm(n, gram_tri)):
        rec("matrix_identities", f"{label}: I^T I != G + G^T")

    # L = I I^T = degree matrix - adjacency; corank 1 with all-ones kernel
    lap = laplace(q)
    if mat_mul(inc, inc_t) != lap:
        rec("matrix_identities", f"{label}: I I^T != Laplace matrix")
    if any(sum(row) != 0 for row in lap):
        rec("laplace_kernel", f"{label}: all-ones vector not in the kernel")
    if rational_rank(lap) != m - 1:
        rec("laplace_kernel", f"{label}: Laplace rank != m - 1")

    # I(Q^-1) by walks against I(Q) G^-1
    gram_inv = unitriangular_inverse(gram_tri)
    inc_inverse = mat_mul(inc, gram_inv)
    try:
        qinv = inverse_quiver(q)
    except InvariantViolation as exc:
        rec("matrix_identities", f"{label}: {exc}")
        return None
    if incidence_matrix(qinv) != inc_inverse:
        rec("matrix_identities", f"{label}: I(Q^-1) != I(Q) G^-1")

    # Coxeter-Laplace matrix Id - I(Q^-1) I^T equals the walk permutation matrix
    try:
        xi = vertex_permutation(q, allow_disconnected=True)
    except InvariantViolation as exc:
        rec("matrix_identities", f"{label}: {exc}")
        return None
    if mat_sub(identity(m), mat_mul(inc_inverse, inc_t)) != permutation_matrix(xi):
        rec("matrix_identities",
            f"{label}: Coxeter-Laplace matrix != walk permutation matrix")

    # Coxeter matrix both ways: Id - I^T I(Q^-1) vs -G^T G^-1
    if (mat_sub(identity(n), mat_mul(inc_t, inc_inverse))
            != coxeter_from_gram(gram_tri, gram_inv)):
        rec("matrix_identities", f"{label}: the two Coxeter matrix formulas disagree")

    # cycle type membership for corank n - m + 1
    ct = cycle_type_of_permutation(xi)
    if ct not in admissible:
        rec("cycle_type_membership",
            f"{label}: {ct} not admissible for corank {n - m + 1}")

    return gram_tri, ct.parts


def _check_congruence(rec, q: Quiver, rng: random.Random) -> None:
    """Cycle type invariance under vertex relabeling and orientation flip."""
    label = f"m={q.m} arrows={q.arrows}"
    ct = cycle_type_of_permutation(vertex_permutation(q))
    rho = list(range(1, q.m + 1))
    rng.shuffle(rho)
    relabeled = relabel_vertices(q, tuple(rho))
    if triangular_gram(relabeled) != triangular_gram(q):
        rec("congruence_invariance",
            f"{label}: relabeling changed the triangular Gram matrix")
    if cycle_type_of_permutation(vertex_permutation(relabeled)) != ct:
        rec("congruence_invariance", f"{label}: relabeling changed the cycle type")
    flipped = opposite(q)
    if triangular_gram(flipped) != triangular_gram(q):
        rec("congruence_invariance",
            f"{label}: opposite quiver changed the triangular Gram matrix")
    if cycle_type_of_permutation(vertex_permutation(flipped)) != ct:
        rec("congruence_invariance", f"{label}: opposite quiver changed the cycle type")


def _phase1_worker(args: tuple) -> tuple[SweepReport, dict]:
    m, n, pair_index, seed, sample_rate = args
    report = SweepReport(m, n)
    rec = report.record
    admissible = frozenset(part1c(n - m + 1, m))
    first_pair = None if pair_index < 0 else ordered_pairs(m)[pair_index]
    rng = random.Random(f"{seed}:{m}:{n}:{pair_index}") if seed is not None else None
    forms: dict[bytes, tuple[int, ...]] = {}
    for q in iter_connected_quivers(m, n, first_pair):
        report.quiver_count += 1
        outcome = _check_quiver(q, rec, admissible)
        if outcome is None:
            continue
        gram_tri, ct_parts = outcome
        key = _encode_gram(gram_tri)
        known = forms.get(key)
        if known is None:
            forms[key] = ct_parts
        elif known != ct_parts:
            rec("cycle_type_membership",
                f"m={m} arrows={q.arrows}: equal forms with different cycle types")
        if rng is not None and report.quiver_count % sample_rate == 0:
            _check_congruence(rec, q, rng)
    return report, forms


# ---------------------------------------------------------------------------
# phase 2: per-form checks
# ---------------------------------------------------------------------------

def _check_form(report: SweepReport, gram_tri, ct_parts: tuple[int, ...],
                roundtrip_memo: dict, multiplicity_memo: dict) -> None:
    rec = report.record
    n = len(gram_tri)
    ct = Partition(ct_parts)
    c = n - ct.m + 1
    label = f"n={n} c={c} gram={gram_tri}"
    form = UnitForm(n, gram_tri)
    phi = coxeter_matrix(form)
    direct = char_poly(phi)

    # factored polynomial from the cycle type against the characteristic
    # polynomial of the Coxeter matrix
    dense = coxeter_polynomial_of_cycle_type(ct, c).expand()
    if dense != direct:
        rec("polynomial_factorization",
            f"{label}: factored expansion != Coxeter characteristic polynomial")

    for problem in coxeter_number_violations(phi, direct, ct):
        rec("coxeter_numbers", f"{label}: {problem}")

    # realization round trip, basis change to the canonical quiver included
    try:
        result = realize(form)
    except (ValueError, InvariantViolation) as exc:
        rec("realization_roundtrip", f"{label}: realization failed: {exc}")
    else:
        strategies = report.strategy_counts
        strategies[result.strategy] = strategies.get(result.strategy, 0) + 1
        if triangular_gram(result.quiver) != gram_tri:
            rec("realization_roundtrip",
                f"{label}: realization changed the Gram matrix")
        elif cycle_type_of_permutation(
            vertex_permutation(result.quiver, allow_disconnected=True)
        ).parts != ct_parts:
            rec("realization_roundtrip",
                f"{label}: realization changed the cycle type")

    # polynomial -> cycle type round trip (memoized per cycle type/corank)
    key = (ct_parts, c)
    if key not in roundtrip_memo:
        try:
            recovered = cycle_type_from_cox_poly(dense, c)
        except ValueError as exc:
            roundtrip_memo[key] = str(exc)
        else:
            roundtrip_memo[key] = (
                None if recovered.parts == ct_parts
                else f"recovered {recovered} from the Coxeter polynomial"
            )
    if roundtrip_memo[key] is not None:
        rec("polynomial_roundtrip", f"{label}: {roundtrip_memo[key]}")

    # spectral multiplicities of the Coxeter matrix by exact division
    # (memoized per cycle type and characteristic polynomial)
    spectrum = (ct_parts, direct)
    if spectrum not in multiplicity_memo:
        problems: list[str] = []
        if len(direct) - 1 != n:
            problems.append(f"degree {len(direct) - 1} != {n}")
        orders = {d for part in ct_parts for d in range(1, part + 1) if part % d == 0}
        for d in sorted(orders):
            count = 0
            current = direct
            divisor = v_power_minus_one(d)
            while True:
                quotient, rem = poly_divmod(current, divisor)
                if rem != (0,):
                    break
                count += 1
                current = quotient
            expected = min(spectral_multiplicity_of_cycle_type(ct, c, e)
                           for e in range(1, d + 1) if d % e == 0)
            if count != expected:
                problems.append(
                    f"(v^{d}-1) divides {count} times, expected {expected}")
        multiplicity_memo[spectrum] = problems
    for problem in multiplicity_memo[spectrum]:
        rec("spectral_multiplicities", f"{label}: {problem}")


def _phase2_worker(args: tuple) -> SweepReport:
    max_vertices, max_arrows, items = args
    report = SweepReport(max_vertices, max_arrows, form_count=len(items))
    roundtrip_memo: dict = {}
    multiplicity_memo: dict = {}
    for blob, ct_parts in items:
        _check_form(report, _decode_gram(blob), ct_parts,
                    roundtrip_memo, multiplicity_memo)
    return report


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _phase1_units(max_vertices: int, max_arrows: int, seed: int | None,
                  sample_rate: int) -> list[tuple]:
    units = []
    for m in range(2, max_vertices + 1):
        for n in range(max(m - 1, 1), max_arrows + 1):
            pairs = m * (m - 1)
            if comb(pairs + n - 1, n) > _SPLIT_THRESHOLD:
                for index in range(pairs):
                    units.append((m, n, index, seed, sample_rate))
            else:
                units.append((m, n, -1, seed, sample_rate))
    return units


def _fan_out(worker, units: list, jobs: int):
    """Results of ``worker`` on each unit, in unit order; ``jobs`` > 1 runs
    the units on a pool of worker processes that is shut down when the
    results are exhausted or abandoned."""
    if jobs == 1:
        yield from map(worker, units)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(worker, units)


def run_sweep(max_vertices: int, max_arrows: int, *,
              seed: int | None = None,
              jobs: int = 1,
              congruence_sample_rate: int = 997) -> SweepReport:
    """Check every identity over all connected loop-less quivers with at
    most ``max_vertices`` vertices and ``max_arrows`` arrows (arrow multisets
    in lexicographic order, all vertex labelings kept).

    ``seed`` enables randomized congruence-invariance spot checks.  ``jobs``
    > 1 fans both phases out over worker processes with deterministic
    aggregation.
    """
    if max_vertices < 1 or max_arrows < 0:
        raise ValueError("sweep bounds must be positive")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    report = SweepReport(max_vertices, max_arrows)
    units = _phase1_units(max_vertices, max_arrows, seed, congruence_sample_rate)
    forms: dict[bytes, tuple[int, ...]] = {}
    for part, unit_forms in _fan_out(_phase1_worker, units, jobs):
        report.merge(part)
        for key, ct_parts in unit_forms.items():
            known = forms.get(key)
            if known is None:
                forms[key] = ct_parts
            elif known != ct_parts:
                report.record("cycle_type_membership",
                              "equal forms with different cycle types across units")

    items = sorted(forms.items())
    pieces = 1 if jobs == 1 else 4 * jobs
    step = max(1, -(-len(items) // pieces))
    chunks = [(max_vertices, max_arrows, items[i:i + step])
              for i in range(0, len(items), step)]
    for part in _fan_out(_phase2_worker, chunks, jobs):
        report.merge(part)
    return report
