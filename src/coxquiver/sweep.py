"""Exhaustive verification sweeps over small connected quivers.

Phase 1 walks every connected loop-less quiver in range once, depth first
over sorted arrow multisets (``quiver.iter_connected_quivers``).  Along the
walk it keeps, per arrow prefix, independent routes to the matrices of the
paper's identities: the columns of G and G^{-1} and of I(Q) G^{-1}, from
sparse products with the incidence columns, and the Laplace matrix I I^T as
a sum of rank-one terms.  Quivers next to each other in the walk share
these entries below the first arrow that changed.  On every quiver the
library routes users call run and are compared entry by entry with them:

* ``triangular_gram`` against the G of I(Q)^T I(Q) = G + G^T;
* ``laplace`` against I I^T, then its kernel and rank;
* the prefix-product inverse arrows against the columns of I(Q) G^{-1};
* the Coxeter-Laplace builder against the permutation matrix of the
  prefix-product vertex permutation xi;
* the Coxeter matrix builder Id - I(Q)^T I(Q^{-1}) against -G^T G^{-1}
  (``coxeter_from_gram``);
* the cycle type of xi against the admissible ones for the corank.

It collects the distinct unit forms seen.
Phase 2 runs the form-level checks (polynomial identities, Coxeter numbers,
realization round trips, spectral multiplicities) once per distinct form,
through the library's Coxeter matrix, Coxeter-number laws, spectral
multiplicities and realizer, so a clean sweep vouches for the code that
users call.

An exception raised while one quiver or one form is checked is recorded as
a failure of the check that was running, labelled with that quiver or
form, and the sweep goes on.  Both phases can fan out over worker
processes; each work unit fills its own report, and the reports are merged
in submission order, so aggregation is deterministic.  The sweep is the
engine behind the ``verify`` CLI verb and the acceptance tests.
"""

from __future__ import annotations

import random
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
    IntMatrix,
    char_poly,
    coxeter_from_gram,
    permutation_matrix,
    poly_divmod,
    rational_rank,
    v_power_minus_one,
)
from .partitions import Partition, cycle_type_of_permutation, part1c
from .quiver import (
    Quiver,
    _coxeter_laplace,
    _coxeter_matrix,
    _prefix_products,
    iter_connected_quivers,
    laplace,
    opposite,
    ordered_pairs,
    relabel_vertices,
    triangular_gram,
    vertex_permutation,
)
from .realize import realize
from .unitform import UnitForm, coxeter_matrix

_SAMPLE_CAP = 20
_SPLIT_THRESHOLD = 20000
# with a seed, every this-many-th quiver of a work unit gets the congruence
# spot checks
_CONGRUENCE_SAMPLE_RATE = 997

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
    # one list of values sliced per row: tuple() of a generator resizes its
    # result
    values = [x - 2 for x in blob]
    return tuple([tuple(values[i:i + n]) for i in range(0, n * n, n)])


# ---------------------------------------------------------------------------
# phase 1: per-quiver identities
# ---------------------------------------------------------------------------

class _Prefixes:
    """The independent routes of phase 1, kept per arrow prefix of the
    depth-first walk over one (m, n) unit.

    For arrow j (from 0) of the current quiver this holds column j of G, of
    G^{-1} and of I(Q) G^{-1}, and the Laplace matrix of arrows 0..j.  Each
    depends on those arrows alone, so consecutive quivers of the walk share
    every entry below the first arrow that changed, and a new arrow costs
    one column of each and a rank-one update.
    """

    def __init__(self, m: int, n: int) -> None:
        self.m, self.n = m, n
        # incidence rows: (arrow index, sign) for each arrow at each vertex
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
        self.gram_cols: list[tuple[int, ...]] = [()] * n
        self.inv_cols: list[tuple[int, ...]] = [()] * n
        # column j of I(Q) G^{-1} as the arrow (a, b) when it is e_a - e_b,
        # else None
        self.inverse_arrows: list[tuple[int, int] | None] = [None] * n
        self.laplace: list[IntMatrix] = [()] * n
        self.built = 0
        self._zero = ((0,) * m,) * m
        self._arrow_shape = [-1] + [0] * (m - 2) + [1]

    def rebuild(self, arrows, shared: int) -> None:
        """Bring the state to ``arrows``, which share their first ``shared``
        arrows with the quiver the state was last built for."""
        start = min(shared, self.built)
        for entries in self.incident:
            while entries and entries[-1][0] >= start:
                entries.pop()
        self.built = start
        for j in range(start, self.n):
            self._extend(arrows, j)
            self.built = j + 1

    def _extend(self, arrows, j: int) -> None:
        n = self.n
        s, t = arrows[j]
        at_s, at_t = self.incident[s], self.incident[t]
        at_s.append((j, 1))
        at_t.append((j, -1))

        # column j of I^T I from the incidence rows of s and t; G + G^T = I^T I
        # puts its upper part in G and half its diagonal entry 2
        col = [0] * n
        for k, sign in at_s:
            col[k] += sign
        for k, sign in at_t:
            col[k] -= sign
        col[j] //= 2
        self.gram_cols[j] = tuple(col)

        # column j of G^{-1}: G x = e_j, so x above the diagonal is minus the
        # columns l < j of G^{-1} weighted by g_lj
        inv = [0] * n
        inv[j] = 1
        for l in range(j):
            g = col[l]
            if g:
                for k, x in enumerate(self.inv_cols[l][:l + 1]):
                    inv[k] -= g * x
        self.inv_cols[j] = tuple(inv)

        # column j of I(Q) G^{-1}, the incidence columns weighted by x
        y = [0] * (self.m + 1)
        for k in range(j + 1):
            x = inv[k]
            if x:
                sk, tk = arrows[k]
                y[sk] += x
                y[tk] -= x
        self.inverse_arrows[j] = (
            (y.index(1), y.index(-1)) if sorted(y[1:]) == self._arrow_shape else None)

        # I I^T as the sum of the outer products of the incidence columns
        rows = list(self.laplace[j - 1] if j else self._zero)
        row_s, row_t = list(rows[s - 1]), list(rows[t - 1])
        row_s[s - 1] += 1
        row_s[t - 1] -= 1
        row_t[t - 1] += 1
        row_t[s - 1] -= 1
        rows[s - 1], rows[t - 1] = tuple(row_s), tuple(row_t)
        self.laplace[j] = tuple(rows)


def _check_quiver(q: Quiver, shared: int, prefixes: _Prefixes, rec,
                  admissible: frozenset, memo: dict) -> tuple | None:
    """All matrix identities for one connected quiver, each library route
    against the independent route in ``prefixes``.  Returns the pair
    (triangular Gram, cycle type parts), or None when a route raised; the
    exception is recorded as a failure of the check that was running.

    ``memo`` keeps the results that depend on the Laplace matrix or on the
    vertex permutation alone."""
    m, n = q.m, q.n

    def label() -> str:  # formatted only for a failure
        return f"m={m} arrows={q.arrows}"
    check = "matrix_identities"
    try:
        prefixes.rebuild(q.arrows, shared)
        gram_tri = triangular_gram(q)
        gram = tuple(zip(*prefixes.gram_cols))
        if gram_tri != gram:
            rec(check, f"{label()}: I^T I != G + G^T")

        lap = laplace(q)
        if lap != prefixes.laplace[-1]:
            rec(check, f"{label()}: I I^T != Laplace matrix")
        check = "laplace_kernel"
        if lap not in memo:
            problems = []
            if any(sum(row) != 0 for row in lap):
                problems.append("all-ones vector not in the kernel")
            if rational_rank(lap) != m - 1:
                problems.append("Laplace rank != m - 1")
            memo[lap] = problems
        for problem in memo[lap]:
            rec(check, f"{label()}: {problem}")

        check = "matrix_identities"
        images, inverse_arrows = _prefix_products(q)
        xi = tuple(images[1:])
        if inverse_arrows != prefixes.inverse_arrows:
            rec(check, f"{label()}: I(Q^-1) != I(Q) G^-1")
        if xi not in memo:
            memo[xi] = permutation_matrix(xi), cycle_type_of_permutation(xi)
        xi_matrix, ct = memo[xi]
        # Coxeter-Laplace matrix Id - I(Q^-1) I^T against the permutation
        # matrix of the vertex permutation
        if _coxeter_laplace(m, q.arrows, inverse_arrows) != xi_matrix:
            rec(check, f"{label()}: Coxeter-Laplace matrix != walk permutation matrix")
        # Coxeter matrix Id - I^T I(Q^-1) against -G^T G^-1
        gram_inv = tuple(zip(*prefixes.inv_cols))
        phi = _coxeter_matrix(q.arrows, inverse_arrows)
        if phi != coxeter_from_gram(gram, gram_inv):
            rec(check, f"{label()}: the two Coxeter matrix formulas disagree")

        check = "cycle_type_membership"
        if ct not in admissible:
            rec(check, f"{label()}: {ct} not admissible for corank {n - m + 1}")
        return gram_tri, ct.parts
    except Exception as exc:  # one quiver's fault must not end the sweep
        rec(check, f"{label()}: raised {exc!r}")
        return None


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
    m, n, pair_index, seed = args
    report = SweepReport(m, n)
    rec = report.record
    admissible = frozenset(part1c(n - m + 1, m))
    first_pair = None if pair_index < 0 else ordered_pairs(m)[pair_index]
    rng = random.Random(f"{seed}:{m}:{n}:{pair_index}") if seed is not None else None
    prefixes = _Prefixes(m, n)
    memo: dict = {}
    forms: dict[bytes, tuple[int, ...]] = {}
    for shared, q in iter_connected_quivers(m, n, first_pair):
        report.quiver_count += 1
        checked = _check_quiver(q, shared, prefixes, rec, admissible, memo)
        if checked is None:
            continue
        gram_tri, ct_parts = checked
        key = _encode_gram(gram_tri)
        known = forms.get(key)
        if known is None:
            forms[key] = ct_parts
        elif known != ct_parts:
            rec("cycle_type_membership",
                f"m={m} arrows={q.arrows}: equal forms with different cycle types")
        if rng is not None and report.quiver_count % _CONGRUENCE_SAMPLE_RATE == 0:
            try:
                _check_congruence(rec, q, rng)
            except Exception as exc:  # one quiver's fault must not end the sweep
                rec("congruence_invariance", f"m={m} arrows={q.arrows}: raised {exc!r}")
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

    def label() -> str:  # formatted only for a failure
        return f"n={n} c={c} gram={gram_tri}"
    try:
        check = "polynomial_factorization"
        form = UnitForm(n, gram_tri)
        phi = coxeter_matrix(form)
        direct = char_poly(phi)

        # factored polynomial from the cycle type against the characteristic
        # polynomial of the Coxeter matrix
        dense = coxeter_polynomial_of_cycle_type(ct, c).expand()
        if dense != direct:
            rec("polynomial_factorization",
                f"{label()}: factored expansion != Coxeter characteristic polynomial")

        check = "coxeter_numbers"
        for problem in coxeter_number_violations(phi, direct, ct):
            rec("coxeter_numbers", f"{label()}: {problem}")

        # realization round trip, basis change to the canonical quiver included
        check = "realization_roundtrip"
        try:
            result = realize(form)
        except (ValueError, InvariantViolation) as exc:
            rec("realization_roundtrip", f"{label()}: realization failed: {exc}")
        else:
            strategies = report.strategy_counts
            strategies[result.strategy] = strategies.get(result.strategy, 0) + 1
            if triangular_gram(result.quiver) != gram_tri:
                rec("realization_roundtrip",
                    f"{label()}: realization changed the Gram matrix")
            elif cycle_type_of_permutation(
                vertex_permutation(result.quiver, allow_disconnected=True)
            ).parts != ct_parts:
                rec("realization_roundtrip",
                    f"{label()}: realization changed the cycle type")

        # polynomial -> cycle type round trip (memoized per cycle type/corank)
        check = "polynomial_roundtrip"
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
            rec("polynomial_roundtrip", f"{label()}: {roundtrip_memo[key]}")

        # spectral multiplicities of the Coxeter matrix by exact division
        # (memoized per cycle type and characteristic polynomial)
        check = "spectral_multiplicities"
        spectrum = (ct_parts, direct)
        if spectrum not in multiplicity_memo:
            problems: list[str] = []
            if len(direct) - 1 != n:
                problems.append(f"degree {len(direct) - 1} != {n}")
            orders = {d for part in ct_parts
                      for d in range(1, part + 1) if part % d == 0}
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
            rec("spectral_multiplicities", f"{label()}: {problem}")
    except Exception as exc:  # one form's fault must not end the sweep
        rec(check, f"{label()}: raised {exc!r}")


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

def _phase1_units(max_vertices: int, max_arrows: int,
                  seed: int | None) -> list[tuple]:
    units = []
    for m in range(2, max_vertices + 1):
        for n in range(max(m - 1, 1), max_arrows + 1):
            pairs = m * (m - 1)
            if comb(pairs + n - 1, n) > _SPLIT_THRESHOLD:
                for index in range(pairs):
                    units.append((m, n, index, seed))
            else:
                units.append((m, n, -1, seed))
    return units


def _fan_out(worker, units: list, jobs: int):
    """Results of ``worker`` on each unit, in unit order; ``jobs`` > 1 runs
    the units on a pool of worker processes that is shut down when the
    results are exhausted or abandoned."""
    if jobs == 1:
        yield from map(worker, units)
        return
    # imported here: the pool pulls in multiprocessing, socket and logging,
    # which every other caller of the package would pay for at import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(worker, units)


def run_sweep(max_vertices: int, max_arrows: int, *,
              seed: int | None = None,
              jobs: int = 1) -> SweepReport:
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
    units = _phase1_units(max_vertices, max_arrows, seed)
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
