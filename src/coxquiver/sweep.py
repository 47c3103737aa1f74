"""Exhaustive verification sweeps over small connected quivers.

Phase 1 walks every connected loop-less quiver in range once, depth first
over sorted arrow multisets (``quiver.iter_connected_quivers``).  Along the
walk it keeps, per arrow prefix, the columns of the triangular Gram matrix
G, from sparse products with the incidence columns, and the Laplace matrix
I I^T as a sum of rank-one terms.  Quivers next to each other in the walk
share these entries below the first arrow that changed.  This G keys the
distinct unit forms it collects, and on every quiver the library routes
are checked against these matrices:

* the Laplace matrix by its kernel and its rank;
* the prefix-product inverse arrows by I(Q^{-1}) G = I(Q), whose one
  solution is I(Q) G^{-1};
* the Coxeter-Laplace builder against the permutation matrix of the
  prefix-product vertex permutation xi;
* the Coxeter matrix builder Phi = Id - I(Q)^T I(Q^{-1}), which reads the
  arrows alone, by Phi G = -G^T, whose one solution is -G^T G^{-1};
* the length of the cycle type of xi against those the corank admits.

The inverse-arrow identity and Phi G = -G^T together check G itself: with
I(Q^{-1}) G = I(Q), Phi G = G - I(Q)^T I(Q^{-1}) G = G - I(Q)^T I(Q), so
Phi G = -G^T says G + G^T = I(Q)^T I(Q), which one upper triangular G
solves.

Phase 2 runs the form-level checks once per distinct form, through the
library's realizer and ``form_of_quiver`` (the route of every ``--quiver``
verb), so a clean sweep vouches for the code that users call.  Per form:
the realization round trip, whose ``form_of_quiver`` comparison ties the
realized quiver to the G phase 1 keyed, and on the realized quiver the
two identities of phase 1 that tie the inverse arrows to G and to xi,
which prove the form's factored polynomial and Coxeter-number laws.  Per
(cycle type, corank) class and work unit: one walk of the powers of a
realized form's Coxeter matrix checks both numerically
(``coxeter_matrix_violations``), and the polynomial round trip and the
spectral multiplicities are checked on the expansion of the factored
polynomial.

An exception raised while one quiver or one form is checked is recorded as
a failure of the check that was running, labelled with that quiver or
form, and the sweep goes on.  Both phases can fan out over worker
processes; each work unit fills its own report, and the reports are merged
in submission order, so aggregation is deterministic.  The sweep is the
engine behind the ``verify`` CLI verb and the acceptance tests.
"""

from __future__ import annotations

from math import comb, isqrt

from ._record import Record
from .errors import InvariantViolation
from .invariants import (
    coxeter_matrix_violations,
    coxeter_polynomial_of_cycle_type,
    cycle_type_from_cox_poly,
    spectral_multiplicity_of_cycle_type,
)
from .linalg import (
    IntMatrix,
    divide_by_v_power_minus_one,
    mat_mul,
    permutation_matrix,
    psd_rank,
)
from .partitions import Partition, admits_length, cycle_type_of_permutation
from .quiver import (
    Quiver,
    _coxeter_laplace,
    _coxeter_matrix,
    _prefix_products,
    iter_connected_quivers,
    opposite,
    ordered_pairs,
    relabel_vertices,
    vertex_permutation,
)
from .realize import realize
from .unitform import UnitForm, form_of_quiver

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


class SweepReport(Record):
    """Counts of one sweep or part of one: quivers and forms checked, forms
    realized, and failures per check with the first samples of each."""

    __slots__ = ("max_vertices", "max_arrows", "quiver_count", "form_count",
                 "realized_count", "failure_counts", "failure_samples")

    def __init__(self, max_vertices: int, max_arrows: int,
                 quiver_count: int = 0, form_count: int = 0,
                 realized_count: int = 0,
                 failure_counts: dict[str, int] | None = None,
                 failure_samples: dict[str, list[str]] | None = None) -> None:
        self.max_vertices = max_vertices
        self.max_arrows = max_arrows
        self.quiver_count = quiver_count
        self.form_count = form_count
        self.realized_count = realized_count
        self.failure_counts = (
            {c: 0 for c in CHECKS} if failure_counts is None else failure_counts)
        self.failure_samples = (
            {c: [] for c in CHECKS} if failure_samples is None else failure_samples)

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
        self.realized_count += other.realized_count
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
            "realized_count": self.realized_count,
            "failure_counts": self.failure_counts,
            "failure_samples": self.failure_samples,
        }


def _encode_gram(gram_tri) -> bytes:
    """Triangular Gram matrices of quivers have entries in [-2, 2]."""
    return bytes(x + 2 for row in gram_tri for x in row)


# ---------------------------------------------------------------------------
# phase 1: per-quiver identities
# ---------------------------------------------------------------------------

class _Prefixes:
    """Phase 1's G and Laplace matrix, kept per arrow prefix of the
    depth-first walk over one (m, n) unit.

    For arrow j (from 0) of the current quiver this holds column j of G and
    the Laplace matrix of arrows 0..j.  Each depends on those arrows alone,
    so consecutive quivers of the walk share every entry below the first
    arrow that changed, and a new arrow costs one column of G and a rank-one
    update.
    """

    def __init__(self, m: int, n: int) -> None:
        self.n = n
        # incidence rows: (arrow index, sign) for each arrow at each vertex
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
        self.gram_cols: list[tuple[int, ...]] = [()] * n
        self.laplace: list[IntMatrix] = [()] * n
        self.built = 0
        self._zero = ((0,) * m,) * m

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

        # I I^T as the sum of the outer products of the incidence columns
        rows = list(self.laplace[j - 1] if j else self._zero)
        row_s, row_t = list(rows[s - 1]), list(rows[t - 1])
        row_s[s - 1] += 1
        row_s[t - 1] -= 1
        row_t[t - 1] += 1
        row_t[s - 1] -= 1
        rows[s - 1], rows[t - 1] = tuple(row_s), tuple(row_t)
        self.laplace[j] = tuple(rows)


def _inverse_and_xi_problems(m: int, arrows, inverse_arrows, gram_cols,
                             xi_matrix: IntMatrix) -> list[str]:
    """What the quiver Q with ``arrows`` on the vertices 1..m and the
    ``inverse_arrows`` break of I(Q^-1) G = I(Q), for the G with columns
    ``gram_cols``, and of Id - I(Q^-1) I(Q)^T = P(xi), for the permutation
    matrix ``xi_matrix``: a list of problems, empty when both hold.

    Proof that, for a connected Q with I(Q)^T I(Q) = G + G^T, the two give
    the invariants of the form f with triangular Gram matrix G.  Write
    A = I(Q), B = I(Q^-1), P = P(xi), c = n - m + 1 and L = lcm pi for the
    cycle type pi of xi, of length l.

    * G is upper unitriangular, so B = A G^-1 is the one solution of the
      first identity, and Phi_f = -G^T G^-1 = Id - (G + G^T) G^-1
      = Id - A^T B.  The second gives B A^T = Id - P, so
      Phi_f A^T = A^T - A^T B A^T = A^T P.
    * G is unimodular, so im B = im A, the vectors with sum 0: Q^-1 is
      connected, and ker A^T, ker B^T are the constants.
    * The polynomial.  Phi_f keeps W = im A^T, of dimension m - 1, and acts
      there as P acts on R^m modulo the constants.  Phi_f - Id = -A^T B maps
      into W, so Phi_f is the identity on R^n / W, of dimension c.  Hence
      char Phi_f = (v - 1)^c prod_a (v^{pi_a} - 1) / (v - 1).
    * The Coxeter-number laws.  By induction Phi_f^k = Id - A^T S_k B with
      S_k = Id + P + ... + P^{k-1}.  P^L = Id, so S_L (Id - P) = 0, and
      N = Phi_f^L - Id has N^2 = A^T S_L (Id - P) S_L B = 0.  The roots of the
      polynomial are roots of unity of the orders dividing the parts, a
      primitive one of order pi_a among them for every pi_a > 1, so
      Id - Phi_f^k is nilpotent exactly when L divides k: the minimal
      nilpotency index is L, and Phi_f^{jL} = Id + jN.  On a xi-cycle S_L
      is a positive multiple of the sum over that cycle, so N = 0 exactly
      when every inverse arrow joins two vertices of one xi-cycle, which
      for a connected Q^-1 means l = 1.  So Phi_f^k = Id for some k >= 1
      exactly when l = 1, first at k = pi_1.
    """
    # G is upper unitriangular, so X G = I(Q) has the one solution
    # X = I(Q) G^-1: the inverse arrows solve it exactly when they are
    # those of the paper's I(Q^-1) = I(Q) G^-1.  Column j of I(Q^-1) G
    # is the sum over l <= j of G_lj (e_s'l - e_t'l).
    # The guard fails a list that is not n arrows on the vertices 1..m,
    # as a list comparison would, and keeps a vertex 0 or -1 from
    # indexing y without an error.
    vertices = range(1, m + 1)
    solved = len(inverse_arrows) == len(arrows) and all(
        s2 in vertices and t2 in vertices for s2, t2 in inverse_arrows)
    for (s, t), col in zip(arrows, gram_cols if solved else ()):
        y = [0] * (m + 1)
        y[s], y[t] = -1, 1
        for (s2, t2), g in zip(inverse_arrows, col):
            y[s2] += g
            y[t2] -= g
        solved = solved and not any(y)
    problems = [] if solved else ["I(Q^-1) G != I(Q)"]
    # Coxeter-Laplace matrix Id - I(Q^-1) I^T against the permutation
    # matrix of the vertex permutation
    if _coxeter_laplace(m, arrows, inverse_arrows) != xi_matrix:
        problems.append("Coxeter-Laplace matrix != walk permutation matrix")
    return problems


def _check_quiver(q: Quiver, shared: int, prefixes: _Prefixes, rec,
                  memo: dict) -> tuple | None:
    """All matrix identities for one connected quiver, each library route
    against the G and the Laplace matrix in ``prefixes``.  Returns the pair
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
        gram_cols = prefixes.gram_cols
        lap = prefixes.laplace[-1]
        check = "laplace_kernel"
        if lap not in memo:
            problems = []
            if any(sum(row) != 0 for row in lap):
                problems.append("all-ones vector not in the kernel")
            if psd_rank(lap) != m - 1:
                problems.append("Laplace rank != m - 1")
            memo[lap] = problems
        for problem in memo[lap]:
            rec(check, f"{label()}: {problem}")

        check = "matrix_identities"
        images, inverse_arrows = _prefix_products(q)
        xi = tuple(images[1:])
        if xi not in memo:
            memo[xi] = permutation_matrix(xi), cycle_type_of_permutation(xi)
        xi_matrix, ct = memo[xi]
        for problem in _inverse_and_xi_problems(
                m, q.arrows, inverse_arrows, gram_cols, xi_matrix):
            rec(check, f"{label()}: {problem}")
        # Coxeter matrix Id - I^T I(Q^-1) against Phi G = -G^T, whose one
        # solution is -G^T G^-1
        gram = tuple(zip(*gram_cols))
        phi = _coxeter_matrix(q.arrows, inverse_arrows)
        if mat_mul(phi, gram) != tuple(
                [tuple([-x for x in col]) for col in gram_cols]):
            rec(check, f"{label()}: the two Coxeter matrix formulas disagree")

        check = "cycle_type_membership"
        if not admits_length(n - m + 1, ct.length):
            rec(check, f"{label()}: {ct} not admissible for corank {n - m + 1}")
        return gram, ct.parts
    except Exception as exc:  # one quiver's fault must not end the sweep
        rec(check, f"{label()}: raised {exc!r}")
        return None


def _check_congruence(rec, q: Quiver, rng) -> None:
    """Cycle type invariance under vertex relabeling and orientation flip."""
    label = f"m={q.m} arrows={q.arrows}"
    form = form_of_quiver(q)
    ct = cycle_type_of_permutation(vertex_permutation(q))
    rho = list(range(1, q.m + 1))
    rng.shuffle(rho)
    relabeled = relabel_vertices(q, tuple(rho))
    if form_of_quiver(relabeled) != form:
        rec("congruence_invariance",
            f"{label}: relabeling changed the triangular Gram matrix")
    if cycle_type_of_permutation(vertex_permutation(relabeled)) != ct:
        rec("congruence_invariance", f"{label}: relabeling changed the cycle type")
    flipped = opposite(q)
    if form_of_quiver(flipped) != form:
        rec("congruence_invariance",
            f"{label}: opposite quiver changed the triangular Gram matrix")
    if cycle_type_of_permutation(vertex_permutation(flipped)) != ct:
        rec("congruence_invariance", f"{label}: opposite quiver changed the cycle type")


def _phase1_worker(args: tuple) -> tuple[SweepReport, dict]:
    m, n, pair_index, seed = args
    report = SweepReport(m, n)
    rec = report.record
    first_pair = None if pair_index < 0 else ordered_pairs(m)[pair_index]
    rng = None
    if seed is not None:
        # imported here: only seeded sweeps draw, and the package does not
        # pay for ``random`` at import
        from random import Random
        rng = Random(f"{seed}:{m}:{n}:{pair_index}")
    prefixes = _Prefixes(m, n)
    memo: dict = {}
    forms: dict[bytes, tuple[int, ...]] = {}
    for shared, q in iter_connected_quivers(m, n, first_pair):
        report.quiver_count += 1
        checked = _check_quiver(q, shared, prefixes, rec, memo)
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

def _check_form(report: SweepReport, blob: bytes, ct_parts: tuple[int, ...],
                class_memo: dict) -> None:
    rec = report.record
    n = isqrt(len(blob))
    c = n - sum(ct_parts) + 1
    # the blob holds G row by row, 2 added to each entry
    values = [x - 2 for x in blob]
    gram = tuple([tuple(values[i:i + n]) for i in range(0, n * n, n)])

    def label() -> str:  # formatted only for a failure
        return f"n={n} c={c} gram={gram}"
    try:
        # realization round trip, basis change to the canonical quiver included
        check = "realization_roundtrip"
        form = UnitForm(n, [(i + 1, j + 1, row[j]) for i, row in enumerate(gram)
                            for j in range(i + 1, n) if row[j]])
        try:
            q = realize(form).quiver
        except (ValueError, InvariantViolation) as exc:
            rec("realization_roundtrip", f"{label()}: realization failed: {exc}")
            return
        report.realized_count += 1
        if form_of_quiver(q) != form:
            rec("realization_roundtrip",
                f"{label()}: realization changed the Gram matrix")
            return
        images, inverse_arrows = _prefix_products(q)
        xi = tuple(images[1:])
        if cycle_type_of_permutation(xi).parts != ct_parts:
            rec("realization_roundtrip",
                f"{label()}: realization changed the cycle type")
        # q realizes the form, so the two identities prove its factored
        # polynomial and Coxeter-number laws (proof in
        # _inverse_and_xi_problems)
        check = "polynomial_factorization"
        for problem in _inverse_and_xi_problems(
                q.m, q.arrows, inverse_arrows, tuple(zip(*gram)),
                permutation_matrix(xi)):
            rec(check, f"{label()}: {problem}")

        # what depends on the class (ct, c) alone, as (check, problem) pairs
        # memoized per class, from its first form realized with its G: the
        # factored polynomial, the walk of the powers of that form's Coxeter
        # matrix, a numeric check of the proof, then the polynomial -> cycle
        # type round trip and the spectral multiplicities by exact division,
        # from the expansion
        key = (ct_parts, c)
        if key not in class_memo:
            ct = Partition(ct_parts)
            poly = coxeter_polynomial_of_cycle_type(ct, c)
            polynomial, laws = coxeter_matrix_violations(
                _coxeter_matrix(q.arrows, inverse_arrows), poly)
            problems = [(check, problem) for problem in polynomial]
            problems += [("coxeter_numbers", problem) for problem in laws]
            check = "polynomial_roundtrip"
            dense = poly.expand()
            try:
                recovered = cycle_type_from_cox_poly(dense, c)
            except ValueError as exc:
                problems.append((check, str(exc)))
            else:
                if recovered.parts != ct_parts:
                    problems.append(
                        (check, f"recovered {recovered} from the Coxeter polynomial"))
            check = "spectral_multiplicities"
            orders = {d for part in ct_parts
                      for d in range(1, part + 1) if part % d == 0}
            for d in sorted(orders):
                count = 0
                current = divide_by_v_power_minus_one(dense, d)
                # None ends the count, and so does the empty quotient a
                # zero polynomial would reach
                while current:
                    count += 1
                    current = divide_by_v_power_minus_one(current, d)
                expected = min(spectral_multiplicity_of_cycle_type(ct, c, e)
                               for e in range(1, d + 1) if d % e == 0)
                if count != expected:
                    problems.append(
                        (check, f"(v^{d}-1) divides {count} times, expected {expected}"))
            class_memo[key] = problems
        for name, problem in class_memo[key]:
            rec(name, f"{label()}: {problem}")
    except Exception as exc:  # one form's fault must not end the sweep
        rec(check, f"{label()}: raised {exc!r}")


def _phase2_worker(args: tuple) -> SweepReport:
    max_vertices, max_arrows, items = args
    report = SweepReport(max_vertices, max_arrows, form_count=len(items))
    class_memo: dict = {}
    for blob, ct_parts in items:
        _check_form(report, blob, ct_parts, class_memo)
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
        raise ValueError("sweep bounds need max_vertices >= 1 and max_arrows >= 0")
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
