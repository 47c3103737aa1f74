"""Acceptance criteria.

Each test prints one line ``criterion <k>: PASS|FAIL - <summary>``; run with
``pytest tests/test_acceptance.py -v -s`` to see them as they complete.
Criteria 3, 4, 6, 7 and 8 share one exhaustive sweep over all connected
loop-less quivers with m <= 5 vertices and n <= 7 arrows, executed once per
session.  They carry the ``acceptance`` marker, so ``pytest -m "not
acceptance"`` runs the rest of the suite without the sweep.
"""

import os
import time

import pytest

from coxquiver.cli import main
from coxquiver.invariants import enumerate_coxeter_polynomials
from coxquiver.partitions import part1c
from coxquiver.quiver import cycle_type_of_quiver, inverse_quiver
from coxquiver.realize import representative_quiver_A, representative_quiver_star
from coxquiver.sweep import run_sweep

SWEEP_VERTICES = 5
SWEEP_ARROWS = 7
EXPECTED_QUIVERS = 658429
EXPECTED_FORMS = 281508

pytestmark = pytest.mark.acceptance


def _report(number: int, summary: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} - {summary}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, f"criterion {number} failed: {summary} {detail}"


@pytest.fixture(scope="session")
def sweep_report():
    jobs = os.cpu_count() or 1
    start = time.perf_counter()
    report = run_sweep(SWEEP_VERTICES, SWEEP_ARROWS, seed=20260809, jobs=jobs)
    elapsed = time.perf_counter() - start
    print(f"\n[sweep] m<={SWEEP_VERTICES} n<={SWEEP_ARROWS}: "
          f"{report.quiver_count} quivers, {report.form_count} forms, "
          f"{elapsed:.1f}s with {jobs} workers", flush=True)
    return report, elapsed


def _run_cli_lines(*argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    return code, buffer.getvalue().strip().splitlines(), elapsed


def test_criterion_1_table_n8_c4():
    code, lines, elapsed = _run_cli_lines(
        "enumerate", "--n", "8", "--c", "4", "--format", "table")
    rows = [line.split() for line in lines[1:]]
    expected = [
        ["(5)", "(v^5-1)(v-1)^3", "5", "5"],
        ["(3,1,1)", "(v^3-1)(v-1)^5", "∞", "3"],
        ["(2,2,1)", "(v^2-1)^2(v-1)^4", "∞", "2"],
        ["(1,1,1,1,1)", "(v-1)^8", "∞", "1"],
    ]
    ok = code == 0 and rows == expected and elapsed < 1.0
    _report(1, "enumerate --n 8 --c 4 reproduces the corank-4 table exactly",
            ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_table_n5_c2():
    code, lines, elapsed = _run_cli_lines(
        "enumerate", "--n", "5", "--c", "2", "--format", "table")
    rows = [line.split() for line in lines[1:]]
    expected = [
        ["(4)", "(v^4-1)(v-1)", "4", "4"],
        ["(2,1,1)", "(v^2-1)(v-1)^3", "∞", "2"],
    ]
    ok = code == 0 and rows == expected and elapsed < 1.0
    _report(2, "enumerate --n 5 --c 2 gives (4) and (2,1,1) with numbers "
               "(4, 4) and (inf, 2)", ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_3_matrix_identities(sweep_report):
    report, elapsed = sweep_report
    failures = (report.failure_counts["matrix_identities"]
                + report.failure_counts["laplace_kernel"])
    ok = (failures == 0
          and report.quiver_count == EXPECTED_QUIVERS)
    detail = (f"{report.quiver_count} quivers, {failures} failures, "
              f"sweep {elapsed:.1f}s")
    _report(3, "all four matrix identities, permutation matrices, and "
               "Laplace kernels hold on the exhaustive sweep", ok, detail)


def test_criterion_4_polynomial_factorization(sweep_report):
    report, _ = sweep_report
    failures = (report.failure_counts["polynomial_factorization"]
                + report.failure_counts["cycle_type_membership"])
    ok = failures == 0 and report.form_count == EXPECTED_FORMS
    _report(4, "factored Coxeter polynomials match the characteristic "
               "polynomial route and cycle types are admissible",
            ok, f"{report.form_count} forms, {failures} failures")


def test_criterion_5_surjectivity():
    failures = []
    checked = 0
    for m in range(2, 7):
        for c in range(0, 5):
            for pi in part1c(c, m):
                if (c - (pi.length - 1)) % 2 != 0:
                    continue
                d = (c - (pi.length - 1)) // 2
                checked += 1
                a = representative_quiver_A(pi, d)
                star = representative_quiver_star(pi, d)
                if cycle_type_of_quiver(a) != pi:
                    failures.append(f"ct(A[{pi}] d={d}) != {pi}")
                if inverse_quiver(a) != star:
                    failures.append(f"inverse(A[{pi}] d={d}) != star quiver")
    ok = not failures and checked >= 40
    _report(5, "representative quivers realize every admissible cycle type "
               "and pair with their star quivers", ok,
            f"{checked} (pi, d) cases" + ("" if ok else f"; {failures[:3]}"))


def test_criterion_6_coxeter_numbers(sweep_report):
    report, _ = sweep_report
    failures = report.failure_counts["coxeter_numbers"]
    ok = failures == 0
    _report(6, "minimal nilpotency index equals lcm(ct) and matrix powers "
               "reach the identity exactly for one-part cycle types",
            ok, f"{failures} failures")


def test_criterion_7_realization_roundtrips(sweep_report):
    report, _ = sweep_report
    failures = (report.failure_counts["realization_roundtrip"]
                + report.failure_counts["polynomial_roundtrip"])
    strategies = dict(report.strategy_counts)
    ok = failures == 0 and sum(strategies.values()) == report.form_count
    _report(7, "every swept form is realized with its Gram matrix and cycle "
               "type intact, and the polynomial round trip recovers ct",
            ok, f"{failures} failures, strategies {strategies}")


def test_criterion_8_spectral_multiplicities(sweep_report):
    report, _ = sweep_report
    failures = report.failure_counts["spectral_multiplicities"]
    ok = failures == 0
    _report(8, "root multiplicities from exact division match the "
               "combinatorial multiplicities and degrees equal n",
            ok, f"{failures} failures")


def test_criterion_9_cardinalities():
    start = time.perf_counter()
    problems = []
    for n in range(1, 13):
        for c in range(0, n):
            polys = enumerate_coxeter_polynomials(n, c)
            members = part1c(c, n - c + 1)
            if len(polys) != len(members):
                problems.append(f"n={n} c={c}: {len(polys)} != {len(members)}")
            elif len({p.expand() for p in polys}) != len(members):
                problems.append(f"n={n} c={c}: expansions collide")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    _report(9, "enumerated Coxeter polynomial sets match the partition "
               "family cardinalities for n <= 12", ok,
            f"{elapsed * 1000:.0f} ms" + ("" if ok else f"; {problems[:3]}"))


def test_congruence_spot_checks_clean(sweep_report):
    # seeded relabeling/opposite invariance checks ran inside the sweep
    report, _ = sweep_report
    assert report.failure_counts["congruence_invariance"] == 0
