"""Benchmark of the coxquiver package, standard library only.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The package is imported from ``src/`` next
to this directory; nothing is built or installed.  One client drives the
package in a closed loop (the next operation starts when the previous one
has returned) with ``jobs=1``.  A run repeats passes of a fixed batch of
seeded inputs while another pass still fits in ``--seconds``; every output
is checked against an oracle computed outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` repeats the same
passes with every public callable of the package wrapped in a span and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "coxquiver"

MODULES = ("cli", "invariants", "realize", "unitform", "quiver", "partitions",
           "linalg", "sweep")
FUNCTIONS = (
    "realize.realize_backtracking", "realize.realize_algorithm71",
    "invariants.cycle_type_of_form", "unitform.corank",
    "unitform.is_non_negative", "linalg.char_poly", "linalg.mat_mul",
    "linalg.mat_pow", "linalg.rational_rank", "linalg.is_psd",
    "linalg.unitriangular_inverse", "linalg.unimodular_inverse",
    "quiver.iter_connected_quivers", "quiver.vertex_permutation",
    "quiver.inverse_quiver", "quiver.triangular_gram",
)
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import coxquiver; "
    "print(time.perf_counter() - t, coxquiver.__file__)"
)


def use_source_tree() -> None:
    """Make ``import coxquiver`` load ``src/coxquiver`` of this checkout."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {PACKAGE}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import coxquiver
    if Path(coxquiver.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported coxquiver from {coxquiver.__file__}")


def import_seconds() -> list[float]:
    """Seconds a fresh interpreter spends in ``import coxquiver``, once per
    sample, after one unrecorded import has filled the bytecode caches."""
    cmd = [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=60)
        seconds, origin = done.stdout.split()
        if Path(origin).resolve().parent != PACKAGE.resolve():
            raise SystemExit(f"error: the import probe loaded {origin}")
        samples.append(float(seconds))
    return samples[1:]


def source_lines(module: str) -> int:
    """Lines of ``src/coxquiver/<module>.py`` that are neither blank nor a
    comment."""
    path = PACKAGE / f"{module}.py"
    if not path.is_file():
        return 0
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


class Passes:
    """Latencies of the operations of each pass, the failures, and the wall
    time of the whole measurement (checks and generation included)."""

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []
        self.failures: list[str] = []
        self.wall = 0.0

    @property
    def operations(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    def all_latencies(self) -> list[float]:
        return [x for lat in self.latencies for x in lat]

    def busy(self) -> float:
        return sum(self.all_latencies())


def measure(workload, seconds: float, passes: int | None = None,
            tracer=None) -> Passes:
    """Run whole passes, at least one, while another pass of average length
    still ends within ``seconds``; or run exactly ``passes`` of them.  Only
    ``workload.run`` is timed, and only it runs with the tracer active."""
    result = Passes()
    start = time.perf_counter()
    index = 0
    while True:
        latencies = []
        for item in workload.batch(index):
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                output = workload.run(item.arg)
            except Exception as exc:  # a traceback is a failed operation
                output = exc
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            if isinstance(output, Exception):
                problem = f"raised {output!r}"
            else:
                try:
                    problem = workload.check(item, output)
                except Exception as exc:  # unreadable output is a failure
                    problem = f"output could not be checked: {exc!r}"
            if problem:
                result.failures.append(f"{workload.name} pass {index}: {problem}")
        result.latencies.append(latencies)
        index += 1
        elapsed = time.perf_counter() - start
        if index == passes or (passes is None and elapsed * (index + 1) / index > seconds):
            break
    result.wall = time.perf_counter() - start
    return result


def end_to_end(workload, seconds: float) -> tuple[Passes, dict, list[str]]:
    setup = import_seconds()
    run = measure(workload, seconds)
    ops = sorted(run.all_latencies())
    pass_busy = [sum(lat) for lat in run.latencies]
    if len(ops) >= 2:
        deciles = statistics.quantiles(ops, n=10)
        p50, p90 = statistics.median(ops), deciles[8]
    else:
        p50 = p90 = ops[0]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(pass_busy), "s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters importing coxquiver",
        f"wall_s: median over {len(run.latencies)} passes of "
        f"{len(run.latencies[0])} operations each",
        f"p50_ms, p90_ms: {len(ops)} operation latencies",
        f"failed_frac: {len(run.failures)}/{run.operations}",
    ]
    return run, metrics, notes


def per_layer(workload, seconds: float) -> tuple[list[Passes], dict, list[str]]:
    from spans import Tracer

    plain = measure(workload, seconds)
    tracer = Tracer("coxquiver")
    tracer.install({"realize.realize_algorithm71":
                    lambda result: result.strategy == "algorithm71"})
    try:
        traced = measure(workload, seconds, passes=len(plain.latencies), tracer=tracer)
    finally:
        tracer.uninstall()
    own, root = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for module in MODULES:
        names = [name for name in tracer.names if name.startswith(module + ".")]
        metrics[f"{module}.self_s"] = (sum(own[name] for name in names), "s")
        metrics[f"{module}.calls"] = (sum(tracer.count(name) for name in names), "count")
        metrics[f"{module}.loc"] = (source_lines(module), "lines")
    for name in FUNCTIONS:
        metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (tracer.count(name), "count")
    alg71 = tracer.count("realize.realize_algorithm71")
    hits = tracer.hit_count("realize.realize_algorithm71")
    metrics["realize.alg71_hit_ratio"] = (hits / alg71 if alg71 else 0.0, "ratio")
    phase1, phase2 = sweep_phases(tracer)
    quivers = forms = 0
    if workload.name == "sweep":
        quivers, forms = workload.QUIVERS * traced.operations, workload.FORMS * traced.operations
    metrics["sweep.phase1_us_per_quiver"] = (phase1 / quivers * 1e6 if quivers else 0.0, "us")
    metrics["sweep.phase2_us_per_form"] = (phase2 / forms * 1e6 if forms else 0.0, "us")
    metrics["trace.overhead_s"] = (traced.busy() - plain.busy(), "s")
    metrics["bench.self_s"] = (traced.wall - root, "s")
    notes = [
        f"traced {traced.operations} operations in {len(traced.latencies)} passes: "
        f"{len(tracer.span_start)} spans, wall {traced.wall:.3f} s, in the package {root:.3f} s",
        f"realize.alg71_hit_ratio: {hits}/{alg71} results with strategy algorithm71",
        f"sweep phases: {phase1:.3f} s over {quivers} quivers, {phase2:.3f} s over {forms} forms",
        f"failed_frac: {len(plain.failures) + len(traced.failures)}/"
        f"{plain.operations + traced.operations}",
    ]
    return [plain, traced], metrics, notes


def sweep_phases(tracer) -> tuple[float, float]:
    """Split each ``run_sweep`` span at the end of the last resumption of
    ``iter_connected_quivers`` inside it: phase 1 enumerates and checks
    quivers, phase 2 checks the distinct forms."""
    generated = tracer.spans_named("quiver.iter_connected_quivers")
    phase1 = phase2 = 0.0
    for start, end in tracer.spans_named("sweep.run_sweep"):
        inside = [stop for begin, stop in generated if start <= begin and stop <= end]
        boundary = max(inside, default=start)
        phase1 += boundary - start
        phase2 += end - boundary
    return phase1, phase2


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        runs, metrics, notes = per_layer(workload, args.seconds)
    else:
        run, metrics, notes = end_to_end(workload, args.seconds)
        runs = [run]
    failures = [f for run in runs for f in run.failures]
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    attempted = sum(run.operations for run in runs)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own interpreter, so that peak memory and
    set-up are per workload."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "forms", "reject", "spectra", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_source_tree()
    print("env " + json.dumps(environment(args)), flush=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        print(f"workload {args.workload}", flush=True)
        result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
