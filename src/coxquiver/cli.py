"""Command-line surface.

Every verb is a thin wrapper over one library entry point; no computation
lives here.  Exit codes: 0 success, 1 domain errors (for instance a form
that is not of Dynkin type A), 2 usage errors and malformed input, 3
internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .errors import InvariantViolation, NotConnected, NotDynkinTypeA
from .invariants import (
    coxeter_numbers_of_cycle_type,
    coxeter_polynomial,
    coxeter_polynomial_of_cycle_type,
    cycle_type_and_corank,
    cycle_type_from_cox_poly,
    cycle_type_of_form,
    enumerate_coxeter_polynomials,
)
from .partitions import FactoredCoxPoly, Partition
from .quiver import Quiver, cycle_type_of_quiver, inverse_quiver
from .realize import (
    realize,
    representative_quiver_A,
    representative_quiver_star,
)
from .sweep import CHECKS, run_sweep
from .unitform import UnitForm, form_of_quiver

INFINITY = "∞"


class InputError(Exception):
    """Malformed input (bad JSON, bad schema, bad inline parameter)."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc


def _load_quiver(path: str) -> Quiver:
    try:
        return Quiver.from_json(_load_json(path), connected=True)
    except NotConnected:
        raise
    except ValueError as exc:
        raise InputError(f"bad quiver in {path}: {exc}") from exc


def _load_form(path: str) -> UnitForm:
    try:
        return UnitForm.from_json(_load_json(path), connected=True)
    except NotConnected:
        raise
    except ValueError as exc:
        raise InputError(f"bad unit form in {path}: {exc}") from exc


def _form_from_args(args: argparse.Namespace) -> UnitForm:
    if getattr(args, "form", None):
        return _load_form(args.form)
    if getattr(args, "quiver", None):
        return form_of_quiver(_load_quiver(args.quiver))
    raise InputError("provide --form PATH or --quiver PATH")


def _parse_pi(text: str) -> Partition:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: expected comma-separated integers") from exc
    try:
        return Partition(tuple(sorted(parts, reverse=True)))
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}") from exc


def _parse_poly(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(
            f"bad polynomial {text!r}: expected comma-separated coefficients "
            "(lowest degree first)"
        ) from exc


def _print_json(data: object) -> None:
    print(json.dumps(data, sort_keys=False))


def format_partition(p: Partition) -> str:
    return str(p)


def format_factored_poly(f: FactoredCoxPoly) -> str:
    """Factored rendering: (v^k-1) factors with a merged (v-1) power when the
    unit exponent is nonnegative, the nu-form otherwise (corank 0)."""
    if f.unit_exponent >= 0:
        pieces = []
        big_parts = [p for p in f.cycle_parts if p >= 2]
        seen: list[int] = []
        for p in big_parts:
            if p in seen:
                continue
            seen.append(p)
            mult = big_parts.count(p)
            pieces.append(f"(v^{p}-1)" + (f"^{mult}" if mult > 1 else ""))
        ones = f.unit_exponent + sum(1 for p in f.cycle_parts if p == 1)
        if ones == 1:
            pieces.append("(v-1)")
        elif ones > 1:
            pieces.append(f"(v-1)^{ones}")
        return "".join(pieces) if pieces else "1"
    pieces = []
    if f.nu_exponent == 1:
        pieces.append("(v-1)")
    elif f.nu_exponent > 1:
        pieces.append(f"(v-1)^{f.nu_exponent}")
    seen = []
    for p in f.cycle_parts:
        if p in seen:
            continue
        seen.append(p)
        mult = f.cycle_parts.count(p)
        pieces.append(f"nu_{p}(v)" + (f"^{mult}" if mult > 1 else ""))
    return "".join(pieces)


def _format_coxeter_number(value: int | None) -> str:
    return INFINITY if value is None else str(value)


def _print_table(rows: list[list[str]], header: list[str]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    print(line.rstrip())
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _cmd_invariants(args: argparse.Namespace) -> int:
    form = _form_from_args(args)
    ct, c = cycle_type_and_corank(form)
    poly = coxeter_polynomial_of_cycle_type(ct, c)
    numbers = coxeter_numbers_of_cycle_type(ct)
    if args.format == "json":
        _print_json({
            "n": form.n,
            "corank": c,
            "cycle_type": ct.to_json(),
            "coxeter_polynomial": poly.to_json(),
            "coxeter_number": numbers.coxeter_number,
            "reduced_coxeter_number": numbers.reduced_coxeter_number,
        })
    else:
        rows = [
            ["n", str(form.n)],
            ["corank", str(c)],
            ["cycle type", format_partition(ct)],
            ["Coxeter polynomial", format_factored_poly(poly)],
            ["Coxeter number", _format_coxeter_number(numbers.coxeter_number)],
            ["reduced Coxeter number", str(numbers.reduced_coxeter_number)],
        ]
        for name, value in rows:
            print(f"{name}: {value}")
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    form = _form_from_args(args)
    result = realize(form)
    if args.format == "json":
        _print_json(result.to_json())
    else:
        print(f"strategy: {result.strategy}")
        print(f"vertices: {result.quiver.m}")
        for i, (s, t) in enumerate(result.quiver.arrows, start=1):
            print(f"arrow {i}: {s} -> {t}")
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    q = _load_quiver(args.quiver)
    inv = inverse_quiver(q)
    if args.format == "json":
        _print_json(inv.to_json())
    else:
        print(f"vertices: {inv.m}")
        for i, (s, t) in enumerate(inv.arrows, start=1):
            print(f"arrow {i}: {s} -> {t}")
    return 0


def _cmd_cycle_type(args: argparse.Namespace) -> int:
    if args.quiver:
        ct = cycle_type_of_quiver(_load_quiver(args.quiver))
    else:
        ct = cycle_type_of_form(_form_from_args(args))
    if args.format == "json":
        _print_json(ct.to_json())
    else:
        print(format_partition(ct))
    return 0


def _cmd_cox_poly(args: argparse.Namespace) -> int:
    form = _form_from_args(args)
    poly = coxeter_polynomial(form)
    if args.format == "json":
        _print_json(poly.to_json())
    else:
        print(format_factored_poly(poly))
    return 0


def _cmd_from_poly(args: argparse.Namespace) -> int:
    coeffs = _parse_poly(args.poly)
    ct = cycle_type_from_cox_poly(coeffs, args.c)
    if args.format == "json":
        _print_json(ct.to_json())
    else:
        print(format_partition(ct))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    polys = enumerate_coxeter_polynomials(args.n, args.c)
    if args.format == "json":
        _print_json([
            {
                "partition": list(p.cycle_parts),
                "coxeter_polynomial": p.to_json(),
                "coxeter_number": coxeter_numbers_of_cycle_type(p.partition()).coxeter_number,
                "reduced_coxeter_number":
                    coxeter_numbers_of_cycle_type(p.partition()).reduced_coxeter_number,
            }
            for p in polys
        ])
    else:
        header = ["Partition", "Coxeter polynomial", "Coxeter number",
                  "Reduced Coxeter number"]
        rows = []
        for p in polys:
            numbers = coxeter_numbers_of_cycle_type(p.partition())
            rows.append([
                format_partition(p.partition()),
                format_factored_poly(p),
                _format_coxeter_number(numbers.coxeter_number),
                str(numbers.reduced_coxeter_number),
            ])
        _print_table(rows, header)
    return 0


def _cmd_representative(args: argparse.Namespace) -> int:
    pi = _parse_pi(args.pi)
    d = args.d
    a = representative_quiver_A(pi, d)
    star = representative_quiver_star(pi, d)
    if args.format == "json":
        _print_json({"a_quiver": a.to_json(), "star_quiver": star.to_json()})
    else:
        print(f"A-family quiver ({a.m} vertices, {a.n} arrows):")
        for i, (s, t) in enumerate(a.arrows, start=1):
            print(f"  arrow {i}: {s} -> {t}")
        print(f"star-family quiver ({star.m} vertices, {star.n} arrows):")
        for i, (s, t) in enumerate(star.arrows, start=1):
            print(f"  arrow {i}: {s} -> {t}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise InputError(f"--jobs must be between 1 and {cpus}, the CPU count")
    report = run_sweep(args.max_vertices, args.max_arrows, seed=args.seed,
                       jobs=args.jobs)
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(f"swept {report.quiver_count} connected quivers "
              f"({report.form_count} distinct forms) with m <= {args.max_vertices}, "
              f"n <= {args.max_arrows}")
        for check in CHECKS:
            count = report.failure_counts[check]
            status = "ok" if count == 0 else f"{count} FAILURES"
            print(f"  {check}: {status}")
            for sample in report.failure_samples[check]:
                print(f"    {sample}")
        if report.ok():
            print("all identities hold")
    return 0 if report.ok() else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxquiver",
        description="Cycle types, Coxeter polynomials and Coxeter numbers of "
                    "connected non-negative unit forms of Dynkin type A, via "
                    "quiver realizations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("invariants", help="all invariants of a form or quiver")
    p.add_argument("--form", help="unit form JSON path ('-' for stdin)")
    p.add_argument("--quiver", help="quiver JSON path ('-' for stdin)")
    add_format(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("realize", help="realize a unit form as a quiver")
    p.add_argument("--form", help="unit form JSON path ('-' for stdin)")
    p.add_argument("--quiver", help="quiver JSON path (realizes its form)")
    add_format(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("inverse", help="inverse quiver")
    p.add_argument("--quiver", required=True, help="quiver JSON path")
    add_format(p)
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("cycle-type", help="cycle type of a form or quiver")
    p.add_argument("--form", help="unit form JSON path")
    p.add_argument("--quiver", help="quiver JSON path")
    add_format(p)
    p.set_defaults(func=_cmd_cycle_type)

    p = sub.add_parser("cox-poly", help="factored Coxeter polynomial")
    p.add_argument("--form", help="unit form JSON path")
    p.add_argument("--quiver", help="quiver JSON path")
    add_format(p)
    p.set_defaults(func=_cmd_cox_poly)

    p = sub.add_parser("from-poly", help="cycle type from a Coxeter polynomial")
    p.add_argument("--poly", required=True,
                   help="comma-separated coefficients, lowest degree first")
    p.add_argument("--c", type=int, required=True, help="corank")
    add_format(p)
    p.set_defaults(func=_cmd_from_poly)

    p = sub.add_parser("enumerate",
                       help="all Coxeter polynomials for n variables, corank c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("representative",
                       help="representative quivers realizing a cycle type")
    p.add_argument("--pi", required=True, help="partition, e.g. 3,2,2")
    p.add_argument("--d", type=int, default=0,
                   help="extra parallel-pair count (corank = length - 1 + 2d)")
    add_format(p)
    p.set_defaults(func=_cmd_representative)

    p = sub.add_parser("verify", help="exhaustive verification sweep")
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-arrows", type=int, default=5)
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized congruence checks")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except NotDynkinTypeA as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
