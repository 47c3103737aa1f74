"""Command-line surface.

Every verb is a thin wrapper over one library entry point; no computation
lives here.  The parser is built once, at import, from the table ``_VERBS``;
a verb returns a JSON value and the lines of its table rendering, and
``main`` prints the one ``--format`` names.  Exit codes: 0 success, 1 domain
errors (for instance a form that is not of Dynkin type A), 2 usage errors
and malformed input, 3 internal invariant violations and any other
exception, 141 a closed output pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from itertools import groupby

from .errors import InvariantViolation, NotConnected
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
    """Malformed or oversized input (bad JSON, bad schema, bad inline
    parameter, an output integer too long to print)."""


def _load(path: str, cls: type, what: str):
    """The connected ``cls`` in the JSON document at ``path`` ('-' for stdin);
    ``NotConnected`` passes through, other faults become ``InputError``."""
    try:
        if path == "-":
            # the bytes, decoded strictly: in UTF-8 mode the text layer of
            # stdin would let invalid bytes through as surrogates
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's digit limit, or arrays
        # and objects nested past its recursion limit
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return cls.from_json(data, connected=True)
    except NotConnected:
        raise
    except ValueError as exc:
        raise InputError(f"bad {what} in {path}: {exc}") from exc


def _dumps(data) -> str:
    try:
        return json.dumps(data)
    except ValueError as exc:
        # an integer past the interpreter's digit limit for str(), the one
        # ValueError json.dumps raises on a verb's value
        raise InputError(
            "the output has an integer longer than the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from exc


def _form_from_args(args: argparse.Namespace) -> UnitForm:
    if args.form is not None:
        return _load(args.form, UnitForm, "unit form")
    return form_of_quiver(_load(args.quiver, Quiver, "quiver"))


def _at_least(low: int):
    """The argparse ``type=`` converter for an integer option that must be
    at least ``low``; a value out of range is a usage error, exit 2."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return convert


def _parse_ints(text: str, what: str, expected: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}: expected {expected}") from exc


def _parse_pi(text: str) -> Partition:
    parts = _parse_ints(text, "partition", "comma-separated integers")
    try:
        return Partition(tuple(sorted(parts, reverse=True)))
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}") from exc


def format_factored_poly(f: FactoredCoxPoly) -> str:
    """Factored rendering: (v^k-1) factors with a merged (v-1) power when the
    unit exponent is nonnegative, the nu-form otherwise (corank 0).  The
    parts are non-increasing, so one grouping gives each distinct part with
    its multiplicity."""
    groups = [(p, len(list(run))) for p, run in groupby(f.cycle_parts)]

    def power(base: str, k: int) -> str:
        return "" if k == 0 else base if k == 1 else f"{base}^{k}"

    if f.unit_exponent >= 0:
        ones = f.unit_exponent + sum(k for p, k in groups if p == 1)
        pieces = [power(f"(v^{p}-1)", k) for p, k in groups if p >= 2]
        return "".join(pieces) + power("(v-1)", ones) or "1"
    return power("(v-1)", f.nu_exponent) + "".join(
        [power(f"nu_{p}(v)", k) for p, k in groups])


def _format_coxeter_number(value: int | None) -> str:
    return INFINITY if value is None else str(value)


def _quiver_lines(q: Quiver, indent: str) -> list[str]:
    return [f"{indent}arrow {i}: {s} -> {t}" for i, (s, t) in enumerate(q.arrows, start=1)]


def _table_lines(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in [header, *rows]]


# ---------------------------------------------------------------------------
# verb implementations: each returns (JSON value, table lines), and verify
# also its exit code
# ---------------------------------------------------------------------------

def _cmd_invariants(args: argparse.Namespace) -> tuple:
    form = _form_from_args(args)
    ct, c = cycle_type_and_corank(form)
    poly = coxeter_polynomial_of_cycle_type(ct, c)
    numbers = coxeter_numbers_of_cycle_type(ct)
    data = {
        "n": form.n,
        "corank": c,
        "cycle_type": ct.to_json(),
        "coxeter_polynomial": poly.to_json(),
        **numbers.to_json(),
    }
    return data, [
        f"n: {form.n}",
        f"corank: {c}",
        f"cycle type: {ct}",
        f"Coxeter polynomial: {format_factored_poly(poly)}",
        f"Coxeter number: {_format_coxeter_number(numbers.coxeter_number)}",
        f"reduced Coxeter number: {numbers.reduced_coxeter_number}",
    ]


def _cmd_realize(args: argparse.Namespace) -> tuple:
    result = realize(_form_from_args(args))
    return result.to_json(), [
        f"vertices: {result.quiver.m}",
        *_quiver_lines(result.quiver, ""),
    ]


def _cmd_inverse(args: argparse.Namespace) -> tuple:
    inv = inverse_quiver(_load(args.quiver, Quiver, "quiver"))
    return inv.to_json(), [f"vertices: {inv.m}", *_quiver_lines(inv, "")]


def _cmd_cycle_type(args: argparse.Namespace) -> tuple:
    if args.quiver is not None:
        ct = cycle_type_of_quiver(_load(args.quiver, Quiver, "quiver"))
    else:
        ct = cycle_type_of_form(_load(args.form, UnitForm, "unit form"))
    return ct.to_json(), [str(ct)]


def _cmd_cox_poly(args: argparse.Namespace) -> tuple:
    poly = coxeter_polynomial(_form_from_args(args))
    return poly.to_json(), [format_factored_poly(poly)]


def _cmd_from_poly(args: argparse.Namespace) -> tuple:
    coeffs = _parse_ints(args.poly, "polynomial",
                         "comma-separated coefficients (lowest degree first)")
    ct = cycle_type_from_cox_poly(coeffs, args.c)
    return ct.to_json(), [str(ct)]


def _cmd_enumerate(args: argparse.Namespace) -> tuple:
    data, rows = [], []
    for p in enumerate_coxeter_polynomials(args.n, args.c):
        numbers = coxeter_numbers_of_cycle_type(p.partition())
        data.append({
            "partition": list(p.cycle_parts),
            "coxeter_polynomial": p.to_json(),
            **numbers.to_json(),
        })
        rows.append([
            str(p.partition()),
            format_factored_poly(p),
            _format_coxeter_number(numbers.coxeter_number),
            str(numbers.reduced_coxeter_number),
        ])
    header = ["Partition", "Coxeter polynomial", "Coxeter number",
              "Reduced Coxeter number"]
    return data, _table_lines(rows, header)


def _cmd_representative(args: argparse.Namespace) -> tuple:
    pi = _parse_pi(args.pi)
    a = representative_quiver_A(pi, args.d)
    star = representative_quiver_star(pi, args.d)
    lines = []
    for family, q in (("A-family", a), ("star-family", star)):
        lines += [f"{family} quiver ({q.m} vertices, {q.n} arrows):", *_quiver_lines(q, "  ")]
    return {"a_quiver": a.to_json(), "star_quiver": star.to_json()}, lines


def _cmd_verify(args: argparse.Namespace) -> tuple:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise InputError(f"--jobs must be between 1 and {cpus}, the CPU count")
    report = run_sweep(args.max_vertices, args.max_arrows, seed=args.seed,
                       jobs=args.jobs)
    lines = [f"swept {report.quiver_count} connected quivers "
             f"({report.form_count} distinct forms) with m <= {args.max_vertices}, "
             f"n <= {args.max_arrows}"]
    for check in CHECKS:
        count = report.failure_counts[check]
        status = "ok" if count == 0 else f"{count} FAILURES"
        lines.append(f"  {check}: {status}")
        lines += [f"    {sample}" for sample in report.failure_samples[check]]
    if report.ok():
        lines.append("all identities hold")
    return report.to_json(), lines, 0 if report.ok() else 3


# ---------------------------------------------------------------------------
# the verb table and the parser built from it
# ---------------------------------------------------------------------------

# verb: (function, help, options), an option being (flag, add_argument
# keywords).  A verb whose options are None reads a unit form through the
# required choice of --form or --quiver.  Every verb also takes --format.
_VERBS = {
    "invariants": (_cmd_invariants, "all invariants of a form or quiver", None),
    "realize": (_cmd_realize, "realize a unit form as a quiver", None),
    "inverse": (_cmd_inverse, "inverse quiver", [
        ("--quiver", {"required": True, "help": "quiver JSON path"}),
    ]),
    "cycle-type": (_cmd_cycle_type, "cycle type of a form or quiver", None),
    "cox-poly": (_cmd_cox_poly, "factored Coxeter polynomial", None),
    "from-poly": (_cmd_from_poly, "cycle type from a Coxeter polynomial", [
        ("--poly", {"required": True,
                    "help": "comma-separated coefficients, lowest degree first"}),
        ("--c", {"type": _at_least(0), "required": True, "help": "corank"}),
    ]),
    "enumerate": (_cmd_enumerate,
                  "all Coxeter polynomials for n variables, corank c", [
        ("--n", {"type": _at_least(1), "required": True}),
        ("--c", {"type": _at_least(0), "required": True}),
    ]),
    "representative": (_cmd_representative,
                       "representative quivers realizing a cycle type", [
        ("--pi", {"required": True, "help": "partition, e.g. 3,2,2"}),
        ("--d", {"type": _at_least(0), "default": 0,
                 "help": "extra parallel-pair count (corank = length - 1 + 2d)"}),
    ]),
    "verify": (_cmd_verify, "exhaustive verification sweep", [
        ("--max-vertices", {"type": _at_least(1), "default": 4}),
        ("--max-arrows", {"type": _at_least(0), "default": 5}),
        ("--seed", {"type": int, "default": None,
                    "help": "seed for randomized congruence checks"}),
        ("--jobs", {"type": int, "default": 1,
                    "help": "worker processes for the sweep"}),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxquiver",
        description="Cycle types, Coxeter polynomials and Coxeter numbers of "
                    "connected non-negative unit forms of Dynkin type A, via "
                    "quiver realizations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, help_text, options) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        if options is None:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--form", help="unit form JSON path ('-' for stdin)")
            group.add_argument("--quiver", help="quiver JSON path ('-' for stdin)")
        for flag, keywords in options or ():
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("json", "table"),
                       default="table" if verb == "verify" else "json")
        p.set_defaults(func=func)
    return parser


_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        data, lines, *status = args.func(args)
        text = _dumps(data) if args.format == "json" else "\n".join(lines)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of this program: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    try:
        print(text)
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): send the unflushed rest
        # to the null device so the flush at exit cannot raise again, and
        # exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
