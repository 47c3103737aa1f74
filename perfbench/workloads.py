"""The benchmark's workloads: seeded input documents, the timed operation
on each input, and an oracle that checks every output.

Every input comes from ``random.Random`` seeded with a string built from the
run's seed, the workload name and the pass index, so one seed always yields
the same documents.  Sizes follow a fixed ladder in every pass and the seed
picks only structure (spanning trees, extra arrows, orientations, arrow and
variable orders, signs); this keeps the latency distribution of one seed
comparable with that of another.

Oracles are computed with this file's own code (walks, Gram entries,
polynomial products) from the generating data, never by the package path
that is being timed.  Operations call the package through module attributes
(``cli.main``, ``quiver.inverse_quiver``, ...) so that a tracer that wraps
those attributes sees every call.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import gcd

from coxquiver import cli, linalg, quiver, sweep


@dataclass(frozen=True)
class Item:
    """One operation's input: the document the program sees, the argument
    the operation is called with, and what the oracle expects."""

    doc: str
    arg: object
    expected: object


# ---------------------------------------------------------------------------
# oracle helpers, independent of the package
# ---------------------------------------------------------------------------

def random_connected_arrows(rng: random.Random, m: int, n: int) -> tuple:
    """Arrows of a connected loop-less quiver on 1..m with n >= m - 1
    arrows: a random spanning tree with random orientations plus random
    extra arrows (parallel ones allowed), in shuffled order."""
    labels = list(range(1, m + 1))
    rng.shuffle(labels)
    arrows = []
    for k in range(1, m):
        u, v = labels[k], labels[rng.randrange(k)]
        arrows.append((u, v) if rng.random() < 0.5 else (v, u))
    while len(arrows) < n:
        s, t = rng.sample(range(1, m + 1), 2)
        arrows.append((s, t))
    rng.shuffle(arrows)
    return tuple(arrows)


def gram_upper_entries(arrows) -> list[list[int]]:
    """Nonzero strictly upper entries [i, j, g_ij] (1-based) of the
    triangular Gram matrix: inner products of incidence columns."""
    entries = []
    for i, (a, b) in enumerate(arrows):
        for j in range(i + 1, len(arrows)):
            c, d = arrows[j]
            dot = (a == c) + (b == d) - (a == d) - (b == c)
            if dot:
                entries.append([i + 1, j + 1, dot])
    return entries


def walk_cycle_type(m: int, arrows) -> tuple[int, ...]:
    """Cycle type of the vertex permutation: each vertex goes to the end of
    the walk that starts on its largest incident arrow and then always takes
    the largest incident arrow smaller than the one just used."""
    incident = [[] for _ in range(m + 1)]
    for i, (s, t) in enumerate(arrows, start=1):
        incident[s].append(i)
        incident[t].append(i)
    image = list(range(m + 1))
    for v in range(1, m + 1):
        if not incident[v]:
            continue
        vertex, cur = v, incident[v][-1]
        while True:
            s, t = arrows[cur - 1]
            vertex = t if s == vertex else s
            smaller = [i for i in incident[vertex] if i < cur]
            if not smaller:
                break
            cur = smaller[-1]
        image[v] = vertex
    seen = [False] * (m + 1)
    parts = []
    for v in range(1, m + 1):
        length = 0
        while not seen[v]:
            seen[v] = True
            v = image[v]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def coxeter_dense(corank: int, parts: tuple[int, ...]) -> list[int]:
    """Coefficients, lowest degree first, of (v-1)^(c + l - 1) times the
    product of 1 + v + ... + v^(p-1) over the parts p; this equals
    (v-1)^(c-1) prod (v^p - 1), also for c = 0."""
    out = [1]
    for _ in range(corank + len(parts) - 1):
        out = _poly_mul(out, [-1, 1])
    for p in parts:
        out = _poly_mul(out, [1] * p)
    return out


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def expected_invariants(n: int, m: int, parts: tuple[int, ...]) -> dict:
    """What ``invariants`` must print for a connected type-A form with n
    variables realized on m vertices with the given cycle type."""
    c = n - m + 1
    return {
        "n": n,
        "corank": c,
        "cycle_type": list(parts),
        "coxeter_polynomial": {
            "unit_exponent": c - 1,
            "cycle_parts": list(parts),
            "dense": coxeter_dense(c, parts),
        },
        "coxeter_number": parts[0] if len(parts) == 1 else None,
        "reduced_coxeter_number": _lcm(parts),
    }


# ---------------------------------------------------------------------------
# in-process CLI calls
# ---------------------------------------------------------------------------

def call_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Run ``cli.main(argv)`` with the document on stdin; returns the exit
    code and stdout.  Diagnostics on stderr are discarded."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """``batch(p)`` gives pass p's inputs, ``run`` is the timed operation
    and ``check`` returns None or a description of the disagreement."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, pass_index: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{pass_index}")

    def batch(self, pass_index: int) -> list[Item]:
        raise NotImplementedError

    def run(self, arg: object) -> object:
        raise NotImplementedError

    def check(self, item: Item, output: object) -> str | None:
        raise NotImplementedError


class SweepWorkload(Workload):
    """``run_sweep(4, 6, seed, jobs=1)``: the verification engine, phases 1
    and 2, as ``verify --max-vertices 4 --max-arrows 6 --jobs 1``."""

    name = "sweep"
    MAX_VERTICES = 4
    MAX_ARROWS = 6
    QUIVERS = 15437
    FORMS = 7816

    def batch(self, pass_index: int) -> list[Item]:
        arg = {"max_vertices": self.MAX_VERTICES, "max_arrows": self.MAX_ARROWS,
               "seed": self.seed, "jobs": 1}
        return [Item(json.dumps(arg), arg, (self.QUIVERS, self.FORMS))]

    def run(self, arg: dict) -> object:
        return sweep.run_sweep(arg["max_vertices"], arg["max_arrows"],
                               seed=arg["seed"], jobs=arg["jobs"])

    def check(self, item: Item, output) -> str | None:
        got = (output.quiver_count, output.form_count)
        if got != item.expected:
            return f"swept {got} (quivers, forms), expected {item.expected}"
        if output.total_failures:
            return f"{output.total_failures} identity failures"
        return None


class FormsWorkload(Workload):
    """Type-A forms of random connected quivers, m = 8..24 vertices and
    m - 1 <= n <= 2m arrows in shuffled order; one operation is
    ``invariants --form -`` then ``realize --form -``."""

    name = "forms"
    # 35 steps: every m from 8 to 24 about twice, n spread over m-1..2m.
    SIZES = tuple((m, m - 1 + 11 * k % (m + 2))
                  for k, m in enumerate(8 + 16 * k // 34 for k in range(35)))

    def batch(self, pass_index: int) -> list[Item]:
        rng = self.rng(pass_index)
        items = []
        for m, n in self.SIZES:
            arrows = random_connected_arrows(rng, m, n)
            upper = gram_upper_entries(arrows)
            doc = json.dumps({"n": n, "upper": upper})
            expected = (m, upper, expected_invariants(n, m, walk_cycle_type(m, arrows)))
            items.append(Item(doc, doc, expected))
        return items

    def run(self, doc: str) -> object:
        return (call_cli(["invariants", "--form", "-"], doc),
                call_cli(["realize", "--form", "-"], doc))

    def check(self, item: Item, output) -> str | None:
        (inv_code, inv_out), (real_code, real_out) = output
        m, upper, invariants = item.expected
        if inv_code != 0 or real_code != 0:
            return f"exit codes {inv_code}, {real_code}, expected 0, 0"
        got = json.loads(inv_out)
        wrong = [key for key, value in invariants.items() if got.get(key) != value]
        if wrong:
            return f"invariants disagree on {wrong}"
        realized = json.loads(real_out)["quiver"]
        arrows = [tuple(a) for a in realized["arrows"]]
        if realized["vertices"] != m or any(
            not (1 <= s <= m and 1 <= t <= m and s != t) for s, t in arrows
        ):
            return f"realized quiver is not a loop-less quiver on {m} vertices"
        if gram_upper_entries(arrows) != upper:
            return "realized quiver's triangular Gram matrix differs from the form"
        return None


def _tree_edges(family: str, size: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin or Euclidean tree on vertices 0..N-1.

    D_n: a path of n - 1 vertices plus a leaf on its second-to-last vertex.
    E_n: arms of lengths 1, 2 and n - 4 at a centre.  D~_n: a path of
    n - 1 vertices with an extra leaf on its second and on its
    second-to-last vertex (n + 1 vertices).  E~_6, E~_7, E~_8: arms
    (2, 2, 2), (1, 3, 3) and (1, 2, 5) at a centre.
    """
    if family in ("D", "Dt"):
        path = [(i, i + 1) for i in range(size - 2)]
        if family == "D":
            return path + [(size - 3, size - 1)]
        return path + [(1, size - 1), (size - 3, size)]
    arms = {("E", 6): (1, 2, 2), ("E", 7): (1, 2, 3), ("E", 8): (1, 2, 4),
            ("Et", 6): (2, 2, 2), ("Et", 7): (1, 3, 3), ("Et", 8): (1, 2, 5)}
    edges, nxt = [], 1
    for length in arms[family, size]:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


class RejectWorkload(Workload):
    """Non-negative forms not of type A: D_4..D_20, E_6..E_8, D~_4..D~_20
    and E~_6..E~_8, in random variable order with random edge signs; one
    operation is ``invariants --form -``, which must exit 1."""

    name = "reject"
    SHAPES = ([("D", n) for n in range(4, 21)] + [("E", n) for n in (6, 7, 8)]
              + [("Dt", n) for n in range(4, 21)] + [("Et", n) for n in (6, 7, 8)])

    def batch(self, pass_index: int) -> list[Item]:
        rng = self.rng(pass_index)
        items = []
        for family, size in self.SHAPES:
            edges = _tree_edges(family, size)
            count = len(edges) + 1
            order = list(range(1, count + 1))
            rng.shuffle(order)
            upper = sorted(
                [min(order[a], order[b]), max(order[a], order[b]), rng.choice((-1, 1))]
                for a, b in edges
            )
            doc = json.dumps({"n": count, "upper": upper})
            items.append(Item(doc, doc, f"{family}_{size}"))
        return items

    def run(self, doc: str) -> object:
        return call_cli(["invariants", "--form", "-"], doc)

    def check(self, item: Item, output) -> str | None:
        code, out = output
        if code != 1 or out:
            return f"{item.expected}: exit code {code} with stdout {out[:60]!r}, expected 1 and nothing"
        return None


class SpectraWorkload(Workload):
    """Random connected quivers along a size ladder with m = 12..39 and
    n = 11..56; one operation is the cycle type, the inverse quiver, the
    Coxeter matrix and its characteristic polynomial."""

    name = "spectra"
    # n grows geometrically over 25 steps, so latency (about n^4 for
    # char_poly) does too; with an odd step count the median and the 90th
    # percentile fall inside a step, not between two.
    SIZES = tuple((max(12, min(40, round(0.7 * n))), n)
                  for n in (round(11 * (56 / 11) ** (k / 24)) for k in range(25)))

    def batch(self, pass_index: int) -> list[Item]:
        rng = self.rng(pass_index)
        items = []
        for m, n in self.SIZES:
            arrows = random_connected_arrows(rng, m, n)
            data = {"vertices": m, "arrows": [list(a) for a in arrows]}
            parts = walk_cycle_type(m, arrows)
            items.append(Item(json.dumps(data), quiver.Quiver.from_json(data),
                              (m, n, parts, coxeter_dense(n - m + 1, parts))))
        return items

    def run(self, q) -> object:
        cycle_type = quiver.cycle_type_of_quiver(q)
        inverse = quiver.inverse_quiver(q)
        phi = quiver.coxeter_matrix_of_quiver(q)
        return cycle_type, inverse, phi, linalg.char_poly(phi)

    def check(self, item: Item, output) -> str | None:
        cycle_type, inverse, phi, poly = output
        m, n, parts, dense = item.expected
        if cycle_type.parts != parts:
            return f"cycle type {cycle_type.parts}, walks give {parts}"
        if (inverse.m, inverse.n) != (m, n) or len(phi) != n:
            return "inverse quiver or Coxeter matrix has the wrong size"
        if list(poly) != dense:
            return "factored Coxeter polynomial does not expand to char_poly"
        return None


WORKLOADS = {w.name: w for w in (SweepWorkload, FormsWorkload, RejectWorkload,
                                 SpectraWorkload)}
