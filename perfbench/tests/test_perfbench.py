"""Tests of the benchmark's generators, oracles and trace accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random

import pytest

import run
from workloads import WORKLOADS, walk_cycle_type, random_connected_arrows

from coxquiver.quiver import Quiver, cycle_type_of_quiver
from coxquiver.unitform import UnitForm, corank, is_non_negative


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_documents(name):
    def docs(seed):
        workload = WORKLOADS[name](seed)
        return b"".join(item.doc.encode() for p in range(3) for item in workload.batch(p))

    assert docs(11) == docs(11)
    assert docs(11) != docs(12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reject_families_are_non_negative(seed):
    for item in WORKLOADS["reject"](seed).batch(0):
        form = UnitForm.from_json(json.loads(item.doc))
        assert is_non_negative(form), item.expected
        euclidean = item.expected.startswith(("Dt", "Et"))
        assert corank(form) == (1 if euclidean else 0), item.expected


def test_walk_oracle_matches_the_package():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 12)
        arrows = random_connected_arrows(rng, m, rng.randint(m - 1, 2 * m))
        assert walk_cycle_type(m, arrows) == cycle_type_of_quiver(Quiver(m, arrows)).parts


@pytest.mark.parametrize("name", ["forms", "reject", "spectra"])
def test_oracles_accept_the_program_and_reject_a_wrong_output(name):
    workload = WORKLOADS[name](3)
    item = workload.batch(0)[0]
    output = workload.run(item.arg)
    assert workload.check(item, output) is None
    if name == "forms":
        (code, text), realized = output
        wrong = json.loads(text)
        wrong["cycle_type"] = wrong["cycle_type"][::-1] + [1]
        output = ((code, json.dumps(wrong)), realized)
    elif name == "reject":
        output = (0, "{}")
    else:
        output = output[:3] + (tuple(x + 1 for x in output[3]),)
    assert workload.check(item, output) is not None


def test_traced_self_times_account_for_the_traced_wall_time():
    workload = WORKLOADS["forms"](4)
    (plain, traced), metrics, _ = run.per_layer(workload, 0.2)
    assert not plain.failures and not traced.failures
    assert traced.operations == plain.operations
    module_self = [metrics[f"{m}.self_s"][0] for m in run.MODULES]
    assert all(value >= 0 for value in module_self)
    bench = metrics["bench.self_s"][0]
    assert bench >= 0
    assert sum(module_self) + bench == pytest.approx(traced.wall, rel=1e-6)
    # the package spans lie inside the timed operations
    assert sum(module_self) <= traced.busy() <= traced.wall
    assert metrics["cli.calls"][0] >= 2 * traced.operations
