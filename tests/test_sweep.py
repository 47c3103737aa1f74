"""Sweep orchestration tests: worker fan-out and deterministic merging."""

from coxquiver.realize import STRATEGY
from coxquiver.sweep import run_sweep


def test_two_workers_match_one():
    serial = run_sweep(3, 4, seed=5, jobs=1)
    assert run_sweep(3, 4, seed=5, jobs=2).to_json() == serial.to_json()
    assert serial.ok()
    assert serial.strategy_counts == {STRATEGY: serial.form_count}
