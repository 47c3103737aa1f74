"""Sweep orchestration tests: worker fan-out, deterministic merging, and
checks that record a failure when they are fed a wrong answer."""

from coxquiver.quiver import Quiver, triangular_gram
from coxquiver.realize import STRATEGY
from coxquiver.sweep import SweepReport, _encode_gram, _phase2_worker, run_sweep


def test_two_workers_match_one():
    serial = run_sweep(3, 4, seed=5, jobs=1)
    assert run_sweep(3, 4, seed=5, jobs=2).to_json() == serial.to_json()
    assert serial.ok()
    assert serial.strategy_counts == {STRATEGY: serial.form_count}


def test_form_checks_fire_on_a_wrong_cycle_type():
    # the linear quiver on 4 vertices has cycle type (4)
    blob = _encode_gram(triangular_gram(Quiver(4, ((1, 2), (2, 3), (3, 4)))))
    right = _phase2_worker((4, 3, [(blob, (4,))]))
    assert right.ok()
    assert right.form_count == 1
    wrong = _phase2_worker((4, 3, [(blob, (2, 2))]))
    for check in ("polynomial_factorization", "coxeter_numbers",
                  "spectral_multiplicities"):
        assert wrong.failure_counts[check] >= 1, check
        assert all(s.startswith("n=3 c=0 ") for s in wrong.failure_samples[check])


def test_record_keeps_the_first_twenty_samples():
    report = SweepReport(3, 4)
    for k in range(25):
        report.record("coxeter_numbers", f"sample {k}")
    assert report.failure_counts["coxeter_numbers"] == 25
    assert report.failure_samples["coxeter_numbers"] == [
        f"sample {k}" for k in range(20)]


def test_merge_keeps_the_first_samples_in_submission_order():
    total = SweepReport(3, 4)
    for unit in range(3):
        part = SweepReport(3, 4, quiver_count=10, form_count=2,
                           strategy_counts={STRATEGY: 2})
        for k in range(12):
            part.record("coxeter_numbers", f"unit {unit} sample {k}")
        total.merge(part)
    assert total.failure_counts["coxeter_numbers"] == 36
    assert total.failure_samples["coxeter_numbers"] == (
        [f"unit 0 sample {k}" for k in range(12)]
        + [f"unit 1 sample {k}" for k in range(8)])
    assert (total.quiver_count, total.form_count) == (30, 6)
    assert total.strategy_counts == {STRATEGY: 6}
    assert total.total_failures == 36
