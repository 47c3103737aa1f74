"""Sweep orchestration tests: worker fan-out, deterministic merging, and
checks that record a failure when they are fed a wrong answer."""

import json

import pytest

from coxquiver import sweep
from coxquiver.cli import main
from coxquiver.quiver import Quiver, triangular_gram
from coxquiver.realize import STRATEGY
from coxquiver.sweep import (
    SweepReport,
    _encode_gram,
    _phase1_units,
    _phase1_worker,
    _phase2_worker,
    run_sweep,
)


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


PHASE1_CHECKS = ("matrix_identities", "laplace_kernel", "cycle_type_membership")


def _bump_corner(matrix):
    """``matrix`` with 1 added to its top-right entry, if that entry is off
    the diagonal (a triangular Gram matrix keeps its unit diagonal)."""
    if len(matrix[0]) < 2:
        return matrix
    rows = [list(row) for row in matrix]
    rows[0][-1] += 1
    return tuple(tuple(row) for row in rows)


def _reverse_last_inverse_arrow(products):
    images, inverse_arrows = products
    return images, inverse_arrows[:-1] + [inverse_arrows[-1][::-1]]


def _swap_first_images(products):
    images, inverse_arrows = products
    return [images[0], images[2], images[1]] + images[3:], inverse_arrows


# route corrupted -> (name the sweep calls it by, corrupting wrapper, checks
# that must record a failure)
PHASE1_CORRUPTIONS = {
    "triangular Gram": (
        "triangular_gram", lambda route: lambda q: _bump_corner(route(q)),
        {"matrix_identities"}),
    "inverse arrows": (
        "_prefix_products",
        lambda route: lambda q: _reverse_last_inverse_arrow(route(q)),
        {"matrix_identities"}),
    "Phi builder": (
        "_coxeter_matrix",
        lambda route: lambda arrows, inverse: _bump_corner(route(arrows, inverse)),
        {"matrix_identities"}),
    "Laplace": (
        "laplace", lambda route: lambda q: _bump_corner(route(q)),
        {"matrix_identities", "laplace_kernel"}),
    "Coxeter-Laplace": (
        "_coxeter_laplace",
        lambda route: lambda m, arrows, inverse: _bump_corner(
            route(m, arrows, inverse)),
        {"matrix_identities"}),
    "xi": (
        "_prefix_products", lambda route: lambda q: _swap_first_images(route(q)),
        {"matrix_identities"}),
}


def _phase1_report(max_vertices, max_arrows):
    total = SweepReport(max_vertices, max_arrows)
    for unit in _phase1_units(max_vertices, max_arrows, None):
        part, _ = _phase1_worker(unit)
        total.merge(part)
    return total


@pytest.mark.parametrize("route", sorted(PHASE1_CORRUPTIONS))
def test_phase1_checks_fire_on_a_corrupted_route(monkeypatch, route):
    name, corrupt, expected = PHASE1_CORRUPTIONS[route]
    monkeypatch.setattr(sweep, name, corrupt(getattr(sweep, name)))
    report = _phase1_report(3, 4)
    fired = {check for check in PHASE1_CHECKS if report.failure_counts[check]}
    assert expected <= fired, (route, report.failure_counts)
    for check in fired:
        assert all(s.startswith("m=") for s in report.failure_samples[check])


def _bump_constant_term(poly):
    return (poly[0] + 1,) + poly[1:]


def _bump_first_diagonal_entry(matrix):
    """``matrix`` with 1 added to its (1, 1) entry, which moves its trace
    and so the v^(n-1) coefficient of its characteristic polynomial."""
    rows = [list(row) for row in matrix]
    rows[0][0] += 1
    return tuple(tuple(row) for row in rows)


# route corrupted -> (name the sweep calls it by, corrupting wrapper, checks
# that must record a failure on every form)
PHASE2_CORRUPTIONS = {
    "char_poly": (
        "char_poly", lambda route: lambda m: _bump_constant_term(route(m)),
        {"polynomial_factorization"}),
    "Coxeter matrix": (
        "coxeter_matrix",
        lambda route: lambda form: _bump_first_diagonal_entry(route(form)),
        {"polynomial_factorization"}),
}


def _phase2_report(max_vertices, max_arrows):
    """Phase 2 of the sweep on the forms phase 1 collects from every unit."""
    forms = {}
    for unit in _phase1_units(max_vertices, max_arrows, None):
        forms.update(_phase1_worker(unit)[1])
    return _phase2_worker((max_vertices, max_arrows, sorted(forms.items())))


def test_phase2_checks_pass_on_the_library_routes():
    report = _phase2_report(3, 4)
    assert report.form_count > 0
    assert report.total_failures == 0, report.failure_counts


@pytest.mark.parametrize("route", sorted(PHASE2_CORRUPTIONS))
def test_phase2_checks_fire_on_a_corrupted_route(monkeypatch, route):
    name, corrupt, expected = PHASE2_CORRUPTIONS[route]
    monkeypatch.setattr(sweep, name, corrupt(getattr(sweep, name)))
    report = _phase2_report(3, 4)
    fired = {check for check, count in report.failure_counts.items() if count}
    assert expected <= fired, (route, report.failure_counts)
    for check in expected:
        assert report.failure_counts[check] == report.form_count, check
    for check in fired:
        assert all(s.startswith("n=") for s in report.failure_samples[check])


FAULTY_ARROWS = ((1, 2), (1, 3), (2, 3))


def _raise_on_one_quiver(route):
    def wrapped(arrows, inverse_arrows):
        if arrows == FAULTY_ARROWS:
            raise RuntimeError("injected fault")
        return route(arrows, inverse_arrows)
    return wrapped


def test_a_route_that_raises_on_one_quiver_is_recorded_not_fatal(monkeypatch, capsys):
    clean = run_sweep(3, 4, seed=5)
    monkeypatch.setattr(sweep, "_coxeter_matrix",
                        _raise_on_one_quiver(sweep._coxeter_matrix))
    faulty = run_sweep(3, 4, seed=5)
    assert faulty.quiver_count == clean.quiver_count
    assert faulty.failure_samples["matrix_identities"] == [
        f"m=3 arrows={FAULTY_ARROWS}: raised RuntimeError('injected fault')"]
    assert faulty.total_failures == 1

    code = main(["verify", "--max-vertices", "3", "--max-arrows", "4",
                 "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data.keys() == clean.to_json().keys()
    assert data["failure_counts"]["matrix_identities"] == 1


def test_a_form_check_that_raises_is_recorded_against_that_check(monkeypatch):
    def boom(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(sweep, "coxeter_number_violations", boom)
    gram = triangular_gram(Quiver(4, ((1, 2), (2, 3), (3, 4))))
    report = _phase2_worker((4, 3, [(_encode_gram(gram), (4,))]))
    assert report.failure_samples["coxeter_numbers"] == [
        f"n=3 c=0 gram={gram}: raised RuntimeError('injected fault')"]
    assert report.total_failures == 1
