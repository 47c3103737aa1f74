"""Sweep orchestration tests: worker fan-out, deterministic merging, and
checks that record a failure when they are fed a wrong answer."""

import json
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxquiver.realize as realize_module
from coxquiver import sweep
from coxquiver.cli import main
from coxquiver.partitions import FactoredCoxPoly, Partition
from coxquiver.quiver import Quiver, iter_connected_quivers
from coxquiver.realize import RealizationResult
from coxquiver.unitform import UnitForm, form_of_quiver
from coxquiver.sweep import (
    SweepReport,
    _encode_gram,
    _phase1_units,
    _phase1_worker,
    _phase2_worker,
    run_sweep,
)

from dense import sparse_columns


def test_two_workers_match_one():
    serial = run_sweep(3, 4, seed=5, jobs=1)
    assert run_sweep(3, 4, seed=5, jobs=2).to_json() == serial.to_json()
    assert serial.ok()
    assert serial.realized_count == serial.form_count > 0


def test_form_checks_fire_on_a_wrong_cycle_type():
    # the linear quiver on 4 vertices has cycle type (4)
    blob = _encode_gram(sparse_columns(
        form_of_quiver(Quiver(4, ((1, 2), (2, 3), (3, 4)))).gram_upper))
    right = _phase2_worker((4, 3, [(blob, (4,))]))
    assert right.ok()
    assert right.form_count == 1
    # the spectral check reads the expansion of the class's own factored
    # polynomial, which the polynomial check ties to the Coxeter matrix
    wrong = _phase2_worker((4, 3, [(blob, (2, 2))]))
    for check in ("polynomial_factorization", "coxeter_numbers"):
        assert wrong.failure_counts[check] >= 1, check
        assert all(s.startswith("n=3 c=0 ") for s in wrong.failure_samples[check])


@st.composite
def triangular_grams(draw, max_n=8):
    """An upper unitriangular matrix with entries in [-2, 2] above the
    diagonal, the range of quiver Gram matrices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.integers(min_value=-2, max_value=2)
    return tuple(tuple(1 if j == i else draw(entry) if j > i else 0
                       for j in range(n)) for i in range(n))


@given(triangular_grams())
@settings(max_examples=200, deadline=None)
def test_the_key_is_the_dense_rows_plus_two(gram):
    """The key phase 1 writes from sparse columns is G row by row, 2 added
    to each entry: the order phase 2 takes the forms in, and the pinned
    ``verify`` output, depend on these bytes."""
    assert _encode_gram(sparse_columns(gram)) == bytes(
        x + 2 for row in gram for x in row)


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
        part = SweepReport(3, 4, quiver_count=10, form_count=2, realized_count=2)
        for k in range(12):
            part.record("coxeter_numbers", f"unit {unit} sample {k}")
        total.merge(part)
    assert total.failure_counts["coxeter_numbers"] == 36
    assert total.failure_samples["coxeter_numbers"] == (
        [f"unit 0 sample {k}" for k in range(12)]
        + [f"unit 1 sample {k}" for k in range(8)])
    assert (total.quiver_count, total.form_count) == (30, 6)
    assert total.realized_count == total.form_count == 6
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


def _move_first_inverse_arrow(products):
    """Inverse arrow 0 with its head moved to a vertex it does not touch, so
    it stays loop-less; at m >= 3 only, where there is such a vertex."""
    images, inverse_arrows = products
    if len(images) < 4:
        return products
    s, t = inverse_arrows[0]
    moved = min({1, 2, 3} - {s, t})
    return images, [(s, moved)] + inverse_arrows[1:]


def _swap_first_images(products):
    images, inverse_arrows = products
    return [images[0], images[2], images[1]] + images[3:], inverse_arrows


def _bump_last_prefix(prefixes_class, bump):
    """``_Prefixes`` with ``bump`` applied to its state after the last
    arrow, which every quiver of the walk builds anew."""
    class Bumped(prefixes_class):
        def _extend(self, arrows, j):
            super()._extend(arrows, j)
            if j == self.n - 1:
                bump(self)
    return Bumped


def _bump_gram_corner(prefixes):
    """Entry (1, n) of the prefix G, off the diagonal when n >= 2: the first
    pair of the last sparse column, or a new first pair (0, 1) when that
    entry is 0."""
    if prefixes.n >= 2:
        col = prefixes.gram_cols[-1]
        k, g = col[0]
        prefixes.gram_cols[-1] = ((0, g + 1),) + col[1:] if k == 0 else ((0, 1),) + col


def _bump_laplace_corner(prefixes):
    """Entry (1, m) of the prefix Laplace matrix, off the diagonal."""
    prefixes.laplace[-1] = _bump_corner(prefixes.laplace[-1])


def _double_laplace_row_and_column_1(prefixes):
    """The prefix Laplace matrix L as D L D, D = diag(2, 1, ..., 1): still
    symmetric, positive semidefinite and of rank m - 1, but its row 1 sums
    to 2 L_11, twice the degree of vertex 1, which is not 0 on a connected
    quiver."""
    rows = [[2 * row[0]] + list(row[1:]) for row in prefixes.laplace[-1]]
    rows[0] = [2 * x for x in rows[0]]
    prefixes.laplace[-1] = tuple(map(tuple, rows))


# route corrupted -> (name the sweep calls it by, corrupting wrapper, checks
# that must record a failure)
PHASE1_CORRUPTIONS = {
    "triangular Gram": (
        "_Prefixes", lambda route: _bump_last_prefix(route, _bump_gram_corner),
        {"matrix_identities"}),
    "inverse arrows": (
        "_prefix_products",
        lambda route: lambda q: _reverse_last_inverse_arrow(route(q)),
        {"matrix_identities"}),
    "inverse arrow moved": (
        "_prefix_products",
        lambda route: lambda q: _move_first_inverse_arrow(route(q)),
        {"matrix_identities"}),
    "Phi builder": (
        "_coxeter_matrix",
        lambda route: lambda arrows, inverse: _bump_corner(route(arrows, inverse)),
        {"matrix_identities"}),
    "Laplace": (
        "_Prefixes", lambda route: _bump_last_prefix(route, _bump_laplace_corner),
        {"laplace_kernel"}),
    # the rank stays m - 1, so only the row sums can fire
    "Laplace row sums": (
        "_Prefixes",
        lambda route: _bump_last_prefix(route, _double_laplace_row_and_column_1),
        {"laplace_kernel"}),
    # the Laplace matrix itself stays right, so only its rank can fire
    "Laplace rank": (
        "psd_rank", lambda route: lambda m: route(m) + 1, {"laplace_kernel"}),
    "xi": (
        "_prefix_products", lambda route: lambda q: _swap_first_images(route(q)),
        {"matrix_identities"}),
}

XI_IDENTITY_FAILURE = "Coxeter-Laplace matrix != walk permutation matrix"
INVERSE_FAILURE = "I(Q^-1) G != I(Q)"
COXETER_FAILURE = "the two Coxeter matrix formulas disagree"

# route -> the problems one of which every sample of its expected checks
# names, for the corruptions that pin a check by its message
PHASE1_MESSAGES = {
    "xi": (XI_IDENTITY_FAILURE,),
    "Laplace row sums": ("all-ones vector not in the kernel",),
    # a bumped G is read by both identities that use it, and raises nowhere
    "triangular Gram": (INVERSE_FAILURE, COXETER_FAILURE),
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
    monkeypatch.setattr(sweep, "_SAMPLE_CAP", 10 ** 6)  # keep every message
    report = _phase1_report(3, 4)
    fired = {check for check in PHASE1_CHECKS if report.failure_counts[check]}
    assert expected <= fired, (route, report.failure_counts)
    for check in fired:
        assert all(s.startswith("m=") for s in report.failure_samples[check])
    if route in PHASE1_MESSAGES:
        endings = tuple(f": {message}" for message in PHASE1_MESSAGES[route])
        for check in expected:
            assert all(s.endswith(endings) and "raised" not in s
                       for s in report.failure_samples[check])


@pytest.mark.parametrize("route, check, min_arrows", [
    ("triangular Gram", "matrix_identities", 2),
    ("Laplace", "laplace_kernel", 1),
    ("Laplace row sums", "laplace_kernel", 1),
])
def test_a_bumped_prefix_matrix_fails_every_quiver(monkeypatch, route, check,
                                                   min_arrows):
    """Phase 1's own G and Laplace matrix are checked too: one bumped entry
    off the diagonal fails its check on every quiver that has the entry,
    and no other check."""
    name, corrupt, _ = PHASE1_CORRUPTIONS[route]
    monkeypatch.setattr(sweep, name, corrupt(getattr(sweep, name)))
    records = set()
    monkeypatch.setattr(SweepReport, "record", lambda self, fired, message:
                        records.add((fired, message.split(": ")[0])))
    _phase1_report(3, 4)
    expected = {f"m={m} arrows={q.arrows}"
                for m in (2, 3) for n in range(min_arrows, 5)
                for _, q in iter_connected_quivers(m, n)}
    assert {label for _, label in records} == expected
    assert {fired for fired, _ in records} == {check}


def test_a_cycle_type_of_the_wrong_length_fails_membership_on_every_quiver(monkeypatch):
    # one more part 1 flips the parity of the length, which the corank then
    # does not admit
    route = sweep.cycle_type_of_permutation
    monkeypatch.setattr(sweep, "cycle_type_of_permutation",
                        lambda p: Partition(route(p).parts + (1,)))
    report = _phase1_report(3, 4)
    assert report.failure_counts["cycle_type_membership"] == report.quiver_count > 0
    assert report.total_failures == report.quiver_count
    assert all(s.startswith("m=") and " not admissible for corank " in s
               for s in report.failure_samples["cycle_type_membership"])


A3_ARROWS = ((1, 2), (2, 3))  # its inverse arrows are (1, 2) and (1, 3)
INVERSE_IDENTITY_FAILURE = f"m=3 arrows={A3_ARROWS}: {INVERSE_FAILURE}"


def _inverse_arrows_of_a3(inverse_arrows):
    """``_prefix_products`` with the inverse arrows of the quiver
    ``A3_ARROWS`` replaced by ``inverse_arrows``."""
    route = sweep._prefix_products

    def wrapped(q):
        images, right = route(q)
        return images, inverse_arrows if q.arrows == A3_ARROWS else right
    return wrapped


def test_a_moved_inverse_arrow_fails_the_inverse_identity(monkeypatch):
    monkeypatch.setattr(sweep, "_prefix_products",
                        _inverse_arrows_of_a3([(1, 3), (1, 3)]))
    report, _ = _phase1_worker((3, 2, -1, None))
    samples = report.failure_samples["matrix_identities"]
    # the inverse identity is checked before the builders that read the
    # inverse arrows, which fail too
    assert samples[0] == INVERSE_IDENTITY_FAILURE
    assert all(s.startswith(f"m=3 arrows={A3_ARROWS}: ") for s in samples)


@pytest.mark.parametrize("inverse_arrows", [
    [(1, 2)],                  # one arrow short
    [(1, 2), (1, 3), (2, 3)],  # one arrow too many
    [(1, 2), (0, 3)],          # an endpoint 0
    [(1, 2), (1, -1)],         # -1, which would index the entry of vertex 3
], ids=["short", "long", "vertex 0", "vertex -1"])
def test_a_malformed_inverse_arrow_list_fails_the_inverse_identity(
        monkeypatch, inverse_arrows):
    monkeypatch.setattr(sweep, "_prefix_products",
                        _inverse_arrows_of_a3(inverse_arrows))
    report, _ = _phase1_worker((3, 2, -1, None))
    assert INVERSE_IDENTITY_FAILURE in report.failure_samples["matrix_identities"]


@pytest.mark.parametrize("xi", [
    (2, 3),        # one image short
    (2, 3, 1, 4),  # one image too many
    (0, 3, 1),     # an image 0
    (2, 4, 1),     # an image past m
    (2, -1, 1),    # -1
], ids=["short", "long", "image 0", "image m + 1", "image -1"])
def test_a_malformed_xi_fails_the_xi_identity_without_raising(xi):
    gram_cols = sparse_columns(form_of_quiver(Quiver(3, A3_ARROWS)).gram_upper)
    assert sweep._inverse_and_xi_problems(
        3, A3_ARROWS, [(1, 2), (1, 3)], gram_cols, xi) == [XI_IDENTITY_FAILURE]
    assert sweep._inverse_and_xi_problems(
        3, A3_ARROWS, [(1, 2), (1, 3)], gram_cols, (2, 3, 1)) == []


def _bump_first_diagonal_entry(matrix):
    """``matrix`` with 1 added to its (1, 1) entry, which moves its trace
    and so the v^(n-1) coefficient of its characteristic polynomial."""
    rows = [list(row) for row in matrix]
    rows[0][0] += 1
    return tuple(tuple(row) for row in rows)


def _times_v_minus_one(poly):
    """The factored polynomial times (v - 1): one degree too many."""
    return FactoredCoxPoly(poly.nu_exponent + 1, poly.cycle_parts)


def _with_quiver(result, quiver):
    return RealizationResult(quiver, result.basis_change)


def _with_isolated_vertex(result):
    """The realized quiver with one more vertex, on no arrow: the same Gram
    matrix, and one more fixed point in the vertex permutation."""
    q = result.quiver
    return _with_quiver(result, Quiver(q.m + 1, q.arrows))


def _with_repeated_arrow(result):
    """The realized quiver with its last arrow once more: one variable more
    in its Gram matrix."""
    q = result.quiver
    return _with_quiver(result, Quiver(q.m, q.arrows + q.arrows[-1:]))


def _with_extra_variable(form):
    """The form with one more variable, on no entry: n + 1 variables."""
    return UnitForm(form.n + 1, form.upper)


# route corrupted -> (name the sweep calls it by, corrupting wrapper, checks
# that must record a failure on every form)
PHASE2_CORRUPTIONS = {
    "Coxeter matrix": (
        "_coxeter_matrix",
        lambda route: lambda arrows, inverse: _bump_first_diagonal_entry(
            route(arrows, inverse)),
        {"polynomial_factorization"}),
    "factored polynomial": (
        "coxeter_polynomial_of_cycle_type",
        lambda route: lambda ct, c: _times_v_minus_one(route(ct, c)),
        {"polynomial_factorization"}),
    "Phi of the Coxeter-number laws": (
        "coxeter_matrix_violations",
        lambda route: lambda phi, poly: route(_bump_first_diagonal_entry(phi), poly),
        {"coxeter_numbers"}),
    "realized quiver, vertices": (
        "realize", lambda route: lambda form: _with_isolated_vertex(route(form)),
        {"realization_roundtrip"}),
    "realized quiver, arrows": (
        "realize", lambda route: lambda form: _with_repeated_arrow(route(form)),
        {"realization_roundtrip"}),
    "form of the realized quiver": (
        "form_of_quiver",
        lambda route: lambda q: _with_extra_variable(route(q)),
        {"realization_roundtrip"}),
    "cycle type from the polynomial": (
        "cycle_type_from_cox_poly",
        lambda route: lambda poly, c: Partition(route(poly, c).parts + (1,)),
        {"polynomial_roundtrip"}),
    "spectral multiplicity": (
        "spectral_multiplicity_of_cycle_type",
        lambda route: lambda ct, c, d: route(ct, c, d) + 1,
        {"spectral_multiplicities"}),
    "inverse arrows of the realized quiver": (
        "_prefix_products",
        lambda route: lambda q: _reverse_last_inverse_arrow(route(q)),
        {"polynomial_factorization"}),
    "xi of the realized quiver": (
        "_prefix_products", lambda route: lambda q: _swap_first_images(route(q)),
        {"polynomial_factorization"}),
}

# route -> the one problem that every sample of its expected checks names
PHASE2_MESSAGES = {"xi of the realized quiver": XI_IDENTITY_FAILURE}


def _phase2_items(max_vertices, max_arrows):
    """The forms phase 1 collects from every unit, as phase 2 takes them."""
    forms = {}
    for unit in _phase1_units(max_vertices, max_arrows, None):
        forms.update(_phase1_worker(unit)[1])
    return sorted(forms.items())


def test_phase2_checks_pass_on_the_library_routes():
    report = _phase2_worker((3, 4, _phase2_items(3, 4)))
    assert report.form_count > 0
    assert report.total_failures == 0, report.failure_counts


@pytest.mark.parametrize("route", sorted(PHASE2_CORRUPTIONS))
def test_phase2_checks_fire_on_a_corrupted_route(monkeypatch, route):
    name, corrupt, expected = PHASE2_CORRUPTIONS[route]
    items = _phase2_items(3, 4)
    monkeypatch.setattr(sweep, name, corrupt(getattr(sweep, name)))
    # one form per worker call, so no memo carries a failure between forms
    for item in items:
        report = _phase2_worker((3, 4, [item]))
        fired = {check for check, count in report.failure_counts.items() if count}
        assert expected <= fired, (route, item, report.failure_counts)
        for check in fired:
            assert all(s.startswith("n=") for s in report.failure_samples[check])
        if route in PHASE2_MESSAGES:
            for check in expected:
                assert all(s.endswith(f": {PHASE2_MESSAGES[route]}")
                           for s in report.failure_samples[check])


def _class_of(item):
    blob, ct_parts = item
    return ct_parts, isqrt(len(blob)) - sum(ct_parts) + 1


def test_phase2_walks_the_powers_once_per_class(monkeypatch):
    items = _phase2_items(3, 4)
    calls = []
    route = sweep.coxeter_matrix_violations

    def counted(phi, poly):
        calls.append(poly)
        return route(phi, poly)

    monkeypatch.setattr(sweep, "coxeter_matrix_violations", counted)
    report = _phase2_worker((3, 4, items))
    assert report.ok(), report.failure_counts
    classes = {_class_of(item) for item in items}
    assert len(calls) == len(classes) < len(items)


def test_a_fault_in_one_form_after_the_first_of_its_class_is_its_own(monkeypatch):
    """The per-form identities see a fault in the inverse arrows of a form
    whose class an earlier form has walked already, and record it for that
    form alone."""
    items = _phase2_items(3, 4)
    seen = set()
    for blob, ct_parts in items:
        if _class_of((blob, ct_parts)) in seen:
            break
        seen.add(_class_of((blob, ct_parts)))
    route = sweep._prefix_products

    def faulty(q):
        products = route(q)
        if _encode_gram(sparse_columns(form_of_quiver(q).gram_upper)) == blob:
            return _reverse_last_inverse_arrow(products)
        return products

    monkeypatch.setattr(sweep, "_prefix_products", faulty)
    report = _phase2_worker((3, 4, items))
    samples = report.failure_samples["polynomial_factorization"]
    assert report.total_failures == len(samples) > 0, report.failure_counts
    n = isqrt(len(blob))
    gram = tuple(tuple(x - 2 for x in blob[i:i + n]) for i in range(0, n * n, n))
    label = f"n={n} c={_class_of((blob, ct_parts))[1]} gram={gram}"
    assert f"{label}: {INVERSE_FAILURE}" in samples
    assert all(s.startswith(f"{label}: ") for s in samples), samples


def test_phase2_round_trip_reads_the_cycle_type_of_an_extra_isolated_vertex(monkeypatch):
    """A realized quiver with one more vertex, on no arrow, is not
    connected; the round trip still reads its vertex permutation and
    reports the changed cycle type, not a raised exception."""
    items = _phase2_items(3, 4)
    route = sweep.realize
    monkeypatch.setattr(sweep, "realize",
                        lambda form: _with_isolated_vertex(route(form)))
    for item in items:
        report = _phase2_worker((3, 4, [item]))
        assert report.total_failures == 1, (item, report.failure_counts)
        [sample] = report.failure_samples["realization_roundtrip"]
        assert sample.endswith(": realization changed the cycle type"), sample


def test_phase2_round_trip_fires_on_a_wrong_basis_change_column(monkeypatch):
    """``realize`` checks each column of its basis change against an arrow
    of the canonical extension quiver; with the last canonical arrow
    reversed that check fails on every form, and the sweep records the
    failed realization."""
    items = _phase2_items(3, 4)
    route = realize_module.canonical_extension_quiver

    def last_arrow_reversed(r, c):
        q = route(r, c)
        return Quiver(q.m, q.arrows[:-1] + (q.arrows[-1][::-1],))

    monkeypatch.setattr(realize_module, "canonical_extension_quiver",
                        last_arrow_reversed)
    for item in items:
        report = _phase2_worker((3, 4, [item]))
        samples = report.failure_samples["realization_roundtrip"]
        assert len(samples) == 1 and "realization failed" in samples[0], item


FAULTY_ARROWS = ((1, 2), (1, 3), (2, 3))


def _raise_on_one_quiver(prefixes_class):
    """``_Prefixes`` that raises once it has built the quiver
    FAULTY_ARROWS, so the next quiver of the walk finds a whole state."""
    class Raising(prefixes_class):
        def rebuild(self, arrows, shared):
            super().rebuild(arrows, shared)
            if tuple(arrows) == FAULTY_ARROWS:
                raise RuntimeError("injected fault")
    return Raising


def test_a_route_that_raises_on_one_quiver_is_recorded_not_fatal(monkeypatch, capsys):
    clean = run_sweep(3, 4, seed=5)
    # ``_Prefixes`` runs in phase 1 alone; phase 2 realizes a form of (3, 4)
    # as the quiver FAULTY_ARROWS and runs the inverse-arrow identities on
    # it, so a fault in their builders would count twice
    monkeypatch.setattr(sweep, "_Prefixes", _raise_on_one_quiver(sweep._Prefixes))
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

    # the walk checks the polynomial first, so its raise counts against that
    monkeypatch.setattr(sweep, "coxeter_matrix_violations", boom)
    gram = form_of_quiver(Quiver(4, ((1, 2), (2, 3), (3, 4)))).gram_upper
    report = _phase2_worker((4, 3, [(_encode_gram(sparse_columns(gram)), (4,))]))
    assert report.failure_samples["polynomial_factorization"] == [
        f"n=3 c=0 gram={gram}: raised RuntimeError('injected fault')"]
    assert report.total_failures == 1


@pytest.mark.parametrize("bounds, jobs, message", [
    ((0, 3), 1, "max_vertices >= 1"),
    ((2, -1), 1, "max_arrows >= 0"),
    ((2, 1), 0, "jobs must be >= 1"),
], ids=["no vertex", "negative arrows", "no worker"])
def test_run_sweep_rejects_bounds_it_cannot_walk(bounds, jobs, message):
    with pytest.raises(ValueError, match=message):
        run_sweep(*bounds, jobs=jobs)


def _reverse_first_arrow(q):
    """``q`` with its first arrow reversed: another Gram matrix whenever
    that arrow shares a vertex with another."""
    return Quiver(q.m, (q.arrows[0][::-1],) + q.arrows[1:])


@pytest.mark.parametrize("route", [None, "relabel_vertices", "opposite"],
                         ids=["clean", "relabel_vertices", "opposite"])
def test_congruence_checks_run_on_every_quiver_at_rate_one(monkeypatch, route):
    # no work unit of (3, 4) reaches the default rate, so without the patch
    # not one congruence check would run
    monkeypatch.setattr(sweep, "_CONGRUENCE_SAMPLE_RATE", 1)
    if route is not None:
        wrapped = getattr(sweep, route)
        monkeypatch.setattr(sweep, route,
                            lambda q, *args: _reverse_first_arrow(wrapped(q, *args)))
    report = run_sweep(3, 4, seed=5)
    if route is None:
        assert report.ok(), report.failure_counts
    else:
        failures = report.failure_counts["congruence_invariance"]
        assert report.total_failures == failures > 0
        assert all(s.startswith("m=")
                   for s in report.failure_samples["congruence_invariance"])


def test_splitting_units_by_first_pair_keeps_the_report(monkeypatch):
    whole = run_sweep(3, 4, seed=5).to_json()
    monkeypatch.setattr(sweep, "_SPLIT_THRESHOLD", 10)
    # (2, n) stays whole, each (3, n) splits into its 6 first pairs
    assert len(_phase1_units(3, 4, None)) == 4 + 3 * 6
    assert run_sweep(3, 4, seed=5).to_json() == whole


def test_equal_forms_with_different_cycle_types_across_units_are_recorded(monkeypatch):
    monkeypatch.setattr(sweep, "_SPLIT_THRESHOLD", 10)
    worker = sweep._phase1_worker
    # the quivers of (3, 4) whose first arrow is (3, 1) give three forms,
    # each of which an earlier unit reports first; the last unit, first
    # arrow (3, 2), has no connected quiver
    misreported = (3, 4, 4, None)

    def misreporting(unit):
        report, forms = worker(unit)
        if unit == misreported:
            forms = {key: parts + (1,) for key, parts in forms.items()}
        return report, forms

    monkeypatch.setattr(sweep, "_phase1_worker", misreporting)
    report = run_sweep(3, 4)
    assert report.failure_samples["cycle_type_membership"] == [
        "equal forms with different cycle types across units"] * 3
    # phase 2 checks the cycle type reported first, which is right
    assert report.total_failures == 3
