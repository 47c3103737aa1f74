"""The package's record classes behave as values.

Partition, FactoredCoxPoly, Quiver, UnitForm, RealizationResult and
CoxeterNumbers are immutable: built by keyword or by position, equal and
hashed by value, equal to nothing of another class, printed as
``Name(field=value, ...)``, closed to assignment and deletion, and carried
through ``pickle`` and ``copy.deepcopy``.  Their constructors reject
malformed values with fixed messages.  SweepReport is the one mutable
record: equal by value but unhashable, and it crosses process boundaries.
"""

import copy
import json
import pickle
from types import SimpleNamespace

import pytest

from coxquiver.invariants import CoxeterNumbers
from coxquiver.partitions import FactoredCoxPoly, Partition
from coxquiver.quiver import Quiver
from coxquiver.realize import RealizationResult
from coxquiver.sweep import CHECKS, SweepReport, run_sweep
from coxquiver.unitform import UnitForm

PATH = Quiver(3, ((1, 2), (2, 3)))

# class -> (field values in declaration order, other values of the same
# fields, expected repr of the first)
FROZEN = {
    Partition: (
        {"parts": (3, 1)}, {"parts": (2, 2)},
        "Partition(parts=(3, 1))"),
    FactoredCoxPoly: (
        {"nu_exponent": 2, "cycle_parts": (3, 1)},
        {"nu_exponent": 1, "cycle_parts": (3, 1)},
        "FactoredCoxPoly(nu_exponent=2, cycle_parts=(3, 1))"),
    Quiver: (
        {"m": 3, "arrows": ((1, 2), (2, 3))}, {"m": 3, "arrows": ((1, 2), (3, 2))},
        "Quiver(m=3, arrows=((1, 2), (2, 3)))"),
    UnitForm: (
        {"n": 2, "upper": ((1, 2, -1),)},
        {"n": 2, "upper": ((1, 2, 1),)},
        "UnitForm(n=2, upper=((1, 2, -1),))"),
    RealizationResult: (
        {"quiver": PATH, "basis_change": ((1, 0), (0, 1))},
        {"quiver": PATH, "basis_change": ((1, 1), (0, 1))},
        "RealizationResult(quiver=Quiver(m=3, arrows=((1, 2), (2, 3))), "
        "basis_change=((1, 0), (0, 1)))"),
    CoxeterNumbers: (
        {"coxeter_number": None, "reduced_coxeter_number": 6},
        {"coxeter_number": 6, "reduced_coxeter_number": 6},
        "CoxeterNumbers(coxeter_number=None, reduced_coxeter_number=6)"),
}

@pytest.fixture(params=list(FROZEN), ids=[cls.__name__ for cls in FROZEN])
def case(request):
    cls = request.param
    values, other, text = FROZEN[cls]
    return cls, values, other, text


def test_keyword_and_positional_construction_agree(case):
    cls, values, _, _ = case
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    assert by_keyword == by_position
    for name, value in values.items():
        assert getattr(by_keyword, name) == value


def test_equality_and_hash_are_by_value(case):
    cls, values, other, _ = case
    first, second = cls(**values), cls(**copy.deepcopy(values))
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert cls(**other) != first


def test_an_object_of_another_class_with_equal_values_is_unequal(case):
    cls, values, _, _ = case
    record = cls(**values)
    assert record != tuple(values.values())
    assert record != SimpleNamespace(**values)
    assert record != list(values.values())


def test_repr_names_every_field(case):
    cls, values, _, text = case
    assert repr(cls(**values)) == text


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, values, _, _ = case
    record = cls(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_pickle_and_deepcopy_round_trip(case):
    cls, values, _, _ = case
    record = cls(**values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is cls
        assert restored == record and hash(restored) == hash(record)
    for clone in (copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls
        assert clone == record


def test_a_realization_result_carries_the_quiver_and_basis_change_alone():
    record = RealizationResult(PATH, ((1, 0), (0, 1)))
    assert RealizationResult.__slots__ == ("quiver", "basis_change")
    assert record.__reduce__() == (RealizationResult, (PATH, ((1, 0), (0, 1))))
    clone = copy.deepcopy(record)
    assert (clone.quiver, clone.basis_change) == (PATH, ((1, 0), (0, 1)))
    with pytest.raises(TypeError):
        RealizationResult(PATH, ((1, 0), (0, 1)), "breadth_first")


def test_records_are_not_json_arrays(case):
    cls, values, _, _ = case
    with pytest.raises(TypeError):
        json.dumps(cls(**values))


INVALID = [
    (Partition, ((),), "a partition has at least one part"),
    (Partition, ((2, 0),), "partition parts must be positive"),
    (Partition, ((1, 2),), "partition parts must be non-increasing"),
    (FactoredCoxPoly, (-1, (2,)), "nu-form exponent must be nonnegative"),
    (FactoredCoxPoly, (1, ()), "a partition has at least one part"),
    (FactoredCoxPoly, (1, (1, 3)), "partition parts must be non-increasing"),
    (Quiver, (0, ()), "a quiver needs at least one vertex"),
    (Quiver, (2, ((1, 2), (1, 3))), "arrow 2 endpoint out of range: (1, 3)"),
    (Quiver, (2, ((0, 1),)), "arrow 1 endpoint out of range: (0, 1)"),
    (Quiver, (3, ((1, 2), (3, 3))), "arrow 2 is a loop at vertex 3"),
    (UnitForm, (0, ()), "a unit form needs at least one variable"),
    (UnitForm, (2, ((1, 2),)), "'upper' must be a list of [i, j, value] triples"),
    (UnitForm, (2, ((1, 2, True),)),
     "'upper' must be a list of [i, j, value] triples"),
    (UnitForm, (2, ((2, 1, -1),)), "entry (2, 1) is not strictly upper triangular"),
    (UnitForm, (2, ((1, 2, -1), (1, 2, 2))), "entry (1, 2) is given twice"),
    (CoxeterNumbers, (None, 0), "reduced Coxeter number must be positive"),
    (CoxeterNumbers, (3, 6), "a finite Coxeter number equals the reduced one"),
]


@pytest.mark.parametrize("cls, args, message", INVALID,
                         ids=[f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(INVALID)])
def test_malformed_values_are_rejected_with_the_same_message(cls, args, message):
    with pytest.raises(ValueError) as raised:
        cls(*args)
    assert str(raised.value) == message


# SweepReport: mutable, equal by value, unhashable


def test_sweep_report_defaults_and_keyword_construction():
    report = SweepReport(3, 4)
    assert (report.max_vertices, report.max_arrows) == (3, 4)
    assert (report.quiver_count, report.form_count) == (0, 0)
    assert report.realized_count == 0
    assert report.failure_counts == {check: 0 for check in CHECKS}
    assert report.failure_samples == {check: [] for check in CHECKS}
    assert SweepReport(max_vertices=3, max_arrows=4) == report
    full = SweepReport(3, 4, 10, 2, 2)
    assert full == SweepReport(3, 4, quiver_count=10, form_count=2,
                               realized_count=2)


def test_sweep_reports_do_not_share_their_containers():
    first, second = SweepReport(3, 4), SweepReport(3, 4)
    first.record("coxeter_numbers", "sample")
    assert second.failure_counts["coxeter_numbers"] == 0
    assert second.failure_samples["coxeter_numbers"] == []


def test_sweep_report_is_mutable_and_unhashable():
    report = SweepReport(3, 4)
    report.quiver_count = 7
    report.form_count += 1
    assert (report.quiver_count, report.form_count) == (7, 1)
    assert report != SweepReport(3, 4)
    with pytest.raises(TypeError):
        hash(report)
    fields = ("max_vertices", "max_arrows", "quiver_count", "form_count",
              "realized_count", "failure_counts", "failure_samples")
    assert report != SimpleNamespace(**{f: getattr(report, f) for f in fields})


def test_sweep_report_repr():
    report = SweepReport(2, 1, quiver_count=2)
    counts = {check: 0 for check in CHECKS}
    samples = {check: [] for check in CHECKS}
    assert repr(report) == (
        "SweepReport(max_vertices=2, max_arrows=1, quiver_count=2, form_count=0, "
        f"realized_count=0, failure_counts={counts!r}, failure_samples={samples!r})")


def test_sweep_report_pickle_and_deepcopy_round_trip():
    report = SweepReport(3, 4, quiver_count=5, realized_count=1)
    report.record("coxeter_numbers", "sample")
    for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert type(clone) is SweepReport
        assert clone == report
        clone.record("coxeter_numbers", "another")
        assert clone != report


def test_sweep_report_crosses_worker_processes():
    assert run_sweep(3, 3, seed=2, jobs=2) == run_sweep(3, 3, seed=2, jobs=1)
