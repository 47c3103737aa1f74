"""CLI surface tests: verbs, formats, exit codes, round trips."""

import json
import os
import subprocess
import sys

import pytest

from coxquiver import cli
from coxquiver.cli import main
from coxquiver.errors import InvariantViolation

KRONECKER_QUIVER = {"vertices": 2, "arrows": [[1, 2], [1, 2]]}
A3_FORM = {"n": 2, "upper": [[1, 2, -1]]}


@pytest.fixture
def kronecker_path(tmp_path):
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(KRONECKER_QUIVER), encoding="utf-8")
    return str(path)


@pytest.fixture
def a3_form_path(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3_FORM), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_8_4_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "8", "--c", "4",
                           "--format", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == [
        "Partition", "Coxeter", "polynomial", "Coxeter", "number",
        "Reduced", "Coxeter", "number",
    ]
    rows = [line.split() for line in lines[1:]]
    assert rows == [
        ["(5)", "(v^5-1)(v-1)^3", "5", "5"],
        ["(3,1,1)", "(v^3-1)(v-1)^5", "∞", "3"],
        ["(2,2,1)", "(v^2-1)^2(v-1)^4", "∞", "2"],
        ["(1,1,1,1,1)", "(v-1)^8", "∞", "1"],
    ]


def test_enumerate_5_2_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--c", "2",
                           "--format", "table")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert rows == [
        ["(4)", "(v^4-1)(v-1)", "4", "4"],
        ["(2,1,1)", "(v^2-1)(v-1)^3", "∞", "2"],
    ]


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--c", "2")
    assert code == 0
    data = json.loads(out)
    assert [row["partition"] for row in data] == [[4], [2, 1, 1]]
    assert data[0]["coxeter_number"] == 4
    assert data[1]["coxeter_number"] is None
    assert data[1]["reduced_coxeter_number"] == 2


def test_enumerate_json_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "--n", "6", "--c", "3")
    _, second, _ = run_cli(capsys, "enumerate", "--n", "6", "--c", "3")
    assert first == second


def test_enumerate_bad_corank_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--c", "4")
    assert code == 1
    assert "corank" in err


# ---------------------------------------------------------------------------
# cycle-type / invariants / cox-poly
# ---------------------------------------------------------------------------

def test_cycle_type_of_quiver_file(capsys, kronecker_path):
    code, out, _ = run_cli(capsys, "cycle-type", "--quiver", kronecker_path)
    assert code == 0
    assert json.loads(out) == [1, 1]


def test_cycle_type_table_format(capsys, kronecker_path):
    code, out, _ = run_cli(capsys, "cycle-type", "--quiver", kronecker_path,
                           "--format", "table")
    assert code == 0
    assert out.strip() == "(1,1)"


def test_invariants_of_form(capsys, a3_form_path):
    code, out, _ = run_cli(capsys, "invariants", "--form", a3_form_path)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert data["corank"] == 0
    assert data["cycle_type"] == [3]
    assert data["coxeter_number"] == 3
    assert data["coxeter_polynomial"]["dense"] == [1, 1, 1]


def test_cox_poly_verb(capsys, kronecker_path):
    code, out, _ = run_cli(capsys, "cox-poly", "--quiver", kronecker_path)
    assert code == 0
    data = json.loads(out)
    assert data["dense"] == [1, -2, 1]
    assert data["cycle_parts"] == [1, 1]
    assert data["unit_exponent"] == 0


def test_from_poly_roundtrips_cox_poly(capsys, kronecker_path):
    code, out, _ = run_cli(capsys, "cox-poly", "--quiver", kronecker_path)
    assert code == 0
    dense = json.loads(out)["dense"]
    code, out, _ = run_cli(
        capsys, "from-poly",
        "--poly", ",".join(str(x) for x in dense),
        "--c", "1",
    )
    assert code == 0
    assert json.loads(out) == [1, 1]


def test_from_poly_corank0(capsys):
    code, out, _ = run_cli(capsys, "from-poly", "--poly", "1,1,1,1", "--c", "0")
    assert code == 0
    assert json.loads(out) == [4]


def test_from_poly_bad_polynomial_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "from-poly", "--poly", "1,1", "--c", "1")
    assert code == 1
    assert "not a type-A Coxeter polynomial" in err


def test_from_poly_huge_corank_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "from-poly", "--poly=-1,1", "--c", "1000000000")
    assert code == 1
    assert "(v-1)^999999999 does not divide it" in err


# ---------------------------------------------------------------------------
# realize / inverse / representative
# ---------------------------------------------------------------------------

def test_realize_verb(capsys, a3_form_path):
    code, out, _ = run_cli(capsys, "realize", "--form", a3_form_path)
    assert code == 0
    data = json.loads(out)
    assert data["strategy"] == "breadth_first"
    assert data["quiver"]["vertices"] == 3
    assert data["basis_change"] == [[1, 0], [0, 1]]


def test_realize_rejects_type_d(capsys, tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(
        {"n": 4, "upper": [[1, 2, -1], [1, 3, -1], [1, 4, -1]]}
    ), encoding="utf-8")
    code, _, err = run_cli(capsys, "realize", "--form", str(path))
    assert code == 1
    assert "not Dynkin type A" in err


def test_inverse_verb(capsys, kronecker_path):
    code, out, _ = run_cli(capsys, "inverse", "--quiver", kronecker_path)
    assert code == 0
    data = json.loads(out)
    assert data == {"vertices": 2, "arrows": [[1, 2], [2, 1]]}


def test_representative_verb(capsys):
    code, out, _ = run_cli(capsys, "representative", "--pi", "3,2,2", "--d", "1")
    assert code == 0
    data = json.loads(out)
    assert data["a_quiver"]["vertices"] == 7
    assert len(data["a_quiver"]["arrows"]) == 10
    assert data["star_quiver"]["arrows"][0] == [1, 2]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_sweep(capsys):
    # table is the default format for verify
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "3",
                           "--max-arrows", "4", "--seed", "11")
    assert code == 0
    assert "all identities hold" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "3",
                           "--max-arrows", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["quiver_count"] > 0
    assert all(v == 0 for v in data["failure_counts"].values())


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_exit_2_with_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": 2, "arrows": [[1, 2]', encoding="utf-8")
    code, _, err = run_cli(capsys, "cycle-type", "--quiver", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_schema_violation_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]], "x": 1}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "cycle-type", "--quiver", str(path))
    assert code == 2
    assert "unknown keys" in err


def test_missing_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "cycle-type")
    assert code == 2
    assert "--form" in err or "--quiver" in err


def test_usage_error_exit_2(capsys):
    assert main(["enumerate", "--n"]) == 2
    assert main(["no-such-verb"]) == 2


def test_disconnected_form_exit_1(capsys, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(json.dumps({"n": 2, "upper": []}), encoding="utf-8")
    code, _, err = run_cli(capsys, "cycle-type", "--form", str(path))
    assert code == 1
    assert "connected" in err


def write_json(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("form, message", [
    ({"n": 2, "upper": [[1, 2, -1], [1, 2, 2]]}, "given twice"),
    ({"n": 2, "upper": [[True, 2, -1]]}, "triples"),
    ({"n": 2, "upper": [[1, 2, False]]}, "triples"),
    ({"n": True, "upper": []}, "'n'"),
])
def test_malformed_form_exit_2(capsys, tmp_path, form, message):
    code, out, err = run_cli(capsys, "invariants", "--form", write_json(tmp_path, form))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("quiver, message", [
    ({"vertices": 2, "arrows": [[True, 2]]}, "pairs"),
    ({"vertices": True, "arrows": []}, "'vertices'"),
])
def test_malformed_quiver_exit_2(capsys, tmp_path, quiver, message):
    code, out, err = run_cli(capsys, "cycle-type", "--quiver", write_json(tmp_path, quiver))
    assert code == 2
    assert out == ""
    assert message in err


def test_too_few_entries_to_connect_exit_1_before_allocating(capsys, tmp_path):
    # n x n and m x m sized work would not fit in memory; the count of
    # entries (arrows) alone shows the input is disconnected
    path = write_json(tmp_path, {"n": 10 ** 9, "upper": [[1, 2, -1]]})
    code, _, err = run_cli(capsys, "invariants", "--form", path)
    assert code == 1
    assert "not connected" in err
    path = write_json(tmp_path, {"vertices": 10 ** 9, "arrows": [[1, 2]]})
    code, _, err = run_cli(capsys, "cycle-type", "--quiver", path)
    assert code == 1
    assert "not connected" in err


def test_verify_jobs_bounded_by_cpu_count(capsys):
    # only the validation runs: neither value starts a worker
    for jobs in (0, (os.cpu_count() or 1) + 1):
        code, out, err = run_cli(capsys, "verify", "--max-vertices", "2",
                                 "--max-arrows", "1", "--jobs", str(jobs))
        assert code == 2
        assert out == ""
        assert "--jobs" in err


def test_invariant_violation_exit_3(capsys, monkeypatch, a3_form_path):
    def broken(form):
        raise InvariantViolation("fraction-free elimination lost exactness")

    monkeypatch.setattr(cli, "cycle_type_and_corank", broken)
    code, out, err = run_cli(capsys, "invariants", "--form", a3_form_path)
    assert code == 3
    assert out == ""
    assert err.startswith("internal invariant violation:")


def test_realize_rejection_names_the_variable(capsys, tmp_path):
    path = write_json(tmp_path, {"n": 4, "upper": [[1, 2, -1], [1, 3, -1], [1, 4, -1]]})
    code, _, err = run_cli(capsys, "invariants", "--form", path)
    assert code == 1
    assert "variable 4" in err and "-1 with variable 1" in err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(KRONECKER_QUIVER)))
    code, out, _ = run_cli(capsys, "cycle-type", "--quiver", "-")
    assert code == 0
    assert json.loads(out) == [1, 1]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coxquiver", "enumerate", "--n", "5", "--c", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["partition"] == [4]
