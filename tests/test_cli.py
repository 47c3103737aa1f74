"""CLI surface tests: verbs, formats, exit codes, round trips."""

import hashlib
import json
import os
import subprocess
import sys
import time
from math import comb

import pytest

from coxquiver import cli
from coxquiver.cli import main
from coxquiver.errors import InvariantViolation
from coxquiver.linalg import char_poly
from coxquiver.sweep import CHECKS
from coxquiver.unitform import UnitForm, corank, is_non_negative

from dense import dense_coxeter_matrix

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


def test_enumerate_with_a_long_partition_list(capsys):
    # 500 partitions of 1000 into two parts; their generator must not recurse
    # once per part size
    code, out, err = run_cli(capsys, "enumerate", "--n", "1000", "--c", "1",
                             "--format", "table")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 501
    assert lines[1].split()[0] == "(999,1)" and lines[-1].split()[0] == "(500,500)"


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


@pytest.mark.parametrize("poly, c, length", [
    ("1,-2,1", "0", 3), ("-1,0,1", "1", 1), ("-1,3,-3,1", "1", 3)])
def test_from_poly_length_the_corank_does_not_admit_is_domain_error(
        capsys, poly, c, length):
    code, out, err = run_cli(capsys, "from-poly", f"--poly={poly}", "--c", c)
    assert code == 1
    assert out == ""
    assert f"corank {c}: its cycle type has length {length}" in err


def test_from_poly_huge_corank_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "from-poly", "--poly=-1,1", "--c", "1000000000")
    assert code == 1
    assert "(v-1)^999999999 does not divide it" in err


def test_from_poly_takes_a_negative_constant_term_after_an_equals_sign(capsys):
    # argparse reads "-1,1" after "--poly" as an option, so the argument is
    # missing; "--poly=-1,1" reaches the polynomial, v - 1, whose cycle type
    # (1) corank 1 does not admit
    code, out, err = run_cli(capsys, "from-poly", "--poly", "-1,1", "--c", "1")
    assert (code, out) == (2, "")
    assert "argument --poly: expected one argument" in err
    code, out, err = run_cli(capsys, "from-poly", "--poly=-1,1", "--c", "1")
    assert (code, out) == (1, "")
    assert err == ("error: not a type-A Coxeter polynomial for corank 1: its "
                   "cycle type has length 1, and c - (l - 1) = 1 is not even "
                   "and non-negative\n")


@pytest.mark.parametrize("poly, c", [("1,-2,1", "2"), ("1,-4,6,-4,1", "4")])
def test_from_poly_one_vertex_cycle_type_is_domain_error(capsys, poly, c):
    # (v-1)^c at even c recovers the cycle type (1): one vertex, no arrow
    code, out, err = run_cli(capsys, "from-poly", f"--poly={poly}", "--c", c)
    assert code == 1
    assert out == ""
    assert f"corank {c}: its cycle type (1) is that of a single vertex" in err


def test_from_poly_rejects_a_long_power_of_v_minus_one_quickly(capsys):
    # (v-1)^400 at corank 0 factors fully, as 401 parts 1, before its length
    # is rejected: a scan from the full degree for every part, by long
    # division, took minutes
    n = 400
    poly = ",".join(str((-1) ** (n - k) * comb(n, k)) for k in range(n + 1))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "from-poly", f"--poly={poly}", "--c", "0")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert "its cycle type has length 401, and c - (l - 1) = -400" in err


# non-negative of corank 1 and rank 4, and not of Dynkin type A
D4_CORANK_1_FORM = {"n": 5, "upper": [
    [1, 2, -1], [1, 3, -1], [1, 4, -1], [1, 5, -1], [2, 3, -1], [2, 5, 1],
    [3, 4, 1], [4, 5, 1]]}


def test_from_poly_answers_under_the_type_a_premise_only(capsys, tmp_path):
    """A form of another Dynkin type can share the Coxeter polynomial and
    the corank of a type-A class; ``from-poly`` then names that class."""
    form = UnitForm.from_json(D4_CORANK_1_FORM)
    assert is_non_negative(form) and corank(form) == 1
    path = tmp_path / "d4_corank_1.json"
    path.write_text(json.dumps(D4_CORANK_1_FORM), encoding="utf-8")
    code, out, err = run_cli(capsys, "invariants", "--form", str(path))
    assert code == 1 and out == ""
    assert "not Dynkin type A" in err
    # (v^4 - 1)(v - 1), the polynomial of the type-A class ((4, 1), c = 1)
    assert char_poly(dense_coxeter_matrix(form)) == (1, -1, 0, 0, -1, 1)
    code, out, _ = run_cli(capsys, "from-poly", "--poly", "1,-1,0,0,-1,1",
                           "--c", "1")
    assert code == 0
    assert json.loads(out) == [4, 1]


# ---------------------------------------------------------------------------
# realize / inverse / representative
# ---------------------------------------------------------------------------

def test_realize_verb(capsys, a3_form_path):
    code, out, _ = run_cli(capsys, "realize", "--form", a3_form_path)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"quiver", "basis_change"}
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


VERIFY_4_6_SHA256 = "e4d8f6f3b7130702bc5be1e8e5a3b3db22d91d48812143ee2b77000f888ab42c"


@pytest.mark.parametrize("jobs", [
    1, pytest.param(2, marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="one CPU admits --jobs 1 only"))])
def test_verify_4_6_report_is_pinned(capsys, jobs):
    """The sweep gate: the sha256 of ``verify --max-vertices 4
    --max-arrows 6 --format json`` is the pinned one, with one worker and
    with two.  A change that alters this report on purpose, such as adding
    timings to it, updates the hash and gives the reason in CHANGES.md."""
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "4",
                           "--max-arrows", "6", "--format", "json",
                           "--jobs", str(jobs))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_4_6_SHA256


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_exit_2_with_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": 2, "arrows": [[1, 2]', encoding="utf-8")
    code, _, err = run_cli(capsys, "cycle-type", "--quiver", str(path))
    assert code == 2
    assert "line" in err and "column" in err


UNDECODABLE = {
    "invalid UTF-8": (b'\xff\xfe{"n": 1, "upper": []}', "is not UTF-8 text"),
    "nested too deeply": (b"[" * 100000, "malformed JSON"),
    "integer past the digit limit": (
        b'{"n": 2, "upper": [[1, 2, ' + b"1" * 5000 + b"]]}", "malformed JSON"),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("document", sorted(UNDECODABLE))
def test_undecodable_document_exit_2(capsys, monkeypatch, tmp_path, document, source):
    import io
    data, message = UNDECODABLE[document]
    if source == "file":
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        path = str(path)
    else:
        path = "-"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data),
                                                           encoding="utf-8"))
    code, out, err = run_cli(capsys, "invariants", "--form", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}" if document == "invalid UTF-8"
                          else f"error: malformed JSON in {path}: ")
    assert message in err and err.count("\n") == 1


def test_an_output_integer_past_the_digit_limit_exit_2(capsys, tmp_path):
    # a path on 2300 vertices with an arrow from every vertex two steps on:
    # corank 2298, so the dense Coxeter polynomial has coefficients of
    # about 690 digits
    m = 2300
    arrows = [[v, v + 1] for v in range(1, m)] + [[v, v + 2] for v in range(1, m - 1)]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"vertices": m, "arrows": arrows}), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "invariants", "--quiver", str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == ("error: the output has an integer longer than the "
                   "interpreter's limit of 640 digits for integer string "
                   "conversion\n")


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


def test_form_and_quiver_together_exit_2(capsys, a3_form_path, kronecker_path):
    for verb in ("invariants", "realize", "cycle-type", "cox-poly"):
        code, out, err = run_cli(capsys, verb, "--form", a3_form_path,
                                 "--quiver", kronecker_path)
        assert code == 2
        assert out == ""
        assert "not allowed with" in err


def test_usage_error_exit_2(capsys):
    assert main(["enumerate", "--n"]) == 2
    assert main(["no-such-verb"]) == 2
    # out-of-range inline parameters are usage errors, not domain errors
    for argv, option in (
        (["verify", "--max-vertices", "0"], "--max-vertices"),
        (["verify", "--max-arrows", "-1"], "--max-arrows"),
        (["representative", "--pi", "3,2", "--d", "-1"], "--d"),
        (["enumerate", "--n", "4", "--c", "-1"], "--c"),
        (["enumerate", "--n", "0", "--c", "0"], "--n"),
        (["from-poly", "--poly", "1,1", "--c", "-1"], "--c"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {option}: must be at least" in err


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


def test_any_other_exception_exit_3_without_traceback(capsys, monkeypatch, a3_form_path):
    def broken(form):
        raise RuntimeError("an unexpected fault")

    monkeypatch.setattr(cli, "cycle_type_and_corank", broken)
    code, out, err = run_cli(capsys, "invariants", "--form", a3_form_path)
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError('an unexpected fault')\n"


def test_undecodable_stdin_in_utf8_mode_exit_2():
    # in UTF-8 mode the text layer of stdin decodes invalid bytes to
    # surrogates, so the check must read the bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "utf8", "-m", "coxquiver", "invariants", "--form", "-"],
        input=b"\xff\xfe{}", capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: - is not UTF-8 text")
    assert proc.stderr.count(b"\n") == 1


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


def test_import_leaves_the_process_pool_unloaded():
    # only verify --jobs > 1 needs the pool; -I ignores PYTHONPATH and the
    # user site, so the child is pointed at this package's source directly
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import coxquiver, coxquiver.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_entry_point_runs():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coxquiver", "enumerate", "--n", "5", "--c", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["partition"] == [4]


def test_closed_output_pipe_exits_141_without_traceback():
    # as in ``coxquiver enumerate ... | head -1``; the read end is closed
    # before the child has finished starting, so its one write must fail
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coxquiver", "enumerate", "--n", "14", "--c", "1",
         "--format", "table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == ""  # no BrokenPipeError traceback
    assert proc.returncode == 141


# ---------------------------------------------------------------------------
# golden output of every verb in both formats
# ---------------------------------------------------------------------------

TWO_CYCLE_QUIVER = {"vertices": 5, "arrows": [[1, 2], [2, 1], [2, 3], [4, 3], [3, 5]]}
INPUTS = {"A3_FORM": A3_FORM, "KRONECKER": KRONECKER_QUIVER, "TWO_CYCLE": TWO_CYCLE_QUIVER}

GOLDEN = [
    (["invariants", "--form", "A3_FORM"], {
        "json": '{"n": 2, "corank": 0, "cycle_type": [3], "coxeter_polynomial": '
                '{"unit_exponent": -1, "cycle_parts": [3], "dense": [1, 1, 1]}, '
                '"coxeter_number": 3, "reduced_coxeter_number": 3}\n',
        "table": "n: 2\ncorank: 0\ncycle type: (3)\nCoxeter polynomial: nu_3(v)\n"
                 "Coxeter number: 3\nreduced Coxeter number: 3\n",
    }),
    (["invariants", "--quiver", "KRONECKER"], {
        "json": '{"n": 2, "corank": 1, "cycle_type": [1, 1], "coxeter_polynomial": '
                '{"unit_exponent": 0, "cycle_parts": [1, 1], "dense": [1, -2, 1]}, '
                '"coxeter_number": null, "reduced_coxeter_number": 1}\n',
        "table": "n: 2\ncorank: 1\ncycle type: (1,1)\nCoxeter polynomial: (v-1)^2\n"
                 "Coxeter number: ∞\nreduced Coxeter number: 1\n",
    }),
    (["invariants", "--quiver", "TWO_CYCLE"], {
        "json": '{"n": 5, "corank": 1, "cycle_type": [4, 1], "coxeter_polynomial": '
                '{"unit_exponent": 0, "cycle_parts": [4, 1], "dense": [1, -1, 0, 0, -1, 1]}, '
                '"coxeter_number": null, "reduced_coxeter_number": 4}\n',
        "table": "n: 5\ncorank: 1\ncycle type: (4,1)\nCoxeter polynomial: (v^4-1)(v-1)\n"
                 "Coxeter number: ∞\nreduced Coxeter number: 4\n",
    }),
    (["realize", "--form", "A3_FORM"], {
        "json": '{"quiver": {"vertices": 3, "arrows": [[1, 2], [2, 3]]}, '
                '"basis_change": [[1, 0], [0, 1]]}\n',
        "table": "vertices: 3\narrow 1: 1 -> 2\narrow 2: 2 -> 3\n",
    }),
    (["realize", "--quiver", "KRONECKER"], {
        "json": '{"quiver": {"vertices": 2, "arrows": [[1, 2], [1, 2]]}, '
                '"basis_change": [[1, -2], [0, 1]]}\n',
        "table": "vertices: 2\narrow 1: 1 -> 2\narrow 2: 1 -> 2\n",
    }),
    (["realize", "--quiver", "TWO_CYCLE"], {
        "json": '{"quiver": {"vertices": 5, "arrows": [[1, 2], [2, 1], [2, 3], [4, 3], [3, 5]]}, '
                '"basis_change": [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 0, 0, -1], '
                '[0, 0, -1, 1, 0], [0, 0, 0, 1, -1]]}\n',
        "table": "vertices: 5\narrow 1: 1 -> 2\narrow 2: 2 -> 1\n"
                 "arrow 3: 2 -> 3\narrow 4: 4 -> 3\narrow 5: 3 -> 5\n",
    }),
    (["cycle-type", "--form", "A3_FORM"], {"json": "[3]\n", "table": "(3)\n"}),
    (["cycle-type", "--quiver", "KRONECKER"], {"json": "[1, 1]\n", "table": "(1,1)\n"}),
    (["cycle-type", "--quiver", "TWO_CYCLE"], {"json": "[4, 1]\n", "table": "(4,1)\n"}),
    (["cox-poly", "--form", "A3_FORM"], {
        "json": '{"unit_exponent": -1, "cycle_parts": [3], "dense": [1, 1, 1]}\n',
        "table": "nu_3(v)\n",
    }),
    (["cox-poly", "--quiver", "KRONECKER"], {
        "json": '{"unit_exponent": 0, "cycle_parts": [1, 1], "dense": [1, -2, 1]}\n',
        "table": "(v-1)^2\n",
    }),
    (["cox-poly", "--quiver", "TWO_CYCLE"], {
        "json": '{"unit_exponent": 0, "cycle_parts": [4, 1], "dense": [1, -1, 0, 0, -1, 1]}\n',
        "table": "(v^4-1)(v-1)\n",
    }),
    (["inverse", "--quiver", "KRONECKER"], {
        "json": '{"vertices": 2, "arrows": [[1, 2], [2, 1]]}\n',
        "table": "vertices: 2\narrow 1: 1 -> 2\narrow 2: 2 -> 1\n",
    }),
    (["inverse", "--quiver", "TWO_CYCLE"], {
        "json": '{"vertices": 5, "arrows": [[1, 2], [1, 2], [2, 3], [4, 2], [4, 5]]}\n',
        "table": "vertices: 5\narrow 1: 1 -> 2\narrow 2: 1 -> 2\narrow 3: 2 -> 3\n"
                 "arrow 4: 4 -> 2\narrow 5: 4 -> 5\n",
    }),
    (["from-poly", "--poly", "1,1,1,1", "--c", "0"], {"json": "[4]\n", "table": "(4)\n"}),
    (["enumerate", "--n", "7", "--c", "0"], {
        "json": '[{"partition": [8], "coxeter_polynomial": {"unit_exponent": -1, '
                '"cycle_parts": [8], "dense": [1, 1, 1, 1, 1, 1, 1, 1]}, '
                '"coxeter_number": 8, "reduced_coxeter_number": 8}]\n',
        "table": "Partition  Coxeter polynomial  Coxeter number  Reduced Coxeter number\n"
                 "(8)        nu_8(v)             8               8\n",
    }),
    (["representative", "--pi", "3,2,2", "--d", "1"], {
        "json": '{"a_quiver": {"vertices": 7, "arrows": [[1, 2], [2, 3], [3, 4], [4, 5], '
                '[5, 6], [6, 7], [7, 4], [4, 2], [2, 4], [4, 2]]}, "star_quiver": '
                '{"vertices": 7, "arrows": [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], '
                '[1, 7], [1, 5], [1, 3], [1, 3], [1, 3]]}}\n',
        "table": "A-family quiver (7 vertices, 10 arrows):\n"
                 + "".join(f"  arrow {i}: {s} -> {t}\n" for i, (s, t) in enumerate(
                     [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4), (4, 2),
                      (2, 4), (4, 2)], start=1))
                 + "star-family quiver (7 vertices, 10 arrows):\n"
                 + "".join(f"  arrow {i}: {s} -> {t}\n" for i, (s, t) in enumerate(
                     [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 5), (1, 3),
                      (1, 3), (1, 3)], start=1)),
    }),
    (["verify", "--max-vertices", "3", "--max-arrows", "4", "--seed", "3"], {
        "json": '{"max_vertices": 3, "max_arrows": 4, "quiver_count": 181, "form_count": 76, '
                '"realized_count": 76, "failure_counts": {'
                + ", ".join(f'"{check}": 0' for check in CHECKS)
                + '}, "failure_samples": {'
                + ", ".join(f'"{check}": []' for check in CHECKS) + "}}\n",
        "table": "swept 181 connected quivers (76 distinct forms) with m <= 3, n <= 4\n"
                 + "".join(f"  {check}: ok\n" for check in CHECKS)
                 + "all identities hold\n",
    }),
]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("argv, outputs", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, argv, outputs, fmt):
    argv = [write_named(tmp_path, a) if a in INPUTS else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, out, err) == (0, outputs[fmt], "")


def write_named(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INPUTS[name]), encoding="utf-8")
    return str(path)


def test_format_does_not_carry_over_between_calls(capsys, kronecker_path):
    assert run_cli(capsys, "cycle-type", "--quiver", kronecker_path,
                   "--format", "table")[1] == "(1,1)\n"
    assert run_cli(capsys, "cycle-type", "--quiver", kronecker_path)[1] == "[1, 1]\n"
    assert run_cli(capsys, "verify", "--max-vertices", "2", "--max-arrows", "1",
                   "--format", "json")[1].startswith("{")
    assert run_cli(capsys, "verify", "--max-vertices", "2",
                   "--max-arrows", "1")[1].startswith("swept ")
