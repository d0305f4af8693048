import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tribell.cli as cli
from tribell import npa, seesaw
from tribell.bell_expr import catalog_entry, load_catalog
from tribell.cli import main
from tribell.fixtures import AQ_ANOMALY_IDS, fixture_record, fixture_solution
from tribell.monotones import classify_incompatibility, entanglement_profile
from tribell.npa import SdpParams
from tribell.qcore import Observable, PureState
from tribell.seesaw import SeesawParams, Solution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_all_entries(capsys):
    code, out, _ = run(capsys, "list")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 46
    assert lines[0].split() == ["1", "1", "A", "+", "B", "-", "AB", "+", "C",
                                "-", "AC", "-", "BC", "+", "ABC"]
    assert lines[45].startswith("46  10  3 A")


def test_show_known_row(capsys):
    code, out, _ = run(capsys, "show", "2")
    assert code == 0
    assert "ABC + abC + aBc - Abc" in out
    assert "local maximum  2" in out


@pytest.mark.parametrize("argv", [
    ("show", "47"),
    ("show", "zero"),
    ("local", "A@"),
    ("qmax", "0"),
    (),
    ("frobnicate",),
    ("qmax", "2", "--restarts", "0"),
    ("tables", "--restarts", "0"),
    ("npa", "2", "--level", "1ab", "--tol", "0"),
    ("npa", "2", "--level", "1ab", "--max-iterations", "0"),
    ("classify", "2", "--tol", "0"),
    ("classify", "2", "--tol", "-1e-4"),
    ("classify", "2", "--tol", "nan"),
    ("classify", "2", "--tol", "inf"),
    ("npa", "2", "--level", "1ab", "--tol", "inf"),
    ("qmax", "26", "--tol", "inf"),
    ("tables", "--tol", "inf"),
    ("qmax", "2", "--seed", "-1"),
    ("tables", "--seed", "-1"),
    ("local", "4611686018427387904 A + 4611686018427387904 B"),
    ("local", "99999999999999999999 A"),
    ("npa", "4611686018427387904 A + 4611686018427387904 B", "--level", "aq"),
])
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err


@pytest.mark.parametrize("command", [("local",), ("npa", "--level", "aq")])
def test_coefficients_past_2_53_are_one_usage_error(capsys, command):
    """Coefficients whose absolute sum is 2**63 would wrap the int64 local
    bound to 0; ``local`` and ``npa`` both reject them before any work."""
    name, *options = command
    code, out, err = run(capsys, name, "4611686018427387904 A + 4611686018427387904 B", *options)
    assert code == cli.EXIT_USAGE
    assert err == "error: coefficients' absolute sum 9223372036854775808 exceeds 2**53\n"
    assert out == ""
    code, out, _ = run(capsys, "local", "4503599627370496 A + 4503599627370496 B")
    assert code == 0
    assert "local bound  9007199254740992" in out.splitlines()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_option_defaults_are_the_solver_defaults():
    parser = cli.build_parser()
    qmax, npa, tables = (parser.parse_args(argv) for argv in
                         (["qmax", "1"], ["npa", "1", "--level", "aq"], ["tables"]))
    seesaw, sdp = SeesawParams(), SdpParams()
    assert (qmax.restarts, qmax.seed, qmax.tol) == (
        seesaw.restarts, seesaw.master_seed, seesaw.convergence_tol)
    assert (tables.restarts, tables.seed) == (seesaw.restarts, seesaw.master_seed)
    for args in (npa, tables):
        assert (args.tol, args.max_iterations) == (sdp.tolerance, sdp.max_iterations)


def test_local_catalog_and_expression(capsys):
    code, out, _ = run(capsys, "local", "46")
    assert code == 0
    assert "local bound  10" in out
    code, out, _ = run(capsys, "local", "A")
    assert "local bound  1" in out
    code, out, _ = run(capsys, "local", "ABC+abC+aBc-Abc")
    assert "local bound  2" in out
    assert "strategy" in out


def test_qmax_text_output(capsys):
    code, out, _ = run(capsys, "qmax", "26", "--restarts", "40")
    assert code == 0
    assert "quantum maximum  7.9282032302" in out
    assert "capped restarts  0 of 40" in out.splitlines()
    assert "class pair        (5, 11)" in out
    assert out.count("bloch (") == 6


def test_qmax_text_reports_capped_restarts(capsys):
    """One of id 17's first 40 seed-0 restarts stops at the sweep cap: the
    text output says so, as the JSON does."""
    code, out, _ = run(capsys, "qmax", "17", "--restarts", "40")
    assert code == 0
    assert "capped restarts  1 of 40" in out.splitlines()
    _, out, _ = run(capsys, "qmax", "17", "--restarts", "40", "--json")
    assert json.loads(out)["capped_restarts"] == 1


def test_qmax_is_reproducible(capsys):
    args = ("qmax", "2", "--seed", "7", "--restarts", "30", "--json")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert doc["schema"] == cli.SOLUTION_SCHEMA
    assert doc["id"] == 2
    assert doc["parameters"]["seed"] == 7
    assert len(doc["state"]["re"]) == 8
    assert len(doc["measurements"]) == 6
    assert doc["classes"]["entanglement_tol"] > 0
    assert doc["capped_restarts"] == 0
    assert 1 <= doc["hits"] <= 30
    assert doc["median_sweeps"] >= 1


def test_classify_fixture_rows(capsys):
    code, out, _ = run(capsys, "classify", "26")
    assert code == 0
    assert "class pair        (5, 11)" in out
    _, out, _ = run(capsys, "classify", "1")
    assert "class pair        (0, 0)" in out
    _, out, _ = run(capsys, "classify", "43", "--json")
    doc = json.loads(out)
    assert doc["schema"] == cli.CLASSES_SCHEMA
    assert [doc["entanglement_class"], doc["incompatibility_class"]] == [2, 4]


def test_classes_for_tolerances_and_error_label():
    """Each tolerance classifies its own half of the pair, and an
    entanglement error, unlike an incompatibility error, names the
    inequality."""
    solution = fixture_solution(26)
    profile = entanglement_profile(solution.state, 1e-3)
    inc = classify_incompatibility(solution.measurements, 1e-6)
    assert cli._classes_for(26, solution, 1e-3, 1e-6) == {
        "negativity": profile.n_abc,
        "concurrences": [profile.c_ab, profile.c_ac, profile.c_bc],
        "incompatibilities": [inc.i_a, inc.i_b, inc.i_c],
        "entanglement_class": profile.class_id,
        "incompatibility_class": inc.class_id,
        "entanglement_tol": 1e-3,
        "incompatibility_tol": 1e-6,
    }
    with pytest.raises(ValueError, match="^inequality 26: tol must be positive$"):
        cli._classes_for(26, solution, 0.0, 1e-6)
    with pytest.raises(ValueError, match="^tol must be positive$"):
        cli._classes_for(26, solution, 1e-3, 0.0)


def test_classify_from_solution_document(capsys, tmp_path):
    code, out, _ = run(capsys, "qmax", "43", "--restarts", "40", "--json")
    assert code == 0
    path = tmp_path / "solution.json"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", "43", "--solution", str(path))
    assert code == 0
    assert "class pair        (2, 4)" in out

    # The printed value is computed from the state and measurements, not
    # read from the document.
    doc = json.loads(path.read_text())
    expected = f"value {doc['value']:.9f}"
    assert expected in out
    for value in (None, 123.0):
        if value is None:
            del doc["value"]
        else:
            doc["value"] = value
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", "43", "--solution", str(path))
        assert code == 0
        assert expected in out


def test_classify_rejects_bad_solution_documents(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something-else/9"}')
    code, _, err = run(capsys, "classify", "3", "--solution", str(path))
    assert code == 1 and "schema" in err
    code, _, err = run(capsys, "classify", "3", "--solution", str(tmp_path / "gone"))
    assert code == 1
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "classify", "3", "--solution", str(path))
    assert code == 1 and "not a JSON object" in err


@pytest.mark.parametrize("damage", [
    pytest.param(lambda doc: doc.pop("state"), id="no-state"),
    pytest.param(lambda doc: doc["state"].update(re=[0.5] * 7, im=[0.0] * 7),
                 id="seven-amplitudes"),
    pytest.param(lambda doc: doc["state"].update(im=[0.0]), id="one-imaginary-part"),
    pytest.param(lambda doc: doc["state"].update(re=[doc["state"]["re"]], im=0.0),
                 id="nested-re-scalar-im"),
    pytest.param(lambda doc: doc["measurements"][0].update(vector=[0.0, 0.0, 0.0]),
                 id="zero-bloch-vector"),
    pytest.param(lambda doc: doc["state"]["re"].__setitem__(0, float("nan")),
                 id="nan-amplitude"),
    pytest.param(lambda doc: doc["measurements"][0].update(vector=[float("nan"), 0.0, 1.0]),
                 id="nan-bloch-vector"),
    pytest.param(lambda doc: doc["measurements"].__setitem__(
        0, {"kind": "blochh", "vector": [1, 0, 0]}), id="unknown-kind"),
    *(pytest.param(lambda doc, sign=sign: doc["measurements"].__setitem__(
        0, {"kind": "identity", "sign": sign}), id=f"{kind}-sign")
      for kind, sign in (("float", 1.7), ("bool", True), ("string", "-1"))),
    pytest.param(lambda doc: doc["state"]["re"].__setitem__(1, "0.5"), id="string-amplitude"),
    pytest.param(lambda doc: doc["measurements"][0].update(vector=["0.5", 0.0, 1.0]),
                 id="string-bloch-component"),
])
def test_classify_rejects_malformed_solution_documents(capsys, tmp_path, damage):
    solution = Solution(state=PureState(np.eye(8)[0]),
                        measurements=(Observable.from_bloch(0.0, 0.0, 1.0),) * 6,
                        value=0.0, sweeps_used=0, restart_index=0)
    doc = cli._solution_doc(3, solution, SeesawParams())
    damage(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", "3", "--solution", str(path))
    assert code == 1
    assert err.startswith("error: malformed solution document")


def test_classify_reads_identity_measurements_and_integer_amplitudes(capsys, tmp_path):
    """JSON integers are numbers, and an identity measurement's sign is the
    integer 1 or -1."""
    solution = Solution(state=PureState(np.eye(8)[0]),
                        measurements=(Observable.identity(1), Observable.identity(-1),
                                      *(Observable.from_bloch(0.0, 0.0, 1.0),) * 4),
                        value=0.0, sweeps_used=0, restart_index=0)
    doc = cli._solution_doc(3, solution, SeesawParams())
    doc["state"]["re"] = [1, 0, 0, 0, 0, 0, 0, 0]
    doc["measurements"][2]["vector"] = [0, 0, 1]
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "classify", "3", "--solution", str(path))
    assert code == 0


def test_npa_text_and_json(capsys):
    code, out, _ = run(capsys, "npa", "2", "--level", "1ab")
    assert code == 0
    assert "level        1+AB" in out
    assert "upper bound  4.0000" in out
    assert "adaptation   penalty updates " in out
    code, out, _ = run(capsys, "npa", "AB + Ab + aB - ab", "--level", "q1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == cli.NPA_SCHEMA
    assert doc["id"] is None
    assert doc["bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-5)
    for key in ("iterations", "penalty_updates", "rejected_steps"):
        assert isinstance(doc[key], int) and doc[key] >= 0, key


def test_npa_reads_an_expression_over_two_lines(capsys):
    code, out, _ = run(capsys, "npa", "AB + Ab\n+ aB - ab", "--level", "q1")
    assert code == 0
    assert "upper bound  2.8284275" in out


def test_npa_unreachable_level_is_usage_error(capsys):
    code, _, err = run(capsys, "npa", "2", "--level", "q1")
    assert code == 1
    assert "unreachable" in err


def test_npa_iteration_cap_exits_3(capsys):
    code, _, err = run(capsys, "npa", "2", "--level", "1ab", "--max-iterations", "5")
    assert code == 3
    assert "no convergence" in err


def test_a_failed_solve_is_reported_as_unconverged(capsys, tmp_path, monkeypatch):
    """A solve whose linear algebra fails is reported like a capped one:
    npa exits 3 and tables records a no-convergence cell. Only an
    objective the level cannot express is a usage error or a skipped
    level."""
    def failing(problem, params):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(npa, "sdp_maximize", failing)
    code, _, err = run(capsys, "npa", "2", "--level", "1ab")
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "no convergence: Singular matrix" in err
    code, _, err = run(capsys, "npa", "2", "--level", "q1")
    assert code == cli.EXIT_USAGE
    assert "unreachable" in err

    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "tables", "--restarts", "1", "--npa", "aq", "--npa", "q1",
                     "--out", str(out_path))
    assert code == cli.EXIT_NO_CONVERGENCE
    report = json.loads(out_path.read_text())
    assert report["summary"]["no_convergence"] == 46
    for row in report["rows"]:
        assert row["npa_bounds"]["AQ"] == {"status": "no-convergence", "error": "Singular matrix"}
        assert row["npa_bounds"]["Q1"]["status"] == "skipped"


def test_tables_full_run(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "tables", "--restarts", "40",
                       "--out", str(out_path), "--csv", str(csv_path))
    assert code == 0
    assert "0 mismatches" in out

    report = json.loads(out_path.read_text())
    assert report["schema"] == "tribell.report/3"
    assert [row["id"] for row in report["rows"]] == list(range(1, 47))
    for row in report["rows"]:
        for cell in (row["local_bound"], row["seesaw_value"], row["fixture_value"]):
            matches = abs(cell["value"] - cell["expected"]) <= cell["tolerance"]
            assert cell["status"] == ("match" if matches else "mismatch")
        classes = row["classes"]
        assert set(classes) == {"value", "expected", "entanglement_tol",
                                "incompatibility_tol", "status"}
        assert classes["expected"] == list(fixture_record(row["id"]).class_pair)
        assert classes["status"] == ("match" if classes["value"] == classes["expected"]
                                     else "mismatch")
        assert row["npa_bounds"] == {}
    # 46 rows of 11 checks; without --npa a row has no npa cells.
    assert report["summary"] == {"checks": 506, "matches": 506, "skipped": 0, "mismatches": 0,
                                 "no_convergence": 0, "errors": 0}
    seventeen = cli.quantum_maximum(catalog_entry(17).expression, cli.SeesawParams(restarts=40))
    cell = report["rows"][16]["seesaw_value"]
    assert cell["capped_restarts"] == seventeen.capped_restarts
    assert cell["hits"] == seventeen.hits
    assert cell["median_sweeps"] == seventeen.median_sweeps

    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 47
    assert rows[0][0] == "id"


def test_tables_report_does_not_depend_on_the_share_count(capsys, tmp_path, monkeypatch):
    """The report's seesaw pool run in one process and split over two
    gives the same output and report, its run time aside."""
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(seesaw, "_usable_cpus", lambda: cpus)
        assert seesaw._share_count(46, 20) == cpus
        out_path = tmp_path / f"report-{cpus}.json"
        code, out, _ = run(capsys, "tables", "--restarts", "20", "--out", str(out_path))
        report = json.loads(out_path.read_text())
        report["metadata"].pop("duration_seconds")
        runs.append((code, out, report))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_tables_detects_mismatches(capsys, monkeypatch):
    state = PureState.from_vector(np.eye(8)[0])
    fake = Solution(state=state,
                    measurements=tuple(Observable.identity(1) for _ in range(6)),
                    value=0.0, sweeps_used=0, restart_index=0)
    monkeypatch.setattr(cli, "quantum_maxima", lambda exprs, params: [fake] * len(exprs))
    code, out, _ = run(capsys, "tables", "--restarts", "2")
    assert code == 2
    assert "mismatch" in out


def test_tables_exits_with_the_gravest_status(capsys, monkeypatch):
    """An error outranks a mismatch (4), and an unconverged solve outranks
    a mismatch (3)."""
    state = PureState.from_vector(np.eye(8)[0])
    fake = Solution(state=state,
                    measurements=tuple(Observable.identity(1) for _ in range(6)),
                    value=0.0, sweeps_used=0, restart_index=0)
    ids = {entry.expression: entry.id for entry in load_catalog()}
    failing = {17}

    def seesaw(exprs, params):
        return [RuntimeError("seesaw state step decreased the value") if ids[expr] in failing
                else replace(fake, value=fixture_record(ids[expr]).maximum
                             + (1.0 if ids[expr] == 26 else 0.0))
                for expr in exprs]

    monkeypatch.setattr(cli, "quantum_maxima", seesaw)
    code, out, _ = run(capsys, "tables", "--restarts", "1")
    assert code == cli.EXIT_ERROR
    assert "1 mismatches, 0 unconverged, 1 errors" in out

    failing.clear()
    code, out, _ = run(capsys, "tables", "--restarts", "1", "--npa", "aq",
                       "--max-iterations", "1")
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "1 mismatches, 46 unconverged, 0 errors" in out


def test_tables_contains_a_failing_row(capsys, tmp_path, monkeypatch):
    real = cli.quantum_maxima
    failing = catalog_entry(17).expression

    def flaky(exprs, params):
        return [RuntimeError("seesaw state step decreased the value") if expr == failing
                else solution for expr, solution in zip(exprs, real(exprs, params))]

    monkeypatch.setattr(cli, "quantum_maxima", flaky)
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "tables", "--restarts", "4",
                       "--out", str(out_path), "--csv", str(csv_path))
    assert code == cli.EXIT_ERROR == 4
    assert "id 17  error: RuntimeError: seesaw state step decreased the value" in out

    report = json.loads(out_path.read_text())
    rows = report["rows"]
    assert [row["id"] for row in rows] == list(range(1, 47))
    errors = [row for row in rows if row.get("status") == "error"]
    assert errors == [{"id": 17, "status": "error",
                       "error": "RuntimeError: seesaw state step decreased the value"}]
    assert report["summary"]["errors"] == 1
    for row in rows:
        if row["id"] != 17:
            assert row["local_bound"]["status"] == "match"
            assert row["fixture_value"]["status"] == "match"
            assert row["classes"]["status"] == "match"

    with open(csv_path, newline="") as handle:
        table = list(csv.reader(handle))
    assert len(table) == 47
    assert table[17][0] == "17" and table[17][-1] == "error"
    assert all(len(line) == len(table[0]) for line in table)


def test_tables_integrity_failure_is_one_error(capsys, monkeypatch, tmp_path):
    import tribell.fixtures as fixtures

    fixtures.load_reference_table.cache_clear()
    monkeypatch.setattr(fixtures, "_TABLE_CRC32", "0" * 8)
    out_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    try:
        code, out, err = run(capsys, "tables", "--restarts", "2",
                             "--out", str(out_path), "--csv", str(csv_path))
    finally:
        fixtures.load_reference_table.cache_clear()
    assert code == cli.EXIT_ERROR == 4
    assert err.startswith("error: ")
    assert err.count("checksum mismatch") == 1
    assert "id " not in out
    # The tables are checked before the report paths: no empty file is left.
    assert not out_path.exists() and not csv_path.exists()


@pytest.mark.parametrize("table, argv, old, new, message", [
    pytest.param("catalog", ("show", "26"), "26;5;", "26;5;5;", "too many values to unpack",
                 id="catalog-extra-field"),
    pytest.param("reference table", ("classify", "26"), ";0.942809,", ";0.9x,",
                 "could not convert string to float: '0.9x'", id="reference-bad-number"),
    pytest.param("reference table", ("classify", "26"), ";5,11;\n", ";5,11;;\n",
                 "row needs 13 fields, got 14", id="reference-14-fields"),
])
def test_a_malformed_table_row_is_one_error(capsys, damage_row, table, argv, old, new, message):
    """Row 26 damaged so that the parser rejects it, under a matching
    checksum, is an integrity failure: one error line naming the table,
    the line and the parser's message, and exit 4."""
    line = damage_row(table, 26, old, new)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_ERROR == 4
    assert err.startswith(f"error: {table} line {line}: {message}")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("failure", ["dead-child", "failed-fork"])
def test_a_failed_share_fails_every_tables_row(capsys, tmp_path, monkeypatch, failure):
    """A seesaw share whose child dies, or whose fork fails, leaves no row
    a seesaw result: every row records the error, the report and CSV are
    written, and the command exits 4."""
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 7)
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: 2)
    assert seesaw._share_count(46, 5) == 2
    parent, sweep, fork, forks = os.getpid(), seesaw._sweep, os.fork, []

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return sweep(*args)

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("no second fork")
        return fork()

    if failure == "dead-child":
        monkeypatch.setattr(seesaw, "_sweep", dying)
        error = "RuntimeError: seesaw share 0 ended with exit status 3"
    else:
        monkeypatch.setattr(os, "fork", failing_fork)
        error = "OSError: no second fork"
    out_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    code, out, _ = run(capsys, "tables", "--restarts", "5",
                       "--out", str(out_path), "--csv", str(csv_path))
    # No child is left behind.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert code == cli.EXIT_ERROR == 4
    assert out.splitlines() == [f"id {ident:2d}  error: {error}" for ident in range(1, 47)] + [
        "0/46 checks match  (0 skipped, 0 mismatches, 0 unconverged, 46 errors)"]

    report = json.loads(out_path.read_text())
    assert report["rows"] == [{"id": ident, "status": "error", "error": error}
                              for ident in range(1, 47)]
    assert report["summary"] == {"checks": 46, "matches": 0, "skipped": 0, "mismatches": 0,
                                 "no_convergence": 0, "errors": 46}
    with open(csv_path, newline="") as handle:
        table = list(csv.reader(handle))
    assert len(table) == 47
    assert all(line[0] == str(ident) and line[-1] == "error"
               for ident, line in enumerate(table[1:], start=1))


def test_moment_matrix_process_loads_no_openssl():
    """Loading both checked tables, an NPA solve and ``list`` import
    neither OpenSSL (through ``hashlib``) nor ``numpy.random``."""
    script = """
import sys
import tribell.cli as cli
from tribell import bell_expr, fixtures, npa
bell_expr.load_catalog()
fixtures.load_reference_table()
assert abs(npa.npa_upper_bound(bell_expr.parse_expression("AB + Ab + aB - ab"), "AQ")
           - 2 * 2 ** 0.5) < 1e-6
assert cli.main(["list"]) == 0
print(sorted({"_hashlib", "numpy.random"} & set(sys.modules)))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "[]"


def test_seesaw_process_loads_no_numpy_ma():
    """A seesaw run leaves ``numpy.ma`` unloaded: the restart pool finds
    its rows without ``np.unique``, which imports it."""
    script = """
import sys
import tribell.cli as cli
assert cli.main(["qmax", "43", "--restarts", "5"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False"


def test_tables_prints_npa_bounds(capsys, tmp_path):
    """Each row lists the requested levels' bounds in the order given: Q1
    is skipped (-) on every row, as each has three-body terms, and a solve
    that hits the iteration cap reads cap. An AQ bound is a check only
    where an exact maximum is known and is not an AQ anomaly."""
    out_path = tmp_path / "report.json"
    # A loose tolerance keeps the solves short; the bounds may then miss
    # their checks, which this test does not look at.
    code, out, _ = run(capsys, "tables", "--restarts", "1", "--npa", "aq", "--npa", "q1",
                       "--tol", "1e-3", "--out", str(out_path))
    assert code in (cli.EXIT_OK, cli.EXIT_MISMATCH)
    lines = out.splitlines()
    for row in json.loads(out_path.read_text())["rows"]:
        assert row["npa_bounds"]["Q1"]["status"] == "skipped"
        cell = row["npa_bounds"]["AQ"]
        assert {"iterations", "penalty_updates", "rejected_steps"} <= set(cell)
        checked = row["kind"] == "closed" and row["id"] not in AQ_ANOMALY_IDS
        assert ("status" in cell) == checked
        aq = f"{cell['bound']:.7f}"
        assert lines[row["id"] - 1].split()[-5:-1] == ["AQ", aq, "Q1", "-"]

    code, out, _ = run(capsys, "tables", "--restarts", "1", "--npa", "aq",
                       "--max-iterations", "5")
    assert code == cli.EXIT_NO_CONVERGENCE
    assert all(line.split()[-3:-1] == ["AQ", "cap"] for line in out.splitlines()[:46])


def test_tables_solves_a_repeated_level_once(capsys, tmp_path, monkeypatch):
    levels = []
    real = cli.npa_solve

    def counting(expr, level, params):
        levels.append(level)
        return real(expr, level, params)

    monkeypatch.setattr(cli, "npa_solve", counting)
    out_path = tmp_path / "report.json"
    run(capsys, "tables", "--restarts", "1", "--npa", "q1", "--npa", "aq", "--npa", "q1",
        "--tol", "1e-3", "--max-iterations", "5", "--out", str(out_path))
    assert levels == ["Q1", "AQ"] * 46
    assert json.loads(out_path.read_text())["metadata"]["npa_levels"] == ["Q1", "AQ"]


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_tables_rejects_unwritable_path_before_running(capsys, tmp_path, monkeypatch, option):
    def no_rows(*args):
        raise AssertionError("a row ran before the path was checked")

    monkeypatch.setattr(cli, "_tables_row", no_rows)
    code, out, err = run(capsys, "tables", option, str(tmp_path / "missing" / "report"))
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert out == ""


def test_tables_rejects_one_file_for_out_and_csv(capsys, tmp_path, monkeypatch):
    """The CSV would overwrite the report: ``--out`` and ``--csv`` naming
    one file, however spelled, is a usage error before the seesaw runs."""
    def no_pool(*args):
        raise AssertionError("the seesaw ran before the paths were checked")

    monkeypatch.setattr(cli, "quantum_maxima", no_pool)
    report = tmp_path / "same.txt"
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(report)
    for other in (report, tmp_path / "sub" / ".." / "same.txt", tmp_path / "link.txt"):
        code, out, err = run(capsys, "tables", "--restarts", "2", "--out", str(report),
                             "--csv", str(other))
        assert code == cli.EXIT_USAGE
        assert err == f"error: --out and --csv name the same file: {other}\n"
        assert out == ""
    assert report.read_text() == ""
