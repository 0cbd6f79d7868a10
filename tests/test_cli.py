"""CLI surface: subcommands, formats, exit codes, env override, start-up."""

import csv
import io
import json
import math
import platform
import subprocess
import sys

import pytest

import etaint
from etaint import cli, verify
from etaint._backend import available_backends
from etaint.errors import NonConvergenceError

from conftest import subprocess_env


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestList:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "A10" in out and "flagged" in out
        assert "sqrt(2) - 1" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) >= 20
        byid = {row["id"]: row for row in payload}
        assert byid["A10"]["expected_status"] == "flagged"
        assert all(row["anchor"] for row in payload)


class TestEval:
    def test_a13(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--identity", "A13")
        assert code == 0
        assert "A13" in out and "pass" in out
        assert f"{2*math.pi/math.sqrt(3):.15e}" in out

    def test_eq11(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--identity", "EQ11")
        assert code == 0
        assert f"{math.pi/4:.15e}" in out

    def test_explicit_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ5", "--param", "t=2.5", "--tol", "1e-9"
        )
        assert code == 0
        assert "t=2.5" in out and "pass" in out

    def test_unknown_identity_rejected_before_compute(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--identity", "A99")
        assert code == cli.USAGE_ERROR
        assert "unknown identity" in err


class TestParameterEdges:
    def test_eq8_at_y_20000_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ8", "--param", "y=20000", "--format", "json"
        )
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert record["status"] == "pass" and record["evals"] <= 1_500

    @pytest.mark.parametrize("ident,param", [("EQ7", "s"), ("A3", "nu")])
    def test_huge_parameter_is_usage_error(self, capsys, ident, param):
        # the weight x^-s overflows at the lower limit x = 1e-12: one line, exit 2
        code, out, err = run_cli(capsys, "eval", "--identity", ident, "--param", f"{param}=1e300")
        assert code == cli.USAGE_ERROR and out == ""
        assert err.startswith(f"error: {ident} at {param}=1e+300:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "ident,param", [("A8", "a=1e300"), ("A9", "b=1e307"), ("A10", "a=1e300"),
                        ("A11", "y=1e308"), ("A12", "y=1e308")]
    )
    def test_overflowing_parameter_gives_a_record_or_a_usage_error(self, capsys, ident, param):
        # The weight overflows near x = 0 (A8-A10) or pi y does (A11, A12);
        # cli.main raising would be a traceback.
        code, out, err = run_cli(capsys, "eval", "--identity", ident, "--param", param)
        if code == cli.USAGE_ERROR:
            assert out == "" and err.startswith(f"error: {ident} at") and err.count("\n") == 1
        else:
            assert code in (0, 1) and err == "" and out.count(f"{ident} ") == 1

    def test_a15_whose_tail_bound_overflows_is_usage_error(self, capsys):
        # x^164 eta^3: the tail bound beyond any cutoff exceeds the doubles
        code, out, err = run_cli(capsys, "eval", "--identity", "A15", "--param", "n=164")
        assert code == cli.USAGE_ERROR and out == ""
        assert err.startswith("error: A15 at n=164:") and err.count("\n") == 1
        assert "cannot be bounded" in err


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_a15_whose_tail_no_cutoff_bounds_is_usage_error(backend):
    # x^100000 eta^3 still grows at x = 1e5: a property of the parameter,
    # not an exhausted budget (it used to read as a `fail` with 0 evaluations)
    if backend not in available_backends():
        pytest.skip("compiled kernel core not built")
    proc = subprocess.run(
        [sys.executable, "-m", "etaint.cli", "eval", "--identity", "A15", "--param", "n=100000"],
        env=subprocess_env(pure=backend == "python"), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == cli.USAGE_ERROR and proc.stdout == ""
    assert proc.stderr.startswith("error: A15 at n=100000: no cutoff below")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "ident,param", [("EQ7", "s=30"), ("EQ7", "s=60"), ("EQ7", "s=100"), ("EQ7", "s=150"),
                    ("A3", "nu=30"), ("A3", "nu=200")]
)
def test_overflowing_weight_is_the_same_usage_error_on_both_backends(ident, param):
    # x^-s overflows at the lower limit x = 1e-12 for s > 25.7
    outcomes = []
    for backend in sorted(available_backends()):
        proc = subprocess.run(
            [sys.executable, "-m", "etaint.cli", "eval", "--identity", ident, "--param", param],
            env=subprocess_env(pure=backend == "python"), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == cli.USAGE_ERROR and proc.stdout == "", backend
        assert proc.stderr.startswith(f"error: {ident} at {param}:"), proc.stderr
        assert proc.stderr.count("\n") == 1 and "overflows" in proc.stderr
        outcomes.append(proc.stderr)
    assert len(set(outcomes)) == 1


@pytest.mark.parametrize(
    "ident,param", [("A8", "a=1000"), ("A8", "a=1e5"), ("A8", "a=1e8"), ("A8", "a=1e12"),
                    ("EQ8", "y=1e308"), ("EQ10", "y=1e308")]
)
def test_large_parameter_passes_on_both_backends(ident, param):
    # A8 ran out of budget between a = 600 and 700, and its right-hand side
    # overflowed from 8.0e4; EQ8/EQ10's was NaN beyond y = 5.7e307.
    outs = []
    for backend in sorted(available_backends()):
        proc = subprocess.run(
            [sys.executable, "-m", "etaint.cli", "eval", "--identity", ident, "--param", param,
             "--format", "json"],
            env=subprocess_env(pure=backend == "python"), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == "", (backend, proc.stderr)
        (record,) = json.loads(proc.stdout)["records"]
        assert record["status"] == "pass" and record["evals"] < 1_000, (backend, record)
        outs.append({k: v for k, v in record.items() if k != "ms"})
    assert all(out == outs[0] for out in outs)


class TestRecordDiagnostics:
    def test_json_record_carries_tail_method_cutoff_and_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ8", "--param", "y=400", "--format", "json"
        )
        assert code == 0
        (rec,) = json.loads(out)["records"]
        assert rec["tail_method"] == "series-correction"
        assert rec["cutoff"] == 1.0
        assert "display" in rec["note"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_record_carries_the_error_split(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ7", "--param", "s=0.5", "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            (rec,) = json.loads(out)["records"]
        else:
            (rec,) = csv.DictReader(io.StringIO(out))
        lower, lower_err, tail_err, lhs_err = (
            float(rec[key]) for key in ("lower", "lower_err", "tail_err", "lhs_err")
        )
        assert math.frexp(lower)[0] == 0.5 and 1e-12 <= lower <= 0.125
        assert 0.0 <= lower_err and 0.0 < tail_err
        assert lower_err + tail_err <= lhs_err

    def test_nonconvergence_reports_null_error_split(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise NonConvergenceError("synthetic budget exhaustion")

        monkeypatch.setattr(verify.quad, "integrate", exhausted)
        _, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ8", "--param", "y=5", "--format", "json"
        )
        (rec,) = json.loads(out)["records"]
        assert rec["lower"] is None and rec["lower_err"] is None and rec["tail_err"] is None

    def test_nonconvergence_reports_null_tail_and_reason(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise NonConvergenceError("synthetic budget exhaustion")

        monkeypatch.setattr(verify.quad, "integrate", exhausted)
        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ8", "--param", "y=5", "--format", "json"
        )
        assert code == 1
        (rec,) = json.loads(out)["records"]
        assert rec["status"] == "fail"
        assert rec["cutoff"] is None and rec["tail_method"] is None
        assert "synthetic budget exhaustion" in rec["note"]


    def test_nonconvergence_reports_the_evaluations_spent(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ7", "--param", "s=8", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        (rec,) = payload["records"]
        assert rec["status"] == "fail" and "did not converge" in rec["note"]
        assert rec["evals"] >= 99_000 and rec["evals"] == payload["suite"]["totals"]["evals"]

    def test_nonconvergence_json_is_strict(self, capsys):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code, out, _ = run_cli(
            capsys, "eval", "--identity", "EQ7", "--param", "s=10", "--format", "json"
        )
        assert code == 1
        (rec,) = json.loads(out, parse_constant=reject)["records"]
        for key in ("lhs", "lhs_err", "rhs", "abs_residual", "rel_residual"):
            assert rec[key] is None, key
        assert rec["status"] == "fail" and "did not converge" in rec["note"]


class TestTable:
    def test_eq7_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table",
            "--identity",
            "EQ7",
            "--param",
            "s=0.25:2.0:0.25",
            "--tol",
            "1e-6",
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln.startswith("EQ7")]
        assert len(rows) == 8  # inclusive of lo, last value 2.0
        assert "s=0.25" in rows[0] and "s=2" in rows[-1]

    def test_requires_range(self, capsys):
        code, _, err = run_cli(capsys, "table", "--identity", "EQ7")
        assert code == cli.USAGE_ERROR
        assert "lo:hi:step" in err

    def test_eq8_large_y_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--identity", "EQ8", "--param", "y=100:400:100",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [r["params"]["y"] for r in records] == [100.0, 200.0, 300.0, 400.0]
        assert all(r["status"] == "pass" for r in records)

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--identity", "EQ7", "--param", "s=2.0:1.0:0.25"
        )
        assert code == cli.USAGE_ERROR

    def test_sweep_of_more_than_10000_points_rejected(self):
        # 1e18 points: counted before any is built, so this exits at once
        proc = subprocess.run(
            [sys.executable, "-m", "etaint.cli", "table", "--identity", "EQ5",
             "--param", "t=1:1e9:1e-9"],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.USAGE_ERROR
        assert proc.stderr.startswith("error: --param t:") and "10000 points" in proc.stderr
        assert proc.stdout == ""

    def test_sweep_cap_is_exact(self):
        _, sweep = cli._parse_params(["t=0:9999:1"])
        assert len(cli._sweep_values(*sweep[1:])) == 10_000
        with pytest.raises(cli._CliError, match="--param t"):
            cli._parse_params(["t=0:10000:1"])

    @pytest.mark.parametrize("value", ["0:inf:1", "nan:1:0.5", "1:2:inf"])
    def test_non_finite_range_rejected(self, capsys, value):
        # an infinite or NaN bound never ends the sweep loop
        code, _, err = run_cli(capsys, "table", "--identity", "EQ7", "--param", f"s={value}")
        assert code == cli.USAGE_ERROR
        assert "--param s" in err and "finite" in err


class TestRun:
    def test_subset_json_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--identity",
            "A13",
            "A10",
            "--tol",
            "1e-9",
            "--format",
            "json",
            "--output",
            str(out_path),
        )
        assert code == 0  # flagged entries never fail the suite
        text = out_path.read_text()
        payload = json.loads(text)
        assert payload["suite"]["totals"]["fail"] == 0
        statuses = {r["id"]: r["status"] for r in payload["records"]}
        assert statuses["A13"] == "pass"
        assert statuses["A10"] == "flagged"
        suite = payload["suite"]
        assert suite["version"] == etaint.__version__
        assert suite["python"] == platform.python_version()
        assert suite["totals"]["evals"] == sum(r["evals"] for r in payload["records"])
        # byte-identical re-serialization
        assert json.dumps(payload, indent=2) + "\n" == text

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--identity", "A14", "--format", "csv", "--tol", "1e-8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("id,params,lhs,lhs_err,rhs")
        assert lines[1].startswith("A14,-,")
        assert lines[0].endswith(",ms,cutoff,tail_method,note,lower,lower_err,tail_err")

    def test_csv_row_matches_json_record(self, capsys):
        argv = ("eval", "--identity", "EQ8", "--param", "y=5", "--format")
        _, out, _ = run_cli(capsys, *argv, "csv")
        (row,) = csv.DictReader(io.StringIO(out))
        _, out, _ = run_cli(capsys, *argv, "json")
        (rec,) = json.loads(out)["records"]
        assert list(row) == list(rec)
        assert row["params"] == "y=5"
        for key in ("id", "status", "tail_method", "note"):
            assert row[key] == rec[key]
        assert int(row["evals"]) == rec["evals"]
        for key in ("lhs", "lhs_err", "rhs", "abs_residual", "rel_residual", "cutoff"):
            assert float(row[key]) == rec[key]
        assert "display" in row["note"]

    def test_tol_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "run", "--identity", "A14", "--tol", "1e-2")
        assert code == cli.USAGE_ERROR
        assert "--tol" in err
        code, _, err = run_cli(capsys, "run", "--identity", "A14", "--tol", "1e-13")
        assert code == cli.USAGE_ERROR

    def test_env_tol_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ETAINT_TOL", "1e-6")
        code, out, _ = run_cli(
            capsys, "run", "--identity", "A14", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["suite"]["tol"] == 1e-6

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        fail_record = verify.IdentityRecord(
            id="A14",
            params={},
            lhs_value=1.0,
            lhs_err_est=1e-12,
            rhs_value=2.0,
            abs_residual=1.0,
            rel_residual=0.5,
            status="fail",
            evals=15,
            ms=0.1,
        )
        report = verify.VerificationReport(records=(fail_record,))
        monkeypatch.setattr(cli.verify, "run_suite", lambda *a, **k: report)
        code, _, _ = run_cli(capsys, "run", "--identity", "A14")
        assert code == 1

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.USAGE_ERROR

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "run", "--identity", "A7", "--output", str(target))
        assert code == cli.USAGE_ERROR
        assert out == ""
        assert err.startswith("error: --output ") and err.count("\n") == 1
        assert not target.exists()


class TestExitCodeContract:
    def test_flagged_only_report_exits_zero(self):
        rec = verify.IdentityRecord(
            id="A10", params={"a": 1.0}, lhs_value=1.0, lhs_err_est=1e-12,
            rhs_value=2.0, abs_residual=1.0, rel_residual=0.5,
            status="flagged", evals=15, ms=0.1,
        )
        assert cli.exit_code_for_report(verify.VerificationReport(records=(rec,))) == 0

    def test_any_fail_exits_one(self):
        rec = verify.IdentityRecord(
            id="A14", params={}, lhs_value=1.0, lhs_err_est=1e-12,
            rhs_value=2.0, abs_residual=1.0, rel_residual=0.5,
            status="fail", evals=15, ms=0.1,
        )
        assert cli.exit_code_for_report(verify.VerificationReport(records=(rec,))) == 1


class TestParameterNames:
    def test_wrong_name_lists_valid_names(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--identity", "EQ5", "--param", "s=1")
        assert code == cli.USAGE_ERROR
        assert "EQ5 takes parameters: t" in err
        assert "Traceback" not in err

    def test_constant_identity_takes_no_parameters(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--identity", "EQ9", "--param", "t=3")
        assert code == cli.USAGE_ERROR
        assert "EQ9 takes parameters: none" in err
        assert "pass" not in out

    def test_table_sweep_of_unknown_name(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--identity", "EQ7", "--param", "x=0.25:1.0:0.25"
        )
        assert code == cli.USAGE_ERROR
        assert "EQ7 takes parameters: s" in err


def _without_timing(payload):
    suite = {k: v for k, v in payload["suite"].items() if k != "started_at"}
    suite["totals"] = {k: v for k, v in suite["totals"].items() if k != "ms"}
    return suite, [{k: v for k, v in r.items() if k != "ms"} for r in payload["records"]]


_WARM_RUN = """
import contextlib, io
from etaint import cli, verify
verify.run_suite()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["table", "--identity", "EQ7", "--param", "s=0.25:3:0.25"])
cli.main(["run", "--all", "--format", "json"])
"""


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_run_all_json_is_the_same_in_a_warm_process(backend):
    # The kernels' panel memo is warm in the second process: no record may move.
    if backend not in available_backends():
        pytest.skip("compiled kernel core not built")
    env = subprocess_env(pure=backend == "python")
    payloads = [
        json.loads(subprocess.run(
            argv, env=env, capture_output=True, text=True, check=True, timeout=120
        ).stdout)
        for argv in ([sys.executable, "-m", "etaint.cli", "run", "--all", "--format", "json"],
                     [sys.executable, "-c", _WARM_RUN])
    ]
    assert payloads[0]["suite"]["backend"] == backend
    assert _without_timing(payloads[0]) == _without_timing(payloads[1])


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_run_all_stays_under_its_evaluation_ceiling(backend):
    # Panels graded toward the lower limit chosen from the clipped-mass
    # bound: 11,280 evaluations (14,730 from the fixed 1e-12 clip).
    if backend not in available_backends():
        pytest.skip("compiled kernel core not built")
    out = subprocess.run(
        [sys.executable, "-m", "etaint.cli", "run", "--all", "--format", "json"],
        env=subprocess_env(pure=backend == "python"),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    suite = json.loads(out)["suite"]
    assert suite["backend"] == backend
    assert suite["totals"]["evals"] <= 13_000


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_fourier_grid_stays_under_its_evaluation_ceiling(backend):
    # EQ8/EQ10/A11/A12 at y = 50:400:50: Filon panels from c > 3, with
    # moments from the boundary-value solve below c = 14, need 8,610
    # evaluations (19,470 with Filon panels from c > 14 only).
    if backend not in available_backends():
        pytest.skip("compiled kernel core not built")
    total = 0
    for ident in ("EQ8", "EQ10", "A11", "A12"):
        out = subprocess.run(
            [sys.executable, "-m", "etaint.cli", "table", "--identity", ident,
             "--param", "y=50:400:50", "--format", "json"],
            env=subprocess_env(pure=backend == "python"),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        suite = json.loads(out)["suite"]
        assert suite["backend"] == backend and suite["totals"]["pass"] == 8
        total += suite["totals"]["evals"]
    assert total <= 9_000


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_mellin_grid_stays_under_its_evaluation_ceiling(backend):
    # A8 at a = 0.25:16:5.25: cos(a/x) panels take the Filon rule in
    # t = 1/x wherever c = a (1/x_a - 1/x_b)/2 > 3, so they need 2,100
    # evaluations (5,640 with Gauss-Kronrod only, about 150 per unit of a).
    if backend not in available_backends():
        pytest.skip("compiled kernel core not built")
    out = subprocess.run(
        [sys.executable, "-m", "etaint.cli", "table", "--identity", "A8",
         "--param", "a=0.25:16:5.25", "--format", "json"],
        env=subprocess_env(pure=backend == "python"),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    suite = json.loads(out)["suite"]
    assert suite["backend"] == backend and suite["totals"]["pass"] == 4
    assert suite["totals"]["evals"] <= 2_400


_STARTUP_PROBE = (
    "import sys, etaint.cli; print(etaint.backend_name(),"
    " *sorted({'dataclasses', 'inspect', 'csv'} & sys.modules.keys()))"
)


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_import_leaves_dataclasses_inspect_and_csv_unloaded(backend):
    if backend not in available_backends():
        pytest.skip("compiled kernel core not built")
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE],
        env=subprocess_env(pure=backend == "python"),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.split() == [backend]
