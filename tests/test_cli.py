import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz_toda import cli
from hurwitz_toda.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_csv_header_only_at_dmax_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--dmax", "0", "--format", "csv")
        assert code == 0
        assert out == "d,b,mu,nu,value,genus,connected\n"

    def test_csv_contains_classical_value(self, capsys):
        code, out, _ = run(capsys, "table", "--dmax", "3", "--bmax", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        hit = [r for r in rows if r["d"] == "3" and r["b"] == "4"
               and r["mu"] == "1,1,1" and r["nu"] == "1,1,1"]
        assert hit and hit[0]["value"] == "4"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--dmax", "2", "--bmax", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert isinstance(data, list) and data
        assert all({"d", "b", "mu", "nu", "value", "genus", "connected"} == set(r) for r in data)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "table", "--dmax", "3", "--bmax", "3", "--format", "json")
        _, out2, _ = run(capsys, "table", "--dmax", "3", "--bmax", "3", "--format", "json")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "table", "--dmax", "1", "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("d,b,mu,nu")

    def test_unwritable_out_path(self, capsys):
        code, _, err = run(capsys, "table", "--dmax", "1", "--format", "csv",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 1
        assert "cannot write" in err


class TestSingleQueries:
    def test_double(self, capsys):
        code, out, _ = run(capsys, "double", "--mu", "1,1,1", "--nu", "1,1,1",
                           "-b", "4", "--format", "json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["value"] == 4 and rec["genus"] == 0

    def test_cov(self, capsys):
        code, out, _ = run(capsys, "cov", "--mu", "2", "--nu", "2", "-b", "0",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["value"] == "1/2" and rec["connected"] is False

    def test_mismatched_profiles(self, capsys):
        for command in ("double", "cov"):
            code, out, err = run(capsys, command, "--mu", "2", "--nu", "3", "-b", "0")
            assert code == 2 and out == "" and "same size" in err

    def test_query_read_at_call_time(self, capsys, monkeypatch):
        # a rebinding of the module names after import still applies
        calls = []
        for name in ("double_hurwitz", "cov_record"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        run(capsys, "double", "--mu", "2", "--nu", "2", "-b", "0")
        run(capsys, "cov", "--mu", "2", "--nu", "2", "-b", "0")
        assert calls == ["double_hurwitz", "cov_record"]

    def test_bad_partition_usage_error(self, capsys):
        code, out, err = run(capsys, "double", "--mu", "0", "--nu", "1")
        assert code == 2 and out == ""
        assert "bad partition '0'" in err

    def test_no_floats_in_output(self, capsys):
        _, out, _ = run(capsys, "table", "--dmax", "2", "--bmax", "2", "--format", "json")
        for rec in json.loads(out):
            assert not isinstance(rec["value"], float)


class TestVerify:
    def test_toda_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "toda", "--dmax", "4", "--bmax", "4")
        assert code == 0 and out.startswith("PASS toda")

    def test_hirota_notes_toda_match(self, capsys):
        code, out, _ = run(capsys, "verify", "hirota", "-m", "0", "--sn", "1", "--dmax", "4")
        assert code == 0
        assert "matches_toda_residual: True" in out

    def test_json_notes_are_json_values(self, capsys):
        code, out, _ = run(capsys, "verify", "hirota", "-m", "0", "--sn", "1", "--dmax", "4",
                           "--format", "json")
        assert code == 0
        assert '"matches_toda_residual": true' in out
        assert json.loads(out)["notes"] == {"side": "pprime", "matches_toda_residual": True}
        code, out, _ = run(capsys, "verify", "tau-n", "-n", "0", "--dmax", "2", "--bmax", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["notes"] == {"prefactor_beta_exponent": 0}

    def test_tau_n(self, capsys):
        code, out, _ = run(capsys, "verify", "tau-n", "-n", "1", "--dmax", "3", "--bmax", "3")
        assert code == 0 and "1/8" in out

    @pytest.mark.parametrize("n", ["-1", "0", "2"])
    def test_tau_n_corrupt_test_exits_one(self, capsys, n):
        code, out, _ = run(capsys, "verify", "tau-n", "-n", n, "--dmax", "4", "--bmax", "4",
                           "--corrupt-test")
        assert code == 1 and out.startswith("FAIL")

    @pytest.mark.parametrize("argv", [
        ["toda", "--dmax", "0"],
        ["hirota", "--dmax", "0"],
        ["hirota", "--dmax", "0", "--bmax", "0", "--corrupt-test"],
        ["tau-n", "-n", "1", "--dmax", "0"],
    ])
    def test_empty_window_refused(self, capsys, argv):
        # a window of degree 0 holds no identity, so it cannot pass
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == "error: d_max must be at least 1\n"

    @pytest.mark.parametrize("case", [["-m", "-1", "--sn", "1", "--side", "p"],
                                      ["-m", "-1", "--sn", "1"],
                                      ["-m", "0", "--sn", "1", "--side", "p"],
                                      ["-m", "0", "--sn", "2", "--side", "p"]])
    def test_vacuous_hirota_control_refused(self, capsys, case):
        # these equations hold for every series, so a corrupted tau would pass
        code, out, _ = run(capsys, "verify", "hirota", *case, "--dmax", "5", "--bmax", "5")
        assert code == 0 and out.startswith("PASS")
        code, out, err = run(capsys, "verify", "hirota", *case, "--dmax", "5", "--bmax", "5",
                             "--corrupt-test")
        assert code == 2 and out == ""
        assert "holds for every series" in err

    def test_zero_hirota_residual_refused(self, capsys):
        # with --corrupt-test the corrupted residual of (0, 3, p) at (3, 3) is
        # zero, so the control could not fail
        argv = ["verify", "hirota", "-m", "0", "--sn", "3", "--side", "p",
                "--dmax", "3", "--bmax", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("PASS")
        code, out, err = run(capsys, *argv, "--corrupt-test")
        assert code == 2 and out == ""
        assert err.startswith("error: hirota {'m': 0, 'n_s': 3, 'd_max': 3, 'b_max': 3}")
        assert "zero residual" in err

    def test_csv_format_usage_error(self, capsys):
        # a report is not a table: verify offers only json and human
        with pytest.raises(SystemExit) as exc:
            main(["verify", "toda", "--dmax", "2", "--bmax", "2", "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'csv'" in captured.err

    def test_specialized(self, capsys):
        code, out, _ = run(capsys, "verify", "toda-specialized", "--dmax", "4")
        assert code == 0 and out.startswith("PASS")

    def test_corrupt_test_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "toda", "--dmax", "3", "--bmax", "3",
                           "--corrupt-test")
        assert code == 1
        assert "first offending monomial: (1, 0, (), (), 0, 0) = 1\n" in out
        code, out, _ = run(capsys, "verify", "toda", "--dmax", "3", "--bmax", "3",
                           "--corrupt-test", "--format", "json")
        assert code == 1
        assert json.loads(out)["first_failure_value"] == 1

    def test_unknown_identity_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "kdv"])
        assert exc.value.code == 2

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "toda", "--dmax", "3", "--bmax", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestCompare:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "compare", "--dmax", "2", "--bmax", "2")
        assert code == 0 and "agreement" in out

    def test_degree_one(self, capsys):
        code, _, _ = run(capsys, "compare", "--dmax", "1", "--bmax", "0")
        assert code == 0

    def test_scale_limit(self, capsys):
        code, _, err = run(capsys, "compare", "--dmax", "7")
        assert code == 2 and "oracle scale limit" in err

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_scale_limit_reported_once(self, capsys, fmt):
        # main reports the limit as it is, with no "error:" prefix
        code, out, err = run(capsys, "compare", "--dmax", "7", "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("oracle scale limit") and err.count("\n") == 1

    def test_csv_dump(self, capsys):
        code, out, err = run(capsys, "compare", "--dmax", "2", "--bmax", "1",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0].keys() == {"d", "b", "mu", "nu",
                                  "disconnected_count", "connected_count"}
        # every stdout row is a table row; the summary is on stderr
        assert len(rows) == 10 and all(row["d"].isdigit() for row in rows)
        assert err == "agreement for all d <= 2, b <= 1\n"

    def test_csv_discrepancies_on_stderr(self, capsys, monkeypatch):
        found = {"d": 1, "b": 0, "mu": (1,), "nu": (1,), "kind": "connected",
                 "oracle": 1, "series": 2, "formula": None}
        monkeypatch.setattr(cli, "compare_all", lambda *args, **kwargs: [found])
        code, out, err = run(capsys, "compare", "--dmax", "1", "--bmax", "0",
                             "--format", "csv")
        assert code == 1
        assert out == "d,b,mu,nu,disconnected_count,connected_count\n1,0,1,1,1,1\n"
        assert err.startswith("DISCREPANCY connected d=1 b=0")

    @pytest.mark.parametrize("argv,message", [
        (["--dmax", "0"], "d_max must be at least 1"),
        (["--dmax", "0", "--format", "csv"], "d_max must be at least 1"),
        (["--dmax", "2", "--bmax", "-1"], "b_max must be nonnegative"),
        (["--dmax", "2", "--bmax", "-1", "--format", "csv"], "b_max must be nonnegative"),
    ])
    def test_empty_box_refused(self, capsys, argv, message):
        # nothing to compare, so no table, no agreement line and exit 2
        code, out, err = run(capsys, "compare", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HURWITZ_ORACLE_DMAX_CAP", "2")
        code, _, err = run(capsys, "compare", "--dmax", "3")
        assert code == 2 and "oracle scale limit" in err

    def test_env_jobs_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HURWITZ_JOBS", "x")

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "compare_all", no_sweep)
        code, out, err = run(capsys, "compare", "--dmax", "2", "--bmax", "1")
        assert code == 2 and out == ""
        assert "$HURWITZ_JOBS" in err

    @pytest.mark.parametrize("flag,env", [("0", None), ("-3", None), (None, "0")])
    def test_jobs_below_one(self, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("HURWITZ_JOBS", env)

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "compare_all", no_sweep)
        argv = ["compare", "--dmax", "2", "--bmax", "1", "--format", "csv"]
        code, out, err = run(capsys, *argv, *(["--jobs", flag] if flag else []))
        assert code == 2 and out == ""
        assert "must be at least 1" in err

    def test_parallel_jobs(self, capsys):
        code, out, _ = run(capsys, "compare", "--dmax", "2", "--bmax", "1",
                           "--jobs", "2")
        assert code == 0 and "agreement" in out


class TestChartable:
    def test_s3(self, capsys):
        code, out, _ = run(capsys, "chartable", "--d", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "3", "2,1", "1,1,1"]
        table = {r[0]: r[1:] for r in rows[1:]}
        assert table["3"] == ["1", "1", "1"]
        assert table["2,1"] == ["-1", "0", "2"]
        assert table["1,1,1"] == ["1", "-1", "1"]


class TestImport:
    @staticmethod
    def loaded(names):
        """Which of ``names`` a bare ``python -S`` import of the CLI loads;
        -S leaves out site, so only the package's own imports are counted."""
        src = Path(cli.__file__).resolve().parents[1]
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); import hurwitz_toda.cli; "
                f"print(sorted({set(names)!r} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_loads_neither_dataclasses_nor_inspect(self):
        assert self.loaded({"dataclasses", "inspect"}) == "[]\n"

    def test_cli_loads_neither_json_nor_csv(self):
        # each is imported by the output path that writes it
        assert self.loaded({"json", "csv"}) == "[]\n"
