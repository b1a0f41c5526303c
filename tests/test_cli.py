import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubelab
from cubelab.cli import Emitter, _fmt, build_parser, main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _float_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every float-typed flag, read off the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, p in sub.choices.items()
            for action in p._actions if action.type is float]


# The arguments each subcommand requires, at values that would run.
_BASE_ARGS = {
    "count": ["--n", "100", "--theta", "0.3"],
    "scan": ["--n-lo", "100", "--n-hi", "110", "--theta", "0.3"],
    "predict": ["--theta", "0.3", "--samples", "2", "--n-hi", "100"],
    "genfun": ["--kind", "f", "--alpha-grid", "0:1:2"],
    "arcs": ["--style", "P"],
    "meanvalue": ["--shape", "G2"],
}


class TestBasicCommands:
    def test_count_example(self, capsys):
        code, out = run(capsys, "count", "--n", "4", "--theta", "0.33")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,theta,count"
        assert lines[1].startswith("4,") and lines[1].endswith(",1")

    def test_expsum_gauss_row(self, capsys):
        code, out = run(capsys, "expsum", "--q", "2", "--a", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,a,re,im"
        q, a, re, im = lines[1].split(",")
        assert (q, a) == ("2", "1")
        assert abs(float(re)) < 1e-12 and abs(float(im)) < 1e-12

    def test_expsum_series_row(self, capsys):
        code, out = run(capsys, "expsum", "--n", "7", "--qmax", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,Qmax,series,tail"
        vals = lines[1].split(",")
        assert float(vals[2]) == pytest.approx(1.0, abs=1e-12)

    def test_meanvalue_g4(self, capsys):
        code, out = run(capsys, "meanvalue", "--shape", "G4", "--R", "10", "--grid", "4096")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[2])
        assert value == pytest.approx(190.0, abs=1e-6)

    def test_smooth_one_member_per_line(self, capsys):
        # Fixture format: nothing but the integers.
        code, out = run(capsys, "smooth", "--kind", "A", "--R", "10", "--eta", "0.30103")
        assert code == 0
        assert [int(x) for x in out.strip().splitlines()] == [1, 2, 4, 8]

    def test_arcs_table(self, capsys):
        code, out = run(capsys, "arcs", "--style", "M", "--cutoff", "2",
                        "--N", "864000", "--theta", "0.3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,a,center,half_width"
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        labels = {(int(r[0]), int(r[1])) for r in rows}
        assert labels == {(1, 0), (1, 1), (2, 1)}

    def test_genfun_grid(self, capsys):
        code, out = run(capsys, "genfun", "--kind", "G", "--alpha-grid", "0:0.5:2",
                        "--N", "864", "--theta", "0.3333333333333333")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,re,im"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(6.0)  # G(0) = R = P = 6

    def test_residual_summary(self, capsys):
        code, out = run(capsys, "residual", "--P", "20", "--qmax", "3", "--samples", "3")
        assert code == 0
        assert "# max_ratio" in out

    def test_scan_schema(self, capsys):
        code, out = run(capsys, "scan", "--n-lo", "4", "--n-hi", "20",
                        "--theta", "0.25", "--qmax", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,theta,count,series,main_term,ratio,exceptional"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["count", "--bogus"]) == 1

    def test_unknown_command_is_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_precondition_is_2(self, capsys):
        assert main(["count", "--n", "3", "--theta", "0.2"]) == 2

    def test_resource_guard_is_3(self, capsys):
        assert main(["meanvalue", "--shape", "K8", "--P", "100", "--R", "50"]) == 3

    def test_sieve_cap_is_3(self, capsys):
        assert main(["smooth", "--R", "4000001"]) == 3

    def test_scan_window_guard_is_3(self, capsys):
        assert main(["scan", "--n-lo", "1000000000", "--n-hi", "2000000000",
                     "--theta", "0.3333333333333333"]) == 3

    @pytest.mark.parametrize("argv", [
        ("genfun", "--kind", "f", "--alpha-grid", "0:1:10000000000000"),
        ("predict", "--theta", "0.3", "--samples", "10000000000000"),
        ("residual", "--samples", "10000000000000"),
    ])
    def test_sample_counts_are_guarded_before_allocation_3(self, capsys, argv):
        # 10^13 points would be an 80 TB array: the guard must trip first.
        assert main(list(argv)) == 3
        assert "sample cap" in capsys.readouterr().err

    @pytest.mark.parametrize("P", ["1e5", "2e6"])
    def test_residual_large_P_is_3_before_any_work(self, capsys, monkeypatch, P):
        def no_work(*args, **kwargs):
            raise AssertionError("the guard must trip before any Weyl sum or quadrature")

        monkeypatch.setattr("cubelab.experiments.weyl_sum", no_work)
        monkeypatch.setattr("cubelab.experiments.major_arc_approximant", no_work)
        assert main(["residual", "--P", P]) == 3
        assert "resource guard" in capsys.readouterr().err

    @pytest.mark.parametrize("P", ["nan", "inf", "1e120"])
    def test_residual_bad_P_is_2(self, capsys, P):
        assert main(["residual", "--P", P]) == 2
        assert "precondition violation" in capsys.readouterr().err

    def test_residual_past_the_full_family_guard_runs(self, capsys):
        # The q <= P^(6/5) family at P = 1000 would pass the arc guard;
        # the two arcs sampled here do not.
        assert main(["residual", "--P", "1000", "--qmax", "2", "--samples", "1"]) == 0

    @settings(max_examples=40, deadline=None)
    @given(flag=st.sampled_from(_float_flags()), value=st.sampled_from(["nan", "inf", "-inf"]))
    @example(flag=("count", "--theta"), value="nan")
    @example(flag=("scan", "--theta"), value="nan")
    @example(flag=("predict", "--theta"), value="nan")
    @example(flag=("arcs", "--cutoff"), value="nan")
    @example(flag=("smooth", "--R"), value="nan")
    @example(flag=("smooth", "--X"), value="nan")
    @example(flag=("smooth", "--Y"), value="nan")
    @example(flag=("meanvalue", "--P"), value="nan")
    @example(flag=("genfun", "--tau"), value="nan")
    @example(flag=("count", "--theta"), value="inf")
    @example(flag=("count", "--theta"), value="1e308")  # finite, but n^theta overflows
    @example(flag=("arcs", "--cutoff"), value="inf")
    @example(flag=("smooth", "--R"), value="inf")
    @example(flag=("smooth", "--Y"), value="inf")
    @example(flag=("meanvalue", "--R"), value="inf")
    @example(flag=("genfun", "--tau"), value="inf")
    @example(flag=("residual", "--tol"), value="nan")
    @example(flag=("residual", "--P"), value="-inf")
    def test_non_finite_float_flags_are_2(self, flag, value):
        command, option = flag
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *_BASE_ARGS.get(command, []), f"{option}={value}"])
        assert code == 2, err.getvalue()
        assert "precondition violation" in err.getvalue()

    @pytest.mark.parametrize("argv", [
        ("predict", "--theta", "0.3", "--n-lo", "10", "--n-hi", "5"),
        ("predict", "--theta", "0.3", "--samples", "-1"),
        ("genfun", "--kind", "f", "--alpha-grid", "nan:1:4"),
        ("genfun", "--kind", "f", "--alpha-grid", "0:inf:4"),
    ])
    def test_bad_ranges_are_2(self, capsys, argv):
        assert main(list(argv)) == 2
        assert "precondition violation" in capsys.readouterr().err

    def test_predict_qmax_zero_is_2_before_any_count(self, capsys, monkeypatch):
        def no_count(*_):
            raise AssertionError("counting started")

        monkeypatch.setattr("cubelab.experiments.count_r", no_count)
        assert main(["predict", "--theta", "0.3", "--n", "1000", "--qmax", "0"]) == 2
        assert "Q_max" in capsys.readouterr().err

    def test_expsum_qmax_past_the_cap_is_3_at_once(self, capsys, monkeypatch):
        def no_tables(*_):
            raise AssertionError("a table was built")

        monkeypatch.setattr("cubelab.expsums.series_coefficient_table", no_tables)
        assert main(["expsum", "--n", "5", "--qmax", "100000000"]) == 3
        assert "series modulus cap" in capsys.readouterr().err

    def test_numerical_nonconvergence_is_4(self, capsys):
        # An impossible oscillatory-integral tolerance exhausts the panel
        # budget inside the arc model.
        assert main(["residual", "--P", "50", "--qmax", "2", "--samples", "1",
                     "--tol", "1e-18"]) == 4


class TestFilesAndFormats:
    def test_reproducible_bytes_modulo_manifest(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["predict", "--theta", "0.3", "--qmax", "50", "--samples", "5",
                         "--seed", "11", "--n-lo", "100", "--n-hi", "200",
                         "--out", str(out)])
            assert code == 0
            capsys.readouterr()
        a = out1.read_text().splitlines()
        b = out2.read_text().splitlines()
        assert a[1:] == b[1:]  # identical data; line 0 names the manifest file

    def test_manifest_written(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["count", "--n", "100", "--theta", "0.25", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert manifest["command"] == "count"
        assert "timestamp" in manifest and "timings" in manifest
        assert manifest["config"]["n"] == 100
        assert out.read_text().startswith("# manifest: rows.csv.manifest.json")

    def test_json_mirrors_csv_payload(self, tmp_path, capsys):
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        for fmt, path in (("csv", csv_path), ("json", json_path)):
            assert main(["scan", "--n-lo", "4", "--n-hi", "12", "--theta", "0.25",
                         "--qmax", "10", "--format", fmt, "--out", str(path)]) == 0
            capsys.readouterr()
        with csv_path.open() as fh:
            rows_csv = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        rows_json = json.loads(json_path.read_text())["rows"]
        assert len(rows_csv) == len(rows_json)
        for rc, rj in zip(rows_csv, rows_json):
            for key in ("n", "count", "series", "main_term", "ratio"):
                jval = float(rj[key]) if not isinstance(rj[key], str) else float(rj[key])
                assert math.isclose(float(rc[key]), jval, rel_tol=0, abs_tol=0) or \
                    float(rc[key]) == pytest.approx(jval, rel=1e-16)

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 864\ntheta = 0.25\n")
        code, out = None, None
        code = main(["--config", str(cfg), "genfun", "--kind", "F0",
                     "--alpha-grid", "0:0:1"])
        out = capsys.readouterr().out
        assert code == 0
        # N from config: P = 6, so F0(0) = 6.
        assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(6.0)

    @pytest.mark.parametrize("argv, key, value", [
        (("predict", "--theta", "0.3", "--qmax", "10", "--samples", "3", "--n-lo", "100",
          "--n-hi", "200"), "seed", "5"),
        (("smooth", "--R", "100"), "eta", "0.3"),
        (("meanvalue", "--shape", "f2h6"), "eta", "0.3"),
    ])
    def test_config_value_equals_the_flag(self, tmp_path, capsys, argv, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_config = run(capsys, "--config", str(cfg), *argv)
        from_flag = run(capsys, *argv, f"--{key}", value)
        assert from_config == from_flag
        assert from_flag[0] == 0 and from_flag != run(capsys, *argv)

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 0.3\nseed = 5\n")
        assert run(capsys, "--config", str(cfg), "smooth", "--R", "100", "--eta", "0.5") == \
            run(capsys, "smooth", "--R", "100")
        predict = ("predict", "--theta", "0.3", "--qmax", "10", "--samples", "3")
        assert run(capsys, "--config", str(cfg), *predict, "--seed", "0") == \
            run(capsys, *predict)

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["--config", str(cfg), "count", "--n", "4", "--theta", "0.2"]) == 2


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is imported only by minicube_bound's near-tie branch.
    src = str(Path(cubelab.__file__).resolve().parents[1])
    probe = "import sys, cubelab.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestBenchScenarioBytes:
    def test_cli_files_match_bench_expected(self, tmp_path, capsys, monkeypatch):
        # The benchmark's CLI scenarios, run in-process: every data file must
        # equal the stored reference in bench/expected/ byte for byte.
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        names = []
        for wl in workloads.WORKLOADS.values():
            for *argv, name in wl.cli:
                target = tmp_path / f"{name}.csv"
                assert main([*argv, "--out", str(target)]) == 0, name
                want = (BENCH / "expected" / f"{name}.csv").read_bytes()
                assert target.read_bytes() == want, name
                names.append(name)
        capsys.readouterr()
        assert len(names) == 5


_cells = st.one_of(st.integers(-10**12, 10**12), st.floats(allow_nan=False, allow_infinity=False))


class TestEmitterProperty:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(_cells, min_size=2, max_size=2), max_size=6),
           summary=st.dictionaries(st.sampled_from(["count", "mean"]), _cells),
           fmt=st.sampled_from(["csv", "json", "bare"]))
    @example(rows=[], summary={"count": 0}, fmt="bare")  # an empty bare result prints nothing
    def test_stdout_and_file_carry_the_same_rows(self, rows, summary, fmt):
        def emit(out):
            args = Namespace(out=out, format="json" if fmt == "json" else "csv")
            em = Emitter(args, "prop")
            em.set_columns("a", "b")
            em.bare = fmt == "bare"
            for row in rows:
                em.add_row(*row)
            em.summary.update(summary)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                em.finish({"k": 1})
            return stdout.getvalue()

        def data(text):
            if fmt == "json":
                return json.loads(text)["rows"]
            return [line for line in text.splitlines() if line and not line.startswith("#")]

        printed = emit(None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            assert emit(str(path)) == ""
            written = path.read_text()
            assert json.loads(Path(f"{path}.manifest.json").read_text())["summary"] == summary
        assert data(printed) == data(written)
        if fmt == "bare":
            assert printed == "".join(f"{line}\n" for line in data(written))
        if fmt == "csv":
            assert written.startswith("# manifest: rows.csv.manifest.json\n")
            assert [line for line in printed.splitlines() if line.startswith("#")] == \
                [f"# {k} = {_fmt(v)}" for k, v in summary.items()]
