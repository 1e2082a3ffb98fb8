"""Command-line front end: ingestion, standardisation, subcommand outputs,
manifests and determinism."""

import csv
import errno
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hqreg import cli, simbench
from hqreg.cli import CliError, ingest_csv, main, standardise
from hqreg.loss_density import count_strict_local_maxima


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def toy_csv(tmp_path):
    gen = np.random.default_rng(3)
    X = gen.standard_normal((30, 3))
    y = X @ [1.0, -0.5, 0.0] + 0.2 * gen.standard_normal(30)
    path = tmp_path / "toy.csv"
    write_csv(path, ["x1", "x2", "x3", "y"], np.column_stack([X, y]).tolist())
    return path


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv(path, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        matrix, names = ingest_csv(path)
        assert matrix.shape == (3, 3)
        assert names == ["a", "b", "y"]
        np.testing.assert_array_equal(matrix[:, -1], [3.0, 6.0, 9.0])

    def test_na_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "na.csv"
        write_csv(path, ["a", "y"], [[1, 2], ["NA", 4]])
        with pytest.raises(CliError) as err:
            ingest_csv(path)
        assert err.value.error_class == "non-numeric-cell"
        assert "row 3" in str(err.value) and "'a'" in str(err.value)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "y"], [])
        with pytest.raises(CliError) as err:
            ingest_csv(path)
        assert err.value.error_class == "empty-dataset"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(CliError) as err:
            ingest_csv(path)
        assert err.value.error_class == "ragged-row"
        assert "row 3" in str(err.value)

    def test_non_finite_rows_reported(self, tmp_path):
        path = tmp_path / "inf.csv"
        write_csv(path, ["a", "y"], [[1, 2], ["inf", 3], [4, "nan"]])
        with pytest.raises(CliError) as err:
            ingest_csv(path)
        assert err.value.error_class == "non-finite-rows"
        assert "[3, 4]" in str(err.value)

    @pytest.mark.parametrize("text,error_class,where", [
        ("a,b,y\n1,2,3\n4,zz,6\n7,8\n", "non-numeric-cell", "row 3, column 'b'"),
        ("a,b,y\n1,2\n4,zz,6\n", "ragged-row", "row 2 has 2 cells"),
        ("a,b,y\n1,nan,3\n4,q,6\n", "non-numeric-cell", "row 3, column 'b'"),
        ("a,b,y\n1,2,3\n\n4,5,6\n", "ragged-row", "row 3 has 0 cells"),
        ("a,b,y\n1,,3\n", "non-numeric-cell", "row 2, column 'b' is not numeric: ''"),
    ])
    def test_first_offending_row_wins(self, tmp_path, text, error_class, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CliError) as err:
            ingest_csv(path)
        assert err.value.error_class == error_class
        assert where in str(err.value)

    def test_cells_parse_as_python_floats(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b,y\n 1.5 ,1_0,-0\n1e-320,0.1,3\n")
        matrix, _ = ingest_csv(path)
        assert matrix.tobytes() == np.array([[1.5, 10.0, -0.0], [1e-320, 0.1, 3.0]]).tobytes()

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert main(["fit", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        assert capsys.readouterr().err == f"config-error: {missing}\n"
        assert not (tmp_path / "o").exists()


def _text(path):
    """The file's text as ingest_csv reads it."""
    with open(path, newline="") as fh:
        return fh.read()


def _ingest_outcome(parse, *args):
    """The parsed bits and header, or the error class and message."""
    try:
        matrix, header = parse(*args)
    except CliError as exc:
        return ("error", exc.error_class, str(exc))
    return ("ok", matrix.shape, matrix.tobytes(), header)


class TestIngestParity:
    """The one-pass parse and the csv.reader row scan agree on every file:
    same data bits and header, or same error class and message.  Files in
    the documented dialect (README, "Input CSV") take the one pass."""

    @pytest.mark.parametrize("text,one_pass", [
        # the dialect: commas, one header row, the response last
        ("a,b,y\n1,2,3\n4,5,6\n", True),
        ("a , b ,y\n 1.5 , 2 ,\t3\n4e-3,-0,+6\n", True),  # padded cells
        ("a,y\r\n1,2\r\n3,4\r\n", True),  # CRLF line ends
        ("a,y\r1,2\r3,4\r", True),  # CR line ends
        ("a,y\n1,2\n3,4", True),  # no final newline
        ("a,y\n1,2\n", True),  # a single data row
        ("\ufeffa,y\n1,2\n", True),  # a BOM stays in the first name
        ("a,y\n1e-320,0.1\n1e-400,1e308\n", True),  # subnormal, underflow to 0
        # outside it: the row scan gives the data or the error
        ('"a","y"\n"1.5",2\n', False),  # quoted cells
        ('a,y\n"1,5",2\n', False),  # a quoted comma
        ("a,y\n1_0,2\n", False),  # underscores, as float() takes them
        ("a,y\n\u0661,2\n", False),  # a non-ASCII digit, as float() takes it
        ("a,y\n1,2\n\n3,4\n", False),  # a blank line
        ("a,y\n1,2\n\n", False),  # a trailing blank line
        ("a,y\n1,2\n  \n", False),  # a whitespace line
        ("a,y\n1,2\n#3,4\n", False),  # a '#' cell
        ("# note\na,y\n1,2\n", False),  # a comment line becomes the header
        ("a,y\n1,2\ninf,3\n4,nan\n", False),  # non-finite rows
        ("a,y\n1e400,2\n", False),  # overflow to inf
        ("a,y\n0x10,2\n", False),  # hex
        ("a,y\n1,2\x0c3\n", False),  # a form feed is not a line end
        ("a,y\n1,2\u20283,4\n", False),  # nor is a line separator
        ("a,y\n1\x00,2\n", False),  # NUL
        ("a,y\n", False),  # header only
        ("", False),  # empty file
        ("y\n1\n", False),  # one column
        ("a,b,y\n1,2,3\n4,5\n", False),  # ragged row
        ("a,y\n1,2,3\n", False),  # a row too wide
        ("a,y\n1,,\n", False),
    ])
    def test_same_result_both_ways(self, tmp_path, text, one_pass):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        read = _text(path)
        rows = _ingest_outcome(cli._ingest_rows, path, read)
        assert _ingest_outcome(ingest_csv, path) == rows
        assert (cli._ingest_one_pass(read) is not None) == one_pass
        if one_pass:
            assert _ingest_outcome(cli._ingest_one_pass, read) == rows

    def test_field_longer_than_csv_limit(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,y\n1.00000000000,2\n")
        read = _text(path)
        old = csv.field_size_limit(8)
        try:
            assert cli._ingest_one_pass(read) is None
            rows = _ingest_outcome(cli._ingest_rows, path, read)
            assert rows[:2] == ("error", "parse-error")
            assert _ingest_outcome(ingest_csv, path) == rows
        finally:
            csv.field_size_limit(old)
        assert cli._ingest_one_pass(read) is not None

    def test_large_file_takes_one_pass(self, tmp_path):
        gen = np.random.default_rng(9)
        body = gen.standard_normal((300, 8)) * 10.0 ** gen.integers(-300, 300, (300, 8))
        path = tmp_path / "in.csv"
        np.savetxt(path, body, fmt="%.17g", delimiter=",",
                   header=",".join(f"x{j}" for j in range(8)), comments="")
        read = _text(path)
        matrix, header = cli._ingest_one_pass(read)
        assert _ingest_outcome(cli._ingest_rows, path, read) == _ingest_outcome(ingest_csv, path)
        assert matrix.tobytes() == body.tobytes()


def test_array_rows_write_like_csv_writer(tmp_path):
    gen = np.random.default_rng(8)
    body = np.concatenate([gen.standard_normal((4, 3)) * 1e5,
                           [[-0.0, np.inf, np.nan], [1e-320, 0.1, -1e300]]])
    cli._write_csv(tmp_path / "a.csv", ["x", "y,z", "w"], body)
    cli._write_csv(tmp_path / "b.csv", ["x", "y,z", "w"], [list(row) for row in body])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = list(csv.reader(open(tmp_path / "a.csv", newline="")))
    assert rows[0] == ["x", "y,z", "w"]
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float), body)


class TestStandardise:
    def test_simple_column(self):
        out, warnings = standardise(np.array([[1.0], [2.0], [3.0]]), ["a"])
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert not warnings

    def test_moments_after_transform(self):
        gen = np.random.default_rng(5)
        m = gen.normal(3.0, 2.5, size=(200, 4))
        out, _ = standardise(m, list("abcd"))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_idempotent_on_standardised_input(self):
        gen = np.random.default_rng(6)
        m = gen.standard_normal((100, 2))
        m = (m - m.mean(axis=0)) / m.std(axis=0, ddof=1)
        out, _ = standardise(m, ["a", "b"])
        np.testing.assert_allclose(out, m, atol=1e-12)

    def test_constant_column_passthrough_with_warning(self):
        m = np.column_stack([np.ones(5), np.arange(5.0)])
        out, warnings = standardise(m, ["const", "x"])
        np.testing.assert_array_equal(out[:, 0], np.ones(5))
        np.testing.assert_allclose(out[:, 1], (np.arange(5.0) - 2.0) / np.sqrt(2.5), atol=1e-15)
        assert len(warnings) == 1 and "const" in warnings[0]

    # an sd that overflows, then a mean
    @pytest.mark.parametrize("column", [[1e308, -1e308, 1e308, -1e308], [1e308] * 4])
    def test_overflow_names_the_column(self, column):
        m = np.column_stack([np.arange(4.0), column])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^column 'b' cannot be standardised"):
                standardise(m, ["a", "b"])


def run_cli(args):
    return main([str(a) for a in args])


class TestFitCommand:
    def test_smoke_outputs(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["fit", "--input", toy_csv, "--out", out,
                        "--iters", 60, "--burnin", 10, "--seed", 4])
        assert code == 0
        for name in ("samples.csv", "summary.csv", "chain-health.txt", "manifest.txt"):
            assert (out / name).exists()
        rows = list(csv.reader(open(out / "summary.csv")))
        beta_rows = [r for r in rows[1:] if r[0].startswith("beta_")]
        assert len(beta_rows) == 3 + 1  # k predictors plus intercept

    def test_three_row_toy(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["x1", "x2", "y"], [[0.1, 1.0, 1.2], [-0.4, 0.2, 0.1], [0.9, -1.0, 2.0]])
        out = tmp_path / "run"
        code = run_cli(["fit", "--input", path, "--out", out, "--iters", 50, "--burnin", 10])
        assert code == 0
        rows = list(csv.reader(open(out / "summary.csv")))
        assert len([r for r in rows[1:] if r[0].startswith("beta_")]) == 3

    def test_determinism_byte_identical(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["fit", "--input", toy_csv, "--out", out,
                            "--iters", 80, "--burnin", 20, "--seed", 11]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_manifest_rerun_reproduces(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["fit", "--input", toy_csv, "--out", out1,
                        "--iters", 80, "--burnin", 20, "--seed", 12]) == 0
        assert run_cli(["fit", "--config", out1 / "manifest.txt", "--out", out2]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        # manifests agree apart from the wall-time comment and output path
        skip = lambda line: line.startswith("#") or line.startswith("out=")
        m1 = [l for l in (out1 / "manifest.txt").read_text().splitlines() if not skip(l)]
        m2 = [l for l in (out2 / "manifest.txt").read_text().splitlines() if not skip(l)]
        assert m1 == m2

    # manifests written before the eta refinement budget and the contour
    # and sensitivity fixtures became fixed hold their keys at the fixed
    # values; the values are compared as numbers
    @pytest.mark.parametrize("retired", [
        ("eta_iters=10", "eta_tol=1e-8", "toy_seed=36", "toy_n=10", "noise_sigma=0.03",
         "grid_size=200", "log_beta_min=-3.0", "log_beta_max=2.0", "log_rho2_min=-9.0",
         "log_rho2_max=1.0"),
        ("eta_iters=10.0", "eta_tol=1.0E-08", "log_beta_min=-3", "log_rho2_max=1"),
    ])
    def test_manifest_with_retired_keys_replays(self, toy_csv, tmp_path, retired):
        runs = {
            "fit": (["--input", toy_csv, "--iters", 80, "--burnin", 20, "--seed", 12],
                    ("samples.csv", "summary.csv", "chain-health.txt")),
            "contour": (["--penalty", "en"], ("grid.csv",)),
        }
        for subcommand, (flags, files) in runs.items():
            out1, out2 = tmp_path / f"{subcommand}-a", tmp_path / f"{subcommand}-b"
            assert run_cli([subcommand, *flags, "--out", out1]) == 0
            old = tmp_path / f"{subcommand}-old-manifest.txt"
            lines = (out1 / "manifest.txt").read_text().splitlines()
            old.write_text("\n".join(sorted(lines + list(retired))) + "\n")
            assert run_cli([subcommand, "--config", old, "--out", out2]) == 0
            for name in files:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            keys = {line.partition("=")[0] for line in retired}
            manifest = (out2 / "manifest.txt").read_text().splitlines()
            assert not [line for line in manifest if line.partition("=")[0] in keys]

    @pytest.mark.parametrize("setting,fixed", [
        ("eta_iters=5", "10"), ("eta_iters=ten", "10"), ("eta_tol=1e-6", "1e-8"),
        ("grid_size=50", "200"), ("log_rho2_min=-700", "-9.0"),
    ])
    def test_retired_key_at_another_value_is_config_error(self, toy_csv, tmp_path, capsys,
                                                          setting, fixed):
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text(f"{setting}\n")
        out = tmp_path / "o"
        assert run_cli(["fit", "--config", cfgfile, "--input", toy_csv, "--out", out]) == 1
        err = capsys.readouterr().err
        key = setting.partition("=")[0]
        assert err.startswith("config-error: ") and f"key '{key}' is fixed at {fixed}" in err
        assert not out.exists()

    def test_no_intercept_writes_k_columns(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        (tmp_path / "run.cfg").write_text("intercept=false\n")
        assert run_cli(["fit", "--input", toy_csv, "--out", out1, "--config",
                        tmp_path / "run.cfg", "--iters", 60, "--burnin", 10]) == 0
        header = next(csv.reader(open(out1 / "samples.csv")))
        assert [c for c in header if c.startswith("beta_")] == [
            "beta_0:x1", "beta_1:x2", "beta_2:x3"]
        assert not any("intercept" in c for c in header)
        assert "intercept=false" in (out1 / "manifest.txt").read_text().splitlines()
        assert run_cli(["fit", "--config", out1 / "manifest.txt", "--out", out2]) == 0
        for name in ("samples.csv", "summary.csv", "chain-health.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_no_standardise_flag(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["fit", "--input", toy_csv, "--out", out1, "--iters", 60,
                        "--burnin", 10, "--no-standardise"]) == 0
        assert run_cli(["fit", "--input", toy_csv, "--out", out2, "--iters", 60,
                        "--burnin", 10]) == 0
        assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()

    def test_error_exit_code_and_class(self, tmp_path, capsys):
        code = run_cli(["fit", "--input", tmp_path / "nope.csv", "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config-error:")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("bogus_key=1\n")
        code = run_cli(["fit", "--config", cfgfile, "--out", tmp_path / "o"])
        assert code == 1
        assert "config-error" in capsys.readouterr().err

    def test_nonpositive_hyperparameter_is_config_error(self, toy_csv, tmp_path, capsys):
        cfgfile = tmp_path / "neg.cfg"
        cfgfile.write_text("a=-1\n")
        code = run_cli(["fit", "--config", cfgfile, "--input", toy_csv, "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config-error: ")


class TestOtherCommands:
    def test_cv_outputs(self, toy_csv, tmp_path):
        out = tmp_path / "cv"
        code = run_cli(["cv", "--input", toy_csv, "--out", out, "--iters", 60,
                        "--burnin", 10, "--folds", 5])
        assert code == 0
        rows = list(csv.reader(open(out / "cv-metrics.csv")))
        assert rows[0] == ["method", "tau", "folds", "mspe", "mape", "mhpe", "medspe"]
        assert len(rows) == 2
        assert float(rows[1][3]) > 0

    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "sim"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenarios=1\nn=30\nreps=2\niters=100\nburnin=30\n")
        code = run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 2])
        assert code == 0
        rows = list(csv.reader(open(out / "tables.csv")))
        assert rows[0][:8] == ["scenario", "method", "tau", "n", "rmse", "mmad", "al", "cp"]
        assert len(rows) == 2
        eta_rows = list(csv.reader(open(out / "eta-medians.csv")))
        assert len(eta_rows) == 1 + 2  # header + one row per replication
        assert not (out / "failures.csv").exists()  # no replication failed

    def test_simulate_writes_failed_replications(self, tmp_path, monkeypatch):
        # one worker: the study runs serially, in this process
        import hqreg.simbench as sb

        monkeypatch.setenv("HQREG_THREADS", "1")
        original = sb._fit_metrics
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(sb, "_fit_metrics", flaky)
        out = tmp_path / "sim"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenarios=1\nn=30\nreps=3\niters=60\nburnin=20\n")
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 2]) == 0
        rows = list(csv.reader(open(out / "failures.csv")))
        assert rows == [["scenario", "tau", "n", "replication", "message"],
                        ["1", "0.5", "30", "1", "RuntimeError: synthetic failure"]]
        table = list(csv.reader(open(out / "tables.csv")))[1:]
        assert table[0][8:] == ["1", "false"]

    def test_simulate_tau_list(self, tmp_path, capsys):
        out = tmp_path / "sim"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenarios=1,5\nn=25\nreps=2\niters=60\nburnin=20\n")
        code = run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 3,
                        "--tau", "0.25,0.5"])
        assert code == 0, capsys.readouterr().err
        rows = list(csv.reader(open(out / "tables.csv")))[1:]
        assert [(r[0], r[2]) for r in rows] == [
            ("1", "0.25"), ("1", "0.5"), ("5", "0.25"), ("5", "0.5")
        ]
        eta_rows = list(csv.reader(open(out / "eta-medians.csv")))
        assert len(eta_rows) == 1 + 4 * 2

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_simulate_bad_thread_count_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                       threads):
        monkeypatch.setenv("HQREG_THREADS", threads)
        out = tmp_path / "sim"
        assert run_cli(["simulate", "--out", out, "--reps", 1, "--iters", 30,
                        "--burnin", 10]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config-error: HQREG_THREADS must be an integer >= 1")
        assert not out.exists()

    def test_simulate_tau_out_of_range(self, tmp_path, capsys):
        code = run_cli(["simulate", "--out", tmp_path / "sim", "--tau", "0.5,1.5"])
        assert code == 1
        assert capsys.readouterr().err == "config-error: tau must lie in (0, 1), got 1.5\n"

    @pytest.mark.parametrize("setting,detail", [
        ("reps=0", "reps must be >= 1"),
        ("scenarios=7", "unknown scenario id 7"),
        ("n=0", "n must be >= 1"),
    ])
    def test_simulate_bad_input_is_config_error(self, tmp_path, capsys, setting, detail):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"iters=60\nburnin=20\nreps=1\n{setting}\n")
        code = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "sim"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config-error: ") and detail in err

    def test_sensitivity_empty_values_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vary=b\nvalues=\niters=60\nburnin=20\n")
        code = run_cli(["sensitivity", "--config", cfg, "--out", tmp_path / "sens"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config-error: ")
        assert not (tmp_path / "sens" / "curve.csv").exists()

    def test_sensitivity_outputs(self, tmp_path):
        out = tmp_path / "sens"
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vary=b\nvalues=1,2\niters=200\nburnin=50\n")
        code = run_cli(["sensitivity", "--config", cfg, "--out", out])
        assert code == 0
        rows = list(csv.reader(open(out / "curve.csv")))
        assert rows[0] == ["setting", "x", "fitted", "truth"]
        assert len(rows) == 1 + 2 * 50

    def test_simulate_elastic_net_method_label(self, tmp_path):
        out = tmp_path / "sim"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenarios=1\nn=25\nreps=1\niters=60\nburnin=20\n")
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--penalty", "en"]) == 0
        rows = list(csv.reader(open(out / "tables.csv")))[1:]
        assert [r[1] for r in rows] == ["HBQR-EN"]

    def test_sensitivity_key_picks_family(self, tmp_path):
        # a lasso key fits the lasso family even under penalty=en
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vary=b\nvalues=1,50\niters=200\nburnin=50\n")
        for penalty in ("en", "lasso"):
            assert run_cli(["sensitivity", "--config", cfg, "--out", tmp_path / penalty,
                            "--penalty", penalty]) == 0
        rows = list(csv.reader(open(tmp_path / "en" / "curve.csv")))[1:]
        fitted = {}
        for setting, _, value, _ in rows:
            fitted.setdefault(setting, []).append(value)
        assert sorted(fitted) == ["b=1", "b=50"]
        assert fitted["b=1"] != fitted["b=50"]
        assert ((tmp_path / "en" / "curve.csv").read_bytes()
                == (tmp_path / "lasso" / "curve.csv").read_bytes())

    def test_contour_grid_and_mode_counts(self, tmp_path):
        # the two shallow modes of the unconditional surface sit ~0.2 apart
        # in log beta; the 200-point grid resolves them, coarse grids merge
        # them
        out_u = tmp_path / "unc"
        out_c = tmp_path / "cond"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("prior_style=conditional\n")
        assert run_cli(["contour", "--out", out_u]) == 0
        assert run_cli(["contour", "--config", cfg, "--out", out_c]) == 0

        def grid_of(path):
            rows = list(csv.reader(open(path)))[1:]
            z = np.array([float(r[2]) for r in rows]).reshape(200, 200)
            return z

        assert count_strict_local_maxima(grid_of(out_u / "grid.csv")) >= 2
        assert count_strict_local_maxima(grid_of(out_c / "grid.csv")) == 1

    def test_simulate_manifest_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenarios=1\nn=25\nreps=2\niters=80\nburnin=20\n")
        assert run_cli(["simulate", "--config", cfg, "--out", out1, "--seed", 6]) == 0
        assert run_cli(["simulate", "--config", out1 / "manifest.txt", "--out", out2]) == 0
        assert (out1 / "tables.csv").read_bytes() == (out2 / "tables.csv").read_bytes()
        assert (out1 / "eta-medians.csv").read_bytes() == (out2 / "eta-medians.csv").read_bytes()


class TestFailedRunOutput:
    """A run that fails, at a key check or in its chain, creates no output
    directory and deletes nothing."""

    @pytest.mark.parametrize("subcommand,config", [
        ("fit", "input=absent.csv"),
        ("fit", "input="),
        ("fit", "seed=x"),  # read after the input
        ("cv", "a=-1"),
        ("cv", "folds=x"),
        ("cv", "folds=1"),
        ("simulate", "reps=0"),
        ("simulate", "seed=x"),
        ("sensitivity", "values="),
        # a retired key away from its fixed value
        ("sensitivity", "noise_sigma=x"),
        ("sensitivity", "noise_sigma=-1"),
        ("contour", "grid_size=-1"),
        ("contour", "toy_n=-1"),
        ("contour", "noise_sigma=0"),
        ("contour", "log_beta_min=nan"),
        ("contour", "toy_seed=-1"),
        ("contour", "prior_style=sideways"),
        ("contour", "tau=2"),
        ("contour", "lambda1=-1"),
        # a rate that is not finite would fill grid.csv with nan or -inf
        ("contour", "lambda1=nan"),
        ("contour", "lambda1=inf"),
        ("contour", "penalty=en;lambda3=nan"),
        ("contour", "penalty=en;lambda4=inf"),
        # keys whose map to the family's rates leaves the double range
        ("contour", "lambda1=1e200"),
        ("contour", "lambda1=1e-200"),
        ("contour", "penalty=en;lambda3=1e200"),
        # a negative seed, a non-finite hyperparameter or fewer than 2 kept
        # draws is a config-error, not a failure when the chain runs
        ("fit", "seed=-1"),
        ("cv", "seed=-1"),
        ("simulate", "seed=-1"),
        ("sensitivity", "seed=-1"),
        ("fit", "a=nan"),
        ("fit", "penalty=en;b1=inf"),  # a lasso run never reads b1
        ("sensitivity", "values=nan"),
        ("sensitivity", "values=1,inf"),
        ("fit", "iters=50;burnin=10;thin=100"),
        ("cv", "iters=50;burnin=10;thin=100"),
        ("simulate", "iters=50;burnin=10;thin=100"),
        ("fit", "standardise=maybe"),
        ("fit", "justtext"),  # a line with no '='
        ("simulate", "scenarios=1,x"),
        ("simulate", "scenarios= , "),
        ("sensitivity", "vary=zzz"),
        ("sensitivity", "values=1,x"),
    ])
    def test_config_error_leaves_no_directory(self, toy_csv, tmp_path, capsys,
                                              subcommand, config):
        cfg = tmp_path / "run.cfg"
        config = config.replace("absent.csv", str(tmp_path / "absent.csv"))
        cfg.write_text(config.replace(";", "\n") + "\n")
        args = [subcommand, "--config", cfg, "--out", tmp_path / "new" / "out"]
        if subcommand in ("fit", "cv") and "input=" not in config:
            args += ["--input", toy_csv]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config-error: ") and err.count("\n") == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("folds", [31, 16])  # n = 30: n < folds, then one row a fold
    def test_cv_partition_error_leaves_no_directory(self, toy_csv, tmp_path, capsys, folds):
        out = tmp_path / "new" / "out"
        assert run_cli(["cv", "--input", toy_csv, "--folds", folds, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("data-error: ")
        assert ("need n >= folds" if folds > 30 else "fold too small") in err
        assert not (tmp_path / "new").exists()

    def test_numeric_failure_is_chain_error(self, tmp_path, capsys):
        # valid keys whose chain breaks down: an eta prior shape of 1e308
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vary=c\nvalues=1e308\niters=20\nburnin=5\n")
        out = tmp_path / "out"
        assert run_cli(["sensitivity", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chain-error: update '") and err.count("\n") == 1
        assert "failed at iteration" in err
        assert not out.exists()

    def test_overflowing_reduction_is_its_blocks_chain_error(self, tmp_path, capsys):
        # a prior rate b = 1e308 on the squared l1 rate drives the lasso
        # latents up until their sum overflows in the rate's update; numpy
        # raises that warning from its own module, and the chain's filter
        # still makes it that block's one error line
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vary=b\nvalues=1e308\niters=20\nburnin=5\n")
        out = tmp_path / "out"
        assert run_cli(["sensitivity", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == ("chain-error: update 'penalty' failed at iteration 3: "
                                           "overflow encountered in reduce\n")
        assert not out.exists()

    @pytest.mark.parametrize("predictors,scaled,flags,line", [
        # values near 1e200 overflow the response variance and the Gram
        # products, in the k < n and in the k > n beta draw; the k < n
        # product warns, and the chain's filter makes that the block's error
        pytest.param(3, (slice(None), 1e200), ["--no-standardise"],
                     "chain-error: update 'beta' failed at iteration 1: "
                     "overflow encountered in matmul", id="3"),
        pytest.param(40, (slice(None), 1e200), ["--no-standardise"],
                     "chain-error: update 'beta' failed at iteration 1: "
                     "Gaussian draw needs finite inputs", id="40"),
        # a response near 1e160 overflows the squared residuals of sigma's q,
        # which the eta step computes first
        pytest.param(3, (slice(-1, None), 1e160), ["--no-standardise"],
                     "chain-error: update 'eta' failed at iteration 1: "
                     "overflow encountered in multiply", id="sigma"),
        # and values near 1e200 overflow the standardisation's sd
        pytest.param(3, (slice(None), 1e200), [],
                     "data-error: {path}: column 'x0' cannot be standardised: "
                     "its mean or sd overflows", id="standardised"),
    ])
    def test_overflowing_data_prints_one_line(self, tmp_path, predictors, scaled, flags, line):
        # in a fresh interpreter, where no warning filter turns a numpy
        # RuntimeWarning into an error
        gen = np.random.default_rng(2)
        path = tmp_path / "big.csv"
        values = gen.standard_normal((30, predictors + 1))
        columns, scale = scaled
        values[:, columns] *= scale
        write_csv(path, [f"x{j}" for j in range(predictors)] + ["y"], values.tolist())
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "hqreg.cli", "fit", "--input", str(path), *flags,
             "--iters", "20", "--burnin", "5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [line.format(path=path)]
        assert not out.exists()

    @pytest.mark.parametrize("args,config,start", [
        (["fit", "--seed", "x"], "", "config-error: "),
        (["fit", "--iters", "1.5"], "", "config-error: "),
        (["fit", "--penalty", "ridge"], "", "config-error: "),
        (["fit", "--bogus"], "", "config-error: "),
        ([], "", "config-error: "),  # no subcommand
        (["fit", "--input", "."], "", "config-error: "),  # a directory
        (["fit", "--input", "undecodable.csv"], "", "parse-error: "),
        (["fit", "--tau", "1.5"], "", "config-error: tau must lie in (0, 1), got 1.5\n"),
        (["contour"], "lambda1=nan", "config-error: "),
        (["contour"], "penalty=en\nlambda4=inf", "config-error: "),
        # a flag is one config line, which holds no line break
        (["fit", "--out", "new/a\nb"], "", "config-error: "),
        (["fit", "--out", "new/a\u2028b"], "", "config-error: "),
        # an eta the surface cannot square
        (["contour"], "eta=inf", "config-error: "),
        (["contour"], "eta=1e200", "config-error: "),
        # retired grid keys away from their fixed values
        (["contour"], "log_beta_min=-800\ngrid_size=5", "config-error: "),
        (["contour"], "log_beta_max=800", "config-error: "),
        (["contour"], "log_rho2_max=800", "config-error: "),
        # each rate is finite, but lambda4 beta^2 over the smallest rho2
        # overflows
        (["contour"], "penalty=en\nlambda4=1e305\nprior_style=conditional",
         "config-error: the log posterior is not finite on this grid: "
         "overflow encountered in divide\n"),
        # a run that fails prints no warning before its error line: a
        # constant column's, or the one for a full-scale study
        (["fit", "--input", "constant.csv", "--iters", "0"], "", "config-error: "),
        (["cv", "--input", "constant.csv", "--folds", "3"], "", "data-error: fold too small"),
        (["simulate", "--reps", "300", "--tau", "abc"], "", "config-error: bad scenarios/tau"),
    ])
    def test_bad_input_prints_one_line(self, toy_csv, tmp_path, capsys, monkeypatch,
                                       args, config, start):
        # a usage error is a config-error line, not argparse's usage block
        # and exit 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "undecodable.csv").write_bytes(b"x,y\n1,\xff\n")
        (tmp_path / "constant.csv").write_text("c,x,y\n1,5,1\n1,6,2\n1,7,3\n1,8,5\n")
        (tmp_path / "run.cfg").write_text(config + "\n")
        if args:
            if "--out" not in args:
                args = [*args, "--out", "new/out"]
            args = [*args, "--config", "run.cfg"]
            if args[0] == "fit" and "--input" not in args:
                args += ["--input", toy_csv]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1
        assert not (tmp_path / "new").exists()

    def test_flag_is_echoed_as_typed(self, toy_csv, tmp_path):
        # a flag reads like a config line: --seed 07 is seed 7, echoed as
        # typed, and --seed ' 7' is stripped as a config line is
        runs = [(["--seed", "07"], "seed=07"), (["--seed", "7"], "seed=7"),
                (["--seed", " 7"], "seed=7")]
        for i, (flag, line) in enumerate(runs):
            assert run_cli(["fit", "--input", toy_csv, "--out", tmp_path / str(i),
                            "--iters", 30, "--burnin", 10, *flag]) == 0
            assert line in (tmp_path / str(i) / "manifest.txt").read_text().splitlines()
        for i in (1, 2):
            assert (tmp_path / "0" / "samples.csv").read_bytes() == (
                tmp_path / str(i) / "samples.csv").read_bytes()

    def test_existing_directory_is_kept(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run_cli(["simulate", "--reps", 0, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config-error: ")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_failure_after_the_directory_deletes_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        # another run writes beside this one while it runs, then this one
        # fails: it makes no directory and removes nothing of the other's
        parent = tmp_path / "results"
        other = parent / "b" / "done.txt"

        def run_study(*args, **kwargs):
            other.parent.mkdir(parents=True)
            other.write_text("x")
            raise CliError("data-error", "failed late")

        monkeypatch.setattr(cli.simbench, "run_study", run_study)
        assert run_cli(["simulate", "--out", parent / "a"]) == 1
        assert capsys.readouterr().err.startswith("data-error: ")
        assert other.read_text() == "x"
        assert not (parent / "a").exists()


class TestFileFaults:
    """An OSError that names a file, a config or input that cannot be read
    or an output that cannot be written, is one config-error line with the
    system's message; a config or input fault leaves no directory."""

    # keys that keep each subcommand's run short
    FAST = {
        "fit": "input=toy.csv\niters=30\nburnin=10",
        "cv": "input=toy.csv\niters=30\nburnin=10\nfolds=3",
        "simulate": "n=25\nreps=1\niters=30\nburnin=10",
        "sensitivity": "values=1\niters=30\nburnin=10",
        "contour": "",
    }

    @pytest.mark.parametrize("subcommand,flags,named", [
        ("fit", ["--config", "folder"], "folder"),
        ("fit", ["--config", "undecodable.cfg"], "undecodable.cfg"),
        ("fit", ["--config", "absent.cfg"], "absent.cfg"),
        ("fit", ["--input", "absent.csv"], "absent.csv"),
        ("fit", ["--input", "folder"], "folder"),
        ("fit", ["--out", "toy.csv"], "toy.csv"),
        # an output file that is a directory
        *(("fit", [], f"out/{name}")
          for name in ("samples.csv", "summary.csv", "chain-health.txt", "manifest.txt")),
        ("cv", [], "out/cv-metrics.csv"),
        ("simulate", [], "out/tables.csv"),
        ("simulate", [], "out/eta-medians.csv"),
        ("sensitivity", [], "out/curve.csv"),
        ("contour", [], "out/grid.csv"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_file_fault_is_one_config_error_line(self, toy_csv, tmp_path, capsys, monkeypatch,
                                                 subcommand, flags, named):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HQREG_THREADS", "1")
        (tmp_path / "folder").mkdir()
        (tmp_path / "undecodable.cfg").write_bytes(b"seed=\xff\n")
        (tmp_path / "run.cfg").write_text(self.FAST[subcommand] + "\n")
        if not flags:
            (tmp_path / named).mkdir(parents=True)
        # a later flag wins
        assert run_cli([subcommand, "--config", "run.cfg", "--out", "out", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config-error: ") and err.count("\n") == 1
        assert named in err
        if flags[:1] in (["--config"], ["--input"]):
            assert not (tmp_path / "out").exists()

    def test_os_error_without_a_file_is_internal(self, tmp_path, capsys, monkeypatch):
        def run_study(*args, **kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(simbench, "run_study", run_study)
        assert run_cli(["simulate", "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err == (f"internal-error: BlockingIOError: [Errno {errno.EAGAIN}] "
                       "Resource temporarily unavailable\n")

    def test_row_scan_opens_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "quoted.csv"
        path.write_text('"a","y"\n"1.5",2\n3,4\n')
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        matrix, header = ingest_csv(path)
        assert opened == [path]
        assert header == ["a", "y"] and matrix[:, -1].tolist() == [2.0, 4.0]
        assert cli._ingest_one_pass(_text(path)) is None  # the row scan parsed it


class TestEntryPoint:
    def test_module_invocation(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "hqreg.cli", "fit", "--input", str(toy_csv),
             "--out", str(out), "--iters", "50", "--burnin", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (out / "manifest.txt").exists()

    def test_import_leaves_quadrature_unloaded(self):
        # scipy.integrate (and the scipy.optimize it pulls in) serves only the
        # quadrature oracle, so the front end does not import it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hqreg.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
