"""Command-line front end: ingestion, standardisation, subcommand outputs,
manifests and determinism."""

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hqreg import cli
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
        data, names = ingest_csv(path)
        assert data.n == 3 and data.k == 2
        assert names == ["a", "b", "y"]
        np.testing.assert_array_equal(data.y, [3.0, 6.0, 9.0])

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
        data, _ = ingest_csv(path)
        expect = [[1.5, 10.0, -0.0], [1e-320, 0.1, 3.0]]
        assert data.X.tobytes() == np.array(expect)[:, :2].tobytes()
        assert data.y.tobytes() == np.array(expect)[:, 2].tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError) as err:
            ingest_csv(tmp_path / "absent.csv")
        assert err.value.error_class == "config-error"


def _ingest_outcome(parse, path):
    """The parsed bits and header, or the error class and message."""
    try:
        data, header = parse(path)
    except CliError as exc:
        return ("error", exc.error_class, str(exc))
    except Exception as exc:  # e.g. a decoding error, which both passes let through
        return ("exception", type(exc).__name__, str(exc))
    return ("ok", data.X.shape, data.X.tobytes(), data.y.tobytes(), header)


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
        rows = _ingest_outcome(cli._ingest_rows, path)
        assert _ingest_outcome(ingest_csv, path) == rows
        assert (cli._ingest_one_pass(path) is not None) == one_pass
        if one_pass:
            assert _ingest_outcome(cli._ingest_one_pass, path) == rows

    def test_field_longer_than_csv_limit(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,y\n1.00000000000,2\n")
        old = csv.field_size_limit(8)
        try:
            assert cli._ingest_one_pass(path) is None
            rows = _ingest_outcome(cli._ingest_rows, path)
            assert rows[:2] == ("error", "parse-error")
            assert _ingest_outcome(ingest_csv, path) == rows
        finally:
            csv.field_size_limit(old)
        assert cli._ingest_one_pass(path) is not None

    def test_large_file_takes_one_pass(self, tmp_path):
        gen = np.random.default_rng(9)
        body = gen.standard_normal((300, 8)) * 10.0 ** gen.integers(-300, 300, (300, 8))
        path = tmp_path / "in.csv"
        np.savetxt(path, body, fmt="%.17g", delimiter=",",
                   header=",".join(f"x{j}" for j in range(8)), comments="")
        data, header = cli._ingest_one_pass(path)
        assert _ingest_outcome(cli._ingest_rows, path) == _ingest_outcome(ingest_csv, path)
        assert data.X.tobytes() == body[:, :-1].tobytes() and data.y.tobytes() == body[:, -1].tobytes()


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
        out, record, warnings = standardise(np.array([[1.0], [2.0], [3.0]]), ["a"])
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert not warnings

    def test_moments_after_transform(self):
        gen = np.random.default_rng(5)
        m = gen.normal(3.0, 2.5, size=(200, 4))
        out, record, _ = standardise(m, list("abcd"))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_idempotent_on_standardised_input(self):
        gen = np.random.default_rng(6)
        m = gen.standard_normal((100, 2))
        m = (m - m.mean(axis=0)) / m.std(axis=0, ddof=1)
        out, _, _ = standardise(m, ["a", "b"])
        np.testing.assert_allclose(out, m, atol=1e-12)

    def test_constant_column_passthrough_with_warning(self):
        m = np.column_stack([np.ones(5), np.arange(5.0)])
        out, record, warnings = standardise(m, ["const", "x"])
        np.testing.assert_array_equal(out[:, 0], np.ones(5))
        assert len(warnings) == 1 and "const" in warnings[0]
        assert not record.applied[0] and record.applied[1]

    def test_inverse_round_trip(self):
        gen = np.random.default_rng(7)
        m = gen.normal(-2.0, 7.0, size=(60, 3))
        out, record, _ = standardise(m, list("abc"))
        np.testing.assert_allclose(record.inverse(out), m, atol=1e-10)


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

    def test_simulate_tau_out_of_range(self, tmp_path, capsys):
        code = run_cli(["simulate", "--out", tmp_path / "sim", "--tau", "0.5,1.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config-error: ")

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
        # in log beta; the default 200-point grid resolves them, coarse
        # grids merge them
        out_u = tmp_path / "unc"
        out_c = tmp_path / "cond"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("grid_size=200\n")
        assert run_cli(["contour", "--config", cfg, "--out", out_u]) == 0
        cfg.write_text("grid_size=200\nprior_style=conditional\n")
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
    """A run that ends in a config-error creates no output directory, and a
    failed run deletes nothing."""

    @pytest.mark.parametrize("subcommand,config", [
        ("fit", "input=absent.csv"),
        ("fit", "seed=x"),  # read after the input
        ("cv", "a=-1"),
        ("cv", "folds=x"),
        ("cv", "folds=1"),
        ("simulate", "reps=0"),
        ("simulate", "seed=x"),
        ("sensitivity", "values="),
        ("sensitivity", "noise_sigma=x"),
        ("sensitivity", "noise_sigma=-1"),
        ("contour", "prior_style=sideways"),
        ("contour", "tau=2"),
        ("contour", "grid_size=-1"),
        ("contour", "toy_n=-1"),
        ("contour", "noise_sigma=0"),
        ("contour", "lambda1=-1"),
        ("contour", "log_beta_min=nan"),
    ])
    def test_config_error_leaves_no_directory(self, toy_csv, tmp_path, capsys,
                                              subcommand, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.replace("absent.csv", str(tmp_path / "absent.csv")) + "\n")
        args = [subcommand, "--config", cfg, "--out", tmp_path / "new" / "out"]
        if subcommand == "cv":
            args += ["--input", toy_csv]
        assert run_cli(args) == 1
        assert capsys.readouterr().err.startswith("config-error: ")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("folds", [31, 16])  # n = 30: n < folds, then one row a fold
    def test_cv_partition_error_leaves_no_directory(self, toy_csv, tmp_path, capsys, folds):
        out = tmp_path / "new" / "out"
        assert run_cli(["cv", "--input", toy_csv, "--folds", folds, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("data-error: ")
        assert ("need n >= folds" if folds > 30 else "fold too small") in err
        assert not (tmp_path / "new").exists()

    def test_existing_directory_is_kept(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run_cli(["simulate", "--reps", 0, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config-error: ")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_failure_after_the_directory_deletes_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        # another run writes beside this one while it runs, then this one fails
        parent = tmp_path / "results"
        other = parent / "b" / "done.txt"

        def run_study(*args, **kwargs):
            other.parent.mkdir()
            other.write_text("x")
            raise CliError("data-error", "failed late")

        monkeypatch.setattr(cli.simbench, "run_study", run_study)
        assert run_cli(["simulate", "--out", parent / "a"]) == 1
        assert capsys.readouterr().err.startswith("data-error: ")
        assert other.read_text() == "x"
        assert (parent / "a").is_dir()


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
