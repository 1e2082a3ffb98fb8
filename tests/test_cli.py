"""Command-line front end: ingestion, standardisation, subcommand outputs,
manifests and determinism."""

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError) as err:
            ingest_csv(tmp_path / "absent.csv")
        assert err.value.error_class == "config-error"


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

    def test_sensitivity_outputs(self, tmp_path):
        out = tmp_path / "sens"
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vary=b\nvalues=1,2\niters=200\nburnin=50\n")
        code = run_cli(["sensitivity", "--config", cfg, "--out", out])
        assert code == 0
        rows = list(csv.reader(open(out / "curve.csv")))
        assert rows[0] == ["setting", "x", "fitted", "truth"]
        assert len(rows) == 1 + 2 * 50

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
