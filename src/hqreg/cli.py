"""Config-driven command line front end.

Subcommands: fit, simulate, sensitivity, contour, cv.  Configuration is
a flat key=value file plus command-line overrides (flags win); every run
writes a manifest echoing the resolved configuration, so any run can be
reproduced byte-for-byte by pointing --config at its manifest.

All floating output is printed with 17 significant digits: output files
are byte-stable golden artifacts without precision loss.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, simbench
from .loss_density import (
    ElasticNetPenalty,
    LassoPenalty,
    PosteriorGridSpec,
    log_posterior_grid,
)
from .randist import RngStream, ald_sample
from .sampler import Dataset, ElasticNetHyper, LassoHyper, ModelSpec, run_chain, summarize

__all__ = [
    "CliError",
    "RunConfig",
    "ingest_csv",
    "StandardisationRecord",
    "standardise",
    "run",
    "main",
]


class CliError(Exception):
    """Carries a machine-parsable error class plus human detail."""

    def __init__(self, error_class: str, detail: str):
        super().__init__(detail)
        self.error_class = error_class


def fmt(x: float) -> str:
    """17 significant digits: round-trips doubles exactly."""
    return f"{float(x):.17g}"


# --- CSV ingestion -------------------------------------------------------------


def ingest_csv(path):
    """Parse a rectangular numeric CSV: one header row, last column is the
    response.  Returns (Dataset, column names).

    Ragged rows, non-numeric cells and non-finite values are rejected
    with their row (1-based, header = row 1) and column positions.
    """
    path = Path(path)
    if not path.exists():
        raise CliError("config-error", f"input file does not exist: {path}")
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise CliError("parse-error", f"{path}: {exc}") from exc
    if not rows:
        raise CliError("empty-dataset", f"{path}: file is empty")
    header = [c.strip() for c in rows[0]]
    width = len(header)
    if width < 2:
        raise CliError("parse-error", f"{path}: need at least one predictor and a response column")
    body = rows[1:]
    if not body:
        raise CliError("empty-dataset", f"{path}: header only, no data rows")
    data = np.empty((len(body), width))
    bad_rows = []
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(
                "ragged-row", f"{path}: row {i + 2} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise CliError(
                    "non-numeric-cell",
                    f"{path}: row {i + 2}, column '{header[j]}' is not numeric: {cell!r}",
                ) from None
        if not np.all(np.isfinite(data[i])):
            bad_rows.append(i + 2)
    if bad_rows:
        raise CliError(
            "non-finite-rows", f"{path}: non-finite values in rows {bad_rows}"
        )
    return Dataset(data[:, :-1], data[:, -1]), header


# --- standardisation ------------------------------------------------------------


@dataclass
class StandardisationRecord:
    """Per-column location/scale used, enough to invert the transform.

    Constant columns (sd 0) are passed through with applied=False.
    sd uses the n-1 denominator.
    """

    names: list
    mean: np.ndarray
    sd: np.ndarray
    applied: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        out = np.array(matrix, dtype=float)
        cols = np.where(self.applied)[0]
        out[:, cols] = (out[:, cols] - self.mean[cols]) / self.sd[cols]
        return out

    def inverse(self, matrix: np.ndarray) -> np.ndarray:
        out = np.array(matrix, dtype=float)
        cols = np.where(self.applied)[0]
        out[:, cols] = out[:, cols] * self.sd[cols] + self.mean[cols]
        return out


def standardise(matrix, names):
    """Centre/scale every non-constant column to mean 0, sd 1 (ddof 1).

    Returns (matrix', record, warnings); constant columns trigger a
    warning and pass through unscaled.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    sd = matrix.std(axis=0, ddof=1) if n > 1 else np.zeros(matrix.shape[1])
    applied = sd > 0
    warnings = [
        f"column '{names[j]}' is constant; left unscaled"
        for j in np.where(~applied)[0]
    ]
    record = StandardisationRecord(list(names), mean, np.where(applied, sd, 1.0), applied)
    return record.transform(matrix), record, warnings


# --- configuration ---------------------------------------------------------------

_DEFAULTS = {
    "seed": "0",
    "out": "hqreg-out",
    "tau": "0.5",
    "penalty": "lasso",
    "iters": "2500",
    "burnin": "500",
    "thin": "1",
    "standardise": "true",
    "intercept": "true",
    "a": "1.0",
    "b": "1.0",
    "c": "1.0",
    "d": "1.0",
    "a1": "1.0",
    "b1": "1.0",
    "a2": "1.0",
    "b2": "1.0",
    "a3": "1.0",
    "b3": "1.0",
    "eta_iters": "10",
    "eta_tol": "1e-8",
    "input": "",
    "folds": "10",
    "reps": "20",
    "scenarios": "1",
    "n": "100",
    "vary": "b",
    "values": "1,2",
    "toy_seed": "36",
    "toy_n": "10",
    "noise_sigma": "0.03",
    "eta": "1.0",
    "lambda1": "1.0",
    "lambda3": "1.0",
    "lambda4": "1.0",
    "prior_style": "unconditional",
    "grid_size": "200",
    "log_beta_min": "-3.0",
    "log_beta_max": "2.0",
    "log_rho2_min": "-9.0",
    "log_rho2_max": "1.0",
}

_SUBCOMMANDS = ("fit", "simulate", "sensitivity", "contour", "cv")


@dataclass
class RunConfig:
    """Resolved configuration for one run: subcommand plus key=value map."""

    subcommand: str
    values: dict

    def get(self, key: str) -> str:
        return self.values[key]

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError:
            raise CliError("config-error", f"key '{key}' is not a number: {self.values[key]!r}")

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError:
            raise CliError("config-error", f"key '{key}' is not an integer: {self.values[key]!r}")

    def get_bool(self, key: str) -> bool:
        raw = self.values[key].strip().lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise CliError("config-error", f"key '{key}' is not a boolean: {self.values[key]!r}")


def parse_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise CliError("config-error", f"config file does not exist: {path}")
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError("config-error", f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "subcommand" or key == "version":
            out[key] = value
            continue
        if key not in _DEFAULTS:
            raise CliError("config-error", f"{path}:{lineno}: unknown key '{key}'")
        out[key] = value
    return out


def _resolve_config(args) -> RunConfig:
    values = dict(_DEFAULTS)
    if args.config:
        values.update({k: v for k, v in parse_config_file(args.config).items()
                       if k in _DEFAULTS})
    overrides = {
        "seed": args.seed,
        "tau": args.tau,
        "penalty": args.penalty,
        "iters": args.iters,
        "burnin": args.burnin,
        "thin": args.thin,
        "reps": args.reps,
        "folds": args.folds,
        "out": args.out,
        "input": args.input,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = str(val)
    if args.no_standardise:
        values["standardise"] = "false"
    if values["penalty"] not in ("lasso", "en"):
        raise CliError("config-error", f"penalty must be 'lasso' or 'en', got {values['penalty']!r}")
    return RunConfig(args.subcommand, values)


def _model_spec(cfg: RunConfig, tau: float = None) -> ModelSpec:
    if cfg.get("penalty") == "lasso":
        hyper = LassoHyper(cfg.get_float("a"), cfg.get_float("b"),
                           cfg.get_float("c"), cfg.get_float("d"))
    else:
        hyper = ElasticNetHyper(cfg.get_float("a1"), cfg.get_float("b1"),
                                cfg.get_float("a2"), cfg.get_float("b2"),
                                cfg.get_float("a3"), cfg.get_float("b3"))
    try:
        return ModelSpec(
            tau=tau if tau is not None else cfg.get_float("tau"),
            penalty=hyper,
            n_iter=cfg.get_int("iters"),
            burn_in=cfg.get_int("burnin"),
            thin=cfg.get_int("thin"),
            eta_inner_iters=cfg.get_int("eta_iters"),
            eta_tol=cfg.get_float("eta_tol"),
            seed=cfg.get_int("seed"),
        )
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.get("out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("config-error", f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])


def _write_manifest(outdir: Path, cfg: RunConfig, wall_time: float):
    lines = [f"subcommand={cfg.subcommand}", f"version={__version__}"]
    lines += [f"{k}={cfg.values[k]}" for k in sorted(cfg.values)]
    lines.append(f"# wall_time_s={wall_time:.3f}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


# --- subcommand bodies -----------------------------------------------------------


def _prepare_fit_data(cfg: RunConfig):
    if not cfg.get("input"):
        raise CliError("config-error", "this subcommand requires input=<csv path>")
    data, names = ingest_csv(cfg.get("input"))
    matrix = np.column_stack([data.X, data.y])
    record = None
    if cfg.get_bool("standardise"):
        matrix, record, warnings = standardise(matrix, names)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    X, y = matrix[:, :-1], matrix[:, -1]
    names_x = names[:-1]
    if cfg.get_bool("intercept"):
        X = np.column_stack([np.ones(X.shape[0]), X])
        names_x = ["intercept"] + names_x
    return Dataset(X, y), names_x, names[-1], record


def cmd_fit(cfg: RunConfig) -> list:
    outdir = _outdir(cfg)
    data, names_x, _, _ = _prepare_fit_data(cfg)
    model = _model_spec(cfg)
    samples = run_chain(data, model)
    rename = {f"beta_{j}": f"beta_{j}:{names_x[j]}" for j in range(len(names_x))}
    columns = [rename.get(c, c) for c in samples.columns]
    _write_csv(outdir / "samples.csv", columns, samples.draws)
    rows = [
        (rename.get(name, name), med, lo, hi)
        for name, med, lo, hi in summarize(samples, level=0.95)
    ]
    _write_csv(outdir / "summary.csv", ["parameter", "median", "lower", "upper"], rows)
    (outdir / "chain-health.txt").write_text("\n".join(samples.health.as_lines()) + "\n")
    return [outdir / "samples.csv", outdir / "summary.csv", outdir / "chain-health.txt"]


def cmd_cv(cfg: RunConfig) -> list:
    outdir = _outdir(cfg)
    data, _, _, _ = _prepare_fit_data(cfg)
    model = _model_spec(cfg)
    folds = cfg.get_int("folds")
    try:
        result = simbench.cross_validate(data, model, folds=folds)
    except ValueError as exc:
        raise CliError("data-error", str(exc)) from exc
    rows = [(
        cfg.get("penalty"), cfg.get_float("tau"), folds,
        result.mspe, result.mape, result.mhpe, result.medspe,
    )]
    rows[0] = (rows[0][0], fmt(rows[0][1]), str(rows[0][2]), *rows[0][3:])
    _write_csv(outdir / "cv-metrics.csv",
               ["method", "tau", "folds", "mspe", "mape", "mhpe", "medspe"], rows)
    return [outdir / "cv-metrics.csv"]


def cmd_simulate(cfg: RunConfig) -> list:
    outdir = _outdir(cfg)
    reps = cfg.get_int("reps")
    if reps >= 300:
        print(
            "warning: full-scale replication counts take hours; "
            "desk-scale default is 20",
            file=sys.stderr,
        )
    try:
        sim_ids = [int(s) for s in cfg.get("scenarios").split(",") if s.strip()]
        taus = [float(t) for t in cfg.get("tau").split(",") if t.strip()]
    except ValueError as exc:
        raise CliError("config-error", f"bad scenarios/tau list: {exc}") from exc
    if not sim_ids or not taus:
        raise CliError("config-error", "scenarios and tau lists must not be empty")
    if not all(0.0 < tau < 1.0 for tau in taus):
        raise CliError("config-error", f"every tau must lie in (0, 1), got {cfg.get('tau')!r}")
    n = cfg.get_int("n")
    scenarios = [
        simbench.scenario_by_id(sid, n=n, tau=tau) for sid in sim_ids for tau in taus
    ]
    # run_study sets each cell's tau; the model takes the first for validation
    model = _model_spec(cfg, tau=taus[0])
    cells = simbench.run_study(scenarios, model, reps, master_seed=cfg.get_int("seed"))
    table_rows = []
    eta_rows = []
    for cell in cells:
        table_rows.append((
            str(cell.scenario_id), cell.method, fmt(cell.tau), str(cell.n),
            cell.rmse_mean, cell.mmad, cell.al_mean, cell.cp_mean,
            str(cell.n_failures), str(cell.complete).lower(),
        ))
        for rep, eta in enumerate(cell.eta_medians):
            eta_rows.append((str(cell.scenario_id), fmt(cell.tau), str(cell.n), str(rep), eta))
    _write_csv(outdir / "tables.csv",
               ["scenario", "method", "tau", "n", "rmse", "mmad", "al", "cp",
                "failures", "complete"], table_rows)
    _write_csv(outdir / "eta-medians.csv",
               ["scenario", "tau", "n", "replication", "eta_median"], eta_rows)
    return [outdir / "tables.csv", outdir / "eta-medians.csv"]


def cmd_sensitivity(cfg: RunConfig) -> list:
    outdir = _outdir(cfg)
    vary = cfg.get("vary")
    lasso_keys = ("a", "b", "c", "d")
    en_keys = ("a1", "b1", "a2", "b2", "a3", "b3")
    if vary not in lasso_keys + en_keys:
        raise CliError("config-error", f"vary must name a hyperparameter, got {vary!r}")
    try:
        values = [float(v) for v in cfg.get("values").split(",") if v.strip()]
    except ValueError as exc:
        raise CliError("config-error", f"bad values list: {exc}") from exc
    models = []
    for val in values:
        sub = RunConfig(cfg.subcommand, {**cfg.values, vary: str(val)})
        if vary in en_keys and cfg.get("penalty") != "en":
            sub.values["penalty"] = "en"
        models.append((f"{vary}={val:g}", _model_spec(sub)))
    curves = simbench.sensitivity_curve_study(
        models, master_seed=cfg.get_int("seed"),
        noise_sigma=cfg.get_float("noise_sigma"),
    )
    rows = []
    for label, grid, fitted, truth in curves:
        for x, f, t in zip(grid, fitted, truth):
            rows.append((label, x, f, t))
    _write_csv(outdir / "curve.csv", ["setting", "x", "fitted", "truth"], rows)
    return [outdir / "curve.csv"]


def _toy_contour_data(cfg: RunConfig):
    gen = RngStream(cfg.get_int("toy_seed")).generator()
    n = cfg.get_int("toy_n")
    x = gen.standard_normal(n)
    y = x + ald_sample(gen, 0.0, cfg.get_float("noise_sigma"), 0.5, size=n)
    return x, y


def cmd_contour(cfg: RunConfig) -> list:
    outdir = _outdir(cfg)
    x, y = _toy_contour_data(cfg)
    size = cfg.get_int("grid_size")
    bgrid = np.exp(np.linspace(cfg.get_float("log_beta_min"), cfg.get_float("log_beta_max"), size))
    rgrid = np.exp(np.linspace(cfg.get_float("log_rho2_min"), cfg.get_float("log_rho2_max"), size))
    if cfg.get("penalty") == "lasso":
        penalty = LassoPenalty(cfg.get_float("lambda1"))
    else:
        penalty = ElasticNetPenalty(cfg.get_float("lambda3"), cfg.get_float("lambda4"))
    style = cfg.get("prior_style")
    if style not in ("unconditional", "conditional"):
        raise CliError("config-error", f"prior_style must be (un)conditional, got {style!r}")
    try:
        spec = PosteriorGridSpec(bgrid, rgrid, x, y, penalty, style,
                                 cfg.get_float("eta"), cfg.get_float("tau"))
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    z = log_posterior_grid(spec)
    rows = []
    log_b = np.log(bgrid)
    log_r = np.log(rgrid)
    for i in range(size):
        for j in range(size):
            rows.append((log_b[i], log_r[j], z[i, j]))
    _write_csv(outdir / "grid.csv", ["log_beta", "log_rho2", "log_posterior"], rows)
    return [outdir / "grid.csv"]


_RUNNERS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "sensitivity": cmd_sensitivity,
    "contour": cmd_contour,
    "cv": cmd_cv,
}


def run(cfg: RunConfig) -> list:
    """Execute one resolved configuration; returns the written files."""
    t0 = time.perf_counter()
    written = _RUNNERS[cfg.subcommand](cfg)
    _write_manifest(_outdir(cfg), cfg, time.perf_counter() - t0)
    return written + [_outdir(cfg) / "manifest.txt"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hqreg",
        description="Huberised regularised Bayesian quantile regression",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tau", default=None)
        p.add_argument("--penalty", choices=("lasso", "en"), default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--burnin", type=int, default=None)
        p.add_argument("--thin", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--input", default=None)
        p.add_argument("--no-standardise", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        run(cfg)
    except CliError as exc:
        print(f"{exc.error_class}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
