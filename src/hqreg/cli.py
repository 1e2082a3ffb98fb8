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
import warnings
from dataclasses import dataclass, fields
from itertools import chain
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
    with their row (1-based, header = row 1) and column positions.  A
    well-formed file is parsed in one pass by ``np.loadtxt``; any other
    file takes the row scan of ``csv.reader``, which gives the same data
    and names the first bad row.
    """
    path = Path(path)
    if not path.exists():
        raise CliError("config-error", f"input file does not exist: {path}")
    parsed = _ingest_one_pass(path)
    return parsed if parsed is not None else _ingest_rows(path)


def _ingest_one_pass(path):
    """(Dataset, header) of a well-formed file, or None for the row scan.

    Well formed: no quote or NUL character, so that csv.reader's rows are
    the file's lines split at commas; no line longer than csv.reader's
    field limit; at least two columns and one data row; and a loadtxt
    result, without warnings, with one row per line and one column per
    header cell, all finite.  Both passes parse each cell as ``float``
    does.  ``loadtxt`` skips blank lines, which the row count catches.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, ValueError):
        return None
    if '"' in text or "\0" in text:
        return None
    # csv.reader ends a line at \r\n, \r or \n
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 2:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if data.shape != (len(lines) - 1, len(header)) or not np.isfinite(data).all():
        return None
    return Dataset(data[:, :-1], data[:, -1]), header


def _ingest_rows(path):
    """(Dataset, header) from csv.reader's rows, or the error of the first
    bad row."""
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
    try:
        if any(len(row) != width for row in body):
            raise ValueError
        data = np.fromiter(map(float, chain.from_iterable(body)), float, len(body) * width)
    except ValueError:
        _raise_first_bad_row(path, header, body)
    data = data.reshape(len(body), width)
    bad_rows = (np.flatnonzero(~np.isfinite(data).all(axis=1)) + 2).tolist()
    if bad_rows:
        raise CliError(
            "non-finite-rows", f"{path}: non-finite values in rows {bad_rows}"
        )
    return Dataset(data[:, :-1], data[:, -1]), header


def _raise_first_bad_row(path, header, body):
    """Raise the error of the first ragged row or non-numeric cell."""
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(
                "ragged-row", f"{path}: row {i + 2} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                raise CliError(
                    "non-numeric-cell",
                    f"{path}: row {i + 2}, column '{header[j]}' is not numeric: {cell!r}",
                ) from None


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

# keys that manifests held before their values became sampler constants;
# a config may still give them, at these values only
_RETIRED = {"eta_iters": "10", "eta_tol": "1e-8"}

_SUBCOMMANDS = ("fit", "simulate", "sensitivity", "contour", "cv")
# the penalty key picks the sampler's penalty family and the surface's prior
_PENALTIES = {"lasso": LassoHyper, "en": ElasticNetHyper}
_SURFACE_PENALTIES = {"lasso": LassoPenalty, "en": ElasticNetPenalty}


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
        if key in _RETIRED:
            try:
                retired = float(value) == float(_RETIRED[key])
            except ValueError:
                retired = False
            if not retired:
                raise CliError("config-error", f"{path}:{lineno}: key '{key}' is fixed at "
                                               f"{_RETIRED[key]}")
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
    if values["penalty"] not in _PENALTIES:
        raise CliError("config-error", f"penalty must be 'lasso' or 'en', got {values['penalty']!r}")
    return RunConfig(args.subcommand, values)


def _model_spec(cfg: RunConfig, tau: float = None) -> ModelSpec:
    family = _PENALTIES[cfg.get("penalty")]
    try:
        return ModelSpec(
            tau=tau if tau is not None else cfg.get_float("tau"),
            penalty=family(*(cfg.get_float(key) for key in family.keys)),
            n_iter=cfg.get_int("iters"),
            burn_in=cfg.get_int("burnin"),
            thin=cfg.get_int("thin"),
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
    """Header through csv.writer; an ndarray body is written one row per
    format call, with the bytes fmt and csv.writer would give."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + writer.dialect.lineterminator
            for row in rows:
                fh.write(line % tuple(row.tolist()))
            return
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
    data, names_x, _, _ = _prepare_fit_data(cfg)
    model = _model_spec(cfg)
    outdir = _outdir(cfg)
    samples = run_chain(data, model)
    rename = {f"beta_{j}": f"beta_{j}:{names_x[j]}" for j in range(len(names_x))}
    columns = [rename.get(c, c) for c in samples.columns]
    _write_csv(outdir / "samples.csv", columns, samples.draws)
    rows = [
        (rename.get(name, name), med, lo, hi)
        for name, med, lo, hi in summarize(samples)
    ]
    _write_csv(outdir / "summary.csv", ["parameter", "median", "lower", "upper"], rows)
    (outdir / "chain-health.txt").write_text("\n".join(samples.health.as_lines()) + "\n")
    return [outdir / "samples.csv", outdir / "summary.csv", outdir / "chain-health.txt"]


def cmd_cv(cfg: RunConfig) -> list:
    data, _, _, _ = _prepare_fit_data(cfg)
    model = _model_spec(cfg)
    folds = cfg.get_int("folds")
    if folds < 2:
        raise CliError("config-error", f"folds must be >= 2, got {folds}")
    try:
        simbench.check_folds(data.n, folds)
    except ValueError as exc:
        raise CliError("data-error", str(exc)) from exc
    outdir = _outdir(cfg)
    try:
        result = simbench.cross_validate(data, model, folds=folds)
    except ValueError as exc:
        raise CliError("data-error", str(exc)) from exc
    rows = [(
        cfg.get("penalty"), fmt(cfg.get_float("tau")), str(folds),
        result.mspe, result.mape, result.mhpe, result.medspe,
    )]
    _write_csv(outdir / "cv-metrics.csv",
               ["method", "tau", "folds", "mspe", "mape", "mhpe", "medspe"], rows)
    return [outdir / "cv-metrics.csv"]


def cmd_simulate(cfg: RunConfig) -> list:
    reps = cfg.get_int("reps")
    if reps < 1:
        raise CliError("config-error", f"reps must be >= 1, got {reps}")
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
    if n < 1:
        raise CliError("config-error", f"n must be >= 1, got {n}")
    try:
        scenarios = [
            simbench.scenario_by_id(sid, n=n, tau=tau) for sid in sim_ids for tau in taus
        ]
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    # run_study sets each cell's tau; the model takes the first for validation
    model = _model_spec(cfg, tau=taus[0])
    try:
        simbench.worker_count(len(scenarios) * reps)
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    outdir = _outdir(cfg)
    cells = simbench.run_study(scenarios, model, reps, master_seed=cfg.get_int("seed"))
    table_rows = []
    eta_rows = []
    failure_rows = []
    for cell in cells:
        table_rows.append((
            str(cell.scenario_id), cell.method, fmt(cell.tau), str(cell.n),
            cell.rmse_mean, cell.mmad, cell.al_mean, cell.cp_mean,
            str(cell.n_failures), str(cell.complete).lower(),
        ))
        for rep, eta in enumerate(cell.eta_medians):
            eta_rows.append((str(cell.scenario_id), fmt(cell.tau), str(cell.n), str(rep), eta))
        for rep, message in cell.failures:
            failure_rows.append((str(cell.scenario_id), fmt(cell.tau), str(cell.n), str(rep),
                                 message))
    _write_csv(outdir / "tables.csv",
               ["scenario", "method", "tau", "n", "rmse", "mmad", "al", "cp",
                "failures", "complete"], table_rows)
    _write_csv(outdir / "eta-medians.csv",
               ["scenario", "tau", "n", "replication", "eta_median"], eta_rows)
    written = [outdir / "tables.csv", outdir / "eta-medians.csv"]
    # only a run with a failed replication has this file
    if failure_rows:
        _write_csv(outdir / "failures.csv",
                   ["scenario", "tau", "n", "replication", "message"], failure_rows)
        written.append(outdir / "failures.csv")
    return written


def cmd_sensitivity(cfg: RunConfig) -> list:
    vary = cfg.get("vary")
    family = next((name for name, cls in _PENALTIES.items() if vary in cls.keys), None)
    if family is None:
        raise CliError("config-error", f"vary must name a hyperparameter, got {vary!r}")
    try:
        values = [float(v) for v in cfg.get("values").split(",") if v.strip()]
    except ValueError as exc:
        raise CliError("config-error", f"bad values list: {exc}") from exc
    if not values:
        raise CliError("config-error", "values list must not be empty")
    models = []
    for val in values:
        sub = RunConfig(cfg.subcommand, {**cfg.values, vary: str(val), "penalty": family})
        models.append((f"{vary}={val:g}", _model_spec(sub)))
    noise_sigma = _noise_sigma(cfg)
    outdir = _outdir(cfg)
    curves = simbench.sensitivity_curve_study(
        models, master_seed=cfg.get_int("seed"), noise_sigma=noise_sigma,
    )
    rows = []
    for label, grid, fitted, truth in curves:
        for x, f, t in zip(grid, fitted, truth):
            rows.append((label, x, f, t))
    _write_csv(outdir / "curve.csv", ["setting", "x", "fitted", "truth"], rows)
    return [outdir / "curve.csv"]


def _noise_sigma(cfg: RunConfig) -> float:
    sigma = cfg.get_float("noise_sigma")
    if not 0.0 < sigma < float("inf"):
        raise CliError("config-error", f"noise_sigma must be finite and > 0, got {sigma}")
    return sigma


def _toy_contour_data(cfg: RunConfig):
    n = cfg.get_int("toy_n")
    if n < 0:
        raise CliError("config-error", f"toy_n must be >= 0, got {n}")
    sigma = _noise_sigma(cfg)
    gen = RngStream(cfg.get_int("toy_seed")).generator()
    x = gen.standard_normal(n)
    y = x + ald_sample(gen, 0.0, sigma, 0.5, size=n)
    return x, y


def cmd_contour(cfg: RunConfig) -> list:
    x, y = _toy_contour_data(cfg)
    size = cfg.get_int("grid_size")
    if size < 2:
        raise CliError("config-error", f"grid_size must be >= 2, got {size}")
    bgrid = np.exp(np.linspace(cfg.get_float("log_beta_min"), cfg.get_float("log_beta_max"), size))
    rgrid = np.exp(np.linspace(cfg.get_float("log_rho2_min"), cfg.get_float("log_rho2_max"), size))
    surface = _SURFACE_PENALTIES[cfg.get("penalty")]
    style = cfg.get("prior_style")
    if style not in ("unconditional", "conditional"):
        raise CliError("config-error", f"prior_style must be (un)conditional, got {style!r}")
    try:
        penalty = surface(*(cfg.get_float(f.name) for f in fields(surface)))
        spec = PosteriorGridSpec(bgrid, rgrid, x, y, penalty, style,
                                 cfg.get_float("eta"), cfg.get_float("tau"))
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    outdir = _outdir(cfg)
    z = log_posterior_grid(spec)
    # one row per (beta_i, rho2_j), beta-major
    rows = np.column_stack([np.repeat(np.log(bgrid), size), np.tile(np.log(rgrid), size),
                            z.ravel()])
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
    """Execute one resolved configuration; returns the written files.

    Each subcommand checks its keys before it creates the output
    directory, so a config-error leaves none behind.
    """
    t0 = time.perf_counter()
    written = _RUNNERS[cfg.subcommand](cfg)
    outdir = _outdir(cfg)
    _write_manifest(outdir, cfg, time.perf_counter() - t0)
    return written + [outdir / "manifest.txt"]


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
