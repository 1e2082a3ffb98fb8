"""Config-driven command line front end.

Subcommands: fit, simulate, sensitivity, contour, cv.  Configuration is
a flat key=value file plus command-line overrides (flags win), each flag
read as its key's config line; every run writes a manifest echoing the
resolved configuration, so any run can be reproduced byte-for-byte by
pointing --config at its manifest.  Each subcommand computes its output
files and returns them; :func:`run` alone makes the output directory and
writes them, so a run that fails before then leaves no directory.

All floating output is printed with 17 significant digits: output files
are byte-stable golden artifacts without precision loss.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
import warnings
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, simbench
from .loss_density import PosteriorGridSpec, log_posterior_grid
from .randist import RngStream, ald_sample
from .sampler import (ChainError, Dataset, ElasticNetHyper, LassoHyper, ModelSpec, run_chain,
                      summarize)

__all__ = [
    "CliError",
    "RunConfig",
    "ingest_csv",
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
    response.  Returns (matrix, column names): one matrix row per data
    row, the response in its last column.

    Ragged rows, non-numeric cells and non-finite values are rejected
    with their row (1-based, header = row 1) and column positions, text
    that does not decode as a parse-error.  The file is read once (an
    OSError if it cannot be): a well-formed text is parsed in one pass by
    ``np.loadtxt``, any other takes the row scan of ``csv.reader``, which
    gives the same data and names the first bad row.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CliError("parse-error", f"{path}: {exc}") from exc
    parsed = _ingest_one_pass(text)
    return parsed if parsed is not None else _ingest_rows(path, text)


def _ingest_one_pass(text):
    """(matrix, header) of a well-formed file's text, or None for the row scan.

    Well formed: no quote or NUL character, so that csv.reader's rows are
    the file's lines split at commas; no line longer than csv.reader's
    field limit; at least two columns and one data row; and a loadtxt
    result, without warnings, with one row per line and one column per
    header cell, all finite.  Both passes parse each cell as ``float``
    does.  ``loadtxt`` skips blank lines, which the row count catches.
    """
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
    return data, header


def _ingest_rows(path, text):
    """(matrix, header) from csv.reader's rows of the text, or the first bad row's error."""
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
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
    return data, header


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


def standardise(matrix, names):
    """Centre/scale every non-constant column to mean 0, sd 1 (ddof 1).

    Returns (matrix', warnings), matrix' a new array; constant columns
    trigger a warning and pass through unchanged.  Raises ValueError
    naming the first column whose mean or sd overflows.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        sd = matrix.std(axis=0, ddof=1) if n > 1 else np.zeros(matrix.shape[1])
    overflowed = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
    if overflowed.size:
        raise ValueError(f"column '{names[overflowed[0]]}' cannot be standardised: "
                         "its mean or sd overflows")
    applied = sd > 0
    warnings = [
        f"column '{names[j]}' is constant; left unscaled"
        for j in np.where(~applied)[0]
    ]
    out = np.array(matrix)
    out[:, applied] = (out[:, applied] - mean[applied]) / sd[applied]
    return out, warnings


# --- configuration ---------------------------------------------------------------

# the penalty key picks the penalty family of the chain and of the surface
_PENALTIES = {"lasso": LassoHyper, "en": ElasticNetHyper}

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
    # each family's fields are its keys, at the family's defaults
    **{f.name: repr(f.default) for family in _PENALTIES.values() for f in fields(family)},
    "input": "",
    "folds": "10",
    "reps": "20",
    "scenarios": "1",
    "n": "100",
    "vary": "b",
    "values": "1,2",
    "eta": "1.0",
    "lambda1": "1.0",
    "lambda3": "1.0",
    "lambda4": "1.0",
    "prior_style": "unconditional",
}

# keys that manifests held before their values became constants of the
# contour and sensitivity fixtures; a config may still give them, at these
# values only
_RETIRED = {"toy_seed": "36", "toy_n": "10", "noise_sigma": "0.03", "grid_size": "200",
            "log_beta_min": "-3.0", "log_beta_max": "2.0", "log_rho2_min": "-9.0",
            "log_rho2_max": "1.0"}


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
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise CliError("config-error", f"{path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError("config-error", f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "subcommand" or key == "version":
            continue  # a manifest's echo; the command line names the subcommand
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
        values.update(parse_config_file(args.config))
    # every flag but --config and --no-standardise is named after its key,
    # and its value is read as that key's config line, which holds no
    # line break (the manifest is read back with splitlines)
    for key, val in vars(args).items():
        if key in _DEFAULTS and val is not None:
            val = val.strip()
            if len(val.splitlines()) > 1:
                raise CliError("config-error", f"flag --{key} holds a line break: {val!r}")
            values[key] = val
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
            penalty=family(*(cfg.get_float(f.name) for f in fields(family))),
            n_iter=cfg.get_int("iters"),
            burn_in=cfg.get_int("burnin"),
            thin=cfg.get_int("thin"),
            seed=cfg.get_int("seed"),
        )
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc


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
    """(Dataset, predictor names, warnings) of the input file, standardised
    and given an intercept column unless the config turns these off."""
    if not cfg.get("input"):
        raise CliError("config-error", "this subcommand requires input=<csv path>")
    matrix, names = ingest_csv(cfg.get("input"))
    warnings = []
    if cfg.get_bool("standardise"):
        try:
            matrix, warnings = standardise(matrix, names)
        except ValueError as exc:
            raise CliError("data-error", f"{cfg.get('input')}: {exc}") from exc
    X, y = matrix[:, :-1], matrix[:, -1]
    names_x = names[:-1]
    if cfg.get_bool("intercept"):
        X = np.column_stack([np.ones(X.shape[0]), X])
        names_x = ["intercept"] + names_x
    return Dataset(X, y), names_x, warnings


def cmd_fit(cfg: RunConfig) -> tuple:
    data, names_x, warnings = _prepare_fit_data(cfg)
    model = _model_spec(cfg)
    samples = run_chain(data, model)
    rename = {f"beta_{j}": f"beta_{j}:{names_x[j]}" for j in range(len(names_x))}
    columns = [rename.get(c, c) for c in samples.columns]
    files = {
        "samples.csv": (columns, samples.draws),
        "summary.csv": (["parameter", "median", "lower", "upper"],
                        zip(columns, *summarize(samples))),
        "chain-health.txt": "\n".join(samples.health.as_lines()) + "\n",
    }
    return files, warnings


def cmd_cv(cfg: RunConfig) -> tuple:
    data, _, warnings = _prepare_fit_data(cfg)
    model = _model_spec(cfg)
    folds = cfg.get_int("folds")
    if folds < 2:
        raise CliError("config-error", f"folds must be >= 2, got {folds}")
    try:
        simbench.check_folds(data.n, folds)
    except ValueError as exc:
        raise CliError("data-error", str(exc)) from exc
    result = simbench.cross_validate(data, model, folds=folds)
    rows = [(
        cfg.get("penalty"), fmt(cfg.get_float("tau")), str(folds),
        result.mspe, result.mape, result.mhpe, result.medspe,
    )]
    header = ["method", "tau", "folds", "mspe", "mape", "mhpe", "medspe"]
    return {"cv-metrics.csv": (header, rows)}, warnings


def cmd_simulate(cfg: RunConfig) -> tuple:
    reps = cfg.get_int("reps")
    if reps < 1:
        raise CliError("config-error", f"reps must be >= 1, got {reps}")
    try:
        sim_ids = [int(s) for s in cfg.get("scenarios").split(",") if s.strip()]
        taus = [float(t) for t in cfg.get("tau").split(",") if t.strip()]
    except ValueError as exc:
        raise CliError("config-error", f"bad scenarios/tau list: {exc}") from exc
    if not sim_ids or not taus:
        raise CliError("config-error", "scenarios and tau lists must not be empty")
    n = cfg.get_int("n")
    try:
        scenarios = [simbench.scenario_by_id(sid, n=n) for sid in sim_ids]
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    models = [_model_spec(cfg, tau) for tau in taus]
    try:
        simbench.worker_count(len(scenarios) * len(models) * reps)
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    if reps >= 300:
        print(
            "warning: full-scale replication counts take hours; "
            "desk-scale default is 20",
            file=sys.stderr,
        )
    cells = simbench.run_study([(scen, model) for scen in scenarios for model in models], reps)
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
    files = {
        "tables.csv": (["scenario", "method", "tau", "n", "rmse", "mmad", "al", "cp",
                        "failures", "complete"], table_rows),
        "eta-medians.csv": (["scenario", "tau", "n", "replication", "eta_median"], eta_rows),
    }
    # only a run with a failed replication has this file
    if failure_rows:
        files["failures.csv"] = (["scenario", "tau", "n", "replication", "message"],
                                 failure_rows)
    return files, []


def cmd_sensitivity(cfg: RunConfig) -> tuple:
    vary = cfg.get("vary")
    family = next((name for name, cls in _PENALTIES.items()
                   if vary in (f.name for f in fields(cls))), None)
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
    curves = simbench.sensitivity_curve_study(models)
    rows = []
    for label, grid, fitted, truth in curves:
        for x, f, t in zip(grid, fitted, truth):
            rows.append((label, x, f, t))
    return {"curve.csv": (["setting", "x", "fitted", "truth"], rows)}, []


def _toy_contour_data():
    """The paper's toy fixture: 10 points x ~ N(0, 1) and y = x plus
    asymmetric-Laplace noise at the median with scale 0.03, both drawn
    from ``RngStream(36)``."""
    gen = RngStream(36).generator()
    x = gen.standard_normal(10)
    y = x + ald_sample(gen, 0.0, 0.03, 0.5, size=10)
    return x, y


def cmd_contour(cfg: RunConfig) -> tuple:
    x, y = _toy_contour_data()
    # the paper's 200 x 200 grid over log beta in [-3, 2] and log rho2 in [-9, 1]
    size = 200
    bgrid, rgrid = np.exp(np.linspace(-3.0, 2.0, size)), np.exp(np.linspace(-9.0, 1.0, size))
    # the contour keys keep their names, so that old manifests replay, and
    # map to the family's pinned rates: lambda1_sq = lambda1^2, or
    # lambda3_tilde = lambda3^2 / (4 lambda4) and lambda4
    family = _PENALTIES[cfg.get("penalty")]
    keys = ("lambda1",) if family is LassoHyper else ("lambda3", "lambda4")
    lam = [cfg.get_float(key) for key in keys]
    if not all(0.0 < v < float("inf") for v in lam):
        raise CliError("config-error", f"{' and '.join(keys)} must be finite and > 0")
    # a product, as ** raises on overflow; the surface refuses an inf or 0 rate
    square = lam[0] * lam[0]
    rates = family.Rates(square) if len(lam) == 1 else family.Rates(square / (4.0 * lam[1]), lam[1])
    try:
        spec = PosteriorGridSpec(bgrid, rgrid, x, y, rates, cfg.get("prior_style"),
                                 cfg.get_float("eta"), cfg.get_float("tau"))
    except ValueError as exc:
        raise CliError("config-error", str(exc)) from exc
    # eta times a check loss, or lambda4 times beta^2, over a tiny rho2 can
    # overflow at a grid point: refuse it as a config-error
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            z = log_posterior_grid(spec)
    except FloatingPointError as exc:
        raise CliError("config-error", f"the log posterior is not finite on this grid: {exc}") from exc
    # one row per (beta_i, rho2_j), beta-major
    rows = np.column_stack([np.repeat(np.log(bgrid), size), np.tile(np.log(rgrid), size),
                            z.ravel()])
    return {"grid.csv": (["log_beta", "log_rho2", "log_posterior"], rows)}, []


_RUNNERS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "sensitivity": cmd_sensitivity,
    "contour": cmd_contour,
    "cv": cmd_cv,
}


def run(cfg: RunConfig) -> None:
    """Execute one resolved configuration.  Its subcommand returns its
    files, each name mapped to a CSV ``(header, rows)`` or to a text, and
    the input's warnings; then the output directory is made, the files
    and the manifest are written and the warnings are printed.  A run
    that fails before its files are written makes no directory, and a
    failed run prints its error line alone.
    """
    t0 = time.perf_counter()
    files, warnings = _RUNNERS[cfg.subcommand](cfg)
    outdir = Path(cfg.get("out"))
    outdir.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        if isinstance(body, str):
            (outdir / name).write_text(body)
        else:
            _write_csv(outdir / name, *body)
    _write_manifest(outdir, cfg, time.perf_counter() - t0)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """A usage error (an unknown flag, a missing subcommand) is a config-error."""

    def error(self, message):
        raise CliError("config-error", message)


def main(argv=None) -> int:
    """Run the CLI.  A failure is one ``error-class: detail`` line and exit 1; an
    OSError naming a file is a config-error, any other unexpected fault an internal-error."""
    parser = _Parser(
        prog="hqreg",
        description="Huberised regularised Bayesian quantile regression",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        # each value flag is a string that the run parses as its key's config line
        for flag in ("config", "seed", "tau", "penalty", "iters", "burnin", "thin", "reps",
                     "folds", "out", "input"):
            p.add_argument(f"--{flag}")
        p.add_argument("--no-standardise", action="store_true")
    try:
        cfg = _resolve_config(parser.parse_args(argv))
        run(cfg)
    except CliError as exc:
        print(f"{exc.error_class}: {exc}", file=sys.stderr)
        return 1
    except ChainError as exc:
        print(f"chain-error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            print(f"config-error: {exc}", file=sys.stderr)
        else:
            print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
