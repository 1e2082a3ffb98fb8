"""Scenario generators, replication metrics, and the benchmark harnesses.

Six regression scenarios share one design: AR(1)-correlated standard
normal predictors, a sparse coefficient vector with intercept, and a
scenario-specific noise law (Gaussian, standardised contaminated normal,
skewed t mixtures, Cauchy).  The study harness runs seeded replications
in parallel and aggregates coefficient-recovery metrics; the
cross-validation harness scores held-out prediction error under squared,
absolute and Huber losses.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .loss_density import huber_loss
from .randist import (
    Cauchy,
    ContaminatedNormal,
    Gaussian,
    Mixture,
    NoiseLaw,
    RngStream,
    SkewT,
    ald_sample,
)
from .sampler import Dataset, ModelSpec, run_chain, summarize

__all__ = [
    "TRUE_BETA",
    "ScenarioSpec",
    "scenario_by_id",
    "generate_scenario",
    "ReplicationResult",
    "metrics",
    "StudyCell",
    "run_study",
    "sensitivity_true_curve",
    "sensitivity_design",
    "sensitivity_curve_study",
    "CvResult",
    "check_folds",
    "cross_validate",
    "worker_count",
]

# sparse truth shared by all scenarios: intercept 1 plus six active slopes
TRUE_BETA = np.zeros(21)
TRUE_BETA[0] = 1.0
TRUE_BETA[1] = 3.0
TRUE_BETA[2] = 0.5
TRUE_BETA[4] = 1.0
TRUE_BETA[7] = 1.5
TRUE_BETA[11] = 1.0

_CONTAMINATED = ContaminatedNormal(w=0.1, s=15.0)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation design: sample size, AR correlation, noise law and scale.

    ``noise_divisor`` standardises the raw noise draw by its analytic
    standard deviation (used by the contaminated designs).
    """

    id: int
    n: int
    tau: float
    r: float
    sigma: float
    noise: NoiseLaw
    noise_divisor: float = 1.0

    def __post_init__(self):
        if not (abs(self.r) < 1.0):
            raise ValueError("need |r| < 1")
        if self.n < 1 or self.sigma <= 0 or self.noise_divisor <= 0:
            raise ValueError("need n >= 1, sigma > 0, noise_divisor > 0")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")


def scenario_by_id(sim_id: int, n: int = 100, tau: float = 0.5) -> ScenarioSpec:
    """The six benchmark designs.

    1. low correlation, Gaussian noise (sigma 2, r 0.5)
    2. low correlation, large outliers: standardised 0.9 N(0,1) + 0.1 N(0,15^2),
       sigma 9.67, r 0.5
    3. as 2 but high correlation r 0.95
    4. skewed t with large outliers: 0.9 skew-t3(gamma 3) + 0.1 N(0,20^2), sigma 1
    5. heavy tails: Cauchy(0,1), sigma 2
    6. multiple outliers: 0.8 skew-t3(gamma 3) + 0.1 N(0,10^2) + 0.1 Cauchy, sigma 1
    """
    if sim_id == 1:
        return ScenarioSpec(1, n, tau, r=0.5, sigma=2.0, noise=Gaussian())
    if sim_id == 2:
        return ScenarioSpec(2, n, tau, r=0.5, sigma=9.67, noise=_CONTAMINATED,
                            noise_divisor=_CONTAMINATED.sd)
    if sim_id == 3:
        return ScenarioSpec(3, n, tau, r=0.95, sigma=9.67, noise=_CONTAMINATED,
                            noise_divisor=_CONTAMINATED.sd)
    if sim_id == 4:
        law = Mixture(((0.9, SkewT(3.0, 3.0)), (0.1, Gaussian(20.0))))
        return ScenarioSpec(4, n, tau, r=0.5, sigma=1.0, noise=law)
    if sim_id == 5:
        return ScenarioSpec(5, n, tau, r=0.5, sigma=2.0, noise=Cauchy())
    if sim_id == 6:
        law = Mixture(((0.8, SkewT(3.0, 3.0)), (0.1, Gaussian(10.0)), (0.1, Cauchy())))
        return ScenarioSpec(6, n, tau, r=0.5, sigma=1.0, noise=law)
    raise ValueError(f"unknown scenario id {sim_id}")


def generate_scenario(spec: ScenarioSpec, gen: np.random.Generator) -> Dataset:
    """Simulate one dataset from TRUE_BETA; design includes the leading intercept column.

    Predictors are built by the AR(1) recursion x_j = r x_{j-1} +
    sqrt(1-r^2) z_j so that corr(x_i, x_j) = r^|i-j| exactly.
    """
    n, k, r = spec.n, TRUE_BETA.size - 1, spec.r
    z = gen.standard_normal((n, k))
    x = np.empty((n, k))
    x[:, 0] = z[:, 0]
    root = math.sqrt(1.0 - r * r)
    for j in range(1, k):
        x[:, j] = r * x[:, j - 1] + root * z[:, j]
    eps = spec.noise.sample(gen, n) / spec.noise_divisor
    design = np.column_stack([np.ones(n), x])
    y = design @ TRUE_BETA + spec.sigma * eps
    return Dataset(design, y)


@dataclass(frozen=True)
class ReplicationResult:
    """Per-replication recovery metrics plus the posterior-eta median."""

    rmse: float
    mad: float
    al: float
    cp: float
    eta_median: float = float("nan")


def metrics(beta_hat, beta_true, intervals) -> ReplicationResult:
    """Coefficient-recovery metrics for one fitted replication.

    rmse = sqrt(mean((bhat - b)^2)); mad = mean(|bhat - b|);
    al = mean interval width; cp = fraction of intervals covering truth.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    intervals = np.asarray(intervals, dtype=float)
    if beta_hat.shape != beta_true.shape or intervals.shape != (beta_hat.size, 2):
        raise ValueError("metric inputs must agree in dimension")
    err = beta_hat - beta_true
    rmse = float(np.sqrt(np.mean(err**2)))
    mad = float(np.mean(np.abs(err)))
    al = float(np.mean(intervals[:, 1] - intervals[:, 0]))
    cp = float(np.mean((beta_true >= intervals[:, 0]) & (beta_true <= intervals[:, 1])))
    return ReplicationResult(rmse=rmse, mad=mad, al=al, cp=cp)


def _fit_metrics(data: Dataset, model: ModelSpec, rng) -> ReplicationResult:
    samples = run_chain(data, model, rng=rng)
    summary = summarize(samples)
    kp1 = TRUE_BETA.size
    beta_hat = np.array([row[1] for row in summary[:kp1]])
    intervals = np.array([[row[2], row[3]] for row in summary[:kp1]])
    base = metrics(beta_hat, TRUE_BETA, intervals)
    return replace(base, eta_median=float(np.median(samples.column("eta"))))


def _one_replication(args):
    scenario, model, master_seed, rep = args
    data_stream = RngStream(master_seed).child(scenario.id, rep, 0)
    chain_stream = RngStream(master_seed).child(scenario.id, rep, 1)
    data = generate_scenario(scenario, data_stream.generator())
    return _fit_metrics(data, model, chain_stream.generator())


def _one_replication_guarded(args):
    try:
        return ("ok", _one_replication(args))
    except Exception as exc:  # recorded, not fatal: the cell tracks failures
        return ("err", f"{type(exc).__name__}: {exc}")


def worker_count(n_tasks: int) -> int:
    """Parallel width: HQREG_THREADS, an integer >= 1, caps the number of
    CPUs this process may run on (``os.sched_getaffinity`` where the
    platform has it, else ``os.cpu_count()``), and 1 runs a study
    serially.  Any other value raises ValueError."""
    if hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    env = os.environ.get("HQREG_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"HQREG_THREADS must be an integer >= 1, got {env!r}")
        cap = min(cap, threads)
    return max(1, min(cap, n_tasks))


@dataclass
class StudyCell:
    """Aggregate of one (scenario, tau, n) cell over replications."""

    scenario_id: int
    tau: float
    n: int
    method: str
    n_replications: int
    failures: tuple  # (replication index, "ErrorClass: message") per failed replication
    rmse_mean: float
    mmad: float
    al_mean: float
    cp_mean: float
    eta_medians: np.ndarray
    complete: bool

    @property
    def n_failures(self) -> int:
        return len(self.failures)


def run_study(scenarios: Sequence[ScenarioSpec], model: ModelSpec,
              n_replications: int, master_seed: int = 0) -> list:
    """Run seeded replications of each scenario and aggregate the metrics.

    Deterministic for a given master seed: every replication owns streams
    derived from (master_seed, scenario id, replication index), and the
    aggregation is ordered by (cell, replication index) regardless of
    scheduling.  All cells share one pool of :func:`worker_count`
    processes, or run in this process when that is 1.
    A cell is marked incomplete when more than 5% of its replications
    fail, and keeps each failed replication's index and error message.

    The headline tables in the source studies average 300 replications;
    that is hours of compute, so desk-scale runs use 20 by default and
    the caller opts in to more.
    """
    if n_replications < 1:
        raise ValueError("need at least one replication")
    # one task per (cell, replication), cell-major; pool.map keeps that order
    tasks = [
        (scen, replace(model, tau=scen.tau), master_seed, rep)
        for scen in scenarios
        for rep in range(n_replications)
    ]
    width = worker_count(len(tasks))
    if width > 1:
        with ProcessPoolExecutor(max_workers=width) as pool:
            outcomes = list(pool.map(_one_replication_guarded, tasks))
    else:
        outcomes = [_one_replication_guarded(task) for task in tasks]
    cells = []
    for i, scen in enumerate(scenarios):
        cell_outcomes = outcomes[i * n_replications:(i + 1) * n_replications]
        done = [res for status, res in cell_outcomes if status == "ok"]
        failed = tuple((rep, res) for rep, (status, res) in enumerate(cell_outcomes)
                       if status == "err")
        cells.append(
            StudyCell(
                scenario_id=scen.id,
                tau=scen.tau,
                n=scen.n,
                method=model.penalty.method,
                n_replications=n_replications,
                failures=failed,
                rmse_mean=float(np.mean([r.rmse for r in done])) if done else float("nan"),
                mmad=float(np.median([r.mad for r in done])) if done else float("nan"),
                al_mean=float(np.mean([r.al for r in done])) if done else float("nan"),
                cp_mean=float(np.mean([r.cp for r in done])) if done else float("nan"),
                eta_medians=np.array([r.eta_median for r in done]),
                complete=len(failed) <= 0.05 * n_replications,
            )
        )
    return cells


# --- hyperparameter sensitivity on the four-logistic curve --------------------


def sensitivity_true_curve(x) -> np.ndarray:
    """Sum of four logistic bumps used as the regression truth."""
    x = np.asarray(x, dtype=float)
    return (
        1.0 / (1.0 + np.exp(-4.0 * (x - 0.3)))
        + 1.0 / (1.0 + np.exp(3.0 * (x - 0.2)))
        + 1.0 / (1.0 + np.exp(-4.0 * (x - 0.7)))
        + 1.0 / (1.0 + np.exp(5.0 * (x - 0.8)))
    )


def sensitivity_design() -> tuple:
    """Design for the sensitivity study: 50 grid points on [-2, 2], four
    logistic features, unit coefficients, no intercept."""
    grid = np.linspace(-2.0, 2.0, 50)
    design = np.column_stack(
        [
            1.0 / (1.0 + np.exp(-4.0 * (grid - 0.3))),
            1.0 / (1.0 + np.exp(3.0 * (grid - 0.2))),
            1.0 / (1.0 + np.exp(-4.0 * (grid - 0.7))),
            1.0 / (1.0 + np.exp(5.0 * (grid - 0.8))),
        ]
    )
    return grid, design


def sensitivity_curve_study(models: Sequence[tuple], master_seed: int = 0,
                            noise_sigma: float = 0.03) -> list:
    """Fit each (label, ModelSpec) on one shared draw of the logistic design.

    The response is the true curve plus asymmetric-Laplace noise at the
    median; every model setting sees the same dataset and reports fitted
    values at the 50 design points.  Returns a list of
    (label, grid, fitted, truth) tuples.
    """
    grid, design = sensitivity_design()
    truth = design @ np.ones(4)
    gen = RngStream(master_seed).child(90).generator()
    y = truth + ald_sample(gen, 0.0, noise_sigma, 0.5, size=grid.size)
    data = Dataset(design, y)
    out = []
    for label, model in models:
        samples = run_chain(data, model, rng=RngStream(master_seed).child(91).generator())
        beta_hat = np.array(
            [row[1] for row in summarize(samples)[: design.shape[1]]]
        )
        out.append((label, grid, design @ beta_hat, truth))
    return out


# --- k-fold cross-validation ---------------------------------------------------


@dataclass(frozen=True)
class CvResult:
    """Prediction-error summary over folds.

    mspe / mape / mhpe are means over folds of fold-mean errors
    (squared, absolute, Huber at delta 1.345); medspe is the median over
    folds of the fold-mean squared error, so it always lies between the
    smallest and largest fold error.
    """

    mspe: float
    mape: float
    mhpe: float
    medspe: float
    fold_sizes: tuple
    fold_mspe: tuple = ()

    def __post_init__(self):
        if min(self.mspe, self.mape, self.mhpe, self.medspe) < 0:
            raise ValueError("prediction errors cannot be negative")
        if self.fold_mspe and not (
            min(self.fold_mspe) <= self.medspe <= max(self.fold_mspe)
        ):
            raise ValueError("median fold error must lie within the fold range")


def _default_fit(train: Dataset, model: ModelSpec, rng) -> np.ndarray:
    samples = run_chain(train, model, rng=rng)
    return np.median(samples.draws[:, : train.k], axis=0)


def check_folds(n: int, folds: int) -> None:
    """Raise ValueError unless n rows split into ``folds`` folds of at least
    2 rows each, as :func:`cross_validate` splits them."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < folds:
        raise ValueError("need n >= folds")
    # np.array_split gives folds of n // folds or n // folds + 1 rows
    if n // folds < 2:
        raise ValueError("fold too small: need at least 2 rows per fold")


def cross_validate(data: Dataset, model: ModelSpec, folds: int = 10, rng=None,
                   fit: Optional[Callable] = None) -> CvResult:
    """Random-partition k-fold CV of held-out prediction error.

    Each fold is predicted by the posterior-median coefficients fitted on
    its complement (or by a caller-supplied ``fit(train, model, rng)``).
    Every row is predicted exactly once.  ``rng`` is an RngStream (by
    default model.seed's child 77): it draws the partition, and fold j
    fits on its child j.
    """
    check_folds(data.n, folds)
    stream = rng if rng is not None else RngStream(model.seed).child(77)
    parts = np.array_split(stream.generator().permutation(data.n), folds)
    fitter = fit if fit is not None else _default_fit

    sq, ab, hu = [], [], []
    for j, test_idx in enumerate(parts):
        mask = np.ones(data.n, dtype=bool)
        mask[test_idx] = False
        train = Dataset(data.X[mask], data.y[mask])
        beta_hat = fitter(train, model, stream.child(j).generator())
        resid = data.y[test_idx] - data.X[test_idx] @ beta_hat
        sq.append(float(np.mean(resid**2)))
        ab.append(float(np.mean(np.abs(resid))))
        hu.append(float(np.mean(huber_loss(resid, 1.345))))
    return CvResult(
        mspe=float(np.mean(sq)),
        mape=float(np.mean(ab)),
        mhpe=float(np.mean(hu)),
        medspe=float(np.median(sq)),
        fold_sizes=tuple(p.size for p in parts),
        fold_mspe=tuple(sq),
    )
