"""Scenario generators, replication metrics, and the benchmark harnesses.

Six regression scenarios share one design: AR(1)-correlated standard
normal predictors, a sparse coefficient vector with intercept, and a
scenario-specific noise law (Gaussian, standardised contaminated normal,
skewed t mixtures, Cauchy).  Three harnesses fit them: the study runs
seeded replications in parallel and aggregates coefficient-recovery
metrics, the sensitivity study fits the four-logistic curve under each
hyperparameter setting, and cross-validation scores held-out prediction
error under squared, absolute and Huber losses.  Each harness takes its
seed from the ``ModelSpec`` it is given and reduces a chain with
:func:`summarize`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

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
    r: float
    sigma: float
    noise: NoiseLaw
    noise_divisor: float = 1.0

    def __post_init__(self):
        if not (abs(self.r) < 1.0):
            raise ValueError("need |r| < 1")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.sigma <= 0 or self.noise_divisor <= 0:
            raise ValueError("need sigma > 0, noise_divisor > 0")


def scenario_by_id(sim_id: int, n: int = 100) -> ScenarioSpec:
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
        return ScenarioSpec(1, n, r=0.5, sigma=2.0, noise=Gaussian())
    if sim_id == 2:
        return ScenarioSpec(2, n, r=0.5, sigma=9.67, noise=_CONTAMINATED,
                            noise_divisor=_CONTAMINATED.sd)
    if sim_id == 3:
        return ScenarioSpec(3, n, r=0.95, sigma=9.67, noise=_CONTAMINATED,
                            noise_divisor=_CONTAMINATED.sd)
    if sim_id == 4:
        law = Mixture(((0.9, SkewT(3.0, 3.0)), (0.1, Gaussian(20.0))))
        return ScenarioSpec(4, n, r=0.5, sigma=1.0, noise=law)
    if sim_id == 5:
        return ScenarioSpec(5, n, r=0.5, sigma=2.0, noise=Cauchy())
    if sim_id == 6:
        law = Mixture(((0.8, SkewT(3.0, 3.0)), (0.1, Gaussian(10.0)), (0.1, Cauchy())))
        return ScenarioSpec(6, n, r=0.5, sigma=1.0, noise=law)
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
    median, lower, upper = summarize(samples)
    kp1 = TRUE_BETA.size
    base = metrics(median[:kp1], TRUE_BETA, np.column_stack([lower[:kp1], upper[:kp1]]))
    return replace(base, eta_median=float(median[samples.columns.index("eta")]))


def _one_replication(args):
    scenario, model, rep = args
    stream = RngStream(model.seed).child(scenario.id, rep)
    data = generate_scenario(scenario, stream.child(0).generator())
    return _fit_metrics(data, model, stream.child(1).generator())


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
    """Aggregate of one (scenario, model) cell over replications."""

    scenario_id: int
    tau: float
    n: int
    method: str
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


def run_study(cells: Sequence[tuple], n_replications: int) -> list:
    """Run seeded replications of each (ScenarioSpec, ModelSpec) cell and
    aggregate the metrics.

    Deterministic for the cells' seeds: replication ``rep`` of a cell
    draws its data from ``RngStream(model.seed).child(scenario.id, rep, 0)``
    and its chain from ``.child(scenario.id, rep, 1)``, so cells that
    share a scenario and a seed share their datasets, and the aggregation
    is ordered by (cell, replication index) regardless of scheduling.
    Each cell fits its model, at the model's tau and penalty family.  All
    cells share one pool of :func:`worker_count` processes, or run in
    this process when that is 1.  A cell is marked incomplete when more
    than 5% of its replications fail, and keeps each failed replication's
    index and error message.

    The headline tables in the source studies average 300 replications;
    that is hours of compute, so desk-scale runs use 20 by default and
    the caller opts in to more.
    """
    if n_replications < 1:
        raise ValueError("need at least one replication")
    # one task per (cell, replication), cell-major; pool.map keeps that order
    tasks = [(scen, model, rep) for scen, model in cells for rep in range(n_replications)]
    width = worker_count(len(tasks))
    if width > 1:
        with ProcessPoolExecutor(max_workers=width) as pool:
            outcomes = list(pool.map(_one_replication_guarded, tasks))
    else:
        outcomes = [_one_replication_guarded(task) for task in tasks]
    study = []
    for i, (scen, model) in enumerate(cells):
        cell_outcomes = outcomes[i * n_replications:(i + 1) * n_replications]
        done = [res for status, res in cell_outcomes if status == "ok"]
        failed = tuple((rep, res) for rep, (status, res) in enumerate(cell_outcomes)
                       if status == "err")
        study.append(
            StudyCell(
                scenario_id=scen.id,
                tau=model.tau,
                n=scen.n,
                method=model.penalty.method,
                failures=failed,
                rmse_mean=float(np.mean([r.rmse for r in done])) if done else float("nan"),
                mmad=float(np.median([r.mad for r in done])) if done else float("nan"),
                al_mean=float(np.mean([r.al for r in done])) if done else float("nan"),
                cp_mean=float(np.mean([r.cp for r in done])) if done else float("nan"),
                eta_medians=np.array([r.eta_median for r in done]),
                complete=len(failed) <= 0.05 * n_replications,
            )
        )
    return study


# --- hyperparameter sensitivity on the four-logistic curve --------------------


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


def sensitivity_curve_study(models: Sequence[tuple]) -> list:
    """Fit each (label, ModelSpec) on a draw of the logistic design.

    The response is the true curve plus asymmetric-Laplace noise at the
    median with scale 0.03, the paper's fixture, drawn from
    ``RngStream(model.seed).child(90)``; the chain draws from
    ``.child(91)``.  Settings that share a seed therefore share one
    dataset, bit for bit.  Each reports its posterior-median
    fitted values at the 50 design points.  Returns a list of
    (label, grid, fitted, truth) tuples.
    """
    grid, design = sensitivity_design()
    truth = design @ np.ones(4)
    out = []
    for label, model in models:
        stream = RngStream(model.seed)
        y = truth + ald_sample(stream.child(90).generator(), 0.0, 0.03, 0.5, size=grid.size)
        samples = run_chain(Dataset(design, y), model, rng=stream.child(91).generator())
        median, _, _ = summarize(samples)
        out.append((label, grid, design @ median[: design.shape[1]], truth))
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


def _default_fit(train: Dataset, model: ModelSpec, rng) -> np.ndarray:
    median, _, _ = summarize(run_chain(train, model, rng=rng))
    return median[: train.k]


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


def cross_validate(data: Dataset, model: ModelSpec, folds: int = 10) -> CvResult:
    """Random-partition k-fold CV of held-out prediction error.

    Each fold is predicted by the posterior-median coefficients fitted on
    its complement, so every row is predicted exactly once.  The stream
    ``RngStream(model.seed).child(77)`` draws the partition, and fold j's
    chain draws from its child j.
    """
    check_folds(data.n, folds)
    stream = RngStream(model.seed).child(77)
    parts = np.array_split(stream.generator().permutation(data.n), folds)

    sq, ab, hu = [], [], []
    for j, test_idx in enumerate(parts):
        mask = np.ones(data.n, dtype=bool)
        mask[test_idx] = False
        train = Dataset(data.X[mask], data.y[mask])
        beta_hat = _default_fit(train, model, stream.child(j).generator())
        resid = data.y[test_idx] - data.X[test_idx] @ beta_hat
        sq.append(float(np.mean(resid**2)))
        ab.append(float(np.mean(np.abs(resid))))
        hu.append(float(np.mean(huber_loss(resid, 1.345))))
    return CvResult(
        mspe=float(np.mean(sq)),
        mape=float(np.mean(ab)),
        mhpe=float(np.mean(hu)),
        medspe=float(np.median(sq)),
    )
