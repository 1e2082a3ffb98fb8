"""Checks of hqreg's outputs against computations made apart from it.

Nothing here imports hqreg: every reference value comes from numpy and
scipy on the same inputs the program was given, or from the law those
inputs were drawn from.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, sparse

# A posterior median may sit this many asymptotic standard errors from the
# linear-programming quantile regression on the same data.  The two are
# different estimators of one quantity, so their gap is a fraction of the
# sampling error (at most 0.83 SE on the tall design at eight unused seeds).
LP_GAP_SE = 1.5

# The share of observations below a fitted tau-quantile surface may miss tau
# by this many binomial standard errors.
SHARE_SD = 4.0

# Held-out check loss of the fit relative to the intercept-only fit and to
# the true quantile function (0.35-0.43 and 1.37-1.69 at eight unused seeds).
WIDE_VS_CONSTANT = 0.75
WIDE_VS_TRUTH = 2.5


def check_loss(u, tau: float) -> np.ndarray:
    """rho_tau(u) = u (tau - 1{u < 0})."""
    u = np.asarray(u, dtype=float)
    return u * (tau - (u < 0.0))


def quantile_regression_lp(X, y, tau: float) -> np.ndarray:
    """Koenker-Bassett regression quantile as a linear programme (HiGHS).

    min tau 1'u + (1 - tau) 1'w  s.t.  X b + u - w = y,  u, w >= 0.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    eye = sparse.identity(n, format="csr")
    a_eq = sparse.hstack([sparse.csr_matrix(X), eye, -eye], format="csr")
    cost = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = optimize.linprog(cost, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"quantile-regression LP did not solve: {res.message}")
    return res.x[:p]


def quantile_regression_se(X, tau: float, density_at_quantile: float) -> np.ndarray:
    """Asymptotic standard errors of the regression quantile under iid noise:
    sqrt(tau (1 - tau)) / f(q_tau) * sqrt(diag((X'X)^-1))."""
    X = np.asarray(X, dtype=float)
    scale = math.sqrt(tau * (1.0 - tau)) / density_at_quantile
    return scale * np.sqrt(np.diag(np.linalg.inv(X.T @ X)))


def check_against_lp(X, y, tau: float, density_at_quantile: float, medians,
                     lp_beta=None) -> list:
    """Posterior medians against the LP regression quantile, and the share of
    observations below the posterior-median surface against tau."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if lp_beta is None:
        lp_beta = quantile_regression_lp(X, y, tau)
    se = quantile_regression_se(X, tau, density_at_quantile)
    problems = []
    gap = np.abs(medians - lp_beta) / se
    worst = int(np.argmax(gap))
    if not gap[worst] <= LP_GAP_SE:
        problems.append(
            f"beta_{worst}: posterior median {medians[worst]:.4f} is {gap[worst]:.2f} SE "
            f"from the LP regression quantile {lp_beta[worst]:.4f} (limit {LP_GAP_SE} SE)"
        )
    n = y.size
    share = float(np.mean(y < X @ medians))
    limit = SHARE_SD * math.sqrt(tau * (1.0 - tau) / n)
    if not abs(share - tau) <= limit:
        problems.append(
            f"share of observations below the fitted surface is {share:.4f}, "
            f"tau is {tau} (limit +-{limit:.4f})"
        )
    return problems


def check_held_out(medians, X_train, y_train, X_test, y_test, true_quantile,
                   tau: float) -> list:
    """Held-out check loss of the posterior-median fit against the
    intercept-only fit (the training tau-quantile) and the true quantile
    function."""
    fit = float(np.mean(check_loss(y_test - X_test @ np.asarray(medians), tau)))
    constant = float(np.mean(check_loss(y_test - np.quantile(y_train, tau), tau)))
    truth = float(np.mean(check_loss(y_test - true_quantile, tau)))
    problems = []
    if not fit <= WIDE_VS_CONSTANT * constant:
        problems.append(
            f"held-out check loss {fit:.4f} is not below {WIDE_VS_CONSTANT} x the "
            f"intercept-only loss {constant:.4f}"
        )
    if not fit <= WIDE_VS_TRUTH * truth:
        problems.append(
            f"held-out check loss {fit:.4f} exceeds {WIDE_VS_TRUTH} x the loss of "
            f"the true quantile function {truth:.4f}"
        )
    return problems


def check_draws(draws, columns, rows: int) -> list:
    """Shape and support of a samples.csv body."""
    draws = np.asarray(draws, dtype=float)
    problems = []
    if draws.shape[0] != rows:
        problems.append(f"{draws.shape[0]} retained draws, expected {rows}")
    if not np.all(np.isfinite(draws)):
        problems.append("non-finite draws")
    for name in ("rho2", "eta"):
        if name not in columns:
            problems.append(f"no {name} column")
        elif not np.all(draws[:, columns.index(name)] > 0):
            problems.append(f"non-positive {name} draws")
    return problems


# --- simulation study ------------------------------------------------------

# Bands on the run's mean RMSE and coverage of each scenario cell.
# Scenario 1 (Gaussian noise, sigma 2) uses the desk-scale bands of the
# package's acceptance criterion 6.  The other cells have no published
# target here, so their RMSE band is set by the asymptotic RMSE of
# unpenalised median regression on the same design and noise law
# (rmse_lad below): a shrinkage fit should not be far worse than it, and
# cannot be better than a small fraction of it.  Coverage of 95% intervals
# over 21 coefficients, 15 of them zero, stays high in every cell.
STUDY_BANDS = {
    1: {"rmse": (0.15, 0.45), "cp": (0.85, 0.98)},
}
RMSE_VS_LAD = (0.25, 1.5)
CP_BAND = (0.85, 1.0)

# Density at 0 of each scenario's noise, in units of the noise as added to
# the response (scale sigma, standardised where the scenario says so).
_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
_CONTAMINATED_SD = math.sqrt(0.9 + 0.1 * 15.0**2)
NOISE_DENSITY_AT_ZERO = {
    1: _PHI0 / 2.0,
    2: (0.9 * _PHI0 + 0.1 * _PHI0 / 15.0) * _CONTAMINATED_SD / 9.67,
    3: (0.9 * _PHI0 + 0.1 * _PHI0 / 15.0) * _CONTAMINATED_SD / 9.67,
    5: 1.0 / (math.pi * 2.0),
}
SCENARIO_CORRELATION = {1: 0.5, 2: 0.5, 3: 0.95, 5: 0.5}
HEAVY_TAILED = (2, 3, 5)


def rmse_lad(scenario: int, n: int = 100, k: int = 20) -> float:
    """Asymptotic RMSE over the k + 1 coefficients of median regression:
    sqrt(mean diag(Cov)), Cov = 1 / (4 f(0)^2) (n E[x x'])^-1, with the
    AR(1) design's population second-moment matrix."""
    r = SCENARIO_CORRELATION[scenario]
    lags = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    second = np.eye(k + 1)
    second[1:, 1:] = r ** lags
    cov = np.linalg.inv(second) / (n * 4.0 * NOISE_DENSITY_AT_ZERO[scenario] ** 2)
    return float(np.sqrt(np.mean(np.diag(cov))))


def study_bands(scenario: int) -> dict:
    if scenario in STUDY_BANDS:
        return STUDY_BANDS[scenario]
    lad = rmse_lad(scenario)
    return {"rmse": (RMSE_VS_LAD[0] * lad, RMSE_VS_LAD[1] * lad), "cp": CP_BAND}


def check_study(cells: dict, eta_medians: dict) -> list:
    """cells: scenario -> list of (rmse, cp), one per replication-averaged
    table row; eta_medians: scenario -> every replication's posterior eta
    median.  Means are taken over the rows given."""
    problems = []
    for scenario, rows in sorted(cells.items()):
        bands = study_bands(scenario)
        for i, metric in enumerate(("rmse", "cp")):
            value = float(np.mean([row[i] for row in rows]))
            lo, hi = bands[metric]
            if not lo <= value <= hi:
                problems.append(
                    f"scenario {scenario}: mean {metric} {value:.4f} outside [{lo:.3f}, {hi:.3f}]"
                )
    if 1 in eta_medians:
        gaussian = float(np.median(eta_medians[1]))
        for scenario in HEAVY_TAILED:
            if scenario in eta_medians:
                heavy = float(np.median(eta_medians[scenario]))
                if not heavy < gaussian:
                    problems.append(
                        f"scenario {scenario}: median eta {heavy:.4f} is not below the "
                        f"Gaussian cell's {gaussian:.4f}"
                    )
    return problems
