"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line with the measured quantity next to its tolerance.

Stochastic criteria run on fixed streams, so every run is a repeat of the
same deterministic computation.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from hqreg.cli import main as cli_main
from hqreg.loss_density import (
    LossParams,
    PosteriorGridSpec,
    asym_density,
    asym_loss,
    check_loss,
    count_strict_local_maxima,
    log_posterior_grid,
    scale_mixture_density,
)
from hqreg.randist import RngStream, ald_sample, gig_moment, gig_rvs
from hqreg.sampler import (
    ChainHealth,
    Dataset,
    ElasticNetHyper,
    LassoHyper,
    ModelSpec,
    mh_update_lambda3_tilde,
    refine_eta_gamma_params,
    run_chain,
    update_eta_approx,
)
from hqreg.simbench import cross_validate, run_study, scenario_by_id
from hqreg.specfun import log_upper_gamma_half


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_quantile_property():
    t0 = time.perf_counter()
    worst = 0.0
    for eta in (0.3, 1.0, 3.0):
        for rho2 in (0.5, 1.0, 2.0):
            for tau in (0.1, 0.5, 0.9):
                p = LossParams(eta=eta, rho2=rho2, tau=tau)
                mass, _ = quad(lambda t: asym_density(t, 0.0, p), -np.inf, 0.0,
                               epsabs=1e-13, epsrel=1e-13, limit=500)
                worst = max(worst, abs(mass - tau))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-8 and elapsed < 10.0,
           f"max |CDF(mu) - tau| = {worst:.2e} (tol 1e-8) over 27 lattice points "
           f"in {elapsed:.1f}s (budget 10s)")


def test_criterion_02_scale_mixture_equivalence():
    t0 = time.perf_counter()
    xs = np.linspace(-5.0, 5.0, 21)
    worst = 0.0
    for tau in (0.25, 0.5, 0.75):
        p = LossParams(eta=1.0, rho2=1.0, tau=tau)
        for x in xs:
            mix = scale_mixture_density(float(x), 0.0, p)
            ref = asym_density(float(x), 0.0, p)
            worst = max(worst, abs(mix - ref) / ref)
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-4 and elapsed < 60.0,
           f"max relative gap mixture vs closed form = {worst:.2e} (tol 1e-4) "
           f"on 21 x 3 grid in {elapsed:.1f}s (budget 60s)")


def test_criterion_03_loss_bridging_limits():
    worst = 0.0
    for tau in (0.1, 0.5, 0.9):
        for x in (-2.0, -0.5, 0.5, 2.0):
            target = float(check_loss(x, tau))
            for z2, expect in ((1e8, target), (1e-8, math.sqrt(target))):
                rz = math.sqrt(z2)
                eta = rz * (rz + math.sqrt(z2 + 1.0))
                rho2 = rz / (rz + math.sqrt(z2 + 1.0))
                got = float(asym_loss(x, LossParams(eta, rho2, tau)))
                worst = max(worst, abs(got - expect) / expect)
    report(3, worst < 1e-3,
           f"max relative gap to check-loss limits = {worst:.2e} (tol 1e-3)")


def test_criterion_04_gig_moment_tests():
    t0 = time.perf_counter()
    fixtures = [
        (-0.5, 1.0, 1.0),
        (0.5, 2.0, 0.7),
        (0.5, 0.02, 40.0),
        (1.0, 2.0, 3.0),
        (-21.0, 5.0, 2.0),   # the -(n + k/2) regime at n = 20, k = 2
        (-21.0, 0.5, 10.0),
    ]
    worst = 0.0
    for i, (nu, c, d) in enumerate(fixtures):
        x = gig_rvs(RngStream(9003, (i,)).generator(), nu, np.full(1_000_000, c),
                    np.full(1_000_000, d))
        for order in (1.0, -1.0):
            mean = gig_moment(nu, c, d, order)
            var = gig_moment(nu, c, d, 2 * order) - mean**2
            z = abs(np.mean(x**order) - mean) / math.sqrt(var / x.size)
            worst = max(worst, z)
    elapsed = time.perf_counter() - t0
    report(4, worst < 3.0 and elapsed < 60.0,
           f"max |z| over 6 fixtures x (mean, mean-reciprocal) = {worst:.2f} "
           f"(tol 3 SE at 1e6 draws) in {elapsed:.1f}s (budget 60s)")


def _contour_toy():
    gen = RngStream(36).generator()
    x = gen.standard_normal(10)
    y = x + ald_sample(gen, 0.0, 0.03, 0.5, size=10)
    return x, y


def test_criterion_05_multimodality_demonstration():
    t0 = time.perf_counter()
    x, y = _contour_toy()
    bgrid = np.exp(np.linspace(-3.0, 2.0, 200))
    rgrid = np.exp(np.linspace(-9.0, 1.0, 200))
    counts = {}
    for label, pen, style in [
        # lambda1 = 1; lambda3 = 2 sqrt(lambda3_tilde lambda4) = 1, lambda4 = 1
        ("lasso-unconditional", LassoHyper.Rates(1.0), "unconditional"),
        ("lasso-conditional", LassoHyper.Rates(1.0), "conditional"),
        ("en-unconditional", ElasticNetHyper.Rates(0.25, 1.0), "unconditional"),
        ("en-conditional", ElasticNetHyper.Rates(0.25, 1.0), "conditional"),
    ]:
        z = log_posterior_grid(PosteriorGridSpec(bgrid, rgrid, x, y, pen, style, 1.0, 0.5))
        counts[label] = count_strict_local_maxima(z)
    elapsed = time.perf_counter() - t0
    ok = (
        counts["lasso-unconditional"] >= 2
        and counts["en-unconditional"] >= 2
        and counts["lasso-conditional"] == 1
        and counts["en-conditional"] == 1
        and elapsed < 30.0
    )
    report(5, ok, f"strict local maxima {counts} "
                  f"(need unconditional >= 2, conditional == 1) in {elapsed:.1f}s (budget 30s)")


def test_criterion_06_simulation1_desk_scale():
    t0 = time.perf_counter()
    cells = run_study([(scenario_by_id(1, n=100),
                        ModelSpec(tau=0.5, n_iter=2500, burn_in=500, seed=1))],
                      n_replications=20)
    cell = cells[0]
    elapsed = time.perf_counter() - t0
    ok = (
        0.15 <= cell.rmse_mean <= 0.45
        and 0.85 <= cell.cp_mean <= 0.98
        and cell.complete
        and elapsed < 1200.0
    )
    report(6, ok,
           f"mean RMSE = {cell.rmse_mean:.4f} (band [0.15, 0.45], headline 0.2659), "
           f"mean CP = {cell.cp_mean:.4f} (band [0.85, 0.98], headline 0.9211), "
           f"20 reps in {elapsed:.0f}s (budget 1200s)")


def test_criterion_07_eta_adaptivity():
    model = ModelSpec(tau=0.5, n_iter=2500, burn_in=500, seed=1)
    cells = run_study(
        [(scenario_by_id(1, n=100), model), (scenario_by_id(5, n=100), model)],
        n_replications=20,
    )
    eta_gauss = cells[0].eta_medians
    eta_cauchy = cells[1].eta_medians
    test = stats.mannwhitneyu(eta_cauchy, eta_gauss, alternative="less")
    report(7, test.pvalue < 0.05,
           f"one-sided Mann-Whitney p = {test.pvalue:.2e} (tol 0.05); "
           f"median eta heavy-tail {np.median(eta_cauchy):.3f} vs gaussian {np.median(eta_gauss):.3f}")


def test_criterion_08_quantile_level_ordering():
    from hqreg.simbench import generate_scenario

    data = generate_scenario(scenario_by_id(1, n=100),
                             RngStream(1).child(1, 0, 0).generator())
    intercepts = []
    for tau in (0.25, 0.5, 0.75):
        samples = run_chain(data, ModelSpec(tau=tau, n_iter=2500, burn_in=500, seed=77))
        intercepts.append(float(np.median(samples.draws[:, samples.columns.index("beta_0")])))
    ok = intercepts[0] <= intercepts[1] <= intercepts[2]
    report(8, ok, f"posterior-median intercepts at tau 0.25/0.5/0.75 = "
                  f"{[round(b, 3) for b in intercepts]} (nondecreasing)")


def test_criterion_09_mh_long_run_marginal(chain_state):
    # the state holds u = t - 1 = (0.5, 0.5); the target below is written in t
    sum_t, a1, b1, k = 3.0, 1.0, 1.0, 2
    data = Dataset(np.ones((1, 2)), np.zeros(1))
    spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper(a1=a1, b1=b1))
    state = chain_state(
        ElasticNetHyper, beta=np.zeros(2), v=np.ones(1), sigma=np.ones(1), rho2=1.0, eta=1.0,
        latent=np.array([0.5, 0.5]), lambda3_tilde=1.0, lambda4=1.0,
    )
    gen = RngStream(9100).generator()
    n_steps = 100_000
    draws = np.empty(n_steps)
    for i in range(n_steps):
        draws[i] = mh_update_lambda3_tilde(state, data, spec, gen, ChainHealth())
        state.rates = state.rates._replace(lambda3_tilde=draws[i])

    def target(lam):
        return math.exp(
            -k * log_upper_gamma_half(lam)
            + (k / 2 + a1 - 1) * math.log(lam)
            - (sum_t + b1) * lam
        )

    grid = np.linspace(1e-9, max(draws.max() * 1.2, 10.0), 4001)
    pdf = np.array([target(g) for g in grid])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    draws_sorted = np.sort(draws)
    theo = np.interp(draws_sorted, grid, cdf)
    emp_hi = np.arange(1, n_steps + 1) / n_steps
    emp_lo = np.arange(0, n_steps) / n_steps
    ks = max(np.max(np.abs(theo - emp_hi)), np.max(np.abs(theo - emp_lo)))
    report(9, ks < 0.01,
           f"KS statistic vs quadrature-normalised target = {ks:.4f} (tol 0.01) "
           f"at {n_steps} steps")


def test_criterion_10_eta_approximation_step(chain_state):
    # no data: the update must draw exactly from the Gamma(a, b) prior
    a, b = 2.0, 3.0
    from hqreg.sampler import LassoHyper

    spec = ModelSpec(tau=0.5, penalty=LassoHyper(c=a, d=b))
    state = chain_state(LassoHyper, beta=np.zeros(1), v=np.zeros(0), sigma=np.zeros(0),
                        rho2=1.0, eta=1.0, latent=np.ones(1), lambda1_sq=1.0)
    gen = RngStream(9200).generator()
    draws = np.array([update_eta_approx(state, spec, gen, ChainHealth())
                      for _ in range(100_000)])
    mean, second = a / b, a * (a + 1) / b**2
    z1 = abs(draws.mean() - mean) / math.sqrt((a / b**2) / draws.size)
    var2 = a * (a + 1) * (a + 2) * (a + 3) / b**4 - second**2
    z2 = abs(np.mean(draws**2) - second) / math.sqrt(var2 / draws.size)

    gen2 = RngStream(70).generator()
    sigma = gig_rvs(gen2, 1.0, np.full(20, 1.0), np.full(20, 1.0))
    s_sum = 0.5 * float(np.sum(sigma + 1.0 / sigma))
    _, _, gaps = refine_eta_gamma_params(1.0, 1.0, s_sum, 20, 1.0)
    monotone = len(gaps) >= 2 and all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    ok = z1 < 3.0 and z2 < 3.0 and monotone
    report(10, ok,
           f"no-data draw moments z = ({z1:.2f}, {z2:.2f}) vs Gamma({a:g},{b:g}) "
           f"(tol 3 SE at 1e5); refinement gaps {['%.1e' % g for g in gaps]} strictly decreasing")


def test_criterion_11_cv_harness(pin_rate, monkeypatch):
    import hqreg.simbench as sb

    gen = RngStream(8).generator()
    n, k = 50, 3
    X = np.column_stack([np.ones(n), gen.standard_normal((n, k - 1))])
    y = X @ np.array([0.7, 1.5, -2.0])
    data = Dataset(X, y)
    pin_rate(LassoHyper, 1e-10)
    model = ModelSpec(tau=0.5, penalty=LassoHyper(), n_iter=400, burn_in=100, seed=5)
    res = cross_validate(data, model, folds=10)
    worst = max(res.mspe, res.mape, res.mhpe, res.medspe)

    # fold cover: disjoint partition, every row predicted exactly once
    counts = np.zeros(n, dtype=int)

    def counting_fit(train, spec, rng):
        mask = np.ones(n, dtype=bool)
        for i in range(n):
            # rows absent from the training set are this fold's test rows
            mask[i] = any(np.array_equal(data.X[i], row) for row in train.X)
        counts[~mask] += 1
        return np.zeros(train.k)

    monkeypatch.setattr(sb, "_default_fit", counting_fit)
    cross_validate(data, model, folds=10)
    partition_ok = np.all(counts == 1)
    ok = worst < 1e-6 and partition_ok
    report(11, ok,
           f"perfect-linear max(MSPE, MAPE, MHPE, MedSPE) = {worst:.2e} (tol 1e-6); "
           f"fold cover exact disjoint partition = {bool(partition_ok)}")


def test_criterion_12_manifest_determinism(tmp_path):
    import csv as _csv

    gen = np.random.default_rng(3)
    Xy = np.column_stack([gen.standard_normal((25, 2)),
                          gen.standard_normal(25)])
    input_csv = tmp_path / "data.csv"
    with open(input_csv, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["x1", "x2", "y"])
        w.writerows(Xy.tolist())

    jobs = {
        "fit": ["fit", "--input", input_csv, "--iters", "80", "--burnin", "20"],
        "cv": ["cv", "--input", input_csv, "--iters", "60", "--burnin", "10", "--folds", "5"],
        "simulate": ["simulate", "--iters", "80", "--burnin", "20", "--reps", "2"],
        "sensitivity": ["sensitivity", "--iters", "100", "--burnin", "25"],
        "contour": ["contour"],
    }
    failures = []
    for name, args in jobs.items():
        out1 = tmp_path / f"{name}-a"
        out2 = tmp_path / f"{name}-b"
        extra = []
        if name == "simulate":
            cfg = tmp_path / "sim.cfg"
            cfg.write_text("scenarios=1\nn=25\n")
            extra = ["--config", cfg]
        code = cli_main([str(a) for a in args + extra + ["--out", out1, "--seed", "6"]])
        assert code == 0, name
        code = cli_main(["fit" if False else name, "--config", str(out1 / "manifest.txt"),
                         "--out", str(out2)])
        assert code == 0, name
        for produced in sorted(out1.iterdir()):
            if produced.name == "manifest.txt":
                continue
            if (out2 / produced.name).read_bytes() != produced.read_bytes():
                failures.append(f"{name}/{produced.name}")
    report(12, not failures,
           "all five subcommands byte-identical when re-run from their manifests"
           + (f"; mismatches: {failures}" if failures else ""))
