"""Each output check passes a right output and fails a wrong one."""

import numpy as np
import pytest

import checks
from hqreg.sampler import Dataset, ElasticNetHyper, LassoHyper, ModelSpec, run_chain
from workloads import LinearLaw, stream

TALL = LinearLaw(n=2000, k=20, r=0.5, sigma=2.0, tau=0.25)
WIDE = LinearLaw(n=100, k=300, r=0.0, sigma=1.0, tau=0.5)


def posterior_medians(X, y, tau, penalty):
    spec = ModelSpec(tau=tau, penalty=penalty, n_iter=400, burn_in=100, seed=5)
    samples = run_chain(Dataset(X, y), spec)
    return np.median(samples.draws[:, : X.shape[1]], axis=0)


@pytest.fixture(scope="module")
def tall():
    X, y = TALL.sample(stream(101, 1, 0), TALL.n)
    return X, y, checks.quantile_regression_lp(X, y, TALL.tau)


def test_lp_check_passes_a_tau_025_fit(tall):
    X, y, lp = tall
    medians = posterior_medians(X, y, 0.25, ElasticNetHyper())
    assert checks.check_against_lp(X, y, 0.25, TALL.density_at_quantile, medians, lp) == []


def test_lp_check_fails_a_tau_075_fit_scored_as_tau_025(tall):
    X, y, lp = tall
    medians = posterior_medians(X, y, 0.75, ElasticNetHyper())
    problems = checks.check_against_lp(X, y, 0.25, TALL.density_at_quantile, medians, lp)
    assert any("beta_0" in p for p in problems)
    assert any("share of observations" in p for p in problems)


def test_lp_matches_the_true_quantile_function(tall):
    X, _, lp = tall
    se = checks.quantile_regression_se(X, TALL.tau, TALL.density_at_quantile)
    truth = TALL.beta.copy()
    truth[0] = TALL.quantile(np.eye(1, TALL.k + 1))[0]
    assert np.all(np.abs(lp - truth) < 4.0 * se)


@pytest.fixture(scope="module")
def wide():
    gen = stream(102, 2, 0)
    X, y = WIDE.sample(gen, WIDE.n)
    X_test, y_test = WIDE.sample(gen, 4000)
    return X, y, X_test, y_test, WIDE.quantile(X_test)


def test_held_out_check_passes_a_fit(wide):
    X, y, X_test, y_test, q = wide
    medians = posterior_medians(X, y, 0.5, LassoHyper())
    assert checks.check_held_out(medians, X, y, X_test, y_test, q, 0.5) == []


def test_held_out_check_fails_a_fit_to_shuffled_responses(wide):
    X, y, X_test, y_test, q = wide
    shuffled = np.random.default_rng(0).permutation(y)
    medians = posterior_medians(X, shuffled, 0.5, LassoHyper())
    problems = checks.check_held_out(medians, X, y, X_test, y_test, q, 0.5)
    assert any("intercept-only" in p for p in problems)


GOOD_CELLS = {1: [(0.27, 0.92)], 2: [(0.27, 0.95)], 3: [(0.5, 0.97)], 5: [(0.32, 0.95)]}
GOOD_ETAS = {1: [2.9, 3.0], 2: [0.4, 0.5], 3: [0.5, 0.6], 5: [0.2, 0.3]}


def test_study_check_passes_desk_scale_values():
    assert checks.check_study(GOOD_CELLS, GOOD_ETAS) == []


def test_study_check_fails_a_scenario_1_rmse_out_of_band():
    cells = {**GOOD_CELLS, 1: [(0.6, 0.92)]}
    assert checks.check_study(cells, GOOD_ETAS) == [
        "scenario 1: mean rmse 0.6000 outside [0.150, 0.450]"]


def test_study_check_fails_low_coverage():
    # intervals of a tau = 0.75 fit scored against the median truth miss the intercept
    cells = {**GOOD_CELLS, 5: [(0.32, 0.80)]}
    assert len(checks.check_study(cells, GOOD_ETAS)) == 1


def test_study_check_fails_when_heavy_tails_do_not_lower_eta():
    etas = {**GOOD_ETAS, 5: [3.5, 4.0]}
    assert checks.check_study(GOOD_CELLS, etas) == [
        "scenario 5: median eta 3.7500 is not below the Gaussian cell's 2.9500"]
