"""Bulk ESS against AR(1) chains, whose ESS is n (1 - phi) / (1 + phi)."""

import numpy as np
import pytest

from ess import bulk_ess


def ar1(phi, chains, n, seed):
    gen = np.random.default_rng(seed)
    noise = gen.standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = noise[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi", [-0.3, 0.0, 0.5, 0.9])
def test_matches_ar1_closed_form(phi):
    chains, n = 4, 20000
    expected = chains * n * (1.0 - phi) / (1.0 + phi)
    got = bulk_ess(ar1(phi, chains, n, seed=11))
    assert got == pytest.approx(expected, rel=0.1)


def test_rank_normalisation_ignores_monotone_transforms():
    x = ar1(0.7, 2, 2000, seed=3)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_chains_that_disagree_have_few_effective_draws():
    x = ar1(0.5, 4, 2000, seed=5)
    x[2:] += 3.0
    assert bulk_ess(x) < 0.05 * bulk_ess(ar1(0.5, 4, 2000, seed=5))


def test_single_chain_is_split():
    x = ar1(0.5, 1, 2000, seed=7)
    trend = x + np.linspace(0.0, 6.0, 2000)
    assert bulk_ess(trend) < 0.2 * bulk_ess(x)
