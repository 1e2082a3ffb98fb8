"""Rank-normalised bulk effective sample size.

Built from the definition in Vehtari, Gelman, Simpson, Carpenter &
Buerkner (2021, Bayesian Analysis, "Rank-normalization, folding, and
localization"): split every chain in half, replace the pooled draws by
the normal scores of their ranks, and estimate the integrated
autocorrelation time from the multi-chain autocorrelations, truncated by
Geyer's initial positive sequence and made monotone by his initial
monotone sequence.
"""

from __future__ import annotations

import numpy as np
from scipy import special, stats


def _split(chains: np.ndarray) -> np.ndarray:
    """(m, n) draws -> (2m, n // 2) half-chains; a middle draw of an odd n is dropped."""
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, -half:]], axis=0)


def _rank_normalise(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled average ranks, offset (r - 3/8) / (S + 1/4)."""
    size = chains.size
    ranks = stats.rankdata(chains, method="average").reshape(chains.shape)
    return special.ndtri((ranks - 0.375) / (size + 0.25))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) autocovariance of each row, all lags, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def ess(chains: np.ndarray) -> float:
    """Effective sample size of (m, n) draws, m chains of n draws each.

    No splitting or rank transform: the chains are taken as given.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2 or chains.shape[1] < 4:
        raise ValueError("need an (m, n) array with n >= 4")
    m, n = chains.shape
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer's initial positive sequence: keep pairs rho[2t] + rho[2t+1] while
    # their sum is positive ...
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0)
    pairs = pairs[: negative[0] if negative.size else pairs.size]
    # ... and the initial monotone sequence: no pair sum exceeds an earlier one
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(chains) -> float:
    """Rank-normalised split-chain bulk ESS of (m, n) draws."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    return ess(_rank_normalise(_split(chains)))
