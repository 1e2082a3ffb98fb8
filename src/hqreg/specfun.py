"""Scalar special functions shared by the samplers and density kernels.

Everything here wraps or combines the exponentially scaled Bessel routines
from scipy.special so that ratios and logarithms stay finite across the
full argument range the Gibbs updates visit (roughly 1e-6 .. 1e6).
``log_k1`` and ``log_upper_gamma_half`` take the float that the chain
passes them, and ``log_k1_derivs`` the float of its only caller,
``sampler.refine_eta_gamma_params``, which the scan no longer runs (an
int works too); ``log_bessel_k`` also takes arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "log_bessel_k",
    "log_k1",
    "log_k1_derivs",
    "log_k1_deriv",
    "log_k1_deriv2",
    "log_upper_gamma_half",
]


def log_bessel_k(nu, x):
    """log K_nu(x), finite for arbitrarily large x (no underflow)."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise ValueError("x must be finite and > 0")
    nu = np.asarray(nu, dtype=float)
    out = np.log(_sp.kve(nu, x)) - x
    if out.ndim == 0:
        return float(out)
    return out


def log_k1(x):
    """log K_1(x) for one float x > 0, the normaliser that the chain's eta
    steps evaluate at its mixing index 1; one call of the order-1 scaled
    Bessel function ``k1e``, several times faster than ``kve`` at one
    point."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be finite and > 0")
    return math.log(_sp.k1e(x)) - x


_K_ORDERS_0_TO_3 = np.arange(4.0)


def log_k1_derivs(eta):
    """First and second derivatives of log K_1 at eta, as a pair.

    K_1 is K_lambda at the chain's GIG mixing index lambda = 1
    (``loss_density.CHAIN_MIXING_INDEX``); these forms serve that index
    only.  One ``kve`` call on orders 0..3.  The derivative recurrence
    K_nu' = -(K_{nu-1} + K_{nu+1}) / 2 gives K_1'' = (3 K_1 + K_3) / 4, so

        (log K_1)'  = -(K_0 + K_2) / (2 K_1),
        (log K_1)'' = (3 + K_3/K_1) / 4 - ((K_0 + K_2) / (2 K_1))^2.

    The first is always negative (K_1 is decreasing); the second is
    positive for every eta > 0 (log-convexity of K_nu).  Evaluated
    through scaled Bessel ratios so the exp(-eta) factors cancel exactly.
    Its only caller is ``sampler.refine_eta_gamma_params``, the
    fixed-point refinement of the approximate eta step, which relies on
    that sign; the scan no longer runs that step, and both stay for the
    benchmark's tracer, which wraps them by name (ROADMAP item 14).
    """
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be finite and > 0")
    k0, k1, k2, k3 = _sp.kve(_K_ORDERS_0_TO_3, eta).tolist()
    first = (k0 + k2) / (2.0 * k1)
    return -first, (3.0 + k3 / k1) / 4.0 - first * first


def log_k1_deriv(eta):
    """First derivative of log K_1 at eta; see :func:`log_k1_derivs`."""
    return log_k1_derivs(eta)[0]


def log_k1_deriv2(eta):
    """Second derivative of log K_1 at eta; see :func:`log_k1_derivs`."""
    return log_k1_derivs(eta)[1]


_HALF_LOG_PI = 0.5 * np.log(np.pi)


def log_upper_gamma_half(x):
    """log Gamma(1/2, x), stable for arbitrarily large x.

    Gamma(1/2, x) = sqrt(pi) * erfc(sqrt(x)); written via the scaled
    complementary error function so the result stays finite where the
    direct product would underflow (x beyond ~700).  Metropolis ratios
    for the elastic-net rate parameter are computed with this.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be finite and >= 0")
    return float(_HALF_LOG_PI + np.log(_sp.erfcx(math.sqrt(x))) - x)
