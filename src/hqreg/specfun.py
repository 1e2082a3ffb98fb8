"""Scalar special functions shared by the samplers and density kernels.

Everything here wraps or combines the exponentially scaled Bessel routines
from scipy.special so that ratios and logarithms stay finite across the
full argument range the Gibbs updates visit (roughly 1e-6 .. 1e6).
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "bessel_k",
    "log_bessel_k",
    "log_k1_derivs",
    "log_k1_deriv",
    "log_k1_deriv2",
    "upper_incomplete_gamma",
    "log_upper_gamma_half",
]


def _validated_positive(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise ValueError(f"{name} must be finite and > 0")
    return x


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x).

    Parameters
    ----------
    nu : float or array_like
        Real order.
    x : float or array_like
        Argument, must be > 0.

    Computed as ``kve(nu, x) * exp(-x)`` so that very large arguments
    degrade gracefully to the subnormal/zero value implied by the
    asymptotic form sqrt(pi/(2x)) * exp(-x) instead of overflowing
    intermediate terms.  Use :func:`log_bessel_k` past x ~ 700.
    """
    x = _validated_positive(x, "x")
    nu = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nu)):
        raise ValueError("nu must be finite")
    out = _sp.kve(nu, x) * np.exp(-x)
    if out.ndim == 0:
        return float(out)
    return out


def log_bessel_k(nu, x):
    """log K_nu(x), finite for arbitrarily large x (no underflow)."""
    x = _validated_positive(x, "x")
    nu = np.asarray(nu, dtype=float)
    out = np.log(_sp.kve(nu, x)) - x
    if out.ndim == 0:
        return float(out)
    return out


_K_ORDERS_0_TO_3 = np.arange(4.0)


def log_k1_derivs(eta):
    """First and second derivatives of log K_1 at eta, as a pair.

    One ``kve`` call on orders 0..3.  The derivative recurrence
    K_nu' = -(K_{nu-1} + K_{nu+1}) / 2 gives K_1'' = (3 K_1 + K_3) / 4, so

        (log K_1)'  = -(K_0 + K_2) / (2 K_1),
        (log K_1)'' = (3 + K_3/K_1) / 4 - ((K_0 + K_2) / (2 K_1))^2.

    The first is always negative (K_1 is decreasing); the second is
    positive for every eta > 0 (log-convexity of K_nu), and the
    fixed-point refinement of the robustness-parameter update relies on
    that sign.  Evaluated through scaled Bessel ratios so the exp(-eta)
    factors cancel exactly.
    """
    eta = _validated_positive(eta, "eta")
    k = _sp.kve(_K_ORDERS_0_TO_3.reshape((4,) + (1,) * eta.ndim), eta)
    k0, k1, k2, k3 = k.tolist() if eta.ndim == 0 else k
    first = (k0 + k2) / (2.0 * k1)
    return -first, (3.0 + k3 / k1) / 4.0 - first * first


def log_k1_deriv(eta):
    """First derivative of log K_1 at eta; see :func:`log_k1_derivs`."""
    return log_k1_derivs(eta)[0]


def log_k1_deriv2(eta):
    """Second derivative of log K_1 at eta; see :func:`log_k1_derivs`."""
    return log_k1_derivs(eta)[1]


def upper_incomplete_gamma(s, x):
    """Upper incomplete gamma Gamma(s, x) = int_x^inf t^(s-1) e^-t dt.

    Requires s > 0 and x >= 0; Gamma(s, 0) is the complete gamma.
    """
    s = _validated_positive(s, "s")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("x must be finite and >= 0")
    out = _sp.gammaincc(s, x) * np.exp(_sp.gammaln(s))
    if out.ndim == 0:
        return float(out)
    return out


def log_upper_gamma_half(x):
    """log Gamma(1/2, x), stable for arbitrarily large x.

    Gamma(1/2, x) = sqrt(pi) * erfc(sqrt(x)); written via the scaled
    complementary error function so the result stays finite where the
    direct product would underflow (x beyond ~700).  Metropolis ratios
    for the elastic-net rate parameter are computed with this.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("x must be finite and >= 0")
    rx = np.sqrt(x)
    out = 0.5 * np.log(np.pi) + np.log(_sp.erfcx(rx)) - x
    if out.ndim == 0:
        return float(out)
    return out
