"""Loss kernels, the asymmetric Huberised density, and log-posterior surfaces.

The loss family interpolates between square-root-check and check losses
through a robustness parameter eta and a scale rho2.  The matching
density has its tau-th quantile exactly at the location parameter and
admits a normal scale-mixture representation (exponential mixing on the
normal's latent mean/variance scale, generalised inverse Gaussian mixing
on the global scale); :func:`scale_mixture_density` evaluates that
representation by nested quadrature and serves as the independent oracle
for the closed form.

The GIG mixing index of the global scale is declared here once:
DENSITY_MIXING_INDEX for the documented density and its oracle, and
CHAIN_MIXING_INDEX for the Gibbs chain and the posterior surface.

The joint (beta, rho2) log-posterior surface of a single-column design
comes from one broadcasting kernel, which the grid and the pointwise
view share; its coefficient prior is the chain's penalty family's
``Rates.log_prior`` at pinned rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "DENSITY_MIXING_INDEX",
    "CHAIN_MIXING_INDEX",
    "LossParams",
    "huber_loss",
    "check_loss",
    "asym_loss",
    "asym_density",
    "asym_log_density",
    "scale_mixture_density",
    "PosteriorGridSpec",
    "joint_log_posterior",
    "log_posterior_grid",
    "count_strict_local_maxima",
]

# The GIG mixing index lambda of the global scale,
# sigma ~ GIG(lambda, sqrt(eta/rho2), sqrt(eta rho2)).  Only 3/2 turns the
# mixture into the exponential kernel of asym_density.
DENSITY_MIXING_INDEX = 1.5
# The chain's sigma, rho2 and eta blocks and the posterior surface still use
# index 1, whose marginal is proportional to K_0(sqrt(eta^2 + eta
# rho_tau(e)/rho2)); ROADMAP item 2 moves them to DENSITY_MIXING_INDEX.
CHAIN_MIXING_INDEX = 1.0

# K_0 has a log singularity at 0; grid points that interpolate the data
# exactly are clamped here before the log is taken.
_K0_ARG_FLOOR = 1e-300


@dataclass(frozen=True)
class LossParams:
    """Shape eta > 0, scale rho2 > 0, quantile level tau in (0,1)."""

    eta: float
    rho2: float
    tau: float

    def __post_init__(self):
        if not (self.eta > 0 and self.rho2 > 0):
            raise ValueError("eta and rho2 must be > 0")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")


def huber_loss(x, delta: float = 1.345):
    """Quadratic below delta, linear beyond: x^2/2 or delta(|x| - delta/2)."""
    if delta <= 0:
        raise ValueError("delta must be > 0")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return np.where(ax <= delta, 0.5 * x * x, delta * (ax - 0.5 * delta))


def check_loss(x, tau):
    """Canonical quantile loss x (tau - 1{x < 0}); nonnegative."""
    x = np.asarray(x, dtype=float)
    return x * (tau - (x < 0))


def asym_loss(x, p: LossParams):
    """Asymmetric Huberised loss sqrt(eta (eta + check_loss(x, tau)/rho2)) - eta.

    Zero at x = 0 and increasing in |x| on each side; the radicand is
    bounded below by eta^2 because the check loss is nonnegative.  A NaN
    x gives NaN, as in :func:`check_loss`.
    """
    z = check_loss(x, p.tau) / (p.eta * p.rho2)
    return p.eta * (z / (np.sqrt(1.0 + z) + 1.0))


def asym_log_density(x, mu, p: LossParams):
    """log of :func:`asym_density`."""
    x = np.asarray(x, dtype=float)
    log_const = (
        math.log(p.eta * p.tau * (1.0 - p.tau))
        - math.log(2.0 * p.rho2 * (p.eta + 1.0))
    )
    return log_const - asym_loss(x - mu, p)


def asym_density(x, mu, p: LossParams):
    """Density with tau-th quantile at mu:

        eta tau (1-tau) e^eta / (2 rho2 (eta+1))
            * exp(-sqrt(eta (eta + check_loss(x - mu, tau)/rho2))).

    Integrates to 1; P(X <= mu) = tau.  This closed form, its eta+1
    normaliser included, is the mixture at index 3/2
    (DENSITY_MIXING_INDEX) only.
    """
    return np.exp(asym_log_density(x, mu, p))


def scale_mixture_density(x, mu, p: LossParams) -> float:
    """Evaluate the normal scale-mixture representation by 2-D quadrature.

    Composes, for e = x - mu,

        int int N(e; (1-2 tau) v, 4 v sigma) Exp(v; tau(1-tau)/(2 sigma))
                GIG(sigma; lambda, sqrt(eta/rho2), sqrt(eta rho2)) dv dsigma,

    with lambda = DENSITY_MIXING_INDEX.  The inner v-integral runs over
    log v for stability (the integrand spans many decades in v); the
    outer sigma-integral likewise.  Composing the inner
    normal-exponential layer yields an asymmetric Laplace with scale
    2*sigma, and only the index 3/2 turns the remaining Bessel factor
    into the pure exponential kernel of :func:`asym_density` (the
    density's normalising constant, with its eta+1 factor, pins the
    same index).

    Slow; intended as an independent cross-check of the closed form,
    not for bulk evaluation.
    """
    # imported here: scipy.integrate also loads scipy.optimize, which
    # nothing else in the package needs
    from scipy.integrate import quad

    e = float(x) - float(mu)
    tau, eta, rho2 = p.tau, p.eta, p.rho2
    c2 = eta / rho2
    d2 = eta * rho2
    nu_mix = DENSITY_MIXING_INDEX
    # log of the GIG(nu_mix, c, d) normalising constant
    cd = math.sqrt(c2 * d2)
    log_norm = (
        0.5 * nu_mix * (math.log(c2) - math.log(d2))
        - math.log(2.0)
        - (np.log(_sp.kve(nu_mix, cd)) - cd)
    )
    rate_coeff = tau * (1.0 - tau) / 2.0  # rate of v given sigma is this / sigma

    def inner(sigma: float) -> float:
        # int N(e; (1-2tau) v, 4 v sigma) * Exp(v; rate) dv over log v
        rate = rate_coeff / sigma
        # characteristic v scales: exponential scale and the scale where the
        # normal kernel stops suppressing small v
        v_scale = max(1.0 / rate, e * e / sigma, sigma, 1e-300)

        def f(u: float) -> float:
            v = math.exp(u)
            resid = e - (1.0 - 2.0 * tau) * v
            var = 4.0 * v * sigma
            logn = -0.5 * math.log(2.0 * math.pi * var) - resid * resid / (2.0 * var)
            logexp = math.log(rate) - rate * v
            return math.exp(logn + logexp + u)

        lo = math.log(v_scale) - 46.0
        hi = math.log(v_scale) + 46.0
        val, _ = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-9, limit=200)
        return val

    def outer(w: float) -> float:
        sigma = math.exp(w)
        log_gig = (
            log_norm
            + (nu_mix - 1.0) * w
            - 0.5 * (c2 * sigma + d2 / sigma)
        )
        return inner(sigma) * math.exp(log_gig + w)

    s_scale = math.sqrt(d2 / c2)  # = rho2, the GIG scale
    lo = math.log(s_scale) - 42.0
    hi = math.log(s_scale) + 42.0
    val, err = quad(outer, lo, hi, epsabs=1e-14, epsrel=1e-9, limit=200)
    if not np.isfinite(val) or (val > 0 and err > 1e-3 * val):
        raise RuntimeError(f"mixture quadrature failed to converge: value={val}, err={err}")
    return val


# --- joint log-posterior surfaces for the mode-counting demonstration --------


@dataclass(frozen=True)
class PosteriorGridSpec:
    """Grid evaluation plan for the joint (beta, rho2) posterior surface.

    ``rates`` is a penalty family's pinned ``Rates``, a sampler object.
    prior_style 'conditional' scales the coefficient prior by the
    current rho2 (provably single-moded surface); 'unconditional' keeps
    the prior fixed (can split into several modes).
    """

    beta_grid: np.ndarray
    rho2_grid: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rates: tuple
    prior_style: str
    eta: float
    tau: float

    def __post_init__(self):
        for name in ("beta_grid", "rho2_grid"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.ndim != 1 or g.size < 2 or not np.isfinite(g).all() or np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be finite and strictly increasing, length >= 2")
            object.__setattr__(self, name, g)
        if np.any(self.rho2_grid <= 0):
            raise ValueError("rho2_grid must be positive")
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != 1:
            raise ValueError("grid evaluation expects a single-column design")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.prior_style not in ("conditional", "unconditional"):
            raise ValueError("prior_style must be 'conditional' or 'unconditional'")
        if not all(0.0 < r < math.inf for r in self.rates):
            raise ValueError(f"penalty rates must be finite and > 0, got {self.rates!r}")
        # the surface squares eta
        if not (0.0 < self.eta and self.eta * self.eta < math.inf and 0.0 < self.tau < 1.0):
            raise ValueError("need eta > 0 with a finite square, and tau in (0, 1)")


def _log_k0(arg: np.ndarray) -> np.ndarray:
    """log of z^(lambda-1) K_(lambda-1)(z), the marginal's factor at
    CHAIN_MIXING_INDEX lambda = 1, where it is K_0(z); written for that
    index only."""
    arg = np.maximum(arg, _K0_ARG_FLOOR)
    return np.log(_sp.k0e(arg)) - arg


def _log_posterior(spec: PosteriorGridSpec, beta: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Unnormalised log posterior at every (beta_i, rho2_j), latents
    integrated out; shape (len(beta), len(rho2)).

    The likelihood is the chain's: the mixture at CHAIN_MIXING_INDEX, a
    product of Bessel-K_0 factors in the scaled check losses rho_tau of
    the residuals.  Its argument keeps an eta^2 floor, from the 1/sigma
    coefficient of the mixing prior, so it stays >= eta and the surface
    has no residual-interpolation singularities.  The prior style sets
    only the scales of ``spec.rates.log_prior`` (1/sqrt(rho2) on the l1
    term and rho2 under the l2 term, or 1 for both) and the rho2
    exponent (n + k/2 + 1 or n + 1, with k = 1 for the single-column
    design); the conditional style is the chain's model at fixed eta and
    rates.
    """
    n = spec.y.size
    resid = spec.y[None, :] - beta[:, None] * spec.x[:, 0][None, :]  # (B, n)
    eta_loss = spec.eta * check_loss(resid, spec.tau)
    args = np.sqrt(spec.eta**2 + eta_loss[:, :, None] / rho2[None, None, :])
    loglik = _log_k0(args).sum(axis=1)  # (B, R)
    if spec.prior_style == "unconditional":
        l1_scale, l2_scale, power = 1.0, 1.0, n + 1.0
    else:
        l1_scale, l2_scale, power = 1.0 / np.sqrt(rho2), rho2, n + 0.5 + 1.0
    prior = spec.rates.log_prior(beta[:, None], l1_scale, l2_scale) - power * np.log(rho2)
    return loglik + prior


def joint_log_posterior(beta, rho2: float, spec: PosteriorGridSpec) -> float:
    """:func:`log_posterior_grid`'s surface at one point (beta, rho2)."""
    if rho2 <= 0:
        raise ValueError("rho2 must be > 0")
    beta = np.asarray(beta, dtype=float).reshape(1)
    return float(_log_posterior(spec, beta, np.array([rho2], dtype=float))[0, 0])


def log_posterior_grid(spec: PosteriorGridSpec) -> np.ndarray:
    """Unnormalised log posterior of (beta, rho2) over the grid, shape
    (len(beta_grid), len(rho2_grid)); see :func:`_log_posterior`.

    Evaluated one beta row at a time, so the temporaries hold
    len(rho2_grid) * n values, not len(beta_grid) times that.
    """
    z = np.empty((spec.beta_grid.size, spec.rho2_grid.size))
    for i in range(spec.beta_grid.size):
        z[i] = _log_posterior(spec, spec.beta_grid[i:i + 1], spec.rho2_grid)[0]
    return z


def count_strict_local_maxima(z: np.ndarray) -> int:
    """Count interior grid cells strictly greater than all 8 neighbours.

    Boundary cells are never counted: the surface continues past the
    grid window, so an edge cell cannot be certified as a maximum.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] < 3 or z.shape[1] < 3:
        return 0
    core = z[1:-1, 1:-1]
    best_neighbor = np.full_like(core, -np.inf)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if di == 1 and dj == 1:
                continue
            shifted = z[di : di + core.shape[0], dj : dj + core.shape[1]]
            best_neighbor = np.maximum(best_neighbor, shifted)
    return int(np.sum(core > best_neighbor))
