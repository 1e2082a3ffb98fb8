"""Reproducible random-variate generation for the samplers and simulators.

The generalised inverse Gaussian (GIG) sampler is the workhorse: every
latent block of the Gibbs scans is GIG-distributed.  Orders +-1/2 are an
inverse Gaussian or its reciprocal and are drawn exactly, without
rejection, by the transformation method of Michael, Schucany & Haas
(1976) (``Generator.wald``).  Every other order goes through the
uniformly fast rejection algorithm of Devroye (2014, Stat. Comput. 24),
vectorised over parameter arrays, with a ``math``-module twin for single
scalar draws.  Gamma / inverse-gamma limits are dispatched at the
degenerate boundaries.

Streams are derived from (seed, key-path) pairs via numpy's SeedSequence
spawning, so parallel replications are reproducible regardless of
scheduling: unit of work (rep r, stage s) always draws from
``RngStream(seed).child(r, s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import solve_triangular

from . import specfun

__all__ = [
    "RngStream",
    "as_generator",
    "GigParams",
    "GIG_BOUNDARY_EPS",
    "gig_sample",
    "gig_sample_shifted",
    "gig_rvs",
    "gig_moment",
    "mvn_from_precision",
    "ald_sample",
    "Gaussian",
    "ContaminatedNormal",
    "SkewT",
    "Cauchy",
    "Mixture",
    "NoiseLaw",
    "noise_sample",
    "FactorizationError",
]

# Below this value of c*d the Bessel-ratio regime is numerically void and
# draws dispatch to the gamma (nu > 0) or inverse-gamma (nu < 0) limit.
GIG_BOUNDARY_EPS = 1e-12


class FactorizationError(RuntimeError):
    """Raised when a precision matrix is numerically indefinite."""


@dataclass(frozen=True)
class RngStream:
    """Seed plus key path identifying one independent random stream.

    Identical (seed, key) pairs reproduce draw sequences bit for bit;
    distinct keys give statistically independent streams.
    """

    seed: int
    key: tuple = field(default=())

    def child(self, *subkey: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(int(k) for k in subkey))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.key)
        return np.random.default_rng(ss)


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a Generator, or a plain int seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random stream")


@dataclass(frozen=True)
class GigParams:
    """Parameters of the density proportional to x^(nu-1) exp(-(c^2 x + d^2/x)/2).

    c and d enter squared, i.e. they are the square roots of the
    quadratic-form coefficients.  Degenerate boundaries: d = 0 needs
    nu > 0 (gamma limit), c = 0 needs nu < 0 (inverse-gamma limit).
    """

    nu: float
    c: float
    d: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and np.isfinite(self.c) and np.isfinite(self.d)):
            raise ValueError("GigParams must be finite")
        if self.c < 0 or self.d < 0:
            raise ValueError("GigParams requires c >= 0 and d >= 0")
        if self.c == 0 and self.d == 0:
            raise ValueError("GigParams requires c > 0 or d > 0")
        if self.d == 0 and self.nu <= 0:
            raise ValueError("gamma limit (d = 0) requires nu > 0")
        if self.c == 0 and self.nu >= 0:
            raise ValueError("inverse-gamma limit (c = 0) requires nu < 0")


def _devroye_gig_two_param(gen: np.random.Generator, lam: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Draw from the two-parameter GIG density ~ y^(lam-1) exp(-omega (y + 1/y)/2).

    Requires lam >= 0 and omega > 0 elementwise.  Rejection from a
    three-piece hat around the mode of the log-transformed density;
    expected number of rounds is bounded (< 2) uniformly in (lam, omega).
    """
    lam = np.asarray(lam, dtype=float)
    omega = np.asarray(omega, dtype=float)
    alpha = np.sqrt(omega * omega + lam * lam) - lam

    def psi(x):
        return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)

    def dpsi(x):
        return -alpha * np.sinh(x) - lam * np.expm1(x)

    one = np.ones_like(alpha)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = -psi(one)
        t = np.where(
            (m >= 0.5) & (m <= 2.0),
            1.0,
            np.where(m > 2.0, np.sqrt(2.0 / (alpha + lam)), np.log(4.0 / (alpha + 2.0 * lam))),
        )
        m = -psi(-one)
        s_small = np.minimum(
            1.0 / lam,
            np.log1p(1.0 / alpha + np.sqrt(1.0 / (alpha * alpha) + 2.0 / alpha)),
        )
        s = np.where(
            (m >= 0.5) & (m <= 2.0),
            1.0,
            np.where(m > 2.0, np.sqrt(4.0 / (alpha * np.cosh(1.0) + lam)), s_small),
        )

    eta = -psi(t)
    zeta = -dpsi(t)
    theta = -psi(-s)
    xi = dpsi(-s)
    p = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    sd = s - p * theta
    q = td + sd
    total = p + q + r

    out = np.empty_like(alpha)
    pending = np.arange(alpha.size)
    al_f = alpha.ravel()
    lam_f = lam.ravel()
    t_f = t.ravel()
    s_f = s.ravel()
    eta_f = eta.ravel()
    zeta_f = zeta.ravel()
    theta_f = theta.ravel()
    xi_f = xi.ravel()
    p_f = p.ravel()
    r_f = r.ravel()
    td_f = td.ravel()
    sd_f = sd.ravel()
    q_f = q.ravel()
    tot_f = total.ravel()
    out_f = out.ravel()

    while pending.size:
        u = gen.random(pending.size)
        v = gen.random(pending.size)
        w = gen.random(pending.size)
        pp, qq, rr = p_f[pending], q_f[pending], r_f[pending]
        tt, ss = t_f[pending], s_f[pending]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cand = np.where(
                u < qq / tot_f[pending],
                -sd_f[pending] + qq * v,
                np.where(
                    u < (qq + rr) / tot_f[pending],
                    td_f[pending] - rr * np.log(v),
                    -sd_f[pending] + pp * np.log(v),
                ),
            )
            # hat value: 1 on the flat middle piece, exponential tails outside
            upper = np.where(
                cand > td_f[pending],
                np.exp(-eta_f[pending] - zeta_f[pending] * (cand - tt)),
                np.where(
                    cand < -sd_f[pending],
                    np.exp(-theta_f[pending] + xi_f[pending] * (cand + ss)),
                    1.0,
                ),
            )
            a_p = al_f[pending]
            l_p = lam_f[pending]
            logf = -a_p * (np.cosh(cand) - 1.0) - l_p * (np.expm1(cand) - cand)
            # non-finite candidates (a zero uniform hit an exponential tail)
            # carry no mass; redraw them
            acc = (np.log(w) + np.log(upper) <= logf) & np.isfinite(cand)
        idx = pending[acc]
        out_f[idx] = cand[acc]
        pending = pending[~acc]

    # undo the log / mode-centering transform
    return np.exp(out) * (lam / omega + np.sqrt(1.0 + (lam / omega) ** 2))


def _devroye_gig_scalar(gen: np.random.Generator, lam: float, omega: float):
    """Scalar twin of :func:`_devroye_gig_two_param` in the ``math`` module.

    Same hat, same arithmetic and the same uniforms in the same order, so
    one stream gives the array path's draw.  Returns None, having drawn
    nothing, when the hat cannot be built in float arithmetic (a zero
    divisor or an overflow); the caller then takes the array path.
    """
    def psi(x):
        return -alpha * (math.cosh(x) - 1.0) - lam * (math.expm1(x) - x)

    def dpsi(x):
        return -alpha * math.sinh(x) - lam * math.expm1(x)

    try:
        alpha = math.sqrt(omega * omega + lam * lam) - lam
        m = -psi(1.0)
        if 0.5 <= m <= 2.0:
            t = 1.0
        elif m > 2.0:
            t = math.sqrt(2.0 / (alpha + lam))
        else:
            t = math.log(4.0 / (alpha + 2.0 * lam))
        m = -psi(-1.0)
        if 0.5 <= m <= 2.0:
            s = 1.0
        elif m > 2.0:
            s = math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam))
        else:
            s = min(
                1.0 / lam if lam > 0 else math.inf,
                math.log1p(1.0 / alpha + math.sqrt(1.0 / (alpha * alpha) + 2.0 / alpha)),
            )
        eta = -psi(t)
        zeta = -dpsi(t)
        theta = -psi(-s)
        xi = dpsi(-s)
        p = 1.0 / xi
        r = 1.0 / zeta
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    td = t - r * eta
    sd = s - p * theta
    q = td + sd
    total = p + q + r

    while True:
        u = gen.random()
        v = gen.random()
        w = gen.random()
        if u < q / total:
            cand = -sd + q * v
        elif v == 0.0:
            continue  # an exponential tail at log(0): no mass, redraw
        elif u < (q + r) / total:
            cand = td - r * math.log(v)
        else:
            cand = -sd + p * math.log(v)
        if cand > td:
            upper = math.exp(-eta - zeta * (cand - t))
        elif cand < -sd:
            upper = math.exp(-theta + xi * (cand + s))
        else:
            upper = 1.0
        try:
            logf = -alpha * (math.cosh(cand) - 1.0) - lam * (math.expm1(cand) - cand)
        except OverflowError:
            logf = -math.inf
        log_w = math.log(w) if w > 0.0 else -math.inf
        log_upper = math.log(upper) if upper > 0.0 else -math.inf
        if log_w + log_upper <= logf:
            break

    ratio = lam / omega
    return math.exp(cand) * (ratio + math.sqrt(1.0 + ratio * ratio))


def _wald_gig_half(gen: np.random.Generator, nu, c, d):
    """Exact GIG(+-1/2, c, d) draws by the Wald (inverse Gaussian) law.

    GIG(-1/2, c, d) is IG(mean d/c, shape d^2), and GIG(1/2, c, d) is the
    reciprocal of IG(mean c/d, shape c^2).
    """
    if np.ndim(nu) == 0:
        return gen.wald(d / c, d * d) if nu < 0 else 1.0 / gen.wald(c / d, c * c)
    neg = nu < 0
    x = gen.wald(np.where(neg, d / c, c / d), np.where(neg, d * d, c * c))
    return np.where(neg, x, 1.0 / x)


def _devroye_gig(gen: np.random.Generator, nu, c, d):
    """GIG(nu, c, d) draws by Devroye's sampler, through the two-parameter law."""
    omega = c * d
    y = _devroye_gig_two_param(gen, np.broadcast_to(np.abs(nu), omega.shape), omega)
    return np.where(nu < 0, 1.0 / y, y) * (d / c)


def _gig_interior(gen: np.random.Generator, nu, c, d):
    """GIG draws for parameters away from the gamma / inverse-gamma limits:
    orders +-1/2 first, by Wald, then every other order, by Devroye."""
    if nu.ndim == 0:
        if abs(nu) == 0.5:
            return _wald_gig_half(gen, float(nu), c, d)
        return _devroye_gig(gen, nu, c, d)
    nu, c, d = np.broadcast_arrays(nu, c, d)
    out = np.empty(nu.shape)
    half = np.abs(nu) == 0.5
    if half.any():
        out[half] = _wald_gig_half(gen, nu[half], c[half], d[half])
    rest = ~half
    if rest.any():
        out[rest] = _devroye_gig(gen, nu[rest], c[rest], d[rest])
    return out


def _gig_with_limits(gen: np.random.Generator, nu, c, d):
    """GIG draws when some elements sit at or near a degenerate boundary."""
    if np.any((c == 0) & (d == 0)):
        raise ValueError("GIG parameters need c > 0 or d > 0")
    tiny = c * d < GIG_BOUNDARY_EPS
    gamma_lim = (d == 0) | (tiny & (nu > 0))
    invgamma_lim = ((c == 0) | (tiny & (nu < 0))) & ~gamma_lim
    if np.any(gamma_lim & (nu <= 0)):
        raise ValueError("gamma limit (d = 0) requires nu > 0")
    if np.any(invgamma_lim & (nu >= 0)):
        raise ValueError("inverse-gamma limit (c = 0) requires nu < 0")

    out = np.empty(nu.shape)
    # fixed mask order keeps the draw sequence reproducible
    if np.any(gamma_lim):
        cs = c[gamma_lim]
        out[gamma_lim] = gen.gamma(nu[gamma_lim]) * (2.0 / (cs * cs))
    if np.any(invgamma_lim):
        ds = d[invgamma_lim]
        out[invgamma_lim] = (ds * ds) / (2.0 * gen.gamma(-nu[invgamma_lim]))
    general = ~(gamma_lim | invgamma_lim)
    if np.any(general):
        out[general] = _gig_interior(gen, nu[general], c[general], d[general])
    return out


def gig_rvs(rng, nu, c, d, size=None) -> np.ndarray:
    """Vectorised GIG sampling; nu, c, d broadcast against each other.

    Density proportional to x^(nu-1) exp(-(c^2 x + d^2 / x) / 2).
    Boundary dispatch: d = 0 (or c*d below GIG_BOUNDARY_EPS with nu > 0)
    draws Gamma(nu, rate c^2/2); the mirrored case draws the
    inverse-gamma limit.  Away from the boundaries, orders +-1/2 are drawn
    exactly by the Wald law and every other order by Devroye's rejection
    sampler; a single scalar draw of the latter kind (``size=None``)
    takes its ``math``-module twin, which gives the same draw from the
    same stream.
    """
    gen = as_generator(rng)
    if size is None and np.ndim(nu) == np.ndim(c) == np.ndim(d) == 0:
        nu_f, c_f, d_f = float(nu), float(c), float(d)
        if (math.isfinite(nu_f) and abs(nu_f) != 0.5 and c_f > 0.0 and d_f > 0.0
                and GIG_BOUNDARY_EPS <= c_f * d_f < math.inf):
            y = _devroye_gig_scalar(gen, abs(nu_f), c_f * d_f)
            if y is not None:
                return (1.0 / y if nu_f < 0 else y) * (d_f / c_f)
    nu = np.asarray(nu, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if size is not None:
        shape = (size,) if np.isscalar(size) else tuple(size)
        nu, c, d = (np.broadcast_to(a, shape) for a in (nu, c, d))

    if not (np.isfinite(nu).all() and np.isfinite(c).all() and np.isfinite(d).all()
            and (c >= 0).all() and (d >= 0).all()):
        raise ValueError("GIG parameters must be finite with c >= 0, d >= 0")
    if (c * d >= GIG_BOUNDARY_EPS).all():
        out = _gig_interior(gen, nu, c, d)
    else:
        out = _gig_with_limits(gen, *np.broadcast_arrays(nu, c, d))
    if size is None and np.ndim(out) == 0:
        return float(out)
    return out


def gig_sample(rng, params: GigParams, size=None):
    """One draw (or ``size`` draws) from the GIG law given by ``params``."""
    out = gig_rvs(rng, params.nu, params.c, params.d, size=size)
    if size is None:
        return float(np.asarray(out).reshape(()))
    return out


def gig_sample_shifted(rng, params: GigParams, size=None):
    """1 + X with X ~ GIG(params); the return value is strictly > 1.

    Used for latents supported on (1, inf) whose shifted value follows a
    plain GIG law.
    """
    return 1.0 + gig_rvs(rng, params.nu, params.c, params.d, size=size)


def gig_moment(params: GigParams, order: float) -> float:
    """E[X^order] for X ~ GIG(params), via scaled Bessel ratios.

    Only valid away from the degenerate boundaries (c > 0 and d > 0).
    """
    if params.c <= 0 or params.d <= 0:
        raise ValueError("moments via Bessel ratios need c > 0 and d > 0")
    w = params.c * params.d
    log_ratio = specfun.log_bessel_k(params.nu + order, w) - specfun.log_bessel_k(params.nu, w)
    return (params.d / params.c) ** order * np.exp(log_ratio)


def mvn_from_precision(rng, precision, linear_term) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) given precision P and linear term h.

    One Cholesky factorisation plus triangular solves; the covariance is
    never formed explicitly.
    """
    gen = as_generator(rng)
    precision = np.asarray(precision, dtype=float)
    h = np.asarray(linear_term, dtype=float)
    try:
        lower = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"precision matrix is not positive definite: {exc}") from exc
    half = solve_triangular(lower, h, lower=True)
    mean = solve_triangular(lower.T, half, lower=False)
    z = gen.standard_normal(h.shape[0])
    return mean + solve_triangular(lower.T, z, lower=False)


def ald_sample(rng, mu, sigma, tau, size=None):
    """Asymmetric Laplace draw with density (tau(1-tau)/sigma) exp(-rho_tau((x-mu)/sigma)).

    P(X <= mu) = tau exactly.  Constructed as mu + sigma (E1/tau - E2/(1-tau))
    with independent unit exponentials.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    gen = as_generator(rng)
    e1 = gen.exponential(size=size)
    e2 = gen.exponential(size=size)
    return mu + sigma * (e1 / tau - e2 / (1.0 - tau))


# --- noise laws for the simulation scenarios ---------------------------------


@dataclass(frozen=True)
class Gaussian:
    """N(0, sd^2)."""

    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be > 0")


@dataclass(frozen=True)
class ContaminatedNormal:
    """(1-w) N(0,1) + w N(0, s^2)."""

    w: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.w <= 1.0):
            raise ValueError("contamination weight must lie in [0, 1]")
        if self.s <= 0:
            raise ValueError("contamination scale must be > 0")

    @property
    def sd(self) -> float:
        """Analytic standard deviation of the mixture."""
        return float(np.sqrt((1.0 - self.w) + self.w * self.s**2))


@dataclass(frozen=True)
class SkewT:
    """Two-piece skewed Student t: scale gamma on the positive half, 1/gamma on the negative."""

    df: float
    gamma: float

    def __post_init__(self):
        if self.df <= 0 or self.gamma <= 0:
            raise ValueError("df and gamma must be > 0")


@dataclass(frozen=True)
class Cauchy:
    """Standard Cauchy(0, 1)."""


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of noise laws; weights must be positive and sum to 1."""

    components: tuple

    def __post_init__(self):
        weights = np.array([w for w, _ in self.components], dtype=float)
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be positive and sum to 1")


NoiseLaw = Union[Gaussian, ContaminatedNormal, SkewT, Cauchy, Mixture]


def _skewt_rvs(gen: np.random.Generator, df: float, gamma: float, n: int) -> np.ndarray:
    t = np.abs(gen.standard_t(df, size=n))
    pos = gen.random(n) < gamma**2 / (1.0 + gamma**2)
    return np.where(pos, gamma * t, -t / gamma)


def noise_sample(rng, law: NoiseLaw, size=None):
    """Draw from a noise law; mixtures pick a component by weight, then sample it."""
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    if isinstance(law, Gaussian):
        out = law.sd * gen.standard_normal(n)
    elif isinstance(law, ContaminatedNormal):
        contaminated = gen.random(n) < law.w
        z = gen.standard_normal(n)
        out = np.where(contaminated, law.s * z, z)
    elif isinstance(law, SkewT):
        out = _skewt_rvs(gen, law.df, law.gamma, n)
    elif isinstance(law, Cauchy):
        out = gen.standard_cauchy(n)
    elif isinstance(law, Mixture):
        weights = np.array([w for w, _ in law.components])
        which = gen.choice(len(law.components), size=n, p=weights)
        out = np.empty(n)
        for j, (_, sub) in enumerate(law.components):
            idx = np.flatnonzero(which == j)
            if idx.size:
                out[idx] = noise_sample(gen, sub, size=idx.size)
    else:
        raise ValueError(f"unknown noise law: {law!r}")
    if size is None:
        return float(out[0])
    return out
