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
from scipy.linalg import lapack

from . import specfun

__all__ = [
    "RngStream",
    "as_generator",
    "GigParams",
    "GIG_BOUNDARY_EPS",
    "gig_rvs",
    "gig_moment",
    "mvn_from_precision",
    "mvn_low_rank",
    "ald_sample",
    "Gaussian",
    "ContaminatedNormal",
    "SkewT",
    "Cauchy",
    "Mixture",
    "NoiseLaw",
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


def _require_wald_range(negative: bool, mean_lo, mean_hi, shape_lo, shape_hi) -> None:
    """Raise ValueError unless every Wald mean and shape lies in (0, inf).

    Interior GIG parameters can still put d/c, c/d, d^2 or c^2 outside
    the double range, where ``Generator.wald`` raises on 0 and returns
    NaN on inf.
    """
    for name, lo, hi in (("mean", mean_lo, mean_hi), ("shape", shape_lo, shape_hi)):
        if not (lo > 0.0 and hi < math.inf):
            if negative:
                order, form = "-1/2", "d/c" if name == "mean" else "d^2"
            else:
                order, form = "1/2", "c/d" if name == "mean" else "c^2"
            fate = "underflows to 0" if not lo > 0.0 else "overflows to inf"
            raise ValueError(f"GIG({order}) Wald {name} {form} {fate}; "
                             f"the parameters leave the double range")


def _wald_gig_half_order(gen: np.random.Generator, negative: bool, c, d, checked=False):
    """Exact GIG(-1/2, c, d) draws when ``negative``, else GIG(1/2, c, d),
    by the Wald (inverse Gaussian) law.

    GIG(-1/2, c, d) is IG(mean d/c, shape d^2), and GIG(1/2, c, d) is the
    reciprocal of IG(mean c/d, shape c^2).  Unless ``checked`` says the
    caller has bounded them, the means and shapes are tested against the
    double range first.
    """
    if checked:
        mean, shape = (d / c, d * d) if negative else (c / d, c * c)
    else:
        with np.errstate(over="ignore", under="ignore"):
            mean, shape = (d / c, d * d) if negative else (c / d, c * c)
        _require_wald_range(negative, _low(mean), _high(mean), _low(shape), _high(shape))
    x = gen.wald(mean, shape)
    if negative:
        return x
    return np.divide(1.0, x, out=x) if isinstance(x, np.ndarray) else 1.0 / x


def _wald_gig_half(gen: np.random.Generator, nu, c, d):
    """As :func:`_wald_gig_half_order`, with orders +-1/2 mixed elementwise."""
    neg = nu < 0
    with np.errstate(over="ignore", under="ignore"):
        mean, shape = np.where(neg, d / c, c / d), np.where(neg, d * d, c * c)
    for negative in (True, False):
        part = neg == negative
        if part.any():
            _require_wald_range(negative, mean[part].min(), mean[part].max(),
                                shape[part].min(), shape[part].max())
    x = gen.wald(mean, shape)
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
            return _wald_gig_half_order(gen, nu < 0, c, d)
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


def _as_param(x):
    """A float for a 0-d parameter, a float array otherwise."""
    return float(x) if isinstance(x, float) or np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _low(x):
    return x.min(initial=math.inf) if isinstance(x, np.ndarray) else x


def _high(x):
    return x.max(initial=-math.inf) if isinstance(x, np.ndarray) else x


def _interior_extremes(nu: float, c, d):
    """(min c, min c*d, max c*d) when nu is finite, c > 0 and
    GIG_BOUNDARY_EPS <= c*d < inf for every pair, else None.  Together
    these imply finite c, d > 0; c and d are as from :func:`_as_param`.

    For a scalar c > 0, rounding x -> c*x is monotone, so the extremes of
    c*d are c*min(d) and c*max(d) (NaN propagating through both) and no
    c*d array is built.
    """
    if not math.isfinite(nu):
        return None
    c_lo = _low(c)
    if not c_lo > 0.0:
        return None
    if isinstance(c, float):
        cd_lo, cd_hi = c * _low(d), c * _high(d)
    else:
        cd = c * d
        cd_lo, cd_hi = _low(cd), _high(cd)
    if cd_lo >= GIG_BOUNDARY_EPS and cd_hi < math.inf:
        return float(c_lo), float(cd_lo), float(cd_hi)
    return None


def _wald_plainly_in_range(negative: bool, c_lo, c_hi, cd_lo, cd_hi) -> bool:
    """Whether every Wald mean and shape of interior pairs is far inside the
    double range, judged from the extremes of c and c*d alone.

    The mean c/d is c^2 / (c d), d is (c d) / c and d/c is d / c, so the
    bounds below are within a few roundings of the extremes of the arrays
    the draw builds; 1e-300 and 1e300 leave a wide margin for that.  The
    arguments are Python floats, which overflow to inf without a warning.
    """
    if negative:
        d_lo, d_hi = cd_lo / c_hi, cd_hi / c_lo
        return (1e-300 <= d_lo / c_hi and 1e-300 <= d_lo * d_lo
                and d_hi / c_lo <= 1e300 and d_hi * d_hi <= 1e300)
    return (1e-300 <= c_lo * c_lo / cd_hi and 1e-300 <= c_lo * c_lo
            and c_hi * c_hi / cd_lo <= 1e300 and c_hi * c_hi <= 1e300)


def _gig_plain_interior(gen: np.random.Generator, nu: float, c, d):
    """GIG draws for one order when every (c, d) pair is plainly interior.

    Orders +-1/2 go straight to the Wald law, for any shapes of c and d;
    any other order goes to the scalar Devroye sampler when c and d are
    scalars too.  Returns None, having drawn nothing, in every other case.
    """
    c, d = _as_param(c), _as_param(d)
    extremes = _interior_extremes(nu, c, d)
    if extremes is None:
        return None
    if abs(nu) == 0.5:
        c_lo, cd_lo, cd_hi = extremes
        checked = _wald_plainly_in_range(nu < 0, c_lo, float(_high(c)), cd_lo, cd_hi)
        return _wald_gig_half_order(gen, nu < 0, c, d, checked)
    if not (isinstance(c, float) and isinstance(d, float)):
        return None
    y = _devroye_gig_scalar(gen, abs(nu), c * d)
    return None if y is None else (1.0 / y if nu < 0 else y) * (d / c)


def gig_rvs(rng, nu, c, d, size=None) -> np.ndarray:
    """Vectorised GIG sampling; nu, c, d broadcast against each other.

    Density proportional to x^(nu-1) exp(-(c^2 x + d^2 / x) / 2).
    Boundary dispatch: d = 0 (or c*d below GIG_BOUNDARY_EPS with nu > 0)
    draws Gamma(nu, rate c^2/2); the mirrored case draws the
    inverse-gamma limit.  Away from the boundaries, orders +-1/2 are drawn
    exactly by the Wald law and every other order by Devroye's rejection
    sampler; a single scalar draw of the latter kind (``size=None``)
    takes its ``math``-module twin, which gives the same draw from the
    same stream.  A single order whose parameters pass one cheap interior
    test skips the full validation; any other input takes it, so errors
    and limits do not depend on the test.  Limit draws come first, in
    the order gamma limits, inverse-gamma limits, the rest, so one call
    over pairs with a zero d orders its draws by kind, not by index.

    Raises ValueError when a Wald mean or shape of an order +-1/2 leaves
    the double range (overflows to inf or underflows to 0).
    """
    gen = as_generator(rng)
    if size is None and (isinstance(nu, float) or np.ndim(nu) == 0):
        out = _gig_plain_interior(gen, float(nu), c, d)
        if out is not None:
            return out
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


def gig_moment(params: GigParams, order: float) -> float:
    """E[X^order] for X ~ GIG(params), via scaled Bessel ratios.

    Only valid away from the degenerate boundaries (c > 0 and d > 0).
    """
    if params.c <= 0 or params.d <= 0:
        raise ValueError("moments via Bessel ratios need c > 0 and d > 0")
    w = params.c * params.d
    log_ratio = specfun.log_bessel_k(params.nu + order, w) - specfun.log_bessel_k(params.nu, w)
    return (params.d / params.c) ** order * np.exp(log_ratio)


def _cholesky_lower(matrix, overwrite=False):
    """Lower Cholesky factor by LAPACK potrf; only the lower triangle is
    read, and the upper one of the result is left as it was."""
    lower, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=int(overwrite))
    if info != 0:
        raise FactorizationError(f"matrix is not positive definite (potrf info={info})")
    return lower


def mvn_from_precision(rng, precision, linear_term) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) given precision P and linear term h.

    One Cholesky factorisation P = L L', then the mean from the two
    triangular solves of potrs and the noise L'^-1 z from one of trtrs,
    with z ~ N(0, I_k); the covariance is never formed.  O(k^3).
    """
    gen = as_generator(rng)
    precision = np.asarray(precision, dtype=float)
    h = np.asarray(linear_term, dtype=float)
    if not (np.isfinite(precision).all() and np.isfinite(h).all()):
        raise ValueError("Gaussian draw needs finite inputs")
    lower = _cholesky_lower(precision)
    mean, _ = lapack.dpotrs(lower, h, lower=1)
    noise, _ = lapack.dtrtrs(lower, gen.standard_normal(h.shape[0]), lower=1, trans=1)
    return mean + noise


def mvn_low_rank(rng, phi, prior_var, alpha) -> np.ndarray:
    """Draw from N(P^-1 phi' alpha, P^-1) with P = phi' phi + diag(1 / prior_var).

    The algorithm of Bhattacharya, Chakraborty & Mallick (2016,
    Biometrika 103) for an n x k matrix phi: draw u ~ N(0, diag(prior_var))
    and delta ~ N(0, I_n), solve (phi diag(prior_var) phi' + I_n) w =
    alpha - (phi u + delta), and return u + prior_var * phi' w.  It costs
    O(n^2 k) and never forms the k x k precision, so it is the cheaper
    exact draw when k > n.  Takes k + n standard normals, u's first.
    """
    gen = as_generator(rng)
    phi = np.asarray(phi, dtype=float)
    prior_var = np.asarray(prior_var, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if not (np.isfinite(phi).all() and np.isfinite(prior_var).all()
            and np.isfinite(alpha).all()):
        raise ValueError("Gaussian draw needs finite inputs")
    n, k = phi.shape
    scaled = phi * prior_var
    gram = scaled @ phi.T
    gram.flat[:: n + 1] += 1.0
    # gram is symmetric, so its transpose is the Fortran-ordered matrix
    # that potrf can factor in place
    lower = _cholesky_lower(gram.T, overwrite=True)
    z = gen.standard_normal(k + n)
    u = np.sqrt(prior_var) * z[:k]
    w, _ = lapack.dpotrs(lower, alpha - phi @ u - z[k:], lower=1)
    return u + scaled.T @ w


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
# each law draws n variates from a Generator with sample(gen, n)


@dataclass(frozen=True)
class Gaussian:
    """N(0, sd^2)."""

    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be > 0")

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return self.sd * gen.standard_normal(n)


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

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        contaminated = gen.random(n) < self.w
        z = gen.standard_normal(n)
        return np.where(contaminated, self.s * z, z)


@dataclass(frozen=True)
class SkewT:
    """Two-piece skewed Student t: scale gamma on the positive half, 1/gamma on the negative."""

    df: float
    gamma: float

    def __post_init__(self):
        if self.df <= 0 or self.gamma <= 0:
            raise ValueError("df and gamma must be > 0")

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        t = np.abs(gen.standard_t(self.df, size=n))
        pos = gen.random(n) < self.gamma**2 / (1.0 + self.gamma**2)
        return np.where(pos, self.gamma * t, -t / self.gamma)


@dataclass(frozen=True)
class Cauchy:
    """Standard Cauchy(0, 1)."""

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.standard_cauchy(n)


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of noise laws; weights must be positive and sum to 1."""

    components: tuple

    def __post_init__(self):
        weights = np.array([w for w, _ in self.components], dtype=float)
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be positive and sum to 1")

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """Pick a component by weight for each draw, then draw each
        component's share from it, in component order."""
        weights = np.array([w for w, _ in self.components])
        which = gen.choice(len(self.components), size=n, p=weights)
        out = np.empty(n)
        for j, (_, sub) in enumerate(self.components):
            idx = np.flatnonzero(which == j)
            if idx.size:
                out[idx] = sub.sample(gen, idx.size)
        return out


NoiseLaw = Union[Gaussian, ContaminatedNormal, SkewT, Cauchy, Mixture]
