"""Reproducible random-variate generation for the samplers and simulators.

The generalised inverse Gaussian (GIG) sampler is the workhorse: every
latent block of the Gibbs scans is GIG-distributed.  Its one entry point,
``gig_rvs``, takes one scalar order per call and arrays of c and d; a
scalar pair is drawn as a one-element array.  Orders +-1/2 are an
inverse Gaussian or its reciprocal and are drawn exactly, without
rejection, by the transformation method of Michael, Schucany & Haas
(1976) (``Generator.wald``).  Every other order goes through the
uniformly fast rejection algorithm of Devroye (2014, Stat. Comput. 24),
vectorised over an array of c*d at the one order.  Gamma /
inverse-gamma limits are dispatched at the degenerate boundaries.

Every draw takes a ``np.random.Generator``.  Streams are derived from
(seed, key-path) pairs via numpy's SeedSequence spawning, so parallel
replications are reproducible regardless of scheduling: unit of work
(rep r, stage s) always draws from ``RngStream(seed).child(r, s).generator()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import blas, lapack

from . import specfun

__all__ = [
    "RngStream",
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

# Devroye's sampler accepts within two rounds on average for every (nu, omega)
# its hat can be built for; a draw still pending after this many rounds comes
# from a hat that float arithmetic broke (omega near 1e150 or more).
_DEVROYE_MAX_ROUNDS = 1000


class FactorizationError(RuntimeError):
    """Raised when a precision matrix is numerically indefinite."""


@dataclass(frozen=True)
class RngStream:
    """Seed plus key path identifying one independent random stream.

    Identical (seed, key) pairs reproduce draw sequences bit for bit;
    distinct keys give statistically independent streams.  The seed is
    an integer >= 0.
    """

    seed: int
    key: tuple = field(default=())

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")

    def child(self, *subkey: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(int(k) for k in subkey))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.key)
        return np.random.default_rng(ss)


def _no_acceptance(lam, omega):
    raise ValueError(f"GIG rejection sampler accepted nothing in {_DEVROYE_MAX_ROUNDS} "
                     f"rounds at |nu| = {float(lam):g}, omega = c*d = {float(omega):g}; "
                     f"the parameters leave the range it can draw from")


def _devroye_gig_two_param(gen: np.random.Generator, lam: float, omega: np.ndarray) -> np.ndarray:
    """Draw from the two-parameter GIG density ~ y^(lam-1) exp(-omega (y + 1/y)/2).

    One order lam >= 0 for every draw, and a 1-d array of omega > 0.
    Rejection from a three-piece hat around the mode of the
    log-transformed density; expected number of rounds is bounded (< 2)
    uniformly in (lam, omega).
    """
    # a numpy scalar: at order 0, 1/lam is inf where a float raises
    lam = np.float64(lam)
    # a hat that float arithmetic breaks (omega near 1e150 or more) gives
    # inf or NaN here, and the bounded rounds below then raise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = np.sqrt(omega * omega + lam * lam) - lam

        def psi(x):
            return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)

        def dpsi(x):
            return -alpha * np.sinh(x) - lam * np.expm1(x)

        one = np.ones_like(alpha)
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
    for _ in range(_DEVROYE_MAX_ROUNDS):
        if not pending.size:
            break
        u = gen.random(pending.size)
        v = gen.random(pending.size)
        w = gen.random(pending.size)
        pp, qq, rr = p[pending], q[pending], r[pending]
        tt, ss = t[pending], s[pending]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cand = np.where(
                u < qq / total[pending],
                -sd[pending] + qq * v,
                np.where(
                    u < (qq + rr) / total[pending],
                    td[pending] - rr * np.log(v),
                    -sd[pending] + pp * np.log(v),
                ),
            )
            # hat value: 1 on the flat middle piece, exponential tails outside
            upper = np.where(
                cand > td[pending],
                np.exp(-eta[pending] - zeta[pending] * (cand - tt)),
                np.where(
                    cand < -sd[pending],
                    np.exp(-theta[pending] + xi[pending] * (cand + ss)),
                    1.0,
                ),
            )
            logf = -alpha[pending] * (np.cosh(cand) - 1.0) - lam * (np.expm1(cand) - cand)
            # non-finite candidates (a zero uniform hit an exponential tail)
            # carry no mass; redraw them
            acc = (np.log(w) + np.log(upper) <= logf) & np.isfinite(cand)
        out[pending[acc]] = cand[acc]
        pending = pending[~acc]
    if pending.size:
        _no_acceptance(lam, omega[pending[0]])

    # undo the log / mode-centering transform
    return np.exp(out) * (lam / omega + np.sqrt(1.0 + (lam / omega) ** 2))


def _extremes(c, d) -> tuple:
    """(min c, max c, min c*d, max c*d) as Python floats; NaN propagates,
    and an empty array gives inf for its minimum and -inf for its maximum.

    For a float c, rounding x -> c*x is monotone, so the extremes of c*d
    are c*min(d) and c*max(d) and no c*d array is built.
    """
    if isinstance(c, float):
        return (c, c, c * float(d.min(initial=math.inf)),
                c * float(d.max(initial=-math.inf)))
    # an inf product is screened as out of range by the caller
    with np.errstate(over="ignore"):
        cd = c * d
    return (float(c.min(initial=math.inf)), float(c.max(initial=-math.inf)),
            float(cd.min(initial=math.inf)), float(cd.max(initial=-math.inf)))


def _wald_gig_half_order(gen: np.random.Generator, negative: bool, c, d, bounds):
    """Exact GIG(-1/2, c, d) draws when ``negative``, else GIG(1/2, c, d),
    by the Wald (inverse Gaussian) law.

    GIG(-1/2, c, d) is IG(mean d/c, shape d^2), and GIG(1/2, c, d) is the
    reciprocal of IG(mean c/d, shape c^2).  Interior pairs can still put a
    mean or a shape outside the double range, where ``Generator.wald``
    raises on 0 and returns NaN on inf, so they are bounded first from
    ``bounds``, the (min c, max c, min c*d, max c*d) of :func:`_extremes`:
    the mean c/d is c^2 / (c d), d is (c d) / c, and the bounds below lie
    within a few roundings of the extremes of the arrays the draw builds,
    a margin that 1e-300 and 1e300 leave wide.  Only when they do not
    clear the draw are the arrays' own extremes tested; a ValueError then
    names the mean or shape that leaves the range.
    """
    c_lo, c_hi, cd_lo, cd_hi = bounds
    # Python floats: an overflow gives inf without a warning
    if negative:
        d_lo, d_hi = cd_lo / c_hi, cd_hi / c_lo
        plain = (1e-300 <= d_lo / c_hi and 1e-300 <= d_lo * d_lo
                 and d_hi / c_lo <= 1e300 and d_hi * d_hi <= 1e300)
    else:
        plain = (1e-300 <= c_lo * c_lo / cd_hi and 1e-300 <= c_lo * c_lo
                 and c_hi * c_hi / cd_lo <= 1e300 and c_hi * c_hi <= 1e300)
    if plain:
        mean, shape = (d / c, d * d) if negative else (c / d, c * c)
    else:
        with np.errstate(over="ignore", under="ignore"):
            mean, shape = (d / c, d * d) if negative else (c / d, c * c)
        order, forms = ("-1/2", ("d/c", "d^2")) if negative else ("1/2", ("c/d", "c^2"))
        for name, form, x in (("mean", forms[0], mean), ("shape", forms[1], shape)):
            lo, hi = np.min(x, initial=math.inf), np.max(x, initial=-math.inf)
            if not (lo > 0.0 and hi < math.inf):
                fate = "underflows to 0" if not lo > 0.0 else "overflows to inf"
                raise ValueError(f"GIG({order}) Wald {name} {form} {fate}; "
                                 f"the parameters leave the double range")
    x = gen.wald(mean, shape)
    return x if negative else np.divide(1.0, x, out=x)


def _gig_interior(gen: np.random.Generator, nu: float, c, d, bounds):
    """GIG draws for pairs away from the gamma / inverse-gamma limits.

    c or d is an array (a scalar pair comes as a one-element d).  Orders
    +-1/2 are drawn by Wald; any other order by Devroye's sampler, which
    takes the one order |nu| and c*d flattened.  A scale d/c that
    underflows to 0 raises ValueError before anything is drawn; a draw
    that overflows raises after.
    """
    if abs(nu) == 0.5:
        return _wald_gig_half_order(gen, nu < 0, c, d, bounds)
    # a scale d/c that overflows raises after the draw, below
    with np.errstate(over="ignore"):
        scale = d / c
        omega = c * d
    if scale.min(initial=math.inf) == 0.0:
        raise ValueError(f"GIG({nu:g}) scale d/c underflows to 0; "
                         f"the parameters leave the double range")
    y = _devroye_gig_two_param(gen, abs(nu), omega.ravel()).reshape(omega.shape)
    with np.errstate(divide="ignore", over="ignore"):
        x = (1.0 / y if nu < 0 else y) * scale
    if not np.isfinite(x).all():
        raise ValueError(f"GIG({nu:g}) draw overflows to inf; "
                         f"the scale d/c leaves the double range")
    return x


def _gig_with_limits(gen: np.random.Generator, nu: float, c: np.ndarray, d: np.ndarray):
    """GIG draws when some pair sits at or near a degenerate boundary; c and
    d are finite, non-negative arrays of one shape.

    A pair with c*d below GIG_BOUNDARY_EPS takes the gamma limit when
    nu > 0 and the inverse-gamma limit when nu < 0; order 0 has no limit
    law there and raises, as does a limit draw that overflows or a limit
    scale (2/c^2 for the gamma, d^2/2 for the inverse gamma) that
    underflows to 0.  A pair whose c*d overflows to inf leaves Devroye's
    sampler no hat, so an order other than +-1/2 then raises before
    anything is drawn.  The limit draws come first, in index order, then
    those of the other pairs.
    """
    if np.any((c == 0) & (d == 0)):
        raise ValueError("GIG parameters need c > 0 or d > 0")
    if nu <= 0 and np.any(d == 0):
        raise ValueError("gamma limit (d = 0) requires nu > 0")
    if nu >= 0 and np.any(c == 0):
        raise ValueError("inverse-gamma limit (c = 0) requires nu < 0")

    out = np.empty(c.shape)
    with np.errstate(over="ignore"):
        cd = c * d
    limit = cd < GIG_BOUNDARY_EPS
    count = np.count_nonzero(limit)
    if count and nu == 0:
        raise ValueError("GIG order 0 has no limit law: it needs c*d >= GIG_BOUNDARY_EPS")
    if abs(nu) != 0.5 and cd.max(initial=0.0) == math.inf:
        _no_acceptance(abs(nu), math.inf)
    if count:
        # the scale 2/c^2 or d^2/2 can leave the double range; one that
        # underflows raises before anything is drawn
        law, form = ("gamma", "2/c^2") if nu > 0 else ("inverse-gamma", "d^2/2")
        with np.errstate(divide="ignore", over="ignore"):
            square = np.square(c[limit] if nu > 0 else d[limit])
            scale = 2.0 / square if nu > 0 else square / 2.0
            if scale.min() == 0.0:
                raise ValueError(f"GIG({nu:g}) {law} limit scale {form} underflows to 0; "
                                 f"the parameters leave the double range")
            draws = (gen.gamma(nu, size=count) * scale if nu > 0
                     else square / (2.0 * gen.gamma(-nu, size=count)))
        if not np.isfinite(draws).all():
            raise ValueError(f"GIG({nu:g}) {law} limit overflows to inf; "
                             f"the parameters leave the double range")
        out[limit] = draws
    if count < limit.size:
        rest = ~limit
        c, d = c[rest], d[rest]
        out[rest] = _gig_interior(gen, nu, c, d, _extremes(c, d))
    return out


def gig_rvs(gen: np.random.Generator, nu, c, d):
    """GIG draws for one order nu; c and d broadcast against each other.

    Density proportional to x^(nu-1) exp(-(c^2 x + d^2 / x) / 2).  nu is
    one scalar order: an array raises ValueError.  Scalar c and d give a
    float: the pair is drawn as a one-element array, with the same draw
    and the same stream state as that array gives.

    Every input is screened once by the extremes of c and c*d.  When nu
    is finite, c > 0 and GIG_BOUNDARY_EPS <= c*d < inf for every pair,
    the pairs are interior: orders +-1/2 are drawn exactly by the Wald
    law and every other order by Devroye's rejection sampler.  Any other
    input must be finite with c >= 0 and d >= 0.  Its pairs with c*d
    below GIG_BOUNDARY_EPS then draw Gamma(nu, rate c^2/2) when nu > 0
    (this is the d = 0 case too) and the mirrored inverse-gamma limit
    when nu < 0, before the other pairs are drawn, so one call over pairs
    with a zero d orders its draws by kind, not by index.

    Raises ValueError for parameters outside that law (a zero d needs
    nu > 0, a zero c needs nu < 0, order 0 needs c*d >= GIG_BOUNDARY_EPS),
    when a Wald mean or shape of an order +-1/2 leaves the double range
    (overflows to inf or underflows to 0), when the scale of a draw
    underflows to 0 (d/c for Devroye's sampler, 2/c^2 for the gamma
    limit, d^2/2 for the inverse-gamma limit), when a draw overflows to
    inf, or when Devroye's sampler accepts nothing in a bounded number of
    rounds, which happens only where float arithmetic breaks its hat
    (c*d near 1e150 or more; a c*d that overflows to inf raises before
    any round).  So every input returns or raises.  A scale
    that underflows raises before its pairs are drawn.  The scale is
    tested, not the draw: a draw can still be 0 when the variate it
    scales underflows, as a gamma variate of a small order does (order
    1e-3 at unit scale gives 0.0 in about half its draws).
    """
    if not isinstance(nu, float):
        if np.ndim(nu):
            raise ValueError("gig_rvs takes one scalar order nu")
        nu = float(nu)
    c, d = (float(a) if isinstance(a, float) or np.ndim(a) == 0
            else np.asarray(a, dtype=float) for a in (c, d))
    scalar = isinstance(c, float) and isinstance(d, float)
    if scalar:
        d = np.array([d])
    bounds = _extremes(c, d)
    c_lo, _, cd_lo, cd_hi = bounds
    if math.isfinite(nu) and c_lo > 0.0 and cd_lo >= GIG_BOUNDARY_EPS and cd_hi < math.inf:
        out = _gig_interior(gen, nu, c, d, bounds)
    else:
        c, d = np.broadcast_arrays(c, d)
        if not (math.isfinite(nu) and np.isfinite(c).all() and np.isfinite(d).all()
                and (c >= 0).all() and (d >= 0).all()):
            raise ValueError("GIG parameters must be finite with c >= 0, d >= 0")
        out = _gig_with_limits(gen, nu, c, d)
    return float(out[0]) if scalar else out


def gig_moment(nu: float, c: float, d: float, order: float) -> float:
    """E[X^order] for X ~ GIG(nu, c, d), via scaled Bessel ratios.

    Only valid away from the degenerate boundaries (c > 0 and d > 0).
    """
    if c <= 0 or d <= 0:
        raise ValueError("moments via Bessel ratios need c > 0 and d > 0")
    w = c * d
    log_ratio = specfun.log_bessel_k(nu + order, w) - specfun.log_bessel_k(nu, w)
    return (d / c) ** order * np.exp(log_ratio)


def _cholesky_lower(matrix, overwrite=False):
    """Lower Cholesky factor by LAPACK potrf; only the lower triangle is
    read, and the upper one of the result is left as it was."""
    lower, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=int(overwrite))
    if info != 0:
        raise FactorizationError(f"matrix is not positive definite (potrf info={info})")
    return lower


def mvn_from_precision(gen: np.random.Generator, precision, linear_term) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) given precision P and linear term h.

    One Cholesky factorisation P = L L', then the mean from the two
    triangular solves of potrs and the noise L'^-1 z from one of trtrs,
    with z ~ N(0, I_k); the covariance is never formed.  O(k^3).
    """
    precision = np.asarray(precision, dtype=float)
    h = np.asarray(linear_term, dtype=float)
    if not (np.isfinite(precision).all() and np.isfinite(h).all()):
        raise ValueError("Gaussian draw needs finite inputs")
    lower = _cholesky_lower(precision)
    mean, _ = lapack.dpotrs(lower, h, lower=1)
    noise, _ = lapack.dtrtrs(lower, gen.standard_normal(h.shape[0]), lower=1, trans=1)
    return mean + noise


def mvn_low_rank(gen: np.random.Generator, x, row_scale, prior_var, alpha) -> np.ndarray:
    """Draw from N(P^-1 phi' alpha, P^-1) with P = phi' phi + diag(1 / prior_var)
    and phi = diag(row_scale) x, an n x k matrix; phi is never formed.

    The algorithm of Bhattacharya, Chakraborty & Mallick (2016,
    Biometrika 103): draw u ~ N(0, diag(prior_var)) and delta ~ N(0, I_n),
    solve (phi diag(prior_var) phi' + I_n) w = alpha - (phi u + delta),
    and return u + prior_var * phi' w.  With xs = x diag(sqrt(prior_var)),
    the one n x k temporary, the system matrix is diag(row_scale) xs xs'
    diag(row_scale) + I_n: about n^2 k flops for the lower triangle of
    xs xs' by a symmetric rank-k update (dsyrk), and n^3 / 3 for its
    Cholesky factor.  The k x k precision is never formed, so this is the
    cheaper exact draw when k > n.  Takes k + n standard normals, u's
    first.  A zero prior variance pins its coefficient at 0; a negative
    one raises FactorizationError.
    """
    x = np.asarray(x, dtype=float)
    row_scale = np.asarray(row_scale, dtype=float)
    prior_var = np.asarray(prior_var, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if not (np.isfinite(prior_var).all() and np.isfinite(row_scale).all()
            and np.isfinite(alpha).all()):
        raise ValueError("Gaussian draw needs finite inputs")
    if prior_var.min(initial=math.inf) < 0.0:
        raise FactorizationError("low-rank Gaussian draw needs prior variances >= 0")
    n, k = x.shape
    sd = np.sqrt(prior_var)
    xs = x * sd
    # xs.T is Fortran-ordered, so dsyrk reads it in place; the result is
    # Fortran-ordered with its lower triangle filled, as potrf wants it
    gram = blas.dsyrk(1.0, xs.T, trans=1, lower=1)
    gram *= row_scale[:, None]
    gram *= row_scale
    gram.flat[:: n + 1] += 1.0
    # a non-finite x shows up here too
    if not np.isfinite(gram).all():
        raise ValueError("Gaussian draw needs finite inputs")
    lower = _cholesky_lower(gram, overwrite=True)
    z = gen.standard_normal(k + n)
    u = z[:k]
    w, _ = lapack.dpotrs(lower, alpha - row_scale * (xs @ u) - z[k:], lower=1)
    w *= row_scale
    out = xs.T @ w
    out += u
    out *= sd
    return out


def ald_sample(gen: np.random.Generator, mu, sigma, tau, size=None):
    """Asymmetric Laplace draw with density (tau(1-tau)/sigma) exp(-rho_tau((x-mu)/sigma)).

    P(X <= mu) = tau exactly.  Constructed as mu + sigma (E1/tau - E2/(1-tau))
    with independent unit exponentials.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
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
