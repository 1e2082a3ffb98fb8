"""Gibbs samplers for Huberised regularised quantile regression.

One scan updates beta, sigma, then v with the penalty latents, the penalty
rates, rho2 and eta.  Given beta and sigma, v and the penalty latents are
independent GIG(1/2) variables, so one GIG call draws all n + k of them
(:func:`update_v_and_latents`), with the variates of the separate calls
:func:`update_v` and :func:`update_s` / :func:`update_t`.  Each penalty
family is one object, its hyperparameter dataclass:

* LassoHyper: coefficient scales s_j with a gamma-updated squared rate;
* ElasticNetHyper: latents u_j = t_j - 1 > 0, stored as drawn, with a
  gamma step for the ridge rate and a one-step Metropolis-Hastings move
  for the reparameterised l1 rate.

Its fields are its config keys.  It names its study ``method`` label
and ``Rates``, the NamedTuple of its rates whose field names are their
sample columns and whose ``log_prior`` is the beta | rho2 prior in closed
form, and gives ``init`` (a new state's ``latent`` and
``rates``), ``prior_precision`` (the beta prior's diagonal),
``rho2_quadratic`` (rho2 * sum(beta_j^2 * prior_precision_j)),
``latent_params`` (the GIG(1/2) parameters of its latents) and
``update`` (which draws ``rates``; :func:`run_chain` sets v and ``latent``
from the joint draw).  Every latent block has a generalised inverse Gaussian full conditional.  The
orders of the sigma and rho2 blocks follow the chain's GIG mixing index
lambda, ``loss_density.CHAIN_MIXING_INDEX``.  The robustness parameter
eta is updated by a gamma approximation whose (shape, rate) pair is
refined by a fixed-point iteration, at most 10 passes to a relative
tolerance of 1e-8, before a single draw is taken; that step is written
for index 1 only.
The block updates draw from the ``np.random.Generator`` that
:func:`run_chain` passes them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple, Optional, Union

import numpy as np

from . import loss_density, specfun
from .randist import RngStream, gig_rvs, mvn_from_precision, mvn_low_rank

__all__ = [
    "Dataset",
    "LassoHyper",
    "ElasticNetHyper",
    "ModelSpec",
    "ChainState",
    "ChainHealth",
    "PosteriorSamples",
    "ChainError",
    "initial_state",
    "update_beta",
    "update_sigma",
    "update_v",
    "update_v_and_latents",
    "update_rho2",
    "update_s",
    "update_lambda1_sq",
    "update_t",
    "update_lambda4",
    "mh_update_lambda3_tilde",
    "lambda3_log_accept_ratio",
    "refine_eta_gamma_params",
    "update_eta_approx",
    "run_chain",
    "summarize",
]

_POSITIVITY_FLOOR = 1e-300
_ETA_REFINE_ITERS = 10
_ETA_REFINE_TOL = 1e-8


class ChainError(RuntimeError):
    """An update failed; carries the iteration index and block name."""


@dataclass(frozen=True)
class Dataset:
    """Design matrix X (n x k) and response y (n,); all entries finite."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if y.ndim != 1 or y.size != X.shape[0]:
            raise ValueError("y must be 1-d with len(y) == X.shape[0]")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("X and y must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class LassoHyper:
    """Lasso: gamma hyperparameters (a, b) for the squared l1 rate and (c, d)
    for eta."""

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    d: float = 1.0

    method: ClassVar[str] = "HBQR-BL"

    class Rates(NamedTuple):
        lambda1_sq: float

        def log_prior(self, beta, l1_scale, l2_scale):
            """-sqrt(lambda1_sq) |beta| l1_scale: the Laplace marginal of s (Park
            & Casella 2008), up to a constant; l2_scale is unused."""
            return -math.sqrt(self.lambda1_sq) * np.abs(beta) * l1_scale

    def __post_init__(self):
        if not all(0.0 < getattr(self, f.name) < math.inf for f in fields(self)):
            raise ValueError("lasso hyperparameters must be finite and > 0")

    @property
    def eta_prior(self):
        return (self.c, self.d)

    def init(self, k: int) -> tuple:
        return np.ones(k), self.Rates(1.0)

    def prior_precision(self, state: ChainState) -> np.ndarray:
        return 1.0 / (state.rho2 * state.latent)

    def rho2_quadratic(self, state: ChainState) -> float:
        quad = state.beta**2
        quad /= state.latent
        return float(quad.sum())

    @staticmethod
    def latent_params(state: ChainState, out: Optional[np.ndarray] = None) -> tuple:
        """(c, d) of the GIG(1/2) s_j: sqrt(l1sq) and |beta_j| / sqrt(rho2),
        d written to ``out`` when given."""
        d = np.abs(state.beta, out=out)
        d /= math.sqrt(state.rho2)
        return math.sqrt(state.rates.lambda1_sq), d

    def update(self, state: ChainState, data: Dataset, spec: ModelSpec, gen, health) -> None:
        state.rates = self.Rates(update_lambda1_sq(state, data, spec, gen))


@dataclass(frozen=True)
class ElasticNetHyper:
    """Elastic net: gamma hyperparameters (a1, b1) for the reparameterised l1
    rate, (a2, b2) for the ridge rate and (a3, b3) for eta."""

    a1: float = 1.0
    b1: float = 1.0
    a2: float = 1.0
    b2: float = 1.0
    a3: float = 1.0
    b3: float = 1.0

    method: ClassVar[str] = "HBQR-EN"

    class Rates(NamedTuple):
        lambda3_tilde: float
        lambda4: float

        def log_prior(self, beta, l1_scale, l2_scale):
            """-lambda3 |beta| l1_scale - lambda4 beta^2 / l2_scale, the marginal
            of u up to a constant, with lambda3 = 2 sqrt(lambda3_tilde lambda4)."""
            lambda3 = 2.0 * math.sqrt(self.lambda3_tilde * self.lambda4)
            return -lambda3 * np.abs(beta) * l1_scale - self.lambda4 * beta**2 / l2_scale

    def __post_init__(self):
        if not all(0.0 < getattr(self, f.name) < math.inf for f in fields(self)):
            raise ValueError("elastic-net hyperparameters must be finite and > 0")

    @property
    def eta_prior(self):
        return (self.a3, self.b3)

    def init(self, k: int) -> tuple:
        return np.ones(k), self.Rates(1.0, 1.0)

    def prior_precision(self, state: ChainState) -> np.ndarray:
        return (2.0 * state.rates.lambda4 / state.rho2) * (1.0 + state.latent) / state.latent

    def rho2_quadratic(self, state: ChainState) -> float:
        quad = 1.0 + state.latent
        quad *= 2.0 * state.rates.lambda4
        quad *= state.beta**2
        quad /= state.latent
        return float(quad.sum())

    @staticmethod
    def latent_params(state: ChainState, out: Optional[np.ndarray] = None) -> tuple:
        """(c, d) of the GIG(1/2) u_j: sqrt(2 l3t) and
        |beta_j| sqrt(2 l4 / rho2), d written to ``out`` when given."""
        d = np.abs(state.beta, out=out)
        lam3_tilde, lam4 = state.rates
        d *= math.sqrt(2.0 * lam4 / state.rho2)
        return math.sqrt(2.0 * lam3_tilde), d

    def update(self, state: ChainState, data: Dataset, spec: ModelSpec, gen, health) -> None:
        lam4 = update_lambda4(state, data, spec, gen)
        lam3_tilde = mh_update_lambda3_tilde(state, data, spec, gen, health)
        state.rates = self.Rates(lam3_tilde, lam4)


PenaltyHyper = Union[LassoHyper, ElasticNetHyper]


@dataclass(frozen=True)
class ModelSpec:
    """Quantile level, penalty family and sampler controls.

    rho2_invgamma switches the scale prior from the default improper
    1/rho2 to a proper inverse gamma (shape, rate); the Gibbs update
    absorbs it exactly.  A chain keeps at least 2 draws, and its seed is
    one that :class:`RngStream` takes.
    """

    tau: float = 0.5
    penalty: PenaltyHyper = field(default_factory=LassoHyper)
    n_iter: int = 2500
    burn_in: int = 500
    thin: int = 1
    seed: int = 0
    rho2_invgamma: Optional[tuple] = None

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.n_iter < 1 or self.burn_in < 0 or self.burn_in >= self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        kept = (self.n_iter - self.burn_in) // self.thin
        if kept < 2:
            raise ValueError(f"need at least 2 kept draws, got (n_iter - burn_in) // thin = {kept}")
        RngStream(self.seed)
        if self.rho2_invgamma is not None:
            a0, g0 = self.rho2_invgamma
            if not (0.0 < a0 < math.inf and 0.0 < g0 < math.inf):
                raise ValueError("inverse-gamma shape and rate must be finite and > 0")


@dataclass
class ChainState:
    """Current values of every sampled block.

    The penalty family's ``init`` gives ``latent``, its latents (s_j for
    the lasso; u_j = t_j - 1 for the elastic net, stored as drawn), and
    ``rates``, its ``Rates``.
    """

    beta: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    rho2: float
    eta: float
    latent: np.ndarray
    rates: tuple


@dataclass
class ChainHealth:
    """Counters for numerically guarded events during a run."""

    positivity_clamps: int = 0
    eta_update_skips: int = 0
    mh_proposals: int = 0
    mh_accepts: int = 0

    def as_lines(self) -> list:
        rate = self.mh_accepts / self.mh_proposals if self.mh_proposals else float("nan")
        return [
            f"positivity_clamps={self.positivity_clamps}",
            f"eta_update_skips={self.eta_update_skips}",
            f"mh_proposals={self.mh_proposals}",
            f"mh_accepts={self.mh_accepts}",
            f"mh_accept_rate={rate:.6f}" if self.mh_proposals else "mh_accept_rate=nan",
        ]


@dataclass
class PosteriorSamples:
    """Thinned post-burn-in draws, one row per retained scan."""

    draws: np.ndarray
    columns: list
    health: ChainHealth


def initial_state(data: Dataset, spec: ModelSpec) -> ChainState:
    """Interior starting point: unit latents, coefficient zero, data-scaled rho2.

    rho2 starts at the response variance, or at 1 when that is 0 or
    overflows to inf.
    """
    n, k = data.n, data.k
    with np.errstate(over="ignore"):
        var_y = float(np.var(data.y, ddof=1)) if n > 1 else 0.0
    latent, rates = spec.penalty.init(k)
    return ChainState(
        beta=np.zeros(k),
        v=np.ones(n),
        sigma=np.ones(n),
        rho2=var_y if 0.0 < var_y < math.inf else 1.0,
        eta=1.0,
        latent=latent,
        rates=rates,
    )


def update_beta(state: ChainState, data: Dataset, spec: ModelSpec, gen) -> np.ndarray:
    """Multivariate-normal block draw, N(P^-1 h, P^-1).

    Precision P = X' V^-1 X + prior diagonal, linear term
    h = X' V^-1 (y - (1-2 tau) v), with V = diag(4 sigma_i v_i).  The
    shape picks the exact draw: when k > n, the O(n^2 k) low-rank form
    on phi = V^-1/2 X, which it is given as X and the row scale V^-1/2
    (k + n normals); otherwise the O(k^3) precision form (k normals).

    A Gram product that overflows warns, and :func:`run_chain`'s filter
    makes the warning this block's ChainError; one that overflows in
    another BLAS thread, unflagged here, fails the draw's finiteness check.
    """
    # the product of two floored latents can still underflow; keep 1/V finite
    winv = 4.0 * state.sigma
    winv *= state.v
    np.maximum(winv, 1e-280, out=winv)
    np.divide(1.0, winv, out=winv)
    target = (1.0 - 2.0 * spec.tau) * state.v
    np.subtract(data.y, target, out=target)
    prior_precision = spec.penalty.prior_precision(state)
    if data.k > data.n:
        root = np.sqrt(winv)
        return mvn_low_rank(gen, data.X, root, 1.0 / prior_precision, root * target)
    xw = data.X * winv[:, None]
    precision = xw.T @ data.X
    linear_term = xw.T @ target
    precision.flat[:: data.k + 1] += prior_precision
    return mvn_from_precision(gen, precision, linear_term)


def update_sigma(state: ChainState, data: Dataset, spec: ModelSpec, gen,
                 resid: np.ndarray) -> np.ndarray:
    """Per-observation GIG(lambda - 3/2) draws for the global mixing
    latents, lambda the chain's mixing index (order -1/2 at lambda = 1).

    ``resid`` is y - X beta at the state; it is only read.
    """
    tau = spec.tau
    # d^2 = (resid - (1 - 2 tau) v)^2 / (4 v) + tau (1 - tau) v + eta rho2,
    # built in place in d and one scratch array
    d = (1.0 - 2.0 * tau) * state.v
    np.subtract(resid, d, out=d)
    d *= d
    scratch = 4.0 * state.v
    d /= scratch
    np.multiply(tau * (1.0 - tau), state.v, out=scratch)
    d += scratch
    d += state.eta * state.rho2
    np.sqrt(d, out=d)
    c = math.sqrt(state.eta / state.rho2)
    return gig_rvs(gen, loss_density.CHAIN_MIXING_INDEX - 1.5, c, d)


def update_v(state: ChainState, data: Dataset, spec: ModelSpec, gen,
             resid: np.ndarray) -> np.ndarray:
    """Per-observation GIG(1/2) draws for the asymmetry latents.

    The x-coefficient (1-2 tau)^2/(4 sigma) + tau(1-tau)/sigma collapses
    to 1/(4 sigma); exact-zero residuals hit the gamma boundary of the
    GIG sampler rather than being jittered.  ``resid`` is as in
    :func:`update_sigma`.
    """
    return gig_rvs(gen, 0.5, *_v_params(state, resid))


def _v_params(state: ChainState, resid: np.ndarray, c=None, d=None) -> tuple:
    """(c, d) of the GIG(1/2) v_i: 1/(2 sqrt(sigma_i)) and |resid_i| c_i,
    written to ``c`` and ``d`` when given."""
    c = np.sqrt(state.sigma, out=c)
    np.divide(0.5, c, out=c)
    d = np.abs(resid, out=d)
    d *= c
    return c, d


def update_v_and_latents(state: ChainState, data: Dataset, spec: ModelSpec, gen,
                         resid: np.ndarray) -> np.ndarray:
    """v and the penalty family's latents in one GIG(1/2) call: the n
    draws of :func:`update_v`, then the k of :func:`update_s` (lasso) or
    :func:`update_t` (elastic net, t_j - 1 as drawn).

    Given beta and sigma the two blocks are independent, and numpy draws
    Wald variates element by element in index order, so when every pair
    is plainly interior one call over the n + k pairs gives the variates
    of the two calls.  A pair at a boundary (a zero residual or
    coefficient, c*d below GIG_BOUNDARY_EPS) takes its limit law inside
    the same call, which then orders the draws by kind (see
    :func:`gig_rvs`); each draw keeps its law.  ``resid`` is as in
    :func:`update_sigma`.
    """
    n = data.n
    c = np.empty(n + data.k)
    d = np.empty(n + data.k)
    _v_params(state, resid, c[:n], d[:n])
    c[n:], _ = spec.penalty.latent_params(state, d[n:])
    return gig_rvs(gen, 0.5, c, d)


def update_rho2(state: ChainState, data: Dataset, spec: ModelSpec, gen) -> float:
    """Single GIG draw for the scale; order -(lambda n + k/2) under the
    invariant prior, lambda the chain's mixing index.

    A proper inverse-gamma prior (shape a0, rate g0) shifts the order by
    -a0 and adds 2 g0 to the 1/x coefficient.
    """
    n, k = data.n, data.k
    c_sq = state.eta * float((1.0 / state.sigma).sum())
    d_sq = state.eta * float(state.sigma.sum()) + spec.penalty.rho2_quadratic(state)
    nu = -(loss_density.CHAIN_MIXING_INDEX * n + k / 2.0)
    if spec.rho2_invgamma is not None:
        a0, g0 = spec.rho2_invgamma
        nu -= a0
        d_sq += 2.0 * g0
    return float(gig_rvs(gen, nu, math.sqrt(c_sq), math.sqrt(d_sq)))


def update_s(state: ChainState, data: Dataset, spec: ModelSpec, gen) -> np.ndarray:
    """Lasso coefficient-scale latents: GIG(1/2, l1sq, beta_j^2/rho2)."""
    return gig_rvs(gen, 0.5, *LassoHyper.latent_params(state))


def update_lambda1_sq(state: ChainState, data: Dataset, spec: ModelSpec, gen) -> float:
    """Gamma(a + k, b + sum(s)/2) draw for the squared l1 rate."""
    hyper = spec.penalty
    shape = hyper.a + data.k
    rate = hyper.b + 0.5 * float(state.latent.sum())
    return float(gen.gamma(shape) / rate)


def update_t(state: ChainState, data: Dataset, spec: ModelSpec, gen) -> np.ndarray:
    """Elastic-net latents u_j = t_j - 1, GIG(1/2, 2 l3t, 2 l4 beta_j^2/rho2)."""
    return gig_rvs(gen, 0.5, *ElasticNetHyper.latent_params(state))


def update_lambda4(state: ChainState, data: Dataset, spec: ModelSpec, gen) -> float:
    """Gamma(k/2 + a2, sum((1 + u) beta^2 / (rho2 u)) + b2) draw for the ridge rate."""
    hyper = spec.penalty
    shape = data.k / 2.0 + hyper.a2
    quad = 1.0 + state.latent
    quad *= state.beta**2
    quad /= state.latent * state.rho2
    rate = float(quad.sum()) + hyper.b2
    return float(gen.gamma(shape) / rate)


def lambda3_log_accept_ratio(current: float, proposal: float, k: int) -> float:
    """log of the Metropolis-Hastings ratio for the l1-rate move.

    The target kernel Gamma^{-k}(1/2, lam) lam^{k/2+a1-1} exp(-(b1 + k + sum(u)) lam)
    over the independence proposal Gamma(k + a1, b1 + sum(u)) is
    exp(-k l(lam)), l(lam) = log Gamma(1/2, lam) + log(lam)/2 + lam: a1, b1
    and sum(u) cancel.  Identically zero when k = 0.
    """
    ell_proposal, ell_current = (specfun.log_upper_gamma_half(lam) + 0.5 * math.log(lam) + lam
                                 for lam in (proposal, current))
    return -k * (ell_proposal - ell_current)


def mh_update_lambda3_tilde(state: ChainState, data: Dataset, spec: ModelSpec, gen,
                            health: ChainHealth) -> float:
    """One Metropolis-Hastings step for the reparameterised l1 rate.

    Independence proposal Gamma(k + a1, b1 + sum(u_j)), whose tail matches
    the target; the acceptance ratio is assembled entirely in log space
    (the incomplete-gamma factor via its stable logarithm).
    """
    hyper = spec.penalty
    k = data.k
    current = state.rates.lambda3_tilde
    proposal = float(gen.gamma(k + hyper.a1) / (hyper.b1 + float(state.latent.sum())))
    log_ratio = lambda3_log_accept_ratio(current, proposal, k)
    u = gen.random()
    accept = math.log(u) < log_ratio if u > 0 else True
    health.mh_proposals += 1
    health.mh_accepts += int(accept)
    return proposal if accept else current


def refine_eta_gamma_params(a: float, b: float, s_sum: float, n: int,
                            eta_fallback: float):
    """Fixed-point refinement of the Gamma(shape A, rate B) approximation
    to the eta full conditional.

    The conditional carries K_lambda(eta)^-n at the chain's mixing index,
    and this step is written for index 1.  It starts from A = a + n/2,
    B = s_sum + b - n (the large-argument asymptotics of the Bessel
    normaliser); each pass matches the first two log-density derivatives
    at eta = A/B, both taken from one :func:`specfun.log_k1_derivs`
    call.  If the initial B is not positive, the iteration starts from
    ``eta_fallback`` instead.  It runs at most _ETA_REFINE_ITERS passes
    and stops once the gap is below _ETA_REFINE_TOL.

    Returns (A, B, gaps) where gaps is the per-iteration convergence
    criterion |eta / (A/B) - 1|.
    """
    A = a + n / 2.0
    B = s_sum + b - n
    eta = eta_fallback if B <= 0 else None
    gaps = []
    for _ in range(_ETA_REFINE_ITERS):
        if B > 0:
            eta = A / B
        d1, d2 = specfun.log_k1_derivs(eta)
        A = a + n * eta * eta * d2
        B = b + (A - a) / eta + n * d1 + s_sum
        if B > 0:
            gap = abs(eta / (A / B) - 1.0)
            gaps.append(gap)
            if gap < _ETA_REFINE_TOL:
                break
        else:
            gaps.append(float("inf"))
    return A, B, gaps


def update_eta_approx(state: ChainState, spec: ModelSpec, gen,
                      health: ChainHealth) -> float:
    """Approximate Gibbs step for eta: refine (A, B), then draw Gamma(A, B).

    If the rate stays nonpositive after the full refinement budget the
    update is skipped (eta retained) and the diagnostic counter bumps.
    """
    a, b = spec.penalty.eta_prior
    n = state.sigma.size
    ratio = state.sigma / state.rho2
    ratio += state.rho2 / state.sigma
    s_sum = 0.5 * float(ratio.sum())
    A, B, _ = refine_eta_gamma_params(a, b, s_sum, n, state.eta)
    if not (B > 0 and A > 0):
        health.eta_update_skips += 1
        return state.eta
    return float(gen.gamma(A) / B)


def _clamp_positive(arr: np.ndarray, health: ChainHealth) -> np.ndarray:
    """Floor a latent array at _POSITIVITY_FLOOR, counting the floored
    entries.

    Returns ``arr`` itself when nothing is below the floor; NaN entries
    pass through uncounted.
    """
    if arr.min(initial=math.inf) >= _POSITIVITY_FLOOR:
        return arr
    health.positivity_clamps += int((arr < _POSITIVITY_FLOOR).sum())
    return np.maximum(arr, _POSITIVITY_FLOOR)


def run_chain(data: Dataset, spec: ModelSpec, rng=None) -> PosteriorSamples:
    """Run one systematic-scan chain and collect thinned post-burn-in draws.

    Scan order: beta, sigma, v with the penalty latents, the penalty
    rates, rho2, eta.  Retains
    floor((n_iter - burn_in)/thin) rows of (beta, rho2, eta, penalty
    rates).  Draws from the Generator ``rng``, or from spec.seed's stream
    when ``rng`` is None.  A block that fails raises ChainError naming
    the block and the iteration; a numeric RuntimeWarning raised in an
    ``hqreg`` module (an overflow, a 0/0) is such a failure, whatever
    warning filters the caller has set.
    """
    gen = rng if rng is not None else RngStream(spec.seed).generator()
    state = initial_state(data, spec)
    health = ChainHealth()
    penalty = spec.penalty
    k = data.k

    columns = [f"beta_{j}" for j in range(k)] + ["rho2", "eta", *penalty.Rates._fields]
    n_keep = (spec.n_iter - spec.burn_in) // spec.thin
    draws = np.empty((n_keep, len(columns)))
    row = 0

    # one filter for the whole chain, not a numpy errstate per scan
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=RuntimeWarning, module="hqreg")
        for it in range(1, spec.n_iter + 1):
            block = "beta"
            try:
                state.beta = update_beta(state, data, spec, gen)
                block = "sigma"
                # sigma and v both read y - X beta, and beta stays fixed until
                # the next scan
                resid = data.y - data.X @ state.beta
                state.sigma = _clamp_positive(update_sigma(state, data, spec, gen, resid), health)
                block = "v and penalty latents"
                drawn = _clamp_positive(update_v_and_latents(state, data, spec, gen, resid),
                                        health)
                state.v, state.latent = drawn[: data.n], drawn[data.n:]
                block = "penalty"
                penalty.update(state, data, spec, gen, health)
                block = "rho2"
                state.rho2 = update_rho2(state, data, spec, gen)
                if state.rho2 < _POSITIVITY_FLOOR:
                    state.rho2 = _POSITIVITY_FLOOR
                    health.positivity_clamps += 1
                block = "eta"
                state.eta = update_eta_approx(state, spec, gen, health)
            except Exception as exc:
                raise ChainError(f"update '{block}' failed at iteration {it}: {exc}") from exc

            if it > spec.burn_in and (it - spec.burn_in) % spec.thin == 0 and row < n_keep:
                draws[row, :k] = state.beta
                draws[row, k:] = (state.rho2, state.eta, *state.rates)
                row += 1

    return PosteriorSamples(draws=draws, columns=columns, health=health)


def summarize(samples: PosteriorSamples) -> tuple:
    """Column-wise median and equal-tailed 95% interval: the one reduction
    of a chain.

    Returns (median, lower, upper), three arrays in ``samples.columns``
    order.
    """
    if samples.draws.shape[0] < 2:
        raise ValueError("need at least 2 retained draws to summarise")
    # (1 - 0.95) / 2 rounds to a double just above 0.025; outputs are written with it
    alpha = (1.0 - 0.95) / 2.0
    lower, upper = np.quantile(samples.draws, [alpha, 1.0 - alpha], axis=0)
    return np.median(samples.draws, axis=0), lower, upper
