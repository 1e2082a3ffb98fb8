"""Gibbs samplers for Huberised regularised quantile regression.

One scan updates, in order:

1. beta, one Gaussian block;
2. eta from its conditional with sigma integrated out (:func:`update_eta`);
3. sigma given that eta (:func:`update_sigma`), which completes the
   partially collapsed (eta, sigma) block of van Dyk & Park (2008, JASA);
4. v with the penalty latents, then the penalty rates;
5. rho2 by a scale-group move (:func:`update_rho2`);
6. at k > n only, a level move along eta and the level of sigma
   (:func:`update_level`).

Given beta and sigma, v and the penalty latents are independent GIG(1/2)
variables, so one GIG call draws all n + k of them
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
``rates``), ``prior_precision`` (the beta prior's diagonal, which the
beta and rho2 blocks both read), ``latent_params`` (the GIG(1/2)
parameters of its latents), ``scale_orbit`` (its share of the rho2
scale move) and ``update`` (which draws ``rates``; :func:`run_chain`
sets v and ``latent`` from the joint draw).  Every latent block has a generalised inverse
Gaussian full conditional.  The order of the sigma block follows the
chain's GIG mixing index lambda, ``loss_density.CHAIN_MIXING_INDEX``; the
rho2 move holds at any index, while the eta step and the level move carry
K_1 and are written for index 1 only.

Steps 2, 5 and 6 are each one stepping-out slice step (Neal 2003, Ann.
Statist.) on a scalar, with closed-form log densities: eta's on log eta,
and the two group moves' on their group element (Liu & Sabatti 2000,
JASA), which leave the posterior invariant.  At k > n the group moves
also shift beta along X'(XX')^-1 r, which maps the residual r to g r;
X'(XX')^-1 is formed once per chain.  The previous eta step, a refined gamma
approximation (:func:`update_eta_approx`), is no longer in the scan; it
stays, with the functions the scan no longer calls, for the benchmark's
tracer, which wraps them by name (ROADMAP item 14).
The block updates draw from the ``np.random.Generator`` that
:func:`run_chain` passes them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple, Optional, Union

import numpy as np
from scipy.linalg import lapack

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
    "sigma_quadratic",
    "update_eta",
    "update_sigma",
    "update_v",
    "update_v_and_latents",
    "update_rho2",
    "update_level",
    "update_s",
    "update_lambda1_sq",
    "update_t",
    "update_lambda4",
    "mh_update_lambda3_tilde",
    "lambda3_log_accept_ratio",
    "refine_eta_gamma_params",
    "update_eta_approx",
    "wide_projector",
    "residual_shift",
    "run_chain",
    "summarize",
]

_POSITIVITY_FLOOR = 1e-300
_ETA_REFINE_ITERS = 10
_ETA_REFINE_TOL = 1e-8
# slice widths: over sqrt(n) for eta (on log eta) and for rho2 while beta
# stays fixed (on log g); the moves that shift beta and the level move take 1
_ETA_SLICE_WIDTH = 10.0
_RHO2_SLICE_WIDTH = 3.0
# the stepping-out limit m of Neal (2003), in widths on each side together
_SLICE_MAX_STEPS = 50
# a row of XX' whose Cholesky pivot is below this share of its diagonal is
# taken as dependent on the rows before it
_WIDE_PIVOT_TOL = 1e-10
_SLICE_BLOCKS = ("eta", "rho2", "level")


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

    @staticmethod
    def latent_params(state: ChainState, out: Optional[np.ndarray] = None) -> tuple:
        """(c, d) of the GIG(1/2) s_j: sqrt(l1sq) and |beta_j| / sqrt(rho2),
        d written to ``out`` when given."""
        d = np.abs(state.beta, out=out)
        d /= math.sqrt(state.rho2)
        return math.sqrt(state.rates.lambda1_sq), d

    def scale_orbit(self, state: ChainState) -> tuple:
        """The lasso's share of the rho2 scale move g: (s, l1sq) -> (s/g, g l1sq),
        which keeps rho2 s_j and l1sq s_j.  Returns (alpha, R), which add
        alpha log g - R g to the move's log density, and the map of g to the
        new (latent, rates)."""
        lam = state.rates.lambda1_sq
        return self.a, self.b * lam, lambda g: (state.latent / g, self.Rates(g * lam))

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

    @staticmethod
    def latent_params(state: ChainState, out: Optional[np.ndarray] = None) -> tuple:
        """(c, d) of the GIG(1/2) u_j: sqrt(2 l3t) and
        |beta_j| sqrt(2 l4 / rho2), d written to ``out`` when given."""
        d = np.abs(state.beta, out=out)
        lam3_tilde, lam4 = state.rates
        d *= math.sqrt(2.0 * lam4 / state.rho2)
        return math.sqrt(2.0 * lam3_tilde), d

    def scale_orbit(self, state: ChainState) -> tuple:
        """The elastic net's share of the rho2 scale move g: lambda4 -> g lambda4,
        which keeps lambda4 / rho2; u and lambda3_tilde stay.  Returns (alpha,
        R) = (a2, b2 lambda4) and the map of g to the new (latent, rates)."""
        lam3_tilde, lam4 = state.rates
        return (self.a2, self.b2 * lam4,
                lambda g: (state.latent, self.Rates(lam3_tilde, g * lam4)))

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
    """Counters for numerically guarded events during a run, and the slice
    steps of the eta, rho2 and level blocks with their log-density
    evaluations.  ``eta_update_skips`` counted the skips of the gamma
    approximation, which the scan no longer takes; it stays 0."""

    positivity_clamps: int = 0
    eta_update_skips: int = 0
    mh_proposals: int = 0
    mh_accepts: int = 0
    slice_steps: dict = field(default_factory=lambda: dict.fromkeys(_SLICE_BLOCKS, 0))
    slice_evals: dict = field(default_factory=lambda: dict.fromkeys(_SLICE_BLOCKS, 0))

    def as_lines(self) -> list:
        rate = self.mh_accepts / self.mh_proposals if self.mh_proposals else float("nan")
        lines = [
            f"positivity_clamps={self.positivity_clamps}",
            f"eta_update_skips={self.eta_update_skips}",
            f"mh_proposals={self.mh_proposals}",
            f"mh_accepts={self.mh_accepts}",
            f"mh_accept_rate={rate:.6f}" if self.mh_proposals else "mh_accept_rate=nan",
        ]
        for block in _SLICE_BLOCKS:
            steps = self.slice_steps[block]
            mean = f"{self.slice_evals[block] / steps:.6f}" if steps else "nan"
            lines.append(f"{block}_slice_evals_per_step={mean}")
        return lines


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


def sigma_quadratic(state: ChainState, spec: ModelSpec, resid: np.ndarray) -> np.ndarray:
    """q_i = (resid_i - (1 - 2 tau) v_i)^2 / (4 v_i) + tau (1 - tau) v_i: sigma's
    d^2 less eta rho2, which the eta step and the sigma block share.

    ``resid`` is y - X beta at the state; it is only read.
    """
    tau = spec.tau
    # built in place in q and one scratch array
    q = (1.0 - 2.0 * tau) * state.v
    np.subtract(resid, q, out=q)
    q *= q
    scratch = 4.0 * state.v
    q /= scratch
    np.multiply(tau * (1.0 - tau), state.v, out=scratch)
    q += scratch
    return q


def update_sigma(state: ChainState, data: Dataset, spec: ModelSpec, gen,
                 resid: np.ndarray, q: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-observation GIG(lambda - 3/2) draws for the global mixing
    latents, lambda the chain's mixing index (order -1/2 at lambda = 1).

    c = sqrt(eta / rho2) and d_i = sqrt(q_i + eta rho2), with q from
    :func:`sigma_quadratic` of ``resid`` unless the scan passes it; q is
    only read.
    """
    if q is None:
        q = sigma_quadratic(state, spec, resid)
    d = q + state.eta * state.rho2
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


def update_rho2(state: ChainState, data: Dataset, spec: ModelSpec, gen, resid: np.ndarray,
                health: ChainHealth, shift: Optional[np.ndarray] = None) -> float:
    """The rho2 block: a scale-group move g (rho2, sigma, v) with the
    penalty family's scale (its ``scale_orbit``), g drawn by one slice step
    on u = log g from u = 0.  Returns g rho2; sigma, v (floored and
    counted), the family's latent and rates, and beta where it shifts,
    take their images in ``state``.

    With beta fixed, log p(u) = (alpha - n - a0) u - A e^-2u + B e^-u
    - R e^u, where A = sum(r^2 / (8 sigma v)) and B = (1 - 2 tau)
    sum(r / (4 sigma)) - g0 / rho2, (alpha, R) the family's and (a0, g0)
    ``rho2_invgamma`` (0 when unset).  The power of g holds at any mixing
    index lambda: sigma's prior gives rho2^-lambda sigma^(lambda - 1) per
    observation, and both scale with g.  A family whose ``scale_orbit``
    is None keeps its scale: g moves (rho2, sigma, v) alone and the beta
    prior adds -(k/2) u - (Q/2) e^-u, Q = sum(beta_j^2 prior_precision_j).

    Given ``shift``, delta = X'(XX')^-1 r from :func:`residual_shift`
    (k > n), and a family scale, the residual is free: beta moves to
    beta + (1 - g) delta, which maps r to g r and keeps the likelihood,
    and log p(u) = (alpha - a0) u - R e^u - (g0 / rho2) e^-u
    - (1 - g) S_bd - (1 - g)^2 S_dd / 2, with S_bd = sum(pi beta delta),
    S_dd = sum(pi delta^2) and pi the beta prior precision, which the move
    keeps.  The move then scales ``shift`` by g in place, which makes it
    the shift of the moved residual.  ``resid`` is y - X beta at the
    state; it is only read.
    """
    n, k = data.n, data.k
    rho2 = state.rho2
    a0, g0 = spec.rho2_invgamma or (0.0, 0.0)
    orbit = spec.penalty.scale_orbit(state)
    if orbit is None:
        # the beta prior's precision then moves with rho2, and the shifted
        # form below holds it fixed: keep beta
        alpha, big_r, scaled, shift = 0.0, 0.0, None, None
    else:
        alpha, big_r, scaled = orbit
    if shift is None:
        ratio = resid / state.sigma
        big_a = 0.125 * float(np.dot(ratio, resid / state.v))
        big_b = 0.25 * (1.0 - 2.0 * spec.tau) * float(ratio.sum()) - g0 / rho2
        power = alpha - n - a0
        if orbit is None:
            power -= k / 2.0
            big_b -= 0.5 * float(state.beta**2 @ spec.penalty.prior_precision(state))
        width = _RHO2_SLICE_WIDTH / math.sqrt(n)

        def log_density(u):
            inv = math.exp(-u)
            return power * u - big_a * inv * inv + big_b * inv - big_r * math.exp(u)
    else:
        s_bd, s_dd = _shift_prior_terms(spec.penalty.prior_precision(state), state.beta, shift)
        power = alpha - a0
        inv_rate = g0 / rho2
        width = 1.0

        def log_density(u):
            g = math.exp(u)
            return (power * u - big_r * g - inv_rate / g - (1.0 - g) * s_bd
                    - 0.5 * (1.0 - g) ** 2 * s_dd)

    g = _group_element("g", _slice_step(log_density, 0.0, width, gen, health, "rho2"))
    state.sigma = _scale_floored(state.sigma, g, health)
    state.v = _scale_floored(state.v, g, health)
    if scaled is not None:
        latent, state.rates = scaled(g)
        # s / g can fall below the floor only when g > 1
        state.latent = _clamp_positive(latent, health) if g > 1.0 else latent
    if shift is not None:
        state.beta = state.beta + (1.0 - g) * shift
        shift *= g
    return rho2 * g


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


def _scale_floored(arr: np.ndarray, g: float, health: ChainHealth) -> np.ndarray:
    """arr * g for a floored latent array, floored and counted as
    :func:`_clamp_positive` does; with g >= 1 no entry can fall below the
    floor, and the check is skipped."""
    out = arr * g
    return _clamp_positive(out, health) if g < 1.0 else out


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


def _slice_step(log_density, x0: float, width: float, gen, health: ChainHealth,
                block: str) -> float:
    """One slice step from x0 on a scalar log density, by stepping out at
    most _SLICE_MAX_STEPS widths and shrinking (Neal 2003, Ann. Statist.,
    figs. 3 and 5); it leaves the normalised density invariant.

    An evaluation that overflows or leaves the density's domain (a math
    error) counts as log density -inf.  The step and its evaluations,
    x0's included, are counted under ``block`` in ``health``.  A
    non-finite log density at x0 raises ValueError.
    """
    def above(x):
        nonlocal evals
        evals += 1
        try:
            return log_density(x) > level
        except (OverflowError, ZeroDivisionError, ValueError):
            return False

    evals = 1
    start = log_density(x0)
    if not -math.inf < start < math.inf:
        raise ValueError(f"{block} log density at the current state is {start}")
    # the slice level (log1p(-u) is minus a standard exponential), the
    # interval's place around x0 and the split of the step-out budget
    u_level, u_place, u_split = gen.random(3).tolist()
    level = start + math.log1p(-u_level)
    left = x0 - width * u_place
    right = left + width
    steps_left = int(_SLICE_MAX_STEPS * u_split)
    steps_right = _SLICE_MAX_STEPS - 1 - steps_left
    while steps_left > 0 and above(left):
        left -= width
        steps_left -= 1
    while steps_right > 0 and above(right):
        right += width
        steps_right -= 1
    while True:
        x = left + (right - left) * gen.random()
        if above(x):
            break
        if x < x0:
            left = x
        elif x > x0:
            right = x
        else:  # the interval has shrunk onto x0
            break
    health.slice_steps[block] += 1
    health.slice_evals[block] += evals
    return x


def _group_element(name: str, log_value: float) -> float:
    """exp(log_value), a drawn group element or eta, when it is finite and
    > 0; otherwise ValueError."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} = {value!r} is not finite and > 0")
    return value


def wide_projector(X: np.ndarray) -> Optional[np.ndarray]:
    """P = X'(XX')^-1, k x n, for the group moves that shift beta, or None:
    when k <= n, and when XX' is not numerically positive definite (a
    rank-deficient X, such as one with a repeated row), where those moves
    keep beta fixed.  One Cholesky factor of XX' per chain."""
    n, k = X.shape
    if k <= n:
        return None
    with np.errstate(all="ignore"):
        gram = X @ X.T
    if not np.isfinite(gram).all():
        return None
    lower, info = lapack.dpotrf(gram, lower=1, clean=1)
    if info != 0 or np.any(np.diag(lower) ** 2 <= _WIDE_PIVOT_TOL * np.diag(gram)):
        return None
    solved, _ = lapack.dpotrs(lower, X, lower=1)
    return solved.T


def residual_shift(projector: Optional[np.ndarray], resid: np.ndarray) -> Optional[np.ndarray]:
    """delta = X'(XX')^-1 resid, the beta direction that maps the residual
    to g times itself under beta + (1 - g) delta, from ``projector``, the
    :func:`wide_projector` of X; None without one."""
    if projector is None:
        return None
    return projector @ resid


def _shift_prior_terms(precision: np.ndarray, beta: np.ndarray, shift: np.ndarray) -> tuple:
    """(sum(pi beta delta), sum(pi delta^2)): the beta prior's change under
    beta + (1 - g) delta is -(1 - g) S_bd - (1 - g)^2 S_dd / 2."""
    weighted = precision * shift
    return float(weighted @ beta), float(weighted @ shift)


def update_eta(state: ChainState, spec: ModelSpec, gen, q: np.ndarray,
               health: ChainHealth) -> float:
    """eta from its conditional given beta, v and rho2, with sigma
    integrated out: one slice step on log eta, width 10/sqrt(n), with its
    Jacobian.  sigma must be drawn next, given this eta.

    sigma_i | . is GIG(-1/2, c, d_i), c = sqrt(eta / rho2) and d_i =
    sqrt(q_i + eta rho2) with q from :func:`sigma_quadratic`, whose
    normaliser is sqrt(2 pi) e^(-c d_i) / d_i; so, with (a, b) the
    family's ``eta_prior``,

        log p(eta | beta, v, rho2) = (a - 1) log eta - b eta
            - n log K_1(eta) - sum(log d_i + c d_i).

    Written for the chain's mixing index 1.  With no observations (n = 0)
    this is the Gamma(a, b) prior, drawn directly.
    """
    a, b = spec.penalty.eta_prior
    n = q.size
    if n == 0:
        return float(gen.gamma(a) / b)
    rho2 = state.rho2
    d_sq = np.empty(n)
    # log d^2 and d side by side, summed by one product: this runs about 6
    # times a scan, and at n = 100 the calls cost more than the arithmetic
    terms = np.empty((2, n))
    logs, roots = terms
    ones = np.ones(n)

    def log_density(u):
        eta = math.exp(u)
        np.add(q, eta * rho2, out=d_sq)
        np.log(d_sq, out=logs)
        np.sqrt(d_sq, out=roots)
        log_sum, root_sum = np.dot(terms, ones).tolist()
        return (a * u - b * eta - n * specfun.log_k1(eta) - 0.5 * log_sum
                - math.sqrt(eta / rho2) * root_sum)

    return _group_element("eta", _slice_step(log_density, math.log(state.eta),
                                             _ETA_SLICE_WIDTH / math.sqrt(n), gen, health, "eta"))


def update_level(state: ChainState, data: Dataset, spec: ModelSpec, gen, shift: np.ndarray,
                 health: ChainHealth) -> float:
    """The level move, k > n only: along the ridge on which eta and the level
    of sigma / rho2 move together.  Returns the new eta; sigma and v
    (floored and counted) and beta take their images in ``state``.

    For s in (R, +), G = exp((e^s - 1) / eta) and eta' = eta e^-s, it maps
    (sigma, v) to G (sigma, v), eta to eta' and beta to beta + (1 - G)
    delta, with ``shift`` delta = X'(XX')^-1 r at the state's residual r
    (:func:`residual_shift`), so r goes to G r; rho2 and the penalty
    stay.  It is a group action, so one slice step on s (width 1) from 0
    on

        n log G - (eta'/2)(G S1 + S2/G) - n log K_1(eta') - a s - b eta'
            - (1 - G) S_bd - (1 - G)^2 S_dd / 2,

    S1 = sum(sigma) / rho2, S2 = rho2 sum(1/sigma), (a, b) the family's
    ``eta_prior`` and S_bd, S_dd as in :func:`update_rho2`, leaves the
    posterior invariant.  Written for the chain's mixing index 1.
    ``shift`` is only read.
    """
    a, b = spec.penalty.eta_prior
    n, eta, rho2 = data.n, state.eta, state.rho2
    s_bd, s_dd = _shift_prior_terms(spec.penalty.prior_precision(state), state.beta, shift)
    s1 = float(state.sigma.sum()) / rho2
    s2 = rho2 * float(np.reciprocal(state.sigma).sum())

    def log_density(s):
        log_g = math.expm1(s) / eta
        g = math.exp(log_g)
        eta_new = eta * math.exp(-s)
        return (n * log_g - 0.5 * eta_new * (g * s1 + s2 / g) - n * specfun.log_k1(eta_new)
                - a * s - b * eta_new - (1.0 - g) * s_bd - 0.5 * (1.0 - g) ** 2 * s_dd)

    s = _slice_step(log_density, 0.0, 1.0, gen, health, "level")
    try:
        log_g = math.expm1(s) / eta
    except OverflowError:
        log_g = math.inf
    g = _group_element("G", log_g)
    eta_new = _group_element("eta'", math.log(eta) - s)
    state.sigma = _scale_floored(state.sigma, g, health)
    state.v = _scale_floored(state.v, g, health)
    state.beta = state.beta + (1.0 - g) * shift
    return eta_new


def _scan(state: ChainState, data: Dataset, spec: ModelSpec, gen, health: ChainHealth,
          projector: Optional[np.ndarray], it: int) -> None:
    """One systematic scan of :func:`run_chain` at iteration ``it``, in the
    module docstring's order; ``projector`` is :func:`wide_projector` of X.
    A block that fails raises ChainError naming the block and ``it``."""
    block = "beta"
    try:
        state.beta = update_beta(state, data, spec, gen)
        block = "eta"
        # eta, sigma, v and the rho2 move read y - X beta, and beta stays
        # fixed until a move shifts it
        resid = data.y - data.X @ state.beta
        q = sigma_quadratic(state, spec, resid)
        state.eta = update_eta(state, spec, gen, q, health)
        block = "sigma"
        state.sigma = _clamp_positive(update_sigma(state, data, spec, gen, resid, q), health)
        block = "v and penalty latents"
        drawn = _clamp_positive(update_v_and_latents(state, data, spec, gen, resid), health)
        state.v, state.latent = drawn[: data.n], drawn[data.n:]
        block = "penalty"
        spec.penalty.update(state, data, spec, gen, health)
        block = "rho2"
        # at k > n the rho2 move scales the shift with the residual, and the
        # level move takes it so
        shift = residual_shift(projector, resid)
        state.rho2 = update_rho2(state, data, spec, gen, resid, health, shift)
        if state.rho2 < _POSITIVITY_FLOOR:
            state.rho2 = _POSITIVITY_FLOOR
            health.positivity_clamps += 1
        if shift is not None:
            block = "level"
            state.eta = update_level(state, data, spec, gen, shift, health)
    except Exception as exc:
        raise ChainError(f"update '{block}' failed at iteration {it}: {exc}") from exc


def run_chain(data: Dataset, spec: ModelSpec, rng=None) -> PosteriorSamples:
    """Run one systematic-scan chain and collect thinned post-burn-in draws.

    Scan order: beta, eta, sigma, v with the penalty latents, the penalty
    rates, the rho2 move and, at k > n, the level move.  Retains
    floor((n_iter - burn_in)/thin) rows of (beta, rho2, eta, penalty
    rates).  Draws from the Generator ``rng``, or from spec.seed's stream
    when ``rng`` is None.  A block that fails raises ChainError naming
    the block and the iteration; a numeric RuntimeWarning raised while
    the chain runs (an overflow, a 0/0), in ``hqreg`` or in a numpy
    reduction it calls, is such a failure, whatever warning filters the
    caller has set.
    """
    gen = rng if rng is not None else RngStream(spec.seed).generator()
    state = initial_state(data, spec)
    health = ChainHealth()
    k = data.k

    columns = [f"beta_{j}" for j in range(k)] + ["rho2", "eta", *spec.penalty.Rates._fields]
    n_keep = (spec.n_iter - spec.burn_in) // spec.thin
    draws = np.empty((n_keep, len(columns)))
    row = 0

    # one filter for the whole chain, not a numpy errstate per scan
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=RuntimeWarning)
        projector = wide_projector(data.X)
        for it in range(1, spec.n_iter + 1):
            _scan(state, data, spec, gen, health, projector, it)
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
