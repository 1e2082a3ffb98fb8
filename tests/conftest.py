"""Shared test helpers."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import kve

from hqreg import sampler
from hqreg.randist import RngStream
from hqreg.sampler import ChainState, Dataset, ElasticNetHyper, LassoHyper, ModelSpec


class FixedNormals(np.random.Generator):
    """A generator whose standard normals are given in advance."""

    def __init__(self, z):
        super().__init__(np.random.PCG64(0))
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size=None):
        assert size == self.z.size
        return self.z.copy()


def _linear_map(draw, n_normals):
    """(image of the zero normals, matrix G of the unit-normal images) of a
    Gaussian draw that is affine in its standard normals; its law is then
    N(mean, G G') exactly.  ``draw`` takes a generator."""
    mean = draw(FixedNormals(np.zeros(n_normals)))
    cols = [draw(FixedNormals(e)) - mean for e in np.eye(n_normals)]
    return mean, np.column_stack(cols)


def _chain_state(penalty, *, beta, v, sigma, rho2, eta, latent, **rates):
    """A ChainState of ``penalty``'s family (its class or an instance):
    ``latent`` is s (lasso) or t - 1 (elastic net), and ``rates`` are named by
    the family's rate columns."""
    return ChainState(beta=beta, v=v, sigma=sigma, rho2=rho2, eta=eta, latent=latent,
                      rates=penalty.Rates(**rates))


# the steps that draw each family's rates, in the order of its Rates
_RATE_STEPS = {LassoHyper: ("update_lambda1_sq",),
               ElasticNetHyper: ("mh_update_lambda3_tilde", "update_lambda4")}
# the rate that each family's share of the rho2 scale move scales
_SCALED_RATE = {LassoHyper: "lambda1_sq", ElasticNetHyper: "lambda4"}


@pytest.fixture
def pin_rate(monkeypatch):
    """``pin_rate(family, *values)`` starts ``family``'s first rates, in
    the order of its Rates, at ``values`` and makes their steps return the
    current rate without drawing, so every chain of the family holds them
    there: a prior off-switch for nesting checks, and fixed rates for the
    surface oracle.  A pinned rate stays out of the rho2 scale move, which
    then scales (rho2, sigma, v) alone."""

    def pin(family, *values):
        init = family.init
        names = family.Rates._fields[: len(values)]

        def pinned_init(self, k):
            latent, rates = init(self, k)
            return latent, rates._replace(**dict(zip(names, values)))

        monkeypatch.setattr(family, "init", pinned_init)
        for name, step in zip(names, _RATE_STEPS[family]):
            monkeypatch.setattr(sampler, step,
                                lambda state, *args, name=name: getattr(state.rates, name))
        if _SCALED_RATE[family] in names:
            monkeypatch.setattr(family, "scale_orbit", lambda self, state: None)

    return pin


@pytest.fixture
def pin_eta(monkeypatch):
    """``pin_eta(value)`` starts every chain's eta at ``value`` and makes
    the eta step and the level move return the current eta without
    drawing; the level move then moves nothing."""

    def pin(value):
        initial_state = sampler.initial_state

        def pinned_initial_state(data, spec):
            state = initial_state(data, spec)
            state.eta = value
            return state

        monkeypatch.setattr(sampler, "initial_state", pinned_initial_state)
        for step in ("update_eta", "update_level"):
            monkeypatch.setattr(sampler, step, lambda state, *args: state.eta)

    return pin


@pytest.fixture
def chain_state():
    return _chain_state


@pytest.fixture
def fixed_normals():
    return FixedNormals


@pytest.fixture
def linear_map():
    return _linear_map


def _quadrature_ks(draws, log_density):
    """KS p-value of draws against a scalar log density normalised by
    trapezoid quadrature on 2001 points over their mean +- 12 sds, whose
    edges must hold no mass."""
    centre, spread = draws.mean(), 12.0 * draws.std()
    grid = np.linspace(centre - spread, centre + spread, 2001)
    logp = np.array([log_density(x) for x in grid])
    logp -= logp.max()
    assert max(logp[0], logp[-1]) < -20.0
    pdf = np.exp(logp)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    return stats.kstest(draws, lambda x: np.interp(x, grid, cdf)).pvalue


@pytest.fixture
def quadrature_ks():
    return _quadrature_ks


def _eta_conditional():
    """A fixed (r, v, rho2) at n = 8, tau = 0.3 for the eta step: (data, spec,
    state, resid, q, ks_pvalue).  ``ks_pvalue(draws)`` drops the first 100
    of a run of eta draws, thins the rest by 2 and gives the KS p-value of
    their logs against eta's conditional given (r, v, rho2), with sigma
    integrated out, written from its formula and normalised by quadrature
    on log eta."""
    gen = RngStream(353).generator()
    n, tau = 8, 0.3
    data = Dataset(np.ones((n, 1)), gen.standard_normal(n))
    spec = ModelSpec(tau=tau, penalty=LassoHyper(c=1.5, d=0.5))
    state = _chain_state(LassoHyper, beta=np.zeros(1), v=gen.uniform(0.3, 2.0, n),
                         sigma=np.ones(n), rho2=0.6, eta=1.0, latent=np.ones(1), lambda1_sq=1.0)
    resid = data.y - data.X @ state.beta
    q = (resid - (1 - 2 * tau) * state.v) ** 2 / (4 * state.v) + tau * (1 - tau) * state.v
    a, b = spec.penalty.eta_prior

    def log_p(eta):
        d = np.sqrt(q + eta * state.rho2)
        return ((a - 1) * math.log(eta) - b * eta - n * (math.log(kve(1, eta)) - eta)
                - float(np.sum(np.log(d) + math.sqrt(eta / state.rho2) * d)))

    def ks_pvalue(draws):
        # on log eta, with its Jacobian
        return _quadrature_ks(np.log(draws[100::2]), lambda u: log_p(math.exp(u)) + u)

    return data, spec, state, resid, q, ks_pvalue


@pytest.fixture
def eta_conditional():
    return _eta_conditional
