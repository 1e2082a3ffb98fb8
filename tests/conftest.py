"""Shared test helpers."""

import numpy as np
import pytest

from hqreg import sampler
from hqreg.sampler import ChainState, ElasticNetHyper, LassoHyper


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


@pytest.fixture
def pin_rate(monkeypatch):
    """``pin_rate(family, *values)`` starts ``family``'s first rates, in
    the order of its Rates, at ``values`` and makes their steps return the
    current rate without drawing, so every chain of the family holds them
    there: a prior off-switch for nesting checks, and fixed rates for the
    surface oracle."""

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

    return pin


@pytest.fixture
def pin_eta(monkeypatch):
    """``pin_eta(value)`` starts every chain's eta at ``value`` and makes
    the eta step return the current eta without drawing."""

    def pin(value):
        initial_state = sampler.initial_state

        def pinned_initial_state(data, spec):
            state = initial_state(data, spec)
            state.eta = value
            return state

        monkeypatch.setattr(sampler, "initial_state", pinned_initial_state)
        monkeypatch.setattr(sampler, "update_eta_approx", lambda state, *args: state.eta)

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
