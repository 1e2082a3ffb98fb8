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
    ``latent`` is s (lasso) or t (elastic net), and ``rates`` are named by
    the family's rate columns."""
    return ChainState(beta=beta, v=v, sigma=sigma, rho2=rho2, eta=eta, latent=latent,
                      rates=penalty.Rates(**rates))


# the step that draws each family's l1 rate, the first of its Rates
_RATE_STEPS = {LassoHyper: "update_lambda1_sq", ElasticNetHyper: "mh_update_lambda3_tilde"}


@pytest.fixture
def pin_rate(monkeypatch):
    """``pin_rate(family, value)`` starts ``family``'s l1 rate at ``value``
    and makes its rate step return the current rate without drawing, so
    every chain of the family holds it there: a prior off-switch for
    nesting checks."""

    def pin(family, value):
        init = family.init
        name = family.Rates._fields[0]

        def pinned_init(self, k):
            latent, rates = init(self, k)
            return latent, rates._replace(**{name: value})

        monkeypatch.setattr(family, "init", pinned_init)
        monkeypatch.setattr(sampler, _RATE_STEPS[family],
                            lambda state, *args: getattr(state.rates, name))

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
