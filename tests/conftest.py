"""Shared test helpers."""

import numpy as np
import pytest


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


@pytest.fixture
def fixed_normals():
    return FixedNormals


@pytest.fixture
def linear_map():
    return _linear_map
