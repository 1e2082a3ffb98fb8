"""Loss kernels and density against closed forms and quadrature oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import k0, kv

from hqreg import loss_density
from hqreg.loss_density import (
    LossParams,
    PosteriorGridSpec,
    asym_density,
    asym_log_density,
    asym_loss,
    check_loss,
    count_strict_local_maxima,
    huber_loss,
    log_posterior_grid,
    scale_mixture_density,
)
from hqreg.randist import RngStream, ald_sample
from hqreg.sampler import ElasticNetHyper, LassoHyper


def toy_regression(seed: int = 36, n: int = 10, noise_sigma: float = 0.03):
    """Single-predictor toy dataset with near-noiseless median response."""
    gen = RngStream(seed).generator()
    x = gen.standard_normal(n)
    y = x + ald_sample(gen, 0.0, noise_sigma, 0.5, size=n)
    return x, y


class TestHuberLoss:
    def test_zero(self):
        assert huber_loss(0.0, 1.345) == 0.0

    def test_branch_continuity_at_delta(self):
        d = 1.345
        assert huber_loss(d, d) == pytest.approx(0.5 * d * d, rel=1e-15)
        assert d * (abs(d) - d / 2) == pytest.approx(0.5 * d * d, rel=1e-15)

    def test_linear_branch_value(self):
        assert huber_loss(2.0, 1.345) == pytest.approx(1.345 * (2.0 - 0.6725), rel=1e-15)
        assert huber_loss(2.0, 1.345) == pytest.approx(1.7854875, rel=1e-12)

    @given(st.floats(-50, 50), st.floats(0.01, 10))
    def test_nonnegative_and_even(self, x, delta):
        assert huber_loss(x, delta) >= 0
        assert huber_loss(x, delta) == pytest.approx(huber_loss(-x, delta), rel=1e-12)


class TestLossFamily:
    def test_asym_loss_zero_at_origin(self):
        p = LossParams(eta=1.3, rho2=0.7, tau=0.3)
        assert asym_loss(0.0, p) == 0.0

    def test_nan_propagates(self):
        # as in check_loss and huber_loss: no assertion stops a NaN
        p = LossParams(eta=1.3, rho2=0.7, tau=0.3)
        assert math.isnan(asym_loss(np.nan, p))
        assert math.isnan(asym_log_density(np.nan, 0.0, p))
        assert np.isnan(asym_loss(np.array([0.5, np.nan]), p)).tolist() == [False, True]

    def test_asym_loss_monotone_each_side(self):
        p = LossParams(eta=0.8, rho2=1.5, tau=0.2)
        xs = np.linspace(0.0, 20.0, 400)
        right = asym_loss(xs, p)
        left = asym_loss(-xs, p)
        assert np.all(np.diff(right) > 0)
        assert np.all(np.diff(left) > 0)

    @given(
        st.floats(-30, 30),
        st.floats(0.05, 20),
        st.floats(0.05, 20),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=200)
    @example(5e-324, 20.0, 20.0, 0.95)  # check loss 5e-324, loss about 1e-325
    def test_asym_loss_nonnegative(self, x, eta, rho2, tau):
        # Zero exactly where the check loss is zero, save that a loss below
        # the smallest subnormal rounds to 0; for small x the loss is about
        # check_loss / (2 rho2).
        val = asym_loss(x, LossParams(eta, rho2, tau))
        xi = check_loss(x, tau)
        assert val >= 0
        if xi == 0 or xi / rho2 >= 1e-320:
            assert (val == 0) == (xi == 0)
        if abs(x) >= 1e-300:
            assert val > 0

    def test_bridging_limits(self):
        # with eta = sqrt(z2)(sqrt(z2)+sqrt(z2+1)), rho2 = sqrt(z2)/(sqrt(z2)+sqrt(z2+1)):
        # z2 -> inf gives the check loss, z2 -> 0 its square root
        for tau in (0.1, 0.5, 0.9):
            for x in (-2.0, -0.5, 0.5, 2.0):
                target = check_loss(x, tau)
                for z2, expect in [(1e8, target), (1e-8, np.sqrt(target))]:
                    rz = np.sqrt(z2)
                    eta = rz * (rz + np.sqrt(z2 + 1.0))
                    rho2 = rz / (rz + np.sqrt(z2 + 1.0))
                    got = asym_loss(x, LossParams(eta, rho2, tau))
                    assert got == pytest.approx(expect, rel=1e-3)


class TestAsymDensity:
    def test_value_at_location(self):
        p = LossParams(eta=2.0, rho2=0.5, tau=0.3)
        expect = p.eta * p.tau * (1 - p.tau) / (2 * p.rho2 * (p.eta + 1))
        assert asym_density(5.0, 5.0, p) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("eta", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_normalisation_and_quantile(self, eta, tau):
        p = LossParams(eta=eta, rho2=1.0, tau=tau)
        total, _ = quad(lambda t: asym_density(t, 0.0, p), -np.inf, np.inf,
                        epsabs=1e-12, epsrel=1e-12, limit=400)
        left, _ = quad(lambda t: asym_density(t, 0.0, p), -np.inf, 0.0,
                       epsabs=1e-12, epsrel=1e-12, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert left == pytest.approx(tau, abs=1e-8)

    def test_log_variant_consistent(self):
        p = LossParams(eta=0.7, rho2=2.0, tau=0.6)
        xs = np.linspace(-4, 4, 11)
        np.testing.assert_allclose(
            np.exp(asym_log_density(xs, 0.5, p)), asym_density(xs, 0.5, p), rtol=1e-13
        )


class TestScaleMixture:
    @pytest.mark.parametrize("tau", [0.5, 0.25])
    def test_matches_closed_form(self, tau):
        p = LossParams(eta=1.0, rho2=1.0, tau=tau)
        for x in (-1.5, 0.0, 0.8, 2.5):
            mix = scale_mixture_density(x, 0.0, p)
            assert mix == pytest.approx(asym_density(x, 0.0, p), rel=1e-6)

    def test_symmetric_at_half(self):
        p = LossParams(eta=0.7, rho2=1.3, tau=0.5)
        for z in (0.4, 1.1):
            a = scale_mixture_density(2.0 + z, 2.0, p)
            b = scale_mixture_density(2.0 - z, 2.0, p)
            assert a == pytest.approx(b, rel=1e-8)


def surface_oracle(spec, beta, rho2):
    """Log posterior at one (beta, rho2), point by point from the formula: the
    sum over i of log z_i^(lambda-1) K_(lambda-1)(z_i) at the chain's mixing
    index lambda, z_i = sqrt(eta^2 + eta rho_tau(y_i - beta x_i) / rho2),
    plus the log prior of beta and rho2 under the spec's rates and style: the
    l1 rate is sqrt(lambda1_sq) or 2 sqrt(lambda3_tilde lambda4)."""
    eta, tau = spec.eta, spec.tau
    order = loss_density.CHAIN_MIXING_INDEX - 1.0
    loglik = 0.0
    for xi, yi in zip(spec.x[:, 0], spec.y):
        e = yi - beta * xi
        loss = e * (tau - (e < 0))
        z = math.sqrt(eta**2 + eta * loss / rho2)
        loglik += order * math.log(z) + math.log(kv(order, z))
    rates = spec.rates
    if isinstance(rates, LassoHyper.Rates):
        l1, l2 = math.sqrt(rates.lambda1_sq), 0.0
    else:
        l1, l2 = 2.0 * math.sqrt(rates.lambda3_tilde * rates.lambda4), rates.lambda4
    n = spec.y.size
    if spec.prior_style == "conditional":
        # k = 1 coefficient
        prior = (-l1 * abs(beta) / math.sqrt(rho2) - l2 * beta**2 / rho2
                 - (n + 0.5 + 1) * math.log(rho2))
    else:
        prior = -l1 * abs(beta) - l2 * beta**2 - (n + 1) * math.log(rho2)
    return loglik + prior


# each penalty's rates at lambda1 = 0.7, and at lambda3 = 0.7, lambda4 = 1.3
RATES_07 = [LassoHyper.Rates(0.7 * 0.7), ElasticNetHyper.Rates(0.7 * 0.7 / (4.0 * 1.3), 1.3)]


class TestJointLogPosterior:
    def setup_method(self):
        x, y = toy_regression()
        self.bgrid = np.exp(np.linspace(-3.0, 2.0, 120))
        self.rgrid = np.exp(np.linspace(-9.0, 1.0, 120))
        self.spec = PosteriorGridSpec(
            self.bgrid, self.rgrid, x, y, LassoHyper.Rates(1.0), "unconditional", 1.0, 0.5
        )

    @pytest.mark.parametrize("penalty", RATES_07)
    @pytest.mark.parametrize("style", ["unconditional", "conditional"])
    def test_grid_matches_pointwise_oracle(self, penalty, style):
        x, y = toy_regression()
        bgrid = np.exp(np.linspace(-3.0, 2.0, 17))
        rgrid = np.exp(np.linspace(-9.0, 1.0, 19))
        spec = PosteriorGridSpec(bgrid, rgrid, x, y, penalty, style, 1.3, 0.3)
        z = log_posterior_grid(spec)
        expect = [[surface_oracle(spec, b, r) for r in rgrid] for b in bgrid]
        np.testing.assert_allclose(z, expect, rtol=1e-12, atol=0)

    def test_likelihood_uses_check_loss_at_tau(self):
        # n = 1, x = 0, y = 1: the residual is 1 at every beta, so at tau = 0.25
        # its check loss is 0.25; 0.75 would be the mirrored quantile's
        spec = PosteriorGridSpec(np.array([1.0, 2.0]), np.array([1.0, 2.0]), [0.0], [1.0],
                                 LassoHyper.Rates(1.0), "unconditional", 1.3, 0.25)
        expect = np.log(k0(np.sqrt(1.3**2 + 1.3 * 0.25))) - 1.0
        assert expect == pytest.approx(-2.4376, abs=1e-4)
        assert log_posterior_grid(spec)[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_constant_shift_leaves_argmax(self):
        z = log_posterior_grid(self.spec)
        assert np.unravel_index(np.argmax(z), z.shape) == np.unravel_index(
            np.argmax(z + 123.456), z.shape
        )
        assert count_strict_local_maxima(z) == count_strict_local_maxima(z + 9.9)

    def test_mode_counts_on_demo_fixture(self):
        x, y = toy_regression()
        bgrid = np.exp(np.linspace(-3.0, 2.0, 200))
        rgrid = np.exp(np.linspace(-9.0, 1.0, 200))
        combos = [
            (LassoHyper.Rates(1.0), "unconditional"),
            (LassoHyper.Rates(1.0), "conditional"),
            (ElasticNetHyper.Rates(0.25, 1.0), "unconditional"),
            (ElasticNetHyper.Rates(0.25, 1.0), "conditional"),
        ]
        counts = []
        for pen, style in combos:
            z = log_posterior_grid(PosteriorGridSpec(bgrid, rgrid, x, y, pen, style, 1.0, 0.5))
            counts.append(count_strict_local_maxima(z))
        assert counts[0] >= 2
        assert counts[1] == 1
        assert counts[2] >= 2
        assert counts[3] == 1

    @pytest.mark.parametrize("penalty", RATES_07)
    @pytest.mark.parametrize("style", ["unconditional", "conditional"])
    def test_grid_rows_equal_whole_grid(self, penalty, style):
        x, y = toy_regression(n=37)
        spec = PosteriorGridSpec(np.exp(np.linspace(-3.0, 2.0, 41)),
                                 np.exp(np.linspace(-9.0, 1.0, 43)), x, y, penalty, style, 1.3, 0.3)
        whole = loss_density._log_posterior(spec, spec.beta_grid, spec.rho2_grid)
        np.testing.assert_array_equal(log_posterior_grid(spec), whole)

    def test_grid_memory_is_one_beta_row(self):
        # grid 200, toy_n 100: one (200, 100, 200) temporary is 32 MB, one
        # beta row's is 160 kB
        x, y = toy_regression(n=100)
        spec = PosteriorGridSpec(np.exp(np.linspace(-3.0, 2.0, 200)),
                                 np.exp(np.linspace(-9.0, 1.0, 200)), x, y, LassoHyper.Rates(1.0),
                                 "unconditional", 1.0, 0.5)
        tracemalloc.start()
        try:
            z = log_posterior_grid(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (200, 200)
        assert peak < 4e6

    def test_conditional_density_unimodal_in_transformed_coords(self):
        # reparameterise (beta, rho2) -> (beta/sqrt(rho2), 1/sqrt(rho2)); the
        # conditional-prior log density (with the Jacobian term) must have no
        # interior dip below the endpoint minimum along random segments: a
        # second mode separated from the first would produce one.  (Strict
        # chord-concavity fails in the far tails: away from the residual
        # kinks each Bessel factor composes a convex decreasing function
        # with an affine one, giving mild convexity, e.g. a 0.27 chord gap
        # near (beta ~ 0.1, rho2 ~ 0.0015) on this fixture.  Unimodality,
        # which is the substance of the claim, is what is asserted.)
        x, y = toy_regression()
        spec = PosteriorGridSpec(
            self.bgrid, self.rgrid, x, y, LassoHyper.Rates(1.0), "conditional", 1.0, 0.5
        )

        def g(phi, xi):
            beta = np.array([phi / xi])
            rho2 = np.array([1.0 / xi**2])
            return loss_density._log_posterior(spec, beta, rho2)[0, 0] - 4.0 * np.log(xi)

        gen = RngStream(61).generator()
        grid = np.linspace(0.0, 1.0, 41)
        for _ in range(100):
            phi1, phi2 = gen.uniform(-6, 6, size=2)
            xi1, xi2 = gen.uniform(0.05, 30, size=2)
            vals = np.array(
                [g((1 - t) * phi1 + t * phi2, (1 - t) * xi1 + t * xi2) for t in grid]
            )
            floor = min(vals[0], vals[-1])
            tol = 1e-7 * max(1.0, abs(floor))
            assert np.all(vals[1:-1] >= floor - tol)
            interior_min = (vals[1:-1] < vals[:-2] - tol) & (vals[1:-1] < vals[2:] - tol)
            assert not interior_min.any()

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            PosteriorGridSpec(
                np.array([2.0, 1.0]), self.rgrid, [1.0], [1.0], LassoHyper.Rates(1.0),
                "conditional", 1.0, 0.5,
            )
        with pytest.raises(ValueError, match="rho2_grid must be positive"):
            PosteriorGridSpec(
                self.bgrid, np.array([-1.0, 1.0]), [1.0], [1.0], LassoHyper.Rates(1.0),
                "conditional", 1.0, 0.5,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_grid_rejected(self, bad, which):
        # np.diff of a grid holding NaN has no entry <= 0
        grids = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])]
        grids[which][1] = bad
        with pytest.raises(ValueError, match="finite"):
            PosteriorGridSpec(*grids, [1.0], [1.0], LassoHyper.Rates(1.0), "conditional", 1.0, 0.5)


class TestLocalMaximaCounter:
    def test_single_peak(self):
        g = np.linspace(-3, 3, 41)
        z = -(g[:, None] ** 2 + g[None, :] ** 2)
        assert count_strict_local_maxima(z) == 1

    def test_two_peaks(self):
        g = np.linspace(-3, 3, 61)
        z = np.exp(-((g[:, None] + 1.5) ** 2 + g[None, :] ** 2)) + np.exp(
            -((g[:, None] - 1.5) ** 2 + (g[None, :] - 1.0) ** 2)
        )
        assert count_strict_local_maxima(z) == 2

    def test_boundary_rise_not_counted(self):
        g = np.linspace(0, 1, 30)
        z = g[:, None] + 0.5 * g[None, :]  # increasing toward a corner
        assert count_strict_local_maxima(z) == 0

    @given(st.floats(-100, 100))
    def test_shift_invariance(self, c):
        gen = np.random.default_rng(4)
        z = gen.standard_normal((12, 12))
        assert count_strict_local_maxima(z) == count_strict_local_maxima(z + c)
