"""Random-variate generators against moment, CDF and closure oracles."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from hqreg.randist import (
    Cauchy,
    ContaminatedNormal,
    GIG_BOUNDARY_EPS,
    FactorizationError,
    Gaussian,
    GigParams,
    Mixture,
    RngStream,
    SkewT,
    ald_sample,
    gig_moment,
    gig_rvs,
    gig_sample,
    gig_sample_shifted,
    mvn_from_precision,
    noise_sample,
)


class TestRngStream:
    def test_same_key_reproduces_bitwise(self):
        a = RngStream(42, (3, 1)).generator().random(100)
        b = RngStream(42, (3, 1)).generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = RngStream(42, (0,)).generator().random(50)
        b = RngStream(42, (1,)).generator().random(50)
        assert not np.allclose(a, b)

    def test_child_extends_key(self):
        assert RngStream(7).child(2, 5).key == (2, 5)
        assert RngStream(7, (1,)).child(4).key == (1, 4)


class TestGigParams:
    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            GigParams(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            GigParams(-0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            GigParams(-0.5, 1.0, 0.0)  # gamma limit needs nu > 0
        with pytest.raises(ValueError):
            GigParams(0.5, 0.0, 1.0)  # inverse-gamma limit needs nu < 0

    def test_boundaries_accepted(self):
        GigParams(2.0, 1.0, 0.0)
        GigParams(-2.0, 0.0, 1.0)


class TestGigSampling:
    def test_determinism(self):
        x = gig_rvs(RngStream(5).generator(), -0.5, 1.0, 2.0, size=1000)
        y = gig_rvs(RngStream(5).generator(), -0.5, 1.0, 2.0, size=1000)
        np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize(
        "nu,c,d",
        [(-0.5, 1.0, 1.0), (0.5, 2.0, 0.7), (1.0, 2.0, 3.0), (-21.0, 5.0, 2.0)],
    )
    def test_moments_match_bessel_ratio_oracle(self, nu, c, d):
        p = GigParams(nu, c, d)
        x = gig_rvs(RngStream(1001, (int(10 * nu) & 0xFF,)).generator(), nu, c, d, size=200_000)
        for order in (1.0, -1.0):
            mean = gig_moment(p, order)
            var = gig_moment(p, 2 * order) - mean**2
            z = (np.mean(x**order) - mean) / np.sqrt(var / x.size)
            assert abs(z) < 4.0

    def test_half_order_mean_formula(self):
        # E[X] = (d/c) K_{3/2}(cd) / K_{1/2}(cd) in closed form for nu = 1/2
        c, d = 1.3, 0.8
        w = c * d
        expect = (d / c) * (1.0 + 1.0 / w)  # K_{3/2}/K_{1/2} = 1 + 1/w
        assert gig_moment(GigParams(0.5, c, d), 1.0) == pytest.approx(expect, rel=1e-12)
        x = gig_rvs(RngStream(77).generator(), 0.5, c, d, size=1_000_000)
        var = gig_moment(GigParams(0.5, c, d), 2.0) - expect**2
        assert abs(np.mean(x) - expect) < 3.0 * np.sqrt(var / x.size)

    def test_gamma_limit(self):
        # d = 0, nu = 2, c = sqrt(2): Gamma(shape 2, rate 1)
        x = gig_rvs(RngStream(9).generator(), 2.0, np.sqrt(2.0), 0.0, size=400_000)
        assert np.mean(x) == pytest.approx(2.0, abs=0.02)
        assert np.var(x) == pytest.approx(2.0, abs=0.05)

    def test_inverse_gamma_limit(self):
        # c = 0, nu = -3, d = 2: 1/X ~ Gamma(3, rate 2), E[X] = 2/(3-1) = ... rate d^2/2 = 2
        x = gig_rvs(RngStream(10).generator(), -3.0, 0.0, 2.0, size=400_000)
        assert np.mean(1.0 / x) == pytest.approx(3.0 / 2.0, abs=0.01)

    def test_empirical_cdf_vs_quadrature(self):
        nu, c, d = -0.5, 1.0, 1.0
        pdf = lambda t: t ** (nu - 1.0) * np.exp(-0.5 * (c * c * t + d * d / t))
        norm, _ = quad(pdf, 0, np.inf, limit=200)
        x = np.sort(gig_rvs(RngStream(12).generator(), nu, c, d, size=1_000_000))
        # KS statistic on a stratified subsample of support points
        probe = x[:: x.size // 400]
        cdf = np.array([quad(pdf, 0, t, limit=200)[0] / norm for t in probe])
        emp = (np.searchsorted(x, probe, side="right")) / x.size
        assert np.max(np.abs(cdf - emp)) < 0.002

    def test_reciprocal_closure(self):
        # X ~ GIG(1, 2, 3)  =>  1/X ~ GIG(-1, 3, 2)
        x = gig_rvs(RngStream(13).generator(), 1.0, 2.0, 3.0, size=1_000_000)
        inv = GigParams(-1.0, 3.0, 2.0)
        for order in (1.0, 2.0):
            mean = gig_moment(inv, order)
            var = gig_moment(inv, 2 * order) - mean**2
            z = (np.mean((1.0 / x) ** order) - mean) / np.sqrt(var / x.size)
            assert abs(z) < 3.0

    def test_tiny_omega_dispatch(self):
        # below the boundary threshold the sampler must not error
        out = gig_rvs(RngStream(14).generator(), 0.5, 1e-8, 1e-8, size=100)
        assert np.all(out > 0)
        out = gig_rvs(RngStream(15).generator(), -4.0, 1e-8, 1e-8, size=100)
        assert np.all(out > 0)

    def test_scalar_api(self):
        val = gig_sample(RngStream(16), GigParams(0.5, 1.0, 1.0))
        assert isinstance(val, float) and val > 0


class TestGigHalfOrders:
    """GIG(+-1/2) is an inverse Gaussian or its reciprocal, drawn by Wald."""

    @pytest.mark.parametrize("nu", [-0.5, 0.5])
    @pytest.mark.parametrize("cd", [1e-8, 1e-5, 1e-2, 1.0, 1e2])
    def test_ks_against_invgauss(self, nu, cd):
        c, d = 0.7 * np.sqrt(cd), np.sqrt(cd) / 0.7
        x = gig_rvs(RngStream(31, (int(np.log10(cd)) + 10, int(nu > 0))).generator(),
                    nu, c, d, size=20_000)
        # GIG(-1/2, c, d) = IG(mean d/c, shape d^2); scipy's invgauss(mu, scale)
        # has mean mu * scale and shape scale
        if nu < 0:
            law, sample = stats.invgauss(mu=1.0 / cd, scale=d * d), x
        else:
            law, sample = stats.invgauss(mu=1.0 / cd, scale=c * c), 1.0 / x
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        assert stats.kstest(sample, law.cdf).pvalue > 1e-3

    def test_draws_are_wald_draws(self):
        c, d = np.array([0.3, 2.0, 1.1]), np.array([1.5, 0.2, 1.1])
        out = gig_rvs(RngStream(32).generator(), np.array([-0.5, 0.5, -0.5]), c, d)
        gen = RngStream(32).generator()
        ig = gen.wald(np.array([d[0] / c[0], c[1] / d[1], d[2] / c[2]]),
                      np.array([d[0] ** 2, c[1] ** 2, d[2] ** 2]))
        np.testing.assert_array_equal(out, [ig[0], 1.0 / ig[1], ig[2]])

    def test_boundaries_keep_gamma_limits(self):
        # d = 0 and c*d below GIG_BOUNDARY_EPS draw the gamma limit, and the
        # mirrored case the inverse-gamma limit, before any Wald draw
        c = np.array([2.0, 1e-7, 1.5, 3.0])
        d = np.array([0.0, 1e-7, 0.8, 0.0])
        assert c[1] * d[1] < GIG_BOUNDARY_EPS
        out = gig_rvs(RngStream(33).generator(), 0.5, c, d)
        gen = RngStream(33).generator()
        gam = gen.gamma(np.full(3, 0.5)) * (2.0 / c[[0, 1, 3]] ** 2)
        ig = gen.wald(c[2] / d[2], c[2] ** 2)
        np.testing.assert_array_equal(out, [gam[0], gam[1], 1.0 / ig, gam[2]])

        d = np.array([2.0, 1e-7])
        out = gig_rvs(RngStream(34).generator(), -0.5, np.array([0.0, 1e-7]), d)
        gen = RngStream(34).generator()
        expect = (d * d) / (2.0 * gen.gamma(np.full(2, 0.5)))
        np.testing.assert_array_equal(out, expect)


class TestGigScalarPath:
    """A single scalar draw takes the math-module twin of the Devroye sampler."""

    @pytest.mark.parametrize(
        "nu,c,d",
        [(-110.5, 14.0, 9.0), (-2010.0, 45.0, 50.0), (0.0, 1.0, 1e-3), (3.0, 1e-4, 1e-4)],
    )
    def test_matches_array_path_draw_for_draw(self, nu, c, d):
        g_scalar = RngStream(35).generator()
        g_array = RngStream(35).generator()
        for _ in range(500):
            x = gig_rvs(g_scalar, nu, c, d)
            assert isinstance(x, float)
            y = gig_rvs(g_array, np.array([nu]), c, d)[0]
            assert x == pytest.approx(y, rel=1e-13)
        # both streams consumed the same uniforms
        assert g_scalar.random() == g_array.random()

    def test_boundaries_fall_back(self):
        # d = 0: gamma limit
        c = math.sqrt(2.0)
        x = gig_rvs(RngStream(36).generator(), 2.0, c, 0.0)
        assert x == RngStream(36).generator().gamma(2.0) * (2.0 / (c * c))
        # c * d below GIG_BOUNDARY_EPS with nu < 0: inverse-gamma limit
        x = gig_rvs(RngStream(37).generator(), -4.0, 1e-7, 1e-7)
        assert x == (1e-7 * 1e-7) / (2.0 * RngStream(37).generator().gamma(4.0))
        # order 1/2: the Wald draw
        x = gig_rvs(RngStream(38).generator(), 0.5, 1.2, 0.4)
        assert x == 1.0 / RngStream(38).generator().wald(3.0, 1.44)
        # invalid scalars still raise
        with pytest.raises(ValueError):
            gig_rvs(RngStream(39).generator(), -1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            gig_rvs(RngStream(39).generator(), float("nan"), 1.0, 1.0)


class TestGigShifted:
    def test_always_above_one(self):
        out = gig_sample_shifted(RngStream(20), GigParams(0.5, 2.0, 1.0), size=5000)
        assert np.all(out > 1.0)

    def test_zero_d_gamma_limit_no_error(self):
        out = gig_sample_shifted(RngStream(21), GigParams(0.5, 2.0, 0.0), size=5000)
        assert np.all(out > 1.0)

    def test_shift_moments_match_oracle(self):
        p = GigParams(0.5, 1.5, 0.9)
        out = gig_sample_shifted(RngStream(22), p, size=400_000)
        mean = gig_moment(p, 1.0)
        var = gig_moment(p, 2.0) - mean**2
        z = (np.mean(out - 1.0) - mean) / np.sqrt(var / out.size)
        assert abs(z) < 3.0


class TestMvnFromPrecision:
    def test_identity_precision(self):
        gen = RngStream(30).generator()
        draws = np.array([mvn_from_precision(gen, np.eye(3), np.zeros(3)) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.08)
        np.testing.assert_allclose(np.cov(draws.T), np.eye(3), atol=0.1)

    def test_known_two_by_two_mean(self):
        p = np.array([[2.0, 0.6], [0.6, 1.0]])
        h = np.array([1.0, -0.5])
        cov = np.linalg.inv(p)
        expect = cov @ h
        gen = RngStream(31).generator()
        draws = np.array([mvn_from_precision(gen, p, h) for _ in range(100_000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - expect) < 4.0 * se)

    def test_diagonal_precision_variances(self):
        p = np.diag([4.0, 0.25])
        gen = RngStream(32).generator()
        draws = np.array([mvn_from_precision(gen, p, np.zeros(2)) for _ in range(40_000)])
        np.testing.assert_allclose(draws.var(axis=0), [0.25, 4.0], rtol=0.05)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(FactorizationError):
            mvn_from_precision(RngStream(33), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))


class TestAldSample:
    def test_symmetric_at_half(self):
        x = ald_sample(RngStream(40), 0.0, 1.0, 0.5, size=400_000)
        skew = np.mean((x - x.mean()) ** 3) / np.std(x) ** 3
        assert abs(skew) < 0.02

    def test_quantile_property(self):
        x = ald_sample(RngStream(41), 0.0, 1.0, 0.25, size=1_000_000)
        assert np.mean(x <= 0.0) == pytest.approx(0.25, abs=0.005)

    def test_location_shift_equivariance(self):
        a = ald_sample(RngStream(42), 0.0, 2.0, 0.3, size=1000)
        b = ald_sample(RngStream(42), 3.0, 2.0, 0.3, size=1000)
        np.testing.assert_allclose(b, a + 3.0, rtol=0, atol=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            ald_sample(RngStream(43), 0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            ald_sample(RngStream(43), 0.0, 1.0, 1.5)


class TestNoiseLaws:
    def test_contaminated_normal_sd(self):
        law = ContaminatedNormal(w=0.1, s=15.0)
        assert law.sd == pytest.approx(4.83735, abs=1e-4)
        assert law.sd == pytest.approx(4.83, abs=0.01)
        x = noise_sample(RngStream(50), law, size=2_000_000)
        assert np.std(x) == pytest.approx(law.sd, rel=0.02)

    def test_pure_gaussian_moments(self):
        x = noise_sample(RngStream(51), Gaussian(), size=400_000)
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_cauchy_median_and_iqr(self):
        x = noise_sample(RngStream(52), Cauchy(), size=1_000_000)
        assert np.median(x) == pytest.approx(0.0, abs=0.01)
        q1, q3 = np.quantile(x, [0.25, 0.75])
        assert q3 - q1 == pytest.approx(2.0, rel=0.02)

    def test_skewt_symmetric_when_gamma_one(self):
        x = noise_sample(RngStream(53), SkewT(df=5.0, gamma=1.0), size=400_000)
        skew = np.mean((x - x.mean()) ** 3) / np.std(x) ** 3
        assert abs(skew) < 0.05

    def test_skewt_positive_mass(self):
        g = 3.0
        x = noise_sample(RngStream(54), SkewT(df=3.0, gamma=g), size=400_000)
        assert np.mean(x > 0) == pytest.approx(g**2 / (1 + g**2), abs=0.005)

    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            Mixture(((0.5, Gaussian()), (0.6, Cauchy())))
        with pytest.raises(ValueError):
            Mixture(((-0.1, Gaussian()), (1.1, Cauchy())))

    def test_mixture_sampling_determinism(self):
        law = Mixture(((0.9, SkewT(3.0, 3.0)), (0.1, Gaussian(20.0))))
        a = noise_sample(RngStream(55), law, size=500)
        b = noise_sample(RngStream(55), law, size=500)
        np.testing.assert_array_equal(a, b)
