"""Random-variate generators against moment, CDF and closure oracles."""

import math
import signal

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from hqreg import randist
from hqreg.randist import (
    Cauchy,
    ContaminatedNormal,
    GIG_BOUNDARY_EPS,
    FactorizationError,
    Gaussian,
    Mixture,
    RngStream,
    SkewT,
    ald_sample,
    gig_moment,
    gig_rvs,
    mvn_from_precision,
    mvn_low_rank,
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


class TestGigSampling:
    def test_determinism(self):
        x = gig_rvs(RngStream(5).generator(), -0.5, np.full(1000, 1.0), np.full(1000, 2.0))
        y = gig_rvs(RngStream(5).generator(), -0.5, np.full(1000, 1.0), np.full(1000, 2.0))
        np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize(
        "nu,c,d",
        [(-0.5, 1.0, 1.0), (0.5, 2.0, 0.7), (1.0, 2.0, 3.0), (-21.0, 5.0, 2.0)],
    )
    def test_moments_match_bessel_ratio_oracle(self, nu, c, d):
        x = gig_rvs(RngStream(1001, (int(10 * nu) & 0xFF,)).generator(), nu,
                    np.full(200_000, c), np.full(200_000, d))
        for order in (1.0, -1.0):
            mean = gig_moment(nu, c, d, order)
            var = gig_moment(nu, c, d, 2 * order) - mean**2
            z = (np.mean(x**order) - mean) / np.sqrt(var / x.size)
            assert abs(z) < 4.0

    def test_half_order_mean_formula(self):
        # E[X] = (d/c) K_{3/2}(cd) / K_{1/2}(cd) in closed form for nu = 1/2
        c, d = 1.3, 0.8
        w = c * d
        expect = (d / c) * (1.0 + 1.0 / w)  # K_{3/2}/K_{1/2} = 1 + 1/w
        assert gig_moment(0.5, c, d, 1.0) == pytest.approx(expect, rel=1e-12)
        x = gig_rvs(RngStream(77).generator(), 0.5, np.full(1_000_000, c), np.full(1_000_000, d))
        var = gig_moment(0.5, c, d, 2.0) - expect**2
        assert abs(np.mean(x) - expect) < 3.0 * np.sqrt(var / x.size)

    def test_gamma_limit(self):
        # d = 0, nu = 2, c = sqrt(2): Gamma(shape 2, rate 1)
        x = gig_rvs(RngStream(9).generator(), 2.0, np.full(400_000, np.sqrt(2.0)),
                    np.full(400_000, 0.0))
        assert np.mean(x) == pytest.approx(2.0, abs=0.02)
        assert np.var(x) == pytest.approx(2.0, abs=0.05)

    def test_inverse_gamma_limit(self):
        # c = 0, nu = -3, d = 2: 1/X ~ Gamma(3, rate 2), E[X] = 2/(3-1) = ... rate d^2/2 = 2
        x = gig_rvs(RngStream(10).generator(), -3.0, np.full(400_000, 0.0), np.full(400_000, 2.0))
        assert np.mean(1.0 / x) == pytest.approx(3.0 / 2.0, abs=0.01)

    def test_empirical_cdf_vs_quadrature(self):
        nu, c, d = -0.5, 1.0, 1.0
        pdf = lambda t: t ** (nu - 1.0) * np.exp(-0.5 * (c * c * t + d * d / t))
        norm, _ = quad(pdf, 0, np.inf, limit=200)
        x = np.sort(gig_rvs(RngStream(12).generator(), nu, np.full(1_000_000, c),
                               np.full(1_000_000, d)))
        # KS statistic on a stratified subsample of support points
        probe = x[:: x.size // 400]
        cdf = np.array([quad(pdf, 0, t, limit=200)[0] / norm for t in probe])
        emp = (np.searchsorted(x, probe, side="right")) / x.size
        assert np.max(np.abs(cdf - emp)) < 0.002

    def test_reciprocal_closure(self):
        # X ~ GIG(1, 2, 3)  =>  1/X ~ GIG(-1, 3, 2)
        x = gig_rvs(RngStream(13).generator(), 1.0, np.full(1_000_000, 2.0),
                    np.full(1_000_000, 3.0))
        for order in (1.0, 2.0):
            mean = gig_moment(-1.0, 3.0, 2.0, order)
            var = gig_moment(-1.0, 3.0, 2.0, 2 * order) - mean**2
            z = (np.mean((1.0 / x) ** order) - mean) / np.sqrt(var / x.size)
            assert abs(z) < 3.0

    def test_tiny_omega_dispatch(self):
        # below the boundary threshold the sampler must not error
        out = gig_rvs(RngStream(14).generator(), 0.5, np.full(100, 1e-8), np.full(100, 1e-8))
        assert np.all(out > 0)
        out = gig_rvs(RngStream(15).generator(), -4.0, np.full(100, 1e-8), np.full(100, 1e-8))
        assert np.all(out > 0)

    def test_scalar_api(self):
        val = gig_rvs(RngStream(16).generator(), 0.5, 1.0, 1.0)
        assert isinstance(val, float) and val > 0

    @pytest.mark.parametrize("zero_d", [False, True], ids=["interior", "limit"])
    def test_grid_parameters_draw_as_flat(self, zero_d):
        # the array sampler draws a grid of pairs as the same pairs in one
        # row; a pair at d = 0 sends the others there by the limit path
        gen = np.random.default_rng(47)
        c, d = gen.uniform(0.1, 3.0, (3, 4)), gen.uniform(0.1, 3.0, (3, 4))
        if zero_d:
            d[1, 2] = 0.0
        grid = gig_rvs(RngStream(48).generator(), 1.7, c, d)
        flat = gig_rvs(RngStream(48).generator(), 1.7, c.ravel(), d.ravel())
        assert grid.shape == (3, 4)
        assert grid.tobytes() == flat.tobytes()


class TestGigHalfOrders:
    """GIG(+-1/2) is an inverse Gaussian or its reciprocal, drawn by Wald."""

    @pytest.mark.parametrize("nu", [-0.5, 0.5])
    @pytest.mark.parametrize("cd", [1e-8, 1e-5, 1e-2, 1.0, 1e2])
    def test_ks_against_invgauss(self, nu, cd):
        c, d = 0.7 * np.sqrt(cd), np.sqrt(cd) / 0.7
        x = gig_rvs(RngStream(31, (int(np.log10(cd)) + 10, int(nu > 0))).generator(),
                    nu, np.full(20_000, c), np.full(20_000, d))
        # GIG(-1/2, c, d) = IG(mean d/c, shape d^2); scipy's invgauss(mu, scale)
        # has mean mu * scale and shape scale
        if nu < 0:
            law, sample = stats.invgauss(mu=1.0 / cd, scale=d * d), x
        else:
            law, sample = stats.invgauss(mu=1.0 / cd, scale=c * c), 1.0 / x
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        assert stats.kstest(sample, law.cdf).pvalue > 1e-3

    def test_draws_are_wald_draws(self):
        # each half-order call is one Wald call over all its pairs
        c, d = np.array([0.3, 2.0, 1.1]), np.array([1.5, 0.2, 1.1])
        gen = RngStream(32).generator()
        neg, pos = gig_rvs(gen, -0.5, c, d), gig_rvs(gen, 0.5, c, d)
        ref = RngStream(32).generator()
        np.testing.assert_array_equal(neg, ref.wald(d / c, d * d))
        np.testing.assert_array_equal(pos, 1.0 / ref.wald(c / d, c * c))
        assert gen.bit_generator.state == ref.bit_generator.state

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
        [(-110.5, 14.0, 9.0), (-2010.0, 45.0, 50.0), (0.0, 1.0, 1e-3), (3.0, 1e-4, 1e-4),
         (2.0, 50.0, 200.0)],
    )
    def test_matches_array_path_draw_for_draw(self, nu, c, d):
        # a one-element array c takes the array sampler
        g_scalar = RngStream(35).generator()
        g_array = RngStream(35).generator()
        for _ in range(500):
            x = gig_rvs(g_scalar, nu, c, d)
            assert isinstance(x, float)
            y = gig_rvs(g_array, nu, np.array([c]), d)[0]
            assert x == pytest.approx(y, rel=1e-13)
        # both streams consumed the same uniforms
        assert g_scalar.random() == g_array.random()

    @pytest.mark.parametrize("nu", [-3.0, 0.3, 40.0])
    @pytest.mark.parametrize("omega", [1e7, 1e9, 1e11])
    def test_same_rounds_up_to_large_omega(self, nu, omega):
        # the two forms' rounding gap grows with omega, but below omega near
        # 1e12 it flips no accept test: both draw the same uniforms and stay
        # far inside the posterior sd, 1/sqrt(omega) relative
        c = math.sqrt(omega) * 1.7
        g_scalar = RngStream(36).generator()
        g_array = RngStream(36).generator()
        for _ in range(300):
            x = gig_rvs(g_scalar, nu, c, omega / c)
            y = gig_rvs(g_array, nu, np.array([c]), omega / c)[0]
            assert x == pytest.approx(y, rel=1e-9)
        assert g_scalar.bit_generator.state == g_array.bit_generator.state

    @pytest.mark.parametrize("nu,c,d", [
        # alpha = sqrt(omega^2 + nu^2) - |nu| rounds to 0 at omega = c*d tiny
        # beside |nu|; the scalar hat then takes 1/alpha as inf
        (1.0, 1e-5, 1e-5),
        (-1.0, 1e-6, 1e-4),
        (0.3, 1e-10, 1.0),
        (-1.3, 1e-3, 1e-6),
        # alpha = 0 and a hat that neither form can draw from
        (0.001, 1e-12, 1.0),
    ])
    def test_hat_at_zero_alpha_matches_array_path(self, nu, c, d):
        omega = c * d
        assert omega >= GIG_BOUNDARY_EPS
        assert math.sqrt(omega * omega + nu * nu) - abs(nu) == 0.0

        def outcome(cc):
            try:
                return float(np.squeeze(gig_rvs(RngStream(58).generator(), nu, cc, d)))
            except ValueError as err:
                return str(err)

        scalar, array = outcome(c), outcome(np.array([c]))
        if isinstance(array, str):
            assert scalar == array and "accepted nothing" in array
        else:
            assert scalar == pytest.approx(array, rel=1e-15)

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


class TestGigInteriorTest:
    """Every input passes one interior screen; whatever fails it is checked
    and keeps its limits."""

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize(
        "nu,c,d",
        [
            (float("nan"), 1.0, 1.0),  # NaN order
            (-0.5, 1.0, math.inf),  # infinite d
            (0.5, -1.0, 2.0),  # c < 0, d > 0
            (0.5, -1.0, -2.0),  # c < 0 and d < 0: c * d > 0
            (-0.5, math.inf, 1.0),  # infinite c
            (0.5, 1.0, float("nan")),  # NaN d
        ],
    )
    def test_invalid_parameters_raise(self, nu, c, d, shape):
        if shape == "array":
            d = np.array([1.0, d, 2.0])
        with pytest.raises(ValueError):
            gig_rvs(RngStream(40).generator(), nu, c, d)

    @pytest.mark.parametrize("c", [0.0, np.array([0.0, 1.0])])
    def test_zero_c_needs_negative_order(self, c):
        # d = 0 needs nu > 0 and c = 0 needs nu < 0: neither has a law otherwise
        d = np.array([1.0, 2.0])
        for nu in (0.0, 0.5, 2.0):
            with pytest.raises(ValueError, match=r"inverse-gamma limit \(c = 0\)"):
                gig_rvs(RngStream(40).generator(), nu, c, d)

    def test_array_order_raises(self):
        for nu in (np.array([0.5, -0.5]), np.array([0.5]), [0.5]):
            with pytest.raises(ValueError, match="one scalar order"):
                gig_rvs(RngStream(40).generator(), nu, 1.0, np.array([1.0, 2.0]))
        x = gig_rvs(RngStream(40).generator(), np.array(0.5), 1.2, 0.4)
        assert x == gig_rvs(RngStream(40).generator(), 0.5, 1.2, 0.4)

    def test_scalar_c_keeps_boundary_limits(self):
        # the sampler's shape: one order, scalar c, array d
        d = np.array([0.0, 1.3, 1e-13])
        out = gig_rvs(RngStream(41).generator(), 0.5, 2.0, d)
        gen = RngStream(41).generator()
        gam = gen.gamma(np.full(2, 0.5)) * (2.0 / 4.0)
        ig = gen.wald(2.0 / 1.3, 4.0)
        np.testing.assert_array_equal(out, [gam[0], 1.0 / ig, gam[1]])

        d = np.array([2.0, 0.5])
        out = gig_rvs(RngStream(42).generator(), -0.5, 0.0, d)
        expect = (d * d) / (2.0 * RngStream(42).generator().gamma(np.full(2, 0.5)))
        np.testing.assert_array_equal(out, expect)
        with pytest.raises(ValueError):
            gig_rvs(RngStream(42).generator(), -0.5, 1.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("nu", [-0.5, 0.5])
    def test_same_draws_as_full_path(self, nu):
        # a pair at its limit sends the call through the checked path, which
        # draws the limit first and then every other pair as the screened
        # call draws it
        gen = np.random.default_rng(43)
        c, d = gen.uniform(0.1, 3.0, 50), gen.uniform(1e-3, 3.0, 50)
        for cc in (c, 1.7):
            full = gig_rvs(RngStream(44).generator(), nu, np.append(1.7, cc) if np.ndim(cc) else cc,
                           np.append(1e-13, d))
            ref = RngStream(44).generator()
            limit = gig_rvs(ref, nu, 1.7, np.array([1e-13]))
            fast = gig_rvs(ref, nu, cc, d)
            assert full.tobytes() == np.append(limit, fast).tobytes()

    def test_scalar_half_order_is_one_wald_draw(self):
        x = gig_rvs(RngStream(45).generator(), -0.5, np.float64(1.2), np.array(0.4))
        assert isinstance(x, float)
        assert x == RngStream(45).generator().wald(0.4 / 1.2, 0.16)

    def test_empty_parameters(self):
        for nu in (-0.5, 0.5, 2.0):
            for c in (1.0, 0.0, np.array([])):
                out = gig_rvs(RngStream(46).generator(), nu, c, np.array([]))
                assert out.shape == (0,)


def _interior_by_product(nu, c, d):
    """The interior screen written on the c*d array itself."""
    cd = c * d
    return (math.isfinite(nu) and c > 0.0
            and cd.min(initial=math.inf) >= GIG_BOUNDARY_EPS
            and cd.max(initial=-math.inf) < math.inf)


def _outcome(nu, c, d, seed=47):
    """gig_rvs's draws as bytes, or the message of the ValueError it raises."""
    try:
        return gig_rvs(RngStream(seed).generator(), nu, c, d).tobytes()
    except ValueError as err:
        return str(err)


def _by_product(nu, c, d, seed=47):
    """GIG(+-1/2) draws written on the c*d array itself, as bytes.

    Pairs whose product is below GIG_BOUNDARY_EPS draw their limit law
    first, in index order, and the others then one Wald draw each.  None
    where the law has no draw: a non-finite order, a non-finite or
    negative c or d, a zero d at nu < 0 or a zero c at nu > 0, a Wald
    mean or shape outside (0, inf), or a limit draw that overflows or
    whose scale (2/c^2 or d^2/2) underflows to 0.
    """
    c = np.full(d.shape, c)
    with np.errstate(all="ignore"):
        if not (math.isfinite(nu) and np.isfinite(c).all() and np.isfinite(d).all()
                and (c >= 0).all() and (d >= 0).all()
                and not np.any(d == 0 if nu < 0 else c == 0)):
            return None
        limit = c * d < GIG_BOUNDARY_EPS
        rest = ~limit
        mean, shape = (d / c, d * d) if nu < 0 else (c / d, c * c)
        if not all(((x[rest] > 0) & (x[rest] < math.inf)).all() for x in (mean, shape)):
            return None
        gen = RngStream(seed).generator()
        out = np.empty(d.shape)
        g = gen.gamma(0.5, size=limit.sum())
        out[limit] = g * (2.0 / c[limit] ** 2) if nu > 0 else d[limit] ** 2 / (2.0 * g)
        scale = 2.0 / c[limit] ** 2 if nu > 0 else d[limit] ** 2 / 2.0
        if not (np.isfinite(out[limit]).all() and (scale > 0).all()):
            return None
        x = gen.wald(mean[rest], shape[rest])
        out[rest] = x if nu < 0 else 1.0 / x
    return out.tobytes()


# the messages of gig_rvs's own errors
GIG_ERRORS = ("GIG parameters", "GIG(", "gamma limit", "inverse-gamma limit")


def _check_by_product(nu, c, d) -> bool:
    """Assert that gig_rvs gives the draws of :func:`_by_product`, or raises
    one of its own errors where that has none; True if it drew."""
    outcome, expect = _outcome(nu, c, d), _by_product(nu, c, d)
    if expect is None:
        assert isinstance(outcome, str) and outcome.startswith(GIG_ERRORS), outcome
    else:
        assert outcome == expect
    return expect is not None


class TestScalarCInteriorTest:
    """Interior and limit pairs are told apart by the product c*d, for a
    scalar c, whose screen builds no c*d array, as for an array c."""

    TINY = 5e-324  # the smallest subnormal

    @pytest.mark.parametrize("nu", [-0.5, 0.5, float("nan")])
    @pytest.mark.parametrize("c,d", [
        (1.3, [0.5, 2.0, 7.0]),
        (1.3, [0.5, float("nan"), 7.0]),  # NaN d
        (1.3, [float("nan"), float("nan")]),
        (1.3, [0.5, math.inf]),  # infinite d
        (1.3, [-math.inf, 2.0]),
        (1.3, [0.5, -2.0]),  # negative d
        (1.3, [0.0, 2.0]),  # d = 0: gamma limit
        (1.3, [-0.0, 2.0]),
        (0.0, [0.5, 2.0]),  # c = 0
        (-0.0, [0.5, 2.0]),
        (-1.0, [0.5, 2.0]),
        (math.inf, [0.5, 2.0]),
        (math.inf, [0.0, 2.0]),  # inf * 0 is NaN
        (float("nan"), [0.5, 2.0]),
        (TINY, [0.5, 2.0]),  # subnormal c, product underflows below the bound
        (TINY, [1e300, 1.7e308]),  # subnormal c, product in range
        (1e-300, [1e288, 1e289]),  # product at the bound
        (1e-300, [0.999999e288, 1e289]),  # just below it
        (1e300, [0.5, 1e8]),  # c * max(d) overflows to inf
        (1e300, [0.5, 1e300]),
        (1e154, [1e154, 2e154]),  # largest product finite
        (1.3, []),
    ])
    @np.errstate(all="ignore")
    def test_accepts_and_rejects_as_product(self, nu, c, d):
        d = np.array(d, dtype=float)
        _check_by_product(nu, c, d)
        assert _outcome(nu, c, d) == _outcome(nu, np.full(d.shape, c), d)

    @np.errstate(all="ignore")
    def test_random_extremes(self):
        # c and d spread over the whole exponent range, with NaN, inf, 0 and
        # negative entries mixed in
        gen = np.random.default_rng(50)
        drawn = 0
        for _ in range(2000):
            c = 10.0 ** gen.uniform(-324, 308.2)
            d = 10.0 ** gen.uniform(-330, 330, size=gen.integers(1, 6))
            if gen.random() < 0.2:
                d[gen.integers(d.size)] = gen.choice([np.nan, np.inf, 0.0, -1.0])
            drawn += _check_by_product(0.5, c, d)
        assert 0 < drawn < 2000

    def test_accepted_draws_match_array_c(self):
        # an array c takes the c*d form of the screen; the draws are the same
        d = np.random.default_rng(48).uniform(1e-3, 3.0, 40)
        for nu in (-0.5, 0.5):
            for c in (1.7, 1e-10, 1e3):
                scalar = gig_rvs(RngStream(49).generator(), nu, c, d)
                array = gig_rvs(RngStream(49).generator(), nu, np.full(d.size, c), d)
                assert scalar.tobytes() == array.tobytes() == _by_product(nu, c, d, seed=49)


class TestWaldRange:
    """Interior pairs whose Wald mean or shape leaves the double range raise a
    ValueError naming it and never give NaN."""

    CASES = [
        (0.5, 1e170, 1e-160, "mean c/d overflows to inf"),
        (0.5, 1e-170, 1e160, "mean c/d underflows to 0"),
        (0.5, 1e160, 1.0, "shape c\\^2 overflows to inf"),
        (0.5, 1e-165, 1e153, "shape c\\^2 underflows to 0"),
        (-0.5, 1e-160, 1e170, "mean d/c overflows to inf"),
        (-0.5, 1e170, 1e-160, "mean d/c underflows to 0"),
        (-0.5, 1.0, 1e160, "shape d\\^2 overflows to inf"),
        (-0.5, 1e150, 1e-162, "shape d\\^2 underflows to 0"),
    ]

    @pytest.mark.parametrize("nu,c,bad_d,message", CASES)
    @pytest.mark.parametrize("c_form", ["scalar", "array"])
    def test_fast_path_raises(self, nu, c, bad_d, message, c_form):
        # every pair passes the interior screen, and the call draws nothing
        d = np.array([bad_d, bad_d * 2.0])
        assert _interior_by_product(nu, c, d)
        cc = c if c_form == "scalar" else np.full(d.size, c)
        gen = RngStream(51).generator()
        before = gen.bit_generator.state
        order = "-1/2" if nu < 0 else "1/2"
        with pytest.raises(ValueError, match=rf"GIG\({order}\) Wald {message}"):
            gig_rvs(gen, nu, cc, d)
        assert gen.bit_generator.state == before

    @pytest.mark.parametrize("nu,c,bad_d,message", CASES)
    def test_full_path_raises(self, nu, c, bad_d, message):
        # with array c, and beside a pair at its limit, which sends the call
        # through the checked path
        limit_c, limit_d = (0.0, 1.0) if nu < 0 else (1.0, 0.0)
        for args in ((nu, np.full(3, c), np.full(3, bad_d)),
                     (nu, np.array([limit_c, c]), np.array([limit_d, bad_d]))):
            with pytest.raises(ValueError, match="Wald " + message):
                gig_rvs(RngStream(52).generator(), *args)

    @pytest.mark.parametrize("nu,c,d", [(0.5, 1e-151, 1e145), (-0.5, 1e150, 1e-155)])
    def test_extreme_pairs_in_range_draw(self, nu, c, d):
        # the cheap bounds cannot clear these, so the arrays' own extremes are
        # taken; the draw is still the plain Wald draw
        d = np.full(3, d)
        for cc in (c, np.full(3, c)):
            out = gig_rvs(RngStream(53).generator(), nu, cc, d)
            gen = RngStream(53).generator()
            x = gen.wald(d / c, d * d) if nu < 0 else 1.0 / gen.wald(c / d, c * c)
            assert out.tobytes() == x.tobytes()
            assert np.isfinite(out).all()

    @np.errstate(all="ignore")
    def test_screen_is_wide_of_the_range(self):
        # states on both sides of the double range's edges: a cheap bound
        # that cleared a mean or shape outside (0, inf) would give NaN draws
        # or numpy's own Wald error
        gen = np.random.default_rng(54)
        drawn = 0
        for _ in range(3000):
            c = 10.0 ** gen.uniform(-200, 200, size=gen.integers(1, 4))
            d = 10.0 ** gen.uniform(-200, 200, size=c.size)
            nu = gen.choice([-0.5, 0.5])
            drawn += _check_by_product(nu, c, d) + _check_by_product(nu, c[0], d)
        assert 0 < drawn < 6000


class TestGigAlwaysReturns:
    """Every finite input returns a draw or raises ValueError.  An alarm
    turns a sampler that loops into a failure instead of a hang."""

    CASES = [
        # Devroye's hat breaks in float arithmetic at c*d = 1e157
        (1.0, 1e-13, 1e170, r"accepted nothing in 1000 rounds at \|nu\| = 1, omega = c\*d = 1e\+157"),
        # c*d overflows to inf, which the screen and the limit test take
        # without a warning
        (1.0, 1e125, 1e200, r"accepted nothing in 1000 rounds at \|nu\| = 1, omega = c\*d = inf"),
        (-0.5, 1e125, 1e200, r"GIG\(-1/2\) Wald shape d\^2 overflows to inf"),
        # order 0 has no limit law below GIG_BOUNDARY_EPS
        (0.0, 1e-13, 1e-300, "order 0 has no limit law"),
        # the gamma limit's scale 2/c^2 and the inverse-gamma's d^2/2 overflow
        (2.0, 1e-170, 1.0, r"GIG\(2\) gamma limit overflows to inf"),
        (-2.0, 1e-180, 1e160, r"GIG\(-2\) inverse-gamma limit overflows to inf"),
        # the interior scale d/c overflows
        (1.0, 1e-300, 1e300, r"GIG\(1\) draw overflows to inf"),
        # a scale that underflows to 0 would give a draw of 0, outside the support
        (1.0, 1e300, 1e-300, r"GIG\(1\) scale d/c underflows to 0"),
        (2.0, 1e160, 1e-180, r"GIG\(2\) gamma limit scale 2/c\^2 underflows to 0"),
        (-3.0, 1e-300, 1e-200, r"GIG\(-3\) inverse-gamma limit scale d\^2/2 underflows to 0"),
    ]

    @staticmethod
    def _alarm(signum, frame):
        raise TimeoutError("gig_rvs did not return within 5 s")

    @pytest.mark.parametrize("nu,c,d,message", CASES)
    @pytest.mark.parametrize("form", ["scalar", "array"])
    def test_raises_within_time(self, nu, c, d, message, form):
        args = (c, d) if form == "scalar" else (np.full(2, c), np.full(2, d))
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(ValueError, match=message):
                gig_rvs(RngStream(55).generator(), nu, *args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("form", ["scalar", "array"])
    def test_overflowing_product_still_draws(self, form):
        # c*d = inf, but the Wald mean c/d and shape c^2 of GIG(1/2) are in range
        args = (1e125, 1e200) if form == "scalar" else (np.full(2, 1e125), np.full(2, 1e200))
        draw = gig_rvs(RngStream(59).generator(), 0.5, *args)
        np.testing.assert_allclose(draw, 1e75, rtol=1e-9)

    @pytest.mark.parametrize("form", ["scalar", "array"])
    def test_overflowing_product_raises_before_drawing(self, form):
        # c*d = inf leaves Devroye's sampler no hat: it raises without a round
        args = (1e125, 1e200) if form == "scalar" else (np.full(2, 1e125), np.full(2, 1e200))
        gen = RngStream(55).generator()
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match=r"omega = c\*d = inf"):
            gig_rvs(gen, 1.0, *args)
        assert gen.bit_generator.state == before

    def test_underflowing_scale_beside_a_plain_pair(self):
        with pytest.raises(ValueError, match=r"GIG\(1\) scale d/c underflows to 0"):
            gig_rvs(RngStream(56).generator(), 1.0, np.array([1e300, 1.0]),
                    np.array([1e-300, 1.0]))

    @pytest.mark.parametrize("nu,c,d,message", CASES[-3:])
    @pytest.mark.parametrize("form", ["scalar", "array"])
    def test_underflowing_scale_raises_before_drawing(self, nu, c, d, message, form):
        args = (c, d) if form == "scalar" else (np.full(2, c), np.full(2, d))
        gen = RngStream(57).generator()
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match=message):
            gig_rvs(gen, nu, *args)
        assert gen.bit_generator.state == before


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
            mvn_from_precision(RngStream(33).generator(), np.array([[1.0, 2.0], [2.0, 1.0]]),
                               np.zeros(2))


def _low_rank_system(n=4, k=7, seed=34):
    """(x, row_scale, prior_var, alpha) of a low-rank draw, then the
    precision P and linear term h of the same law, built from phi =
    diag(row_scale) x."""
    gen = RngStream(seed).generator()
    x = gen.standard_normal((n, k))
    row_scale = gen.uniform(0.5, 2.0, n)
    prior_var = gen.uniform(0.5, 2.0, k)
    alpha = gen.standard_normal(n)
    phi = x * row_scale[:, None]
    precision = phi.T @ phi + np.diag(1.0 / prior_var)
    return x, row_scale, prior_var, alpha, precision, phi.T @ alpha


class TestGaussianDrawsExact:
    """Both exact Gaussian draws, checked through their linear map."""

    def test_precision_form(self, linear_map):
        *_, p, h = _low_rank_system(n=9, k=5)
        mean, g = linear_map(lambda gen: mvn_from_precision(gen, p, h), 5)
        cov = np.linalg.inv(p)
        np.testing.assert_allclose(mean, np.linalg.solve(p, h), rtol=0, atol=1e-10)
        np.testing.assert_allclose(g @ g.T, cov, rtol=0, atol=1e-10)

    def test_low_rank_form(self, linear_map):
        *args, p, h = _low_rank_system()
        mean, g = linear_map(lambda gen: mvn_low_rank(gen, *args), 4 + 7)
        np.testing.assert_allclose(mean, np.linalg.solve(p, h), rtol=0, atol=1e-10)
        np.testing.assert_allclose(g @ g.T, np.linalg.inv(p), rtol=0, atol=1e-10)

    def test_forms_agree(self, linear_map):
        *args, p, h = _low_rank_system(n=3, k=8)
        m_lr, g_lr = linear_map(lambda gen: mvn_low_rank(gen, *args), 3 + 8)
        m_p, g_p = linear_map(lambda gen: mvn_from_precision(gen, p, h), 8)
        np.testing.assert_allclose(m_lr, m_p, rtol=0, atol=1e-10)
        np.testing.assert_allclose(g_lr @ g_lr.T, g_p @ g_p.T, rtol=0, atol=1e-10)

    def test_low_rank_takes_k_plus_n_normals(self, fixed_normals):
        args = _low_rank_system()[:4]
        out = mvn_low_rank(RngStream(35).generator(), *args)
        z = RngStream(35).generator().standard_normal(4 + 7)
        np.testing.assert_array_equal(out, mvn_low_rank(fixed_normals(z), *args))

    def test_low_rank_zero_prior_variance_pins_coefficient(self, linear_map):
        # rho2 * s underflowing to 0 gives a zero prior variance; the law is
        # then the (k-1)-coefficient one with beta_0 = 0
        x, row_scale, prior_var, alpha, _, _ = _low_rank_system()
        prior_var[0] = 0.0
        mean, g = linear_map(lambda gen: mvn_low_rank(gen, x, row_scale, prior_var, alpha),
                             4 + 7)
        assert mean[0] == 0.0 and np.all(g[0] == 0.0)
        phi = x[:, 1:] * row_scale[:, None]
        p = phi.T @ phi + np.diag(1.0 / prior_var[1:])
        np.testing.assert_allclose(mean[1:], np.linalg.solve(p, phi.T @ alpha),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(g[1:] @ g[1:].T, np.linalg.inv(p), rtol=0, atol=1e-10)

    def test_low_rank_indefinite_raises(self):
        # a negative prior variance: diag(prior_var) is no covariance
        with pytest.raises(FactorizationError):
            mvn_low_rank(RngStream(36).generator(), np.array([[1.0, 0.0]]), np.ones(1),
                         np.array([-5.0, 1.0]), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2, 3])
    def test_low_rank_non_finite_input_raises(self, bad, where):
        args = list(_low_rank_system()[:4])
        args[where].flat[0] = bad
        with pytest.raises(ValueError):
            mvn_low_rank(RngStream(37).generator(), *args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 1])
    def test_precision_non_finite_input_raises(self, bad, where):
        args = [np.eye(3), np.zeros(3)]
        args[where].flat[0] = bad
        with pytest.raises(ValueError):
            mvn_from_precision(RngStream(38).generator(), *args)


class TestAldSample:
    def test_symmetric_at_half(self):
        x = ald_sample(RngStream(40).generator(), 0.0, 1.0, 0.5, size=400_000)
        skew = np.mean((x - x.mean()) ** 3) / np.std(x) ** 3
        assert abs(skew) < 0.02

    def test_quantile_property(self):
        x = ald_sample(RngStream(41).generator(), 0.0, 1.0, 0.25, size=1_000_000)
        assert np.mean(x <= 0.0) == pytest.approx(0.25, abs=0.005)

    def test_location_shift_equivariance(self):
        a = ald_sample(RngStream(42).generator(), 0.0, 2.0, 0.3, size=1000)
        b = ald_sample(RngStream(42).generator(), 3.0, 2.0, 0.3, size=1000)
        np.testing.assert_allclose(b, a + 3.0, rtol=0, atol=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            ald_sample(RngStream(43).generator(), 0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            ald_sample(RngStream(43).generator(), 0.0, 1.0, 1.5)


class TestNoiseLaws:
    def test_contaminated_normal_sd(self):
        law = ContaminatedNormal(w=0.1, s=15.0)
        assert law.sd == pytest.approx(4.83735, abs=1e-4)
        assert law.sd == pytest.approx(4.83, abs=0.01)
        x = law.sample(RngStream(50).generator(), 2_000_000)
        assert np.std(x) == pytest.approx(law.sd, rel=0.02)

    def test_pure_gaussian_moments(self):
        x = Gaussian().sample(RngStream(51).generator(), 400_000)
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_cauchy_median_and_iqr(self):
        x = Cauchy().sample(RngStream(52).generator(), 1_000_000)
        assert np.median(x) == pytest.approx(0.0, abs=0.01)
        q1, q3 = np.quantile(x, [0.25, 0.75])
        assert q3 - q1 == pytest.approx(2.0, rel=0.02)

    def test_skewt_symmetric_when_gamma_one(self):
        x = SkewT(df=5.0, gamma=1.0).sample(RngStream(53).generator(), 400_000)
        skew = np.mean((x - x.mean()) ** 3) / np.std(x) ** 3
        assert abs(skew) < 0.05

    def test_skewt_positive_mass(self):
        g = 3.0
        x = SkewT(df=3.0, gamma=g).sample(RngStream(54).generator(), 400_000)
        assert np.mean(x > 0) == pytest.approx(g**2 / (1 + g**2), abs=0.005)

    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            Mixture(((0.5, Gaussian()), (0.6, Cauchy())))
        with pytest.raises(ValueError):
            Mixture(((-0.1, Gaussian()), (1.1, Cauchy())))

    def test_mixture_sampling_determinism(self):
        law = Mixture(((0.9, SkewT(3.0, 3.0)), (0.1, Gaussian(20.0))))
        a = law.sample(RngStream(55).generator(), 500)
        b = law.sample(RngStream(55).generator(), 500)
        np.testing.assert_array_equal(a, b)
