"""Special-function accuracy against closed forms and quadrature oracles.

K_nu and the upper incomplete gamma are taken straight from scipy.special;
the package keeps only their log forms, which the direct values check.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammaincc, kv

from hqreg import loss_density
from hqreg.specfun import (
    log_bessel_k,
    log_k1_derivs,
    log_k1_deriv,
    log_k1_deriv2,
    log_upper_gamma_half,
)


def upper_incomplete_gamma(s, x):
    """Gamma(s, x) = int_x^inf t^(s-1) e^-t dt, from scipy's regularised form."""
    return gammaincc(s, x) * gamma(s)


def bessel_k_quadrature(nu: float, x: float) -> float:
    """Independent oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    val, _ = quad(
        lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
        0.0,
        60.0,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=300,
    )
    return val


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        for x in (0.3, 1.0, 5.0, 40.0):
            assert kv(0.5, x) == pytest.approx(
                np.sqrt(np.pi / (2 * x)) * np.exp(-x), rel=1e-13
            )

    def test_k0_below_k_half(self):
        x = np.array([0.01, 0.1, 1.0, 3.0, 10.0, 100.0])
        assert np.all(kv(0.0, x) < kv(0.5, x))

    def test_against_quadrature_oracle(self):
        # frozen from the integral-representation oracle above
        assert bessel_k_quadrature(1.0, 2.5) == pytest.approx(0.07389081634774707, rel=1e-11)
        assert kv(1.0, 2.5) == pytest.approx(0.07389081634774707, rel=1e-12)
        for nu, x in [(0.0, 0.7), (2.0, 1.3), (1.0, 12.0), (3.5, 4.0)]:
            assert kv(nu, x) == pytest.approx(bessel_k_quadrature(nu, x), rel=1e-11)

    def test_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        xs = np.geomspace(0.01, 100.0, 25)
        for nu in (1.0, 2.0, 3.0):
            lhs = kv(nu + 1.0, xs)
            rhs = kv(nu - 1.0, xs) + (2.0 * nu / xs) * kv(nu, xs)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_positive_and_decreasing(self):
        xs = np.geomspace(1e-4, 500.0, 60)
        for nu in (0.0, 0.5, 1.0, 2.0, 7.5):
            vals = kv(nu, xs)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_large_argument_asymptotic(self):
        # log-space value tracks sqrt(pi/(2x)) e^{-x} beyond the underflow point
        x = 800.0
        expect = 0.5 * np.log(np.pi / (2 * x)) - x
        assert log_bessel_k(0.5, x) == pytest.approx(expect, rel=1e-12)
        assert log_bessel_k(1.0, 750.0) == pytest.approx(
            0.5 * np.log(np.pi / (2 * 750.0)) - 750.0, rel=1e-3
        )

    def test_domain_errors(self):
        # the package evaluates K_nu only through log_bessel_k, which guards x > 0
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, -2.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, np.nan)


class TestLogK1Derivatives:
    def test_first_matches_finite_difference(self):
        # the eta step needs log K_lambda at the chain's mixing index lambda
        lam = loss_density.CHAIN_MIXING_INDEX
        for eta in (0.1, 1.0, 10.0):
            h = 1e-6 * max(eta, 1.0)
            fd = (log_bessel_k(lam, eta + h) - log_bessel_k(lam, eta - h)) / (2 * h)
            assert log_k1_deriv(eta) == pytest.approx(fd, abs=1e-6)

    def test_first_frozen_value(self):
        # frozen from the finite-difference oracle (30-digit confirmation)
        assert log_k1_deriv(1.0) == pytest.approx(-1.6994839355937723, rel=1e-12)

    def test_first_always_negative(self):
        assert all(log_k1_deriv(eta) < 0 for eta in np.geomspace(1e-3, 1e3, 60))

    def test_first_large_eta_asymptote(self):
        for eta in (50.0, 200.0, 1000.0):
            assert log_k1_deriv(eta) == pytest.approx(-1.0 - 1.0 / (2 * eta), abs=2.0 / eta**2)

    def test_second_matches_finite_difference(self):
        lam = loss_density.CHAIN_MIXING_INDEX
        for eta in (0.5, 2.0, 20.0):
            h = 1e-4 * max(eta, 1.0)
            fd = (
                log_bessel_k(lam, eta + h)
                - 2 * log_bessel_k(lam, eta)
                + log_bessel_k(lam, eta - h)
            ) / h**2
            assert log_k1_deriv2(eta) == pytest.approx(fd, abs=1e-5)

    def test_second_positive_everywhere(self):
        # log-convexity of K_nu
        assert all(log_k1_deriv2(eta) > 0 for eta in np.geomspace(1e-3, 1e3, 50))

    def test_second_large_eta_asymptote(self):
        for eta in (100.0, 1000.0):
            assert log_k1_deriv2(eta) == pytest.approx(1.0 / (2 * eta**2), rel=0.1)

    def test_domain_errors(self):
        for fn in (log_k1_deriv, log_k1_deriv2):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(-1.0)


class TestUpperIncompleteGamma:
    def test_s_one_closed_form(self):
        for x in (0.0, 0.4, 2.0, 10.0):
            assert upper_incomplete_gamma(1.0, x) == pytest.approx(np.exp(-x), rel=1e-13)

    def test_complete_gamma_at_zero(self):
        assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_against_quadrature(self):
        val, _ = quad(lambda t: t**-0.5 * np.exp(-t), 1.3, np.inf, epsabs=1e-14)
        assert val == pytest.approx(0.18941100316208434, rel=1e-10)  # frozen
        assert upper_incomplete_gamma(0.5, 1.3) == pytest.approx(val, rel=1e-11)

    def test_decreasing_to_zero(self):
        xs = np.linspace(0.0, 40.0, 30)
        vals = upper_incomplete_gamma(1.7, xs)
        assert np.all(np.diff(vals) < 0)
        assert upper_incomplete_gamma(1.7, 600.0) < 1e-250

    def test_domain_errors(self):
        # scipy answers nan outside s > 0, x >= 0; the package's log form raises
        assert np.isnan(upper_incomplete_gamma(-1.0, 1.0))
        assert np.isnan(upper_incomplete_gamma(0.5, -0.1))
        with pytest.raises(ValueError):
            log_upper_gamma_half(-0.1)
        with pytest.raises(ValueError):
            log_upper_gamma_half(np.nan)


class TestLogUpperGammaHalf:
    def test_matches_direct_value(self):
        for x in (0.0, 0.3, 2.0, 30.0):
            assert log_upper_gamma_half(x) == pytest.approx(
                np.log(upper_incomplete_gamma(0.5, x)), rel=1e-12
            )

    def test_stable_for_huge_arguments(self):
        # direct product underflows past ~745; the log form must not
        val = log_upper_gamma_half(5000.0)
        # Gamma(1/2, x) ~ x^{-1/2} e^{-x} for large x
        assert val == pytest.approx(-0.5 * np.log(5000.0) - 5000.0, abs=0.01)


class TestFloatPaths:
    """The chain passes floats, and an int gives the same floats;
    non-finite and out-of-domain floats are rejected."""

    def test_int_gives_the_float_result(self):
        for x in (1, 2, 700):
            first, second = log_k1_derivs(x)
            assert isinstance(first, float) and isinstance(second, float)
            assert (first, second) == log_k1_derivs(float(x))
            value = log_upper_gamma_half(x)
            assert isinstance(value, float) and value == log_upper_gamma_half(float(x))
        assert log_upper_gamma_half(0) == log_upper_gamma_half(0.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_log_k1_derivs_rejects(self, x):
        with pytest.raises(ValueError):
            log_k1_derivs(x)

    @pytest.mark.parametrize("x", [-1e-300, -2.0, float("nan"), float("inf")])
    def test_log_upper_gamma_half_rejects(self, x):
        with pytest.raises(ValueError):
            log_upper_gamma_half(x)
