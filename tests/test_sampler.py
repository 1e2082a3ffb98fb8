"""Gibbs updates against analytic full conditionals, moment oracles, and a
joint prior-consistency (successive-conditional) check."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import kve

from hqreg import loss_density, sampler
from hqreg.randist import RngStream, ald_sample, gig_moment, gig_rvs
from hqreg.sampler import (
    ChainError,
    ChainHealth,
    Dataset,
    ElasticNetHyper,
    LassoHyper,
    ModelSpec,
    PosteriorSamples,
    initial_state,
    lambda3_log_accept_ratio,
    mh_update_lambda3_tilde,
    refine_eta_gamma_params,
    run_chain,
    summarize,
    update_beta,
    update_eta_approx,
    update_lambda1_sq,
    update_lambda4,
    update_rho2,
    update_s,
    update_sigma,
    update_t,
    update_v,
    update_v_and_latents,
)


def ar1_design(gen, n, k, r):
    z = gen.standard_normal((n, k))
    x = np.empty((n, k))
    x[:, 0] = z[:, 0]
    for j in range(1, k):
        x[:, j] = r * x[:, j - 1] + math.sqrt(1 - r * r) * z[:, j]
    return np.column_stack([np.ones(n), x])


def sim1_dataset(seed: int, n: int = 100):
    gen = RngStream(seed).generator()
    X = ar1_design(gen, n, 20, 0.5)
    beta = np.zeros(21)
    beta[[0, 1, 2, 4, 7, 11]] = [1.0, 3.0, 0.5, 1.0, 1.5, 1.0]
    y = X @ beta + 2.0 * gen.standard_normal(n)
    return Dataset(X, y), beta


class TestSpecValidation:
    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))

    def test_model_spec_invariants(self):
        with pytest.raises(ValueError):
            ModelSpec(tau=1.2)
        with pytest.raises(ValueError):
            ModelSpec(n_iter=100, burn_in=100)
        with pytest.raises(ValueError):
            ModelSpec(thin=0)
        with pytest.raises(ValueError):
            LassoHyper(a=-1.0)
        with pytest.raises(ValueError):
            ElasticNetHyper(b3=0.0)


class TestUpdateBeta:
    def test_flat_prior_limit(self, chain_state):
        # k = n = 1split, huge coefficient scale: mean -> x (y - (1-2tau) v) / x^2
        tau = 0.3
        data = Dataset(np.array([[1.7]]), np.array([2.2]))
        spec = ModelSpec(tau=tau)
        state = chain_state(
            LassoHyper, beta=np.zeros(1), v=np.ones(1), sigma=np.ones(1), rho2=1.0, eta=1.0,
            latent=np.array([1e12]), lambda1_sq=1.0,
        )
        expect = (data.y[0] - (1 - 2 * tau) * state.v[0]) / data.X[0, 0]
        gen = RngStream(300).generator()
        draws = np.array([update_beta(state, data, spec, gen)[0] for _ in range(20_000)])
        sd = math.sqrt(4.0 / data.X[0, 0] ** 2)
        assert abs(draws.mean() - expect) < 4.0 * sd / math.sqrt(draws.size)

    def test_median_case_drops_latent_offset(self, chain_state):
        # at tau = 1/2 the linear term uses y alone, whatever v is
        data = Dataset(np.array([[2.0]]), np.array([3.0]))
        spec = ModelSpec(tau=0.5)
        base = dict(beta=np.zeros(1), sigma=np.ones(1), rho2=1.0, eta=1.0,
                    latent=np.array([1e12]), lambda1_sq=1.0)
        means = []
        for v in (0.5, 4.0):
            state = chain_state(LassoHyper, v=np.full(1, v), **base)
            gen = RngStream(301).generator()
            draws = np.array([update_beta(state, data, spec, gen)[0] for _ in range(20_000)])
            means.append(draws.mean())
        # v changes the variance through V = 4 sigma v, so compare against the
        # common analytic mean y/x rather than each other
        for v, m in zip((0.5, 4.0), means):
            sd = math.sqrt(4.0 * v / data.X[0, 0] ** 2)
            assert abs(m - 1.5) < 4.0 * sd / math.sqrt(20_000)

    def test_full_conditional_matches_analytic_normal(self, chain_state):
        gen0 = RngStream(302).generator()
        n, k = 6, 2
        X = gen0.standard_normal((n, k))
        y = gen0.standard_normal(n)
        data = Dataset(X, y)
        tau = 0.4
        spec = ModelSpec(tau=tau)
        state = chain_state(
            LassoHyper,
            beta=np.zeros(k),
            v=gen0.uniform(0.5, 2.0, n),
            sigma=gen0.uniform(0.5, 2.0, n),
            rho2=0.8,
            eta=1.3,
            latent=np.array([0.9, 1.7]),
            lambda1_sq=1.0,
        )
        winv = 1.0 / (4.0 * state.sigma * state.v)
        precision = (X * winv[:, None]).T @ X + np.diag(1.0 / (state.rho2 * state.latent))
        cov = np.linalg.inv(precision)
        mean = cov @ (X * winv[:, None]).T @ (y - (1 - 2 * tau) * state.v)

        gen = RngStream(303).generator()
        draws = np.array([update_beta(state, data, spec, gen) for _ in range(100_000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * se)
        np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.05)
        zstd = (draws[:, 0] - mean[0]) / math.sqrt(cov[0, 0])
        ks = stats.kstest(zstd, "norm")
        assert ks.statistic < 0.01


class TestUpdateBetaForms:
    """The beta block takes the low-rank draw when k > n, the precision draw
    otherwise; both must give the full conditional exactly."""

    @staticmethod
    def _state(chain_state, penalty, n=3, k=6, seed=304):
        gen0 = RngStream(seed).generator()
        data = Dataset(gen0.standard_normal((n, k)), gen0.standard_normal(n))
        spec = ModelSpec(tau=0.3, penalty=penalty)
        v, sigma = gen0.uniform(0.5, 2.0, n), gen0.uniform(0.5, 2.0, n)
        if isinstance(penalty, LassoHyper):
            latent, rates = gen0.uniform(0.5, 2.0, k), dict(lambda1_sq=1.0)
        else:
            latent, rates = gen0.uniform(1.2, 3.0, k), dict(lambda3_tilde=1.0, lambda4=0.7)
        state = chain_state(penalty, beta=np.zeros(k), v=v, sigma=sigma, rho2=0.8, eta=1.3,
                            latent=latent, **rates)
        return data, spec, state

    @staticmethod
    def _full_conditional(data, spec, state):
        winv = 1.0 / (4.0 * state.sigma * state.v)
        if isinstance(spec.penalty, LassoHyper):
            prior = 1.0 / (state.rho2 * state.latent)
        else:
            t = state.latent
            prior = 2.0 * state.rates.lambda4 * t / (state.rho2 * (t - 1.0))
        precision = (data.X * winv[:, None]).T @ data.X + np.diag(prior)
        cov = np.linalg.inv(precision)
        h = (data.X * winv[:, None]).T @ (data.y - (1 - 2 * spec.tau) * state.v)
        return cov @ h, cov

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    def test_wide_state_exact_moments(self, penalty, linear_map, chain_state):
        data, spec, state = self._state(chain_state, penalty)
        mean, g = linear_map(lambda gen: update_beta(state, data, spec, gen), data.k + data.n)
        expect_mean, cov = self._full_conditional(data, spec, state)
        np.testing.assert_allclose(mean, expect_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(g @ g.T, cov, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n,k,form", [(4, 4, "mvn_from_precision"),
                                          (4, 5, "mvn_low_rank"),
                                          (5, 4, "mvn_from_precision")])
    def test_form_chosen_by_shape(self, monkeypatch, n, k, form, chain_state):
        import hqreg.sampler as sampler_mod

        data, spec, state = self._state(chain_state, LassoHyper(), n=n, k=k)
        taken = []
        for name in ("mvn_from_precision", "mvn_low_rank"):
            original = getattr(sampler_mod, name)

            def traced(*args, _name=name, _original=original):
                taken.append(_name)
                return _original(*args)

            monkeypatch.setattr(sampler_mod, name, traced)
        update_beta(state, data, spec, RngStream(306).generator())
        assert taken == [form]


    @staticmethod
    def _phi_form_draw(rng, x, row_scale, prior_var, alpha):
        """Oracle: the low-rank draw written plainly, phi = diag(row_scale) x
        formed and its gram built by a product of two matrices."""
        phi = x * row_scale[:, None]
        n, k = phi.shape
        scaled = phi * prior_var
        gram = scaled @ phi.T + np.eye(n)
        z = rng.standard_normal(k + n)
        u = np.sqrt(prior_var) * z[:k]
        w = np.linalg.solve(gram, alpha - phi @ u - z[k:])
        return u + scaled.T @ w

    def test_wide_chain_matches_phi_form_oracle(self, monkeypatch):
        # the two forms differ only in rounding, and a k > n chain does not
        # amplify rounding: the chains stay together draw for draw
        gen = RngStream(307).generator()
        n, k = 30, 60
        x = gen.standard_normal((n, k))
        beta = np.zeros(k)
        beta[:4] = [2.0, -1.5, 1.0, 0.5]
        data = Dataset(x, x @ beta + 0.5 * gen.standard_normal(n))
        spec = ModelSpec(tau=0.5, n_iter=60, burn_in=0)
        kernel = run_chain(data, spec, rng=RngStream(308).generator()).draws
        monkeypatch.setattr(sampler, "mvn_low_rank", self._phi_form_draw)
        oracle = run_chain(data, spec, rng=RngStream(308).generator()).draws
        np.testing.assert_allclose(kernel, oracle, rtol=1e-6, atol=0)


@pytest.fixture(params=[1.0, 1.5])
def chain_index(request, monkeypatch):
    """The chain's mixing index, set to the running value 1 and to the
    documented density's 3/2."""
    monkeypatch.setattr(loss_density, "CHAIN_MIXING_INDEX", request.param)
    return request.param


class TestUpdateSigmaV:
    def test_v_coefficient_identity(self):
        # (1-2 tau)^2/(4 sigma) + tau(1-tau)/sigma == 1/(4 sigma)
        for tau in np.linspace(0.1, 0.9, 9):
            for sigma in (0.1, 1.0, 7.0):
                lhs = (1 - 2 * tau) ** 2 / (4 * sigma) + tau * (1 - tau) / sigma
                assert lhs == pytest.approx(1.0 / (4.0 * sigma), rel=1e-15)

    def test_sigma_fixture_moments(self, chain_state, chain_index):
        # residual 0.5, v = 1, tau = 0.5, eta = rho2 = 1:
        # order lambda - 3/2, c^2 = 1, d^2 = 0.0625 + 0.25 + 1.  Order 0
        # takes the array Devroye path, so one call over identical rows
        # gives every draw
        m = 100_000
        data = Dataset(np.ones((m, 1)), np.full(m, 0.5))
        spec = ModelSpec(tau=0.5)
        state = chain_state(
            LassoHyper, beta=np.zeros(1), v=np.ones(m), sigma=np.ones(m), rho2=1.0, eta=1.0,
            latent=np.ones(1), lambda1_sq=1.0,
        )
        p = (chain_index - 1.5, 1.0, math.sqrt(1.3125))
        resid = data.y - data.X @ state.beta
        draws = update_sigma(state, data, spec, RngStream(310).generator(), resid)
        mean = gig_moment(*p, 1.0)
        var = gig_moment(*p, 2.0) - mean**2
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)

    def test_sigma_positive_under_zero_residual_and_tiny_v(self, chain_state):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        spec = ModelSpec(tau=0.5)
        state = chain_state(
            LassoHyper, beta=np.zeros(1), v=np.full(1, 1e-12), sigma=np.ones(1), rho2=2.0, eta=0.5,
            latent=np.ones(1), lambda1_sq=1.0,
        )
        resid = data.y - data.X @ state.beta
        draws = update_sigma(state, data, spec, RngStream(311).generator(), resid)
        assert np.all(draws > 0)

    def test_v_zero_residual_gamma_dispatch(self, chain_state):
        # y = X beta exactly: d = 0 hits the gamma boundary, no error
        data = Dataset(np.array([[1.0], [2.0]]), np.array([0.7, 1.4]))
        spec = ModelSpec(tau=0.3)
        state = chain_state(
            LassoHyper, beta=np.array([0.7]), v=np.ones(2), sigma=np.ones(2), rho2=1.0, eta=1.0,
            latent=np.ones(1), lambda1_sq=1.0,
        )
        resid = data.y - data.X @ state.beta
        draws = update_v(state, data, spec, RngStream(312).generator(), resid)
        assert np.all(draws > 0)

    def test_v_fixture_moments(self, chain_state):
        data = Dataset(np.array([[1.0]]), np.array([1.2]))
        spec = ModelSpec(tau=0.25)
        state = chain_state(
            LassoHyper, beta=np.zeros(1), v=np.ones(1), sigma=np.full(1, 0.7), rho2=1.0, eta=1.0,
            latent=np.ones(1), lambda1_sq=1.0,
        )
        c = 0.5 / math.sqrt(0.7)
        d = 1.2 * c
        p = (0.5, c, d)
        gen = RngStream(313).generator()
        resid = data.y - data.X @ state.beta
        draws = np.array([update_v(state, data, spec, gen, resid)[0] for _ in range(100_000)])
        mean = gig_moment(*p, 1.0)
        var = gig_moment(*p, 2.0) - mean**2
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)


class TestUpdateRho2:
    @staticmethod
    def _state(chain_state, **kw):
        base = dict(beta=np.array([0.3]), v=np.ones(1), sigma=np.array([2.0]), rho2=1.0,
                    eta=0.7, latent=np.array([1.5]), lambda1_sq=1.0)
        base.update(kw)
        return chain_state(LassoHyper, **base)

    def test_fixture_moments(self, chain_state, chain_index):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        spec = ModelSpec(tau=0.5)
        state = self._state(chain_state)
        # order -(lambda n + k/2) at n = k = 1, c^2 = 0.7/2, d^2 = 0.7*2 + 0.09/1.5
        p = (-(chain_index + 0.5), math.sqrt(0.35), math.sqrt(1.4 + 0.06))
        gen = RngStream(320).generator()
        draws = np.array([update_rho2(state, data, spec, gen) for _ in range(100_000)])
        mean = gig_moment(*p, 1.0)
        var = gig_moment(*p, 2.0) - mean**2
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)

    def test_zero_beta_drops_penalty_term(self, chain_state, chain_index):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        spec = ModelSpec(tau=0.5)
        state = self._state(chain_state, beta=np.zeros(1))
        p = (-(chain_index + 0.5), math.sqrt(0.35), math.sqrt(1.4))
        gen = RngStream(321).generator()
        draws = np.array([update_rho2(state, data, spec, gen) for _ in range(100_000)])
        mean = gig_moment(*p, 1.0)
        var = gig_moment(*p, 2.0) - mean**2
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)

    def test_elastic_large_t_limit(self, chain_state, chain_index):
        # t -> inf: the j-th 1/x coefficient term tends to 2 lam4 beta_j^2
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper())
        state = chain_state(
            ElasticNetHyper, beta=np.array([0.6]), v=np.ones(1), sigma=np.array([2.0]), rho2=1.0,
            eta=0.7, latent=np.array([1e9]), lambda3_tilde=1.0, lambda4=1.2,
        )
        p = (-(chain_index + 0.5), math.sqrt(0.35), math.sqrt(1.4 + 2.0 * 1.2 * 0.36))
        gen = RngStream(322).generator()
        draws = np.array([update_rho2(state, data, spec, gen) for _ in range(100_000)])
        mean = gig_moment(*p, 1.0)
        var = gig_moment(*p, 2.0) - mean**2
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)


class TestLassoBlock:
    def test_s_fixture_moments(self, chain_state):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        spec = ModelSpec(tau=0.5)
        state = chain_state(
            LassoHyper, beta=np.array([0.8]), v=np.ones(1), sigma=np.ones(1), rho2=4.0, eta=1.0,
            latent=np.ones(1), lambda1_sq=2.25,
        )
        p = (0.5, 1.5, 0.4)  # c = lam1, d = |beta|/sqrt(rho2)
        gen = RngStream(330).generator()
        draws = np.array([update_s(state, data, spec, gen)[0] for _ in range(100_000)])
        mean = gig_moment(*p, 1.0)
        var = gig_moment(*p, 2.0) - mean**2
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(var / draws.size)

    def test_lambda1_gamma_moments(self, chain_state):
        data = Dataset(np.ones((1, 2)), np.zeros(1))
        spec = ModelSpec(tau=0.5, penalty=LassoHyper(a=1.5, b=0.5))
        state = chain_state(
            LassoHyper, beta=np.zeros(2), v=np.ones(1), sigma=np.ones(1), rho2=1.0, eta=1.0,
            latent=np.array([1.0, 3.0]), lambda1_sq=1.0,
        )
        gen = RngStream(331).generator()
        draws = np.array([update_lambda1_sq(state, data, spec, gen) for _ in range(100_000)])
        shape, rate = 1.5 + 2, 0.5 + 2.0
        assert draws.mean() == pytest.approx(shape / rate, abs=4 * math.sqrt(shape) / rate / math.sqrt(draws.size))
        assert draws.var() == pytest.approx(shape / rate**2, rel=0.05)

    def test_lambda1_no_coefficients_is_pure_prior(self, chain_state):
        # degenerate k = 0: the draw is exactly Gamma(a, b)
        spec = ModelSpec(tau=0.5, penalty=LassoHyper(a=2.0, b=3.0))
        state = chain_state(LassoHyper, beta=np.zeros(0), v=np.ones(1), sigma=np.ones(1),
                            rho2=1.0, eta=1.0, latent=np.zeros(0), lambda1_sq=1.0)
        fake_data = SimpleNamespace(k=0)
        gen = RngStream(332).generator()
        draws = np.array([update_lambda1_sq(state, fake_data, spec, gen) for _ in range(50_000)])
        assert draws.mean() == pytest.approx(2.0 / 3.0, abs=0.01)
        assert draws.var() == pytest.approx(2.0 / 9.0, rel=0.06)


class TestElasticBlock:
    def test_t_strictly_above_one(self, chain_state):
        data = Dataset(np.ones((1, 3)), np.zeros(1))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper())
        state = chain_state(
            ElasticNetHyper, beta=np.array([0.0, 0.5, -2.0]), v=np.ones(1), sigma=np.ones(1),
            rho2=1.0, eta=1.0, latent=np.full(3, 2.0), lambda3_tilde=0.8, lambda4=1.1,
        )
        draws = update_t(state, data, spec, RngStream(340).generator())
        assert np.all(draws > 1.0)

    def test_lambda4_gamma_moments(self, chain_state):
        data = Dataset(np.ones((1, 2)), np.zeros(1))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper(a2=2.0, b2=1.5))
        state = chain_state(
            ElasticNetHyper, beta=np.array([0.5, 1.0]), v=np.ones(1), sigma=np.ones(1), rho2=2.0,
            eta=1.0, latent=np.array([2.0, 3.0]), lambda3_tilde=1.0, lambda4=1.0,
        )
        rate = (2.0 * 0.25 / (2.0 * 1.0) + 3.0 * 1.0 / (2.0 * 2.0)) + 1.5
        shape = 1.0 + 2.0
        gen = RngStream(341).generator()
        draws = np.array([update_lambda4(state, data, spec, gen) for _ in range(50_000)])
        assert draws.mean() == pytest.approx(shape / rate, rel=0.02)

    def test_mh_ratio_zero_for_no_coefficients(self):
        gen = RngStream(342).generator()
        for _ in range(20):
            cur, prop = gen.uniform(0.01, 5.0, size=2)
            assert lambda3_log_accept_ratio(cur, prop, 0, 0.0, 1.3, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_mh_ratio_against_quadrature_oracle(self):
        # k = 2, sum t = 3, a1 = b1 = 1, move 1 -> 2, oracle via direct
        # quadrature of the upper incomplete gamma factors
        def upper_half(x):
            val, _ = quad(lambda t: t**-0.5 * np.exp(-t), x, np.inf, epsabs=1e-14)
            return val

        def log_target(lam):
            return -2.0 * math.log(upper_half(lam)) + math.log(lam) - 4.0 * lam

        def log_prop(lam):
            return 2.0 * math.log(lam) - 2.0 * lam

        oracle = (log_target(2.0) - log_target(1.0)) + (log_prop(1.0) - log_prop(2.0))
        got = lambda3_log_accept_ratio(1.0, 2.0, 2, 3.0, 1.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_mh_long_run_marginal(self, chain_state):
        # frozen latents: the chain's stationary law must match the
        # quadrature-normalised target (smaller companion of the full
        # acceptance-scale run)
        sum_t, a1, b1, k = 3.0, 1.0, 1.0, 2
        data = Dataset(np.ones((1, 2)), np.zeros(1))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper(a1=a1, b1=b1))
        state = chain_state(
            ElasticNetHyper, beta=np.zeros(2), v=np.ones(1), sigma=np.ones(1), rho2=1.0,
            eta=1.0, latent=np.array([1.5, 1.5]), lambda3_tilde=1.0, lambda4=1.0,
        )
        gen = RngStream(343).generator()
        draws = np.empty(30_000)
        for i in range(draws.size):
            draws[i] = mh_update_lambda3_tilde(state, data, spec, gen, ChainHealth())
            state.rates = state.rates._replace(lambda3_tilde=draws[i])

        from hqreg.specfun import log_upper_gamma_half

        def target(lam):
            return math.exp(-k * log_upper_gamma_half(lam) + (k / 2 + a1 - 1) * math.log(lam)
                            - (sum_t + b1) * lam)

        norm, _ = quad(target, 0, np.inf, limit=200)
        probe = np.quantile(draws, np.linspace(0.02, 0.98, 25))
        cdf = np.array([quad(target, 0, p, limit=200)[0] / norm for p in probe])
        emp = np.searchsorted(np.sort(draws), probe, side="right") / draws.size
        assert np.max(np.abs(cdf - emp)) < 0.015


class TestPenaltyContract:
    """Each penalty object gives the beta and rho2 blocks one prior, and a
    pinned rate stays where it was pinned."""

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    def test_rho2_quadratic_matches_prior_precision(self, penalty, chain_state):
        gen = RngStream(370).generator()
        for _ in range(20):
            state = _full_state(chain_state, gen, 3, 7, penalty)
            expect = state.rho2 * np.sum(state.beta**2 * penalty.prior_precision(state))
            assert penalty.rho2_quadratic(state) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("penalty,column", [
        (LassoHyper(fixed_lambda1_sq=0.37), "lambda1_sq"),
        (ElasticNetHyper(fixed_lambda3_tilde=0.37), "lambda3_tilde"),
    ])
    def test_pinned_rate_stays_fixed(self, penalty, column):
        data, _ = sim1_dataset(404, n=30)
        spec = ModelSpec(tau=0.5, penalty=penalty, n_iter=150, burn_in=50, seed=4)
        samples = run_chain(data, spec)
        assert samples.columns[data.k + 2:] == list(penalty.Rates._fields)
        assert np.all(samples.column(column) == 0.37)
        assert samples.health.mh_proposals == 0


def _full_state(chain_state, gen, n, k, penalty):
    """A random interior state of ``penalty``'s family."""
    state = dict(beta=gen.standard_normal(k), v=gen.uniform(0.05, 3.0, n),
                 sigma=gen.uniform(0.05, 3.0, n), rho2=gen.uniform(0.1, 4.0),
                 eta=gen.uniform(0.2, 5.0))
    if isinstance(penalty, LassoHyper):
        return chain_state(penalty, **state, latent=gen.uniform(0.05, 5.0, k),
                           lambda1_sq=gen.uniform(0.2, 3.0))
    return chain_state(penalty, **state, latent=gen.uniform(1.01, 6.0, k),
                       lambda3_tilde=gen.uniform(0.2, 3.0), lambda4=gen.uniform(0.2, 3.0))


class TestLeanBlocks:
    """The blocks compute their inputs in place, with the same operations in
    the same order as the plain expressions, and never touch the state."""

    def test_clamp_returns_input_when_nothing_is_below_floor(self):
        health = ChainHealth()
        arr = np.array([1e-300, 0.5, 3.0])
        assert sampler._clamp_positive(arr, health) is arr
        assert health.positivity_clamps == 0

    def test_clamp_floors_and_counts(self):
        health = ChainHealth()
        arr = np.array([1.0, 0.0, -2.0, 1e-310, 5.0])
        out = sampler._clamp_positive(arr, health)
        np.testing.assert_array_equal(out, [1.0, 1e-300, 1e-300, 1e-300, 5.0])
        assert health.positivity_clamps == 3
        np.testing.assert_array_equal(arr, [1.0, 0.0, -2.0, 1e-310, 5.0])

    def test_clamp_passes_nan_through(self):
        health = ChainHealth()
        out = sampler._clamp_positive(np.array([np.nan, 2.0, 0.0]), health)
        assert np.isnan(out[0]) and out[1] == 2.0 and out[2] == 1e-300
        assert health.positivity_clamps == 1

    @pytest.mark.parametrize("tau", [0.25, 0.5])
    def test_gig_arguments_match_plain_expressions(self, tau, monkeypatch, chain_state):
        calls = []

        def capture(gen, nu, c, d):
            calls.append((nu, c, d))
            return np.ones(np.shape(d)) if np.ndim(d) else 1.0

        monkeypatch.setattr(sampler, "gig_rvs", capture)
        gen = RngStream(380).generator()
        n, k = 12, 4
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        for penalty in (LassoHyper(), ElasticNetHyper()):
            spec = ModelSpec(tau=tau, penalty=penalty)
            st = _full_state(chain_state, gen, n, k, penalty)
            calls.clear()
            resid = data.y - data.X @ st.beta
            update_sigma(st, data, spec, gen, resid)
            update_v(st, data, spec, gen, resid)
            (update_s if isinstance(penalty, LassoHyper) else update_t)(st, data, spec, gen)
            update_rho2(st, data, spec, gen)
            r_sig = resid - (1.0 - 2.0 * tau) * st.v
            d_sq = r_sig * r_sig / (4.0 * st.v) + tau * (1.0 - tau) * st.v + st.eta * st.rho2
            c_v = 0.5 / np.sqrt(st.sigma)
            if isinstance(penalty, LassoHyper):
                c_pen = math.sqrt(st.rates.lambda1_sq)
                d_pen = np.abs(st.beta) / math.sqrt(st.rho2)
                quad_sum = float(np.sum(st.beta**2 / st.latent))
            else:
                lam3_tilde, lam4 = st.rates
                t = st.latent
                c_pen = math.sqrt(2.0 * lam3_tilde)
                d_pen = np.sqrt(2.0 * lam4 / st.rho2) * np.abs(st.beta)
                quad_sum = float(np.sum(2.0 * lam4 * t * st.beta**2 / (t - 1.0)))
            c_rho2 = math.sqrt(st.eta * float(np.sum(1.0 / st.sigma)))
            d_rho2 = math.sqrt(st.eta * float(np.sum(st.sigma)) + quad_sum)
            lam = loss_density.CHAIN_MIXING_INDEX
            expected = [
                (lam - 1.5, math.sqrt(st.eta / st.rho2), np.sqrt(d_sq)),
                (0.5, c_v, np.abs(resid) * c_v),
                (0.5, c_pen, d_pen),
                (-(lam * n + k / 2.0), c_rho2, d_rho2),
            ]
            assert len(calls) == len(expected)
            for got, want in zip(calls, expected):
                for a, b in zip(got, want):
                    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("n,k", [(12, 4), (5, 9)])
    def test_beta_system_matches_plain_expressions(self, n, k, monkeypatch, chain_state):
        calls = []
        monkeypatch.setattr(sampler, "mvn_from_precision",
                            lambda rng, p, h: calls.append((p, h)) or np.zeros(k))
        monkeypatch.setattr(sampler, "mvn_low_rank",
                            lambda rng, x, scale, var, a: calls.append((x, scale, var, a))
                            or np.zeros(k))
        gen = RngStream(381).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(tau=0.3)
        st = _full_state(chain_state, gen, n, k, spec.penalty)
        update_beta(st, data, spec, gen)
        winv = 1.0 / np.maximum(4.0 * st.sigma * st.v, 1e-280)
        target = data.y - (1.0 - 2.0 * spec.tau) * st.v
        prior = spec.penalty.prior_precision(st)
        if k > n:
            root = np.sqrt(winv)
            want = (data.X, root, 1.0 / prior, root * target)
        else:
            xw = data.X * winv[:, None]
            precision = xw.T @ data.X
            precision.flat[:: k + 1] += prior
            want = (precision, xw.T @ target)
        for a, b in zip(calls[0], want):
            assert a.tobytes() == b.tobytes()

    def test_scalar_rates_match_plain_expressions(self, monkeypatch, chain_state):
        gen = RngStream(382).generator()
        n, k = 10, 6
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(tau=0.4, penalty=ElasticNetHyper())
        st = _full_state(chain_state, gen, n, k, spec.penalty)
        rate = float(np.sum(st.latent * st.beta**2 / (st.rho2 * (st.latent - 1.0)))) + 1.0
        draw = update_lambda4(st, data, spec, RngStream(383).generator())
        assert draw == float(RngStream(383).generator().gamma(k / 2.0 + 1.0) / rate)
        spec = ModelSpec(tau=0.4, penalty=LassoHyper())
        st = _full_state(chain_state, gen, n, k, spec.penalty)
        rate = 1.0 + 0.5 * float(np.sum(st.latent))
        draw = update_lambda1_sq(st, data, spec, RngStream(384).generator())
        assert draw == float(RngStream(384).generator().gamma(1.0 + k) / rate)
        seen = []
        monkeypatch.setattr(sampler, "refine_eta_gamma_params",
                            lambda a, b, s_sum, *rest: seen.append(s_sum) or (1.0, 1.0, []))
        update_eta_approx(st, spec, gen, ChainHealth())
        assert seen == [0.5 * float(np.sum(st.sigma / st.rho2 + st.rho2 / st.sigma))]

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    @pytest.mark.parametrize("n,k", [(15, 4), (4, 9)])
    def test_blocks_leave_state_arrays_untouched(self, penalty, n, k, chain_state):
        gen = RngStream(385).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(tau=0.3, penalty=penalty)
        st = _full_state(chain_state, gen, n, k, penalty)
        before = {f: np.copy(getattr(st, f)) for f in ("beta", "v", "sigma", "latent")}
        X, y = data.X.copy(), data.y.copy()
        resid = data.y - data.X @ st.beta
        update_beta(st, data, spec, gen)
        update_sigma(st, data, spec, gen, resid)
        update_v(st, data, spec, gen, resid)
        update_v_and_latents(st, data, spec, gen, resid)
        update_rho2(st, data, spec, gen)
        update_eta_approx(st, spec, gen, ChainHealth())
        penalty.rho2_quadratic(st)
        penalty.prior_precision(st)
        if isinstance(penalty, LassoHyper):
            update_s(st, data, spec, gen)
            update_lambda1_sq(st, data, spec, gen)
        else:
            update_t(st, data, spec, gen)
            update_lambda4(st, data, spec, gen)
            mh_update_lambda3_tilde(st, data, spec, gen, ChainHealth())
        for f, arr in before.items():
            assert getattr(st, f).tobytes() == arr.tobytes(), f
        assert data.X.tobytes() == X.tobytes() and data.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n,k", [(12, 4), (5, 9)])
    def test_shared_residual_gives_plain_gig_arguments(self, tau, n, k, monkeypatch,
                                                      chain_state):
        calls = []
        monkeypatch.setattr(sampler, "gig_rvs",
                            lambda gen, nu, c, d: calls.append((nu, c, d)) or 1.0)
        gen = RngStream(386).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(tau=tau)
        st = _full_state(chain_state, gen, n, k, spec.penalty)
        resid = data.y - data.X @ st.beta
        kept = resid.copy()
        update_sigma(st, data, spec, gen, resid)
        update_v(st, data, spec, gen, resid)
        # the expressions of the blocks before the residual was shared
        d = data.y - data.X @ st.beta
        d -= (1.0 - 2.0 * tau) * st.v
        d *= d
        d /= 4.0 * st.v
        d += tau * (1.0 - tau) * st.v
        d += st.eta * st.rho2
        np.sqrt(d, out=d)
        c_v = np.sqrt(st.sigma)
        np.divide(0.5, c_v, out=c_v)
        d_v = data.y - data.X @ st.beta
        np.abs(d_v, out=d_v)
        d_v *= c_v
        expected = [(loss_density.CHAIN_MIXING_INDEX - 1.5, math.sqrt(st.eta / st.rho2), d),
                    (0.5, c_v, d_v)]
        assert len(calls) == 2
        for got, want in zip(calls, expected):
            for a, b in zip(got, want):
                assert np.asarray(a, dtype=float).tobytes() == np.asarray(b).tobytes()
        assert resid.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    def test_run_chain_shares_the_post_beta_residual(self, penalty, monkeypatch):
        # sigma and the joint v block get y - X beta at the beta of their
        # own scan
        seen = []
        for name in ("update_sigma", "update_v_and_latents"):
            block = getattr(sampler, name)

            def spy(state, data, spec, gen, resid, block=block, name=name):
                seen.append((name, resid.tobytes(),
                             (data.y - data.X @ state.beta).tobytes()))
                return block(state, data, spec, gen, resid)

            monkeypatch.setattr(sampler, name, spy)
        gen = RngStream(387).generator()
        data = Dataset(gen.standard_normal((15, 4)), gen.standard_normal(15))
        run_chain(data, ModelSpec(tau=0.3, penalty=penalty, n_iter=6, burn_in=2, seed=5))
        assert [name for name, _, _ in seen] == ["update_sigma", "update_v_and_latents"] * 6
        assert all(resid == plain for _, resid, plain in seen)


def _scan_in_separate_calls(data, spec):
    """run_chain with v and the penalty latents drawn by two GIG calls, as
    the scan was written before the joint block: the oracle for its bits."""
    gen = RngStream(spec.seed).generator()
    state = initial_state(data, spec)
    health = ChainHealth()
    penalty = spec.penalty
    rows = []
    for it in range(1, spec.n_iter + 1):
        state.beta = update_beta(state, data, spec, gen)
        resid = data.y - data.X @ state.beta
        state.sigma = sampler._clamp_positive(update_sigma(state, data, spec, gen, resid), health)
        state.v = sampler._clamp_positive(update_v(state, data, spec, gen, resid), health)
        if isinstance(penalty, LassoHyper):
            state.latent = sampler._clamp_positive(update_s(state, data, spec, gen), health)
            state.rates = penalty.Rates(update_lambda1_sq(state, data, spec, gen))
        else:
            state.latent = 1.0 + sampler._clamp_positive(update_t(state, data, spec, gen) - 1.0,
                                                         health, sampler._T_GAP_FLOOR)
            lam4 = update_lambda4(state, data, spec, gen)
            state.rates = penalty.Rates(mh_update_lambda3_tilde(state, data, spec, gen, health),
                                        lam4)
        state.rho2 = update_rho2(state, data, spec, gen)
        if state.rho2 < 1e-300:
            state.rho2 = 1e-300
            health.positivity_clamps += 1
        state.eta = update_eta_approx(state, spec, gen, health)
        if it > spec.burn_in:
            rows.append([*state.beta, state.rho2, state.eta, *state.rates])
    return np.array(rows), health


class TestJointLatentBlock:
    """v and the penalty latents come from one GIG call, with the draws of
    the two calls the scan used to make."""

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    @pytest.mark.parametrize("tau", [0.25, 0.5])
    @pytest.mark.parametrize("n,k", [(15, 4), (5, 9)])
    def test_run_chain_matches_separate_calls(self, penalty, tau, n, k):
        gen = RngStream(390).generator()
        X = gen.standard_normal((n, k))
        data = Dataset(X, X @ gen.standard_normal(k) + gen.standard_t(3, n))
        spec = ModelSpec(tau=tau, penalty=penalty, n_iter=120, burn_in=20, seed=11)
        samples = run_chain(data, spec)
        rows, health = _scan_in_separate_calls(data, spec)
        assert samples.draws.tobytes() == rows.tobytes()
        assert samples.health == health

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    def test_interior_state_takes_one_call(self, penalty, monkeypatch, chain_state):
        calls = []
        draw = sampler.gig_rvs
        monkeypatch.setattr(sampler, "gig_rvs",
                            lambda *args, **kwargs: calls.append(args) or draw(*args, **kwargs))
        gen = RngStream(391).generator()
        n, k = 12, 5
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        st = _full_state(chain_state, gen, n, k, penalty)
        resid = data.y - data.X @ st.beta
        drawn = update_v_and_latents(st, data, ModelSpec(penalty=penalty), gen, resid)
        assert len(calls) == 1 and drawn.shape == (n + k,)

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    @pytest.mark.parametrize("zero_resid,zero_coef", [(True, True), (True, False), (False, True)])
    def test_boundary_pairs_take_one_call(self, penalty, zero_resid, zero_coef, monkeypatch,
                                          chain_state):
        # a zero residual or coefficient sends its pair to the gamma limit
        # inside the one joint call, which then orders its draws by kind
        calls = []
        draw = sampler.gig_rvs
        monkeypatch.setattr(sampler, "gig_rvs",
                            lambda *args, **kwargs: calls.append(args) or draw(*args, **kwargs))
        gen = RngStream(392).generator()
        n, k = 9, 4
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(tau=0.3, penalty=penalty)
        st = _full_state(chain_state, gen, n, k, penalty)
        if zero_coef:
            st.beta[2] = 0.0
        resid = data.y - data.X @ st.beta
        if zero_resid:
            resid[4] = 0.0
        drawn = update_v_and_latents(st, data, spec, RngStream(393).generator(), resid)
        assert len(calls) == 1
        c_v, d_v = sampler._v_params(st, resid)
        c_pen, d_pen = penalty.latent_params(st)
        c = np.concatenate((c_v, np.full(k, c_pen)))
        d = np.concatenate((d_v, d_pen))
        assert (d == 0.0).sum() == zero_resid + zero_coef
        expect = gig_rvs(RngStream(393).generator(), 0.5, c, d)
        assert drawn.tobytes() == expect.tobytes()

    def test_update_clamps_as_the_separate_calls(self, chain_state):
        n, k = 3, 2
        gen = RngStream(396).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        drawn = np.array([0.5, 0.0, 1e-310, 2.0, 1e-20])
        st = _full_state(chain_state, gen, n, k, LassoHyper())
        health = ChainHealth()
        LassoHyper().update(st, data, ModelSpec(), gen, health, drawn.copy())
        assert st.v.tolist() == [0.5, 1e-300, 1e-300] and st.latent.tolist() == [2.0, 1e-20]
        assert health.positivity_clamps == 2
        # t = 1 + x rounds x = 1e-20 to 0 before the clamp, which counts it
        # and floors it at 2^-52
        st = _full_state(chain_state, gen, n, k, ElasticNetHyper())
        health = ChainHealth()
        ElasticNetHyper().update(st, data, ModelSpec(penalty=ElasticNetHyper()), gen, health,
                                 drawn.copy())
        assert st.v.tolist() == [0.5, 1e-300, 1e-300]
        assert st.latent.tolist() == [3.0, 1.0 + 2.0**-52]
        assert health.positivity_clamps == 3

    def test_latent_below_half_an_ulp_keeps_t_above_one(self, chain_state):
        # a t - 1 draw of 1e-17 rounds t to 1; the floor keeps t > 1, so the
        # blocks that divide by t - 1 stay finite and warn of nothing
        n, k = 5, 3
        gen = RngStream(397).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(penalty=ElasticNetHyper())
        st = _full_state(chain_state, gen, n, k, spec.penalty)
        drawn = np.concatenate((st.v, [1e-17, 0.4, 2.0]))
        health = ChainHealth()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ElasticNetHyper().update(st, data, spec, gen, health, drawn)
            assert np.all(st.latent > 1.0) and st.latent[0] == 1.0 + 2.0**-52
            assert health.positivity_clamps == 1
            assert np.isfinite(st.rates.lambda4) and st.rates.lambda4 > 0
            assert np.isfinite(update_beta(st, data, spec, gen)).all()
            assert np.isfinite(update_lambda4(st, data, spec, gen))
            assert np.isfinite(update_rho2(st, data, spec, gen))

    def test_wald_range_error_from_the_joint_block(self, chain_state):
        # c = sqrt(l1sq) = 1e150 and d = 1e-160 for one coefficient: c*d is
        # interior but the Wald mean c/d overflows
        gen = RngStream(394).generator()
        n, k = 6, 3
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        st = _full_state(chain_state, gen, n, k, LassoHyper())
        st.rho2, st.rates = 1.0, LassoHyper.Rates(1e300)
        st.beta = np.array([1e-160, 0.5, -1.0])
        gen = RngStream(395).generator()
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match=r"GIG\(1/2\) Wald mean c/d overflows to inf"):
            update_v_and_latents(st, data, ModelSpec(penalty=LassoHyper()), gen,
                                 data.y - data.X @ st.beta)
        assert gen.bit_generator.state == before


class TestEtaUpdate:
    def test_no_data_draws_prior(self, chain_state):
        spec = ModelSpec(tau=0.5, penalty=LassoHyper(c=2.0, d=3.0))
        state = chain_state(LassoHyper, beta=np.zeros(1), v=np.zeros(0), sigma=np.zeros(0),
                            rho2=1.0, eta=1.0, latent=np.ones(1), lambda1_sq=1.0)
        gen = RngStream(350).generator()
        draws = np.array([update_eta_approx(state, spec, gen, ChainHealth())
                          for _ in range(50_000)])
        assert draws.mean() == pytest.approx(2.0 / 3.0, abs=0.012)
        assert draws.var() == pytest.approx(2.0 / 9.0, rel=0.06)

    def test_refinement_gap_decreases_on_frozen_fixture(self):
        gen = RngStream(70).generator()
        sigma = gig_rvs(gen, 1.0, np.full(20, 1.0), np.full(20, 1.0))
        s_sum = 0.5 * float(np.sum(sigma + 1.0 / sigma))
        _, _, gaps = refine_eta_gamma_params(1.0, 1.0, s_sum, 20, 1.0)
        assert len(gaps) >= 2
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-8

    @pytest.mark.parametrize(
        "a,b,s_sum,n,eta_fallback",
        [(1.0, 1.0, 25.0, 20, 1.0), (2.0, 0.5, 130.0, 100, 0.3), (1.0, 1.0, 2.0, 20, 0.5)],
    )
    def test_refinement_matches_two_function_form(self, a, b, s_sum, n, eta_fallback):
        # the refinement as written with one Bessel call per derivative
        def d1(eta):
            return -(kve(0, eta) + kve(2, eta)) / (2.0 * kve(1, eta))

        def d2(eta):
            first = (kve(0, eta) + kve(2, eta)) / (2.0 * kve(1, eta))
            return (3.0 + kve(3, eta) / kve(1, eta)) / 4.0 - first * first

        A, B = a + n / 2.0, s_sum + b - n
        eta = eta_fallback if B <= 0 else None
        gaps = []
        for _ in range(10):
            if B > 0:
                eta = A / B
            A = a + n * eta * eta * d2(eta)
            B = b + (A - a) / eta + n * d1(eta) + s_sum
            gaps.append(abs(eta / (A / B) - 1.0) if B > 0 else float("inf"))
            if gaps[-1] < 1e-8:
                break

        A_new, B_new, gaps_new = refine_eta_gamma_params(a, b, s_sum, n, eta_fallback)
        assert A_new == pytest.approx(A, rel=1e-13)
        assert B_new == pytest.approx(B, rel=1e-13)
        assert len(gaps_new) == len(gaps)
        for new, old in zip(gaps_new, gaps):
            assert new == old or new == pytest.approx(old, rel=1e-13, abs=1e-15)

    def test_initial_rate_positive_by_arithmetic(self):
        # each sigma/rho2 + rho2/sigma >= 2, so the starting rate
        # s_sum + b - n is at least b; the fallback path cannot trigger
        # from a reachable state
        gen = RngStream(351).generator()
        for _ in range(200):
            sigma = gen.gamma(0.3, 5.0, size=8)
            rho2 = gen.gamma(0.5, 2.0)
            s_sum = 0.5 * float(np.sum(sigma / rho2 + rho2 / sigma))
            assert s_sum + 1e-9 >= 8.0

    def test_synthetic_nonpositive_rate_fallback(self):
        # with s_sum + b <= n the conditional is improper (its tail blows
        # up), which is unreachable from chain states; the refinement must
        # stay finite, keep iterating from the fallback value, and report
        # a nonpositive rate so the caller skips the draw
        A, B, gaps = refine_eta_gamma_params(1.0, 1.0, 2.0, 20, 0.5)
        assert np.isfinite(A) and np.isfinite(B)
        assert B <= 0
        assert len(gaps) == 10

    def test_update_skips_when_refinement_degenerates(self, monkeypatch, chain_state):
        import hqreg.sampler as sampler_mod

        monkeypatch.setattr(
            sampler_mod, "refine_eta_gamma_params", lambda *a, **k: (1.0, -1.0, [])
        )
        spec = ModelSpec(tau=0.5)
        state = chain_state(LassoHyper, beta=np.zeros(1), v=np.ones(2), sigma=np.ones(2),
                            rho2=1.0, eta=0.77, latent=np.ones(1), lambda1_sq=1.0)
        health = ChainHealth()
        out = sampler_mod.update_eta_approx(state, spec, RngStream(352).generator(), health)
        assert out == 0.77
        assert health.eta_update_skips == 1


class TestRunChain:
    def test_deterministic_given_seed(self):
        data, _ = sim1_dataset(400, n=40)
        spec = ModelSpec(tau=0.5, n_iter=300, burn_in=100, seed=9)
        a = run_chain(data, spec)
        b = run_chain(data, spec)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.columns == b.columns

    def test_retained_row_count_and_thinning(self):
        data, _ = sim1_dataset(401, n=30)
        spec = ModelSpec(tau=0.5, n_iter=203, burn_in=50, thin=7, seed=1)
        samples = run_chain(data, spec)
        assert samples.draws.shape[0] == (203 - 50) // 7

    def test_positivity_preserved(self):
        data, _ = sim1_dataset(402, n=30)
        for penalty in (LassoHyper(), ElasticNetHyper()):
            spec = ModelSpec(tau=0.25, penalty=penalty, n_iter=200, burn_in=0, seed=3)
            samples = run_chain(data, spec)
            for col in samples.columns[21:]:
                assert np.all(samples.column(col) > 0), col

    def test_null_model_interval_coverage(self):
        gen = RngStream(71).generator()
        X = ar1_design(gen, 100, 20, 0.5)
        y = 2.0 * gen.standard_normal(100)
        spec = ModelSpec(tau=0.5, n_iter=2500, burn_in=500, seed=13)
        samples = run_chain(Dataset(X, y), spec)
        lo = np.quantile(samples.draws[:, :21], 0.025, axis=0)
        hi = np.quantile(samples.draws[:, :21], 0.975, axis=0)
        assert np.sum((lo <= 0.0) & (0.0 <= hi)) >= 18

    def test_intercept_tracks_noise_quantile(self):
        # pure-intercept fit recovers the empirical quantile of y
        for tau in (0.25, 0.5, 0.75):
            gen = RngStream(11, (int(tau * 100),)).generator()
            y = ald_sample(gen, 0.0, 1.0, tau, size=500)
            data = Dataset(np.ones((500, 1)), y)
            samples = run_chain(data, ModelSpec(tau=tau, n_iter=1500, burn_in=300, seed=3))
            b0 = float(np.median(samples.column("beta_0")))
            assert abs(b0 - np.quantile(y, tau)) < 0.1

    def test_elastic_net_nests_ridge(self):
        gen = RngStream(72).generator()
        n, k = 60, 6
        X = np.column_stack([np.ones(n), gen.standard_normal((n, k - 1))])
        y = X @ np.array([1.0, 2.0, 0.0, -1.0, 0.5, 0.0]) + 0.5 * gen.standard_normal(n)
        data = Dataset(X, y)
        strong_prior = ModelSpec(tau=0.5, penalty=ElasticNetHyper(b1=1e8),
                                 n_iter=2000, burn_in=500, seed=21)
        pinned = ModelSpec(tau=0.5, penalty=ElasticNetHyper(fixed_lambda3_tilde=1e-7),
                           n_iter=2000, burn_in=500, seed=21)
        m1 = np.median(run_chain(data, strong_prior).draws[:, :k], axis=0)
        m2 = np.median(run_chain(data, pinned).draws[:, :k], axis=0)
        assert np.max(np.abs(m1 - m2)) < 0.05

    def test_chain_error_carries_context(self, monkeypatch):
        import hqreg.sampler as sampler_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sampler_mod, "update_rho2", boom)
        data, _ = sim1_dataset(403, n=20)
        with pytest.raises(ChainError, match="rho2.*iteration 1"):
            run_chain(data, ModelSpec(tau=0.5, n_iter=10, burn_in=0))


class TestSummarize:
    def _samples(self, draws):
        return PosteriorSamples(draws=draws, columns=[f"c{i}" for i in range(draws.shape[1])],
                                health=ChainHealth())

    def test_constant_column(self):
        s = self._samples(np.full((50, 1), 3.25))
        assert summarize(s) == [("c0", 3.25, 3.25, 3.25)]

    def test_standard_normal_interval(self):
        gen = RngStream(360).generator()
        s = self._samples(gen.standard_normal((100_000, 1)))
        (_, med, lo, hi), = summarize(s)
        assert med == pytest.approx(0.0, abs=0.02)
        assert lo == pytest.approx(-1.96, abs=0.03)
        assert hi == pytest.approx(1.96, abs=0.03)

    def test_odd_count_median(self):
        s = self._samples(np.arange(1.0, 102.0)[:, None])
        assert summarize(s)[0][1] == 51.0

    def test_insufficient_draws(self):
        with pytest.raises(ValueError):
            summarize(self._samples(np.ones((1, 2))))


class TestPriorConsistency:
    """Joint check of every full conditional: alternating data/parameter
    simulation must preserve the prior's moments.

    The robustness-parameter step is a designed gamma approximation, not
    an exact conditional draw; at n = 5 its stationary bias on E[eta] is
    about -1% on this fixture, far inside the 4-standard-error band that
    catches real conditional errors (wrong quadratic coefficients or
    swapped parameters move these statistics by tens of sigmas).
    """

    def test_successive_conditional_moments(self, chain_state):
        n, k, tau = 5, 2, 0.3
        X = RngStream(100).generator().standard_normal((n, k))
        hyper = LassoHyper(a=3.0, b=1.0, c=2.0, d=2.0)
        spec = ModelSpec(tau=tau, penalty=hyper, rho2_invgamma=(6.0, 5.0),
                         n_iter=10, burn_in=0)

        def stat_row(st):
            return (st.beta[0], st.beta[0] ** 2, st.beta[1] ** 2, st.rho2,
                    st.rho2**2, st.eta, st.eta**2, st.rates.lambda1_sq)

        # marginal-conditional side: iid prior draws, vectorised
        gen = RngStream(201).generator()
        m = 1_000_000
        rho2 = 5.0 / gen.gamma(6.0, size=m)
        eta = gen.gamma(2.0, 0.5, size=m)
        lam1 = gen.gamma(3.0, 1.0, size=m)
        s = gen.exponential(size=(m, k)) * (2.0 / lam1)[:, None]
        beta = gen.standard_normal((m, k)) * np.sqrt(rho2[:, None] * s)
        prior_stats = np.column_stack(
            [beta[:, 0], beta[:, 0] ** 2, beta[:, 1] ** 2, rho2, rho2**2, eta, eta**2, lam1]
        )
        prior_mean = prior_stats.mean(axis=0)
        prior_se = prior_stats.std(axis=0) / math.sqrt(m)

        # successive-conditional side: y | params, then one Gibbs scan
        gen = RngStream(202).generator()
        state = chain_state(
            hyper, beta=np.zeros(k), v=np.ones(n), sigma=np.ones(n), rho2=1.0, eta=1.0,
            latent=np.ones(k), lambda1_sq=1.0,
        )
        sweeps = 20_000
        rows = np.empty((sweeps, 8))
        health = ChainHealth()
        for i in range(sweeps):
            y = (X @ state.beta + (1 - 2 * tau) * state.v
                 + np.sqrt(4.0 * state.sigma * state.v) * gen.standard_normal(n))
            data = Dataset(X, y)
            state.beta = update_beta(state, data, spec, gen)
            resid = data.y - data.X @ state.beta
            state.sigma = update_sigma(state, data, spec, gen, resid)
            state.v = update_v(state, data, spec, gen, resid)
            state.latent = update_s(state, data, spec, gen)
            state.rates = hyper.Rates(update_lambda1_sq(state, data, spec, gen))
            state.rho2 = float(update_rho2(state, data, spec, gen))
            state.eta = update_eta_approx(state, spec, gen, health)
            rows[i] = stat_row(state)
        burn = 500
        rows = rows[burn:]
        n_batches = 50
        usable = rows[: rows.shape[0] - rows.shape[0] % n_batches]
        batch_means = usable.reshape(n_batches, -1, 8).mean(axis=1)
        chain_mean = rows.mean(axis=0)
        chain_se = batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)

        z = (chain_mean - prior_mean) / np.sqrt(prior_se**2 + chain_se**2)
        assert np.all(np.abs(z) < 4.0), f"z-scores {z.round(2)}"
        assert health.eta_update_skips == 0
