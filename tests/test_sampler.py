"""Gibbs updates against analytic full conditionals, moment oracles, a
joint prior-consistency (successive-conditional) check, and the whole
chain at fixed data against the posterior surface's quadrature."""

import math
import re
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import kve

from hqreg import loss_density, randist, sampler
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
    update_eta,
    update_eta_approx,
    update_lambda1_sq,
    update_lambda4,
    update_level,
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
        for kwargs, detail in [
            (dict(seed=-1), "seed must be an integer >= 0"),
            (dict(n_iter=50, burn_in=10, thin=100), "need at least 2 kept draws"),
            (dict(n_iter=11, burn_in=10), "need at least 2 kept draws"),
            (dict(rho2_invgamma=(1.0, float("inf"))), "finite and > 0"),
            (dict(rho2_invgamma=(float("nan"), 1.0)), "finite and > 0"),
        ]:
            with pytest.raises(ValueError, match=detail):
                ModelSpec(**kwargs)
        # exactly 2 kept draws is enough
        ModelSpec(n_iter=12, burn_in=10)
        ModelSpec(n_iter=14, burn_in=10, thin=2)

    @pytest.mark.parametrize("family", [LassoHyper, ElasticNetHyper])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_family_hyperparameters_are_finite_and_positive(self, family, value):
        for f in fields(family):
            with pytest.raises(ValueError, match="finite and > 0"):
                family(**{f.name: value})

    @pytest.mark.parametrize("seed", [-1, 2.5, 1.0, "3", None])
    def test_rng_stream_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            RngStream(seed)
        assert RngStream(np.int64(5)).generator().random() == RngStream(5).generator().random()


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
            latent, rates = gen0.uniform(0.2, 2.0, k), dict(lambda3_tilde=1.0, lambda4=0.7)
        state = chain_state(penalty, beta=np.zeros(k), v=v, sigma=sigma, rho2=0.8, eta=1.3,
                            latent=latent, **rates)
        return data, spec, state

    @staticmethod
    def _full_conditional(data, spec, state):
        winv = 1.0 / (4.0 * state.sigma * state.v)
        if isinstance(spec.penalty, LassoHyper):
            prior = 1.0 / (state.rho2 * state.latent)
        else:
            u = state.latent
            prior = 2.0 * state.rates.lambda4 * (1.0 + u) / (state.rho2 * u)
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


def _log_gig(x, lam, c, d):
    """log density of GIG(lam, c, d), proportional to x^(lam-1) e^-(c^2 x + d^2/x)/2."""
    return (lam * np.log(c / d) - math.log(2.0) - np.log(kve(lam, c * d)) + c * d
            + (lam - 1.0) * np.log(x) - 0.5 * (c * c * x + d * d / x))


def _log_joint(data, spec, st, lam):
    """The model's log density at ``st`` given y, written out block by block:
    y | beta, sigma, v, then v | sigma, sigma | eta, rho2 at mixing index
    ``lam``, the family's beta prior, latent prior and rate priors that
    the rho2 move scales, and rho2's prior.  Terms that the move keeps
    fixed (eta's prior, the elastic net's u and lambda3_tilde) are left
    out."""
    tau = spec.tau
    resid = data.y - data.X @ st.beta
    out = np.sum(stats.norm.logpdf(resid, (1.0 - 2.0 * tau) * st.v, np.sqrt(4.0 * st.sigma * st.v)))
    out += np.sum(stats.expon.logpdf(st.v, scale=2.0 * st.sigma / (tau * (1.0 - tau))))
    out += np.sum(_log_gig(st.sigma, lam, math.sqrt(st.eta / st.rho2), math.sqrt(st.eta * st.rho2)))
    hyper = spec.penalty
    if isinstance(hyper, LassoHyper):
        out += np.sum(stats.norm.logpdf(st.beta, 0.0, np.sqrt(st.rho2 * st.latent)))
        out += np.sum(stats.expon.logpdf(st.latent, scale=2.0 / st.rates.lambda1_sq))
        out += stats.gamma.logpdf(st.rates.lambda1_sq, hyper.a, scale=1.0 / hyper.b)
    else:
        u, lam4 = st.latent, st.rates.lambda4
        out += np.sum(stats.norm.logpdf(st.beta, 0.0,
                                        np.sqrt(st.rho2 * u / (2.0 * lam4 * (1.0 + u)))))
        out += stats.gamma.logpdf(lam4, hyper.a2, scale=1.0 / hyper.b2)
    if spec.rho2_invgamma is None:
        return out - math.log(st.rho2)
    a0, g0 = spec.rho2_invgamma
    return out + stats.invgamma.logpdf(st.rho2, a0, scale=g0)


class TestUpdateRho2:
    """The rho2 block is a scale-group move: repeated from one state with
    beta fixed, it walks the orbit g x of that state, and log g must follow
    the orbit's law, the joint density at g x times the Jacobian of x ->
    g x, which is written here from the model and normalised by
    quadrature."""

    STEPS, THIN = 20_000, 5

    @staticmethod
    def _state(chain_state, **kw):
        base = dict(beta=np.array([0.3]), v=np.ones(1), sigma=np.array([2.0]), rho2=1.0,
                    eta=0.7, latent=np.array([1.5]), lambda1_sq=1.0)
        base.update(kw)
        return chain_state(LassoHyper, **base)

    def _check_orbit_law(self, quadrature_ks, data, spec, state, lam, seed, family_scales=True):
        """At k > n (a projector exists) the move also shifts beta along
        delta = X'(XX')^-1 r, and beta's n directions add n to the power of
        g in the Jacobian."""
        n, k = data.n, data.k
        x0 = SimpleNamespace(**vars(state))
        projector = sampler.wide_projector(data.X)
        delta = sampler.residual_shift(projector, data.y - data.X @ state.beta)
        lasso = isinstance(spec.penalty, LassoHyper)

        def log_orbit(u):
            g = math.exp(u)
            st = SimpleNamespace(**vars(x0))
            st.rho2, st.sigma, st.v = g * x0.rho2, g * x0.sigma, g * x0.v
            jacobian = 2 * n + 1
            if family_scales and lasso:
                st.latent = x0.latent / g
                st.rates = x0.rates._replace(lambda1_sq=g * x0.rates.lambda1_sq)
                jacobian += 1 - k
            elif family_scales:
                st.rates = x0.rates._replace(lambda4=g * x0.rates.lambda4)
                jacobian += 1
            if delta is not None:
                st.beta = x0.beta + (1.0 - g) * delta
                jacobian += n
            return _log_joint(data, spec, st, lam) + jacobian * u

        gen = RngStream(seed).generator()
        health = ChainHealth()
        logs = np.empty(self.STEPS)
        for i in range(self.STEPS):
            resid = data.y - data.X @ state.beta
            shift = sampler.residual_shift(projector, resid)
            state.rho2 = update_rho2(state, data, spec, gen, resid, health, shift)
            logs[i] = math.log(state.rho2 / x0.rho2)
        # the rest of the orbit moved with rho2
        g = state.rho2 / x0.rho2
        np.testing.assert_allclose(state.sigma, g * x0.sigma, rtol=1e-9)
        np.testing.assert_allclose(state.v, g * x0.v, rtol=1e-9)
        if delta is not None:
            np.testing.assert_allclose(state.beta, x0.beta + (1.0 - g) * delta,
                                       rtol=1e-7, atol=1e-9)
        assert health.slice_steps["rho2"] == self.STEPS

        p = quadrature_ks(logs[500:: self.THIN], log_orbit)
        assert p > 1e-3, f"KS p = {p:.2g}"

    def test_fixture_moments(self, chain_state, chain_index, quadrature_ks):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        self._check_orbit_law(quadrature_ks, data, ModelSpec(tau=0.5), self._state(chain_state),
                              chain_index, 320)

    def test_zero_beta_drops_penalty_term(self, chain_state, chain_index, monkeypatch,
                                          quadrature_ks):
        # a family that keeps its scale (a pinned rate): the move scales
        # (rho2, sigma, v) alone, and the beta prior's rho2 factor enters;
        # at beta = 0 its quadratic is 0.  tau 0.3 and rho2_invgamma bring in
        # the B term and (a0, g0)
        monkeypatch.setattr(LassoHyper, "scale_orbit", lambda self, state: None)
        data = Dataset(np.array([[1.0]]), np.array([0.8]))
        spec = ModelSpec(tau=0.3, rho2_invgamma=(2.0, 1.5))
        for beta, seed in ((0.0, 321), (0.3, 323)):
            state = self._state(chain_state, beta=np.array([beta]))
            self._check_orbit_law(quadrature_ks, data, spec, state, chain_index, seed,
                                  family_scales=False)

    def test_elastic_large_t_limit(self, chain_state, chain_index, quadrature_ks):
        # u = t - 1 -> inf: the move scales lambda4 with rho2 and keeps u
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper())
        state = chain_state(
            ElasticNetHyper, beta=np.array([0.6]), v=np.ones(1), sigma=np.array([2.0]), rho2=1.0,
            eta=0.7, latent=np.array([1e9]), lambda3_tilde=1.0, lambda4=1.2,
        )
        self._check_orbit_law(quadrature_ks, data, spec, state, chain_index, 322)

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()])
    def test_wide_state_shifts_beta_along_the_orbit(self, penalty, chain_state, quadrature_ks):
        # k > n: the residual is free, and beta moves with g
        gen = RngStream(365).generator()
        n, k = 3, 5
        X = gen.standard_normal((n, k))
        data = Dataset(X, X @ gen.standard_normal(k) + gen.standard_normal(n))
        spec = ModelSpec(tau=0.3, penalty=penalty, rho2_invgamma=(2.0, 1.0))
        state = _full_state(chain_state, gen, n, k, penalty)
        self._check_orbit_law(quadrature_ks, data, spec, state, 1.0, 366)


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
            rho2=1.0, eta=1.0, latent=np.ones(3), lambda3_tilde=0.8, lambda4=1.1,
        )
        # the block draws u = t - 1, so t > 1 is u > 0
        draws = update_t(state, data, spec, RngStream(340).generator())
        assert np.all(draws > 0.0)

    def test_lambda4_gamma_moments(self, chain_state):
        data = Dataset(np.ones((1, 2)), np.zeros(1))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper(a2=2.0, b2=1.5))
        state = chain_state(
            ElasticNetHyper, beta=np.array([0.5, 1.0]), v=np.ones(1), sigma=np.ones(1), rho2=2.0,
            eta=1.0, latent=np.array([1.0, 2.0]), lambda3_tilde=1.0, lambda4=1.0,
        )
        # sum((1 + u) beta^2 / (rho2 u)) + b2 at u = t - 1 = (1, 2)
        rate = ((1.0 + 1.0) * 0.25 / (2.0 * 1.0) + (1.0 + 2.0) * 1.0 / (2.0 * 2.0)) + 1.5
        shape = 1.0 + 2.0
        gen = RngStream(341).generator()
        draws = np.array([update_lambda4(state, data, spec, gen) for _ in range(50_000)])
        assert draws.mean() == pytest.approx(shape / rate, rel=0.02)

    def test_mh_ratio_zero_for_no_coefficients(self):
        gen = RngStream(342).generator()
        for _ in range(20):
            cur, prop = gen.uniform(0.01, 5.0, size=2)
            assert lambda3_log_accept_ratio(cur, prop, 0) == pytest.approx(0.0, abs=1e-12)

    def test_mh_ratio_against_quadrature_oracle(self):
        # k = 2, sum t = 3, a1 = b1 = 1, move 1 -> 2, oracle via direct
        # quadrature of the upper incomplete gamma factors; the oracle keeps
        # the full target and proposal in t, so it checks that a1, b1 and
        # sum t cancel from the ratio
        def upper_half(x):
            val, _ = quad(lambda t: t**-0.5 * np.exp(-t), x, np.inf, epsabs=1e-14)
            return val

        def log_target(lam):
            return -2.0 * math.log(upper_half(lam)) + math.log(lam) - 4.0 * lam

        def log_prop(lam):
            return 2.0 * math.log(lam) - 2.0 * lam

        oracle = (log_target(2.0) - log_target(1.0)) + (log_prop(1.0) - log_prop(2.0))
        got = lambda3_log_accept_ratio(1.0, 2.0, 2)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_mh_long_run_marginal(self, chain_state):
        # frozen latents u = t - 1: the chain's stationary law must match the
        # quadrature-normalised target, written in t (smaller companion of
        # the full acceptance-scale run)
        sum_t, a1, b1, k = 3.0, 1.0, 1.0, 2
        data = Dataset(np.ones((1, 2)), np.zeros(1))
        spec = ModelSpec(tau=0.5, penalty=ElasticNetHyper(a1=a1, b1=b1))
        state = chain_state(
            ElasticNetHyper, beta=np.zeros(2), v=np.ones(1), sigma=np.ones(1), rho2=1.0,
            eta=1.0, latent=np.array([0.5, 0.5]), lambda3_tilde=1.0, lambda4=1.0,
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


def _full_state(chain_state, gen, n, k, penalty):
    """A random interior state of ``penalty``'s family."""
    state = dict(beta=gen.standard_normal(k), v=gen.uniform(0.05, 3.0, n),
                 sigma=gen.uniform(0.05, 3.0, n), rho2=gen.uniform(0.1, 4.0),
                 eta=gen.uniform(0.2, 5.0))
    if isinstance(penalty, LassoHyper):
        return chain_state(penalty, **state, latent=gen.uniform(0.05, 5.0, k),
                           lambda1_sq=gen.uniform(0.2, 3.0))
    return chain_state(penalty, **state, latent=gen.uniform(0.01, 5.0, k),
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
            # the eta step and the rho2 move draw no GIG variate; the move
            # takes a copy, as it sets the state's fields
            update_eta(st, spec, gen, sampler.sigma_quadratic(st, spec, resid), ChainHealth())
            update_rho2(replace(st), data, spec, gen, resid, ChainHealth())
            r_sig = resid - (1.0 - 2.0 * tau) * st.v
            d_sq = r_sig * r_sig / (4.0 * st.v) + tau * (1.0 - tau) * st.v + st.eta * st.rho2
            c_v = 0.5 / np.sqrt(st.sigma)
            if isinstance(penalty, LassoHyper):
                c_pen = math.sqrt(st.rates.lambda1_sq)
                d_pen = np.abs(st.beta) / math.sqrt(st.rho2)
            else:
                lam3_tilde, lam4 = st.rates
                c_pen = math.sqrt(2.0 * lam3_tilde)
                d_pen = np.sqrt(2.0 * lam4 / st.rho2) * np.abs(st.beta)
            lam = loss_density.CHAIN_MIXING_INDEX
            expected = [
                (lam - 1.5, math.sqrt(st.eta / st.rho2), np.sqrt(d_sq)),
                (0.5, c_v, np.abs(resid) * c_v),
                (0.5, c_pen, d_pen),
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
        rate = float(np.sum((1.0 + st.latent) * st.beta**2 / (st.rho2 * st.latent))) + 1.0
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
        q = sampler.sigma_quadratic(st, spec, resid)
        kept = q.copy()
        update_sigma(st, data, spec, gen, resid, q)
        update_eta(st, spec, gen, q, ChainHealth())
        assert q.tobytes() == kept.tobytes()
        update_eta_approx(st, spec, gen, ChainHealth())
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
        # the group moves set new arrays in the state, and write into none
        # of the arrays they were given, nor into the residual; the rho2
        # move scales the shift by its g, which the level move only reads
        arrays = {f: getattr(st, f) for f in before}
        projector = sampler.wide_projector(data.X)
        assert (projector is None) == (k <= n)
        shift = sampler.residual_shift(projector, resid)
        kept = None if shift is None else shift.copy()
        g = update_rho2(st, data, spec, gen, resid, ChainHealth(), shift) / st.rho2
        if shift is not None:
            np.testing.assert_allclose(shift, g * kept, rtol=1e-12)
            # the shift of the moved residual
            np.testing.assert_allclose(
                shift, sampler.residual_shift(projector, data.y - data.X @ st.beta),
                rtol=1e-6, atol=1e-9)
            kept = shift.copy()
            update_level(st, data, spec, gen, shift, ChainHealth())
            assert shift.tobytes() == kept.tobytes()
        for f, arr in before.items():
            assert arrays[f].tobytes() == arr.tobytes(), f
        assert resid.tobytes() == (y - X @ before["beta"]).tobytes()

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
        # sigma, the joint v block and the rho2 move get y - X beta at the
        # beta of their own scan, the eta step that residual's q; at k > n
        # the level move gets the shift of the residual at the beta the rho2
        # move shifted
        seen = []

        def spy_on(name):
            block = getattr(sampler, name)

            def spy(state, data, spec, gen, resid, *args):
                seen.append((name, resid.tobytes() == (data.y - data.X @ state.beta).tobytes()))
                return block(state, data, spec, gen, resid, *args)

            monkeypatch.setattr(sampler, name, spy)

        def eta_spy(state, spec, gen, q, health, block=sampler.update_eta):
            plain = sampler.sigma_quadratic(state, spec, data.y - data.X @ state.beta)
            seen.append(("update_eta", q.tobytes() == plain.tobytes()))
            return block(state, spec, gen, q, health)

        def level_spy(state, data, spec, gen, shift, health, block=sampler.update_level):
            plain = sampler.residual_shift(sampler.wide_projector(data.X),
                                           data.y - data.X @ state.beta)
            seen.append(("update_level", np.allclose(shift, plain, rtol=1e-6, atol=1e-9)))
            return block(state, data, spec, gen, shift, health)

        for name in ("update_sigma", "update_v_and_latents", "update_rho2"):
            spy_on(name)
        monkeypatch.setattr(sampler, "update_eta", eta_spy)
        monkeypatch.setattr(sampler, "update_level", level_spy)
        for n, k, order in ((15, 4, []), (5, 9, ["update_level"])):
            seen.clear()
            gen = RngStream(387).generator()
            data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
            run_chain(data, ModelSpec(tau=0.3, penalty=penalty, n_iter=6, burn_in=2, seed=5))
            assert [name for name, _ in seen] == ["update_eta", "update_sigma",
                                                  "update_v_and_latents", "update_rho2",
                                                  *order] * 6
            assert all(same for _, same in seen)


def _scan_in_separate_calls(data, spec):
    """run_chain with v and the penalty latents drawn by two GIG calls, as
    the scan was written before the joint block: the oracle for its bits."""
    gen = RngStream(spec.seed).generator()
    state = initial_state(data, spec)
    health = ChainHealth()
    penalty = spec.penalty
    projector = sampler.wide_projector(data.X)
    rows = []
    for it in range(1, spec.n_iter + 1):
        state.beta = update_beta(state, data, spec, gen)
        resid = data.y - data.X @ state.beta
        q = sampler.sigma_quadratic(state, spec, resid)
        state.eta = update_eta(state, spec, gen, q, health)
        state.sigma = sampler._clamp_positive(update_sigma(state, data, spec, gen, resid, q),
                                              health)
        state.v = sampler._clamp_positive(update_v(state, data, spec, gen, resid), health)
        if isinstance(penalty, LassoHyper):
            state.latent = sampler._clamp_positive(update_s(state, data, spec, gen), health)
            state.rates = penalty.Rates(update_lambda1_sq(state, data, spec, gen))
        else:
            state.latent = sampler._clamp_positive(update_t(state, data, spec, gen), health)
            lam4 = update_lambda4(state, data, spec, gen)
            state.rates = penalty.Rates(mh_update_lambda3_tilde(state, data, spec, gen, health),
                                        lam4)
        shift = sampler.residual_shift(projector, resid)
        state.rho2 = update_rho2(state, data, spec, gen, resid, health, shift)
        if state.rho2 < 1e-300:
            state.rho2 = 1e-300
            health.positivity_clamps += 1
        if shift is not None:
            state.eta = update_level(state, data, spec, gen, shift, health)
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

    def test_update_clamps_as_the_separate_calls(self, monkeypatch):
        # run_chain floors the joint draw once for both families, as the
        # separate calls floored v and the latents: each entry below 1e-300
        # is counted and floored, a small latent above it is kept as drawn
        n, k = 3, 2
        gen = RngStream(396).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        drawn = np.array([0.5, 0.0, 1e-310, 2.0, 1e-20])
        monkeypatch.setattr(sampler, "update_v_and_latents", lambda *args: drawn.copy())
        monkeypatch.setattr(sampler, "update_eta", lambda state, *args: state.eta)
        for penalty in (LassoHyper(), ElasticNetHyper()):
            seen = []
            monkeypatch.setattr(sampler, "update_rho2", lambda state, *args: seen.append(
                (state.v.tolist(), state.latent.tolist())) or 1.0)
            samples = run_chain(data, ModelSpec(penalty=penalty, n_iter=2, burn_in=0, seed=3))
            assert seen == [([0.5, 1e-300, 1e-300], [2.0, 1e-20])] * 2
            assert samples.health.positivity_clamps == 2 * 2

    def test_underflowing_latent_is_floored_like_every_latent(self, monkeypatch, chain_state):
        # a t - 1 draw that underflows to 0 is counted and floored at
        # 1e-300, like every latent; the blocks that divide by t - 1 stay
        # finite and warn of nothing
        n, k = 5, 3
        gen = RngStream(397).generator()
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        spec = ModelSpec(penalty=ElasticNetHyper(), n_iter=2, burn_in=0, seed=4)
        st = _full_state(chain_state, gen, n, k, spec.penalty)
        drawn = np.concatenate((st.v, [0.0, 0.4, 2.0]))
        monkeypatch.setattr(sampler, "update_v_and_latents", lambda *args: drawn.copy())
        seen = []
        monkeypatch.setattr(sampler, "update_rho2",
                            lambda state, *args: seen.append(state.latent.tolist()) or 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = run_chain(data, spec)
        assert seen == [[1e-300, 0.4, 2.0]] * 2
        assert samples.health.positivity_clamps == 2
        assert np.isfinite(samples.draws).all() and np.all(samples.draws[:, -1] > 0)
        st.latent = np.array([1e-300, 0.4, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(update_beta(st, data, spec, gen)).all()
            assert np.isfinite(update_lambda4(st, data, spec, gen))
            resid = data.y - data.X @ st.beta
            assert np.isfinite(update_rho2(st, data, spec, gen, resid, ChainHealth()))

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
    STEPS = 40_000
    def test_collapsed_step_matches_two_block_gibbs(self, eta_conditional):
        # the sigma-collapsed step, repeated at a fixed (r, v, rho2), and an
        # exact two-block Gibbs run on the same conditional (sigma | eta,
        # then an exact slice step on eta | sigma) both give the eta law of
        # the formula, normalised by quadrature
        data, spec, state, resid, q, ks_pvalue = eta_conditional()
        assert sampler.sigma_quadratic(state, spec, resid) == pytest.approx(q, rel=1e-12)
        a, b = spec.penalty.eta_prior
        n = q.size
        gen = RngStream(354).generator()
        health = ChainHealth()
        collapsed = np.empty(self.STEPS)
        for i in range(self.STEPS):
            state.eta = collapsed[i] = update_eta(state, spec, gen, q, health)
        assert health.slice_steps["eta"] == self.STEPS
        assert 4.0 < health.slice_evals["eta"] / self.STEPS < 8.0

        state.eta = 1.0
        gibbs = np.empty(self.STEPS)
        for i in range(self.STEPS):
            state.sigma = update_sigma(state, data, spec, gen, resid, q)
            s_sum = 0.5 * float(np.sum(state.sigma / state.rho2 + state.rho2 / state.sigma))

            def log_eta_given_sigma(u):
                eta = math.exp(u)
                return a * u - (b + s_sum) * eta - n * (math.log(kve(1, eta)) - eta)

            state.eta = gibbs[i] = math.exp(sampler._slice_step(
                log_eta_given_sigma, math.log(state.eta), 1.0, gen, ChainHealth(), "eta"))

        for draws in (collapsed, gibbs):
            p = ks_pvalue(draws)
            assert p > 1e-3, f"KS p = {p:.2g}"

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


class TestGroupMoves:
    """The slice helper that the eta step and the two group moves share,
    the moves' guards, and the k > n projector they shift beta with."""

    def test_slice_step_keeps_its_target(self):
        # a skewed target, log density 3u - e^u (log of a Gamma(3, 1)): a
        # chain of slice steps, thinned, against its CDF
        gen = RngStream(360).generator()
        health = ChainHealth()
        x, draws = 0.0, np.empty(20_000)
        for i in range(draws.size):
            x = draws[i] = sampler._slice_step(lambda u: 3.0 * u - math.exp(u), x, 1.0, gen,
                                               health, "rho2")
        assert health.slice_steps == {"eta": 0, "rho2": 20_000, "level": 0}
        assert stats.kstest(np.exp(draws[100::4]), stats.gamma(3.0).cdf).pvalue > 1e-3

    def test_slice_step_counts_an_overflow_as_outside(self):
        gen = RngStream(361).generator()
        x = sampler._slice_step(lambda u: -math.exp(u * u), 0.0, 100.0, gen, ChainHealth(),
                                "eta")
        assert abs(x) < 2.0
        with pytest.raises(ValueError, match="eta log density at the current state is -inf"):
            sampler._slice_step(lambda u: -math.inf, 0.0, 1.0, gen, ChainHealth(), "eta")

    def test_level_move_keeps_its_orbit_law(self, chain_state, quadrature_ks):
        # repeated alone, s = log(eta_0 / eta) follows the joint density at
        # T_s x_0, eta's prior included, times the Jacobian e^-s G^(3n)
        gen = RngStream(367).generator()
        n, k = 3, 5
        X = gen.standard_normal((n, k))
        data = Dataset(X, X @ gen.standard_normal(k) + gen.standard_normal(n))
        spec = ModelSpec(tau=0.3, penalty=LassoHyper(c=1.5, d=0.5), rho2_invgamma=(2.0, 1.0))
        state = _full_state(chain_state, gen, n, k, spec.penalty)
        a, b = spec.penalty.eta_prior
        projector = sampler.wide_projector(data.X)
        x0 = SimpleNamespace(**vars(state))
        delta = sampler.residual_shift(projector, data.y - data.X @ state.beta)

        def log_orbit(s):
            log_g = math.expm1(s) / x0.eta
            g = math.exp(log_g)
            st = SimpleNamespace(**vars(x0))
            st.eta, st.sigma, st.v = x0.eta * math.exp(-s), g * x0.sigma, g * x0.v
            st.beta = x0.beta + (1.0 - g) * delta
            return (_log_joint(data, spec, st, 1.0) + stats.gamma.logpdf(st.eta, a, scale=1.0 / b)
                    - s + 3 * n * log_g)

        gen = RngStream(368).generator()
        health = ChainHealth()
        logs = np.empty(20_000)
        for i in range(logs.size):
            shift = sampler.residual_shift(projector, data.y - data.X @ state.beta)
            state.eta = update_level(state, data, spec, gen, shift, health)
            logs[i] = math.log(x0.eta / state.eta)
        assert health.slice_steps["level"] == logs.size
        p = quadrature_ks(logs[200::5], log_orbit)
        assert p > 1e-3, f"KS p = {p:.2g}"

    def test_rank_deficient_wide_design_keeps_beta_fixed(self, monkeypatch):
        # at k > n a repeated row makes XX' singular: no projector, so the
        # rho2 move keeps beta and there is no level move
        gen = RngStream(362).generator()
        n, k = 4, 9
        X = gen.standard_normal((n, k))
        projector = sampler.wide_projector(X)
        np.testing.assert_allclose(X @ projector, np.eye(n), atol=1e-12)
        X[3] = X[0]
        assert sampler.wide_projector(X) is None
        assert sampler.wide_projector(np.full((2, 5), 1e200)) is None  # XX' overflows
        data = Dataset(X, X @ gen.standard_normal(k) + gen.standard_normal(n))
        moved = []
        rho2_move = sampler.update_rho2

        def spy(state, *args):
            beta = state.beta
            out = rho2_move(state, *args)
            moved.append(state.beta is not beta)
            return out

        monkeypatch.setattr(sampler, "update_rho2", spy)
        for penalty in (LassoHyper(), ElasticNetHyper()):
            samples = run_chain(data, ModelSpec(tau=0.4, penalty=penalty, n_iter=200,
                                                burn_in=50, seed=8))
            assert np.isfinite(samples.draws).all()
            assert samples.health.slice_steps["level"] == 0
            assert samples.health.slice_steps["rho2"] == 200
        assert moved == [False] * 400

    @pytest.mark.parametrize("block,drawn,shape,line", [
        ("rho2", 800.0, (15, 4), "update 'rho2' failed at iteration 1: g = inf is not finite"),
        ("rho2", -800.0, (5, 9), "update 'rho2' failed at iteration 1: g = 0.0 is not finite"),
        ("level", 800.0, (5, 9), "update 'level' failed at iteration 1: G = inf is not finite"),
        ("level", -800.0, (5, 9),
         "update 'level' failed at iteration 1: eta' = inf is not finite"),
        ("eta", 800.0, (15, 4), "update 'eta' failed at iteration 1: eta = inf is not finite"),
    ])
    def test_non_finite_draw_is_one_chain_error(self, monkeypatch, capsys, tmp_path, block,
                                                drawn, shape, line):
        step = sampler._slice_step

        def far(log_density, x0, width, gen, health, name):
            out = step(log_density, x0, width, gen, health, name)
            return drawn if name == block else out

        monkeypatch.setattr(sampler, "_slice_step", far)
        gen = RngStream(363).generator()
        n, k = shape
        data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
        with pytest.raises(ChainError, match="^" + re.escape(line)):
            run_chain(data, ModelSpec(tau=0.3, n_iter=5, burn_in=0))
        # the CLI prints it as one line
        from hqreg.cli import main
        path = tmp_path / "d.csv"
        np.savetxt(path, np.column_stack([data.X, data.y]), delimiter=",",
                   header=",".join([f"x{j}" for j in range(k)] + ["y"]), comments="")
        assert main(["fit", "--input", str(path), "--no-standardise", "--iters", "5",
                     "--burnin", "0", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("chain-error: " + line[:20])

    def test_health_reports_slice_evaluations(self):
        gen = RngStream(364).generator()
        for (n, k), level in (((30, 4), "nan"), ((6, 10), None)):
            data = Dataset(gen.standard_normal((n, k)), gen.standard_normal(n))
            health = run_chain(data, ModelSpec(n_iter=300, burn_in=0, seed=2)).health
            lines = dict(line.split("=") for line in health.as_lines())
            assert health.slice_steps["eta"] == health.slice_steps["rho2"] == 300
            for block in ("eta", "rho2", "level"):
                value = lines[f"{block}_slice_evals_per_step"]
                if block == "level" and level == "nan":
                    assert value == "nan" and health.slice_steps["level"] == 0
                else:
                    assert 3.0 < float(value) < 12.0, (block, value)
                    assert float(value) == pytest.approx(
                        health.slice_evals[block] / health.slice_steps[block], abs=1e-6)


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
            assert samples.columns[21:] == ["rho2", "eta", *penalty.Rates._fields]
            for col in samples.columns[21:]:
                assert np.all(samples.draws[:, samples.columns.index(col)] > 0), col

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
            b0 = float(np.median(samples.draws[:, samples.columns.index("beta_0")]))
            assert abs(b0 - np.quantile(y, tau)) < 0.1

    def test_elastic_net_nests_ridge(self, pin_rate):
        gen = RngStream(72).generator()
        n, k = 60, 6
        X = np.column_stack([np.ones(n), gen.standard_normal((n, k - 1))])
        y = X @ np.array([1.0, 2.0, 0.0, -1.0, 0.5, 0.0]) + 0.5 * gen.standard_normal(n)
        data = Dataset(X, y)
        strong_prior = ModelSpec(tau=0.5, penalty=ElasticNetHyper(b1=1e8),
                                 n_iter=2000, burn_in=500, seed=21)
        pinned = ModelSpec(tau=0.5, penalty=ElasticNetHyper(), n_iter=2000, burn_in=500, seed=21)
        m1 = np.median(run_chain(data, strong_prior).draws[:, :k], axis=0)
        pin_rate(ElasticNetHyper, 1e-7)
        m2 = np.median(run_chain(data, pinned).draws[:, :k], axis=0)
        assert np.max(np.abs(m1 - m2)) < 0.05

    def test_rho2_below_the_floor_is_kept_at_the_floor(self, monkeypatch, pin_eta):
        # a rho2 draw of 1e-310 is kept as the floor 1e-300 and counted; eta
        # is pinned, as its step cannot take a rho2 that small
        update_rho2 = sampler.update_rho2
        calls = iter(range(1, 100))

        def tiny_last(*args):
            drawn = update_rho2(*args)
            return 1e-310 if next(calls) == 5 else drawn

        monkeypatch.setattr(sampler, "update_rho2", tiny_last)
        pin_eta(1.0)
        data, _ = sim1_dataset(405, n=30)
        samples = run_chain(data, ModelSpec(tau=0.5, n_iter=5, burn_in=0, seed=2))
        assert samples.draws[-1, samples.columns.index("rho2")] == 1e-300
        assert samples.health.positivity_clamps == 1
        assert np.all(np.isfinite(samples.draws))

    def test_chain_error_carries_context(self, monkeypatch):
        import hqreg.sampler as sampler_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sampler_mod, "update_rho2", boom)
        data, _ = sim1_dataset(403, n=20)
        with pytest.raises(ChainError, match="rho2.*iteration 1"):
            run_chain(data, ModelSpec(tau=0.5, n_iter=10, burn_in=0))

    @pytest.mark.parametrize("penalty", [LassoHyper(), ElasticNetHyper()], ids=["lasso", "en"])
    @pytest.mark.parametrize("tau", [0.25, 0.5])
    @pytest.mark.parametrize("shape", ["tall", "wide", "zero-residual"])
    def test_chain_draws_only_half_orders(self, shape, tau, penalty, monkeypatch):
        # every GIG block of the scan draws at order +-1/2, by Wald or its
        # limit law, so a scan never reaches Devroye's sampler
        def no_devroye(*args):
            raise AssertionError("a chain block drew a GIG order other than +-1/2")

        limit_calls = []
        with_limits = randist._gig_with_limits
        monkeypatch.setattr(randist, "_devroye_gig_two_param", no_devroye)
        monkeypatch.setattr(randist, "_gig_with_limits",
                            lambda *args: limit_calls.append(args) or with_limits(*args))
        gen = RngStream(406).generator()
        n, k = {"tall": (60, 5), "wide": (15, 30), "zero-residual": (30, 4)}[shape]
        X = gen.standard_normal((n, k))
        y = X[:, 0] + gen.standard_normal(n)
        if shape == "zero-residual":
            # a zero row with y = 0 has residual exactly 0 at every beta, so
            # its v pair takes the gamma limit in every scan
            X[0], y[0] = 0.0, 0.0
        spec = ModelSpec(tau=tau, penalty=penalty, n_iter=40, burn_in=10, seed=5)
        samples = run_chain(Dataset(X, y), spec)
        assert np.isfinite(samples.draws).all()
        if shape == "zero-residual":
            assert len(limit_calls) >= spec.n_iter

    @pytest.mark.parametrize("action", ["ignore", "default"])
    def test_numeric_warning_fails_its_block(self, action):
        # whatever the caller's filters, an overflow inside a block is that
        # block's failure: a response near 1e160 overflows the squared
        # residuals of sigma's q, which the eta step computes first
        gen = RngStream(404).generator()
        X = np.column_stack([np.ones(30), gen.standard_normal((30, 3))])
        data = Dataset(X, 1e160 * gen.standard_normal(30))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(ChainError, match="^update 'eta' failed at iteration 1: "
                                                 "overflow encountered in multiply$"):
                run_chain(data, ModelSpec(tau=0.5, n_iter=20, burn_in=5))
        assert caught == []


class TestSummarize:
    def _samples(self, draws):
        return PosteriorSamples(draws=draws, columns=[f"c{i}" for i in range(draws.shape[1])],
                                health=ChainHealth())

    def test_constant_column(self):
        # one array per statistic, in column order
        s = self._samples(np.column_stack([np.full(50, 3.25), np.full(50, -1.0)]))
        assert [stat.tolist() for stat in summarize(s)] == [[3.25, -1.0]] * 3

    def test_standard_normal_interval(self):
        gen = RngStream(360).generator()
        s = self._samples(gen.standard_normal((100_000, 1)))
        (med,), (lo,), (hi,) = summarize(s)
        assert med == pytest.approx(0.0, abs=0.02)
        assert lo == pytest.approx(-1.96, abs=0.03)
        assert hi == pytest.approx(1.96, abs=0.03)

    def test_odd_count_median(self):
        s = self._samples(np.arange(1.0, 102.0)[:, None])
        median, _, _ = summarize(s)
        assert median[0] == 51.0

    def test_insufficient_draws(self):
        with pytest.raises(ValueError):
            summarize(self._samples(np.ones((1, 2))))


class TestPriorConsistency:
    """Joint check of every step of the scan (Geweke 2004): alternating
    data and parameter simulation, y given the state's (beta, sigma, v) and
    then one scan of the chain on that y, must keep the prior's moments.
    Every step of the scan is exact: the eta step, the rho2 move and the
    level move each leave the posterior invariant, so the band of 4
    standard errors is a test of the whole scan.  Wrong quadratic
    coefficients, swapped parameters or a wrong power of g move these
    statistics by tens of sigmas.
    """

    HYPER = LassoHyper(a=3.0, b=1.0, c=2.0, d=2.0)
    INVGAMMA = (6.0, 5.0)

    def _prior_moments(self, k):
        """The prior mean of each statistic and its Monte Carlo error."""
        gen = RngStream(201).generator()
        m = 1_000_000
        rho2 = self.INVGAMMA[1] / gen.gamma(self.INVGAMMA[0], size=m)
        eta = gen.gamma(2.0, 0.5, size=m)
        lam1 = gen.gamma(3.0, 1.0, size=m)
        s = gen.exponential(size=(m, k)) * (2.0 / lam1)[:, None]
        beta = gen.standard_normal((m, k)) * np.sqrt(rho2[:, None] * s)
        prior_stats = np.column_stack(
            [beta[:, 0], beta[:, 0] ** 2, beta[:, 1] ** 2, rho2, rho2**2, eta, eta**2, lam1]
        )
        return prior_stats.mean(axis=0), prior_stats.std(axis=0) / math.sqrt(m)

    def _successive_conditional_z(self, chain_state, n, k, tau, sweeps):
        X = RngStream(100).generator().standard_normal((n, k))
        spec = ModelSpec(tau=tau, penalty=self.HYPER, rho2_invgamma=self.INVGAMMA,
                         n_iter=10, burn_in=0)
        prior_mean, prior_se = self._prior_moments(k)

        # successive-conditional side: y | params, then one scan
        gen = RngStream(202).generator()
        state = chain_state(
            self.HYPER, beta=np.zeros(k), v=np.ones(n), sigma=np.ones(n), rho2=1.0, eta=1.0,
            latent=np.ones(k), lambda1_sq=1.0,
        )
        projector = sampler.wide_projector(X)
        assert (projector is None) == (k <= n)
        rows = np.empty((sweeps, 8))
        health = ChainHealth()
        for i in range(sweeps):
            y = (X @ state.beta + (1 - 2 * tau) * state.v
                 + np.sqrt(4.0 * state.sigma * state.v) * gen.standard_normal(n))
            sampler._scan(state, Dataset(X, y), spec, gen, health, projector, i + 1)
            rows[i] = (state.beta[0], state.beta[0] ** 2, state.beta[1] ** 2, state.rho2,
                       state.rho2**2, state.eta, state.eta**2, state.rates.lambda1_sq)
        burn = 500
        rows = rows[burn:]
        n_batches = 50
        usable = rows[: rows.shape[0] - rows.shape[0] % n_batches]
        batch_means = usable.reshape(n_batches, -1, 8).mean(axis=1)
        chain_mean = rows.mean(axis=0)
        chain_se = batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)
        assert health.positivity_clamps == 0 and health.eta_update_skips == 0
        assert health.slice_steps["level"] == (sweeps if projector is not None else 0)
        return (chain_mean - prior_mean) / np.sqrt(prior_se**2 + chain_se**2)

    def test_successive_conditional_moments(self, chain_state):
        z = self._successive_conditional_z(chain_state, n=5, k=2, tau=0.3, sweeps=20_000)
        assert np.all(np.abs(z) < 4.0), f"z-scores {z.round(2)}"

    def test_successive_conditional_moments_wide(self, chain_state):
        # k > n: the rho2 move shifts beta, and the level move runs
        z = self._successive_conditional_z(chain_state, n=4, k=9, tau=0.5, sweeps=40_000)
        assert np.all(np.abs(z) < 4.0), f"z-scores {z.round(2)}"


def _batch_z(draws: np.ndarray, expect: np.ndarray, n_batches: int = 50) -> np.ndarray:
    """(mean of each column - expect) / its batch-means standard error."""
    usable = draws[: draws.shape[0] - draws.shape[0] % n_batches]
    batch_means = usable.reshape(n_batches, -1, draws.shape[1]).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return (draws.mean(axis=0) - expect) / se


class TestSurfaceOracle:
    """The whole chain at fixed data against an exact answer.

    With eta and the penalty rates held fixed, one predictor and no
    intercept, the conditional-style posterior surface is the chain's
    (beta, rho2) marginal: sigma, v and the penalty latents integrate out
    in closed form, and the coefficient prior is the family's own
    ``Rates.log_prior``.  Its quadrature over beta x log rho2, with the
    Jacobian rho2, gives the reference means and sds of beta and log rho2,
    and the CDF of beta.  The seeds and thresholds were fixed before the
    first run.
    """

    SCANS, BURN_IN, GRID, THIN = 20_000, 1_000, 601, 20

    @pytest.mark.parametrize("family,tau,eta,rates", [
        (LassoHyper, 0.5, 1.0, (1.0,)),
        (LassoHyper, 0.3, 0.4, (4.0,)),
        (ElasticNetHyper, 0.5, 1.0, (1.0, 1.0)),
        (ElasticNetHyper, 0.3, 0.5, (0.3, 3.0)),
    ])
    def test_chain_matches_surface_quadrature(self, pin_rate, pin_eta, family, tau, eta, rates):
        gen = RngStream(150).generator()
        x = gen.standard_normal(20)
        y = x + gen.standard_t(3, size=20)
        pin_rate(family, *rates)
        pin_eta(eta)
        spec = ModelSpec(tau=tau, penalty=family(), n_iter=self.SCANS, burn_in=self.BURN_IN,
                         seed=151)
        samples = run_chain(Dataset(x[:, None], y), spec)
        draws = np.column_stack([samples.draws[:, 0], np.log(samples.draws[:, 1])])
        assert np.all(samples.draws[:, 2] == eta)
        assert np.all(samples.draws[:, 3:] == rates)

        # the window spans 15 chain sds each side (beta's tails are
        # exponential); the edge check below shows it holds the surface's mass
        centre, spread = draws.mean(axis=0), 15.0 * draws.std(axis=0)
        bgrid, ugrid = (np.linspace(c - s, c + s, self.GRID) for c, s in zip(centre, spread))
        surface = loss_density.PosteriorGridSpec(bgrid, np.exp(ugrid), x, y, family.Rates(*rates),
                                                 "conditional", eta, tau)
        logp = loss_density.log_posterior_grid(surface) + ugrid[None, :]
        logp -= logp.max()
        edges = np.concatenate([logp[0], logp[-1], logp[:, 0], logp[:, -1]])
        assert edges.max() < -20.0
        p = np.exp(logp)
        p /= p.sum()
        mean = np.array([bgrid @ p.sum(axis=1), ugrid @ p.sum(axis=0)])
        var = np.array([(bgrid - mean[0]) ** 2 @ p.sum(axis=1),
                        (ugrid - mean[1]) ** 2 @ p.sum(axis=0)])

        # means of beta and log rho2, then their centred squares: the sds
        z = _batch_z(np.column_stack([draws, (draws - mean) ** 2]), np.concatenate([mean, var]))
        assert np.all(np.abs(z) < 4.0), f"z-scores {z.round(2)}"

        # beta thinned to near-independence against the quadrature CDF,
        # each grid cell's mass spread evenly over its width
        step = bgrid[1] - bgrid[0]
        cdf_knots = np.concatenate([[0.0], np.cumsum(p.sum(axis=1))])
        cell_edges = np.concatenate([bgrid - step / 2, [bgrid[-1] + step / 2]])
        ks = stats.kstest(draws[:: self.THIN, 0], lambda b: np.interp(b, cell_edges, cdf_knots))
        assert ks.pvalue > 1e-3, f"KS p = {ks.pvalue:.2g}, z-scores {z.round(2)}"
