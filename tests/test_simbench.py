"""Scenario generators, metrics, study aggregation and cross-validation."""

import os

import numpy as np
import pytest

from hqreg.randist import Cauchy, ContaminatedNormal, Gaussian, Mixture, RngStream, SkewT
from hqreg.sampler import Dataset, LassoHyper, ModelSpec
from hqreg.simbench import (
    CvResult,
    ReplicationResult,
    TRUE_BETA,
    cross_validate,
    generate_scenario,
    metrics,
    run_study,
    scenario_by_id,
    sensitivity_curve_study,
    sensitivity_design,
    sensitivity_true_curve,
    worker_count,
)


class TestScenarios:
    def test_true_beta_layout(self):
        assert TRUE_BETA[0] == 1.0
        assert TRUE_BETA[1] == 3.0
        assert TRUE_BETA[2] == 0.5
        assert TRUE_BETA[4] == 1.0
        assert TRUE_BETA[7] == 1.5
        assert TRUE_BETA[11] == 1.0
        assert np.sum(TRUE_BETA != 0) == 6

    def test_design_parameters(self):
        s1 = scenario_by_id(1)
        assert (s1.sigma, s1.r) == (2.0, 0.5)
        assert isinstance(s1.noise, Gaussian)
        s2 = scenario_by_id(2)
        assert (s2.sigma, s2.r) == (9.67, 0.5)
        assert isinstance(s2.noise, ContaminatedNormal)
        assert s2.noise_divisor == pytest.approx(4.83, abs=0.01)
        s3 = scenario_by_id(3)
        assert s3.r == 0.95
        s4 = scenario_by_id(4)
        assert isinstance(s4.noise, Mixture) and s4.sigma == 1.0
        weights = [w for w, _ in s4.noise.components]
        assert weights == [0.9, 0.1]
        assert isinstance(s4.noise.components[0][1], SkewT)
        s5 = scenario_by_id(5)
        assert isinstance(s5.noise, Cauchy) and s5.sigma == 2.0
        s6 = scenario_by_id(6)
        assert [w for w, _ in s6.noise.components] == [0.8, 0.1, 0.1]
        with pytest.raises(ValueError):
            scenario_by_id(7)

    def test_uncorrelated_predictors(self):
        spec = scenario_by_id(1, n=4000)
        spec = type(spec)(**{**spec.__dict__, "r": 0.0})
        data = generate_scenario(spec, RngStream(500).generator())
        x = data.X[:, 1:]
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(20, dtype=bool)]
        assert np.max(np.abs(off)) < 0.08

    def test_neighbour_correlation(self):
        spec = scenario_by_id(1, n=10_000)
        data = generate_scenario(spec, RngStream(501).generator())
        x = data.X[:, 1:]
        assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] == pytest.approx(0.5, abs=0.03)

    def test_covariance_matches_ar_profile(self):
        spec = scenario_by_id(1, n=10_000)
        data = generate_scenario(spec, RngStream(502).generator())
        x = data.X[:, 1:]
        emp = np.cov(x.T)
        expect = 0.5 ** np.abs(np.subtract.outer(np.arange(20), np.arange(20)))
        assert np.max(np.abs(emp - expect)) < 0.05

    def test_contaminated_noise_standardised(self):
        spec = scenario_by_id(2, n=200_000)
        data = generate_scenario(spec, RngStream(503).generator())
        resid = data.y - data.X @ TRUE_BETA
        # standardised noise scaled by sigma: sd ~ sigma
        assert np.std(resid) == pytest.approx(spec.sigma, rel=0.02)

    def test_intercept_column(self):
        data = generate_scenario(scenario_by_id(1, n=50), RngStream(504).generator())
        np.testing.assert_array_equal(data.X[:, 0], np.ones(50))


class TestMetrics:
    def test_exact_recovery(self):
        truth = np.array([1.0, -2.0, 0.0])
        intervals = np.column_stack([truth - 0.5, truth + 0.5])
        res = metrics(truth, truth, intervals)
        assert res.rmse == 0.0 and res.mad == 0.0
        assert res.cp == 1.0

    def test_constant_error(self):
        truth = np.zeros(21)
        est = truth + 1.0
        intervals = np.column_stack([est - 1.0, est + 1.0])
        res = metrics(est, truth, intervals)
        assert res.rmse == pytest.approx(1.0)
        assert res.mad == pytest.approx(1.0)
        assert res.al == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metrics(np.zeros(3), np.zeros(4), np.zeros((3, 2)))

    def test_aggregation_permutation_invariant(self):
        gen = RngStream(505).generator()
        reps = [
            ReplicationResult(rmse=r, mad=m, al=a, cp=c)
            for r, m, a, c in gen.uniform(0.1, 1.0, size=(9, 4))
        ]
        def agg(rs):
            return (
                np.mean([r.rmse for r in rs]),
                np.median([r.mad for r in rs]),
                np.mean([r.al for r in rs]),
                np.mean([r.cp for r in rs]),
            )
        shuffled = list(reps)
        gen.shuffle(shuffled)
        assert agg(reps) == pytest.approx(agg(shuffled))


class TestRunStudy:
    def _tiny_model(self):
        return ModelSpec(tau=0.5, n_iter=120, burn_in=40, seed=0)

    def test_single_replication_equals_its_metrics(self):
        scen = scenario_by_id(1, n=30)
        cells = run_study([scen], self._tiny_model(), 1, master_seed=3)
        cell = cells[0]
        assert cell.n_replications == 1 and cell.n_failures == 0
        assert cell.eta_medians.shape == (1,)
        assert cell.complete

    def test_parallel_matches_serial(self, monkeypatch):
        scen = scenario_by_id(1, n=30)
        monkeypatch.setenv("HQREG_THREADS", "1")
        a = run_study([scen], self._tiny_model(), 3, master_seed=5)[0]
        monkeypatch.setenv("HQREG_THREADS", "2")
        b = run_study([scen], self._tiny_model(), 3, master_seed=5)[0]
        assert a.rmse_mean == b.rmse_mean
        assert a.mmad == b.mmad
        np.testing.assert_array_equal(a.eta_medians, b.eta_medians)

    def test_parallel_matches_serial_across_cells(self, monkeypatch):
        # one pool serves every cell; each cell keeps its own replications
        scens = [scenario_by_id(1, n=30, tau=0.5), scenario_by_id(5, n=30, tau=0.25)]
        monkeypatch.setenv("HQREG_THREADS", "2")
        pooled = run_study(scens, self._tiny_model(), 2, master_seed=8)
        monkeypatch.setenv("HQREG_THREADS", "1")
        serial = run_study(scens, self._tiny_model(), 2, master_seed=8)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            assert (a.scenario_id, a.tau, a.n_failures) == (b.scenario_id, b.tau, b.n_failures)
            assert (a.rmse_mean, a.mmad, a.al_mean, a.cp_mean) == (
                b.rmse_mean, b.mmad, b.al_mean, b.cp_mean)
            np.testing.assert_array_equal(a.eta_medians, b.eta_medians)
        # a cell's results do not depend on the cells run beside it
        alone = run_study(scens[1:], self._tiny_model(), 2, master_seed=8)[0]
        np.testing.assert_array_equal(alone.eta_medians, serial[1].eta_medians)

    def test_failures_mark_cell_incomplete(self, monkeypatch):
        import hqreg.simbench as sb

        original = sb._fit_metrics
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(sb, "_fit_metrics", flaky)
        # the call counter lives in this process
        monkeypatch.setenv("HQREG_THREADS", "1")
        scen = scenario_by_id(1, n=30)
        cell = run_study([scen], self._tiny_model(), 3, master_seed=5)[0]
        assert cell.n_failures == 1
        assert not cell.complete  # 1/3 > 5%
        assert cell.failures == ((0, "RuntimeError: synthetic failure"),)
        assert cell.eta_medians.shape == (2,)

    def test_worker_count_obeys_env(self, monkeypatch):
        monkeypatch.setenv("HQREG_THREADS", "2")
        assert worker_count(16) <= 2
        monkeypatch.setenv("HQREG_THREADS", "1")
        assert worker_count(16) == 1
        for bad in ("not-a-number", "0", "-2", "1.5"):
            monkeypatch.setenv("HQREG_THREADS", bad)
            with pytest.raises(ValueError, match="HQREG_THREADS must be an integer >= 1"):
                worker_count(1)
        # the cap is the CPUs the process may run on, not the host's count
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("HQREG_THREADS", "2")
        assert worker_count(16) == 1
        monkeypatch.delenv("HQREG_THREADS")
        assert worker_count(16) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count(16) == 8


class TestSensitivity:
    def test_true_curve_scalar_value(self):
        # direct evaluation of the four logistic terms at x = 0.5
        x = 0.5
        expect = (
            1.0 / (1.0 + np.exp(-4.0 * (x - 0.3)))
            + 1.0 / (1.0 + np.exp(3.0 * (x - 0.2)))
            + 1.0 / (1.0 + np.exp(-4.0 * (x - 0.7)))
            + 1.0 / (1.0 + np.exp(5.0 * (x - 0.8)))
        )
        assert sensitivity_true_curve(0.5) == pytest.approx(expect, rel=1e-15)
        grid, design = sensitivity_design()
        assert grid.shape == (50,) and design.shape == (50, 4)
        np.testing.assert_allclose(design @ np.ones(4), sensitivity_true_curve(grid), rtol=1e-14)

    def test_fit_tracks_curve_and_hyperparameter_insensitivity(self):
        base = dict(n_iter=4000, burn_in=1000, seed=0)
        models = [
            ("b=1", ModelSpec(tau=0.5, **base)),
            ("b=2", ModelSpec(tau=0.5, penalty=type(ModelSpec().penalty)(b=2.0), **base)),
        ]
        curves = sensitivity_curve_study(models, master_seed=4)
        (_, grid, fit1, truth), (_, _, fit2, _) = curves
        interior = slice(3, 47)
        assert np.max(np.abs(fit1[interior] - truth[interior])) < 0.2
        assert np.max(np.abs(fit1 - fit2)) < 0.1


class TestCrossValidate:
    def _linear_data(self, n=50, k=3, noise=0.0, seed=8):
        gen = RngStream(seed).generator()
        X = np.column_stack([np.ones(n), gen.standard_normal((n, k - 1))])
        beta = np.array([0.7, 1.5, -2.0])[:k]
        y = X @ beta + noise * gen.standard_normal(n)
        return Dataset(X, y), beta

    def test_fold_partition_disjoint_cover(self):
        data, _ = self._linear_data(n=47)
        seen = []

        def spy_fit(train, model, rng):
            seen.append(train.n)
            return np.zeros(train.k)

        res = cross_validate(data, ModelSpec(), folds=10, rng=RngStream(1), fit=spy_fit)
        assert sum(res.fold_sizes) == 47
        assert len(res.fold_sizes) == 10
        assert sum(seen) == 10 * 47 - 47  # complement sizes

    def test_perfect_predictor(self):
        data, beta = self._linear_data(noise=0.0)

        def exact_fit(train, model, rng):
            return np.linalg.lstsq(train.X, train.y, rcond=None)[0]

        res = cross_validate(data, ModelSpec(), folds=10, rng=RngStream(2), fit=exact_fit)
        assert max(res.mspe, res.mape, res.mhpe, res.medspe) < 1e-12

    def test_perfect_data_with_sampler_and_flat_prior(self):
        data, beta = self._linear_data(noise=0.0)
        model = ModelSpec(tau=0.5, penalty=LassoHyper(fixed_lambda1_sq=1e-10), n_iter=300,
                          burn_in=100, seed=2)
        res = cross_validate(data, model, folds=5, rng=RngStream(3))
        assert max(res.mspe, res.mape, res.mhpe, res.medspe) < 1e-6

    def test_constant_predictor_on_standardised_response(self):
        gen = RngStream(9).generator()
        n = 400
        y = gen.standard_normal(n)
        y = (y - y.mean()) / y.std(ddof=1)
        data = Dataset(np.ones((n, 1)), y)

        def zero_fit(train, model, rng):
            return np.zeros(train.k)

        res = cross_validate(data, ModelSpec(), folds=10, rng=RngStream(4), fit=zero_fit)
        assert res.mspe == pytest.approx(1.0, abs=0.15)

    def test_huber_error_below_half_squared_within_delta(self):
        gen = RngStream(10).generator()
        n = 60
        X = np.ones((n, 1))
        y = 0.5 * gen.uniform(-1, 1, n)  # residuals all within delta

        def zero_fit(train, model, rng):
            return np.zeros(train.k)

        res = cross_validate(Dataset(X, y), ModelSpec(), folds=6, rng=RngStream(5), fit=zero_fit)
        assert res.mhpe == pytest.approx(res.mspe / 2.0, rel=1e-12)

    def test_medspe_between_fold_extremes(self):
        data, _ = self._linear_data(n=60, noise=0.3)

        def exact_fit(train, model, rng):
            return np.linalg.lstsq(train.X, train.y, rcond=None)[0]

        res = cross_validate(data, ModelSpec(), folds=6, rng=RngStream(6), fit=exact_fit)
        assert len(res.fold_mspe) == 6
        assert min(res.fold_mspe) <= res.medspe <= max(res.fold_mspe)

    def test_too_small_folds_rejected(self):
        data, _ = self._linear_data(n=12)
        with pytest.raises(ValueError):
            cross_validate(data, ModelSpec(), folds=11, rng=RngStream(7))
        with pytest.raises(ValueError):
            cross_validate(data, ModelSpec(), folds=1, rng=RngStream(7))

    def test_cv_result_validation(self):
        with pytest.raises(ValueError):
            CvResult(mspe=-1.0, mape=0.0, mhpe=0.0, medspe=0.0, fold_sizes=(1,))
