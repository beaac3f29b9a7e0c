"""Tests for the Bayesian-optimization baseline."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.baselines.bayesian import (
    BayesianOptScheduler,
    GaussianProcess,
    _normal_cdf,
    _normal_pdf,
    expected_improvement,
)
from repro.common import ConfigError, make_rng
from repro.env.qos import use_case_for


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        x = np.linspace(0, 5, 12)[:, None]
        y = np.sin(x).ravel()
        gp = GaussianProcess(length_scale=1.0, noise_var=1e-4).fit(x, y)
        predictions = gp.predict(x)
        assert np.allclose(predictions, y, atol=0.05)

    def test_uncertainty_grows_away_from_data(self):
        x = np.zeros((5, 1))
        y = np.zeros(5)
        gp = GaussianProcess().fit(x, y)
        _, near_std = gp.predict(np.array([[0.1]]), return_std=True)
        _, far_std = gp.predict(np.array([[8.0]]), return_std=True)
        assert far_std[0] > near_std[0]

    def test_mean_reverts_to_prior_far_away(self):
        x = np.zeros((5, 1))
        y = np.full(5, 3.0)
        gp = GaussianProcess().fit(x, y)
        far_mean = gp.predict(np.array([[50.0]]))[0]
        assert far_mean == pytest.approx(3.0, abs=0.2)

    def test_unfitted_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess().predict(np.zeros((1, 1)))

    def test_bad_hyperparameters(self):
        with pytest.raises(ConfigError):
            GaussianProcess(length_scale=0.0)


class TestExpectedImprovement:
    def test_zero_when_certain_and_worse(self):
        ei = expected_improvement(np.array([5.0]), np.array([0.0]),
                                  best=1.0)
        assert ei[0] == 0.0

    def test_positive_when_certain_and_better(self):
        ei = expected_improvement(np.array([0.5]), np.array([0.0]),
                                  best=1.0)
        assert ei[0] == pytest.approx(0.5)

    def test_uncertainty_adds_value(self):
        certain = expected_improvement(np.array([1.0]), np.array([0.0]),
                                       best=1.0)
        uncertain = expected_improvement(np.array([1.0]), np.array([1.0]),
                                         best=1.0)
        assert uncertain[0] > certain[0]

    def test_maximize_mode(self):
        ei = expected_improvement(np.array([2.0]), np.array([0.0]),
                                  best=1.0, minimize=False)
        assert ei[0] == pytest.approx(1.0)

    def test_unit_spread_at_the_incumbent(self):
        """At ``mean == best`` with unit spread, EI is the normal
        density at zero: 1 / sqrt(2 pi)."""
        ei = expected_improvement(np.array([1.0]), np.array([1.0]),
                                  best=1.0)
        assert ei[0] == 1.0 / math.sqrt(2.0 * math.pi)

    def test_normal_closed_forms_match_scipy(self):
        """The erfc/exp closed forms agree with scipy's normal: the
        density exactly, the CDF to 1.3e-14 relative on [-8, 8]."""
        stats = pytest.importorskip("scipy.stats")
        z = np.linspace(-8.0, 8.0, 4001).reshape(-1, 1)
        assert (_normal_pdf(z) == stats.norm.pdf(z)).all()
        cdf = _normal_cdf(z)
        assert cdf.shape == z.shape
        np.testing.assert_allclose(cdf, stats.norm.cdf(z), rtol=1.3e-14,
                                   atol=0.0)


def test_import_leaves_scipy_out():
    """Importing the baselines must not pull in scipy (~0.6 s)."""
    code = ("import sys, repro.baselines; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code],
                          env=env).returncode == 0


class TestBayesianOptScheduler:
    def test_train_and_select(self, env, zoo):
        cases = [use_case_for(zoo["mobilenet_v3"])]
        scheduler = BayesianOptScheduler(warmup=6, iterations=3, seed=0)
        scheduler.train(env, cases)
        target = scheduler.select(env, cases[0], env.observe())
        assert target in env.targets()

    def test_untrained_rejected(self, env, zoo):
        scheduler = BayesianOptScheduler()
        with pytest.raises(ConfigError):
            scheduler.select(env, use_case_for(zoo["mobilenet_v3"]),
                             env.observe())

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            BayesianOptScheduler(warmup=1)

    def test_predictions_positive(self, env, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        scheduler = BayesianOptScheduler(warmup=6, iterations=2, seed=1)
        scheduler.train(env, [case])
        energy, latency = scheduler.predict_energy_latency(
            case, env.observe(), list(env.targets())[:10]
        )
        assert (energy > 0).all() and (latency > 0).all()
