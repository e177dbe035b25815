"""Unit tests for the acceptance-probability models (Formulae 4-5)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import ExponentialModel, HyperbolicModel, LinearModel
from repro.core.probability import _ratio

ALL_MODELS = [ExponentialModel(), HyperbolicModel(), LinearModel()]


class TestSharedContract:
    """Behaviour every Formula-4 family member must satisfy."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_zero_cost_always_accepts(self, model):
        assert model.probability(5.0, 0.0) == 1.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_zero_over_zero_accepts(self, model):
        # no data anywhere: placement is free everywhere
        assert model.probability(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_zero_average_positive_cost_rejects(self, model):
        assert model.probability(0.0, 10.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_probability_in_unit_interval(self, model):
        c_ave = np.linspace(0, 100, 31)
        cost = np.linspace(0.1, 100, 31)
        p = model.probability(c_ave, cost)
        assert np.all(p >= 0) and np.all(p <= 1)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_monotone_decreasing_in_cost(self, model):
        costs = np.linspace(0.5, 50, 40)
        p = model.probability(10.0, costs)
        assert np.all(np.diff(p) <= 1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_monotone_increasing_in_average(self, model):
        c_aves = np.linspace(0.0, 50, 40)
        p = model.probability(c_aves, 10.0)
        assert np.all(np.diff(p) >= -1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_negative_cost_rejected(self, model):
        with pytest.raises(ValueError):
            model.probability(1.0, -1.0)
        with pytest.raises(ValueError):
            model.probability(-1.0, 1.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_vectorised_matches_scalar(self, model):
        c_ave = np.array([1.0, 2.0, 3.0])
        cost = np.array([3.0, 2.0, 1.0])
        vec = model.probability(c_ave, cost)
        for i in range(3):
            assert vec[i] == pytest.approx(
                float(model.probability(float(c_ave[i]), float(cost[i])))
            )


def test_ratio_overflow_is_silent_accept():
    # a tiny positive cost overflows c_ave / cost to +inf: the intended
    # "accept" value, reached without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ratio(1e300, 1e-300) == np.inf
        for model in ALL_MODELS:
            assert model.probability(1e300, 1e-300) == 1.0


class TestExponential:
    """The paper's exact Formula (4)."""

    def test_formula_value(self):
        m = ExponentialModel()
        # P = 1 - exp(-c_ave / c)
        assert m.probability(4.0, 2.0) == pytest.approx(1 - np.exp(-2.0))
        assert m.probability(2.0, 2.0) == pytest.approx(1 - np.exp(-1.0))

    def test_equal_costs_give_inverse_e(self):
        # ratio 1 -> P = 1 - 1/e ~ 0.632, comfortably above the paper's
        # P_min = 0.4, so an "average" slot is still usually accepted
        p = float(ExponentialModel().probability(7.0, 7.0))
        assert p == pytest.approx(0.6321, abs=1e-4)
        assert p > 0.4

    def test_threshold_cost_bound(self):
        # Section II-C: P >= P_min  <=>  C <= C_ave / (-ln(1 - P_min))
        m = ExponentialModel()
        p_min = 0.4
        c_ave = 10.0
        c_bound = c_ave / (-np.log(1 - p_min))
        assert float(m.probability(c_ave, c_bound)) == pytest.approx(p_min)
        assert float(m.probability(c_ave, c_bound * 0.99)) > p_min
        assert float(m.probability(c_ave, c_bound * 1.01)) < p_min

    def test_extreme_ratio_saturates(self):
        m = ExponentialModel()
        assert float(m.probability(1e12, 1.0)) == 1.0
        assert float(m.probability(1.0, 1e12)) == pytest.approx(0.0, abs=1e-9)


class TestHyperbolic:
    def test_formula_value(self):
        m = HyperbolicModel()
        assert float(m.probability(2.0, 2.0)) == pytest.approx(0.5)
        assert float(m.probability(4.0, 2.0)) == pytest.approx(2 / 3)

    def test_uniformly_more_conservative_than_exponential(self):
        # r/(1+r) <= 1-exp(-r) for every r >= 0, so the hyperbolic model
        # accepts strictly less often at any positive cost
        ratios = np.linspace(0.01, 20, 50)
        h = HyperbolicModel().probability(ratios, np.ones_like(ratios))
        e = ExponentialModel().probability(ratios, np.ones_like(ratios))
        assert np.all(h < e)


class TestLinear:
    def test_formula_value(self):
        m = LinearModel(beta=0.5)
        assert float(m.probability(2.0, 2.0)) == pytest.approx(0.5)
        assert float(m.probability(8.0, 2.0)) == 1.0

    def test_beta_scales_ramp(self):
        lo = float(LinearModel(beta=0.25).probability(2.0, 2.0))
        hi = float(LinearModel(beta=0.75).probability(2.0, 2.0))
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(0.75)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            LinearModel(beta=0.0)
