"""Every probability argument of the library follows one rule: each element
in (0, 1), or in [0, 1] at a closed site, NaN in neither, else a
``ParameterError`` naming the argument in the message
``<name> must lie in (0, 1), got <first offending value!r>``."""

import math

import numpy as np
import pytest

import hierkendall.levelset as levelset
from hierkendall.backtest import forecast_var, kupiec_uc, rolling_backtest
from hierkendall.copulas import (ArchimedeanCopula, GaussianCopula, copula_sample_conditional,
                                 quantile_curve)
from hierkendall.errors import ParameterError, check_probability
from hierkendall.estimation import NodeSpec, build_model
from hierkendall.generators import ArchimedeanGenerator
from hierkendall.hierarchical import cross_cluster_margin_pdf
from hierkendall.kendall import KendallFunction, closed_form_kendall, kendall_cdf, kendall_inverse
from hierkendall.levelset import (DEFAULT_EPSILON_RULE, sample_levelset_conditional_batch,
                                  sample_levelset_projected_batch,
                                  sample_levelset_rejection_batch)

CLAYTON = ArchimedeanGenerator("clayton", 2.0)
GAUSS = GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]]))
SPEC = NodeSpec("nest", "frank", params={"tau": 0.3}, children=(
    NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
    NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.5})))
FIT_SPEC = NodeSpec("nest", "independence", children=(
    NodeSpec("a", "independence", columns=(0,)),
    NodeSpec("b", "independence", columns=(1,))))
DATA = np.random.default_rng(4).normal(size=(40, 2))


def _model():
    return build_model(SPEC, 4)


def _rng():
    return np.random.default_rng(1)


# (argument, closed, call taking the value); a valid 0.5 leads each batch
SITES = {
    "sample_levelset_conditional_batch": (
        "z", False, lambda v: sample_levelset_conditional_batch(CLAYTON, 2, [0.5, v], _rng())),
    "sample_levelset_projected_batch": (
        "z", False, lambda v: sample_levelset_projected_batch(CLAYTON, 2, [0.5, v], _rng())),
    "sample_levelset_rejection_batch": (
        "z_targets", False, lambda v: sample_levelset_rejection_batch(
            GAUSS, [0.5, v], DEFAULT_EPSILON_RULE, _rng())),
    "kendall_cdf": ("t", False, lambda v: kendall_cdf(closed_form_kendall(CLAYTON, 3), [0.5, v])),
    "kendall_inverse": (
        "p", False, lambda v: kendall_inverse(closed_form_kendall(CLAYTON, 3), [0.5, v])),
    "KendallFunction": ("sorted_values", False, lambda v: KendallFunction(
        "empirical", 2, sorted_values=np.array([v]))),
    "quantile_curve": ("z", False, lambda v: quantile_curve(
        ArchimedeanCopula(CLAYTON, 2), [0.3], v)),
    "cross_cluster_margin_pdf-u_k": ("u_k", True, lambda v: cross_cluster_margin_pdf(
        _model(), 0, 2, v, 0.6, 10, _rng())),
    "cross_cluster_margin_pdf-u_l": ("u_l", True, lambda v: cross_cluster_margin_pdf(
        _model(), 0, 2, 0.4, v, 10, _rng())),
    "copula_sample_conditional": ("value", True, lambda v: copula_sample_conditional(
        ArchimedeanCopula(CLAYTON, 2), 0, v, 5, _rng())),
    "forecast_var": ("level", False, lambda v: forecast_var(
        _model(), [None] * 4, [0.25] * 4, v, 10, _rng())),
    "rolling_backtest": ("level", False, lambda v: rolling_backtest(
        DATA, FIT_SPEC, level=v, window=20, horizon=2, mc=100)),
    "kupiec_uc": ("alpha", False, lambda v: kupiec_uc([True, False], v)),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", ["below", "above", "nan"])
def test_a_bad_probability_is_refused_by_name(site, bad):
    name, closed, call = SITES[site]
    value = {"below": -0.1 if closed else 0.0, "above": 1.1 if closed else 1.0,
             "nan": math.nan}[bad]
    with pytest.raises(ParameterError) as info:
        call(value)
    assert info.value.argument == name
    interval = "[0, 1]" if closed else "(0, 1)"
    assert str(info.value) == f"{name} must lie in {interval}, got {value!r}"


@pytest.mark.parametrize("site", [s for s in SITES if SITES[s][1]])
@pytest.mark.parametrize("edge", [0.0, 1.0])
def test_a_closed_site_accepts_its_edges(site, edge):
    SITES[site][2](edge)


def test_a_nan_level_is_refused_before_any_candidate_is_drawn(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("copula_sample called")

    monkeypatch.setattr(levelset, "copula_sample", spy)
    with pytest.raises(ParameterError) as info:
        sample_levelset_rejection_batch(GAUSS, [math.nan], DEFAULT_EPSILON_RULE, _rng())
    assert info.value.argument == "z_targets"


def test_the_first_offending_element_is_named_as_a_python_number():
    with pytest.raises(ParameterError, match=r"^q must lie in \(0, 1\), got 1\.5$"):
        check_probability("q", np.array([[0.5, 0.2], [1.5, -3.0]]))
    with pytest.raises(ParameterError, match=r"^q must lie in \[0, 1\], got -1$"):
        check_probability("q", np.int64(-1), closed=True)
    check_probability("q", np.array([1e-300, 1.0 - 2.0 ** -53]))
    check_probability("q", np.empty(0))
