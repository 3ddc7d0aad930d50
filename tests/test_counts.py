"""Every count argument of the library follows one rule: an integer, not a
bool, of at least its floor, else a ``ParameterError`` naming the argument
in the message ``<name> must be an integer >= <floor>, got <value!r>``."""

import numpy as np
import pytest

from hierkendall.backtest import forecast_var, rolling_backtest
from hierkendall.copulas import (ArchimedeanCopula, GaussianCopula, IndependenceCopula,
                                 StudentTCopula, copula_sample, copula_sample_conditional)
from hierkendall.errors import ParameterError
from hierkendall.estimation import NodeSpec, build_model
from hierkendall.generators import (ArchimedeanGenerator, generator_inverse_derivative,
                                    generator_inverse_derivative_log)
from hierkendall.hierarchical import cross_cluster_margin_pdf, model_sample
from hierkendall.kendall import MIN_KENDALL_MC, KendallFunction, empirical_kendall_build
from hierkendall.rngutil import substream

CLAYTON = ArchimedeanGenerator("clayton", 2.0)
SPEC = NodeSpec("nest", "frank", params={"tau": 0.3}, children=(
    NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
    NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.5})))
FIT_SPEC = NodeSpec("nest", "independence", children=(
    NodeSpec("a", "independence", columns=(0,)),
    NodeSpec("b", "independence", columns=(1,))))
DATA = np.random.default_rng(4).normal(size=(40, 2))


def _model():
    return build_model(SPEC, 4)


def _backtest(**kwargs):
    args = dict(level=0.95, window=20, horizon=2, refit_every=1, mc=100, seed=0)
    rolling_backtest(DATA, FIT_SPEC, **{**args, **kwargs})


def _rng():
    return np.random.default_rng(1)


# (argument, floor, call taking the value)
SITES = {
    "model_sample": ("n", 0, lambda v: model_sample(_model(), v, _rng())),
    "cross_cluster_margin_pdf": (
        "mc", 1, lambda v: cross_cluster_margin_pdf(_model(), 0, 2, 0.4, 0.6, v, _rng())),
    "copula_sample": ("n", 0, lambda v: copula_sample(ArchimedeanCopula(CLAYTON, 2), v,
                                                      _rng())),
    "copula_sample_conditional": ("n", 0, lambda v: copula_sample_conditional(
        ArchimedeanCopula(CLAYTON, 2), 0, 0.5, v, _rng())),
    "generator_inverse_derivative": ("k", 0, lambda v: generator_inverse_derivative(
        CLAYTON, 1.0, v)),
    "generator_inverse_derivative_log": ("k", 1, lambda v: generator_inverse_derivative_log(
        CLAYTON, 1.0, v)),
    "IndependenceCopula": ("dim", 1, IndependenceCopula),
    "ArchimedeanCopula": ("dim", 2, lambda v: ArchimedeanCopula(CLAYTON, v)),
    "KendallFunction": ("dim", 1, lambda v: KendallFunction("closed_form", v, CLAYTON)),
    "empirical_kendall_build": (
        "m", MIN_KENDALL_MC,
        lambda v: empirical_kendall_build(IndependenceCopula(2), v, _rng())),
    "substream": ("seed", 0, lambda v: substream(v, 1)),
    "build_model": ("seed", 0, lambda v: build_model(SPEC, 4, seed=v)),
    "forecast_var": ("mc", 1, lambda v: forecast_var(
        _model(), [None] * 4, [0.25] * 4, 0.95, v, _rng())),
    "rolling_backtest-mc": ("mc", 1, lambda v: _backtest(mc=v)),
    "rolling_backtest-window": ("window", 10, lambda v: _backtest(window=v)),
    "rolling_backtest-horizon": ("horizon", 1, lambda v: _backtest(horizon=v)),
    "rolling_backtest-refit_every": ("refit_every", 1, lambda v: _backtest(refit_every=v)),
    "rolling_backtest-seed": ("seed", 0, lambda v: _backtest(seed=v)),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", ["fraction", "bool", "below-floor"])
def test_a_bad_count_is_refused_by_name(site, bad):
    name, least, call = SITES[site]
    value = {"fraction": 2.5, "bool": True, "below-floor": least - 1}[bad]
    with pytest.raises(ParameterError) as info:
        call(value)
    assert info.value.argument == name
    if site == "ArchimedeanCopula" and bad == "below-floor":
        # an integer below 2 is pointed at the one-variable copula instead
        assert "a one-variable copula is IndependenceCopula(1)" in str(info.value)
    else:
        assert f"{name} must be an integer >= {least}, got {value!r}" in str(info.value)


@pytest.mark.parametrize("make", [GaussianCopula, lambda corr: StudentTCopula(corr, 5.0)],
                         ids=["gaussian", "student_t"])
def test_a_one_variable_elliptical_copula_is_refused_by_name(make):
    # as for ArchimedeanCopula above: every kind points at IndependenceCopula(1)
    with pytest.raises(ParameterError) as info:
        make(np.eye(1))
    assert info.value.argument == "corr"
    assert "a one-variable copula is IndependenceCopula(1)" in str(info.value)


@pytest.mark.parametrize("site", [s for s in SITES if "backtest" not in s
                                  and s != "forecast_var"])
def test_a_numpy_count_at_its_floor_is_accepted(site):
    _, least, call = SITES[site]
    call(np.int64(least))
