"""Every entry point that takes a model refuses a model it cannot serve.

One case per entry point, model and kind of mistake: an unknown model, a
basis spec of the wrong kind, a shape that constrains another target than
the model's coefficient, and an operation the entry point does not offer for
the model. Each must raise ConfigError with the message of ``check_model``
or of the operation's refusal. The data is None throughout, so every refusal
must come before the data is touched.
"""

from __future__ import annotations

import pytest

from bernfit import (
    NON_INCREASING,
    BasisSpec,
    ConfigError,
    TensorBasisSpec,
    bivariate_monotone,
    bootstrap_shape_test,
    bootstrap_shape_test_functional,
    bootstrap_shape_test_scalar,
    cv_select_order,
    fit_functional,
    fit_qfosr,
    fit_sofr,
    projection_ci,
    qfosr_projection_ci,
    quantile_monotone,
)
from bernfit.constraints import MODELS, check_model

# entry point: (models it takes, call with (model, spec, shape), takes a spec, takes a shape)
_ENTRY_POINTS = {
    "fit_sofr": (("sofr",), lambda m, spec, shape: fit_sofr(None, spec, shape), True, True),
    "fit_functional": (
        tuple(MODELS), lambda m, spec, shape: fit_functional(None, m, spec, shape), True, True
    ),
    "fit_qfosr": (("qfosr",), lambda m, spec, shape: fit_qfosr(None, spec), True, False),
    "projection_ci": (
        tuple(MODELS),
        lambda m, spec, shape: projection_ci(None, m, spec, shape, draws=100),
        True, True,
    ),
    "qfosr_projection_ci": (
        ("qfosr",), lambda m, spec, shape: qfosr_projection_ci(None, spec, 1), True, False
    ),
    "bootstrap_shape_test": (
        tuple(MODELS),
        lambda m, spec, shape: bootstrap_shape_test(None, m, spec, shape, draws=100),
        True, True,
    ),
    "bootstrap_shape_test_scalar": (
        ("sofr",),
        lambda m, spec, shape: bootstrap_shape_test_scalar(None, spec, shape, draws=100),
        True, True,
    ),
    "bootstrap_shape_test_functional": (
        tuple(MODELS),
        lambda m, spec, shape: bootstrap_shape_test_functional(None, m, spec, shape, draws=100),
        True, True,
    ),
    "cv_select_order": (
        tuple(MODELS),
        lambda m, spec, shape: cv_select_order(None, m, shape, candidates=[2], folds=2),
        False, True,
    ),
}

_SPEC = {model: check_model(model)(2) for model in MODELS}
_WRONG_SPEC = {
    model: (BasisSpec if isinstance(spec, TensorBasisSpec) else TensorBasisSpec)(2)
    for model, spec in _SPEC.items()
}
# a shape valid in itself whose target is not the model's coefficient
_OTHER_TARGET = {
    "sofr": (quantile_monotone(1), "quantile monotonicity applies only to the qfosr model"),
    "fosr": (bivariate_monotone(), "bivariate shapes apply only to the fofr model"),
    "flcm": (quantile_monotone(1), "quantile monotonicity applies only to the qfosr model"),
    "fofr": (NON_INCREASING, "univariate shapes apply to the sofr, fosr and flcm models"),
    "qfosr": (NON_INCREASING, "univariate shapes apply to the sofr, fosr and flcm models"),
}
# a shape the model takes, for the calls that need one
_OWN_SHAPE = {"fofr": bivariate_monotone(), "qfosr": quantile_monotone(1)}
# (entry point, model): the message of the operation's refusal
_UNSUPPORTED = {
    ("fit_functional", "sofr"): "fit_functional does not fit sofr; use fit_sofr",
    ("fit_functional", "qfosr"): "fit_functional does not fit qfosr; use fit_qfosr",
    ("projection_ci", "fofr"): "confidence bands for bivariate coefficients are not supported",
    ("projection_ci", "qfosr"): "projection_ci does not band qfosr; use qfosr_projection_ci",
    ("bootstrap_shape_test", "qfosr"): "shape test does not support qfosr",
    ("bootstrap_shape_test_functional", "sofr"): "shape test does not support sofr",
    ("bootstrap_shape_test_functional", "qfosr"): "shape test does not support qfosr",
}


def _cases():
    for entry, (models, _, takes_spec, takes_shape) in _ENTRY_POINTS.items():
        if len(models) > 1:
            yield entry, "spline", "unknown", (_SPEC["flcm"], None), "unknown model 'spline'"
        for model in models:
            spec, shape = _SPEC[model], _OWN_SHAPE.get(model, NON_INCREASING)
            if takes_spec:
                wrong = _WRONG_SPEC[model]
                message = f"model '{model}' needs a {type(spec).__name__}"
                yield entry, model, "wrong_spec", (wrong, shape), message
            if takes_shape:
                other, message = _OTHER_TARGET[model]
                yield entry, model, "other_target", (spec, other), message
            if (entry, model) in _UNSUPPORTED:
                yield entry, model, "unsupported", (spec, shape), _UNSUPPORTED[entry, model]


_CASES = list(_cases())


@pytest.mark.parametrize(
    "entry, model, mistake, args, message",
    _CASES,
    ids=[f"{entry}-{model}-{mistake}" for entry, model, mistake, _, _ in _CASES],
)
def test_entry_point_refuses_before_touching_data(entry, model, mistake, args, message):
    call = _ENTRY_POINTS[entry][1]
    with pytest.raises(ConfigError) as info:
        call(model, *args)
    assert message in str(info.value)


def test_every_mistake_kind_is_covered():
    kinds = {mistake for _, _, mistake, _, _ in _CASES}
    assert kinds == {"unknown", "wrong_spec", "other_target", "unsupported"}
    assert {entry for entry, *_ in _CASES} == set(_ENTRY_POINTS)


@pytest.mark.parametrize("model", [None, 3, ["flcm"], "FLCM", ""])
def test_check_model_refuses_what_is_not_a_model_name(model):
    with pytest.raises(ConfigError, match="unknown model"):
        check_model(model)
