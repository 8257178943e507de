"""Every entry point that takes a model refuses a model it cannot serve.

One case per entry point, model and kind of mistake: an unknown model, a
basis spec that is not a BasisSpec, a basis order below the model's minimum
(fofr's surface), a shape that constrains another target than
the model's coefficient, a mapping of shapes where a shape is due, for qfosr
a shape where its mapping of extra shapes is due, a mapping with a shape
that is not a curve's and one with a block key that is not an integer, an
operation the entry point does not offer for the model, and fewer than 100
band or bootstrap draws (or a draw count or seed that is not an integer). Each
must raise ConfigError with the message of ``check_model``, of the operation's
refusal or of the draw count. The data is None throughout, so every refusal must come
before the data is touched. The entry points that serve a model it once
refused are run on data at the end.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from bernfit import (
    NON_INCREASING,
    NON_NEGATIVE,
    BasisSpec,
    ConfigError,
    FunctionalDataset,
    Grid,
    ScenarioSpec,
    bivariate_monotone,
    bootstrap_shape_test,
    bootstrap_shape_test_functional,
    bootstrap_shape_test_scalar,
    cv_select_order,
    fit_functional,
    fit_qfosr,
    fit_sofr,
    generate_scenario,
    projection_ci,
    qfosr_projection_ci,
    quantile_monotone,
)
from bernfit.constraints import MODELS, check_model

# entry point: (models it takes, call with (model, spec, shape, draws), takes a spec,
# takes a shape, takes draws)
_ENTRY_POINTS = {
    "fit_sofr": (("sofr",), lambda m, spec, shape, d: fit_sofr(None, spec, shape), True, True, False),
    "fit_functional": (
        tuple(MODELS), lambda m, spec, shape, d: fit_functional(None, m, spec, shape),
        True, True, False,
    ),
    "fit_qfosr": (
        ("qfosr",), lambda m, spec, shape, d: fit_qfosr(None, spec, shape), True, True, False
    ),
    "projection_ci": (
        tuple(MODELS),
        lambda m, spec, shape, d: projection_ci(None, m, spec, shape, draws=d),
        True, True, True,
    ),
    "qfosr_projection_ci": (
        ("qfosr",),
        lambda m, spec, shape, d: qfosr_projection_ci(
            None, spec, 1, draws=d, extra_shapes=shape
        ),
        True, True, True,
    ),
    "bootstrap_shape_test": (
        tuple(MODELS),
        lambda m, spec, shape, d: bootstrap_shape_test(None, m, spec, shape, draws=d),
        True, True, True,
    ),
    "bootstrap_shape_test_scalar": (
        ("sofr",),
        lambda m, spec, shape, d: bootstrap_shape_test_scalar(None, spec, shape, draws=d),
        True, True, True,
    ),
    "bootstrap_shape_test_functional": (
        tuple(MODELS),
        lambda m, spec, shape, d: bootstrap_shape_test_functional(None, m, spec, shape, draws=d),
        True, True, True,
    ),
    "cv_select_order": (
        tuple(MODELS),
        lambda m, spec, shape, d: cv_select_order(None, m, shape, candidates=[2], folds=2),
        False, True, False,
    ),
}

_SPEC = BasisSpec(2)
# a basis spec that is not a BasisSpec
_WRONG_SPEC = 2
# a shape valid in itself whose target is not the model's coefficient
_OTHER_TARGET = {
    "sofr": (quantile_monotone(1), "quantile monotonicity applies only to the qfosr model"),
    "fosr": (bivariate_monotone(), "bivariate shapes apply only to the fofr model"),
    "flcm": (quantile_monotone(1), "quantile monotonicity applies only to the qfosr model"),
    "fofr": (NON_INCREASING, "univariate shapes apply to the sofr, fosr and flcm models"),
    "qfosr": (NON_INCREASING, "univariate shapes apply to the sofr, fosr and flcm models"),
}
# a mapping of coefficient blocks to shapes is the qfosr extra-shapes form, which is
# qfosr's shape and no other model's
_SHAPE_MAPPING = {1: NON_INCREASING}
# a shape the model takes, for the calls that need one
_OWN_SHAPE = {"fofr": bivariate_monotone(), "qfosr": _SHAPE_MAPPING}
# qfosr's mistakes of its own: a shape where the mapping is due, a mapping with a
# surface, a mapping whose block key is not an integer
_MAPPING_MISTAKES = {
    "shape_for_mapping": (
        quantile_monotone(1), "for qfosr, shape must map coefficient blocks to extra shapes"
    ),
    "mapping_other_target": (
        {1: bivariate_monotone()}, "extra shape of block 1 must be univariate"
    ),
    "mapping_float_key": ({1.7: NON_INCREASING}, "extra shape block 1.7 is not an integer"),
    "mapping_bool_key": ({True: NON_INCREASING}, "extra shape block True is not an integer"),
}
# (entry point, model): the message of the operation's refusal
_UNSUPPORTED = {
    ("projection_ci", "fofr"): "confidence bands for bivariate coefficients are not supported",
    ("bootstrap_shape_test", "qfosr"): "shape test does not support qfosr",
    ("bootstrap_shape_test_functional", "qfosr"): "shape test does not support qfosr",
}


def _cases():
    for entry, (models, _, takes_spec, takes_shape, takes_draws) in _ENTRY_POINTS.items():
        if len(models) > 1:
            yield entry, "spline", "unknown", (_SPEC, None), "unknown model 'spline'"
        for model in models:
            spec, shape = _SPEC, _OWN_SHAPE.get(model, NON_INCREASING)
            if takes_spec:
                message = f"model '{model}' needs a BasisSpec, got int"
                yield entry, model, "wrong_spec", (_WRONG_SPEC, shape), message
            floor = MODELS[model].min_order
            if takes_spec and floor:
                message = f"model '{model}' needs basis order >= {floor}, got {floor - 1}"
                yield entry, model, "low_order", (BasisSpec(floor - 1), shape), message
            if takes_shape:
                other, message = _OTHER_TARGET[model]
                yield entry, model, "other_target", (spec, other), message
                if MODELS[model].shape_key == "shape":
                    message = "a shape must be a ShapeSpec, got dict"
                    yield entry, model, "shape_mapping", (spec, _SHAPE_MAPPING), message
                else:
                    for mistake, (wrong, message) in _MAPPING_MISTAKES.items():
                        yield entry, model, mistake, (spec, wrong), message
            if (entry, model) in _UNSUPPORTED:
                yield entry, model, "unsupported", (spec, shape), _UNSUPPORTED[entry, model]
            elif takes_draws:
                yield entry, model, "few_draws", (spec, shape, 50), "use at least 100"


_CASES = list(_cases())


@pytest.mark.parametrize(
    "entry, model, mistake, args, message",
    _CASES,
    ids=[f"{entry}-{model}-{mistake}" for entry, model, mistake, _, _ in _CASES],
)
def test_entry_point_refuses_before_touching_data(entry, model, mistake, args, message):
    call = _ENTRY_POINTS[entry][1]
    spec, shape, *draws = args
    with pytest.raises(ConfigError) as info:
        call(model, spec, shape, *draws or [100])
    assert message in str(info.value)


def test_every_mistake_kind_is_covered():
    kinds = {mistake for _, _, mistake, _, _ in _CASES}
    assert kinds == {
        "unknown", "wrong_spec", "low_order", "other_target", "shape_mapping", "unsupported",
        "few_draws",
        *_MAPPING_MISTAKES,
    }
    assert {entry for entry, *_ in _CASES} == set(_ENTRY_POINTS)


# (keyword, value): a draw count or seed that is not an integer; either once ended
# in a bare TypeError, and a bool seed was echoed in the record
_NOT_INTEGERS = [("draws", 150.0), ("draws", True), ("seed", 1.5), ("seed", np.float64(2)),
                 ("seed", True)]


@pytest.mark.parametrize("entry", [projection_ci, bootstrap_shape_test],
                         ids=["projection_ci", "bootstrap_shape_test"])
@pytest.mark.parametrize("keyword, value", _NOT_INTEGERS,
                         ids=[f"{k}={v!r}" for k, v in _NOT_INTEGERS])
def test_draws_and_seed_must_be_integers(entry, keyword, value):
    message = f"{keyword} must be an integer, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        entry(None, "flcm", _SPEC, NON_INCREASING, **{keyword: value})


def _quantile_data():
    rng = np.random.default_rng(3)
    pts = np.linspace(0.0, 1.0, 12)
    z = rng.uniform(0.0, 1.0, size=(30, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    return FunctionalDataset(grid=Grid(pts), ids=list(range(30)), y_curves=q, z_scalars=z)


# (entry point, model) pairs refused before one fit path and one bootstrap test
# served every model, each with a call on data that now runs
_NOW_SERVED = {
    ("fit_functional", "sofr"): lambda: fit_functional(
        generate_scenario(ScenarioSpec("A", n=20, seed=1), 0), "sofr", BasisSpec(3), NON_NEGATIVE
    ).predict(generate_scenario(ScenarioSpec("A", n=20, seed=1), 1)),
    ("fit_functional", "qfosr"): lambda: fit_functional(
        _quantile_data(), "qfosr", BasisSpec(3), _SHAPE_MAPPING
    ).predict(_quantile_data()),
    ("bootstrap_shape_test_functional", "sofr"): lambda: bootstrap_shape_test_functional(
        generate_scenario(ScenarioSpec("A", n=20, seed=1), 0), "sofr", BasisSpec(3), NON_NEGATIVE,
        draws=100,
    ).bootstrap_stats,
    ("projection_ci", "qfosr"): lambda: projection_ci(
        _quantile_data(), "qfosr", BasisSpec(3), _SHAPE_MAPPING, draws=100, block=2
    ).lower,
}


@pytest.mark.parametrize("entry, model", sorted(_NOW_SERVED))
def test_entry_point_serves_model_it_once_refused(entry, model):
    assert (entry, model) not in _UNSUPPORTED
    # the pair still takes its part of the refusal matrix
    kinds = {kind for e, m, kind, _, _ in _CASES if (e, m) == (entry, model)}
    assert {"wrong_spec", "other_target"} <= kinds
    assert np.isfinite(_NOW_SERVED[entry, model]()).all()


@pytest.mark.parametrize("model", [None, 3, ["flcm"], "FLCM", ""])
def test_check_model_refuses_what_is_not_a_model_name(model):
    with pytest.raises(ConfigError, match="unknown model"):
        check_model(model)
