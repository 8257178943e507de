"""Bitwise digest of the scalar-on-function design and band.

Each group hashes the raw bytes of what one call returns: the SOFR design's
``z`` and ``y`` with its ``n_free`` (dense covariates and sparse ones
completed by ``reconstruct_sparse``, each with and without scalar
confounders) and the lower and upper curves of the SOFR ``projection_ci``
band with and without a shape. Unlike ``tests/test_model_digest.py`` nothing
is rounded: a refactor of how the SOFR design is built must give the same
bits. The data errors of a SOFR dataset without a scalar response, without
curves or with incomplete curves are checked word for word.

``python tests/test_sofr_digest.py`` prints the current digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from bernfit import (
    NON_NEGATIVE,
    BasisSpec,
    DataError,
    ScenarioSpec,
    bootstrap_shape_test,
    fit_sofr,
    generate_scenario,
    projection_ci,
    reconstruct_sparse,
)
from bernfit.functional import build_design
from bernfit.sofr import sofr_design_matrix


def _datasets() -> dict:
    dense = generate_scenario(ScenarioSpec("A", n=40, seed=1, m=30), 0)
    rng = np.random.default_rng(11)
    confounders = rng.standard_normal((dense.n_subjects, 2))
    x = dense.x_curves.copy()
    # every subject keeps its first and last points and about half of the rest
    x[:, 1:-1][rng.uniform(size=(x.shape[0], x.shape[1] - 2)) < 0.5] = np.nan
    sparse = replace(dense, x_curves=x)
    completed = reconstruct_sparse(sparse)
    out = {}
    for name, data in (("dense", dense), ("sparse", sparse), ("completed", completed)):
        out[name] = data
        out[f"{name}-z"] = replace(data, z_scalars=confounders)
    return out


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


def _groups(d: dict) -> dict:
    spec = BasisSpec(4)
    groups = {}
    for name in ("dense", "dense-z", "completed", "completed-z"):
        design = sofr_design_matrix(d[name], spec)
        rows = design.rows()
        shape = json.dumps([list(rows.shape), design.n_free]).encode()
        groups[f"design-{name}"] = shape + _bytes(rows, design.y)
    for name, shape in (("ci-plain", None), ("ci-non_negative", NON_NEGATIVE)):
        band = projection_ci(d["dense"], "sofr", spec, shape, draws=100, seed=5)
        groups[name] = _bytes(band.grid, band.lower, band.upper)
    band = projection_ci(d["completed-z"], "sofr", spec, NON_NEGATIVE, draws=100, seed=5)
    groups["ci-completed-z"] = _bytes(band.grid, band.lower, band.upper)
    return groups


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(record).hexdigest()[:16]
        for name, record in _groups(_datasets()).items()
    }


EXPECTED = {
    "ci-completed-z": "81ec3f6d5281ee41",
    "ci-non_negative": "19343d430978df6c",
    "ci-plain": "e151cb74d4e3ecbc",
    "design-completed": "a23475169b97d069",
    "design-completed-z": "937cd1097f4b5b69",
    "design-dense": "5abb01f15f189a1c",
    "design-dense-z": "cda069e9f9dac9ee",
}


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("group", sorted(EXPECTED))
def test_sofr_output_matches_digest(current, group):
    assert current[group] == EXPECTED[group]


def test_every_group_has_a_digest(current):
    assert sorted(current) == sorted(EXPECTED)


_CALLS = {
    "build_design": lambda data: build_design(data, "sofr", BasisSpec(3)),
    "sofr_design_matrix": lambda data: sofr_design_matrix(data, BasisSpec(3)),
    "fit_sofr": lambda data: fit_sofr(data, BasisSpec(3)),
    "projection_ci": lambda data: projection_ci(data, "sofr", BasisSpec(3), draws=100),
    "bootstrap_shape_test": lambda data: bootstrap_shape_test(
        data, "sofr", BasisSpec(3), NON_NEGATIVE, draws=100
    ),
}


@pytest.mark.parametrize(
    "missing, message",
    [
        ("y_scalar", "scalar-on-function regression needs a scalar response"),
        ("x_curves", "scalar-on-function regression needs functional covariates"),
        ("both", "scalar-on-function regression needs functional covariates"),
    ],
)
@pytest.mark.parametrize("entry", sorted(_CALLS))
def test_sofr_data_errors_word_for_word(entry, missing, message):
    data = generate_scenario(ScenarioSpec("A", n=20, seed=1, m=30), 0)
    fields = ("y_scalar", "x_curves") if missing == "both" else (missing,)
    data = replace(data, **dict.fromkeys(fields))
    with pytest.raises(DataError) as info:
        _CALLS[entry](data)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["sparse", "sparse-z"])
@pytest.mark.parametrize("entry", sorted(_CALLS))
def test_incomplete_curves_refused_word_for_word(entry, name):
    """The integral runs over the whole domain, so sparse curves are completed
    first, as for fofr; nothing integrates over a subject's observed points."""
    data = _datasets()[name]
    first = data.ids[int(np.argmax(~np.isfinite(data.x_curves).all(axis=1)))]
    with pytest.raises(DataError) as info:
        _CALLS[entry](data)
    assert str(info.value) == (
        f"subject {first}: sofr needs complete covariate curves; complete the curves first"
    )


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4, sort_keys=True))
