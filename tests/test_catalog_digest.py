"""Bitwise digest of the shape catalog's output.

Every constraint system the catalog builds (each kind and combination at
orders 0-12, each ``in_s``/``in_t`` setting, ``build_quantile_monotone`` for
J = 1-5), every ``to_json`` output, every ``from_json`` result and the type
and message of every refused case are hashed group by group. A refactor of
``bernfit.constraints`` must leave each digest unchanged; a deliberate change
to what a kind builds updates its entry here. A new kind adds one entry.

``python tests/test_catalog_digest.py`` prints the current digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from bernfit import BasisSpec, ShapeSpec, TensorBasisSpec, build_constraints, build_quantile_monotone

ORDERS = range(13)
FLAGS = [(True, True), (True, False), (False, True)]

_UNIVARIATE = {
    "non_negative": [ShapeSpec("non_negative")],
    "non_positive": [ShapeSpec("non_positive")],
    "non_decreasing": [ShapeSpec("non_decreasing")],
    "non_increasing": [ShapeSpec("non_increasing")],
    "convex": [ShapeSpec("convex")],
    "concave": [ShapeSpec("concave")],
    "fixed_boundaries": [
        ShapeSpec("fixed_boundaries", a0=1.5),
        ShapeSpec("fixed_boundaries", a1=-2.0),
        ShapeSpec("fixed_boundaries", a0=1.5, a1=-2.0),
    ],
}
_BIVARIATE = {
    kind: [ShapeSpec(kind, in_s=s, in_t=t) for s, t in FLAGS]
    for kind in ("bivariate_monotone", "partial_convex")
}
_QUANTILE = [ShapeSpec("quantile_monotone", n_predictors=j) for j in range(1, 6)]

_INVALID_SPECS = [
    dict(kind="spiral"),
    dict(kind="combination"),
    dict(kind="combination", parts=(ShapeSpec("combination", parts=(ShapeSpec("convex"),)),)),
    dict(kind="combination", parts=(ShapeSpec("convex"), ShapeSpec("bivariate_monotone"))),
    dict(kind="combination", parts=(ShapeSpec("quantile_monotone", n_predictors=1),)),
    dict(kind="fixed_boundaries"),
    dict(kind="quantile_monotone"),
    dict(kind="bivariate_monotone", in_s=False, in_t=False),
    dict(kind="partial_convex", in_s=False, in_t=False),
]

_JSON_INPUTS = [
    {"kind": "non_negative"},
    {"kind": "concave", "a0": 1.0},
    {"kind": "fixed_boundaries", "a0": 1, "a1": None},
    {"kind": "fixed_boundaries", "a0": "x"},
    {"kind": "fixed_boundaries"},
    {"kind": "bivariate_monotone", "in_s": False},
    {"kind": "partial_convex", "in_t": 1},
    {"kind": "quantile_monotone", "n_predictors": 3},
    {"kind": "quantile_monotone", "n_predictors": "x"},
    {"kind": "combination", "parts": [{"kind": "convex"}, {"kind": "non_negative"}]},
    {"kind": "combination"},
    {"kind": "spiral"},
    {"type": "convex"},
    [{"kind": "convex"}],
]


def _outcome(call) -> str:
    try:
        result = call()
    except Exception as exc:  # the refusal itself is part of the digest
        return f"raises {type(exc).__name__}: {exc}"
    if isinstance(result, ShapeSpec):
        return f"spec {result!r}"
    a, b, eq = result.a, result.b, result.equality
    return "system " + " ".join(
        f"{x.dtype}{x.shape}:{hashlib.sha256(x.tobytes()).hexdigest()}" for x in (a, b, eq)
    )


def _build(shape, spec_cls, order):
    return _outcome(lambda: build_constraints(shape, spec_cls(order)))


def _shape_records(shapes) -> list[str]:
    records = []
    for shape in shapes:
        records.append(json.dumps(shape.to_json(), sort_keys=True))
        for order in ORDERS:
            records.append(_build(shape, BasisSpec, order))
            records.append(_build(shape, TensorBasisSpec, order))
    return records


def _groups() -> dict[str, list[str]]:
    groups = {kind: _shape_records(shapes) for kind, shapes in {**_UNIVARIATE, **_BIVARIATE}.items()}
    groups["quantile_monotone"] = _shape_records(_QUANTILE) + [
        _outcome(lambda: build_quantile_monotone(j, BasisSpec(order)))
        for j in (0, *range(1, 6), 21)
        for order in ORDERS
    ]
    univariate = [s for shapes in _UNIVARIATE.values() for s in shapes]
    bivariate = [s for shapes in _BIVARIATE.values() for s in shapes]
    pairs = itertools.chain(
        itertools.product(univariate, repeat=2), itertools.product(bivariate, repeat=2)
    )
    groups["combination"] = _shape_records(ShapeSpec("combination", parts=p) for p in pairs)
    groups["invalid"] = [_outcome(lambda kw=kw: ShapeSpec(**kw)) for kw in _INVALID_SPECS]
    groups["json"] = [_outcome(lambda obj=obj: ShapeSpec.from_json(obj)) for obj in _JSON_INPUTS]
    return groups


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
        for name, records in _groups().items()
    }


EXPECTED = {
    "bivariate_monotone": "206cf95bbf94ddbb",
    "combination": "1c3dc50b18720160",
    "concave": "c496fd093936c4c3",
    "convex": "de984a02c07d468e",
    "fixed_boundaries": "52d73c5472de611b",
    "invalid": "a99829b4e3c96b6d",
    "json": "8fc2f7f9d36eace8",
    "non_decreasing": "53107858992e58d9",
    "non_increasing": "f27fdd073b39f095",
    "non_negative": "723dc4d1b5f70984",
    "non_positive": "9a2cf6aeaa2fcdca",
    "partial_convex": "6f369c42df50e168",
    "quantile_monotone": "0fbdf93d31b6a000",
}


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("group", sorted(EXPECTED))
def test_catalog_output_matches_digest(current, group):
    assert current[group] == EXPECTED[group]


def test_every_group_has_a_digest(current):
    assert sorted(current) == sorted(EXPECTED)


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4, sort_keys=True))
