"""Linear constraint systems encoding shape restrictions on coefficient functions.

Each supported shape reduces to rows of ``A beta >= b`` (plus equality rows
for fixed boundaries) acting on Bernstein coefficients. The matrices depend
only on the basis order, never on observed time points, which is what makes
the restriction hold over the whole domain rather than at grid points. Every
shape takes a ``BasisSpec``: a curve's coefficients are its ``order + 1``, a
surface's (fofr) the ``(order + 1) ** 2`` of its tensor square, stacked k1-major.

``_CATALOG`` holds one row per shape kind: its minimum order, its difference
operator, its JSON fields and what it constrains. A new kind is one row here
plus one entry in the catalog digest test (``tests/test_catalog_digest.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .errors import ConfigError, config_cast

# how far a coefficient vector may violate a constraint row and still count as
# feasible: absolute in ``check_shape``, times 1 + max|b| in the solver
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class _Kind:
    """One catalog row."""

    min_order: int  # smallest basis order for which the kind's operator exists
    target: str  # what it constrains: a "curve", the fofr "surface" or the qfosr "stack"
    diff: int | None = None  # order of its difference operator; None: a builder of its own
    sign: float = 1.0
    fields: tuple = ()  # JSON fields as (name, cast, default)


_IN_S_T = (("in_s", bool, True), ("in_t", bool, True))
_CATALOG = {
    "fixed_boundaries": _Kind(1, "curve", fields=(("a0", float, None), ("a1", float, None))),
    "non_negative": _Kind(0, "curve", diff=0),
    "non_positive": _Kind(0, "curve", diff=0, sign=-1.0),
    "non_decreasing": _Kind(1, "curve", diff=1),
    "non_increasing": _Kind(1, "curve", diff=1, sign=-1.0),
    "convex": _Kind(2, "curve", diff=2),
    "concave": _Kind(2, "curve", diff=2, sign=-1.0),
    "bivariate_monotone": _Kind(1, "surface", diff=1, fields=_IN_S_T),
    "partial_convex": _Kind(2, "surface", diff=2, fields=_IN_S_T),
    "quantile_monotone": _Kind(1, "stack", fields=(("n_predictors", int, 0),)),
}

# per target: the refusal of its shapes on a model with another target
_TARGETS = {
    "curve": "univariate shapes apply to the sofr, fosr and flcm models; "
             "the qfosr model takes them per coefficient block in 'extra_shapes'",
    "surface": "bivariate shapes apply only to the fofr model",
    "stack": "quantile monotonicity applies only to the qfosr model",
}


@dataclass(frozen=True)
class Model:
    """One model-table row; ``band`` and ``test`` say why ``projection_ci`` and the
    shape test refuse the model (empty: they serve it)."""

    target: str  # the coefficient: a "curve", the fofr "surface" or the qfosr "stack"
    response: str  # "scalar", "curve" or "quantile" (a curve that must not decrease)
    covariate: str  # "scalar", a "concurrent" or "integrated" curve, or qfosr's "scalars"
    band: str = ""
    test: str = ""
    min_order: int = 0  # the smallest basis order the model takes

    @property
    def shape_key(self) -> str:
        """The config key that carries the model's shapes."""
        return "extra_shapes" if self.target == "stack" else "shape"


# per model: a "surface" target lives on the tensor square of the model's BasisSpec;
# sofr is the one-point integrated design
MODELS = {
    "sofr": Model("curve", "scalar", "integrated"),
    "fosr": Model("curve", "curve", "scalar"),
    "flcm": Model("curve", "curve", "concurrent"),
    "fofr": Model("surface", "curve", "integrated", min_order=1,
                  band="confidence bands for bivariate coefficients are not supported"),
    "qfosr": Model("stack", "quantile", "scalars",
                   test="the functional shape test does not support qfosr"),
}


@dataclass(frozen=True)
class ShapeSpec:
    """Tagged description of one shape restriction (or a combination)."""

    kind: str
    a0: float | None = None
    a1: float | None = None
    in_s: bool = True
    in_t: bool = True
    n_predictors: int = 0
    parts: tuple = ()

    def __post_init__(self):
        if self.kind == "combination":
            if not self.parts:
                raise ConfigError("combination requires at least one part")
            if any(p.kind == "combination" for p in self.parts):
                raise ConfigError("combinations cannot be nested")
            targets = {p.target for p in self.parts}
            if {"curve", "surface"} <= targets:
                raise ConfigError("cannot mix univariate and bivariate shapes in one combination")
            if "stack" in targets:
                raise ConfigError("quantile monotonicity cannot appear inside a combination")
        else:
            if not isinstance(self.kind, str) or self.kind not in _CATALOG:
                raise ConfigError(f"unknown shape kind {self.kind!r}")
            if self.kind == "fixed_boundaries" and self.a0 is None and self.a1 is None:
                raise ConfigError("fixed_boundaries needs at least one of a0, a1")
            for name, value in (("a0", self.a0), ("a1", self.a1)):
                if value is not None and not np.isfinite(value):
                    raise ConfigError(f"fixed_boundaries needs a finite {name}, got {value!r}")
            if self.kind == "quantile_monotone" and self.n_predictors < 1:
                raise ConfigError("quantile_monotone requires at least one scalar predictor")
            if self.target == "surface" and not (self.in_s or self.in_t):
                raise ConfigError(f"{self.kind} needs at least one of in_s, in_t")

    @property
    def target(self) -> str:
        """What the shape constrains: a "curve", the fofr "surface" or the qfosr "stack"."""
        if self.kind == "combination":
            return self.parts[0].target
        return _CATALOG[self.kind].target

    def min_order(self) -> int:
        if self.kind == "combination":
            return max(p.min_order() for p in self.parts)
        return _CATALOG[self.kind].min_order

    def to_json(self) -> dict:
        if self.kind == "combination":
            return {"kind": self.kind, "parts": [p.to_json() for p in self.parts]}
        fields = _CATALOG[self.kind].fields
        return {"kind": self.kind, **{name: getattr(self, name) for name, _, _ in fields}}

    @classmethod
    def from_json(cls, obj: dict) -> "ShapeSpec":
        """The shape a ``to_json`` object describes. An absent field takes its default;
        a null stays None where that is the default, and other values are type-checked."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError("shape JSON must be an object with a 'kind' tag")
        kind = obj["kind"]
        if kind == "combination":
            parts = obj.get("parts", [])
            if not isinstance(parts, list):
                raise ConfigError("combination 'parts' must be a list of shapes")
            return cls(kind, parts=tuple(cls.from_json(p) for p in parts))
        if not isinstance(kind, str) or kind not in _CATALOG:
            raise ConfigError(f"unknown shape kind {kind!r}")
        values = {}
        for name, cast, default in _CATALOG[kind].fields:
            value = obj.get(name, default)
            if value is not None or default is not None:
                value = config_cast(value, cast, f"shape field {name!r}")
            values[name] = value
        return cls(kind, **values)


def check_model(model: str, spec=None, shape=None) -> None:
    """Refuse an unknown model, a ``spec`` that is not a BasisSpec or is below the
    model's ``min_order``, and a ``shape`` that is not the value of the model's
    ``shape_key`` (a ShapeSpec on its target, or for qfosr a mapping of coefficient
    blocks to extra curve shapes)."""
    if not isinstance(model, str) or model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from {', '.join(MODELS)}")
    row = MODELS[model]
    if spec is not None and not isinstance(spec, BasisSpec):
        raise ConfigError(f"model {model!r} needs a BasisSpec, got {type(spec).__name__}")
    if spec is not None and spec.order < row.min_order:
        raise ConfigError(f"model {model!r} needs basis order >= {row.min_order}, got {spec.order}")
    if row.shape_key == "extra_shapes" and isinstance(shape, Mapping):
        for block, extra in shape.items():
            if isinstance(block, bool) or not isinstance(block, (int, np.integer)):
                raise ConfigError(f"extra shape block {block!r} is not an integer")
            if not isinstance(extra, ShapeSpec) or extra.target != "curve":
                kind = getattr(extra, "kind", type(extra).__name__)
                raise ConfigError(f"extra shape of block {block} must be univariate, got {kind!r}")
        return
    if shape is not None and not isinstance(shape, ShapeSpec):
        raise ConfigError(f"a shape must be a ShapeSpec, got {type(shape).__name__}")
    if shape is not None and shape.target != row.target:
        raise ConfigError(_TARGETS[shape.target])
    if shape is not None and row.shape_key == "extra_shapes":
        raise ConfigError("for qfosr, shape must map coefficient blocks to extra shapes")


NON_NEGATIVE = ShapeSpec("non_negative")
NON_POSITIVE = ShapeSpec("non_positive")
NON_DECREASING = ShapeSpec("non_decreasing")
NON_INCREASING = ShapeSpec("non_increasing")
CONVEX = ShapeSpec("convex")
CONCAVE = ShapeSpec("concave")


def fixed_boundaries(a0: float | None = None, a1: float | None = None) -> ShapeSpec:
    return ShapeSpec("fixed_boundaries", a0=a0, a1=a1)


def bivariate_monotone(in_s: bool = True, in_t: bool = True) -> ShapeSpec:
    return ShapeSpec("bivariate_monotone", in_s=in_s, in_t=in_t)


def partial_convex(in_s: bool = True, in_t: bool = True) -> ShapeSpec:
    return ShapeSpec("partial_convex", in_s=in_s, in_t=in_t)


def quantile_monotone(n_predictors: int) -> ShapeSpec:
    return ShapeSpec("quantile_monotone", n_predictors=n_predictors)


def combination(*parts: ShapeSpec) -> ShapeSpec:
    return ShapeSpec("combination", parts=tuple(parts))


@dataclass
class ConstraintSystem:
    """Rows of ``a @ beta >= b``; rows flagged in ``equality`` hold with equality."""

    a: np.ndarray
    b: np.ndarray
    equality: np.ndarray = field(default=None)

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        eq = np.zeros(self.a.shape[0]) if self.equality is None else self.equality
        self.equality = np.asarray(eq, dtype=bool).ravel()
        if self.a.shape[0] != self.b.size or self.a.shape[0] != self.equality.size:
            raise ValueError("constraint rows, rhs, and equality flags must align")
        if self.a.size and not np.abs(self.a).max(axis=1).all():
            raise ValueError("constraint matrix contains an all-zero row")

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def coef_len(self) -> int:
        return self.a.shape[1]

    def padded(self, offset: int, total: int) -> "ConstraintSystem":
        """Embed the system into a longer coefficient vector at ``offset``."""
        if offset < 0 or offset + self.coef_len > total:
            raise ValueError("padding does not fit the target coefficient length")
        a = np.zeros((self.n_rows, total))
        a[:, offset : offset + self.coef_len] = self.a
        return ConstraintSystem(a, self.b.copy(), self.equality.copy())

    def violations(self, beta: np.ndarray) -> np.ndarray:
        """Per-row violation: b - A beta for inequalities, |A beta - b| for equalities.

        ``beta`` may also be a block with one coefficient vector per row; the
        violations then have one row per vector.
        """
        beta = np.asarray(beta, dtype=float)
        length = beta.shape[-1] if beta.ndim in (1, 2) else beta.size
        if length != self.coef_len or beta.ndim not in (1, 2):
            raise ValueError(
                f"coefficient length {length} does not match constraints ({self.coef_len})"
            )
        resid = beta @ self.a.T - self.b
        return np.where(self.equality, np.abs(resid), -resid)

    @staticmethod
    def vstack(systems: list["ConstraintSystem"]) -> "ConstraintSystem":
        systems = [s for s in systems if s.n_rows > 0]
        if not systems:
            raise ValueError("nothing to stack")
        width = systems[0].coef_len
        if any(s.coef_len != width for s in systems):
            raise ValueError("constraint systems act on different coefficient lengths")
        return ConstraintSystem(
            np.vstack([s.a for s in systems]),
            np.concatenate([s.b for s in systems]),
            np.concatenate([s.equality for s in systems]),
        )

    def dedup(self) -> "ConstraintSystem":
        """Drop exactly repeated rows (same coefficients, rhs, and equality flag)."""
        keys = zip(map(np.ndarray.tobytes, self.a), self.b.tolist(), self.equality.tolist())
        # filled back to front, so each key ends up holding its first row
        keep = sorted({key: i for i, key in reversed(list(enumerate(keys)))}.values())
        return ConstraintSystem(self.a[keep], self.b[keep], self.equality[keep])


@dataclass(frozen=True)
class ShapeReport:
    """Outcome of checking a coefficient vector against a shape."""

    feasible: bool
    worst_violation: float
    violated_rows: np.ndarray


def _difference(order: int, sign: float = 1.0, k: int = 1) -> np.ndarray:
    """``sign`` times the k-th difference operator on ``order + 1`` coefficients."""
    return sign * np.diff(np.eye(order + 1), n=k, axis=0)


def _require_order(shape_kind: str, order: int) -> None:
    needed = _CATALOG[shape_kind].min_order
    if order < needed:
        raise ConfigError(f"shape {shape_kind!r} needs basis order >= {needed}, got {order}")


def build_quantile_monotone(n_predictors: int, spec: BasisSpec) -> ConstraintSystem:
    """Vertex conditions guaranteeing non-decreasing predicted quantile functions.

    With coefficient blocks (beta_0, ..., beta_J) stacked for an intercept
    function and J predictor functions (predictors rescaled to [0, 1]),
    the derivative of the predicted curve is non-negative everywhere iff it is
    non-negative at every vertex of the predictor hypercube. Each row encodes
    the k-th derivative coefficient of one vertex combination, expressed via
    first differences of the original coefficients (scaled by the order,
    which does not change the constraint set).
    """
    j_count = int(n_predictors)
    if j_count < 1:
        raise ConfigError("quantile monotonicity needs at least one predictor")
    if j_count > 20:
        raise ConfigError(
            "quantile monotonicity with more than 20 predictors is refused "
            f"(2^{j_count} vertex rows); prune the constraint set first"
        )
    order = spec.order
    _require_order("quantile_monotone", order)
    gamma_op = order * _difference(order)  # rows: derivative coefficients of one block
    # vertex v of the hypercube adds block j + 1 to block 0 for each bit j set in v
    v = np.arange(1 << j_count)[:, None]
    vertex = (2 * v + 1) >> np.arange(j_count + 1) & 1
    rows = np.where(vertex[None, :, :, None], gamma_op[:, None, None, :], 0.0)
    rows = rows.reshape(order << j_count, -1)
    return ConstraintSystem(rows, np.zeros(rows.shape[0]))


def qfosr_constraints(spec: BasisSpec, n_predictors: int, extra_shapes=None) -> ConstraintSystem:
    """Monotonicity system of qfosr's stack plus any per-block extra curve shapes, deduplicated."""
    p_block = spec.n_coefs
    total = p_block * (n_predictors + 1)
    systems = [build_quantile_monotone(n_predictors, spec)]
    for block, shape in (extra_shapes or {}).items():
        if not 0 <= block <= n_predictors:
            raise ConfigError(f"extra shape block {block} is outside 0..{n_predictors}")
        systems.append(build_constraints(shape, spec).padded(block * p_block, total))
    return ConstraintSystem.vstack(systems).dedup()


def build_constraints(shape: ShapeSpec, spec: BasisSpec) -> ConstraintSystem:
    """Constraint system for ``shape`` on the coefficients of ``spec``, or of its
    tensor square when the shape constrains a surface."""
    if shape.kind == "combination":
        built = [build_constraints(part, spec) for part in shape.parts]
        return ConstraintSystem.vstack(built).dedup()
    row = _CATALOG[shape.kind]
    if not isinstance(spec, BasisSpec):
        raise ConfigError(f"shape {shape.kind!r} needs a BasisSpec, got {type(spec).__name__}")
    if shape.kind == "quantile_monotone":
        return build_quantile_monotone(shape.n_predictors, spec)
    _require_order(shape.kind, spec.order)
    if shape.kind == "fixed_boundaries":
        ends = [(i, v) for i, v in ((0, shape.a0), (spec.order, shape.a1)) if v is not None]
        a = np.eye(spec.order + 1)[[i for i, _ in ends]]
        return ConstraintSystem(a, [v for _, v in ends], np.ones(len(ends), dtype=bool))
    a = _difference(spec.order, row.sign, row.diff)
    if row.target == "surface":
        eye = np.eye(spec.order + 1)
        # coefficients are k1-major, so differences along s act blockwise
        a = np.vstack([np.kron(a, eye)] * shape.in_s + [np.kron(eye, a)] * shape.in_t)
    return ConstraintSystem(a, np.zeros(a.shape[0]))


def check_shape(beta, shape: ShapeSpec, spec) -> ShapeReport:
    """Certify a coefficient vector against the shape's constraint system on ``spec``.

    Because the constraints are sufficient conditions on coefficients, a
    feasible report certifies the shape everywhere on the domain, not only
    at evaluation points. A row counts as violated beyond ``FEASIBILITY_TOL``.
    """
    viol = build_constraints(shape, spec).violations(np.asarray(beta, dtype=float).ravel())
    bad = np.flatnonzero(viol > FEASIBILITY_TOL)
    worst = float(max(0.0, viol.max())) if viol.size else 0.0
    return ShapeReport(feasible=bad.size == 0, worst_violation=worst, violated_rows=bad)
