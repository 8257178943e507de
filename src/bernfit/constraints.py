"""Linear constraint systems encoding shape restrictions on coefficient functions.

Each supported shape reduces to rows of ``A beta >= b`` (plus equality rows
for fixed boundaries) acting on Bernstein coefficients. The matrices depend
only on the basis order, never on observed time points, which is what makes
the restriction hold over the whole domain rather than at grid points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, TensorBasisSpec
from .errors import ConfigError

UNIVARIATE_KINDS = frozenset(
    {
        "fixed_boundaries",
        "non_negative",
        "non_positive",
        "non_decreasing",
        "non_increasing",
        "convex",
        "concave",
    }
)
BIVARIATE_KINDS = frozenset({"bivariate_monotone", "partial_convex"})
ALL_KINDS = UNIVARIATE_KINDS | BIVARIATE_KINDS | {"quantile_monotone", "combination"}

# smallest basis order for which the shape's difference operator exists
_MIN_ORDER = {
    "fixed_boundaries": 1,
    "non_negative": 0,
    "non_positive": 0,
    "non_decreasing": 1,
    "non_increasing": 1,
    "convex": 2,
    "concave": 2,
    "bivariate_monotone": 1,
    "partial_convex": 2,
    "quantile_monotone": 1,
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
        if self.kind not in ALL_KINDS:
            raise ConfigError(f"unknown shape kind {self.kind!r}")
        if self.kind == "combination":
            if not self.parts:
                raise ConfigError("combination requires at least one part")
            part_kinds = {p.kind for p in self.parts}
            if "combination" in part_kinds:
                raise ConfigError("combinations cannot be nested")
            uni = part_kinds & UNIVARIATE_KINDS
            biv = part_kinds & BIVARIATE_KINDS
            if uni and biv:
                raise ConfigError("cannot mix univariate and bivariate shapes in one combination")
            if "quantile_monotone" in part_kinds:
                raise ConfigError("quantile monotonicity cannot appear inside a combination")
        if self.kind == "fixed_boundaries" and self.a0 is None and self.a1 is None:
            raise ConfigError("fixed_boundaries needs at least one of a0, a1")
        if self.kind == "quantile_monotone" and self.n_predictors < 1:
            raise ConfigError("quantile_monotone requires at least one scalar predictor")
        if self.kind in BIVARIATE_KINDS and not (self.in_s or self.in_t):
            raise ConfigError(f"{self.kind} needs at least one of in_s, in_t")

    @property
    def bivariate(self) -> bool:
        if self.kind == "combination":
            return self.parts[0].bivariate
        return self.kind in BIVARIATE_KINDS

    def min_order(self) -> int:
        if self.kind == "combination":
            return max(p.min_order() for p in self.parts)
        return _MIN_ORDER[self.kind]

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == "fixed_boundaries":
            obj["a0"] = self.a0
            obj["a1"] = self.a1
        elif self.kind in BIVARIATE_KINDS:
            obj["in_s"] = self.in_s
            obj["in_t"] = self.in_t
        elif self.kind == "quantile_monotone":
            obj["n_predictors"] = self.n_predictors
        elif self.kind == "combination":
            obj["parts"] = [p.to_json() for p in self.parts]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ShapeSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError("shape JSON must be an object with a 'kind' tag")
        kind = obj["kind"]
        if kind == "combination":
            parts = tuple(cls.from_json(p) for p in obj.get("parts", []))
            return cls(kind, parts=parts)
        if kind == "fixed_boundaries":
            return cls(kind, a0=obj.get("a0"), a1=obj.get("a1"))
        if kind in BIVARIATE_KINDS:
            return cls(kind, in_s=bool(obj.get("in_s", True)), in_t=bool(obj.get("in_t", True)))
        if kind == "quantile_monotone":
            return cls(kind, n_predictors=int(obj.get("n_predictors", 0)))
        return cls(kind)


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
        if self.equality is None:
            self.equality = np.zeros(self.a.shape[0], dtype=bool)
        else:
            self.equality = np.asarray(self.equality, dtype=bool).ravel()
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
        """Per-row violation: b - A beta for inequalities, |A beta - b| for equalities."""
        beta = np.asarray(beta, dtype=float)
        if beta.size != self.coef_len:
            raise ValueError(
                f"coefficient length {beta.size} does not match constraints ({self.coef_len})"
            )
        resid = self.a @ beta - self.b
        out = -resid
        out[self.equality] = np.abs(resid[self.equality])
        return out

    def worst_violation(self, beta: np.ndarray) -> float:
        if self.n_rows == 0:
            return 0.0
        return float(max(0.0, self.violations(beta).max()))

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
        seen = set()
        keep = []
        for i in range(self.n_rows):
            key = (self.a[i].tobytes(), float(self.b[i]), bool(self.equality[i]))
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return ConstraintSystem(self.a[keep], self.b[keep], self.equality[keep])


@dataclass(frozen=True)
class ShapeReport:
    """Outcome of checking a coefficient vector against a shape."""

    feasible: bool
    worst_violation: float
    violated_rows: np.ndarray


def first_difference(n_coefs: int) -> np.ndarray:
    """(n-1) x n matrix with rows (..., -1, 1, ...)."""
    d = np.zeros((n_coefs - 1, n_coefs))
    idx = np.arange(n_coefs - 1)
    d[idx, idx] = -1.0
    d[idx, idx + 1] = 1.0
    return d


def second_difference(n_coefs: int) -> np.ndarray:
    """(n-2) x n matrix with rows (..., 1, -2, 1, ...)."""
    d = np.zeros((n_coefs - 2, n_coefs))
    idx = np.arange(n_coefs - 2)
    d[idx, idx] = 1.0
    d[idx, idx + 1] = -2.0
    d[idx, idx + 2] = 1.0
    return d


def _require_order(shape_kind: str, order: int) -> None:
    needed = _MIN_ORDER[shape_kind]
    if order < needed:
        raise ConfigError(f"shape {shape_kind!r} needs basis order >= {needed}, got {order}")


def _build_univariate(shape: ShapeSpec, order: int) -> ConstraintSystem:
    _require_order(shape.kind, order)
    p = order + 1
    if shape.kind == "fixed_boundaries":
        rows, rhs = [], []
        if shape.a0 is not None:
            row = np.zeros(p)
            row[0] = 1.0
            rows.append(row)
            rhs.append(float(shape.a0))
        if shape.a1 is not None:
            row = np.zeros(p)
            row[-1] = 1.0
            rows.append(row)
            rhs.append(float(shape.a1))
        return ConstraintSystem(np.array(rows), np.array(rhs), np.ones(len(rows), dtype=bool))
    if shape.kind == "non_negative":
        return ConstraintSystem(np.eye(p), np.zeros(p))
    if shape.kind == "non_positive":
        return ConstraintSystem(-np.eye(p), np.zeros(p))
    if shape.kind == "non_decreasing":
        return ConstraintSystem(first_difference(p), np.zeros(p - 1))
    if shape.kind == "non_increasing":
        return ConstraintSystem(-first_difference(p), np.zeros(p - 1))
    if shape.kind == "convex":
        return ConstraintSystem(second_difference(p), np.zeros(p - 2))
    if shape.kind == "concave":
        return ConstraintSystem(-second_difference(p), np.zeros(p - 2))
    raise ConfigError(f"shape {shape.kind!r} is not univariate")


def _build_bivariate(shape: ShapeSpec, order: int) -> ConstraintSystem:
    _require_order(shape.kind, order)
    p = order + 1
    eye = np.eye(p)
    diff = first_difference(p) if shape.kind == "bivariate_monotone" else second_difference(p)
    blocks = []
    if shape.in_s:
        # differences along k1; coefficients are k1-major so the operator acts blockwise
        blocks.append(np.kron(diff, eye))
    if shape.in_t:
        blocks.append(np.kron(eye, diff))
    a = np.vstack(blocks)
    return ConstraintSystem(a, np.zeros(a.shape[0]))


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
    p = order + 1
    total = p * (j_count + 1)
    gamma_op = order * first_difference(p)  # rows: derivative coefficients of one block
    n_subsets = 1 << j_count
    rows = np.zeros((order * n_subsets, total))
    r = 0
    for k in range(order):
        for subset in range(n_subsets):
            rows[r, 0:p] = gamma_op[k]
            for j in range(j_count):
                if subset >> j & 1:
                    block = (j + 1) * p
                    rows[r, block : block + p] = gamma_op[k]
            r += 1
    return ConstraintSystem(rows, np.zeros(rows.shape[0]))


def build_constraints(shape: ShapeSpec, spec) -> ConstraintSystem:
    """Constraint system for ``shape`` on the coefficient vector of ``spec``."""
    if shape.kind == "combination":
        built = [build_constraints(part, spec) for part in shape.parts]
        return ConstraintSystem.vstack(built).dedup()
    if shape.kind == "quantile_monotone":
        if not isinstance(spec, BasisSpec):
            raise ConfigError("quantile monotonicity needs a univariate basis")
        return build_quantile_monotone(shape.n_predictors, spec)
    if shape.kind in BIVARIATE_KINDS:
        if not isinstance(spec, TensorBasisSpec):
            raise ConfigError(f"shape {shape.kind!r} needs a tensor-product basis")
        return _build_bivariate(shape, spec.order)
    if not isinstance(spec, BasisSpec):
        raise ConfigError(f"shape {shape.kind!r} needs a univariate basis")
    return _build_univariate(shape, spec.order)


def _infer_spec(beta: np.ndarray, shape: ShapeSpec):
    """Reconstruct the basis spec implied by a coefficient vector's length."""
    size = beta.size
    if shape.kind == "quantile_monotone":
        blocks = shape.n_predictors + 1
        if size % blocks:
            raise ValueError(f"coefficient length {size} is not divisible into {blocks} blocks")
        return BasisSpec(size // blocks - 1)
    if shape.bivariate:
        side = int(round(np.sqrt(size)))
        if side * side != size:
            raise ValueError(f"coefficient length {size} is not a perfect square")
        return TensorBasisSpec(side - 1, side - 1)
    return BasisSpec(size - 1)


def check_shape(beta, shape: ShapeSpec, tol: float = 1e-8, spec=None) -> ShapeReport:
    """Certify a coefficient vector against the shape's constraint system.

    Because the constraints are sufficient conditions on coefficients, a
    feasible report certifies the shape everywhere on the domain, not only
    at evaluation points.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    system = build_constraints(shape, spec if spec is not None else _infer_spec(beta, shape))
    viol = system.violations(beta)
    bad = np.flatnonzero(viol > tol)
    return ShapeReport(
        feasible=bad.size == 0,
        worst_violation=float(max(0.0, viol.max())) if viol.size else 0.0,
        violated_rows=bad,
    )
