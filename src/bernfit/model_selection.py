"""Basis-order selection by V-fold cross-validation.

Subjects (whole curves, for functional responses) are shuffled into folds by
the seed; each candidate order is scored by the held-out residual sum of
squares of the constrained fit, summed over folds. Functional-response fold
fits skip pre-whitening, which keeps the criterion a plain residual sum of
squares; the final refit at the chosen order is free to whiten.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .constraints import MODELS, ShapeSpec, check_model, quantile_monotone
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError
from .functional import fit_functional
from .utils import spawn_rng

# scores within this relative band of the minimum count as ties, broken downward
_TIE_RTOL = 1e-10


@dataclass
class CvResult:
    candidate_orders: list
    scores: dict
    chosen: int
    folds: int
    fold_assignment: np.ndarray
    seed: int
    skipped: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "candidate_orders": list(self.candidate_orders),
            "scores": {str(k): v for k, v in self.scores.items()},
            "chosen": self.chosen,
            "folds": self.folds,
            "fold_assignment": self.fold_assignment.tolist(),
            "seed": self.seed,
            "skipped": {str(k): v for k, v in self.skipped.items()},
        }


def _holdout_error(train, test, model, order, shape) -> float:
    pred = fit_functional(train, model, BasisSpec(order, train.domain), shape,
                          whiten_fit=False).predict(test)
    y = test.y_scalar if MODELS[model].response == "scalar" else test.y_curves
    mask = np.isfinite(y)
    return float(np.sum((y[mask] - pred[mask]) ** 2))


def cv_select_order(
    data: FunctionalDataset,
    model: str,
    shape: ShapeSpec | dict | None = None,
    candidates=None,
    folds: int = 5,
    seed: int = 0,
) -> CvResult:
    """Pick the basis order minimizing cross-validated held-out error.

    A candidate that is not a non-negative integer (a bool is none) is refused
    before any fold is fit; candidates below the minimum order of the shape or of
    the model (fofr's ``min_order``) are skipped with a notice.
    Ties (scores equal up to roundoff) resolve to the smallest order. For
    the qfosr model the monotonicity system is implied and ``shape`` is the
    optional extra-shapes mapping passed through to the fit.
    """
    check_model(model, shape=shape)
    if folds < 2:
        raise ConfigError("cross-validation needs at least 2 folds")
    default = range(2, 7 if MODELS[model].target == "surface" else 11)
    candidates = list(candidates if candidates is not None else default)
    for order in candidates:
        if isinstance(order, (bool, np.bool_)) or not isinstance(order, (int, np.integer)) \
                or order < 0:
            raise ConfigError(f"candidate orders must be non-negative integers, got {order!r}")
    candidates = sorted(candidates)
    if not candidates:
        raise ConfigError("no candidate orders supplied")
    n = data.n_subjects
    largest_fold = -(-n // folds)
    min_train = max(candidates) + 2
    if n - largest_fold < min_train:
        raise ConfigError(
            f"each fold must leave at least {min_train} training subjects; "
            f"n={n} with {folds} folds does not"
        )
    perm = spawn_rng(seed).permutation(n)
    fold_assignment = np.empty(n, dtype=int)
    fold_assignment[perm] = np.arange(n) % folds

    if MODELS[model].shape_key == "extra_shapes":  # the monotonicity system is implied
        shapes = [quantile_monotone(1), *(shape or {}).values()]
    else:
        shapes = [] if shape is None else [shape]
    shape_floor = max((s.min_order() for s in shapes), default=0)
    min_order_needed = max(MODELS[model].min_order, shape_floor)
    floor = "the shape's" if shape_floor == min_order_needed else f"{model}'s"

    scores: dict = {}
    skipped: dict = {}
    for order in candidates:
        if order < min_order_needed:
            skipped[order] = f"order {order} below {floor} minimum ({min_order_needed})"
            continue
        total = 0.0
        try:
            for v in range(folds):
                train = data.subset(np.flatnonzero(fold_assignment != v))
                test = data.subset(np.flatnonzero(fold_assignment == v))
                total += _holdout_error(train, test, model, order, shape)
        except DataError as exc:
            skipped[order] = str(exc)
            continue
        scores[order] = total
    if not scores:
        reasons = "; ".join(f"order {k}: {v}" for k, v in skipped.items())
        raise ConfigError(f"every candidate order was skipped ({reasons})")
    best_score = min(scores.values())
    tol = _TIE_RTOL * (1.0 + abs(best_score))
    chosen = min(order for order, score in scores.items() if score <= best_score + tol)
    return CvResult(
        candidate_orders=candidates,
        scores=scores,
        chosen=chosen,
        folds=folds,
        fold_assignment=fold_assignment,
        seed=seed,
        skipped=skipped,
    )
