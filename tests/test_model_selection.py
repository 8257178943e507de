"""Tests for cross-validated basis-order selection."""

import numpy as np
import pytest

from bernfit import (
    CONVEX,
    NON_DECREASING,
    BasisSpec,
    ConfigError,
    Grid,
    ScenarioSpec,
    cv_select_order,
    generate_scenario,
)
from bernfit.basis import sofr_design
from bernfit.dataset import FunctionalDataset


def quantile_cv_dataset(n=60, m=30, seed=21):
    rng = np.random.default_rng(seed)
    pts = np.linspace(0, 1, m)
    z = rng.uniform(0, 1, size=(n, 1))
    q = pts[None, :] + z * 0.5 * pts[None, :] ** 2 + 0.01 * rng.uniform(0, 1, (n, m)).cumsum(axis=1) / m
    return FunctionalDataset(grid=Grid(pts), ids=list(range(n)), y_curves=q, z_scalars=z, z_names=["v"])


def sieve_sofr_dataset(order_true=3, n=80, m=40, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.linspace(0, 1, m)
    grid = Grid(pts)
    x = rng.normal(size=(n, 5)) @ np.vstack([pts**k for k in range(5)])
    beta = np.cumsum(rng.uniform(0.1, 1.0, order_true + 1))
    w = sofr_design(x, grid, BasisSpec(order_true))
    y = 0.5 + w @ beta + noise * rng.standard_normal(n)
    return FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_scalar=y)


class TestFoldPartition:
    def test_every_subject_in_one_fold_sizes_balanced(self):
        data = sieve_sofr_dataset(n=83)
        result = cv_select_order(data, "sofr", NON_DECREASING, candidates=[2, 3], folds=5, seed=1)
        assert result.fold_assignment.size == 83
        sizes = np.bincount(result.fold_assignment, minlength=5)
        assert sizes.max() - sizes.min() <= 1

    def test_seed_determinism(self):
        data = sieve_sofr_dataset()
        a = cv_select_order(data, "sofr", NON_DECREASING, candidates=[2, 3, 4], folds=5, seed=7)
        b = cv_select_order(data, "sofr", NON_DECREASING, candidates=[2, 3, 4], folds=5, seed=7)
        assert a.chosen == b.chosen
        assert a.fold_assignment.tobytes() == b.fold_assignment.tobytes()
        assert a.scores == b.scores

    def test_different_seeds_shuffle_folds(self):
        data = sieve_sofr_dataset()
        a = cv_select_order(data, "sofr", None, candidates=[2, 3], folds=5, seed=1)
        b = cv_select_order(data, "sofr", None, candidates=[2, 3], folds=5, seed=2)
        assert a.fold_assignment.tobytes() != b.fold_assignment.tobytes()


class TestScoreSemantics:
    def test_score_additivity_recomputed(self):
        from bernfit.model_selection import _holdout_error

        data = sieve_sofr_dataset(noise=0.2, seed=3)
        result = cv_select_order(data, "sofr", NON_DECREASING, candidates=[3], folds=4, seed=5)
        total = 0.0
        for v in range(4):
            train = data.subset(np.flatnonzero(result.fold_assignment != v))
            test = data.subset(np.flatnonzero(result.fold_assignment == v))
            total += _holdout_error(train, test, "sofr", 3, NON_DECREASING)
        assert total == pytest.approx(result.scores[3], rel=1e-10)

    def test_zero_noise_ties_break_downward(self):
        data = sieve_sofr_dataset(order_true=3, noise=0.0)
        result = cv_select_order(
            data, "sofr", NON_DECREASING, candidates=range(3, 9), folds=5, seed=2
        )
        assert result.chosen == 3

    def test_infeasible_candidate_skipped(self):
        data = sieve_sofr_dataset(noise=0.1)
        result = cv_select_order(data, "sofr", CONVEX, candidates=[1, 2, 3], folds=5, seed=4)
        assert 1 in result.skipped
        assert set(result.scores) == {2, 3}

    def test_all_infeasible_raises(self):
        data = sieve_sofr_dataset()
        with pytest.raises(ConfigError):
            cv_select_order(data, "sofr", CONVEX, candidates=[0, 1], folds=5, seed=4)

    def test_too_small_training_folds(self):
        data = sieve_sofr_dataset(n=12)
        with pytest.raises(ConfigError):
            cv_select_order(data, "sofr", None, candidates=[2, 3, 4, 5, 6, 7, 8, 9], folds=2)


class TestFunctionalCv:
    def test_flcm_selection_runs_and_chooses_reasonably(self):
        data = generate_scenario(ScenarioSpec("B", n=50, seed=9), 0)
        result = cv_select_order(
            data, "flcm", data.meta["shape"], candidates=range(3, 8), folds=5, seed=11
        )
        assert result.chosen in range(3, 8)
        assert set(result.scores) == set(range(3, 8))

    @pytest.mark.filterwarnings("ignore:predictors outside the training range")
    def test_qfosr_selection(self):
        # held-out folds legitimately contain predictor values outside the
        # training fold's min-max box
        data = quantile_cv_dataset()
        result = cv_select_order(data, "qfosr", None, candidates=[2, 3, 4], folds=4, seed=3)
        assert result.chosen in (2, 3, 4)

    @pytest.mark.filterwarnings("ignore:predictors outside the training range")
    def test_qfosr_extra_shapes_must_map_blocks(self):
        data = quantile_cv_dataset()
        shaped = cv_select_order(data, "qfosr", {1: NON_DECREASING}, [2, 3], folds=4, seed=3)
        assert shaped.chosen in (2, 3)
        # a bare shape has no coefficient block to act on
        with pytest.raises(ConfigError):
            cv_select_order(data, "qfosr", NON_DECREASING, candidates=[2, 3], folds=4, seed=3)

    @pytest.mark.filterwarnings("ignore:predictors outside the training range")
    def test_qfosr_orders_below_extra_shape_minimum_are_skipped(self):
        # convexity of block 1 needs order >= 2; order 1 is skipped, not fatal
        data = quantile_cv_dataset()
        result = cv_select_order(data, "qfosr", {1: CONVEX}, candidates=[1, 2, 3], folds=4, seed=3)
        assert set(result.skipped) == {1}
        assert set(result.scores) == {2, 3}
        assert result.chosen in (2, 3)
        unshaped = cv_select_order(data, "qfosr", {}, candidates=[1, 2], folds=4, seed=3)
        assert not unshaped.skipped

    def test_scenario_a_cv_average_near_four(self):
        # selection criterion tracks the magnitude reported for this design:
        # the average chosen order over replications sits near 4
        chosen = []
        for rep in range(12):
            data = generate_scenario(ScenarioSpec("A", n=50, seed=13), rep)
            result = cv_select_order(
                data, "sofr", data.meta["shape"], candidates=range(2, 9), folds=5, seed=rep
            )
            chosen.append(result.chosen)
        assert 2.5 <= np.mean(chosen) <= 5.5


def test_candidate_bases_sit_on_the_fit_domain(monkeypatch):
    """A grid inside [0, 1] gives bases on [0, 1], the domain the chosen fit uses."""
    from bernfit import model_selection

    data = generate_scenario(ScenarioSpec("B", n=30, seed=3), 0)
    inner = FunctionalDataset(
        grid=Grid(0.1 + 0.8 * data.grid.points), ids=data.ids,
        x_curves=data.x_curves, y_curves=data.y_curves,
    )
    domains = []

    def recording_spec(order, domain):
        domains.append(domain)
        return BasisSpec(order, domain)

    monkeypatch.setattr(model_selection, "BasisSpec", recording_spec)
    cv_select_order(inner, "flcm", NON_DECREASING, candidates=[2, 3], folds=3, seed=1)
    assert domains and set(domains) == {(0.0, 1.0)}
