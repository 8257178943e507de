"""Tests for the shape-constraint catalog and feasibility checking."""

import re
from pathlib import Path

import numpy as np
import pytest

from bernfit import (
    CONCAVE,
    CONVEX,
    NON_DECREASING,
    NON_INCREASING,
    NON_NEGATIVE,
    NON_POSITIVE,
    BasisSpec,
    ConfigError,
    ShapeSpec,
    bivariate_monotone,
    build_constraints,
    build_quantile_monotone,
    check_shape,
    combination,
    fixed_boundaries,
    partial_convex,
    quantile_monotone,
)
from bernfit.basis import eval_basis_matrix


class TestCatalogMatrices:
    def test_non_decreasing_order_two(self):
        system = build_constraints(NON_DECREASING, BasisSpec(2))
        assert np.array_equal(system.a, [[-1, 1, 0], [0, -1, 1]])
        assert np.array_equal(system.b, [0.0, 0.0])
        assert not system.equality.any()

    def test_convex_order_three(self):
        system = build_constraints(CONVEX, BasisSpec(3))
        assert np.array_equal(system.a, [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_non_negative_order_zero(self):
        system = build_constraints(NON_NEGATIVE, BasisSpec(0))
        assert np.array_equal(system.a, [[1.0]])
        assert np.array_equal(system.b, [0.0])

    def test_fixed_boundaries(self):
        system = build_constraints(fixed_boundaries(2.0, -1.0), BasisSpec(4))
        assert np.array_equal(system.a, [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1]])
        assert np.array_equal(system.b, [2.0, -1.0])
        assert system.equality.all()

    def test_single_endpoint(self):
        system = build_constraints(fixed_boundaries(a1=0.5), BasisSpec(3))
        assert system.n_rows == 1
        assert np.array_equal(system.a, [[0, 0, 0, 1]])

    @pytest.mark.parametrize("order", range(2, 11))
    def test_ranks_match_catalog(self, order):
        spec = BasisSpec(order)
        assert np.linalg.matrix_rank(build_constraints(fixed_boundaries(0, 1), spec).a) == 2
        assert np.linalg.matrix_rank(build_constraints(NON_NEGATIVE, spec).a) == order + 1
        assert np.linalg.matrix_rank(build_constraints(NON_DECREASING, spec).a) == order
        assert np.linalg.matrix_rank(build_constraints(CONVEX, spec).a) == order - 1

    @pytest.mark.parametrize("order", range(2, 7))
    def test_negation_duality(self, order):
        spec = BasisSpec(order)
        assert np.array_equal(
            build_constraints(NON_INCREASING, spec).a, -build_constraints(NON_DECREASING, spec).a
        )
        assert np.array_equal(
            build_constraints(CONCAVE, spec).a, -build_constraints(CONVEX, spec).a
        )
        assert np.array_equal(
            build_constraints(NON_POSITIVE, spec).a, -build_constraints(NON_NEGATIVE, spec).a
        )

    def test_order_too_small(self):
        with pytest.raises(ConfigError, match="order >= 2"):
            build_constraints(CONVEX, BasisSpec(1))
        with pytest.raises(ConfigError, match="order >= 1"):
            build_constraints(NON_DECREASING, BasisSpec(0))


class TestBivariateMatrices:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_bimonotone_row_counts(self, order):
        tensor = BasisSpec(order)
        system = build_constraints(bivariate_monotone(), tensor)
        assert system.n_rows == 2 * order * (order + 1)
        assert system.coef_len == (order + 1) ** 2

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_partial_convex_row_counts(self, order):
        tensor = BasisSpec(order)
        system = build_constraints(partial_convex(), tensor)
        assert system.n_rows == 2 * (order**2 - 1)

    def test_single_direction_flags(self):
        tensor = BasisSpec(2)
        only_s = build_constraints(bivariate_monotone(in_t=False), tensor)
        only_t = build_constraints(bivariate_monotone(in_s=False), tensor)
        assert only_s.n_rows == only_t.n_rows == 2 * 3
        both = build_constraints(bivariate_monotone(), tensor)
        assert np.array_equal(both.a, np.vstack([only_s.a, only_t.a]))

    def test_monotone_s_rows_difference_along_k1(self):
        # beta_{k1+1,k2} - beta_{k1,k2} >= 0 in k1-major stacking
        tensor = BasisSpec(1)
        system = build_constraints(bivariate_monotone(in_t=False), tensor)
        assert np.array_equal(
            system.a, [[-1, 0, 1, 0], [0, -1, 0, 1]]
        )

    def test_monotone_t_rows_blockwise(self):
        tensor = BasisSpec(1)
        system = build_constraints(bivariate_monotone(in_s=False), tensor)
        assert np.array_equal(system.a, [[-1, 1, 0, 0], [0, 0, -1, 1]])

    def test_bivariate_sufficiency(self):
        # feasible coefficients yield a surface monotone in both arguments
        order = 3
        tensor = BasisSpec(order)
        rng = np.random.default_rng(7)
        increments = rng.uniform(0, 1, size=(order + 1, order + 1))
        coefs = np.cumsum(np.cumsum(increments, axis=0), axis=1)
        system = build_constraints(bivariate_monotone(), tensor)
        assert system.violations(coefs.ravel()).max(initial=0.0) == 0.0
        pts = np.linspace(0, 1, 25)
        basis = eval_basis_matrix(pts, BasisSpec(order))
        surface = basis @ coefs @ basis.T
        assert np.all(np.diff(surface, axis=0) >= -1e-10)
        assert np.all(np.diff(surface, axis=1) >= -1e-10)


class TestCombination:
    def test_stack_and_dedup(self):
        spec = BasisSpec(3)
        shape = combination(NON_DECREASING, NON_DECREASING, NON_NEGATIVE)
        system = build_constraints(shape, spec)
        assert system.n_rows == 3 + 4  # duplicates dropped

    def test_empty_combination_rejected(self):
        with pytest.raises(ConfigError):
            ShapeSpec("combination", parts=())

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            combination(NON_NEGATIVE, bivariate_monotone())


class TestSufficiency:
    """Feasible coefficients must certify the shape over the whole domain."""

    def test_non_decreasing(self):
        rng = np.random.default_rng(0)
        order = 6
        basis = eval_basis_matrix(np.linspace(0, 1, 1000), BasisSpec(order))
        for _ in range(20):
            beta = np.cumsum(rng.uniform(0, 1, order + 1))
            values = basis @ beta
            assert np.all(np.diff(values) >= -1e-10)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        order = 5
        basis = eval_basis_matrix(np.linspace(0, 1, 1000), BasisSpec(order))
        for _ in range(20):
            beta = rng.uniform(0, 2, order + 1)
            assert (basis @ beta).min() >= -1e-10

    def test_convex(self):
        rng = np.random.default_rng(2)
        order = 6
        pts = np.linspace(0, 1, 1000)
        basis = eval_basis_matrix(pts, BasisSpec(order))
        for _ in range(20):
            second = rng.uniform(0, 1, order - 1)
            beta = np.zeros(order + 1)
            beta[0] = rng.normal()
            beta[1] = beta[0] + rng.normal()
            for k in range(2, order + 1):
                beta[k] = second[k - 2] + 2 * beta[k - 1] - beta[k - 2]
            values = basis @ beta
            assert np.all(np.diff(values, 2) >= -1e-8)


class TestCheckShape:
    def test_feasible_vector(self):
        report = check_shape([0.0, 1.0, 2.0], NON_DECREASING, spec=BasisSpec(2))
        assert report.feasible
        assert report.worst_violation == 0.0
        assert report.violated_rows.size == 0

    def test_infeasible_vector(self):
        report = check_shape([0.0, 2.0, 1.0], NON_DECREASING, spec=BasisSpec(2))
        assert not report.feasible
        assert report.worst_violation == pytest.approx(1.0)
        assert np.array_equal(report.violated_rows, [1])

    def test_random_feasible_rejection_sample(self):
        rng = np.random.default_rng(3)
        order = 4
        accepted = 0
        while accepted < 10:
            beta = rng.normal(size=order + 1)
            report = check_shape(beta, NON_NEGATIVE, spec=BasisSpec(order))
            if np.all(beta >= 0):
                assert report.feasible
                accepted += 1
            else:
                assert not report.feasible

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_shape([1.0, 2.0], NON_DECREASING, spec=BasisSpec(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_boundary_is_refused(self, value):
        # a NaN boundary used to give a system no vector violates, so check_shape said feasible
        for bounds in ({"a0": value}, {"a1": value}, {"a0": 0.0, "a1": value}):
            with pytest.raises(ConfigError, match="fixed_boundaries needs a finite"):
                check_shape(np.zeros(4), fixed_boundaries(**bounds), spec=BasisSpec(3))
        with pytest.raises(ConfigError, match="needs a finite a1"):
            ShapeSpec.from_json({"kind": "fixed_boundaries", "a1": value})


class TestQuantileMonotone:
    def test_j1_structure(self):
        spec = BasisSpec(2)
        system = build_quantile_monotone(1, spec)
        assert system.n_rows == 2 * 2  # order * 2^J
        assert system.coef_len == 6
        gamma = 2.0 * np.array([[-1, 1, 0], [0, -1, 1]])
        # rows come in (k, subset) order: subset {} then {1}
        assert np.array_equal(system.a[0], np.concatenate([gamma[0], np.zeros(3)]))
        assert np.array_equal(system.a[1], np.concatenate([gamma[0], gamma[0]]))
        assert np.array_equal(system.a[2], np.concatenate([gamma[1], np.zeros(3)]))
        assert np.array_equal(system.a[3], np.concatenate([gamma[1], gamma[1]]))

    def test_j2_vertex_rows(self):
        spec = BasisSpec(1)
        system = build_quantile_monotone(2, spec)
        assert system.n_rows == 4
        gamma = np.array([-1.0, 1.0])
        z = np.zeros(2)
        expected = [
            np.concatenate([gamma, z, z]),
            np.concatenate([gamma, gamma, z]),
            np.concatenate([gamma, z, gamma]),
            np.concatenate([gamma, gamma, gamma]),
        ]
        assert np.array_equal(system.a, np.array(expected))

    def test_zero_coefficients_feasible_with_equality(self):
        system = build_quantile_monotone(1, BasisSpec(1))
        assert system.violations(np.zeros(4)).max(initial=0.0) == 0.0

    def test_too_many_predictors_refused(self):
        with pytest.raises(ConfigError, match="prune"):
            build_quantile_monotone(21, BasisSpec(2))

    def test_monotonicity_certified_at_interior_points(self):
        # feasible coefficients give mu'(p) >= 0 for every covariate value,
        # not just at the hypercube vertices
        rng = np.random.default_rng(11)
        order, j_count = 3, 2
        spec = BasisSpec(order)
        system = build_quantile_monotone(j_count, spec)
        deriv_basis = eval_basis_matrix(np.linspace(0, 1, 200), BasisSpec(order - 1))
        for _ in range(5):
            gammas = rng.normal(size=(j_count, order))
            floor = np.zeros(order)
            for subset in range(1, 4):
                total = np.zeros(order)
                for j in range(j_count):
                    if subset >> j & 1:
                        total += gammas[j]
                floor = np.minimum(floor, total)
            gamma0 = -floor + rng.uniform(0, 0.5, order)
            blocks = [gamma0] + [gammas[j] for j in range(j_count)]
            beta = np.concatenate(
                [np.concatenate([[0.0], np.cumsum(g) / order]) for g in blocks]
            )
            assert system.violations(beta).max(initial=0.0) <= 1e-12
            vertices = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
            points = [tuple(rng.uniform(0, 1, 2)) for _ in range(100)]
            for x in vertices + points:
                combo = gamma0 + x[0] * gammas[0] + x[1] * gammas[1]
                slope = deriv_basis @ combo
                assert slope.min() >= -1e-10


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "shape",
        [
            NON_NEGATIVE,
            NON_INCREASING,
            fixed_boundaries(0.0, 3.5),
            fixed_boundaries(a0=1.0),
            bivariate_monotone(in_t=False),
            partial_convex(),
            quantile_monotone(4),
            combination(NON_DECREASING, CONCAVE),
        ],
    )
    def test_round_trip(self, shape):
        assert ShapeSpec.from_json(shape.to_json()) == shape

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            ShapeSpec.from_json({"type": "nope"})
        with pytest.raises(ConfigError):
            ShapeSpec.from_json({"kind": "spiral"})

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "bivariate_monotone", "in_s": None},
            {"kind": "quantile_monotone", "n_predictors": None},
        ],
    )
    def test_explicit_null_for_a_defaulted_field_is_refused(self, obj):
        with pytest.raises(ConfigError, match="must be of type"):
            ShapeSpec.from_json(obj)

    def test_explicit_null_boundary_stays_unset(self):
        shape = ShapeSpec.from_json({"kind": "fixed_boundaries", "a0": None, "a1": 2})
        assert shape == fixed_boundaries(a1=2.0)
        assert shape.a0 is None


def test_readme_names_every_kind_with_its_minimum_order():
    """README's "Shape kinds" paragraph and the catalog cannot drift apart."""
    from bernfit.constraints import _CATALOG

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Shape kinds")
    paragraph = readme[start : readme.index("\n\n", start)]
    documented = dict(re.findall(r"`(\w+)`\s+\(order\s+(\d+)\b", paragraph))
    assert documented == {kind: str(row.min_order) for kind, row in _CATALOG.items()}


def test_readme_names_every_model_with_its_shape_key_and_commands():
    """README's "Models" paragraph and ``MODELS`` cannot drift apart: each model's
    shape key, ``ci``/``test-shape`` support and minimum basis order (0 unless the
    entry names one)."""
    from bernfit.constraints import MODELS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Models, each")
    paragraph = readme[start : readme.index("\n\n", start)]
    entries = re.findall(r"`(\w+)`\s+\(`(\w+)`;\s+([^)]*)\)", paragraph)
    documented = {
        model: (key, set(re.findall(r"`([\w-]+)`", rest)),
                int(re.search(r"order >= (\d+)", rest)[1]) if "order >=" in rest else 0)
        for model, key, rest in entries
    }
    expected = {}
    for model, row in MODELS.items():
        commands = set()
        if not row.band:
            commands.add("ci")
        if not row.test:
            commands.add("test-shape")
        expected[model] = (row.shape_key, commands, row.min_order)
    assert documented == expected
