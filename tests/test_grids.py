"""Tests for tensor grids, covariance rotation, and multivariate integration."""
import math

import numpy as np
import pytest

from truthquad import (
    CovSpec,
    Decomposition,
    NonFiniteEvaluationError,
    Normal,
    PointBudgetError,
    Uniform,
    ValidationError,
    integrate_nd,
    product_grid,
    rotate_grid,
    rule_for,
    tensor_grid,
)


def weighted_moments(grid):
    mean = grid.weights @ grid.points
    centered = grid.points - mean
    cov = centered.T @ (grid.weights[:, None] * centered)
    return mean, cov


class TestTensorGrid:
    def test_k1_d3_is_origin(self):
        grid = tensor_grid(1, 3)
        assert grid.points.shape == (1, 3)
        np.testing.assert_allclose(grid.points, 0.0, atol=1e-15)
        np.testing.assert_allclose(grid.weights, [1.0], atol=1e-14)

    def test_k5_d2_point_count_and_mass(self):
        grid = tensor_grid(5, 2)
        assert grid.points.shape == (25, 2)
        np.testing.assert_allclose(grid.weights.sum(), 1.0, atol=1e-11)
        assert np.all(grid.weights > 0)

    def test_cross_moment_vanishes(self):
        grid = tensor_grid(3, 2)
        value = integrate_nd(grid, lambda p: p[:, 0] * p[:, 1])
        assert abs(value) < 1e-14

    def test_budget_error_names_count(self):
        with pytest.raises(PointBudgetError, match="10\\^8"):
            tensor_grid(10, 8, point_budget=10**6)

    def test_bad_dim(self):
        with pytest.raises(ValidationError):
            tensor_grid(3, 0)


class TestProductGrid:
    def test_mixed_families(self):
        rules = [rule_for(Uniform(-2.0, 2.0), 6), rule_for(Normal(1.0, 4.0), 6)]
        grid = product_grid(rules)
        assert grid.points.shape == (36, 2)
        np.testing.assert_allclose(grid.weights.sum(), 1.0, atol=1e-11)
        mean, cov = weighted_moments(grid)
        np.testing.assert_allclose(mean, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.diag(cov), [4.0 / 3.0, 4.0], rtol=1e-12)

    def test_levels_must_match(self):
        with pytest.raises(ValidationError, match="uniform"):
            product_grid([rule_for(Normal(0, 1), 3), rule_for(Normal(0, 1), 4)])

    def test_requires_normalized(self):
        from truthquad import compute_rule, hermite_kind

        with pytest.raises(ValidationError, match="normalized"):
            product_grid([compute_rule(hermite_kind(), 3)])


class TestRotateGrid:
    def test_identity_covariance_leaves_points(self):
        grid = tensor_grid(5, 2)
        rotated = rotate_grid(grid, CovSpec(np.zeros(2), np.eye(2)), Decomposition.SPECTRAL)
        np.testing.assert_allclose(rotated.points, grid.points, atol=1e-12)
        assert np.array_equal(rotated.weights, grid.weights)

    def test_spectral_matches_explicit_bivariate_formula(self):
        rho = math.sqrt(0.5)
        grid = tensor_grid(5, 2)
        cov = CovSpec(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        rotated = rotate_grid(grid, cov, Decomposition.SPECTRAL)
        a = 0.5 * (math.sqrt(1 + rho) + math.sqrt(1 - rho))
        b = 0.5 * (math.sqrt(1 + rho) - math.sqrt(1 - rho))
        c1, c2 = grid.points[:, 0], grid.points[:, 1]
        expected = np.column_stack([a * c1 + b * c2, b * c1 + a * c2])
        np.testing.assert_allclose(rotated.points, expected, atol=1e-12)
        _, pc_cov = weighted_moments(rotated)
        np.testing.assert_allclose(pc_cov, cov.covariance, atol=1e-10)

    def test_cholesky_matches_explicit_bivariate_formula(self):
        rho = 0.6
        grid = tensor_grid(4, 2)
        cov = CovSpec(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        rotated = rotate_grid(grid, cov, Decomposition.CHOLESKY)
        c1, c2 = grid.points[:, 0], grid.points[:, 1]
        expected = np.column_stack([c1, rho * c1 + math.sqrt(1 - rho**2) * c2])
        np.testing.assert_allclose(rotated.points, expected, atol=1e-13)

    def test_k2_cholesky_moments_exact(self):
        # direct moment summation over the four points is the oracle here
        grid = tensor_grid(2, 2)
        cov = CovSpec(np.array([-5.0, -10.0]), np.array([[1.0, 1.0], [1.0, 2.0]]))
        rotated = rotate_grid(grid, cov, Decomposition.CHOLESKY)
        mean, pc_cov = weighted_moments(rotated)
        np.testing.assert_allclose(mean, cov.mean, atol=1e-12)
        np.testing.assert_allclose(pc_cov, cov.covariance, atol=1e-12)

    @pytest.mark.parametrize("decomposition", [Decomposition.CHOLESKY, Decomposition.SPECTRAL])
    def test_moment_exactness_random_covariances(self, decomposition):
        rng = np.random.default_rng(42)
        for dim in (2, 3, 4):
            base = rng.normal(size=(dim, dim))
            cov = CovSpec(rng.normal(size=dim), base @ base.T + dim * np.eye(dim))
            rotated = rotate_grid(tensor_grid(3, dim), cov, decomposition)
            mean, pc_cov = weighted_moments(rotated)
            np.testing.assert_allclose(mean, cov.mean, atol=1e-10)
            np.testing.assert_allclose(pc_cov, cov.covariance, atol=1e-10)

    def test_decompositions_agree_on_smooth_integrands(self):
        # both factors are square roots of the covariance, so any polynomial of
        # degree <= 2K-1 in the rotated coordinates integrates identically
        rng = np.random.default_rng(3)
        cov = CovSpec(np.array([0.5, -1.0]), np.array([[2.0, 0.7], [0.7, 1.0]]))
        grid = tensor_grid(6, 2)
        coef = rng.normal(size=(4, 4))

        def poly(points):
            x, y = points[:, 0], points[:, 1]
            total = np.zeros(len(points))
            for i in range(4):
                for j in range(4):
                    total += coef[i, j] * x**i * y**j
            return total

        via_chol = integrate_nd(rotate_grid(grid, cov, Decomposition.CHOLESKY), poly)
        via_spec = integrate_nd(rotate_grid(grid, cov, Decomposition.SPECTRAL), poly)
        np.testing.assert_allclose(via_chol, via_spec, rtol=1e-10)

    def test_none_keeps_marginal_variances_only(self):
        cov = CovSpec(np.zeros(2), np.array([[1.0, 0.9], [0.9, 2.0]]))
        rotated = rotate_grid(tensor_grid(4, 2), cov, Decomposition.NONE)
        _, pc_cov = weighted_moments(rotated)
        np.testing.assert_allclose(np.diag(pc_cov), [1.0, 2.0], atol=1e-10)
        assert abs(pc_cov[0, 1]) < 1e-12

    def test_rotation_preserves_weights(self):
        grid = tensor_grid(3, 3)
        cov = CovSpec(np.ones(3), np.eye(3) + 0.2)
        for dec in Decomposition:
            assert np.array_equal(rotate_grid(grid, cov, dec).weights, grid.weights)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            rotate_grid(tensor_grid(3, 2), CovSpec(np.zeros(3), np.eye(3)), Decomposition.SPECTRAL)

    def test_non_pd_reports_smallest_eigenvalue(self):
        with pytest.raises(ValidationError, match="smallest eigenvalue"):
            CovSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            CovSpec(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_double_rotation_rejected(self):
        grid = rotate_grid(tensor_grid(2, 2), CovSpec(np.zeros(2), np.eye(2)),
                           Decomposition.CHOLESKY)
        with pytest.raises(ValidationError, match="already rotated"):
            rotate_grid(grid, CovSpec(np.zeros(2), np.eye(2)), Decomposition.CHOLESKY)


class TestIntegrateND:
    def test_constant_is_one(self):
        for grid in (tensor_grid(4, 2), tensor_grid(2, 5)):
            np.testing.assert_allclose(integrate_nd(grid, lambda p: np.ones(len(p))), 1.0,
                                       atol=1e-11)

    def test_sum_of_coordinates_hits_mean_total(self):
        mean = np.array([2.0, -3.0, 0.5])
        cov = CovSpec(mean, np.eye(3))
        grid = rotate_grid(tensor_grid(3, 3), cov, Decomposition.SPECTRAL)
        value = integrate_nd(grid, lambda p: p.sum(axis=1))
        np.testing.assert_allclose(value, mean.sum(), atol=1e-12)

    def test_scalar_callable_fallback(self):
        grid = tensor_grid(3, 2)
        with pytest.warns(RuntimeWarning, match=r"TypeError\(.*point by point"):
            value = integrate_nd(grid, lambda p: float(p[0]) ** 2 + float(p[1]) ** 2)
        np.testing.assert_allclose(value, 2.0, atol=1e-12)

    def test_non_finite_reports_point(self):
        grid = tensor_grid(2, 2)

        def bad(points):
            out = np.ones(len(points))
            out[3] = np.inf
            return out

        with pytest.raises(NonFiniteEvaluationError, match="at point"):
            integrate_nd(grid, bad)

    def test_fallback_warning_points_at_caller(self):
        grid = tensor_grid(3, 2)
        with pytest.warns(RuntimeWarning, match="point by point") as record:
            integrate_nd(grid, lambda p: float(p[0]))
        assert [w.filename for w in record] == [__file__]
