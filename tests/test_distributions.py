"""Tests for distribution specs: densities, sampling, rule selection, JSON."""
import math

import numpy as np
import pytest

from truthquad import (
    Exponential,
    Gamma,
    GridND,
    MVNormal,
    Normal,
    Uniform,
    ValidationError,
    dist_from_json,
    dist_to_json,
    integrate_1d,
    integrate_nd,
    pdf,
    rule_for,
    sample,
)
from truthquad.mc import BLOCK
from truthquad.special import expit


class TestPdf:
    def test_standard_normal_mode(self):
        np.testing.assert_allclose(pdf(Normal(0.0, 1.0), 0.0), 1.0 / math.sqrt(2 * math.pi),
                                   rtol=1e-15)

    def test_exponential_at_origin(self):
        assert pdf(Exponential(2.0), 0.0) == 2.0

    def test_uniform_outside_support(self):
        assert pdf(Uniform(-2.0, 2.0), 3.0) == 0.0
        assert pdf(Uniform(-2.0, 2.0), 0.0) == 0.25

    def test_gamma_value(self):
        # Ga(4, 2) at x=1: 2^4 * 1^3 * e^{-2} / Gamma(4)
        np.testing.assert_allclose(pdf(Gamma(4.0, 2.0), 1.0), 16.0 * math.exp(-2.0) / 6.0,
                                   rtol=1e-14)
        assert pdf(Gamma(4.0, 2.0), -1.0) == 0.0

    def test_mvnormal_matches_univariate(self):
        mv = MVNormal.of([1.0], [[4.0]])
        np.testing.assert_allclose(mv.pdf([1.0]), Normal(1.0, 4.0).pdf(1.0), rtol=1e-14)

    def test_mvnormal_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            MVNormal.of([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).pdf([1.0, 2.0, 3.0])

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            Normal(0.0, 0.0)
        with pytest.raises(ValidationError):
            Uniform(2.0, 2.0)
        with pytest.raises(ValidationError):
            Exponential(-1.0)
        with pytest.raises(ValidationError):
            Gamma(0.0, 1.0)


class TestSample:
    def test_seed_determinism(self):
        for dist in (Normal(0, 1), Uniform(-2, 2), Exponential(1.0), Gamma(4, 2),
                     MVNormal.of([-5, -10], [[1, 1], [1, 2]])):
            a = sample(dist, 1000, seed=11)
            b = sample(dist, 1000, seed=11)
            assert np.array_equal(a, b)
            c = sample(dist, 1000, seed=12)
            assert not np.array_equal(a, c)

    def test_normal_mean_within_clt_bound(self):
        draws = sample(Normal(0.0, 1.0), 10**6, seed=5)
        assert abs(draws.mean()) < 5.0 / math.sqrt(10**6)

    def test_gamma_mean(self):
        draws = sample(Gamma(4.0, 2.0), 10**6, seed=5)
        # sd of the mean is 1/sqrt(N)
        assert abs(draws.mean() - 2.0) < 5.0 / math.sqrt(10**6)

    def test_mvnormal_sample_covariance(self):
        draws = sample(MVNormal.of([-5.0, -10.0], [[1.0, 1.0], [1.0, 2.0]]), 10**6, seed=5)
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 2.0]], atol=0.01)
        np.testing.assert_allclose(draws.mean(axis=0), [-5.0, -10.0], atol=0.01)

    def test_n_validation(self):
        with pytest.raises(ValidationError):
            sample(Normal(0, 1), 0, seed=1)

    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("mean, cov", [
        ([-5.0, -10.0], [[1.0, 1.0], [1.0, 2.0]]),
        ([1.0, 0.0, -2.0], [[2.0, 0.5, 0.3], [0.5, 1.0, -0.2], [0.3, -0.2, 1.5]]),
    ])
    def test_mvnormal_draw_is_numpy_cholesky_draw(self, mean, cov, n):
        # the blocked in-place transform gives numpy's values bit for bit
        got = MVNormal.of(mean, cov).draw(np.random.default_rng(17), n)
        want = np.random.default_rng(17).multivariate_normal(mean, cov, size=n, method="cholesky")
        assert got.shape == want.shape == (n, len(mean))
        assert got.tobytes() == want.tobytes()


class TestRuleFor:
    def test_normal_moments_exact_at_k2(self):
        rule = rule_for(Normal(3.0, 4.0), 2)
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x), 3.0, rtol=1e-13)
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x**2), 13.0, rtol=1e-13)

    def test_gamma_shape_one_equals_exponential(self):
        gamma_rule = rule_for(Gamma(1.0, 2.0), 5)
        exp_rule = rule_for(Exponential(2.0), 5)
        for degree in range(10):
            a = integrate_1d(gamma_rule, lambda x: x**degree)
            b = integrate_1d(exp_rule, lambda x: x**degree)
            np.testing.assert_allclose(a, b, rtol=1e-11)

    def test_mvnormal_returns_rotated_grid(self):
        mv = MVNormal.of([-5.0, -10.0], [[1.0, 1.0], [1.0, 2.0]])
        grid = rule_for(mv, 20)
        assert isinstance(grid, GridND)
        assert grid.points.shape == (400, 2)
        assert grid.decomposition.value == "spectral"
        mean = grid.weights @ grid.points
        np.testing.assert_allclose(mean, [-5.0, -10.0], atol=1e-10)

    @pytest.mark.parametrize("dist", [
        Normal(0.3, 2.0),
        Uniform(-1.0, 3.0),
        Exponential(1.5),
        Gamma(2.0, 0.8),
    ], ids=lambda d: d.family)
    def test_quadrature_agrees_with_sampling(self, dist):
        # smooth bounded test function; MC mean at n=1e6 carries ~1e-3 SE
        f = lambda x: expit(0.5 * x)
        quad = integrate_1d(rule_for(dist, 20), f)
        draws = f(sample(dist, 10**6, seed=77))
        se = draws.std() / math.sqrt(draws.size)
        assert abs(quad - draws.mean()) <= 4.0 * se

    def test_mvnormal_quadrature_agrees_with_sampling(self):
        mv = MVNormal.of([0.5, -0.5], [[1.0, 0.3], [0.3, 0.5]])
        f = lambda pts: expit(pts @ np.array([0.4, -0.7]))
        quad = integrate_nd(rule_for(mv, 20), f)
        draws = f(sample(mv, 10**6, seed=78))
        se = draws.std() / math.sqrt(draws.size)
        assert abs(quad - draws.mean()) <= 4.0 * se


class TestJson:
    @pytest.mark.parametrize("dist", [
        Normal(0.0, 1.0),
        Uniform(-4.0, 0.0),
        Exponential(2.0),
        Gamma(4.0, 0.5),
        MVNormal.of([-5.0, -10.0], [[1.0, 1.0], [1.0, 2.0]]),
    ], ids=lambda d: d.family)
    def test_round_trip(self, dist):
        obj = dist_to_json(dist)
        back = dist_to_json(dist_from_json(obj))
        assert obj == back

    def test_unknown_type(self):
        with pytest.raises(ValidationError, match="unknown distribution type"):
            dist_from_json({"type": "beta", "a": 1, "b": 1})

    def test_unexpected_field_has_path(self):
        with pytest.raises(ValidationError, match=r"scenario\.confounders\[0\]"):
            dist_from_json({"type": "normal", "mu": 0, "sigma2": 1, "sd": 2},
                           path="scenario.confounders[0]")

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing field"):
            dist_from_json({"type": "gamma", "shape": 1})
