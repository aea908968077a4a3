"""Tests for univariate rule construction, rescaling, and integration."""
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal
from scipy.special import eval_genlaguerre, eval_hermite

from truthquad import (
    Exponential,
    Gamma,
    NonFiniteEvaluationError,
    Normal,
    NumericDomainError,
    Uniform,
    ValidationError,
    compute_rule,
    genlaguerre_kind,
    hermite_kind,
    integrate_1d,
    laguerre_kind,
    legendre_kind,
    rescale_rule,
)
from truthquad.rules import MAX_LEVEL, _recurrence, clear_rule_cache
from truthquad.special import expit

import oracles

ALL_KINDS = [
    hermite_kind(),
    legendre_kind(),
    laguerre_kind(),
    genlaguerre_kind(0.5),
    genlaguerre_kind(3.0),
]


def kernel_moment(kind, j: int) -> float:
    """Analytic moment of x^j against the raw kernel."""
    if kind.family == "hermite":
        return math.gamma((j + 1) / 2.0) if j % 2 == 0 else 0.0
    if kind.family == "legendre":
        return 2.0 / (j + 1) if j % 2 == 0 else 0.0
    if kind.family == "laguerre":
        return math.gamma(j + 1.0)
    return math.gamma(j + kind.alpha + 1.0)


def kernel_abs_moment(kind, j: int) -> float:
    """Analytic moment of |x|^j; the scale for relative-error checks."""
    if kind.family == "hermite":
        return math.gamma((j + 1) / 2.0)
    if kind.family == "legendre":
        return 2.0 / (j + 1)
    return kernel_moment(kind, j)


class TestComputeRule:
    def test_hermite_k1(self):
        rule = compute_rule(hermite_kind(), 1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [math.sqrt(math.pi)], rtol=1e-14)

    def test_hermite_k2(self):
        rule = compute_rule(hermite_kind(), 2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-14)

    def test_laguerre_k2(self):
        # roots of L2(x) = (x^2 - 4x + 2)/2 are 2 +- sqrt(2); the classical
        # weight formula gives w_i = 1 / (x_i [L2'(x_i)]^2) = (2 -+ sqrt(2))/4
        rule = compute_rule(laguerre_kind(), 2)
        np.testing.assert_allclose(rule.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-14)
        np.testing.assert_allclose(
            rule.weights, [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rtol=1e-13
        )
        # degree-3 exactness: integral of x^3 e^{-x} over [0, inf) is 6
        np.testing.assert_allclose(rule.weights @ rule.nodes**3, 6.0, rtol=1e-13)

    def test_legendre_k3(self):
        rule = compute_rule(legendre_kind(), 3)
        np.testing.assert_allclose(rule.nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], rtol=1e-13)
        np.testing.assert_allclose(rule.weights @ rule.nodes**4, 2.0 / 5.0, rtol=1e-13)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    @pytest.mark.parametrize("level", range(1, 13))
    def test_polynomial_exactness(self, kind, level):
        rule = compute_rule(kind, level)
        for j in range(2 * level):
            estimate = float(rule.weights @ rule.nodes**j)
            exact = kernel_moment(kind, j)
            scale = kernel_abs_moment(kind, j)
            assert abs(estimate - exact) <= 1e-11 * scale, (kind, level, j)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_structure_invariants(self, kind):
        for level in (1, 2, 5, 12, 30):
            rule = compute_rule(kind, level)
            assert rule.level == level
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            np.testing.assert_allclose(rule.weights.sum(), kind.kernel_mass, rtol=1e-10)
            normalized = rule.normalize()
            np.testing.assert_allclose(normalized.weights.sum(), 1.0, rtol=0, atol=1e-12)

    def test_hermite_nodes_symmetric(self):
        for level in (2, 7, 20, 41):
            rule = compute_rule(hermite_kind(), level)
            np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
            np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=0, rtol=0)

    def test_deterministic(self):
        a = compute_rule(genlaguerre_kind(1.5), 17)
        b = compute_rule(genlaguerre_kind(1.5), 17)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            compute_rule(hermite_kind(), 0)
        with pytest.raises(ValidationError):
            compute_rule(hermite_kind(), 65)
        with pytest.raises(ValidationError):
            genlaguerre_kind(-1.0)
        with pytest.raises(ValidationError):
            genlaguerre_kind(-2.0)

    def test_warns_beyond_soft_cap(self):
        for _ in range(3):  # on every call, not only the one that builds the rule
            with pytest.warns(UserWarning, match="machine-epsilon"):
                compute_rule(hermite_kind(), 55)

    @pytest.mark.parametrize("kind", [hermite_kind(), legendre_kind(), laguerre_kind(),
                                      genlaguerre_kind(-0.5), genlaguerre_kind(2.5)], ids=str)
    @pytest.mark.parametrize("level", [1, 2, 5, 20, 50, 64])
    def test_nodes_match_scipy_tridiagonal_solver(self, kind, level):
        # a few ulp of the largest node, so another LAPACK build does not fail this
        expected = scipy_eigh_tridiagonal(*_recurrence(kind, level), eigvals_only=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K = 64 is past the soft cap
            nodes = compute_rule(kind, level).nodes
        np.testing.assert_allclose(nodes, expected, rtol=0.0,
                                   atol=8.0 * np.spacing(np.abs(expected).max()))

    def test_nodes_read_only(self):
        compute_rule(hermite_kind(), 4)
        rule = compute_rule(hermite_kind(), 4)  # from the cache
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes[0] = 99.0
        with pytest.raises(ValueError):
            rule.weights[0] = 99.0
        with pytest.raises(ValueError):
            rule.nodes.setflags(write=True)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5, 100.0, 170.5])
    def test_genlaguerre_kernel_mass_is_gamma(self, alpha):
        assert genlaguerre_kind(alpha).kernel_mass == math.gamma(alpha + 1.0)

    @pytest.mark.parametrize("alpha", [171.0, 200.0, 499.0])
    def test_genlaguerre_kernel_mass_overflow_names_alpha(self, alpha):
        with pytest.raises(NumericDomainError, match=f"alpha = {alpha}"):
            compute_rule(genlaguerre_kind(alpha), 5)


def _bits(rule):
    return rule.kind, rule.level, rule.normalized, rule.nodes.tobytes(), rule.weights.tobytes()


class TestRuleCache:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    @pytest.mark.parametrize("cached", [1, 20])
    def test_level_is_validated_before_the_lookup(self, kind, cached):
        rule = compute_rule(kind, cached)
        assert compute_rule(kind, np.int64(cached)) is rule
        # True == 1 and 20.0 == 20 hash to the cached keys
        for level in (True, 20.0, 0, MAX_LEVEL + 1):
            with pytest.raises(ValidationError):
                compute_rule(kind, level)

    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(kind=st.one_of(st.sampled_from([hermite_kind(), legendre_kind(), laguerre_kind()]),
                          st.floats(-0.99, 10.0).map(genlaguerre_kind)))
    @example(kind=hermite_kind())
    @example(kind=legendre_kind())
    @example(kind=laguerre_kind())
    def test_cached_rule_is_a_fresh_build_and_exact(self, kind):
        levels = range(1, MAX_LEVEL + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # levels past the soft cap
            cached = [compute_rule(kind, level) for level in levels]
            assert all(compute_rule(kind, level) is rule for level, rule in zip(levels, cached))
            clear_rule_cache()
            fresh = [compute_rule(kind, level) for level in levels]
        for level, rule, built in zip(levels, cached, fresh):
            assert rule is not built and _bits(rule) == _bits(built)
            for j in range(2 * level):
                estimate = float(rule.weights @ rule.nodes**j)
                assert abs(estimate - kernel_moment(kind, j)) <= 1e-11 * kernel_abs_moment(kind, j), (level, j)

    def test_threads_get_identical_rules(self):
        keys = [(kind, level) for kind in ALL_KINDS for level in (1, 2, 5, 12, 20, 33, 50)]
        want = [_bits(compute_rule(kind, level)) for kind, level in keys]
        clear_rule_cache()
        n_threads = (os.cpu_count() or 1) + 4  # more threads than cores
        barrier = threading.Barrier(n_threads)
        got = [[] for _ in range(n_threads)]

        def work(i):
            barrier.wait(timeout=30)
            for rep in range(5):
                if (i + rep) % 3 == 0:
                    clear_rule_cache()  # so that threads miss, and build, concurrently
                got[i].append([_bits(compute_rule(kind, level)) for kind, level in keys])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(reps == [want] * 5 for reps in got)


class TestExplicitWeightFormulas:
    """The classical closed-form weights agree with the eigenvalue construction."""

    @pytest.mark.parametrize("level", range(1, 13))
    def test_legendre(self, level):
        rule = compute_rule(legendre_kind(), level)
        poly = np.polynomial.legendre.Legendre.basis(level)
        dp = poly.deriv()(rule.nodes)
        explicit = 2.0 / ((1.0 - rule.nodes**2) * dp**2)
        np.testing.assert_allclose(rule.weights, explicit, rtol=1e-10)

    @pytest.mark.parametrize("level", range(1, 13))
    def test_laguerre(self, level):
        rule = compute_rule(laguerre_kind(), level)
        # L_n'(x) = -L_{n-1}^{(1)}(x)
        dp = -eval_genlaguerre(level - 1, 1.0, rule.nodes) if level > 1 else -np.ones(1)
        explicit = 1.0 / (rule.nodes * dp**2)
        np.testing.assert_allclose(rule.weights, explicit, rtol=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    @pytest.mark.parametrize("level", range(1, 13))
    def test_genlaguerre(self, alpha, level):
        rule = compute_rule(genlaguerre_kind(alpha), level)
        lnp1 = eval_genlaguerre(level + 1, alpha, rule.nodes)
        explicit = (
            math.gamma(level + alpha + 1.0) * rule.nodes
            / (math.factorial(level) * (level + 1) ** 2 * lnp1**2)
        )
        np.testing.assert_allclose(rule.weights, explicit, rtol=1e-10)

    @pytest.mark.parametrize("level", range(2, 13))
    def test_hermite_with_corrected_denominator(self, level):
        # the standard formula uses H_{K-1} at the roots (H_K vanishes there)
        rule = compute_rule(hermite_kind(), level)
        hk1 = eval_hermite(level - 1, rule.nodes)
        explicit = (
            2.0 ** (level - 1) * math.factorial(level) * math.sqrt(math.pi)
            / (level**2 * hk1**2)
        )
        np.testing.assert_allclose(rule.weights, explicit, rtol=1e-10)


class TestRescaleRule:
    def test_standard_normal(self):
        raw = compute_rule(hermite_kind(), 5)
        rule = rescale_rule(raw, Normal(0.0, 1.0))
        assert rule.normalized
        np.testing.assert_allclose(rule.nodes, math.sqrt(2.0) * raw.nodes, rtol=1e-15)
        np.testing.assert_allclose(rule.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(rule.weights @ rule.nodes**2, 1.0, atol=1e-13)

    def test_exponential_mean(self):
        rule = rescale_rule(compute_rule(laguerre_kind(), 10), Exponential(2.0))
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x), 0.5, rtol=1e-13)

    def test_gamma_mean(self):
        rule = rescale_rule(compute_rule(genlaguerre_kind(3.0), 10), Gamma(4.0, 2.0))
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x), 2.0, rtol=1e-13)

    def test_uniform_moments(self):
        rule = rescale_rule(compute_rule(legendre_kind(), 6), Uniform(-2.0, 2.0))
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x), 0.0, atol=1e-14)
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x**2), 4.0 / 3.0, rtol=1e-13)

    @pytest.mark.parametrize("dist", [
        Normal(3.0, 4.0), Uniform(-1.0, 5.0), Exponential(0.7), Gamma(2.5, 1.3),
    ], ids=lambda d: d.family)
    def test_mean_and_second_moment_exact(self, dist):
        from truthquad import rule_for

        rule = rule_for(dist, 4)
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x), dist.mean(), rtol=1e-12)
        second = dist.variance() + dist.mean() ** 2
        np.testing.assert_allclose(integrate_1d(rule, lambda x: x**2), second, rtol=1e-12)

    def test_family_mismatch(self):
        raw = compute_rule(hermite_kind(), 5)
        with pytest.raises(ValidationError, match="pairs with"):
            rescale_rule(raw, Exponential(1.0))

    def test_gamma_alpha_mismatch(self):
        raw = compute_rule(genlaguerre_kind(2.0), 5)
        with pytest.raises(ValidationError, match="shape"):
            rescale_rule(raw, Gamma(4.0, 2.0))


class TestIntegrate1D:
    def test_odd_moment_vanishes(self):
        from truthquad import rule_for

        rule = rule_for(Normal(0.0, 1.0), 5)
        assert abs(integrate_1d(rule, lambda x: x**3)) < 1e-14

    def test_expit_against_adaptive_oracle(self):
        from truthquad import rule_for

        rule = rule_for(Normal(0.0, 1.0), 20)
        value = integrate_1d(rule, lambda x: expit(1.0 - x))
        # K=20 truncation is ~2e-11 against the frozen adaptive-quad value
        np.testing.assert_allclose(value, oracles.P0_NORMAL, atol=1e-9)

    def test_requires_normalized(self):
        raw = compute_rule(hermite_kind(), 5)
        with pytest.raises(ValidationError, match="normalized"):
            integrate_1d(raw, lambda x: x)

    def test_scalar_callable_fallback(self):
        from truthquad import rule_for

        rule = rule_for(Normal(2.0, 1.0), 8)
        with pytest.warns(RuntimeWarning, match=r"TypeError\(.*point by point"):
            value = integrate_1d(rule, lambda x: float(x) ** 2)
        np.testing.assert_allclose(value, 5.0, rtol=1e-12)

    def test_non_finite_identifies_node(self):
        from truthquad import rule_for

        rule = rule_for(Exponential(1.0), 6)
        with pytest.raises(NonFiniteEvaluationError, match="node index 0"):
            integrate_1d(rule, lambda x: np.where(x == rule.nodes[0], np.nan, 1.0))

    def test_non_finite_value_printed_as_plain_float(self):
        from truthquad import rule_for

        rule = rule_for(Exponential(1.0), 6)
        with pytest.raises(NonFiniteEvaluationError, match=r"returned inf at node index 2, at point \d"):
            integrate_1d(rule, lambda x: np.where(x == rule.nodes[2], np.inf, 1.0))

    def test_wrong_shape_falls_back_with_warning_at_caller(self):
        from truthquad import rule_for

        rule = rule_for(Normal(0.0, 1.0), 4)
        with pytest.warns(RuntimeWarning, match=r"returned shape \(\), not \(4,\)") as record:
            value = integrate_1d(rule, lambda x: 1.0)
        np.testing.assert_allclose(value, 1.0, rtol=1e-14)
        assert [w.filename for w in record] == [__file__]

    def test_package_errors_propagate_without_fallback(self):
        from truthquad import rule_for

        def out_of_domain(x):
            raise ValidationError("rate must be positive")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="rate must be positive"):
                integrate_1d(rule_for(Normal(0.0, 1.0), 4), out_of_domain)
