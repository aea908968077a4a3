"""Tests for the logistic, polylogarithms, zeta constant, and closed forms."""
import math

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from truthquad import (
    ClosedFormCase,
    ValidationError,
    ZETA5,
    closed_form_odds_ratio,
    closed_form_probs,
    dilog,
    expit,
    polylog5,
    zeta5_partial_sum,
)

import oracles


class TestExpit:
    def test_center(self):
        assert expit(0.0) == 0.5

    def test_classic_value(self):
        np.testing.assert_allclose(expit(-1.0), 1.0 / (1.0 + math.e), rtol=1e-15)

    def test_no_overflow_at_700(self):
        with np.errstate(over="raise"):
            assert expit(700.0) == 1.0
            assert expit(-700.0) == pytest.approx(0.0, abs=1e-300)

    def test_finite_up_to_1e3(self):
        xs = np.linspace(-1000.0, 1000.0, 2001)
        with np.errstate(over="raise"):
            values = expit(xs)
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) >= 0.0)

    def test_complement_identity(self):
        xs = np.linspace(-40.0, 40.0, 401)
        np.testing.assert_allclose(expit(xs) + expit(-xs), 1.0, atol=1e-15)

    def test_array_and_scalar_forms(self):
        assert isinstance(expit(1.2), float)
        assert expit(np.array([0.0, 1.0])).shape == (2,)

    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    def test_out_gives_the_same_bytes(self, in_place):
        xs = np.array([0.0, -0.0, 750.0, -750.0, np.inf, -np.inf, np.nan, 1.5, -36.7])
        expected = expit(xs).tobytes()
        buf = xs.copy() if in_place else np.full_like(xs, 7.0)
        assert expit(buf if in_place else xs, out=buf) is buf
        assert buf.tobytes() == expected

    @pytest.mark.parametrize("x", [0.0, 750.0, -750.0, np.inf, -np.inf, np.nan, -1.25])
    def test_scalar_out_gives_the_same_bytes(self, x):
        buf = np.empty(())
        assert expit(x, out=buf) is buf
        assert buf.tobytes() == np.float64(expit(x)).tobytes()

    def test_matches_scipy_on_grid(self):
        xs = np.linspace(-50.0, 50.0, 100001)
        np.testing.assert_allclose(expit(xs), scipy_expit(xs), rtol=1e-15, atol=0.0)

    def test_matches_scipy_at_special_values(self):
        xs = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
        np.testing.assert_array_equal(expit(xs), scipy_expit(xs))

    def test_no_floating_point_error_on_finite_input(self):
        big = np.logspace(-5.0, 308.0, 500)
        xs = np.concatenate([-big, big, np.linspace(-800.0, 800.0, 3201)])
        assert np.isfinite(xs).all()
        with np.errstate(over="raise", invalid="raise"):
            expit(xs)
            expit(-1e308)
            expit(1e308)


class TestDilog:
    def test_zero(self):
        assert dilog(0.0) == 0.0

    def test_one(self):
        np.testing.assert_allclose(dilog(1.0), math.pi**2 / 6.0, rtol=1e-15)

    def test_minus_one(self):
        np.testing.assert_allclose(dilog(-1.0), -math.pi**2 / 12.0, rtol=1e-14)

    @pytest.mark.parametrize("z, expected", [
        (-math.e, oracles.LI2_NEG_E),
        (-1.0 / math.e, oracles.LI2_NEG_EINV),
        (-math.e**-3, oracles.LI2_NEG_E3INV),
        (-math.e**-2, oracles.LI2_NEG_E2INV),
        (-math.e**-4, oracles.LI2_NEG_E4INV),
        (-2.0, oracles.LI2_NEG_2),
        (-5.0, oracles.LI2_NEG_5),
        (0.5, oracles.LI2_HALF),
    ])
    def test_frozen_values(self, z, expected):
        np.testing.assert_allclose(dilog(z), expected, atol=1e-13)

    @pytest.mark.parametrize("z", [-math.e, -2.0, -5.0])
    def test_inversion_identity(self, z):
        residual = dilog(z) + dilog(1.0 / z) + math.pi**2 / 6.0 + 0.5 * math.log(-z) ** 2
        assert abs(residual) < 1e-12

    def test_against_mpmath_grid(self):
        mpmath = pytest.importorskip("mpmath")
        for z in np.linspace(-10.0, 1.0, 45):
            np.testing.assert_allclose(dilog(float(z)), float(mpmath.polylog(2, float(z))),
                                       atol=1e-13)

    def test_rejects_beyond_one(self):
        with pytest.raises(ValidationError):
            dilog(1.5)


class TestPolylog5:
    def test_zero(self):
        assert polylog5(0.0) == 0.0

    def test_leading_term_dominates(self):
        z = 1e-8
        assert abs(polylog5(z) - z) < 1e-16

    def test_against_direct_summation(self):
        # independent oracle: direct 200-term summation
        z = -1.0 / math.e
        direct = sum(z**k / k**5 for k in range(1, 201))
        np.testing.assert_allclose(polylog5(z), direct, atol=1e-15)
        np.testing.assert_allclose(polylog5(z), oracles.LI5_NEG_EINV, atol=1e-15)
        np.testing.assert_allclose(polylog5(-math.e**-2), oracles.LI5_NEG_E2INV, atol=1e-15)

    @pytest.mark.parametrize("z", [1.0, -1.0, 2.0])
    def test_domain(self, z):
        with pytest.raises(ValidationError):
            polylog5(z)


class TestZeta5:
    def test_partial_sum_bracket(self):
        # the tail of sum k^-5 is monotonically bounded by integrals:
        # 1/(4(n+1)^4) < tail < 1/(4 n^4)
        partial = zeta5_partial_sum(200)
        lower = partial + 0.25 / 201**4
        upper = partial + 0.25 / 200**4
        assert 1.03692 < lower <= ZETA5 <= upper < 1.03693

    def test_against_frozen(self):
        np.testing.assert_allclose(ZETA5, oracles.ZETA5_REF, rtol=1e-15)


class TestClosedForms:
    def test_exponential_p0_is_two_thirds(self):
        p0, _ = closed_form_probs(ClosedFormCase.EXPONENTIAL)
        assert p0 == 2.0 / 3.0

    def test_frozen_values(self):
        p0, p1 = closed_form_probs(ClosedFormCase.EXPONENTIAL)
        np.testing.assert_allclose([p0, p1], [oracles.P0_EXPONENTIAL, oracles.P1_EXPONENTIAL],
                                   rtol=1e-14)
        p0, p1 = closed_form_probs(ClosedFormCase.GAMMA)
        np.testing.assert_allclose([p0, p1], [oracles.P0_GAMMA, oracles.P1_GAMMA], rtol=1e-14)
        p0, p1 = closed_form_probs(ClosedFormCase.UNIFORM)
        np.testing.assert_allclose([p0, p1], [oracles.P0_UNIFORM, oracles.P1_UNIFORM], rtol=1e-13)

    def test_all_probabilities(self):
        for case in ClosedFormCase:
            p0, p1 = closed_form_probs(case)
            assert 0.0 < p0 < 1.0 and 0.0 < p1 < 1.0

    def test_odds_ratio_composition(self):
        p0, p1 = closed_form_probs(ClosedFormCase.EXPONENTIAL)
        expected = (p1 / (1 - p1)) / (p0 / (1 - p0))
        assert closed_form_odds_ratio(ClosedFormCase.EXPONENTIAL) == expected

    def test_accepts_string_value(self):
        assert closed_form_probs("gamma") == closed_form_probs(ClosedFormCase.GAMMA)
