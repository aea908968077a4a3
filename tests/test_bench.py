"""Tests for the convergence and dimension sweeps (small, fast configurations)."""
import pytest

from truthquad import ClosedFormCase, ValidationError
from truthquad.bench import (
    SweepSpec,
    convergence_csv,
    convergence_sweep,
    dimension_csv,
    dimension_sweep,
)


def small_spec(**overrides):
    base = dict(
        case=ClosedFormCase.EXPONENTIAL,
        k_values=tuple(range(2, 11)),
        dims=(1, 2, 3),
        dim_level=3,
        mc_sizes=(2000,),
        mc_reps=10,
        timing_reps=2,
        seed_base=77,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestConvergenceSweep:
    def test_bias_decreases_with_k(self):
        rows = convergence_sweep(small_spec())
        quad = [r for r in rows if r.method == "quadrature"]
        biases = [r.bias for r in quad]
        assert all(b >= 0 for b in biases)
        assert all(later < earlier for earlier, later in zip(biases, biases[1:]))

    def test_mc_reference_rows_present(self):
        rows = convergence_sweep(small_spec())
        mc_rows = [r for r in rows if r.method == "mc_integration"]
        assert len(mc_rows) == 1
        assert mc_rows[0].n_samples == 2000
        assert mc_rows[0].bias > 0

    def test_timing_positive(self):
        rows = convergence_sweep(small_spec(k_values=(2, 3)))
        assert all(r.seconds > 0 for r in rows)

    def test_ranges_validated(self):
        with pytest.raises(ValidationError):
            small_spec(k_values=(5, 3))
        with pytest.raises(ValidationError):
            small_spec(dims=())


    def test_each_timed_run_builds_its_rules(self, monkeypatch):
        import truthquad.rules
        from truthquad import odds_ratio_truth, scenario_for_case
        from truthquad.bench import _median_seconds

        builds = []
        real = truthquad.rules.eigh_tridiagonal
        monkeypatch.setattr(truthquad.rules, "eigh_tridiagonal",
                            lambda diag, off: builds.append(len(diag)) or real(diag, off))
        scenario = scenario_for_case(ClosedFormCase.EXPONENTIAL)  # both confounders take one laguerre rule
        per_run = []

        def run():
            before = len(builds)
            odds_ratio_truth(scenario, 10)
            per_run.append(len(builds) - before)

        _median_seconds(run, reps=4)
        assert per_run == [1] * 5  # the warm-up and each of the 4 timed runs


class TestDimensionSweep:
    def test_rows_per_dimension_and_method(self):
        rows = dimension_sweep(small_spec())
        assert len(rows) == 6  # quadrature + mc per dimension
        for dim in (1, 2, 3):
            methods = {r.method for r in rows if r.dim == dim}
            assert methods == {"quadrature", "mc_integration"}

    def test_budget_exceeded_marks_skipped(self):
        rows = dimension_sweep(small_spec(dims=(1, 2, 3), point_budget=8))
        skipped = [r for r in rows if r.skipped]
        assert [r.dim for r in skipped] == [2, 3]  # 3^2 and 3^3 exceed a budget of 8
        assert all(r.method == "quadrature" for r in skipped)
        # the MC rows still ran
        assert sum(r.method == "mc_integration" and not r.skipped for r in rows) == 3


class TestCsvOutput:
    def test_convergence_csv_shape(self):
        rows = convergence_sweep(small_spec(k_values=(2, 3, 4)))
        lines = convergence_csv(rows).strip().splitlines()
        assert lines[0] == "method,K,n_samples,bias,seconds"
        assert len(lines) == 1 + len(rows)

    def test_dimension_csv_shape(self):
        rows = dimension_sweep(small_spec(dims=(1, 2)))
        lines = dimension_csv(rows).strip().splitlines()
        assert lines[0] == "D,method,seconds"
        assert len(lines) == 1 + len(rows)

    def test_bias_values_not_clamped(self):
        # deep-convergence rows report raw values all the way to the floor
        rows = convergence_sweep(small_spec(k_values=(20, 30), mc_sizes=(500,), mc_reps=3))
        quad = [r for r in rows if r.method == "quadrature"]
        assert all(0 <= r.bias < 1e-10 for r in quad)
