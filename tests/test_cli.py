"""CLI tests: subcommands, exit codes, config validation, API equivalence."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from truthquad import Normal, odds_ratio_truth
from truthquad.cli import main

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def run(*args):
    return CliRunner().invoke(main, list(args))


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def small_confounding_config(tmp_path, **method):
    obj = {
        "schema_version": 1,
        "id": "test-normal",
        "scenario": {
            "kind": "confounding",
            "beta0": 1.0, "beta1": 1.0, "beta2": [-1.0],
            "confounders": [{"type": "normal", "mu": 0.0, "sigma2": 1.0}],
        },
        "method": {"level": 20, "n_samples": 5000, "n_reps": 20, "seed": 7, **method},
    }
    return write_config(tmp_path, obj)


class TestRuleCommand:
    def test_raw_hermite_weights_sum(self):
        result = run("rule", "--kind", "hermite", "--k", "5")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()
        assert rows[0] == "index,node,weight"
        assert len(rows) == 6
        total = sum(float(r.split(",")[2]) for r in rows[1:])
        assert abs(total - math.sqrt(math.pi)) < 1e-12

    def test_normalized_when_distribution_given(self):
        result = run("rule", "--kind", "hermite", "--k", "5", "--normal", "0", "1")
        assert result.exit_code == 0
        total = sum(float(r.split(",")[2]) for r in result.output.strip().splitlines()[1:])
        assert abs(total - 1.0) < 1e-12

    def test_invalid_alpha_exits_2(self):
        result = run("rule", "--kind", "genlaguerre", "--alpha", "-2", "--k", "5")
        assert result.exit_code == 2
        assert "alpha must exceed -1" in result.output

    def test_writes_file_atomically(self, tmp_path):
        out = tmp_path / "rule.csv"
        result = run("rule", "--kind", "legendre", "--k", "3", "--out", str(out))
        assert result.exit_code == 0
        assert out.exists()
        assert out.read_text().startswith("index,node,weight")
        assert not list(tmp_path.glob("*.tmp"))


class TestGridCommand:
    def test_rotated_grid_table(self):
        result = run("grid", "--k", "5", "--dim", "2",
                     "--mean", "[0,0]",
                     "--cov", f"[[1,{math.sqrt(0.5)}],[{math.sqrt(0.5)},1]]",
                     "--decomposition", "spectral")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()
        assert rows[0] == "x1,x2,weight"
        assert len(rows) == 26
        weights = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert abs(weights.sum() - 1.0) < 1e-11

    def test_mean_without_cov_rejected(self):
        result = run("grid", "--k", "2", "--dim", "2", "--mean", "[0,0]")
        assert result.exit_code == 2


class TestTruthCommand:
    def test_exponential_case_p0(self, tmp_path):
        result = run("truth", "--config", str(CONFIG_DIR / "confounding_exponential.json"))
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["results"]["p0"] - 2.0 / 3.0) < 1e-9

    def test_cli_matches_library_bit_for_bit(self, tmp_path):
        from truthquad import ConfoundingScenario

        config = small_confounding_config(tmp_path)
        result = run("truth", "--config", config)
        payload = json.loads(result.output)
        scenario = ConfoundingScenario(1.0, 1.0, np.array([-1.0]), (Normal(0.0, 1.0),))
        expected = odds_ratio_truth(scenario, 20)
        assert payload["results"]["odds_ratio"] == expected["odds_ratio"]
        assert payload["results"]["p0"] == expected["p0"]
        assert payload["results"]["p1"] == expected["p1"]

    def test_rmst_null_mediator_nie_zero(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "rmst-null",
            "scenario": {"kind": "rmst", "beta_m": 0.0},
            "method": {"level": 16},
        })
        result = run("truth", "--config", config)
        assert result.exit_code == 0
        assert json.loads(result.output)["results"]["NIE"] == 0.0

    def test_rmst_rate_underflow_gives_limit(self, tmp_path):
        # exp(log_rate) underflows to 0 at outer mediator nodes; the RMST there is tau
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "rmst-underflow",
            "scenario": {"kind": "rmst", "beta_m": -200},
            "method": {"level": 20},
        })
        result = run("truth", "--config", config)
        assert result.exit_code == 0, result.output
        values = json.loads(result.output[result.output.index("{"):])["results"]
        assert all(math.isfinite(values[k]) for k in ("TE", "NDE", "NIE"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["truth", "compare"])
    @pytest.mark.parametrize("beta_m", [-200, 200])
    def test_rmst_extreme_rates_print_no_warning(self, tmp_path, command, beta_m):
        # exp(log_rate) underflows to 0 or overflows to inf at outer mediator
        # values; the RMST there is its limit (tau or 0), with no warning
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "rmst-extreme",
            "scenario": {"kind": "rmst", "beta_m": beta_m},
            "method": {"level": 20, "n_samples": 2000, "n_reps": 3, "seed": 1},
        })
        result = run(command, "--config", config)
        assert result.exit_code == 0, result.output
        if command == "truth":
            values = json.loads(result.output)["results"].values()
        else:
            rows = result.output.strip().splitlines()[1:]
            values = [float(f) for row in rows for f in row.split(",")[2:4]]
        assert all(math.isfinite(v) for v in values)

    def test_csv_output(self, tmp_path):
        config = small_confounding_config(tmp_path)
        out_csv = tmp_path / "truth.csv"
        result = run("truth", "--config", config, "--out-json", str(tmp_path / "t.json"),
                     "--out-csv", str(out_csv))
        assert result.exit_code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "scenario,estimand,method,k_or_n,value,se,t"
        assert {l.split(",")[1] for l in lines[1:]} == {"p0", "p1", "odds_ratio"}

    def test_hr_series_rows(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "hr-small",
            "scenario": {"kind": "hr", "t_grid": {"start": 0.5, "stop": 2.0, "num": 4}},
            "method": {"level": 12},
        })
        out_csv = tmp_path / "hr.csv"
        result = run("truth", "--config", config, "--out-csv", str(out_csv))
        assert result.exit_code == 0
        lines = out_csv.read_text().strip().splitlines()
        series_rows = [l for l in lines if "(t)" in l]
        assert len(series_rows) == 12  # 3 effects x 4 time points


class TestNumericDomainExit:
    @staticmethod
    def hr_config(tmp_path, **scenario):
        obj = json.loads((CONFIG_DIR / "hr_mediation.json").read_text())
        obj["scenario"].update(scenario)
        return write_config(tmp_path, obj)

    def test_non_finite_integrand_exits_3(self, tmp_path):
        result = run("truth", "--config", self.hr_config(tmp_path, beta_m=100))
        assert result.exit_code == 3
        assert "integrand returned nan at node index" in result.output

    def test_survival_underflow_exits_3(self, tmp_path):
        result = run("truth", "--config", self.hr_config(tmp_path, t_grid=[1, 10000]))
        assert result.exit_code == 3
        assert "t_grid upper bound" in result.output


CONFOUNDING = {"kind": "confounding", "beta0": 1.0, "beta1": 1.0, "beta2": [-1.0],
               "confounders": [{"type": "normal", "mu": 0.0, "sigma2": 1.0}]}


class TestConfigValidation:
    @pytest.mark.parametrize("scenario,method,path", [
        ({"kind": "rmst", "betaX": 1.0}, {}, "config.scenario.betaX"),
        ({"kind": "cde", "beta": 5}, {}, "config.scenario.beta"),
        ({"kind": "cde", "beta": [1, 2, 3, 4, 5, None]}, {}, "config.scenario.beta[5]"),
        ({"kind": "rmst"}, {"level": None}, "config.method.level"),
        ({"kind": "rmst"}, {"level": 20.9}, "config.method.level"),
        ({"kind": "rmst"}, {"level": True}, "config.method.level"),
        ({"kind": "rmst"}, {"n_samples": "10"}, "config.method.n_samples"),
        ({"kind": "rmst"}, {"hr_t_subset": 0}, "config.method.hr_t_subset"),
        ({**CONFOUNDING, "beta0": float("nan")}, {}, "config.scenario.beta0"),
        ({**CONFOUNDING, "beta2": [float("inf")]}, {}, "config.scenario.beta2[0]"),
        ({**CONFOUNDING, "confounders": [{"type": "normal", "mu": "0", "sigma2": 1.0}]}, {},
         "config.scenario.confounders[0].mu"),
        ({"kind": "rmst", "tau": 10**400}, {}, "config.scenario.tau"),
        ({"kind": "hr", "t_grid": {"start": 0.5, "stop": 2.0, "num": 0}}, {},
         "config.scenario.t_grid.num"),
    ], ids=["unknown-field", "beta-not-a-list", "beta-null-entry", "level-null", "level-float",
            "level-bool", "n_samples-string", "hr_t_subset-zero", "beta0-nan", "beta2-inf",
            "mu-string", "tau-overflow", "t_grid-num-zero"])
    def test_unknown_field_reports_path(self, tmp_path, scenario, method, path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "bad",
            "scenario": scenario,
            "method": method,
        })
        result = run("compare" if method else "truth", "--config", config)
        assert result.exit_code == 2, result.output
        assert path in result.output

    def test_unknown_scenario_kind(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1, "id": "bad", "scenario": {"kind": "diff-in-diff"},
        })
        result = run("truth", "--config", config)
        assert result.exit_code == 2
        assert "unknown kind" in result.output

    def test_wrong_schema_version(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 2, "id": "bad", "scenario": {"kind": "rmst"},
        })
        result = run("truth", "--config", config)
        assert result.exit_code == 2


class TestMCCommand:
    def test_rows_per_rep_plus_summary(self, tmp_path):
        config = small_confounding_config(tmp_path)
        result = run("mc", "--config", config)
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("scenario,method,estimand,rep,estimate,seconds")
        body = lines[1:]
        assert sum(",summary," in l for l in body) == 3  # p0, p1, odds_ratio
        assert sum(",0," in l for l in body) >= 3

    def test_missing_seed_is_error(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "no-seed",
            "scenario": {"kind": "rmst"},
            "method": {"n_samples": 100, "n_reps": 5},
        })
        result = run("mc", "--config", config)
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_seed_flag_overrides(self, tmp_path):
        def estimates(output):
            # drop the wall-clock seconds column; estimates are the seed contract
            return [tuple(f.split(",")[:5]) for f in output.strip().splitlines()]

        config = small_confounding_config(tmp_path)
        a = run("mc", "--config", config, "--seed", "1234")
        b = run("mc", "--config", config, "--seed", "1234")
        c = run("mc", "--config", config, "--seed", "99")
        assert estimates(a.output) == estimates(b.output)
        assert estimates(a.output) != estimates(c.output)

    def test_po_sim_only_for_confounding(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "rmst",
            "scenario": {"kind": "rmst"},
            "method": {"n_samples": 100, "n_reps": 5, "seed": 3},
        })
        result = run("mc", "--config", config, "--method", "potential_outcome_sim")
        assert result.exit_code == 2


class TestConfoundingPasses:
    @pytest.mark.parametrize("argv", [["compare"], ["mc", "--method", "potential_outcome_sim"],
                                      ["mc", "--method", "mc_integration"]])
    def test_one_repetition_pass_per_command(self, tmp_path, monkeypatch, argv):
        import truthquad.mc as mc_mod

        obj = json.loads((CONFIG_DIR / "confounding_normal.json").read_text())
        obj["method"].update(n_samples=500, n_reps=3)
        config = write_config(tmp_path, obj)
        calls = []
        real = mc_mod._run_reps
        monkeypatch.setattr(mc_mod, "_run_reps", lambda *a, **k: calls.append(1) or real(*a, **k))
        result = run(*argv, "--config", config)
        assert result.exit_code == 0, result.output
        assert len(calls) == 1


class TestCompareCommand:
    def test_consistent_z_scores(self, tmp_path):
        config = small_confounding_config(tmp_path)
        result = run("compare", "--config", config)
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        header = lines[0].split(",")
        z_idx = header.index("z_score")
        for line in lines[1:]:
            assert abs(float(line.split(",")[z_idx])) < 6

    def test_null_treatment_gives_unit_odds_ratio(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "null",
            "scenario": {
                "kind": "confounding",
                "beta0": 0.5, "beta1": 0.0, "beta2": [0.4],
                "confounders": [{"type": "normal", "mu": 0.0, "sigma2": 1.0}],
            },
            "method": {"level": 16, "n_samples": 4000, "n_reps": 15, "seed": 5},
        })
        result = run("compare", "--config", config)
        assert result.exit_code == 0
        row = [l for l in result.output.splitlines() if l.startswith("null,odds_ratio")][0]
        fields = row.split(",")
        assert abs(float(fields[2]) - 1.0) < 1e-10  # quadrature
        assert abs(float(fields[3]) - 1.0) < 0.05   # mc mean

    def test_rmst_compare_rows(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "rmst-small",
            "scenario": {"kind": "rmst"},
            "method": {"level": 16, "n_samples": 2000, "n_reps": 15, "seed": 6},
        })
        result = run("compare", "--config", config)
        assert result.exit_code == 0
        estimands = {l.split(",")[1] for l in result.output.strip().splitlines()[1:]}
        assert {"TE", "NDE", "NIE"} <= estimands

    def test_hr_compare_uses_t_subset(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1,
            "id": "hr-small",
            "scenario": {"kind": "hr", "t_grid": {"start": 0.5, "stop": 2.5, "num": 5}},
            "method": {"level": 12, "n_samples": 2000, "n_reps": 10, "seed": 4,
                       "hr_t_subset": 3},
        })
        result = run("compare", "--config", config)
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        estimands = {l.split(",")[1] for l in lines[1:]}
        assert len(estimands) == 9  # 3 effects x 3 thinned time points
        assert "NDE(t=0.5)" in estimands


class TestBenchCommand:
    def test_convergence_file(self, tmp_path):
        out = tmp_path / "convergence.csv"
        result = run("bench", "convergence", "--k-min", "1", "--k-max", "3",
                     "--mc-n", "1000", "--mc-reps", "3", "--timing-reps", "1",
                     "--seed", "1", "--out", str(out))
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,K,n_samples,bias,seconds"
        assert len(lines) == 5  # 3 quadrature rows + 1 mc row + header

    def test_dimension_file(self, tmp_path):
        out = tmp_path / "dimension.csv"
        result = run("bench", "dimension", "--d-max", "2", "--k", "3",
                     "--mc-n", "1000", "--timing-reps", "1", "--seed", "1",
                     "--out", str(out))
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "D,method,seconds"
        assert len(lines) == 5

    def test_seed_required(self):
        result = run("bench", "convergence", "--k-max", "2")
        assert result.exit_code == 2


class TestExampleConfigs:
    @pytest.mark.parametrize("name", [
        "confounding_normal", "confounding_bivariate_normal", "confounding_uniform",
        "confounding_exponential", "confounding_gamma", "cde_identity",
        "rmst_mediation", "hr_mediation",
    ])
    def test_all_example_configs_parse_and_run(self, name):
        from truthquad.config import load_config
        from truthquad.cli import _compute_truth

        config = load_config(CONFIG_DIR / f"{name}.json")
        result = _compute_truth(config)
        assert result.method == "quadrature"
        assert all(np.isfinite(v) for v in result.components().values())


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would add ~0.45 s to every command
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, truthquad, truthquad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"
