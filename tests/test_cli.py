"""CLI tests: subcommands, exit codes, config validation, API equivalence."""
import gc
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
SRC = str(Path(__file__).parent.parent / "src")


def run(*args):
    return CliRunner().invoke(main, list(args))


def python(*argv):
    """A fresh interpreter on this checkout's source."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


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

    def test_kernel_mass_overflow_exits_3(self):
        result = run("rule", "--kind", "genlaguerre", "--alpha", "200", "--k", "5")
        assert result.exit_code == 3
        assert "alpha = 200.0" in result.output
        assert isinstance(result.exception, SystemExit)

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

    def test_gamma_kernel_mass_overflow_exits_3(self, tmp_path):
        obj = json.loads((CONFIG_DIR / "confounding_gamma.json").read_text())
        obj["scenario"]["confounders"][0]["shape"] = 500.0
        result = run("truth", "--config", write_config(tmp_path, obj))
        assert result.exit_code == 3
        assert "alpha = 499.0" in result.output
        assert isinstance(result.exception, SystemExit)

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
        ({"kind": ["rmst"]}, {}, "config.scenario.kind"),
    ], ids=["unknown-field", "beta-not-a-list", "beta-null-entry", "level-null", "level-float",
            "level-bool", "n_samples-string", "hr_t_subset-zero", "beta0-nan", "beta2-inf",
            "mu-string", "tau-overflow", "t_grid-num-zero", "kind-list"])
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

    @pytest.mark.parametrize("name,edit,path", [
        ("cde_identity", {"link": 5}, "config.scenario.link"),
        ("cde_identity", {"a_star": 1}, "config.scenario"),
        ("confounding_normal", {"confounders": []}, "config.scenario"),
        ("confounding_normal", {"beta2": [1.0, 2.0]}, "config.scenario"),
        ("confounding_bivariate_normal",
         {"confounders": {"type": "mvnormal", "mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}},
         "config.scenario.confounders"),
        ("confounding_bivariate_normal",
         {"confounders": {"type": "mvnormal", "mean": [0.0, 0.0], "cov": [[1.0], [0.0, 1.0]]}},
         "config.scenario.confounders"),
        ("confounding_normal", {"confounders": [{"type": "normal", "mu": 0.0, "sigma2": 0}]},
         "config.scenario.confounders[0]"),
        ("confounding_normal", {"confounders": [{"type": ["normal"], "mu": 0.0, "sigma2": 1.0}]},
         "config.scenario.confounders[0].type"),
        ("hr_mediation", {"t_grid": [-1, 2]}, "config.scenario"),
        ("rmst_mediation", {"tau": 0}, "config.scenario"),
        ("cde_identity", {"u": {"sigma2": 0.0}}, "config.scenario.u"),
        ("cde_identity", {"c": {"mu": 0.0, "kind": "normal"}}, "config.scenario.c.kind"),
        ("cde_identity", {"u": {"kind": "normal"}}, "config.scenario.u.kind"),
        ("cde_identity", {"l": {"kind": "l"}}, "config.scenario.l.kind"),
        ("hr_mediation", {"t_grid": {"start": 0.1, "stop": 5.0, "num": 5, "kind": "t"}},
         "config.scenario.t_grid.kind"),
    ], ids=["link-int", "a-equals-a_star", "no-confounders", "beta2-length", "cov-not-pd",
            "cov-ragged", "sigma2-zero", "type-list", "t_grid-negative", "tau-zero", "u-sigma2-zero",
            "c-kind", "u-kind", "l-kind", "t_grid-kind"])
    def test_rejected_value_names_its_block(self, tmp_path, name, edit, path):
        obj = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        obj["scenario"].update(edit)
        result = run("truth", "--config", write_config(tmp_path, obj))
        assert result.exit_code == 2, result.output
        assert f"error: {path}: " in result.output

    @pytest.mark.parametrize("command,edit,path", [
        ("truth", {"scenario": {"t_grid": {"start": 0.1, "stop": 5.0, "num": 2 * 10**6}}},
         "config.scenario.t_grid.num"),
        ("truth", {"scenario": {"t_grid": {"start": 0.1, "stop": 5.0, "num": 10**12}}},
         "config.scenario.t_grid.num"),
        ("truth", {"scenario": {"t_grid": [float(t) for t in range(1, 10_002)]}}, "config.scenario.t_grid"),
        ("mc", {"method": {"n_samples": 10**7 + 1}}, "config.method.n_samples"),
        ("compare", {"method": {"n_samples": 10**12}}, "config.method.n_samples"),
        ("mc", {"method": {"n_reps": 10**4 + 1}}, "config.method.n_reps"),
        ("compare", {"method": {"n_reps": 10**12}}, "config.method.n_reps"),
        ("truth", {"method": {"level": 65}}, "config.method.level"),
        ("mc", {"method": {"level": 65}}, "config.method.level"),
        ("compare", {"method": {"level": 65}}, "config.method.level"),
    ], ids=["num-2e6", "num-1e12", "list-10001", "n_samples-over", "n_samples-1e12", "n_reps-over",
            "n_reps-1e12", "truth-level-65", "mc-level-65", "compare-level-65"])
    def test_over_budget_size_exits_2_before_any_work(self, tmp_path, monkeypatch, command, edit, path):
        import truthquad.mc as mc_mod
        from truthquad.config import MAX_T_POINTS

        obj = json.loads((CONFIG_DIR / "hr_mediation.json").read_text())
        for block, values in edit.items():
            obj[block].update(values)
        config = write_config(tmp_path, obj)
        linspace = np.linspace

        def small_linspace(start, stop, num=50, **kwargs):
            assert num <= MAX_T_POINTS, f"linspace of {num} points built for an over-budget config"
            return linspace(start, stop, num, **kwargs)

        def no_reps(*args, **kwargs):
            raise AssertionError("Monte Carlo repetitions started for an over-budget config")

        monkeypatch.setattr(np, "linspace", small_linspace)
        monkeypatch.setattr(mc_mod, "_run_reps", no_reps)
        result = run(command, "--config", config)
        assert result.exit_code == 2, result.output
        assert f"error: {path}: " in result.output

    @pytest.mark.parametrize("config_id", ["a,b\nc", "a,b", None, "", 'say "hi"', "a\rb", "a\nb", 7,
                                           ["id"]],
                             ids=["comma-newline", "comma", "null", "empty", "quote", "cr", "lf", "int",
                                  "list"])
    def test_id_must_be_one_plain_csv_cell(self, tmp_path, config_id):
        obj = json.loads((CONFIG_DIR / "rmst_mediation.json").read_text())
        obj["id"] = config_id
        result = run("truth", "--config", write_config(tmp_path, obj))
        assert result.exit_code == 2, result.output
        assert "error: config.id: " in result.output

    def test_cde_beta_defaults_like_every_other_field(self):
        from truthquad import CDEScenario
        from truthquad.config import parse_config

        obj = {"schema_version": 1, "id": "cde", "scenario": {"kind": "cde"}}
        assert parse_config(obj).scenario == CDEScenario()

    def test_unknown_scenario_kind(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": 1, "id": "bad", "scenario": {"kind": "diff-in-diff"},
        })
        result = run("truth", "--config", config)
        assert result.exit_code == 2
        assert "unknown kind" in result.output

    @pytest.mark.parametrize("l_block", [{}, None], ids=["empty", "null"])
    def test_empty_cde_l_block_gives_defaults(self, l_block):
        from truthquad import CDEScenario, LModel
        from truthquad.config import parse_config

        scenario = {"kind": "cde", "beta": [0.0, 8.0, 1.0, 0.5, 4.0, 0.25]}

        def parse(**extra):
            return parse_config({"schema_version": 1, "id": "cde",
                                 "scenario": {**scenario, **extra}}).scenario

        assert parse(l=l_block) == parse() == CDEScenario()
        assert parse(l={"sigma2": 2.0}).l_model == LModel(sigma2=2.0)

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


class TestJobs:
    @pytest.mark.parametrize("command", [["compare"], ["mc"], ["mc", "--method", "potential_outcome_sim"]])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, command, jobs):
        result = run(*command, "--config", small_confounding_config(tmp_path), "--jobs", jobs)
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output

    def test_failing_rep_under_threads_exits_3(self, tmp_path):
        # P(Y=1) rounds to 1 in every draw, so every rep's odds ratio is undefined
        config = write_config(tmp_path, {
            "schema_version": 1, "id": "degenerate",
            "scenario": {**CONFOUNDING, "beta0": 50.0},
            "method": {"level": 20, "n_samples": 2000, "n_reps": 3, "seed": 7},
        })
        result = run("mc", "--config", config, "--jobs", "2")
        assert result.exit_code == 3
        assert "degenerate probability" in result.output


class TestProcessEntry:
    def test_in_process_command_leaves_gc_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        result = run("compare", "--config", small_confounding_config(tmp_path), "--jobs", "2")
        assert result.exit_code == 0, result.output
        assert gc.get_freeze_count() == before

    def test_run_freezes_then_dispatches(self, monkeypatch):
        import truthquad.cli as cli

        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main"))
        cli.run()
        assert calls == ["freeze", "main"]

    def test_module_entry_runs_a_command(self, tmp_path):
        result = python("-m", "truthquad.cli", "compare", "--config", small_confounding_config(tmp_path),
                        "--jobs", "2")
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout.startswith("scenario,estimand,quad_value,")
        assert len(result.stdout.splitlines()) == 4


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

    def test_hr_truth_only_at_the_compared_time_points(self, tmp_path, monkeypatch):
        import truthquad.scenarios as scenarios
        from truthquad.mc import hr_estimand

        obj = json.loads((CONFIG_DIR / "hr_mediation.json").read_text())
        obj["method"].update(n_samples=200, n_reps=3)
        times = []
        hazard = scenarios.counterfactual_hazard
        monkeypatch.setattr(scenarios, "counterfactual_hazard",
                            lambda scenario, a, a_prime, t, level: times.append(t)
                            or hazard(scenario, a, a_prime, t, level))
        result = run("compare", "--config", write_config(tmp_path, obj))
        assert result.exit_code == 0, result.output
        # 3 arm pairs at the 5 hr_t_subset points of the 50-point grid
        assert len(times) == 15 and len(set(times)) == 5
        assert {hr_estimand("NDE", t) for t in times} <= {l.split(",")[1] for l in result.output.splitlines()}

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
    def test_estimands_match_mc_command(self, tmp_path, name):
        # compare looks each MC estimand up in the truth; a key formatted differently must fail
        obj = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        obj["method"].update(n_samples=200, n_reps=3)
        config = write_config(tmp_path, obj)
        compared, mc = run("compare", "--config", config), run("mc", "--config", config)
        assert compared.exit_code == 0 and mc.exit_code == 0, compared.output + mc.output
        compared_names = [l.split(",")[1] for l in compared.output.splitlines()[1:]]
        mc_names = [l.split(",")[2] for l in mc.output.splitlines()[1:] if ",summary," in l]
        assert compared_names and compared_names == mc_names


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
    code = ("import sys, truthquad, truthquad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool_logging_or_bench():
    # concurrent.futures pulls in logging (~6 ms a command); bench is for its two subcommands only
    code = ("import sys, truthquad.cli; "
            "print(sorted({'concurrent.futures', 'logging', 'truthquad.bench'} & set(sys.modules)))")
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_mc_and_compare_load_no_numpy_ma(tmp_path):
    # np.percentile and np.unique import numpy.ma on first use, about 14 ms a command
    obj = json.loads((CONFIG_DIR / "hr_mediation.json").read_text())
    obj["method"].update(n_samples=200, n_reps=3)
    config = write_config(tmp_path, obj)
    code = ("import sys; from truthquad.cli import main\n"
            "for command in ('mc', 'compare'):\n"
            f"    main([command, '--config', {config!r}, '--out', {str(tmp_path / 'out.csv')!r}],"
            " standalone_mode=False)\n"
            "print('numpy.ma' in sys.modules)")
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("size", [1, 2, 3, 7, 50, 51, 9_999, 10_000])
def test_hr_t_subset_is_the_unique_rounded_linspace(size):
    from truthquad.cli import _hr_t_subset

    t_grid = np.linspace(0.1, 5.0, size)
    for count in [*range(1, 60), size - 1, size, size + 1]:
        idx = np.unique(np.round(np.linspace(0, size - 1, min(count, size))).astype(int))
        assert np.array_equal(_hr_t_subset(t_grid, count), t_grid[idx])
