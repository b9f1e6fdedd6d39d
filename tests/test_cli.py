"""Tests for the command-line front end: flags, configs, exit codes, outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lracma.cli import (
    ConfigError,
    EXIT_BUDGET,
    EXIT_NUMERICAL,
    EXIT_TARGET,
    EXIT_USAGE,
    SuiteConfig,
    build_parser,
    expand_configs,
    load_suite_config,
    main,
)
from lracma.harness import TrialConfig


def write_config(tmp_path, text, name="suite.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
suite:
  name: mini
  trials: 2
  base_seed: 1
  max_evals: 20000
  target: 1.0e-6
grid:
  - problems: [sphere]
    dims: [5]
    optimizers: [lra]
"""


class TestRunCommand:
    def test_successful_run_exits_zero_and_writes_history(self, tmp_path):
        code = main(
            [
                "run",
                "--problem",
                "sphere",
                "--dim",
                "10",
                "--optimizer",
                "lra",
                "--seed",
                "1",
                "--max-evals",
                "1e6",
                "--out",
                str(tmp_path),
                "--log-every",
                "0",
            ]
        )
        assert code == EXIT_TARGET
        histories = list(tmp_path.glob("history__sphere_d10_n0__lra__*.csv"))
        assert len(histories) == 1
        header = histories[0].read_text().splitlines()[0]
        assert header.startswith("t,evals,f_m,sigma,eta_m,eta_sigma")

    def test_unknown_problem_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--problem", "nosuch", "--dim", "10"])
        assert err.value.code == EXIT_USAGE

    def test_budget_exhaustion_exit_code(self, tmp_path):
        code = main(
            [
                "run",
                "--problem",
                "sphere",
                "--dim",
                "5",
                "--max-evals",
                "16",
                "--target",
                "1e-30",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
                "--log-every",
                "0",
            ]
        )
        assert code == EXIT_BUDGET

    def test_default_eta_on_rastrigin_fails(self, tmp_path):
        # the high-learning-rate baseline typically cannot solve Rastrigin
        code = main(
            [
                "run",
                "--problem",
                "rastrigin",
                "--dim",
                "10",
                "--optimizer",
                "fixed",
                "--eta-m",
                "1",
                "--eta-sigma",
                "1",
                "--max-evals",
                "1e7",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
                "--log-every",
                "0",
            ]
        )
        assert code == EXIT_NUMERICAL

    def test_multi_trial_run_writes_results(self, tmp_path):
        code = main(
            [
                "run",
                "--problem",
                "sphere",
                "--dim",
                "5",
                "--trials",
                "3",
                "--seed",
                "1",
                "--max-evals",
                "20000",
                "--target",
                "1e-6",
                "--out",
                str(tmp_path),
                "--log-every",
                "0",
            ]
        )
        assert code == EXIT_TARGET
        assert (tmp_path / "results.csv").exists()
        assert len(list(tmp_path.glob("history__*.csv"))) == 3

    def test_invalid_dimension_is_usage_error(self, tmp_path):
        code = main(
            ["run", "--problem", "schaffer", "--dim", "1", "--out", str(tmp_path)]
        )
        assert code == EXIT_USAGE

    def test_budget_below_one_generation_is_usage_error(self, tmp_path, capsys):
        # lambda = 10 at d = 10, so 5 evaluations cannot run a generation
        code = main(
            [
                "run",
                "--problem",
                "sphere",
                "--dim",
                "10",
                "--max-evals",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_USAGE
        assert "one generation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--optimizer", "fixed", "--eta-m", "0"],
            ["--optimizer", "fixed", "--eta-sigma", "2"],
            ["--trials", "0"],
            ["--trials", "-3"],
            ["--max-evals", "inf"],
            ["--max-evals", "nan"],
            ["--max-evals", "1000.7"],
            ["--target", "inf"],
            ["--noise-var", "nan"],
            ["--gamma", "inf"],
            ["--jobs", "-3"],
            ["--history-every", "0"],
            ["--log-every", "-2"],
            ["--seed", "-1"],
            ["--eta-m", "0.3"],
            ["--optimizer", "lra", "--eta-sigma", "0.5"],
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = main(["run", "--problem", "sphere", "--dim", "5", "--out", str(out), *flags])
        assert code == EXIT_USAGE
        assert not out.exists()
        exact = {
            ("--trials", "0"): "error: --trials: must be at least 1\n",
            ("--seed", "-1"): "error: --seed: must be nonnegative\n",
            ("--eta-m", "0.3"): "error: --eta-m: must be 1 unless --optimizer fixed\n",
        }
        if tuple(flags) in exact:
            assert capsys.readouterr().err == exact[tuple(flags)]

    def test_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["run", "--problem", "sphere", "--dim", "5"])
        assert args.max_evals == TrialConfig.max_evals
        assert args.seed == SuiteConfig.base_seed

    def test_flags_reach_the_manifest(self, tmp_path):
        flags = ["--alpha", "2", "--beta-m", "0.2", "--beta-sigma", "0.05", "--gamma", "0.3"]
        argv = ["run", "--problem", "sphere", "--dim", "5", "--max-evals", "200",
                "--log-every", "0", "--out", str(tmp_path), *flags]
        assert main(argv) == EXIT_BUDGET
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["hyperparams"] == {
            "alpha": 2.0, "beta_m": 0.2, "beta_sigma": 0.05, "gamma": 0.3
        }
        # every suite key but jobs, which changes no result
        assert manifest["suite"] == {
            "name": "run", "trials": 1, "base_seed": 1, "max_evals": 200,
            "target": 1e-8, "history_every": 1, "ecdf_targets": 0,
        }


class TestOnePath:
    """run is a one-entry suite: same trials, same files."""

    RUN = ["run", "--problem", "sphere", "--dim", "5", "--max-evals", "20000",
           "--target", "1e-6", "--log-every", "0", "--jobs", "1"]

    def test_multi_trial_run_writes_the_suite_artifacts(self, tmp_path):
        text = MINIMAL.replace("trials: 2", "trials: 3").replace(
            "  max_evals: 20000", "  max_evals: 20000\n  history_every: 1"
        )
        suite_out, run_out = tmp_path / "suite", tmp_path / "run"
        assert main(["suite", write_config(tmp_path, text), "--out", str(suite_out)]) == 0
        argv = self.RUN + ["--trials", "3", "--seed", "1", "--out", str(run_out)]
        assert main(argv) == EXIT_TARGET
        names = sorted(p.name for p in suite_out.glob("*.csv"))
        assert len(names) == 5  # results, summary, 3 histories
        assert names == sorted(p.name for p in run_out.glob("*.csv"))
        for name in names:
            assert (run_out / name).read_bytes() == (suite_out / name).read_bytes()

    def test_single_run_replays_the_suite_trial_with_its_seed(self, tmp_path):
        text = MINIMAL.replace("  max_evals: 20000", "  max_evals: 20000\n  history_every: 1")
        suite_out, run_out = tmp_path / "suite", tmp_path / "run"
        assert main(["suite", write_config(tmp_path, text), "--out", str(suite_out)]) == 0
        seed = (suite_out / "results.csv").read_text().splitlines()[2].split(",")[6]
        assert main(self.RUN + ["--seed", seed, "--out", str(run_out)]) == EXIT_TARGET
        history = f"history__sphere_d5_n0__lra__t{{}}_s{seed}.csv"
        assert (run_out / history.format(0)).read_bytes() == (
            suite_out / history.format(1)
        ).read_bytes()


class TestConfigLoading:
    def test_minimal_config_expands(self, tmp_path):
        sc = load_suite_config(write_config(tmp_path, MINIMAL))
        configs = expand_configs(sc)
        assert len(configs) == 2
        assert configs[0].seed != configs[1].seed
        assert configs[0].problem.name == "sphere"

    def test_unknown_key_is_rejected_with_path(self, tmp_path):
        bad = MINIMAL + "\nbogus: 1\n"
        with pytest.raises(ConfigError, match="bogus"):
            load_suite_config(write_config(tmp_path, bad))

    def test_unknown_nested_key_is_rejected(self, tmp_path):
        bad = MINIMAL.replace("  name: mini", "  name: mini\n  budget: 3")
        with pytest.raises(ConfigError, match="suite.*budget"):
            load_suite_config(write_config(tmp_path, bad))

    def test_empty_grid_is_rejected(self, tmp_path):
        bad = MINIMAL.split("grid:")[0] + "grid: []\n"
        with pytest.raises(ConfigError, match="grid"):
            load_suite_config(write_config(tmp_path, bad))

    def test_unknown_problem_in_grid(self, tmp_path):
        bad = MINIMAL.replace("[sphere]", "[warp]")
        with pytest.raises(ConfigError, match="warp"):
            load_suite_config(write_config(tmp_path, bad))

    def test_fixed_eta_grid_expansion(self, tmp_path):
        text = MINIMAL.replace("optimizers: [lra]", "optimizers: [lra, fixed]\n    eta_m: [1.0, 0.1]\n    eta_sigma: [1.0]")
        sc = load_suite_config(write_config(tmp_path, text))
        configs = expand_configs(sc)
        # lra + fixed(1,1) + fixed(0.1,1), each with 2 trials
        assert len(configs) == 6

    @pytest.mark.parametrize(
        "grid",
        [
            "optimizers: [fixed]\n    eta_m: [0.1, 0.1000001]",
            "optimizers: [lra]\n  - problems: [sphere]\n    dims: [5]",
        ],
        ids=["print-alike", "exact-repeat"],
    )
    def test_settings_that_print_alike_are_rejected(self, tmp_path, grid):
        text = MINIMAL.replace("optimizers: [lra]", grid)
        sc = load_suite_config(write_config(tmp_path, text))
        with pytest.raises(ValueError, match="repeat or print alike"):
            expand_configs(sc)

    @pytest.mark.parametrize(
        "old, new, path",
        [
            ("max_evals: 20000", "max_evals: .inf", "suite.max_evals"),
            ("max_evals: 20000", "max_evals: .nan", "suite.max_evals"),
            ("target: 1.0e-6", "target: .inf", "suite.target"),
            ("optimizers: [lra]", "optimizers: [lra]\n    noise_vars: [.nan]",
             r"grid\[0\].noise_vars"),
            ("optimizers: [lra]", "optimizers: [lra]\nhyperparams:\n  gamma: .inf",
             "hyperparams.gamma"),
        ],
        ids=["max_evals-inf", "max_evals-nan", "target-inf", "noise_vars-nan", "gamma-inf"],
    )
    def test_nonfinite_numbers_are_config_errors(self, tmp_path, old, new, path):
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match=f"{path}: expected a finite number"):
            load_suite_config(cfg)
        assert main(["suite", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["suite", "sweep"])
    def test_negative_jobs_exits_2(self, tmp_path, command):
        cfg = write_config(tmp_path, SWEEP)
        out = tmp_path / "o"
        assert main([command, cfg, "--jobs", "-1", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_config_errors_exit_2_via_cli(self, tmp_path, capsys):
        for text, named in (
            (MINIMAL + "\nbogus: 1\n", "bogus"),
            # eta lists belong to the fixed optimizer only
            (MINIMAL.replace("optimizers: [lra]", "optimizers: [lra]\n    eta_m: [0.1]"),
             "grid[0].eta_m"),
            (MINIMAL.replace("optimizers: [lra]", "optimizers: [lra]\n    eta_sigma: [0.5]"),
             "grid[0].eta_sigma"),
        ):
            cfg = write_config(tmp_path, text)
            assert main(["suite", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
            assert named in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_out_of_range_eta_exits_2(self, tmp_path):
        bad = MINIMAL.replace("optimizers: [lra]", "optimizers: [fixed]\n    eta_m: [1.5]")
        cfg = write_config(tmp_path, bad)
        assert main(["suite", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "suite", "sweep"])
    def test_unusable_out_exits_2_before_any_trial(self, tmp_path, monkeypatch, command):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("lracma.cli.run_trial", no_trials)
        monkeypatch.setattr("lracma.cli.run_suite", no_trials)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        if command == "run":
            argv = ["run", "--problem", "sphere", "--dim", "5"]
        else:
            argv = [command, write_config(tmp_path, SWEEP)]
        assert main(argv + ["--out", out]) == EXIT_USAGE

    def test_suite_budget_below_one_generation_exits_2(self, tmp_path, capsys):
        # lambda = 8 at d = 5: the budget check fires while expanding the
        # grid, before any trial runs or any output is written
        bad = write_config(tmp_path, MINIMAL.replace("max_evals: 20000", "max_evals: 5"))
        with pytest.raises(ValueError, match="one generation"):
            expand_configs(load_suite_config(bad))
        assert main(["suite", bad, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_shipped_presets_parse(self, tmp_path):
        readme = Path("README.md").read_text()
        documented = readme.split("### Suite/sweep configuration (YAML)")[1]
        documented = documented.split("```yaml\n")[1].split("```")[0]
        for preset in (
            "configs/noiseless_desk.yaml",
            "configs/noiseless_grid_desk.yaml",
            "configs/noisy_desk.yaml",
            "configs/sweep_alpha_desk.yaml",
            "configs/sweep_beta_sigma_desk.yaml",
            write_config(tmp_path, documented),
        ):
            sc = load_suite_config(preset)
            assert expand_configs(sc)


class TestSuiteCommand:
    def test_suite_outputs(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["suite", cfg, "--out", str(out)]) == 0
        for name in ("results.csv", "summary.csv", "manifest.json"):
            assert (out / name).exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 trials

    def test_suite_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["suite", cfg, "--out", str(a)]) == 0
        assert main(["suite", cfg, "--out", str(b)]) == 0
        for name in ("results.csv", "summary.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_suite_with_history_and_ecdf(self, tmp_path):
        text = MINIMAL.replace(
            "  max_evals: 20000",
            "  max_evals: 20000\n  history_every: 1\n  ecdf_targets: 10",
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["suite", cfg, "--out", str(out)]) == 0
        assert len(list(out.glob("history__*.csv"))) == 2
        curves = list(out.glob("ecdf__*.csv"))
        assert len(curves) == 1
        assert curves[0].read_text().splitlines()[0] == "evals,fraction"

    def test_ecdf_files_do_not_depend_on_history_thinning(self, tmp_path):
        # first hits come from each trial's improvement record, not its history
        grid = "optimizers: [lra, fixed]\n    noise_vars: [0.0, 1.0]\n    eta_m: [1.0, 0.1]"
        ecdfs = {}
        for every in (1, 3):
            text = MINIMAL.replace(
                "  max_evals: 20000",
                f"  max_evals: 20000\n  history_every: {every}\n  ecdf_targets: 30",
            ).replace("optimizers: [lra]", grid)
            out = tmp_path / f"every{every}"
            assert main(["suite", write_config(tmp_path, text), "--out", str(out)]) == 0
            ecdfs[every] = {f.name: f.read_bytes() for f in out.glob("ecdf__*.csv")}
        assert len(ecdfs[1]) == 6
        assert ecdfs[3] == ecdfs[1]


SWEEP = """
suite:
  name: sweeping
  trials: 2
  base_seed: 1
  max_evals: 20000
  target: 1.0e-6
grid:
  - problems: [sphere]
    dims: [5]
    optimizers: [lra]
sweep:
  axis: alpha
  values: [1.4]
"""


class TestSweepCommand:
    def test_single_point_sweep_matches_suite(self, tmp_path):
        sweep_cfg = write_config(tmp_path, SWEEP, "sweep.yaml")
        suite_cfg = write_config(
            tmp_path, MINIMAL + "\nhyperparams:\n  alpha: 1.4\n", "suite.yaml"
        )
        sweep_out = tmp_path / "sw"
        suite_out = tmp_path / "su"
        assert main(["sweep", sweep_cfg, "--out", str(sweep_out)]) == 0
        assert main(["suite", suite_cfg, "--out", str(suite_out)]) == 0
        point = sweep_out / "alpha=1.4"
        for name in ("results.csv", "summary.csv"):
            assert (point / name).read_bytes() == (suite_out / name).read_bytes()
        combined = (sweep_out / "sweep_summary.csv").read_text().splitlines()
        assert combined[0].startswith("alpha,")
        assert len(combined) == 2

    def test_sweep_without_section_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_empty_sweep_values_rejected(self, tmp_path):
        bad = SWEEP.replace("values: [1.4]", "values: []")
        cfg = write_config(tmp_path, bad)
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unknown_axis_rejected(self, tmp_path):
        bad = SWEEP.replace("axis: alpha", "axis: lambda")
        cfg = write_config(tmp_path, bad)
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_sweep_values_that_print_alike_rejected(self, tmp_path):
        bad = SWEEP.replace("values: [1.4]", "values: [1.4, 1.4000001]")
        with pytest.raises(ConfigError, match="print alike"):
            load_suite_config(write_config(tmp_path, bad))

    def test_multi_point_sweep_keys_rows_by_value(self, tmp_path):
        text = SWEEP.replace("values: [1.4]", "values: [1.0, 2.0]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["sweep", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("1.0,") and lines[2].startswith("2.0,")


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "lracma.cli",
            "run",
            "--problem",
            "sphere",
            "--dim",
            "5",
            "--seed",
            "1",
            "--max-evals",
            "20000",
            "--target",
            "1e-6",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "target_hit" in proc.stdout
