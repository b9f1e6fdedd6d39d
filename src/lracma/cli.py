"""Command-line front end: single runs, suites, and hyperparameter sweeps.

Commands:
    run    a suite of one grid entry: one or more trials of a single
           (problem, optimizer) setting, with a history CSV per trial and
           live per-generation logging when it runs one trial.
    suite  a grid of trials described by a YAML config; writes results.csv,
           summary.csv, optional per-trial histories and ECDF curves, and a
           manifest.json echoing the configuration.
    sweep  one suite per value of a single hyperparameter axis (alpha,
           beta_m, beta_sigma, or gamma); per-point outputs live in
           subdirectories and a combined CSV is keyed by the swept value.

All three go through expand_configs, run_suite and write_suite_outputs; a
single-trial run calls run_trial itself, for its live log.  The output
directory ($LRACMA_OUT or ./lracma_out by default) is created after the
configuration is validated and before any trial runs.  All outputs are
byte-identical across reruns with the same inputs: no timestamps, floats via
repr, deterministic ordering.

Exit codes: 0 target hit (all trials, for multi-trial runs), 1 budget
exhausted, 3 numerical error, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence

import yaml

from . import __version__
from .harness import (
    EcdfSpec,
    TERM_BUDGET,
    TERM_NUMERICAL,
    TERM_TARGET,
    TrialConfig,
    TrialResult,
    derive_trial_seed,
    ecdf_from_results,
    group_trials,
    optimizer_label,
    run_suite,
    run_trial,
    success_rate,
    summarize,
    write_ecdf_csv,
    write_history_csv,
    write_results_csv,
    write_summary_csv,
)
from .lra import LraHyperParams
from .problems import PROBLEM_NAMES, make_problem

EXIT_TARGET = 0
EXIT_BUDGET = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SWEEP_AXES = ("alpha", "beta_m", "beta_sigma", "gamma")


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


# -- config schema ---------------------------------------------------------

@dataclass(frozen=True)
class GridEntry:
    problems: List[str]
    dims: List[int]
    noise_vars: List[float] = field(default_factory=lambda: [0.0])
    optimizers: List[str] = field(default_factory=lambda: ["lra"])
    eta_m: List[float] = field(default_factory=lambda: [1.0])
    eta_sigma: List[float] = field(default_factory=lambda: [1.0])


@dataclass(frozen=True)
class SuiteConfig:
    name: str
    trials: int
    base_seed: int
    max_evals: int
    target: float
    grid: List[GridEntry]
    hyper: LraHyperParams
    jobs: int = 0
    history_every: int = 0
    ecdf_targets: int = 0
    sweep_axis: Optional[str] = None
    sweep_values: Optional[List[float]] = None


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node: dict, allowed: Sequence[str], path: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"{path}: expected a number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{path}: expected a number, got {value!r}")


def _as_int(value, path: str) -> int:
    out = _as_float(value, path)
    if out != int(out):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(out)


def _as_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return value


def load_suite_config(path) -> SuiteConfig:
    """Parse and strictly validate a suite/sweep YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc

    root = _expect_mapping(raw, "config")
    _check_keys(root, ("suite", "grid", "hyperparams", "sweep"), "config")
    if "suite" not in root or "grid" not in root:
        raise ConfigError("config: the 'suite' and 'grid' sections are required")

    suite = _expect_mapping(root["suite"], "suite")
    _check_keys(
        suite,
        (
            "name",
            "trials",
            "base_seed",
            "max_evals",
            "target",
            "jobs",
            "history_every",
            "ecdf_targets",
        ),
        "suite",
    )
    name = suite.get("name", "suite")
    if not isinstance(name, str) or not name:
        raise ConfigError("suite.name: expected a nonempty string")
    trials = _as_int(suite.get("trials", 20), "suite.trials")
    base_seed = _as_int(suite.get("base_seed", 1), "suite.base_seed")
    max_evals = _as_int(suite.get("max_evals", 1_000_000), "suite.max_evals")
    target = _as_float(suite.get("target", 1e-8), "suite.target")
    jobs = _as_int(suite.get("jobs", 0), "suite.jobs")
    history_every = _as_int(suite.get("history_every", 0), "suite.history_every")
    ecdf_targets = _as_int(suite.get("ecdf_targets", 0), "suite.ecdf_targets")
    if trials < 1:
        raise ConfigError("suite.trials: must be at least 1")
    if base_seed < 0:
        raise ConfigError("suite.base_seed: must be nonnegative")
    if max_evals < 1:
        raise ConfigError("suite.max_evals: must be positive")
    if not target > 0:
        raise ConfigError("suite.target: must be positive")
    if jobs < 0 or history_every < 0 or ecdf_targets < 0:
        raise ConfigError("suite.jobs/history_every/ecdf_targets: must be >= 0")
    if ecdf_targets == 1:
        raise ConfigError("suite.ecdf_targets: needs at least 2 targets (or 0 = off)")

    entries = []
    for i, node in enumerate(_as_list(root["grid"], "grid")):
        p = f"grid[{i}]"
        node = _expect_mapping(node, p)
        _check_keys(
            node,
            ("problems", "dims", "noise_vars", "optimizers", "eta_m", "eta_sigma"),
            p,
        )
        problems = [str(v) for v in _as_list(node.get("problems"), f"{p}.problems")]
        for prob in problems:
            if prob not in PROBLEM_NAMES:
                raise ConfigError(f"{p}.problems: unknown problem {prob!r}")
        dims = [_as_int(v, f"{p}.dims") for v in _as_list(node.get("dims"), f"{p}.dims")]
        noise_vars = [
            _as_float(v, f"{p}.noise_vars")
            for v in _as_list(node.get("noise_vars", [0.0]), f"{p}.noise_vars")
        ]
        optimizers = [
            str(v) for v in _as_list(node.get("optimizers", ["lra"]), f"{p}.optimizers")
        ]
        for opt in optimizers:
            if opt not in ("lra", "fixed"):
                raise ConfigError(f"{p}.optimizers: expected 'lra' or 'fixed', got {opt!r}")
        eta_m = [
            _as_float(v, f"{p}.eta_m")
            for v in _as_list(node.get("eta_m", [1.0]), f"{p}.eta_m")
        ]
        eta_sigma = [
            _as_float(v, f"{p}.eta_sigma")
            for v in _as_list(node.get("eta_sigma", [1.0]), f"{p}.eta_sigma")
        ]
        entries.append(
            GridEntry(
                problems=problems,
                dims=dims,
                noise_vars=noise_vars,
                optimizers=optimizers,
                eta_m=eta_m,
                eta_sigma=eta_sigma,
            )
        )

    hyper_node = _expect_mapping(root.get("hyperparams", {}), "hyperparams")
    _check_keys(hyper_node, ("alpha", "beta_m", "beta_sigma", "gamma"), "hyperparams")
    hyper_kwargs = {
        key: _as_float(hyper_node[key], f"hyperparams.{key}")
        for key in hyper_node
    }
    try:
        hyper = LraHyperParams(**hyper_kwargs)
    except ValueError as exc:
        raise ConfigError(f"hyperparams: {exc}") from exc

    sweep_axis = sweep_values = None
    if "sweep" in root:
        sweep = _expect_mapping(root["sweep"], "sweep")
        _check_keys(sweep, ("axis", "values"), "sweep")
        sweep_axis = sweep.get("axis")
        if sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"sweep.axis: expected one of {', '.join(SWEEP_AXES)}, got {sweep_axis!r}"
            )
        sweep_values = [
            _as_float(v, "sweep.values") for v in _as_list(sweep.get("values"), "sweep.values")
        ]
        # each point writes its outputs into f"{axis}={value:g}"
        shown = [f"{v:g}" for v in sweep_values]
        if len(set(shown)) < len(shown):
            raise ConfigError(f"sweep.values: values repeat or print alike: {shown}")

    return SuiteConfig(
        name=name,
        trials=trials,
        base_seed=base_seed,
        max_evals=max_evals,
        target=target,
        grid=entries,
        hyper=hyper,
        jobs=jobs,
        history_every=history_every,
        ecdf_targets=ecdf_targets,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
    )


def expand_configs(sc: SuiteConfig) -> List[TrialConfig]:
    """Deterministic grid expansion; per-trial seeds derive from the key.

    Two settings with the same file tag, exact repeats or values that print
    alike, would write to the same file names (and with repeated labels
    share seeds and a summary row), so they are rejected.
    """
    configs = []
    tags = set()
    for entry in sc.grid:
        for name, d, noise, opt in itertools.product(
            entry.problems, entry.dims, entry.noise_vars, entry.optimizers
        ):
            problem = make_problem(name, d, noise)
            eta_grid = (
                itertools.product(entry.eta_m, entry.eta_sigma)
                if opt == "fixed"
                else [(1.0, 1.0)]
            )
            for em, es in eta_grid:
                base = TrialConfig(
                    problem=problem,
                    optimizer=opt,
                    eta_m=em,
                    eta_sigma=es,
                    max_evals=sc.max_evals,
                    target_f=sc.target,
                    hyper=sc.hyper,
                    history_every=max(sc.history_every, 1),
                )
                label = optimizer_label(base)
                tag = _group_tag((name, d, noise, label))
                if tag in tags:
                    raise ValueError(f"grid: settings repeat or print alike ({tag})")
                tags.add(tag)
                for k in range(sc.trials):
                    configs.append(
                        replace(
                            base,
                            seed=derive_trial_seed(
                                sc.base_seed, name, d, noise, label, k
                            ),
                        )
                    )
    return configs


# -- output helpers ---------------------------------------------------------

def _group_tag(key) -> str:
    """File tag of a (problem, d, noise, optimizer label) group."""
    name, d, noise, label = key
    return f"{name}_d{d}_n{noise:g}__{label}"


def write_suite_outputs(
    out: Path, sc: SuiteConfig, configs: Sequence[TrialConfig], results: Sequence[TrialResult]
) -> List[dict]:
    """Write the artifact set of one suite into ``out``; return its summary rows."""
    out.mkdir(parents=True, exist_ok=True)
    rows = summarize(configs, results)
    write_results_csv(out / "results.csv", configs, results)
    write_summary_csv(out / "summary.csv", rows)
    manifest = {
        "package": "lracma",
        "version": __version__,
        "suite": {
            "name": sc.name,
            "trials": sc.trials,
            "base_seed": sc.base_seed,
            "max_evals": sc.max_evals,
            "target": sc.target,
            "history_every": sc.history_every,
            "ecdf_targets": sc.ecdf_targets,
        },
        "hyperparams": asdict(sc.hyper),
        "n_trials_total": len(configs),
    }
    with open(out / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for key, trials in group_trials(configs, results).items():
        tag = _group_tag(key)
        if sc.history_every >= 1:
            for k, (cfg, res) in enumerate(trials):
                write_history_csv(out / f"history__{tag}__t{k}_s{cfg.seed}.csv", res.history)
        if sc.ecdf_targets >= 2:
            curve = ecdf_from_results(
                [res for _, res in trials], EcdfSpec(n_targets=sc.ecdf_targets)
            )
            write_ecdf_csv(out / f"ecdf__{tag}.csv", curve)
    return rows


# -- commands ---------------------------------------------------------------

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--optimizer", default="lra", choices=("lra", "fixed"))
    p.add_argument("--eta-m", type=float, default=1.0)
    p.add_argument("--eta-sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.4)
    p.add_argument("--beta-m", type=float, default=0.1)
    p.add_argument("--beta-sigma", type=float, default=0.03)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--max-evals", type=lambda s: int(float(s)), default=10_000_000)
    p.add_argument("--target", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--history-every", type=int, default=1)
    p.add_argument("--log-every", type=int, default=1, help="0 silences progress lines")


def cmd_run(args) -> int:
    try:
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        if args.seed < 0:
            raise ValueError("seed must be nonnegative")
        hyper = LraHyperParams(
            alpha=args.alpha, beta_m=args.beta_m, beta_sigma=args.beta_sigma, gamma=args.gamma
        )
        entry = GridEntry(
            [args.problem], [args.dim], [args.noise_var], [args.optimizer],
            [args.eta_m], [args.eta_sigma],
        )
        sc = SuiteConfig(
            name="run",
            trials=args.trials,
            base_seed=args.seed,
            max_evals=args.max_evals,
            target=args.target,
            grid=[entry],
            hyper=hyper,
            history_every=max(args.history_every, 1),
        )
        configs = expand_configs(sc)
        if args.trials == 1:
            # A single trial takes --seed as its own seed, so that
            # `run --seed S` replays the suite trial results.csv lists with
            # seed S.  Several trials derive theirs from it like a suite.
            configs = [replace(configs[0], seed=args.seed)]
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if len(configs) == 1:
        def log(stats, f_m):
            if args.log_every > 0 and stats.t % args.log_every == 0:
                print(
                    f"t={stats.t} evals={stats.evals} f(m)={f_m:.6e} "
                    f"sigma={stats.sigma:.3e} eta_m={stats.eta_m:.4f} "
                    f"eta_sigma={stats.eta_sigma:.4f}"
                )

        results = [run_trial(configs[0], on_iteration=log)]
    else:
        results = run_suite(configs, jobs=args.jobs or None)
    write_suite_outputs(out, sc, configs, results)

    for i, res in enumerate(results):
        extra = f" ({res.reason})" if res.reason else ""
        print(
            f"trial {i}: {res.termination}{extra} evals={res.evals} "
            f"best f(m)={res.best_noiseless_fm:.6e}"
        )
    if len(results) > 1:
        hits = sum(r.success for r in results)
        print(f"success rate: {success_rate(results):.3f} ({hits}/{len(results)})")

    terminations = {r.termination for r in results}
    if terminations == {TERM_TARGET}:
        return EXIT_TARGET
    if TERM_NUMERICAL in terminations and TERM_BUDGET not in terminations:
        return EXIT_NUMERICAL
    return EXIT_BUDGET


def cmd_suite(args) -> int:
    try:
        sc = load_suite_config(args.config)
        configs = expand_configs(sc)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = run_suite(configs, jobs=args.jobs or sc.jobs or None)
    write_suite_outputs(out, sc, configs, results)
    print(f"suite '{sc.name}': {len(results)} trials -> {out}")
    return 0


def cmd_sweep(args) -> int:
    try:
        sc = load_suite_config(args.config)
        if sc.sweep_axis is None:
            raise ConfigError("sweep: a 'sweep' section with axis and values is required")
        points = []
        for value in sc.sweep_values:
            pc = replace(sc, hyper=replace(sc.hyper, **{sc.sweep_axis: value}))
            points.append((value, pc, expand_configs(pc)))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    combined = []
    for value, pc, configs in points:
        results = run_suite(configs, jobs=args.jobs or sc.jobs or None)
        sub = out / f"{sc.sweep_axis}={value:g}"
        rows = write_suite_outputs(sub, pc, configs, results)
        combined += [{sc.sweep_axis: value, **row} for row in rows]
        print(f"sweep point {sc.sweep_axis}={value:g}: {len(results)} trials -> {sub}")
    write_summary_csv(out / "sweep_summary.csv", combined)
    print(f"sweep '{sc.name}': {len(points)} points -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lracma",
        description="CMA-ES with learning-rate adaptation: runs, suites, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    out_default = os.environ.get("LRACMA_OUT", "lracma_out")
    common.add_argument("--out", default=out_default, help="output directory (%(default)s)")
    common.add_argument(
        "--jobs", type=int, default=0, help="worker processes (0 = suite.jobs, else all cores)"
    )

    p_run = sub.add_parser(
        "run", parents=[common], help="run one setting (one or more seeded trials)"
    )
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", parents=[common], help="run a YAML-configured grid of trials")
    p_suite.add_argument("config", help="path to the suite YAML file")
    p_suite.set_defaults(func=cmd_suite)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="run one suite per hyperparameter value"
    )
    p_sweep.add_argument("config", help="path to the sweep YAML file")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
