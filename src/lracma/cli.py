"""Command-line front end: single runs, suites, and hyperparameter sweeps.

Commands:
    run    a suite of one grid entry: one or more trials of a single
           (problem, optimizer) setting, with a history CSV per trial and
           live per-generation logging when it runs one trial.
    suite  a grid of trials described by a YAML config; writes results.csv,
           summary.csv, optional per-trial histories and ECDF curves, and a
           manifest.json echoing the configuration.
    sweep  one suite per value of a single hyperparameter axis (a field of
           LraHyperParams); per-point outputs live in subdirectories and a
           combined CSV is keyed by the swept value.

Each setting has one owner.  The YAML keys and their defaults are the fields
of SuiteConfig (section ``suite``, parsed by SUITE_KEYS), GridEntry (each
``grid`` block, GRID_KEYS) and LraHyperParams (``hyperparams``, the sweep
axes and the run flags --alpha, --beta-m, --beta-sigma, --gamma).  Every
number must be finite, and the numeric run flags are read by the same
parsers as the YAML keys, so --max-evals must be an integer as in YAML.

All three go through expand_configs, one run_suite call (a sweep's points
share its pool) and write_suite_outputs; a single-trial run calls run_trial
itself, for its live log.  The output directory ($LRACMA_OUT or ./lracma_out
by default) is created after the configuration is validated and before any
trial runs.  All outputs are byte-identical across reruns with the same
inputs: no timestamps, floats via repr, deterministic ordering.

Exit codes: 0 target hit (all trials, for multi-trial runs), 1 budget
exhausted, 3 numerical error, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

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

OPTIMIZERS = ("lra", "fixed")
# every LraHyperParams field is a YAML hyperparameter, a sweep axis and a run flag
SWEEP_AXES = tuple(f.name for f in fields(LraHyperParams))


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


# -- config schema ---------------------------------------------------------

@dataclass(frozen=True)
class GridEntry:
    """One ``grid`` block; the field defaults are the YAML defaults."""

    problems: Sequence[str]
    dims: Sequence[int]
    noise_vars: Sequence[float] = (0.0,)
    optimizers: Sequence[str] = ("lra",)
    eta_m: Sequence[float] = (1.0,)
    eta_sigma: Sequence[float] = (1.0,)


@dataclass(frozen=True)
class SuiteConfig:
    """A suite; the defaults of the fields in SUITE_KEYS are the YAML defaults."""

    grid: Sequence[GridEntry]
    hyper: LraHyperParams = LraHyperParams()
    name: str = "suite"
    trials: int = 20
    base_seed: int = 1
    max_evals: int = 1_000_000
    target: float = 1e-8
    jobs: int = 0
    history_every: int = 0
    ecdf_targets: int = 0
    sweep_axis: Optional[str] = None
    sweep_values: Optional[List[float]] = None


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node: dict, allowed: Iterable[str], path: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"{path}: expected a number")
    out = None
    if isinstance(value, (int, float, str)):
        try:
            out = float(value)
        except OverflowError:  # an int beyond the float range
            out = math.inf
        except ValueError:
            pass
    if out is None:
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return out


def _as_int(value, path: str) -> int:
    out = _as_float(value, path)
    if out != int(out):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(out)


def _as_name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a nonempty string")
    return value


def _one_of(choices, message: str):
    """Parser of a name in ``choices``; ``message`` formats a rejected name."""

    def parse(value, path: str) -> str:
        name = str(value)
        if name not in choices:
            raise ConfigError(f"{path}: {message.format(name)}")
        return name

    return parse


def _as_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return value


def _list_of(parse):
    """Parser of a nonempty list whose elements ``parse`` reads."""
    return lambda value, path: [parse(v, path) for v in _as_list(value, path)]


SUITE_KEYS = {
    "name": _as_name,
    "trials": _as_int,
    "base_seed": _as_int,
    "max_evals": _as_int,
    "target": _as_float,
    "jobs": _as_int,
    "history_every": _as_int,
    "ecdf_targets": _as_int,
}
GRID_KEYS = {
    "problems": _list_of(_one_of(PROBLEM_NAMES, "unknown problem {!r}")),
    "dims": _list_of(_as_int),
    "noise_vars": _list_of(_as_float),
    "optimizers": _list_of(_one_of(OPTIMIZERS, "expected 'lra' or 'fixed', got {!r}")),
    "eta_m": _list_of(_as_float),
    "eta_sigma": _list_of(_as_float),
}
HYPER_KEYS = dict.fromkeys(SWEEP_AXES, _as_float)


def _parse_keys(node, keys: dict, cls, path: str) -> dict:
    """Keyword arguments of ``cls`` from the mapping ``node``, each key read by
    ``keys[key]``.  Unknown keys are errors; an absent key keeps the field's
    default, and one whose field has none is read as None."""
    node = _expect_mapping(node, path)
    _check_keys(node, keys, path)
    required = {f.name for f in fields(cls) if f.default is MISSING}
    return {
        key: parse(node.get(key), f"{path}.{key}")
        for key, parse in keys.items()
        if key in node or key in required
    }


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

    sc = SuiteConfig(grid=[], **_parse_keys(root["suite"], SUITE_KEYS, SuiteConfig, "suite"))
    if sc.trials < 1:
        raise ConfigError("suite.trials: must be at least 1")
    if sc.base_seed < 0:
        raise ConfigError("suite.base_seed: must be nonnegative")
    if sc.max_evals < 1:
        raise ConfigError("suite.max_evals: must be positive")
    if not sc.target > 0:
        raise ConfigError("suite.target: must be positive")
    if sc.jobs < 0 or sc.history_every < 0 or sc.ecdf_targets < 0:
        raise ConfigError("suite.jobs/history_every/ecdf_targets: must be >= 0")
    if sc.ecdf_targets == 1:
        raise ConfigError("suite.ecdf_targets: needs at least 2 targets (or 0 = off)")

    grid = []
    for i, node in enumerate(_as_list(root["grid"], "grid")):
        entry = GridEntry(**_parse_keys(node, GRID_KEYS, GridEntry, f"grid[{i}]"))
        for key in ("eta_m", "eta_sigma"):
            if key in node and "fixed" not in entry.optimizers:
                raise ConfigError(f"grid[{i}].{key}: only the fixed optimizer takes it")
        grid.append(entry)

    hyper_kwargs = _parse_keys(
        root.get("hyperparams", {}), HYPER_KEYS, LraHyperParams, "hyperparams"
    )
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
        sweep_values = _list_of(_as_float)(sweep.get("values"), "sweep.values")
        # each point writes its outputs into f"{axis}={value:g}"
        shown = [f"{v:g}" for v in sweep_values]
        if len(set(shown)) < len(shown):
            raise ConfigError(f"sweep.values: values repeat or print alike: {shown}")

    return replace(
        sc, grid=grid, hyper=hyper, sweep_axis=sweep_axis, sweep_values=sweep_values
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
        # jobs changes no result, so the echo leaves it out
        "suite": {key: getattr(sc, key) for key in SUITE_KEYS if key != "jobs"},
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
    # the numbers are read in cmd_run, by the parsers of their YAML keys
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--optimizer", default=GridEntry.optimizers[0], choices=OPTIMIZERS)
    p.add_argument("--eta-m", default=GridEntry.eta_m[0])
    p.add_argument("--eta-sigma", default=GridEntry.eta_sigma[0])
    for name in SWEEP_AXES:
        p.add_argument("--" + name.replace("_", "-"), default=getattr(LraHyperParams, name))
    p.add_argument("--noise-var", default=GridEntry.noise_vars[0])
    p.add_argument("--max-evals", default=TrialConfig.max_evals)
    p.add_argument("--target", default=SuiteConfig.target)
    p.add_argument("--seed", type=int, default=SuiteConfig.base_seed)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--history-every", type=int, default=1)
    p.add_argument("--log-every", type=int, default=1, help="0 silences progress lines")


def cmd_run(args) -> int:
    def number(dest, parse=_as_float):
        return parse(getattr(args, dest), "--" + dest.replace("_", "-"))

    try:
        if args.trials < 1:
            raise ValueError("--trials: must be at least 1")
        if args.seed < 0:
            raise ValueError("--seed: must be nonnegative")
        if args.history_every < 1:
            raise ValueError("--history-every: must be at least 1")
        if args.log_every < 0:
            raise ValueError("--log-every: must be >= 0")
        for dest in ("eta_m", "eta_sigma"):
            if args.optimizer != "fixed" and number(dest) != 1.0:
                raise ValueError(f"--{dest.replace('_', '-')}: must be 1 unless --optimizer fixed")
        hyper = LraHyperParams(**{name: number(name) for name in SWEEP_AXES})
        entry = GridEntry(
            [args.problem], [args.dim], [number("noise_var")], [args.optimizer],
            [number("eta_m")], [number("eta_sigma")],
        )
        sc = SuiteConfig(
            grid=[entry],
            hyper=hyper,
            name="run",
            trials=args.trials,
            base_seed=args.seed,
            max_evals=number("max_evals", _as_int),
            target=number("target"),
            history_every=args.history_every,
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
        results = list(run_suite(configs, jobs=args.jobs or None))
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
    results = list(run_suite(configs, jobs=args.jobs or sc.jobs or None))
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
    stream = run_suite([c for *_, cs in points for c in cs], jobs=args.jobs or sc.jobs or None)
    with closing(stream):  # the last islice leaves it open; an error cancels the rest
        for value, pc, configs in points:
            results = list(itertools.islice(stream, len(configs)))
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
        "--jobs",
        type=int,
        default=0,
        help="worker processes (0 = suite.jobs, else one per CPU this process may use)",
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
    if args.jobs < 0:
        print("error: --jobs: must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
