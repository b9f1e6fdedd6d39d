"""Seeded trial execution, stopping rules, and aggregate metrics.

A trial iterates one optimizer on one problem until the *noiseless* f(m)
reaches the target, the evaluation budget is spent, or the numerical-error
stop fires.  Success is always judged on noiseless f(m), also for noisy
problems.  f(m) is checked once per generation, right after the parameter
update, so ``evals_to_target`` is always a multiple of lambda (0 when the
initial mean is already below the target).  A `TrialResult` stores the
evaluations spent and the termination; ``success`` and ``evals_to_target``
are read off those two.  Its improvement record owns the best-so-far f(m):
``best_noiseless_fm`` and the ECDF first hits are read off it, so they do
not depend on which rows the history keeps.

The history keeps one row per recorded generation: the generation's
`IterationStats` followed by its noiseless f(m), so the stats tuple owns
the column layout.  Row t = 0 is the starting state, then every
``history_every``-th generation and the one that ends the trial; a
``tell()`` that raises adds no row.

The numerical-error stop is triggered by any of: the largest coordinate
standard deviation sigma * sqrt(max eig C) dropping below 1e-16, the
covariance condition number exceeding 4e6 (a degenerating axis), a
non-finite value appearing in the state, or the positive-definiteness floor
tripping persistently (more than 1% of generations, checked once at least
100 generations ran).  Exceptions raised by the update itself (singular
metric, nonpositive determinant, ...) are mapped to the same termination.

Everything is a pure function of (config, seed): per-trial seeds are derived
with SHA-256 from the base seed and the trial coordinates, so any subset of
a suite reproduces identically.
"""

from __future__ import annotations

import hashlib
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import default_population_size
from .errors import InvalidFitnessError, NumericalError
from .lra import IterationStats, LraCmaEs, LraHyperParams
from .problems import Problem

TERM_TARGET = "target_hit"
TERM_BUDGET = "budget_exhausted"
TERM_NUMERICAL = "numerical_error"

# Largest coordinate standard deviation below which sigma is considered
# collapsed (the "excessively small sigma" stop).
SIGMA_COLLAPSE_TOL = 1e-16
# Covariance condition-number limit.  Diverging fixed-learning-rate runs let
# single axes collapse until the eigenvalue ratio blows past 1e7, where
# double-precision determinants of C stop being meaningful.  Legitimate runs
# come close: adaptive-eta Ellipsoid runs to 1e-8 (seeds 0-2) peak at kappa
# 1.4e6-1.6e6 at d=10, 1.7e6-3.4e6 at d=20 and 1.8e6-2.4e6 at d=40, so the
# margin below 4e6 can be as small as 1.2x.
KAPPA_LIMIT = 4e6
# Persistent-floor rule: abort when more than this fraction of generations
# needed the positive-definiteness repair, checked after a warm-up.
FLOOR_RATE_LIMIT = 0.01
FLOOR_RATE_MIN_STEPS = 100

# An in-memory history row is a generation's IterationStats and its f(m).
HISTORY_COLUMNS = IterationStats._fields + ("f_m",)
# The documented file schema; det_c and floored stay in memory.
HISTORY_CSV_COLUMNS = (
    "t",
    "evals",
    "f_m",
    "sigma",
    "eta_m",
    "eta_sigma",
    "snr_m",
    "snr_sigma",
    "eig_min",
    "eig_max",
)

RESULTS_CSV_COLUMNS = (
    "problem",
    "d",
    "optimizer",
    "eta_m",
    "eta_sigma",
    "noise_variance",
    "seed",
    "success",
    "evals",
    "termination",
)


class History:
    """Columnar per-iteration trace with the columns in HISTORY_COLUMNS.

    The rows sit back to back in one float64 ``array``, which grows in place
    with a few percent of slack, so a trial's peak is close to its rows' size.
    """

    def __init__(self):
        self._rows = array("d")

    def append(self, row: Tuple[float, ...]) -> None:
        # a wrong length would shift later columns; fromlist() adds no partial row
        if len(row) != len(HISTORY_COLUMNS):
            raise ValueError(f"a history row has {len(HISTORY_COLUMNS)} values")
        self._rows.fromlist(list(row))

    def __len__(self) -> int:
        return len(self._rows) // len(HISTORY_COLUMNS)

    @property
    def data(self) -> np.ndarray:
        # a view of the rows: append raises BufferError while one is alive,
        # so run_trial takes none before its last row
        return np.frombuffer(self._rows).reshape(-1, len(HISTORY_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        return self.data[:, HISTORY_COLUMNS.index(name)]


@dataclass(frozen=True)
class TrialConfig:
    """One seeded trial: a problem, an optimizer choice, and stopping rules.

    ``optimizer`` is ``"lra"``, ``"fixed"`` (pinned eta_m/eta_sigma), or
    ``"plain"`` (the unmodified CMA-ES, mostly for reduction checks).
    """

    problem: Problem
    optimizer: str = "lra"
    eta_m: float = 1.0
    eta_sigma: float = 1.0
    max_evals: int = 10_000_000
    target_f: float = 1e-8
    seed: int = 0
    hyper: LraHyperParams = field(default_factory=LraHyperParams)
    population_size: Optional[int] = None
    history_every: int = 1

    def __post_init__(self):
        if self.optimizer not in ("lra", "fixed", "plain"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not self.target_f > 0:
            raise ValueError("target_f must be positive")
        if self.optimizer == "fixed":
            for name in ("eta_m", "eta_sigma"):
                if not 0 < getattr(self, name) <= 1:
                    raise ValueError(f"{name} must lie in (0, 1]")
        elif (self.eta_m, self.eta_sigma) != (1.0, 1.0):
            raise ValueError(f"{self.optimizer} trials run with eta_m = eta_sigma = 1")
        lam = self.population_size
        if lam is None:
            lam = default_population_size(self.problem.d)
        if self.max_evals < lam:
            raise ValueError(
                f"max_evals must cover at least one generation ({lam} evaluations)"
            )
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.history_every < 1:
            raise ValueError("history_every must be at least 1")


@dataclass
class TrialResult:
    """Outcome of one trial: evaluations spent, how and why it stopped.

    ``improvements`` is the improvement record, a pair of lists (evals,
    noiseless f(m)): the starting state, then every generation whose f(m)
    is strictly below all earlier ones (never a NaN).  ``best_noiseless_fm``
    is its last value.
    """

    evals: int
    termination: str
    reason: str
    improvements: Tuple[List[int], List[float]]
    history: History

    @property
    def best_noiseless_fm(self) -> float:
        return self.improvements[1][-1]

    @property
    def success(self) -> bool:
        return self.termination == TERM_TARGET

    @property
    def evals_to_target(self) -> Optional[int]:
        return self.evals if self.success else None


def _make_optimizer(cfg: TrialConfig, rng: np.random.Generator) -> LraCmaEs:
    mode = {"lra": "adaptive", "fixed": "fixed", "plain": "plain"}[cfg.optimizer]
    return LraCmaEs(
        cfg.problem.init_m,
        cfg.problem.init_sigma,
        population_size=cfg.population_size,
        hyper=cfg.hyper,
        lr_mode=mode,
        eta_m=cfg.eta_m,
        eta_sigma=cfg.eta_sigma,
        rng=rng,
    )


def run_trial(cfg: TrialConfig, on_iteration=None) -> TrialResult:
    """Run one seeded trial to termination, capturing the iteration history.

    ``on_iteration(stats, f_m)``, when given, is called after every
    generation (live logging hook; it does not affect the trial).
    """
    problem = cfg.problem
    rng = np.random.default_rng(cfg.seed)
    opt = _make_optimizer(cfg, rng)
    lam = opt.strategy.lam

    history = History()
    f_m = problem.evaluate_noiseless(opt.mean)
    improvements = ([0], [f_m])
    history.append((*opt.initial_stats(), f_m))
    if f_m <= cfg.target_f:
        return TrialResult(0, TERM_TARGET, "", improvements, history)

    termination, reason = TERM_BUDGET, ""
    floored = 0  # generations that needed the positive-definiteness repair
    while opt.evals + lam <= cfg.max_evals:
        xs = opt.ask()
        fitness = problem.evaluate_population(xs, rng)
        try:
            stats = opt.tell(fitness)
        except NumericalError as exc:
            termination, reason = TERM_NUMERICAL, exc.reason
            break
        except InvalidFitnessError:
            # an overflowing objective (inf at extreme samples) ends the
            # trial like any other numerical failure
            termination, reason = TERM_NUMERICAL, "nonfinite_fitness"
            break
        floored += stats.floored
        f_m = problem.evaluate_noiseless(opt.mean)
        if f_m < improvements[1][-1]:  # never true for NaN
            improvements[0].append(opt.evals)
            improvements[1].append(f_m)
        if on_iteration is not None:
            on_iteration(stats, f_m)
        if f_m <= cfg.target_f:
            termination = TERM_TARGET
        elif not math.isfinite(f_m):
            termination, reason = TERM_NUMERICAL, "nonfinite_state"
        elif stats.eig_max < SIGMA_COLLAPSE_TOL**2:
            termination, reason = TERM_NUMERICAL, "sigma_collapse"
        elif stats.eig_max > KAPPA_LIMIT * stats.eig_min:
            termination, reason = TERM_NUMERICAL, "covariance_degenerate"
        elif stats.t >= FLOOR_RATE_MIN_STEPS and floored > FLOOR_RATE_LIMIT * stats.t:
            termination, reason = TERM_NUMERICAL, "spd_floor_persistent"
        terminal = termination != TERM_BUDGET
        is_last = opt.evals + lam > cfg.max_evals
        if terminal or is_last or stats.t % cfg.history_every == 0:
            history.append((*stats, f_m))
        if terminal:
            break

    return TrialResult(opt.evals, termination, reason, improvements, history)


def success_rate(results: Sequence[TrialResult]) -> float:
    """Fraction of successful trials."""
    if not results:
        raise ValueError("success_rate needs at least one trial")
    return sum(r.success for r in results) / len(results)


def sp1(results: Sequence[TrialResult]) -> Optional[float]:
    """Mean evaluations over successful trials divided by the success rate.

    Returns ``None`` when no trial succeeded (plotted as a gap).
    """
    if not results:
        raise ValueError("sp1 needs at least one trial")
    successes = [r.evals for r in results if r.success]
    if not successes:
        return None
    rate = len(successes) / len(results)
    return float(np.mean(successes)) / rate


@dataclass(frozen=True)
class EcdfSpec:
    """Target grid for runtime profiles: n_targets values from 1e6 to 1e-3."""

    n_targets: int = 30

    def __post_init__(self):
        if self.n_targets < 2:
            raise ValueError("need at least 2 targets")

    @property
    def targets(self) -> np.ndarray:
        i = np.arange(1, self.n_targets + 1)
        return 10.0 ** (6 - 9 * (i - 1) / (self.n_targets - 1))


@dataclass(frozen=True)
class EcdfCurve:
    """Right-continuous step curve: fraction of (trial, target) pairs hit."""

    evals: np.ndarray
    fraction: np.ndarray
    n_pairs: int

    def value_at(self, budget: float) -> float:
        idx = np.searchsorted(self.evals, budget, side="right")
        return 0.0 if idx == 0 else float(self.fraction[idx - 1])


def ecdf(
    histories: Sequence[Tuple[np.ndarray, np.ndarray]], spec: EcdfSpec
) -> EcdfCurve:
    """Profile over ``len(histories) * n_targets`` (trial, target) pairs.

    Each history is a pair (evals, best-so-far noiseless f(m)), such as a
    trial's improvement record; the best series must be nonincreasing and
    free of NaN.  A pair counts as hit at budget b when the trial first
    reached the target within b evaluations.
    """
    if not histories:
        raise ValueError("ecdf needs at least one history")
    targets = spec.targets
    hits = []
    for evals, best in histories:
        evals = np.asarray(evals, dtype=float)
        best = np.asarray(best, dtype=float)
        if np.any(np.diff(best) > 0) or np.any(np.isnan(best)):
            raise ValueError("best-so-far series must be nonincreasing and free of NaN")
        # first index with best <= target; -best is nondecreasing
        idx = np.searchsorted(-best, -targets, side="left")
        hit = idx < best.size
        hits.append(evals[idx[hit]])
    all_hits = np.sort(np.concatenate(hits))
    n_pairs = len(histories) * targets.size
    fraction = np.arange(1, all_hits.size + 1) / n_pairs
    return EcdfCurve(evals=all_hits, fraction=fraction, n_pairs=n_pairs)


def ecdf_from_results(results: Sequence[TrialResult], spec: EcdfSpec) -> EcdfCurve:
    return ecdf([r.improvements for r in results], spec)


def optimizer_label(cfg: TrialConfig) -> str:
    if cfg.optimizer == "fixed":
        return f"fixed_em{cfg.eta_m:g}_es{cfg.eta_sigma:g}"
    return cfg.optimizer


def derive_trial_seed(
    base_seed: int,
    problem_name: str,
    d: int,
    noise_variance: float,
    optimizer: str,
    trial_index: int,
) -> int:
    """Stable per-trial seed so any grid subset reproduces identically."""
    key = f"{base_seed}|{problem_name}|{d}|{noise_variance!r}|{optimizer}|{trial_index}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def run_suite(configs: Sequence[TrialConfig], jobs: Optional[int] = None) -> List[TrialResult]:
    """Run independent trials on a worker pool; results keep config order.

    ``jobs=None`` starts one worker per CPU this process may run on.
    """
    configs = list(configs)
    if jobs is None:
        # the affinity mask, where the OS has one, not the host's CPU count
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    if jobs <= 1 or len(configs) <= 1:
        return [run_trial(c) for c in configs]
    # imported here: it pulls in multiprocessing, which serial runs never need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_trial, configs, chunksize=1))


def group_trials(
    configs: Sequence[TrialConfig], results: Sequence[TrialResult]
) -> Dict[tuple, List[Tuple[TrialConfig, TrialResult]]]:
    """(config, result) pairs per (problem, d, noise, optimizer label), in first-seen order."""
    groups: Dict[tuple, List[Tuple[TrialConfig, TrialResult]]] = {}
    for cfg, res in zip(configs, results):
        p = cfg.problem
        key = (p.name, p.d, p.noise_variance, optimizer_label(cfg))
        groups.setdefault(key, []).append((cfg, res))
    return groups


def summarize(
    configs: Sequence[TrialConfig], results: Sequence[TrialResult]
) -> List[dict]:
    """One row per group of ``group_trials``, in its order."""
    rows = []
    for (name, d, noise, label), trials in group_trials(configs, results).items():
        res_list = [res for _, res in trials]
        rows.append(
            {
                "problem": name,
                "d": d,
                "noise_variance": noise,
                "optimizer": label,
                "n_trials": len(res_list),
                "success_rate": success_rate(res_list),
                "sp1": sp1(res_list),
                "median_best_f": float(np.median([r.best_noiseless_fm for r in res_list])),
            }
        )
    return rows


# -- CSV output ----------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_results_csv(path, configs, results) -> None:
    rows = []
    for cfg, res in zip(configs, results):
        rows.append(
            (
                cfg.problem.name,
                cfg.problem.d,
                cfg.optimizer,
                cfg.eta_m if cfg.optimizer == "fixed" else None,
                cfg.eta_sigma if cfg.optimizer == "fixed" else None,
                cfg.problem.noise_variance,
                cfg.seed,
                res.success,
                res.evals,
                res.termination,
            )
        )
    _write_csv(path, RESULTS_CSV_COLUMNS, rows)


def write_summary_csv(path, rows: Sequence[dict]) -> None:
    """Rows share their keys; the first row's key order is the header."""
    header = list(rows[0])
    _write_csv(path, header, ([row[k] for k in header] for row in rows))


def write_history_csv(path, history: History) -> None:
    # the rows hold floats; t and evals, the first two file columns, are
    # written as integers and the rest as repr(float), exactly as _fmt would
    keep = [HISTORY_COLUMNS.index(c) for c in HISTORY_CSV_COLUMNS]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(HISTORY_CSV_COLUMNS) + "\n")
        fh.writelines(
            f"{int(t)},{int(evals)},{','.join(map(repr, rest))}\n"
            for t, evals, *rest in history.data[:, keep].tolist()
        )


def write_ecdf_csv(path, curve: EcdfCurve) -> None:
    _write_csv(
        path,
        ("evals", "fraction"),
        ((int(e), f) for e, f in zip(curve.evals, curve.fraction)),
    )
