#!/usr/bin/env python3
"""Outside-in benchmark of lracma: wall time, time per generation and per-layer cost.

Run from the repository root:

    python3 benchmarks/run.py --workload rastrigin_d10_lra --seed 1 --seconds 30 --trace 0

The benchmark imports the package from ``src/`` and drives it only through
its public API (``cli.load_suite_config``, ``cli.expand_configs``,
``harness.run_trial``, ``cli.write_suite_outputs``) and through the
``lracma suite`` entry point (``cli.main``), in-process and single-threaded.
Generation times come from the timestamps of ``run_trial``'s public
``on_iteration`` hook.  With ``--trace 1`` a separate run wraps the module
functions each layer exposes (see ``TRACED``) and reports per-layer costs.

Every line but the last is a human-readable report; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full report (environment, digests, percentiles, span aggregates and a
sample of raw spans) is written to ``benchmarks/_work/reports/``.
See ``benchmarks/README.md`` for the workloads and metrics.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is imported,
# here and in the set-up probes, which inherit this environment.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

TARGET = 1e-8
# Library workloads expand this many trial configs once, at set-up; rounds
# take consecutive slices of them.
LIBRARY_TRIALS = 256
# Set-up probes made before the first round and after every round (one each
# with --tiny); setup_s is their median.
SETUP_PROBES_PER_TURN = 2
TINY_GENERATIONS = 20
# A run stops starting rounds once this much wall time has gone, whatever
# --seconds says, so a run always ends within about two minutes.
HARD_STOP_S = 120.0

# Machine speed.  The baseline machine shares its cores with other tenants,
# and the same trial runs 1.7-3x slower in phases lasting seconds to minutes.
# Before the first round and after every round the benchmark times
# calibrate(), a fixed CMA-ES loop written here (so it does not change when
# lracma does).  Each round's times are scaled by CALIBRATION_REFERENCE_S
# over the median of the timings made just before and after it, so wall_s,
# gen_us_p50 and evals_per_s are figures at the reference speed.  Raw times
# and the speed factors are printed and reported too.
CALIBRATIONS_PER_TURN = 5
# With --trace 0, calibrate() also runs inside the trials after every this
# many generations (about 5% of the time), so each round's factor follows
# the machine through the round.
CALIBRATE_EVERY = {10: 500, 40: 150}
CALIBRATION_GENERATIONS = {10: 80, 40: 24}
# calibrate()'s median time on the baseline machine
CALIBRATION_REFERENCE_S = {10: 0.0105, 40: 0.0112}

# Each workload is one YAML suite config that the benchmark writes itself.
# "generations" caps every trial (max_evals = generations * lambda), far below
# what the 1e-8 target usually needs (a Rastrigin d=10 trial takes 34k-49k
# generations, only a rare one hits it under the cap).  "batch" is the number
# of trials per grid point in one round; wall_s is the median round time.
WORKLOADS = {
    # Python-scale ops at d=10: per-op overhead and dataclass churn dominate.
    "rastrigin_d10_lra": {
        "kind": "library",
        "grid": [{"problems": ["rastrigin"], "dims": [10], "optimizers": ["lra"]}],
        "generations": 2000,
        "batch": 2,
    },
    # The paper's top dimension: the O(d^3) eigendecompositions dominate.
    "ellipsoid_d40_lra": {
        "kind": "library",
        "grid": [{"problems": ["ellipsoid"], "dims": [40], "optimizers": ["lra"]}],
        "generations": 1500,
        "batch": 1,
    },
    # `lracma suite` in-process: noise draws, the fixed-eta mode (which skips
    # the SNR layer), stopping rules, per-generation history and ECDF writers.
    # Fixed eta=1 runs at variance 1 only, so adaptive generations stay the
    # clear majority and the median generation time stays in one mode.
    "noisy_suite_d10": {
        "kind": "suite",
        "grid": [
            {
                "problems": ["sphere", "rastrigin"],
                "dims": [10],
                "noise_vars": [1.0, 1.0e6],
                "optimizers": ["lra"],
            },
            {
                "problems": ["sphere", "rastrigin"],
                "dims": [10],
                "noise_vars": [1.0],
                "optimizers": ["fixed"],
                "eta_m": [1.0],
                "eta_sigma": [1.0],
            },
        ],
        "generations": 2000,
        "batch": 1,
    },
}

# (module, attribute path, span name).  The core and lra ops are wrapped in
# lracma.lra's namespace, where ask() and tell() look them up at call time.
TRACED = (
    ("lracma.lra", "sample_population", "core.sample_population"),
    ("lracma.lra", "rank_and_recombine", "core.rank_and_recombine"),
    ("lracma.lra", "update_paths", "core.update_paths"),
    ("lracma.lra", "cma_candidate_update", "core.cma_candidate_update"),
    ("lracma.lra", "LraCmaEs.ask", "lra.ask"),
    ("lracma.lra", "LraCmaEs.tell", "lra.tell"),
    ("lracma.lra", "compute_deltas", "lra.compute_deltas"),
    ("lracma.lra", "to_local_coordinates", "lra.to_local_coordinates"),
    ("lracma.lra", "update_snr_state", "lra.update_snr_state"),
    ("lracma.lra", "estimate_snr", "lra.estimate_snr"),
    ("lracma.lra", "adapt_learning_rate", "lra.adapt_learning_rate"),
    ("lracma.lra", "apply_blended_update", "lra.apply_blended_update"),
    ("lracma.lra", "decompose_sigma", "lra.decompose_sigma"),
    ("lracma.lra", "correct_step_size", "lra.correct_step_size"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "slogdet", "linalg.slogdet"),
    ("lracma.problems", "Problem.evaluate_population", "problems.evaluate_population"),
    ("lracma.problems", "Problem.evaluate_noiseless", "problems.evaluate_noiseless"),
    ("lracma.harness", "run_trial", "harness.run_trial"),
    ("lracma.harness", "History.append", "harness.history_append"),
    ("lracma.cli", "write_results_csv", "harness.write_results_csv"),
    ("lracma.cli", "write_summary_csv", "harness.write_summary_csv"),
    ("lracma.cli", "write_history_csv", "harness.write_history_csv"),
    ("lracma.cli", "write_ecdf_csv", "harness.write_ecdf_csv"),
    ("lracma.cli", "load_suite_config", "cli.load_suite_config"),
    ("lracma.cli", "expand_configs", "cli.expand_configs"),
    ("lracma.cli", "write_suite_outputs", "cli.write_suite_outputs"),
)
WRITERS = (
    "harness.write_results_csv",
    "harness.write_summary_csv",
    "harness.write_history_csv",
    "harness.write_ecdf_csv",
)
# The spans that make up one generation of run_trial's loop.  What they leave
# out is the loop's own bytecode (the stopping checks), the timing hook and
# the wrappers' overhead.
GENERATION_PARTS = (
    "lra.ask",
    "problems.evaluate_population",
    "lra.tell",
    "problems.evaluate_noiseless",
    "harness.history_append",
)
US_PER_GEN = (
    "core.sample_population",
    "core.rank_and_recombine",
    "core.update_paths",
    "core.cma_candidate_update",
    "lra.ask",
    "lra.tell",
    "lra.compute_deltas",
    "lra.to_local_coordinates",
    "lra.update_snr_state",
    "lra.estimate_snr",
    "lra.adapt_learning_rate",
    "lra.apply_blended_update",
    "lra.decompose_sigma",
    "lra.correct_step_size",
    "linalg.eigh",
    "linalg.slogdet",
    "problems.evaluate_population",
    "problems.evaluate_noiseless",
    "harness.history_append",
)
MS_PER_CALL = ("cli.load_suite_config", "cli.expand_configs", "cli.write_suite_outputs")

@dataclasses.dataclass(frozen=True)
class _CalibrationState:
    m: object
    sigma: float
    C: object

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


def calibrate(d: int) -> float:
    """Seconds taken by a fixed plain CMA-ES loop on the sphere at dimension d.

    It has the same mix of work as an lracma generation (sampling, sorting,
    eigh, slogdet, a frozen dataclass per step) but none of lracma's code,
    and it repeats the same arithmetic on every call.
    """
    import numpy as np

    lam = 4 + int(3 * math.log(d))
    mu = lam // 2
    w = np.log((lam + 1) / 2) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    rng = np.random.default_rng(7)
    state = _CalibrationState(np.full(d, 3.0), 2.0, np.eye(d))
    path = np.zeros(d)
    start = time.perf_counter()
    for _ in range(CALIBRATION_GENERATIONS[d]):
        vals, vecs = np.linalg.eigh(state.C)
        root = (vecs * np.sqrt(np.maximum(vals, 1e-20))) @ vecs.T
        z = rng.standard_normal((lam, d))
        y = z @ root.T
        x = state.m + state.sigma * y
        best = np.argsort(np.sum(x * x, axis=-1), kind="stable")[:mu]
        dy, dz = w @ y[best], w @ z[best]
        path = 0.7 * path + 0.5 * dz
        C = 0.8 * state.C + 0.1 * (y[best].T * w) @ y[best] + 0.1 * np.outer(dy, dy)
        _, logdet = np.linalg.slogdet((C + C.T) / 2)
        sigma = state.sigma * math.exp(0.1 * (float(np.linalg.norm(path)) / math.sqrt(d) - 1))
        state = dataclasses.replace(
            state, m=state.m + state.sigma * dy, sigma=sigma, C=(C + C.T) / (2 * math.exp(logdet / d))
        )
    return time.perf_counter() - start


def round_seed(workload: str, seed: int, k: int) -> int:
    """Base seed of round k; lracma derives every per-trial seed from it."""
    digest = hashlib.sha256(f"{workload}|{seed}|{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little")


def setup_probe(yaml_path: str) -> int:
    """Child process: import, parse, expand and run the first trial's first generation.

    The trial runs through ``harness.run_trial`` with its budget cut to one
    generation, so the optimizer is built by the program's own path.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from lracma import cli, default_strategy_params, harness

    cfg = cli.expand_configs(cli.load_suite_config(yaml_path))[0]
    lam = default_strategy_params(cfg.problem.d, cfg.population_size).lam
    harness.run_trial(dataclasses.replace(cfg, max_evals=lam))
    print(repr(time.perf_counter() - start))
    return 0


def measure_setup(yaml_path: Path, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(yaml_path)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


@dataclasses.dataclass
class Trial:
    phase: str
    round: int
    cfg: object
    result: object
    generations: int
    gen_ns: object  # times between consecutive on_iteration calls
    floored: int
    blended: int = 0  # generations with eta_sigma < 1, which take the blend path
    history_rows: int = 0
    problems: tuple = ()

    def settle(self, max_evals: int) -> None:
        """Check the trial, keep what the metrics need and drop its history."""
        import numpy as np

        h = self.result.history
        self.blended = int(np.sum(h.column("eta_sigma")[1:] < 1.0))
        self.history_rows = len(h)
        if self.cfg.optimizer != "plain":
            self.problems = tuple(trial_problems(self.cfg, self.result, max_evals))
        self.result.history = None


class Recorder:
    """Stands in for ``harness.run_trial``: adds the timing hook, keeps results.

    With ``calibrate_every`` set, the hook also times ``calibrate()`` after
    every that many generations of a trial.  Those timings go to
    ``calibrations``; the time they take goes to ``paused_ns`` and is left
    out of the generation times.
    """

    def __init__(self, run_trial, d):
        self._run_trial = run_trial
        self.d = d
        self.trials = []
        self.phase = ""
        self.round = 0
        self.calibrate_every = 0
        self.calibrations = []
        self.paused_ns = 0

    def run_trial(self, cfg, on_iteration=None):
        import numpy as np

        stamps = array("q")
        clock = time.perf_counter_ns
        floored = 0

        def hook(stats, f_m):
            nonlocal floored
            stamps.append(clock() - self.paused_ns)
            if stats.floored:
                floored += 1
            if on_iteration is not None:
                on_iteration(stats, f_m)
            if self.calibrate_every and len(stamps) % self.calibrate_every == 0:
                start = clock()
                self.calibrations.append(calibrate(self.d))
                self.paused_ns += clock() - start

        result = self._run_trial(cfg, on_iteration=hook)
        gens = np.diff(np.frombuffer(stamps, dtype=np.int64))
        self.trials.append(Trial(self.phase, self.round, cfg, result, len(stamps), gens, floored))
        return result

    def of(self, phase, optimizers=("lra", "fixed")):
        return [t for t in self.trials if t.phase == phase and t.cfg.optimizer in optimizers]


class Workload:
    def __init__(self, name: str, seed: int, tiny: bool, workdir: Path):
        from lracma import cli, default_strategy_params

        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.kind = self.spec["kind"]
        self.workdir = workdir
        self.generations = TINY_GENERATIONS if tiny else self.spec["generations"]
        (self.d,) = {d for g in self.spec["grid"] for d in g["dims"]}
        self.lam = default_strategy_params(self.d).lam
        self.max_evals = self.generations * self.lam
        self.round_failures = {}  # (phase, round) -> message
        self.bytes_written = []  # (phase, bytes) per round
        self.cli = cli
        if self.kind == "library":
            self.setup_yaml = self._write_yaml(
                "library", round_seed(name, seed, 0), LIBRARY_TRIALS
            )
            self.load()
        else:
            self.setup_yaml = self.round_yaml(0)

    def _write_yaml(self, tag: str, base_seed: int, trials: int) -> Path:
        import yaml

        suite = self.kind == "suite"
        doc = {
            "suite": {
                "name": f"{self.name}-{tag}",
                "trials": trials,
                "base_seed": base_seed,
                "max_evals": self.max_evals,
                "target": TARGET,
                "jobs": 1,
                "history_every": 1 if suite else 0,
                "ecdf_targets": 30 if suite else 0,
            },
            "grid": self.spec["grid"],
        }
        path = self.workdir / f"{tag}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        return path

    def round_yaml(self, k: int) -> Path:
        return self._write_yaml(f"round{k}", round_seed(self.name, self.seed, k), self.spec["batch"])

    def load(self):
        """Library workloads: parse the config and expand every trial."""
        self.sc = self.cli.load_suite_config(self.setup_yaml)
        self.configs = self.cli.expand_configs(self.sc)

    def has_round(self, k: int) -> bool:
        return self.kind == "suite" or (k + 1) * self.spec["batch"] <= len(self.configs)

    def warm_up(self, run_trial):
        """One short untimed trial so lazy set-up inside numpy is done."""
        if self.kind == "library":
            cfg = self.configs[0]
        else:
            cfg = self.cli.expand_configs(self.cli.load_suite_config(self.setup_yaml))[0]
        run_trial(dataclasses.replace(cfg, max_evals=min(20, self.generations) * self.lam))

    def run_round(self, k: int, plain: bool, recorder: Recorder) -> float:
        """Run round k and return its wall time; plain rounds skip the outputs.

        The wall time leaves out the recorder's calibrations.
        """
        from lracma import harness

        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        if self.kind == "library":
            b = self.spec["batch"]
            configs = self.configs[k * b : (k + 1) * b]
        else:
            path = self.round_yaml(k)
            configs = self.cli.expand_configs(self.cli.load_suite_config(path))
        recorder.round = k
        first = len(recorder.trials)
        if plain:
            configs = [dataclasses.replace(c, optimizer="plain") for c in configs]
            start, paused = time.perf_counter(), recorder.paused_ns
            for cfg in configs:
                harness.run_trial(cfg)
            wall = time.perf_counter() - start - (recorder.paused_ns - paused) / 1e9
            for t in recorder.trials[first:]:
                t.settle(self.max_evals)
            return wall

        start, paused = time.perf_counter(), recorder.paused_ns
        if self.kind == "library":
            results = [harness.run_trial(cfg) for cfg in configs]
            self.cli.write_suite_outputs(out, self.sc, configs, results)
            code = 0
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(["suite", str(path), "--out", str(out), "--jobs", "1"])
        wall = time.perf_counter() - start - (recorder.paused_ns - paused) / 1e9
        trials = recorder.trials[first:]
        for t in trials:
            t.settle(self.max_evals)
        problems = self._check_outputs(code, out, configs, trials)
        if problems:
            self.round_failures[recorder.phase, k] = f"round {k}: " + "; ".join(problems)
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        self.bytes_written.append((recorder.phase, size))
        return wall

    def _check_outputs(self, code, out, configs, trials):
        """The files the round wrote agree with the results run_trial returned."""
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if [cfg_key(t.cfg) for t in trials] != [cfg_key(c) for c in configs]:
            problems.append("trials ran do not match the expanded configs")
        try:
            lines = (out / "results.csv").read_text(encoding="ascii").splitlines()
        except OSError as exc:
            lines = []
            problems.append(f"results.csv unreadable: {exc}")
        rows = [line.split(",") for line in lines[1:]]
        expected = [
            [str(t.cfg.seed), str(t.result.evals_to_target or t.result.evals), t.result.termination]
            for t in trials
        ]
        if [[r[6], r[8], r[9]] for r in rows if len(r) >= 10] != expected:
            problems.append("results.csv disagrees with the in-memory results")
        if self.kind == "suite":
            n_hist = len(list(out.glob("history__*.csv")))
            n_ecdf = len(list(out.glob("ecdf__*.csv")))
            n_groups = len({(c.problem.name, c.problem.noise_variance, c.optimizer) for c in configs})
            if n_hist != len(configs) or n_ecdf != n_groups:
                problems.append(f"{n_hist} history and {n_ecdf} ECDF files")
        return problems


def cfg_key(cfg):
    p = cfg.problem
    return (p.name, p.d, p.noise_variance, cfg.optimizer, cfg.eta_m, cfg.eta_sigma, cfg.seed)


def run_phases(wl, recorder, phases, seconds, tiny, tracer=None, between=None):
    """Run round k of every phase in turn, for k = 0, 1, ...

    ``phases`` lists (name, plain, traced).  Interleaving the phases round by
    round lets them share the machine's slow and fast spells, so ratios
    between phases need no speed correction.  Stops when the next turn,
    judged by the last, would overrun ``seconds`` (after one turn if ``tiny``).
    Before the first turn and after each one it times ``calibrate()`` and
    calls ``between``, if given.

    Returns each phase's round wall times and, per turn, the calibration
    times taken just before it, during it (by the recorder) and just after.
    """

    def boundary():
        times = [calibrate(wl.d) for _ in range(CALIBRATIONS_PER_TURN)]
        if between is not None:
            between()
        return times

    walls = {name: [] for name, _, _ in phases}
    calibrations = []
    before = boundary()
    start = time.perf_counter()
    last = 0.0
    k = 0
    while wl.has_round(k):
        now = time.perf_counter()
        if k and (tiny or now - start + last > seconds or now - T0 > HARD_STOP_S):
            break
        recorder.calibrations = []
        for name, plain, traced in phases:
            recorder.phase = name
            if traced:
                tracer.install_all(TRACED)
            try:
                walls[name].append(wl.run_round(k, plain, recorder))
            finally:
                if traced:
                    tracer.uninstall()
        after = boundary()
        calibrations.append(before + recorder.calibrations + after)
        before = after
        last = time.perf_counter() - now
        k += 1
    return walls, calibrations


def speed_factors(d, calibrations):
    """Reference calibration time over the median of each turn's timings."""
    return [CALIBRATION_REFERENCE_S[d] / statistics.median(c) for c in calibrations]


def end_to_end(rounds, walls, factors, setup):
    """End-to-end metrics, each round's times scaled by its speed factor.

    Each round gives a median of its adaptive generation times and an
    evaluation rate; the run reports the median over rounds, so a stall of
    the shared machine that hits one round moves none of them.  Fixed-eta
    generations cost about 60% as much, and a median over the mix would fall
    between the two modes.  The set-up (mostly imports, in child processes)
    does not follow the calibration loop and is steadier as measured.
    """
    per_round = [percentile_report(gen_times_us(by_optimizer(r, "lra"))) for r in rounds]
    rates = [sum(t.result.evals for t in r) / w for r, w in zip(rounds, walls)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(w * f for w, f in zip(walls, factors)),
        "gen_us_p50": statistics.median(p["p50"] * f for p, f in zip(per_round, factors)),
        "evals_per_s": statistics.median(r / f for r, f in zip(rates, factors)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def by_optimizer(trials, optimizer):
    return [t for t in trials if t.cfg.optimizer == optimizer]


def gen_times_us(trials):
    import numpy as np

    parts = [t.gen_ns for t in trials]
    return np.concatenate(parts) / 1e3 if parts else np.empty(0)


def percentile_report(values_us):
    """Median, p99 and the highest listed percentile with >= 10 samples beyond."""
    import numpy as np

    n = values_us.size
    out = {"n": int(n), "p50": float(np.median(values_us)), "p99": float(np.percentile(values_us, 99))}
    for q in (99.99, 99.9, 99.0, 90.0):
        if n * (100 - q) / 100 >= 10:
            out["p_hi"] = [q, float(np.percentile(values_us, q))]
            break
    return out


def trial_digest(trials) -> str:
    text = ";".join(f"{t.cfg.seed},{t.result.evals},{t.result.termination}" for t in trials)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def trial_problems(cfg, res, max_evals):
    """The rules one trial breaks, judged on its recorded history."""
    import numpy as np

    h = res.history
    msgs = []
    if np.any(np.abs(h.column("det_c") - 1.0) > 1e-9):
        msgs.append("|det C - 1| > 1e-9")
    for col in ("eta_m", "eta_sigma"):
        eta = h.column(col)
        if np.any((eta <= 0) | (eta > 1)):
            msgs.append(f"{col} outside (0, 1]")
    if np.any(h.column("eig_min") <= 0):
        msgs.append("eig_min <= 0")
    if res.termination == "target_hit":
        if not (res.best_noiseless_fm <= TARGET and res.evals_to_target == res.evals):
            msgs.append(f"target_hit with best f(m) {res.best_noiseless_fm:.3e}")
    elif cfg.optimizer == "lra" and (
        res.termination != "budget_exhausted" or res.evals != max_evals
    ):
        # an adaptive trial has no reason to stop short of its budget
        msgs.append(f"adaptive trial ended {res.termination} after {res.evals} evals")
    return [f"seed {cfg.seed}: {m}" for m in msgs]


def check_trials(wl, trials):
    """Map from trial index to the first rule it breaks."""
    failed = {i: t.problems[0] for i, t in enumerate(trials) if t.problems}
    if wl.kind == "suite":
        # criterion 4: adaptive median best f(m) on noisy Sphere (variance 1) at
        # least 10x below fixed eta = 1
        def group(opt):
            return [
                (i, t.result.best_noiseless_fm)
                for i, t in enumerate(trials)
                if t.cfg.optimizer == opt
                and t.cfg.problem.name == "sphere"
                and t.cfg.problem.noise_variance == 1.0
                and (opt == "lra" or (t.cfg.eta_m, t.cfg.eta_sigma) == (1.0, 1.0))
            ]

        lra, fixed = group("lra"), group("fixed")
        lra_med = statistics.median(f for _, f in lra)
        fixed_med = statistics.median(f for _, f in fixed)
        if not lra_med * 10 <= fixed_med:
            for i, _ in lra:
                failed.setdefault(
                    i, f"criterion 4: adaptive median {lra_med:.3e} vs fixed {fixed_med:.3e}"
                )
    return failed


def environment():
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
    }


def layer_metrics(wl, recorder, tracer, walls, speed, units):
    """Per-layer metrics of the traced phase C, plus the plain baseline of B.

    Times are scaled to the reference speed by ``speed``, like the
    end-to-end metrics.  The ratios compare interleaved phases as measured.
    """
    import numpy as np

    traced = recorder.of("C")
    gens = sum(t.generations for t in traced)

    def p50(phase, optimizer):
        return float(np.median(gen_times_us(recorder.of(phase, (optimizer,)))))

    def per_gen_us(name):
        return tracer.total_ns(name) / gens / 1e3

    m = {f"{name}.us": per_gen_us(name) for name in US_PER_GEN}
    m["lra.tell.self_us"] = tracer.self_ns("lra.tell") / gens / 1e3
    m["harness.run_trial.self_us"] = tracer.self_ns("harness.run_trial") / gens / 1e3
    m["lra.eta_sigma_lt1_frac"] = sum(t.blended for t in traced) / gens
    m["lra.floored_per_kgen"] = 1000.0 * sum(t.floored for t in traced) / gens
    for name in ("linalg.eigh", "linalg.slogdet"):
        m[f"{name}.calls_per_gen"] = tracer.calls(name) / gens
    m["harness.history_rows"] = float(np.mean([t.history_rows for t in traced]))
    m["harness.final_f_median"] = float(
        np.median([t.result.best_noiseless_fm for t in recorder.of("C", ("lra",))])
    )
    m["harness.writers_ms"] = sum(tracer.total_ns(w) for w in WRITERS) / len(walls["C"]) / 1e6
    for name in MS_PER_CALL:
        calls = tracer.calls(name)
        m[f"{name}.ms"] = tracer.total_ns(name) / calls / 1e6 if calls else 0.0
    m["cli.bytes_written"] = float(np.mean([b for ph, b in wl.bytes_written if ph == "C"]))
    m["plain.gen_us_p50"] = p50("B", "plain")
    m["lra.overhead_x"] = p50("A", "lra") / m["plain.gen_us_p50"]
    m["trace.overhead_frac"] = p50("C", "lra") / p50("A", "lra") - 1.0
    # the tail of the untraced generations: each round's p99, median over rounds
    untraced = recorder.of("A", ("lra",))
    m["gen_us_p99"] = statistics.median(
        float(np.percentile(gen_times_us([t for t in untraced if t.round == k]), 99))
        for k in sorted({t.round for t in untraced})
    )
    # The measured parts over the generation time.  Means add up where
    # medians do not, and a run that spans a slow and a fast spell of the
    # machine has a mean well away from its median.
    parts = sum(per_gen_us(name) for name in GENERATION_PARTS)
    m["trace.coverage"] = parts / float(np.mean(gen_times_us(traced)))
    for name in m:
        if units[name] in ("us", "ms"):
            m[name] *= speed
    return m


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help=f"cap trials at {TINY_GENERATIONS} generations and run one round")
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_program():
    """Import lracma from this checkout's src/, or exit non-zero."""
    if not (SRC / "lracma" / "__init__.py").is_file():
        sys.exit(f"error: the program is missing: no {SRC / 'lracma' / '__init__.py'}")
    sys.path.insert(0, str(SRC))
    import lracma

    if Path(lracma.__file__).resolve().parent != (SRC / "lracma").resolve():
        sys.exit(f"error: imported lracma from {lracma.__file__}, not from {SRC}")


def run(args) -> dict:
    from lracma import harness

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = Workload(args.workload, args.seed, args.tiny, workdir)
        recorder = Recorder(harness.run_trial, wl.d)
        harness.run_trial = recorder.run_trial
        wl.warm_up(recorder._run_trial)
        units = metric_units()

        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace == 0:
            setup = []

            def probe():
                setup.extend(measure_setup(wl.setup_yaml, 1 if args.tiny else SETUP_PROBES_PER_TURN))

            # the traced run does not calibrate inside trials: calibrate()
            # calls numpy.linalg, which the tracer counts
            recorder.calibrate_every = CALIBRATE_EVERY[wl.d]

            walls, calibrations = run_phases(
                wl, recorder, [("A", False, False)], args.seconds, args.tiny, between=probe
            )
            walls = walls["A"]
            factors = speed_factors(wl.d, calibrations)
            main_trials = recorder.of("A")
            rounds = [[t for t in main_trials if t.round == k] for k in range(len(walls))]
            metrics = end_to_end(rounds, walls, factors, setup)
            report["metrics_raw"] = end_to_end(rounds, walls, [1.0] * len(walls), setup)
            report["speed_factors"] = factors
            report["calibrations"] = calibrations
            report["setup_s_samples"] = setup
            report["gen_us"] = percentile_report(gen_times_us(by_optimizer(main_trials, "lra")))
            report["gen_us_rounds"] = [
                percentile_report(gen_times_us(by_optimizer(r, "lra"))) for r in rounds
            ]
        else:
            tracer = Tracer()
            if wl.kind == "library":
                # the library workloads parse and expand only at set-up
                tracer.install_all(TRACED)
                try:
                    wl.load()
                finally:
                    tracer.uninstall()
            phases = [("A", False, False), ("B", True, False), ("C", False, True)]
            walls_by_phase, calibrations = run_phases(
                wl, recorder, phases, args.seconds, args.tiny, tracer=tracer
            )
            speed = CALIBRATION_REFERENCE_S[wl.d] / statistics.median(sum(calibrations, []))
            walls = walls_by_phase["C"]
            metrics = layer_metrics(wl, recorder, tracer, walls_by_phase, speed, units)
            main_trials = recorder.of("A") + recorder.of("C")
            report["speed_factor"] = speed
            report["absent"] = tracer.absent
            report["spans"] = {
                name: {"calls": c, "total_ns": t, "self_ns": t - ch}
                for name, (c, t, ch) in tracer.stats.items()
            }
            report["span_sample"] = tracer.sample
            report["gen_us_traced"] = percentile_report(gen_times_us(recorder.of("C")))
            report["gen_us_untraced"] = percentile_report(gen_times_us(recorder.of("A")))
            absent_parts = [n for n in GENERATION_PARTS if n in tracer.absent]
            report["coverage_met"] = not absent_parts and 0.9 <= metrics["trace.coverage"] <= 1.1
            report["coverage_absent_parts"] = absent_parts

        failed = check_trials(wl, main_trials)
        # a round whose outputs are wrong fails every trial it ran
        for i, t in enumerate(main_trials):
            if (t.phase, t.round) in wl.round_failures:
                failed.setdefault(i, wl.round_failures[t.phase, t.round])
        attempted = len(main_trials)
        report.update(
            {
                "environment": environment(),
                "generations_per_trial": wl.generations,
                "lambda": wl.lam,
                "rounds": len(walls),
                "wall_s_rounds": walls,
                "attempted": attempted,
                "failed": len(failed),
                "fail_frac": len(failed) / attempted,
                "failures": sorted(set(failed.values())),
                "digest_first_round": trial_digest(
                    [t for t in main_trials if (t.phase, t.round) == ("A", 0)]
                ),
                "digest_all": trial_digest(main_trials),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args.setup_probe)
    import_program()
    report = run(args)

    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    print(
        f"env python {env['python']} numpy {env['numpy']} blas {env['blas']} "
        f"nproc {env['nproc']} commit {env['commit']}"
    )
    print(
        f"rounds {report['rounds']} trials {report['attempted']} "
        f"generations/trial {report['generations_per_trial']} lambda {report['lambda']}"
    )
    for key in ("gen_us", "gen_us_untraced", "gen_us_traced"):
        if key in report:
            g = report[key]
            hi = f" p{g['p_hi'][0]:g} {g['p_hi'][1]:.1f} us" if g.get("p_hi", [99])[0] != 99 else ""
            print(f"raw {key}: n {g['n']} p50 {g['p50']:.1f} us p99 {g['p99']:.1f} us{hi}")
    if "speed_factors" in report:
        f = report["speed_factors"]
        print(f"speed factors per round: median {statistics.median(f):.4f} "
              f"min {min(f):.4f} max {max(f):.4f}")
    else:
        print(f"speed factor {report['speed_factor']:.4f}")
    for name, value in report.get("metrics_raw", {}).items():
        print(f"raw {name} = {value!r} {report['metrics'][name]['unit']}")
    for name, m in report["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"fail_frac = {report['fail_frac']!r} ({report['failed']}/{report['attempted']})")
    for msg in report["failures"][:10]:
        print(f"failure: {msg}")
    if "coverage_met" in report:
        absent = ", ".join(report["coverage_absent_parts"]) or "none"
        print(f"trace.coverage in [0.9, 1.1] with every part traced: "
              f"{'yes' if report['coverage_met'] else 'NO'} (absent parts: {absent})")
    if report.get("absent"):
        print(f"absent traced names: {', '.join(report['absent'])}")
    print(f"digest first round {report['digest_first_round']} all {report['digest_all']}")
    print(f"report {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


T0 = time.perf_counter()

if __name__ == "__main__":
    sys.exit(main())
