"""Bit identity: whole outputs hash to digests recorded in ``BITS.json``.

Speed work must not change a single bit of any output.  Two digests are
taken here and one in ``tests/test_acceptance.py``, each over results its
run already produced:

- ``grid``: the 134 trials of ``grid_configs``, run through ``run_suite``
  and hashed by ``results_digest`` over this byte layout, trial by trial in
  order: each column of the history, read with ``History.column(name)`` in
  ``HISTORY_COLUMNS`` order, as little-endian float64; then
  ``f"{evals}|{termination}|{reason}|{best_noiseless_fm!r}"`` as ASCII;
- ``artifacts``: the command lines of ``artifact_cases``, run in-process
  through ``lracma.cli.main`` in a temporary working directory and hashed
  by ``artifacts_digest`` (name, exit code, stdout and every file written);
- ``acceptance``: the 80 trials of the acceptance batches, hashed by
  ``results_digest``.

The digests depend on the numpy and BLAS builds and on two choices made
from the CPU at load time, each with its own rounding: OpenBLAS's kernel and
numpy's highest SIMD target.  So each entry of ``BITS.json`` holds one
digest per ``"<kernel>/<simd>"`` key, each recorded by setting
``OPENBLAS_CORETYPE`` and ``NPY_DISABLE_CPU_FEATURES``, and ``check_digest``
is the one lookup.  A key with no digest skips the test; a skip or a
mismatch prints the digest computed here and the environment.  A change that
alters the bits on purpose re-records the digests and says so.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import yaml

from lracma import cli
from lracma.harness import HISTORY_COLUMNS, TrialConfig, run_suite
from lracma.problems import PROBLEM_NAMES, make_problem

ROOT = Path(__file__).resolve().parents[1]

FIXED_UNIT = dict(optimizer="fixed", eta_m=1.0, eta_sigma=1.0)
MODES = (
    dict(optimizer="lra"),
    dict(optimizer="fixed", eta_m=0.5, eta_sigma=0.2),
    FIXED_UNIT,
    dict(optimizer="plain"),
)


def grid_configs():
    """The 134 trials, in hashing order: 128 short ones at d = 10, then six
    longer ones, the last two of which end ``covariance_degenerate``."""
    configs = [
        TrialConfig(problem=make_problem(name, 10, noise), max_evals=6000, seed=seed, **mode)
        for name in PROBLEM_NAMES
        for noise in (0.0, 1.0)
        for mode in MODES
        for seed in (0, 8)
    ]
    rastrigin = make_problem("rastrigin", 10)
    configs += [
        TrialConfig(problem=rastrigin, max_evals=10**5, seed=0),
        TrialConfig(problem=make_problem("sphere", 10, 1e6), max_evals=10**5, seed=0),
        TrialConfig(problem=make_problem("ellipsoid", 40), max_evals=30000, seed=1),
        TrialConfig(problem=make_problem("ellipsoid", 10), max_evals=10**5, seed=0),
        TrialConfig(problem=rastrigin, max_evals=10**7, seed=0, **FIXED_UNIT),
        TrialConfig(problem=rastrigin, max_evals=10**7, seed=1, **FIXED_UNIT),
    ]
    return configs


PRESETS = (
    ("suite", "noiseless_desk"),
    ("suite", "noiseless_grid_desk"),
    ("suite", "noisy_desk"),
    ("sweep", "sweep_alpha_desk"),
    ("sweep", "sweep_beta_sigma_desk"),
)
CUT = {"trials": 2, "max_evals": 3000, "history_every": 1, "ecdf_targets": 5}

RUN = ["run", "--max-evals", "3000", "--jobs", "1"]
RUN_CASES = (
    # name, arguments after RUN and before --out
    ("run_live_log", ["--problem", "sphere", "--dim", "4", "--log-every", "25"]),
    ("run_quiet", ["--problem", "ellipsoid", "--dim", "4", "--log-every", "0"]),
    ("run_three_trials", ["--problem", "rastrigin", "--dim", "4", "--trials", "3"]),
    (
        "run_hyper_flags",
        ["--problem", "schaffer", "--dim", "4", "--alpha", "2", "--beta-m", "0.2",
         "--beta-sigma", "0.05", "--gamma", "0.3", "--history-every", "3", "--log-every", "0"],
    ),
    (
        "run_fixed_noisy",
        ["--problem", "sphere", "--dim", "4", "--optimizer", "fixed", "--eta-m", "0.1",
         "--eta-sigma", "0.5", "--noise-var", "1", "--trials", "2"],
    ),
    (
        "run_numerical_error",
        ["--problem", "rastrigin", "--dim", "10", "--optimizer", "fixed", "--max-evals",
         "1e7", "--seed", "0", "--log-every", "0"],
    ),
    ("run_usage_error", ["--problem", "sphere", "--dim", "4", "--max-evals", "5"]),
)


def cut_preset(name: str) -> dict:
    """The preset ``configs/{name}.yaml`` shrunk to a quick run: trials 2,
    d = 4, max_evals 3000, history_every 1, ecdf_targets 5 and the first two
    sweep values."""
    raw = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
    raw["suite"].update(CUT)
    for entry in raw["grid"]:
        entry["dims"] = [4]
    if "sweep" in raw:
        raw["sweep"]["values"] = raw["sweep"]["values"][:2]
    return raw


def artifact_cases():
    """(name, argv) pairs, in hashing order: the five cut presets through
    ``suite``/``sweep``, ``noisy_desk`` once more with ``--jobs 2``, then
    ``run`` cases that end with exit codes 0, 1, 2 and 3.  Paths are
    relative to the working directory."""
    cases = []
    for command, preset in PRESETS:
        cases.append((preset, [command, f"{preset}.yaml", "--jobs", "1"]))
    cases.append(("noisy_desk_jobs2", ["suite", "noisy_desk.yaml", "--jobs", "2"]))
    for name, args in RUN_CASES:
        cases.append((name, RUN + args))
    return [(name, argv + ["--out", name]) for name, argv in cases]


def artifacts_digest() -> str:
    """Run every case in the working directory and hash, case by case in
    order, ``f"{name}|{exit code}|{stdout}"`` and then each file it wrote
    (relative path, ``|`` and bytes, sorted by path)."""
    h = hashlib.sha256()
    for _, preset in PRESETS:
        Path(f"{preset}.yaml").write_text(yaml.safe_dump(cut_preset(preset)))
    for name, argv in artifact_cases():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(f"{name}|{code}|{stdout.getvalue()}".encode())
        for path in sorted(p for p in Path(name).rglob("*") if p.is_file()):
            h.update(f"{path.as_posix()}|".encode() + path.read_bytes())
    return h.hexdigest()


def results_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        for name in HISTORY_COLUMNS:
            h.update(res.history.column(name).astype("<f8").tobytes())
        tail = f"{res.evals}|{res.termination}|{res.reason}|{res.best_noiseless_fm!r}"
        h.update(tail.encode("ascii"))
    return h.hexdigest()


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on this CPU, or "unknown"."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def simd_target() -> str:
    """The highest SIMD target numpy's loops run on this CPU, or "unknown"."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return "unknown"
    targets = umath.__cpu_baseline__ + umath.__cpu_dispatch__
    return ([t for t in targets if umath.__cpu_features__.get(t)] or ["unknown"])[-1]


def current_env() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "blas_core": blas_core(),
        "simd": simd_target(),
    }


def recorded_bits() -> dict:
    return json.loads((ROOT / "BITS.json").read_text())


def check_digest(entry: str, digest: str) -> None:
    """Fail unless ``digest`` is the one ``BITS.json`` records for ``entry``
    under this host's ``"<kernel>/<simd>"`` key; skip when none is."""
    key = f"{blas_core()}/{simd_target()}"
    recorded = recorded_bits()[entry]["digests"].get(key)
    where = f"computed {digest} on {current_env()}"
    if recorded is None:
        pytest.skip(f"no {entry} digest recorded for {key}; {where}")
    assert digest == recorded, f"{entry} {key} bits changed from {recorded}: {where}"


def test_check_digest_skips_when_the_key_is_not_recorded(monkeypatch):
    monkeypatch.setitem(globals(), "recorded_bits", lambda: {"grid": {"digests": {}}})
    with pytest.raises(pytest.skip.Exception, match="computed the-digest on"):
        check_digest("grid", "the-digest")


def test_check_digest_fails_on_another_digest(monkeypatch):
    bits = {"grid": {"digests": {f"{blas_core()}/{simd_target()}": "recorded-digest"}}}
    monkeypatch.setitem(globals(), "recorded_bits", lambda: bits)
    check_digest("grid", "recorded-digest")
    with pytest.raises(AssertionError, match="changed from recorded-digest"):
        check_digest("grid", "other-digest")


def test_grid_matches_recorded_digest():
    check_digest("grid", results_digest(run_suite(grid_configs())))


def test_artifacts_match_recorded_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_digest("artifacts", artifacts_digest())
