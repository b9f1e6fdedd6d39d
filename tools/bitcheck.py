"""Whole-output bit checks, for comparing two commits of lracma.

    python tools/bitcheck.py artifacts
    python tools/bitcheck.py grid

``artifacts`` runs a fixed set of command lines in-process through
``lracma.cli.main``, each into its own directory under a temporary working
directory:

- the five shipped presets through ``suite``/``sweep``, cut to trials 2,
  d = 4, max_evals 3000, history_every 1, ecdf_targets 5 and the first two
  sweep values, with ``noisy_desk`` run once more with ``--jobs 2``;
- ``run`` cases that end with exit codes 0, 1, 2 and 3.

It prints one SHA-256 over every case in order: its name, exit code and
stdout, then each file it wrote (relative path and bytes, sorted by path).

``grid`` runs 134 trials through ``run_suite`` and hashes their results with
``results_digest`` from ``tests/test_bits.py``, in this order:

- 128 short trials at d = 10 and max_evals 6000: the eight problems in
  ``PROBLEM_NAMES`` order, then noise variance 0 and 1, then the modes
  lra, fixed eta_m/eta_sigma = 0.5/0.2, fixed 1/1 and plain, then seeds
  0 and 8;
- six longer ones: lra Rastrigin d = 10, 1e5 evaluations, seed 0; lra
  Sphere d = 10 with noise variance 1e6, 1e5 evaluations, seed 0; lra
  Ellipsoid d = 40, 3e4 evaluations, seed 1; lra Ellipsoid d = 10 to the
  1e-8 target (1e5 evaluations allowed), seed 0; and fixed eta = 1 Rastrigin
  d = 10, 1e7 evaluations allowed, seeds 0 and 1, which end
  ``numerical_error``/``covariance_degenerate``.

``BITS.json``'s ``trials`` and ``acceptance`` digests are checked by
``tests/test_bits.py`` and ``tests/test_acceptance.py``.

The digests depend on the numpy and BLAS builds and on the BLAS kernel, so
each mode prints them with the environment.  ``BITS.json`` records the
digests and the environment they were taken on; when the environment is the
same and a digest is not, the script exits 1.  The lracma imported is the
one in the ``src`` directory next to this script's parent, so a copy of the
script placed in another checkout checks that checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lracma import cli  # noqa: E402
from lracma.harness import TrialConfig, run_suite  # noqa: E402
from lracma.problems import PROBLEM_NAMES, make_problem  # noqa: E402
from test_acceptance import FIXED_UNIT  # noqa: E402
from test_bits import MODES, current_env, recorded_bits, results_digest  # noqa: E402

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


def grid_configs():
    """The 134 trials of ``grid``, in hashing order."""
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


def cut_preset(name: str) -> dict:
    """The preset ``configs/{name}.yaml`` shrunk to a quick run."""
    raw = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
    raw["suite"].update(CUT)
    for entry in raw["grid"]:
        entry["dims"] = [4]
    if "sweep" in raw:
        raw["sweep"]["values"] = raw["sweep"]["values"][:2]
    return raw


def artifact_cases():
    """(name, argv) pairs; paths are relative to the working directory."""
    cases = []
    for command, preset in PRESETS:
        cases.append((preset, [command, f"{preset}.yaml", "--jobs", "1"]))
    cases.append(("noisy_desk_jobs2", ["suite", "noisy_desk.yaml", "--jobs", "2"]))
    for name, args in RUN_CASES:
        cases.append((name, RUN + args))
    return [(name, argv + ["--out", name]) for name, argv in cases]


def artifacts_digest():
    """(digest, number of cases, number of files, exit codes by case)."""
    h = hashlib.sha256()
    n_files, codes = 0, {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for _, preset in PRESETS:
                Path(f"{preset}.yaml").write_text(yaml.safe_dump(cut_preset(preset)))
            for name, argv in artifact_cases():
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                codes[name] = code
                h.update(f"{name}|{code}|{stdout.getvalue()}".encode())
                for path in sorted(p for p in Path(name).rglob("*") if p.is_file()):
                    h.update(f"{path.as_posix()}|".encode() + path.read_bytes())
                    n_files += 1
        finally:
            os.chdir(home)
    return h.hexdigest(), len(codes), n_files, codes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["artifacts"], ["grid"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    mode = argv[0]
    env = current_env()
    start = time.perf_counter()
    if mode == "artifacts":
        digest, n_cases, n_files, codes = artifacts_digest()
        report = {"digest": digest, "cases": n_cases, "files": n_files, "exit_codes": codes}
    else:
        results = run_suite(grid_configs())
        report = {"digest": results_digest(results), "trials": len(results)}
    report["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps({"mode": mode, **report, "env": env}, indent=2))

    recorded = recorded_bits()
    if recorded["env"] != env:
        print("BITS.json was recorded on another environment; nothing to compare")
        return 0
    same = recorded[mode]["digest"] == report["digest"]
    print("matches BITS.json" if same else f"differs from BITS.json: {recorded[mode]['digest']}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
