"""Bit-identity check: a small slice of seeded trials hashes to a recorded digest.

Speed work on the generation step must not change a single bit of any
trial.  This test runs every optimizer mode on Sphere and on noisy
Rastrigin at d=10, plus one adaptive Ellipsoid trial at d=40, and hashes
the results with SHA-256 over this byte layout, trial by trial in order:

- each column of the history, read with ``History.column(name)`` in
  ``HISTORY_COLUMNS`` order, as little-endian float64;
- then ``f"{evals}|{termination}|{reason}|{best_noiseless_fm!r}"`` as ASCII.

The digest depends on the numpy and BLAS builds, and a dynamically
dispatched OpenBLAS picks its kernel from the CPU at load time, with
rounding that differs between kernels.  So ``BITS.json``'s ``trials`` holds
one digest per kernel (each computed by forcing it with
``OPENBLAS_CORETYPE``), and the test matches on the kernel alone.  A kernel
with no digest skips the test; a skip or a mismatch prints the digest
computed here and the environment ``BITS.json`` records.  A change that
alters the bits on purpose re-records the digests and says so.
"""

import ctypes
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from lracma.harness import HISTORY_COLUMNS, TrialConfig, run_suite
from lracma.problems import make_problem

MODES = (
    dict(optimizer="lra"),
    dict(optimizer="fixed", eta_m=0.5, eta_sigma=0.2),
    dict(optimizer="fixed", eta_m=1.0, eta_sigma=1.0),
    dict(optimizer="plain"),
)


def bit_configs():
    configs = []
    for problem in (make_problem("sphere", 10), make_problem("rastrigin", 10, 1.0)):
        for seed, mode in enumerate(MODES):
            configs.append(TrialConfig(problem=problem, max_evals=8000, seed=seed, **mode))
    configs.append(
        TrialConfig(problem=make_problem("ellipsoid", 40), max_evals=15000, seed=7)
    )
    return configs


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


def current_env() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "blas_core": blas_core(),
    }


def recorded_bits() -> dict:
    return json.loads((Path(__file__).resolve().parents[1] / "BITS.json").read_text())


def check_digest(name: str, digest: str, recorded) -> None:
    """Fail unless ``digest`` is ``recorded``; skip when ``recorded`` is None."""
    env = recorded_bits()["env"]
    where = f"computed {digest} on {current_env()}\nBITS.json's environment: {env}"
    if recorded is None:
        pytest.skip(f"no {name} digest recorded for this environment; {where}")
    assert digest == recorded, f"{name} bits changed from {recorded}: {where}"


def test_trial_slice_matches_pinned_digest():
    digest = results_digest(run_suite(bit_configs()))
    check_digest("trial slice", digest, recorded_bits()["trials"]["digests"].get(blas_core()))
