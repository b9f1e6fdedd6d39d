"""Bit-identity check: a small slice of seeded trials hashes to a pinned digest.

Speed work on the generation step must not change a single bit of any
trial.  This test runs every optimizer mode on Sphere and on noisy
Rastrigin at d=10, plus one adaptive Ellipsoid trial at d=40, and hashes
the results with SHA-256 over this byte layout, trial by trial in order:

- each column of the history, read with ``History.column(name)`` in
  ``HISTORY_COLUMNS`` order, as little-endian float64;
- then ``f"{evals}|{termination}|{reason}|{best_noiseless_fm!r}"`` as ASCII.

The digest depends on the numpy and BLAS builds, and a dynamically
dispatched OpenBLAS picks its kernel from the CPU at load time, with
rounding that differs between kernels.  So one digest is pinned per
kernel (each computed by forcing it with ``OPENBLAS_CORETYPE``), a kernel
with no pinned digest skips the test, and a mismatch prints the
environment the digests were pinned on next to the current one.  A change
that alters the bits on purpose re-pins the digests and says so.
"""

import ctypes
import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from lracma.harness import HISTORY_COLUMNS, TrialConfig, run_trial
from lracma.problems import make_problem

PINNED_DIGESTS = {
    "SkylakeX": "e7be138b3db7c006f198c651adcb3b085bb9aa321cb5b4752e69dfb1d0ee914d",
    "Haswell": "142251a098f2edeeaa65b5c7b054eaba3de914c9fd424e4a700ca4b01ba28a96",
    "Sandybridge": "193c46430f78cc61f74b9d13b0ca4202a46c337e220961f976649d698962a088",
    "Nehalem": "14d5f9895096f77bc5c2d2f33918c35c2fb980f9dbc06b62114bfe28c98d81c9",
    "Katmai": "09a10286459ef4746d7f2df626f922d3866113c0754c957eb439c04274d7d3de",
}
PINNED_ENV = {
    "python": "3.11.7",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
}

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


def trials_digest(configs) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        res = run_trial(cfg)
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


def test_trial_slice_matches_pinned_digest():
    env = current_env()
    pinned = PINNED_DIGESTS.get(env["blas_core"])
    if pinned is None:
        pytest.skip(f"no digest pinned for this BLAS kernel; running on: {env}")
    digest = trials_digest(bit_configs())
    assert digest == pinned, (
        f"trial bits changed: {digest} != {pinned}\n"
        f"pinned on: {PINNED_ENV} (one digest per kernel: {sorted(PINNED_DIGESTS)})\n"
        f"running on: {env}"
    )
