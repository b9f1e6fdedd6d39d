"""Benchmark objectives, their initial distributions, and the noise wrapper.

All functions accept arrays of shape (..., d) and reduce over the last axis,
so a whole population evaluates in one call.  Minima are 0 at the origin for
every function except Rosenbrock, whose minimizer is the all-ones vector.
Sums and products call the ufunc reductions (``np.add.reduce``) that
``np.sum``/``np.prod`` wrap: the same arithmetic, without the wrapper's cost.

The Ackley function is used with the conventional box [-32.768, 32.768]^d;
candidates outside the box are repaired by coordinate-wise clipping *for
evaluation only*, so the optimizer's update still sees the raw samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

ACKLEY_BOUND = 32.768


def sphere(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.square(x), axis=-1)


@functools.lru_cache(maxsize=64)
def _ellipsoid_scale(d: int) -> np.ndarray:
    scale = 1000.0 ** (np.arange(d) / (d - 1))
    scale.flags.writeable = False
    return scale


def ellipsoid(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.square(_ellipsoid_scale(x.shape[-1]) * x), axis=-1)


def rosenbrock(x: np.ndarray) -> np.ndarray:
    a = x[..., :-1]
    b = x[..., 1:]
    return np.add.reduce(
        100.0 * np.square(b - np.square(a)) + np.square(a - 1.0), axis=-1
    )


def ackley(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    rms = np.sqrt(np.add.reduce(np.square(x), axis=-1) / d)
    return (
        20.0
        - 20.0 * np.exp(-0.2 * rms)
        + math.e
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / d)
    )


def schaffer(x: np.ndarray) -> np.ndarray:
    s = np.square(x[..., :-1]) + np.square(x[..., 1:])
    return np.add.reduce(
        s**0.25 * (np.square(np.sin(50.0 * s**0.1)) + 1.0), axis=-1
    )


def rastrigin(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    return 10.0 * d + np.add.reduce(
        np.square(x) - 10.0 * np.cos(2.0 * np.pi * x), axis=-1
    )


def bohachevsky(x: np.ndarray) -> np.ndarray:
    a = x[..., :-1]
    b = x[..., 1:]
    return np.add.reduce(
        np.square(a)
        + 2.0 * np.square(b)
        - 0.3 * np.cos(3.0 * np.pi * a)
        - 0.4 * np.cos(4.0 * np.pi * b)
        + 0.7,
        axis=-1,
    )


def griewank(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    return (
        np.add.reduce(np.square(x), axis=-1) / 4000.0
        - np.multiply.reduce(np.cos(x / np.sqrt(np.arange(1, d + 1))), axis=-1)
        + 1.0
    )


@dataclass(frozen=True)
class _Benchmark:
    fn: Callable[[np.ndarray], np.ndarray]
    init_m: float
    init_sigma: float
    min_d: int = 1
    optimum_at_ones: bool = False
    bounded: bool = False


_BENCHMARKS = {
    "sphere": _Benchmark(sphere, init_m=3.0, init_sigma=2.0),
    "ellipsoid": _Benchmark(ellipsoid, init_m=3.0, init_sigma=2.0, min_d=2),
    "rosenbrock": _Benchmark(
        rosenbrock, init_m=0.0, init_sigma=0.1, min_d=2, optimum_at_ones=True
    ),
    "ackley": _Benchmark(ackley, init_m=15.5, init_sigma=14.5, bounded=True),
    "schaffer": _Benchmark(schaffer, init_m=55.0, init_sigma=45.0, min_d=2),
    "rastrigin": _Benchmark(rastrigin, init_m=3.0, init_sigma=2.0),
    "bohachevsky": _Benchmark(bohachevsky, init_m=8.0, init_sigma=7.0, min_d=2),
    "griewank": _Benchmark(griewank, init_m=305.0, init_sigma=295.0),
}

PROBLEM_NAMES = tuple(_BENCHMARKS)


@dataclass(frozen=True)
class Problem:
    """A benchmark objective with optional additive Gaussian noise.

    ``noise_variance`` is the variance of the noise added by the noisy
    evaluators (0 means noiseless).  ``bounds``, when present, clip points
    before evaluation only.  Instances are immutable; evaluation is
    re-entrant given a caller-supplied random generator.  Equality and
    hashing skip the arrays, which ``make_problem`` derives from (name, d).
    """

    name: str
    d: int
    noise_variance: float
    init_m: np.ndarray = field(compare=False)
    init_sigma: float
    optimum: np.ndarray = field(compare=False)
    fn: Callable[[np.ndarray], np.ndarray]
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, compare=False)

    def _repair(self, x: np.ndarray) -> np.ndarray:
        if self.bounds is None:
            return x
        return np.clip(x, self.bounds[0], self.bounds[1])

    def evaluate_noiseless(self, x) -> float:
        """Exact objective value at ``x`` (after bound repair, if any)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"expected a vector of length {self.d}, got {x.shape}")
        return float(self.fn(self._repair(x)))

    def evaluate_noisy(self, x, rng: np.random.Generator) -> float:
        """Objective plus sigma_n * g with g ~ N(0, 1) drawn from ``rng``.

        With zero noise variance no draw is made and the value equals the
        noiseless one exactly.
        """
        value = self.evaluate_noiseless(x)
        if self.noise_variance == 0.0:
            return value
        return value + math.sqrt(self.noise_variance) * rng.standard_normal()

    def evaluate_population(self, x: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Evaluate one point per row, with one noise draw per row in order.

        Block noise draws match per-point draws variate for variate, so this
        is just the fast path of ``evaluate_noisy``.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected an (n, {self.d}) array, got {x.shape}")
        values = self.fn(self._repair(x))
        if self.noise_variance == 0.0:
            return values
        if rng is None:
            raise ValueError("a random generator is required for noisy evaluation")
        return values + math.sqrt(self.noise_variance) * rng.standard_normal(len(x))


def make_problem(name: str, d: int, noise_variance: float = 0.0) -> Problem:
    """Build a named benchmark with its standard initial distribution."""
    try:
        bench = _BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        ) from None
    if d < bench.min_d:
        raise ValueError(f"{name} requires dimension >= {bench.min_d}, got {d}")
    if not 0 <= noise_variance < math.inf:
        raise ValueError("noise variance must be finite and nonnegative")
    optimum = np.ones(d) if bench.optimum_at_ones else np.zeros(d)
    bounds = None
    if bench.bounded:
        bounds = (np.full(d, -ACKLEY_BOUND), np.full(d, ACKLEY_BOUND))
    return Problem(
        name=name,
        d=d,
        noise_variance=float(noise_variance),
        init_m=np.full(d, bench.init_m),
        init_sigma=bench.init_sigma,
        optimum=optimum,
        fn=bench.fn,
        bounds=bounds,
    )
