"""Plain CMA-ES generation step: sampling, ranking, evolution paths, update.

This is the standard weighted-recombination CMA-ES with cumulative step-size
adaptation and rank-one plus rank-mu covariance updates.  The operations are
pure: ``cma_candidate_update`` returns a *proposed* parameter triple and never
mutates its inputs, so the learning-rate layer (`lracma.lra`) can blend old
and proposed parameters afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidFitnessError, NumericalError
from .linalg import sym_sqrt, symmetrize


@dataclass(frozen=True)
class DistributionParams:
    """Search distribution N(m, sigma^2 C).

    ``m`` is the mean in search-space units, ``sigma`` the positive scalar
    step-size, and ``C`` the (symmetric positive definite) shape matrix.
    """

    m: np.ndarray
    sigma: float
    C: np.ndarray

    def __post_init__(self):
        if self.m.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        if self.C.shape != (self.m.size, self.m.size):
            raise ValueError("covariance shape does not match the mean dimension")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def d(self) -> int:
        return self.m.size

    @property
    def covariance(self) -> np.ndarray:
        """Full covariance sigma^2 C, built on demand."""
        return self.sigma**2 * self.C


@dataclass(frozen=True)
class StrategyParams:
    """Dimension-derived CMA-ES constants.

    Use :func:`default_strategy_params` for the standard settings; direct
    construction is validated so hand-built parameter sets stay coherent.
    """

    d: int
    lam: int
    mu: int
    weights: np.ndarray
    mu_w: float
    c_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    c_m: float
    d_sigma: float
    chi_d: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.lam < 2:
            raise ValueError("population size must be at least 2")
        if not 1 <= self.mu <= self.lam:
            raise ValueError("parent number must satisfy 1 <= mu <= lambda")
        w = self.weights
        if w.shape != (self.mu,):
            raise ValueError("weights must have length mu")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be nonincreasing")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        mu_w = 1.0 / float(w @ w)
        if abs(self.mu_w - mu_w) > 1e-12 * mu_w:
            raise ValueError("mu_w is inconsistent with the weights")
        chi_d = math.sqrt(self.d) * (1 - 1 / (4 * self.d) + 1 / (21 * self.d**2))
        if abs(self.chi_d - chi_d) > 1e-12 * chi_d:
            raise ValueError("chi_d does not match its defining formula")
        for name in ("c_sigma", "c_c"):
            val = getattr(self, name)
            if not 0 < val <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.c_1 < 0 or self.c_mu < 0:
            raise ValueError("covariance learning rates must be nonnegative")
        if not self.c_m > 0 or not self.d_sigma > 0:
            raise ValueError("c_m and d_sigma must be positive")


def default_population_size(d: int) -> int:
    """The standard population size lambda = 4 + floor(3 ln d)."""
    return 4 + int(3 * math.log(d))


def default_strategy_params(d: int, lam: Optional[int] = None) -> StrategyParams:
    """Standard CMA-ES constants for dimension ``d``.

    ``lam`` defaults to :func:`default_population_size`.  Weights are
    log-rank weights over the better half, normalized to sum 1; the
    cumulation factors, covariance learning rates, and step-size damping
    follow the widely used tutorial defaults (spelled out in the README so
    other implementations can agree constant-for-constant).
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if lam is None:
        lam = default_population_size(d)
    if lam < 2:
        raise ValueError("population size must be at least 2")
    mu = lam // 2
    weights = np.log((lam + 1) / 2) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mu_w = 1.0 / float(weights @ weights)
    c_sigma = (mu_w + 2) / (d + mu_w + 5)
    d_sigma = 1 + 2 * max(0.0, math.sqrt((mu_w - 1) / (d + 1)) - 1) + c_sigma
    c_c = (4 + mu_w / d) / (d + 4 + 2 * mu_w / d)
    c_1 = 2 / ((d + 1.3) ** 2 + mu_w)
    c_mu = min(1 - c_1, 2 * (mu_w - 2 + 1 / mu_w) / ((d + 2) ** 2 + mu_w))
    chi_d = math.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d**2))
    return StrategyParams(
        d=d,
        lam=lam,
        mu=mu,
        weights=weights,
        mu_w=mu_w,
        c_sigma=c_sigma,
        c_c=c_c,
        c_1=c_1,
        c_mu=c_mu,
        c_m=1.0,
        d_sigma=d_sigma,
        chi_d=chi_d,
    )


@dataclass(frozen=True)
class EvolutionPaths:
    """Cumulated step-size and covariance paths plus the iteration counter."""

    p_sigma: np.ndarray
    p_c: np.ndarray
    t: int = 0

    @classmethod
    def zero(cls, d: int) -> "EvolutionPaths":
        return cls(p_sigma=np.zeros(d), p_c=np.zeros(d), t=0)


@dataclass
class EvaluatedPopulation:
    """One sampled generation; rows of ``x``, ``y``, ``z`` are per-candidate.

    By construction x_i = m + sigma * y_i with y_i = sqrt(C) z_i.  ``fitness``
    stays ``None`` until the caller evaluates the candidates.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fitness: Optional[np.ndarray] = None

    def ranking(self) -> np.ndarray:
        """Indices sorted by fitness ascending, ties broken by sample index."""
        if self.fitness is None:
            raise ValueError("population has not been evaluated yet")
        if not np.isfinite(self.fitness).all():
            raise InvalidFitnessError("fitness values must be finite")
        return self.fitness.argsort(kind="stable")


def sample_population(
    params: DistributionParams,
    sp: StrategyParams,
    rng: np.random.Generator,
    sqrt_C: Optional[np.ndarray] = None,
) -> EvaluatedPopulation:
    """Draw lambda candidates x_i = m + sigma * sqrt(C) z_i, z_i ~ N(0, I).

    ``sqrt_C`` is a symmetric square root of ``params.C`` the caller already
    holds, used as given (roots from different decompositions of C agree up
    to round-off only); ``sym_sqrt(params.C)`` when omitted.
    """
    if sqrt_C is None:
        if not np.isfinite(params.C).all():
            raise NumericalError("nonfinite_state", "covariance has non-finite entries")
        sqrt_C = sym_sqrt(params.C)
    z = rng.standard_normal((sp.lam, sp.d))
    y = z @ sqrt_C.T
    x = params.m + params.sigma * y
    return EvaluatedPopulation(x=x, y=y, z=z)


def rank_and_recombine(pop: EvaluatedPopulation, sp: StrategyParams, best=None):
    """Weighted averages of the best-mu steps: dy = sum_i w_i y_{i:lam}, dz alike.

    ``best`` takes precomputed best-mu indices, ``pop.ranking()[:mu]``.
    """
    if pop.fitness is None or pop.fitness.shape != (sp.lam,):
        raise ValueError("population must carry one fitness value per candidate")
    if best is None:
        best = pop.ranking()[: sp.mu]
    dy = sp.weights @ pop.y[best]
    dz = sp.weights @ pop.z[best]
    return dy, dz


def update_paths(paths: EvolutionPaths, dy: np.ndarray, dz: np.ndarray, sp: StrategyParams):
    """Cumulate both evolution paths; returns the new paths and h_sigma.

    h_sigma stalls the rank-one cumulation while the step-size path is still
    unusually long, and additionally triggers a variance correction term in
    the covariance update.
    """
    t_new = paths.t + 1
    p_sigma = (1 - sp.c_sigma) * paths.p_sigma + math.sqrt(
        sp.c_sigma * (2 - sp.c_sigma) * sp.mu_w
    ) * dz
    norm2 = float(p_sigma @ p_sigma)
    h_sigma = int(
        norm2 / (1 - (1 - sp.c_sigma) ** (2 * t_new)) < (2 + 4 / (sp.d + 1)) * sp.d
    )
    p_c = (1 - sp.c_c) * paths.p_c + h_sigma * math.sqrt(
        sp.c_c * (2 - sp.c_c) * sp.mu_w
    ) * dy
    return EvolutionPaths(p_sigma=p_sigma, p_c=p_c, t=t_new), h_sigma


def cma_candidate_update(
    params: DistributionParams,
    paths: EvolutionPaths,
    h_sigma: int,
    dy: np.ndarray,
    pop: EvaluatedPopulation,
    sp: StrategyParams,
    best=None,
) -> DistributionParams:
    """One plain CMA-ES parameter update, returned as a proposal.

    ``paths`` must already hold the freshly cumulated paths for this
    generation; ``best`` is as in :func:`rank_and_recombine`.  The exponent
    of the step-size update is clamped at 1, and the covariance update
    combines the h_sigma correction, rank-one, and rank-mu terms; the result
    is explicitly symmetrized.
    """
    m_new = params.m + sp.c_m * params.sigma * dy
    p_sigma, p_c = paths.p_sigma, paths.p_c
    p_norm = math.sqrt(float(p_sigma @ p_sigma))
    sigma_new = params.sigma * math.exp(
        min(1.0, (sp.c_sigma / sp.d_sigma) * (p_norm / sp.chi_d - 1.0))
    )
    if best is None:
        best = pop.ranking()[: sp.mu]
    y_best = pop.y[best]
    rank_mu = (y_best.T * sp.weights) @ y_best
    C = params.C
    C_new = (
        (1 + (1 - h_sigma) * sp.c_1 * sp.c_c * (2 - sp.c_c)) * C
        + sp.c_1 * (p_c[:, None] * p_c - C)
        + sp.c_mu * (rank_mu - C)
    )
    C_new = symmetrize(C_new)
    if (
        not np.isfinite(m_new).all()
        or not math.isfinite(sigma_new)
        or not np.isfinite(C_new).all()
    ):
        raise NumericalError("nonfinite_state", "CMA update produced non-finite values")
    return DistributionParams(m=m_new, sigma=sigma_new, C=C_new)
