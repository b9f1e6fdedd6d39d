"""Plain CMA-ES generation step: sampling, ranking, evolution paths, update.

This is the standard weighted-recombination CMA-ES with cumulative step-size
adaptation, rank-one plus rank-mu covariance updates and mean rate c_m = 1.
The operations are pure functions of plain arrays, floats and the constants
in `StrategyParams`, and never mutate their inputs; the state they read and
return (m, sigma, C, the two paths, t) lives as plain attributes of
`lracma.lra.LraCmaEs`.  ``cma_candidate_update`` returns a *proposed*
``(m, sigma, C)``, so the learning-rate layer can blend old and proposed
parameters afterwards.  Products and row gathers call ``a.dot(b)`` and
``a.take(i, axis=0)``, the same BLAS routine and copy as ``a @ b`` and
``a[i]`` with less dispatch: at the default population size, per-call
overhead rather than arithmetic sets the cost of a generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidFitnessError, NumericalError


@dataclass(frozen=True)
class StrategyParams:
    """Dimension-derived CMA-ES constants.

    Use :func:`default_strategy_params` for the standard settings.  The
    constructor checks hand-built choices for the public ops and sets
    ``mu`` = ``weights.size``, ``mu_w`` = 1 / sum w_i^2 and ``chi_d`` ~ E|N(0, I)|
    once, as plain fields that the ops read every generation.
    """

    d: int
    lam: int
    weights: np.ndarray
    c_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    d_sigma: float
    mu: int = field(init=False)
    mu_w: float = field(init=False)
    chi_d: float = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.lam < 2:
            raise ValueError("population size must be at least 2")
        w = self.weights
        if w.ndim != 1 or not 1 <= w.size <= self.lam:
            raise ValueError("weights must be a vector of 1 to lambda values")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be nonincreasing")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        for name in ("c_sigma", "c_c"):
            val = getattr(self, name)
            if not 0 < val <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.c_1 < 0 or self.c_mu < 0:
            raise ValueError("covariance learning rates must be nonnegative")
        if not self.d_sigma > 0:
            raise ValueError("d_sigma must be positive")
        d = self.d
        object.__setattr__(self, "mu", w.size)
        object.__setattr__(self, "mu_w", 1.0 / float(w @ w))
        object.__setattr__(self, "chi_d", math.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d**2)))


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
    return StrategyParams(
        d=d,
        lam=lam,
        weights=weights,
        c_sigma=c_sigma,
        c_c=c_c,
        c_1=c_1,
        c_mu=c_mu,
        d_sigma=d_sigma,
    )


def ranking(fitness: np.ndarray) -> np.ndarray:
    """Indices sorted by fitness ascending, ties broken by sample index."""
    if np.count_nonzero(np.isfinite(fitness)) != fitness.size:
        raise InvalidFitnessError("fitness values must be finite")
    return fitness.argsort(kind="stable")


def sample_population(
    m: np.ndarray,
    sigma: float,
    sqrt_C: np.ndarray,
    sp: StrategyParams,
    rng: np.random.Generator,
):
    """Draw lambda candidates x_i = m + sigma * sqrt(C) z_i, z_i ~ N(0, I).

    ``sqrt_C`` is a symmetric square root of C, used as given (roots from
    different decompositions of C agree up to round-off only).  Returns
    ``(x, y, z)``, one candidate per row, with y_i = sqrt(C) z_i.
    """
    z = rng.standard_normal((sp.lam, sp.d))
    y = z.dot(sqrt_C.T)
    x = m + sigma * y
    return x, y, z


def rank_and_recombine(y: np.ndarray, z: np.ndarray, fitness: np.ndarray, sp: StrategyParams):
    """Weighted averages of the best-mu steps: dy = sum_i w_i y_{i:lam}, dz alike.

    Returns ``(dy, dz, y_best)``; ``y_best`` holds the best-mu rows of ``y``
    in rank order, which the rank-mu update reuses.
    """
    if fitness.shape != (sp.lam,):
        raise ValueError("population must carry one fitness value per candidate")
    best = ranking(fitness)[: sp.mu]
    y_best = y.take(best, axis=0)
    dy = sp.weights.dot(y_best)
    dz = sp.weights.dot(z.take(best, axis=0))
    return dy, dz, y_best


def update_paths(
    p_sigma: np.ndarray,
    p_c: np.ndarray,
    t: int,
    dy: np.ndarray,
    dz: np.ndarray,
    sp: StrategyParams,
):
    """Cumulate both evolution paths after ``t`` completed generations.

    Returns ``(p_sigma, p_c, h_sigma, norm2)`` with ``norm2`` = |p_sigma|^2
    of the new step-size path.  h_sigma stalls the rank-one cumulation while
    the step-size path is still unusually long, and additionally triggers a
    variance correction term in the covariance update.
    """
    p_sigma = (1 - sp.c_sigma) * p_sigma + math.sqrt(
        sp.c_sigma * (2 - sp.c_sigma) * sp.mu_w
    ) * dz
    norm2 = float(p_sigma.dot(p_sigma))
    h_sigma = int(
        norm2 / (1 - (1 - sp.c_sigma) ** (2 * (t + 1))) < (2 + 4 / (sp.d + 1)) * sp.d
    )
    p_c = (1 - sp.c_c) * p_c + h_sigma * math.sqrt(
        sp.c_c * (2 - sp.c_c) * sp.mu_w
    ) * dy
    return p_sigma, p_c, h_sigma, norm2


def cma_candidate_update(
    m: np.ndarray,
    sigma: float,
    C: np.ndarray,
    norm2: float,
    p_c: np.ndarray,
    h_sigma: int,
    dy: np.ndarray,
    y_best: np.ndarray,
    sp: StrategyParams,
):
    """One plain CMA-ES parameter update, returned as a proposed ``(m, sigma, C)``.

    ``norm2`` and ``p_c`` are this generation's freshly cumulated path
    values and ``y_best`` the ranked best-mu steps, as :func:`update_paths`
    and :func:`rank_and_recombine` return them.  The exponent of the
    step-size update is clamped at 1, and the covariance update combines the
    h_sigma correction, rank-one, and rank-mu terms; the result is
    explicitly symmetrized.
    """
    m_new = m + sigma * dy
    sigma_new = sigma * math.exp(
        min(1.0, (sp.c_sigma / sp.d_sigma) * (math.sqrt(norm2) / sp.chi_d - 1.0))
    )
    rank_mu = (y_best.T * sp.weights).dot(y_best)
    C_new = (
        (1 + (1 - h_sigma) * sp.c_1 * sp.c_c * (2 - sp.c_c)) * C
        + sp.c_1 * (p_c[:, None] * p_c - C)
        + sp.c_mu * (rank_mu - C)
    )
    C_new = (C_new + C_new.T) / 2.0
    if (
        np.count_nonzero(np.isfinite(m_new)) != m_new.size
        or not math.isfinite(sigma_new)
        or np.count_nonzero(np.isfinite(C_new)) != C_new.size
    ):
        raise NumericalError("nonfinite_state", "CMA update produced non-finite values")
    return m_new, sigma_new, C_new
