"""Learning-rate adaptation for CMA-ES driven by a signal-to-noise estimate.

The mean and covariance updates proposed by the plain CMA-ES step are scaled
by separate learning-rate factors eta_m and eta_sigma in (0, 1].  Each factor
is steered so that the signal-to-noise ratio of its parameter update, measured
in Fisher-local coordinates, stays near ``alpha * eta``: updates that are
mostly noise shrink eta, consistent progress raises it back towards 1.

Naming note: the ``_sigma`` suffix on eta/beta/snr refers to the *covariance*
component Sigma = sigma^2 C of the distribution parameters, never to the
scalar step-size, which is always plain ``sigma``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DistributionParams,
    EvaluatedPopulation,
    EvolutionPaths,
    StrategyParams,
    cma_candidate_update,
    default_strategy_params,
    rank_and_recombine,
    sample_population,
    update_paths,
)
from .errors import NumericalError, SingularMetricError
from .linalg import EIG_FLOOR, eigh_or_raise, sqrt_from_eigh, symmetrize

logger = logging.getLogger(__name__)

# Relative floor for repairing a blended covariance that lost positive
# definiteness to round-off: eigenvalues below 1e-20 * max eigenvalue are
# raised to that level (and the event is reported to the caller).
SPD_REL_FLOOR = 1e-20


@dataclass(frozen=True)
class LraHyperParams:
    """Hyperparameters of the learning-rate controller.

    Defaults are the recommended settings: target-SNR slope ``alpha`` = 1.4,
    smoothing factors ``beta_m`` = 0.1 and ``beta_sigma`` = 0.03, damping
    slope ``gamma`` = 0.1.
    """

    alpha: float = 1.4
    beta_m: float = 0.1
    beta_sigma: float = 0.03
    gamma: float = 0.1

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        for name in ("beta_m", "beta_sigma"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class LraComponentState:
    """Per-component controller state: eta plus the moving averages E and V.

    ``E`` tracks the local-coordinate deltas themselves (length d for the
    mean component, d^2 for the covariance component); ``V`` tracks their
    squared l2 norms.  Both start at zero with eta = 1.
    """

    eta: float
    E: np.ndarray
    V: float

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.V < 0:
            raise ValueError("V is a convex combination of squared norms, so >= 0")

    @classmethod
    def initial(cls, size: int) -> "LraComponentState":
        return cls(eta=1.0, E=np.zeros(size), V=0.0)


@dataclass(frozen=True)
class DeltaPair:
    """One-step parameter differences: mean delta and flattened Sigma delta.

    ``delta_sigma`` is the row-major vec of the change of the full covariance
    sigma^2 C, so it has length d^2 and reshapes to a symmetric matrix.
    """

    delta_m: np.ndarray
    delta_sigma: np.ndarray


def compute_deltas(old: DistributionParams, proposed: DistributionParams) -> DeltaPair:
    """Differences (proposed - old) for the mean and the full covariance."""
    if old.d != proposed.d:
        raise ValueError("old and proposed parameters must share the dimension")
    delta_m = proposed.m - old.m
    delta_sigma = (proposed.covariance - old.covariance).ravel()
    return DeltaPair(delta_m=delta_m, delta_sigma=delta_sigma)


def to_local_coordinates(dp: DeltaPair, w: np.ndarray, v: np.ndarray):
    """Map raw deltas into coordinates where the Fisher metric is the identity.

    ``(w, v)`` is the eigendecomposition of the old full covariance Sigma,
    eigenvalues ascending as ``numpy.linalg.eigh`` returns them.  With
    S = v diag(w^-1/2) v^T, the symmetric inverse square root of Sigma, the
    mean delta becomes S delta_m and the covariance delta becomes
    2^(-1/2) vec(S mat(delta_sigma) S).

    Raises:
        SingularMetricError: if the smallest eigenvalue is at or below the
            eigenvalue floor, so the metric cannot be inverted.
    """
    if w[0] <= EIG_FLOOR:
        raise SingularMetricError(f"min eigenvalue {w[0]:.3e} <= {EIG_FLOOR:.0e}")
    d = dp.delta_m.size
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    tilde_m = inv_sqrt @ dp.delta_m
    tilde_sigma = math.sqrt(0.5) * (
        inv_sqrt @ dp.delta_sigma.reshape(d, d) @ inv_sqrt
    ).ravel()
    return tilde_m, tilde_sigma


def update_snr_state(state: LraComponentState, tilde: np.ndarray, beta: float) -> LraComponentState:
    """Exponential moving averages: E of the deltas, V of their squared norms."""
    if tilde.shape != state.E.shape:
        raise ValueError("delta dimension does not match the moving average")
    E = (1 - beta) * state.E + beta * tilde
    V = (1 - beta) * state.V + beta * float(tilde @ tilde)
    return LraComponentState(state.eta, E, V)


def estimate_snr(state: LraComponentState, beta: float) -> float:
    """Signal-to-noise estimate from the moving averages.

    Returns (|E|^2 - beta/(2-beta) V) / (V - |E|^2).  A degenerate
    denominator (V <= |E|^2, including the all-zero initial state) is
    signalled as +inf: the noise estimate vanished, so the adaptation's
    projected feedback saturates at its maximum of +1.
    """
    e2 = float(state.E @ state.E)
    denom = state.V - e2
    if denom <= 0.0:
        return math.inf
    return (e2 - beta / (2 - beta) * state.V) / denom


def adapt_learning_rate(eta: float, snr_hat: float, hp: LraHyperParams, beta: float) -> float:
    """One multiplicative eta update, capped at 1.

    The feedback term (snr_hat / (alpha eta) - 1) is projected onto [-1, 1]
    and damped by min(gamma eta, beta), so |ln eta' - ln eta| never exceeds
    that damping factor.
    """
    feedback = min(1.0, max(-1.0, snr_hat / (hp.alpha * eta) - 1.0))
    eta_new = eta * math.exp(min(hp.gamma * eta, beta) * feedback)
    return min(eta_new, 1.0)


def apply_blended_update(
    old: DistributionParams,
    dp: DeltaPair,
    eta_m: float,
    eta_sigma: float,
    proposed: Optional[DistributionParams] = None,
):
    """Scale the parameter deltas by their learning rates and apply them.

    Returns ``(m_new, cov_new, (w, v), floored)`` where ``cov_new`` is the
    full covariance Sigma, ``(w, v)`` its eigendecomposition,
    the generation's only one, and ``floored`` reports whether round-off
    pushed an eigenvalue of the blend below the relative floor and it had to
    be raised.  A Sigma with no positive eigenvalue raises NumericalError
    ``nonpositive_determinant``.

    When a component's eta is exactly 1 and ``proposed`` is given, that
    component is taken from ``proposed`` unchanged; a full step then
    reproduces the plain update bit for bit instead of via old + (new - old).

    Precondition: ``old.C`` and ``mat(dp.delta_sigma)`` are exactly
    symmetric, so the blend old + eta * delta is exactly symmetric and is
    not symmetrized again.  Every state of :class:`LraCmaEs` satisfies it:
    the constructor rejects an asymmetric initial C,
    :func:`cma_candidate_update` symmetrizes its proposal, and the re-split
    only divides by a scalar.
    """
    d = old.d
    if eta_m == 1.0 and proposed is not None:
        m_new = proposed.m
    else:
        m_new = old.m + eta_m * dp.delta_m
    full_step = eta_sigma == 1.0 and proposed is not None
    if full_step:
        cov_new = proposed.covariance
    else:
        cov_new = old.covariance + eta_sigma * dp.delta_sigma.reshape(d, d)
    w, v = eigh_or_raise(cov_new)
    if w[-1] <= 0:
        raise NumericalError(
            "nonpositive_determinant", "blended covariance has no positive eigenvalue"
        )
    floor = SPD_REL_FLOOR * w[-1]
    floored = not full_step and bool(w[0] < floor)
    if floored:
        logger.warning(
            "blended covariance lost positive definiteness (min eig %.3e); flooring",
            w[0],
        )
        w = np.maximum(w, floor)
        cov_new = symmetrize((v * w) @ v.T)
    return m_new, cov_new, (w, v), floored


def decompose_sigma(cov: np.ndarray, w: np.ndarray):
    """Split a full covariance into (sigma, C) with det(C) = 1.

    ``w`` holds the eigenvalues of ``cov`` in ascending order, as
    ``numpy.linalg.eigh`` returns them.  sigma = det(Sigma)^(1/(2d)),
    taken as exp(sum(log w) / (2d)), and C = Sigma / sigma^2, whose
    eigenvalues are then w / sigma^2.

    Raises:
        NumericalError: with reason ``nonpositive_determinant`` if an
            eigenvalue is not positive or the determinant is not finite.
    """
    d = cov.shape[0]
    logdet = float(np.add.reduce(np.log(w))) if w[0] > 0 else math.nan
    if not math.isfinite(logdet):
        raise NumericalError("nonpositive_determinant", f"min eigenvalue {w[0]:.3e}")
    sigma = math.exp(logdet / (2 * d))
    return sigma, cov / sigma**2


def correct_step_size(sigma: float, eta_m_old: float, eta_m_new: float) -> float:
    """Rescale sigma by eta_m_old / eta_m_new.

    The step-size that maximizes one-step progress scales like 1 / eta_m, so
    sigma is corrected whenever the mean learning rate moves.
    """
    if not (eta_m_old > 0 and eta_m_new > 0):
        raise ValueError("learning rates must be positive")
    return sigma * (eta_m_old / eta_m_new)


@dataclass(frozen=True)
class IterationStats:
    """Per-generation record emitted by :meth:`LraCmaEs.tell`.

    ``snr_m`` / ``snr_sigma`` are NaN when no estimate was formed (fixed and
    plain modes).  ``eig_min`` / ``eig_max`` are the eigenvalue extremes of
    the full covariance sigma^2 C after the update, and ``det_c`` the
    determinant of the shape matrix C (1 after every re-split).
    """

    t: int
    evals: int
    sigma: float
    eta_m: float
    eta_sigma: float
    snr_m: float
    snr_sigma: float
    eig_min: float
    eig_max: float
    det_c: float
    floored: bool


class LraCmaEs:
    """CMA-ES with learning-rate adaptation, as an ask/tell optimizer.

    Each generation: ``ask()`` yields lambda candidates, the caller evaluates
    them, and ``tell(fitness)`` runs the plain CMA-ES update, measures the
    update's signal-to-noise ratio in Fisher-local coordinates, adapts eta_m
    and eta_sigma, applies the scaled updates, re-splits the covariance into
    (sigma, C) with det(C) = 1, and corrects sigma for the eta_m change.

    Args:
        mean: Initial mean vector (defines the dimension).
        sigma: Initial step-size, positive.
        cov: Initial shape matrix C; identity by default.  It must be a
            finite d x d matrix, exactly symmetric (``cov == cov.T``
            elementwise: the update keeps C symmetric by construction and
            never symmetrizes it again), and positive definite with every
            eigenvalue of sigma^2 C above ``EIG_FLOOR``; ``ValueError``
            otherwise.
        population_size: Candidates per generation; 4 + floor(3 ln d) by
            default.
        strategy: Full strategy constants, overriding ``population_size``.
        hyper: Controller hyperparameters (alpha, beta_m, beta_sigma, gamma).
        lr_mode: ``"adaptive"`` runs the full controller; ``"fixed"`` pins
            eta_m/eta_sigma to the given constants (still blending and
            re-splitting, no step-size correction since eta never moves);
            ``"plain"`` disables the layer entirely and assigns the proposed
            parameters directly, which is exactly the plain CMA-ES.
        eta_m, eta_sigma: Pinned learning rates for ``lr_mode="fixed"``.
        seed / rng: Seed for a fresh PCG64 generator, or a generator to use
            (also consumed by callers drawing evaluation noise, so one seed
            fixes a whole trial).
    """

    def __init__(
        self,
        mean,
        sigma: float,
        *,
        cov: Optional[np.ndarray] = None,
        population_size: Optional[int] = None,
        strategy: Optional[StrategyParams] = None,
        hyper: Optional[LraHyperParams] = None,
        lr_mode: str = "adaptive",
        eta_m: float = 1.0,
        eta_sigma: float = 1.0,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        mean = np.array(mean, dtype=float)
        d = mean.size
        if strategy is None:
            strategy = default_strategy_params(d, population_size)
        elif strategy.d != d:
            raise ValueError("strategy dimension does not match the mean")
        if cov is None:
            cov = np.eye(d)
        else:
            cov = np.array(cov, dtype=float)
            if cov.shape != (d, d) or not np.isfinite(cov).all():
                raise ValueError(f"cov must be a finite {d} x {d} matrix")
            if not np.array_equal(cov, cov.T):
                raise ValueError("cov must be exactly symmetric")
        if lr_mode not in ("adaptive", "fixed", "plain"):
            raise ValueError(f"unknown lr_mode {lr_mode!r}")
        if lr_mode == "plain" and (eta_m != 1.0 or eta_sigma != 1.0):
            raise ValueError("plain mode runs with eta_m = eta_sigma = 1")
        for name, val in (("eta_m", eta_m), ("eta_sigma", eta_sigma)):
            if not 0 < val <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        if rng is None:
            rng = np.random.default_rng(seed)
        elif seed is not None:
            raise ValueError("pass either seed or rng, not both")

        if lr_mode == "adaptive":
            eta_m = eta_sigma = 1.0
        self._sp = strategy
        self._hyper = hyper if hyper is not None else LraHyperParams()
        self._lr_mode = lr_mode
        self._rng = rng
        self._params = DistributionParams(m=mean, sigma=float(sigma), C=cov)
        self._paths = EvolutionPaths.zero(d)
        self._state_m = LraComponentState(eta=eta_m, E=np.zeros(d), V=0.0)
        self._state_sigma = LraComponentState(eta=eta_sigma, E=np.zeros(d * d), V=0.0)
        self._pending: Optional[EvaluatedPopulation] = None
        self._floor_count = 0
        w, v = eigh_or_raise(self._params.C)
        eig_min = self._params.sigma**2 * w[0]
        if not eig_min > EIG_FLOOR:
            raise ValueError(
                f"sigma^2 * cov must be positive definite: smallest eigenvalue "
                f"{eig_min:.3e} is not above {EIG_FLOOR:.0e}"
            )
        self._refresh_cov_cache(w, v)

    # -- read-only views -------------------------------------------------

    @property
    def params(self) -> DistributionParams:
        return self._params

    @property
    def mean(self) -> np.ndarray:
        return self._params.m

    @property
    def sigma(self) -> float:
        return self._params.sigma

    @property
    def strategy(self) -> StrategyParams:
        return self._sp

    @property
    def rng(self) -> np.random.Generator:
        """The trial's random stream; evaluation noise should draw from it too."""
        return self._rng

    @property
    def t(self) -> int:
        return self._paths.t

    @property
    def evals(self) -> int:
        return self._paths.t * self._sp.lam

    @property
    def eta_m(self) -> float:
        return self._state_m.eta

    @property
    def eta_sigma(self) -> float:
        return self._state_sigma.eta

    @property
    def floor_count(self) -> int:
        """How many generations needed the positive-definiteness repair."""
        return self._floor_count

    def initial_stats(self) -> IterationStats:
        """A t = 0 record of the starting state, for history logging."""
        return self._make_stats(math.nan, math.nan, False)

    # -- ask / tell -------------------------------------------------------

    def ask(self) -> np.ndarray:
        """Sample the next generation of candidates, one per row."""
        if self._pending is not None:
            raise RuntimeError("tell() must consume the pending population first")
        self._pending = sample_population(
            self._params, self._sp, self._rng, sqrt_C=self._sqrt_C
        )
        return self._pending.x

    def tell(self, fitness) -> IterationStats:
        """Consume fitness values for the pending population and update."""
        if self._pending is None:
            raise RuntimeError("ask() must be called before tell()")
        fitness = np.asarray(fitness, dtype=float)
        pop, self._pending = self._pending, None
        pop.fitness = fitness

        sp = self._sp
        hp = self._hyper
        old = self._params
        best = pop.ranking()[: sp.mu]
        dy, dz = rank_and_recombine(pop, sp, best)
        paths, h_sigma = update_paths(self._paths, dy, dz, sp)
        proposed = cma_candidate_update(old, paths, h_sigma, dy, pop, sp, best)

        state_m, state_sigma = self._state_m, self._state_sigma
        snr_m = snr_sigma = math.nan
        floored = False
        if self._lr_mode == "plain":
            params = proposed
            w_c, v = eigh_or_raise(params.C)
        else:
            dp = compute_deltas(old, proposed)
            eta_m_old = eta_m = state_m.eta
            eta_sigma = state_sigma.eta
            if self._lr_mode == "adaptive":
                w_old, v_old = self._eig_C
                w_old = old.sigma**2 * w_old
                tilde_m, tilde_sigma = to_local_coordinates(dp, w_old, v_old)
                state_m = update_snr_state(state_m, tilde_m, hp.beta_m)
                state_sigma = update_snr_state(state_sigma, tilde_sigma, hp.beta_sigma)
                snr_m = estimate_snr(state_m, hp.beta_m)
                snr_sigma = estimate_snr(state_sigma, hp.beta_sigma)
                eta_m = adapt_learning_rate(eta_m_old, snr_m, hp, hp.beta_m)
                eta_sigma = adapt_learning_rate(eta_sigma, snr_sigma, hp, hp.beta_sigma)
                state_m = LraComponentState(eta_m, state_m.E, state_m.V)
                state_sigma = LraComponentState(eta_sigma, state_sigma.E, state_sigma.V)
            m_new, cov_new, (w, v), floored = apply_blended_update(
                old, dp, eta_m, eta_sigma, proposed=proposed
            )
            sigma_new, C_new = decompose_sigma(cov_new, w)
            w_c = w / sigma_new**2
            if self._lr_mode == "adaptive":
                sigma_new = correct_step_size(sigma_new, eta_m_old, eta_m)
            if not np.isfinite(m_new).all() or not math.isfinite(sigma_new):
                raise NumericalError(
                    "nonfinite_state", "blended update produced non-finite values"
                )
            params = DistributionParams(m=m_new, sigma=sigma_new, C=C_new)

        self._params, self._paths = params, paths
        self._state_m, self._state_sigma = state_m, state_sigma
        self._floor_count += floored
        self._refresh_cov_cache(w_c, v)
        return self._make_stats(snr_m, snr_sigma, floored)

    # -- internals --------------------------------------------------------

    def _refresh_cov_cache(self, w: np.ndarray, v: np.ndarray):
        # (w, v) decomposes the new C (plain mode: an eigh of C; otherwise the
        # new Sigma's eigh over sigma^2): the next root, metric and eig stats
        self._eig_C = (w, v)
        self._sqrt_C = sqrt_from_eigh(w, v)

    def _make_stats(self, snr_m: float, snr_sigma: float, floored: bool) -> IterationStats:
        w = self._eig_C[0]
        scale = self._params.sigma ** 2
        # LU-based determinant: noticeably less noise than the eigenvalue
        # product on ill-conditioned shapes
        sign, logdet = np.linalg.slogdet(self._params.C)
        det_c = float(sign * np.exp(logdet)) if sign != 0 else 0.0
        return IterationStats(
            t=self.t,
            evals=self.evals,
            sigma=self._params.sigma,
            eta_m=self._state_m.eta,
            eta_sigma=self._state_sigma.eta,
            snr_m=snr_m,
            snr_sigma=snr_sigma,
            eig_min=float(scale * w[0]),
            eig_max=float(scale * w[-1]),
            det_c=det_c,
            floored=floored,
        )
