"""Learning-rate adaptation for CMA-ES driven by a signal-to-noise estimate.

The mean and covariance updates proposed by the plain CMA-ES step are scaled
by separate learning-rate factors eta_m and eta_sigma in (0, 1].  Each factor
is steered so that the signal-to-noise ratio of its parameter update, measured
in Fisher-local coordinates, stays near ``alpha * eta``: updates that are
mostly noise shrink eta, consistent progress raises it back towards 1.

The per-generation ops are module-level functions of plain arrays and
floats.  `LraCmaEs` keeps the whole state as plain attributes (m, sigma, C
with C's eigendecomposition and root, the two paths and t, and E, V and eta
for each component), calls the ops by name from ``ask()``/``tell()``, and
commits a generation's new state only after every op has succeeded.  As in
`lracma.core`, products call ``a.dot(b)`` rather than ``a @ b``: the same
BLAS routine with less per-call dispatch; ``eigh``/``cholesky``/``slogdet``
call the LAPACK gufuncs behind ``numpy.linalg`` directly, with its failure
semantics.  ``tell()`` runs no ``slogdet``; recorders call :func:`det_c`.

Naming note: the ``_sigma`` suffix on eta/beta/snr refers to the *covariance*
component Sigma = sigma^2 C of the distribution parameters, never to the
scalar step-size, which is always plain ``sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    StrategyParams,
    cma_candidate_update,
    default_strategy_params,
    rank_and_recombine,
    sample_population,
    update_paths,
)
from .errors import NumericalError

# Absolute eigenvalue floor: C's square root raises eigenvalues below it
# (negative round-off) before taking roots, and a metric whose smallest
# eigenvalue is at or below it counts as singular.
EIG_FLOOR = 1e-20


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


def check_learning_rates(lr_mode: str, eta_m: float, eta_sigma: float) -> None:
    """Reject an unknown mode, an eta outside (0, 1], or a pinned eta outside fixed mode."""
    if lr_mode not in ("adaptive", "fixed", "plain"):
        raise ValueError(f"unknown lr_mode {lr_mode!r}")
    if lr_mode != "fixed" and (eta_m != 1.0 or eta_sigma != 1.0):
        raise ValueError(f"{lr_mode} mode runs with eta_m = eta_sigma = 1")
    for name, val in (("eta_m", eta_m), ("eta_sigma", eta_sigma)):
        if not 0 < val <= 1:
            raise ValueError(f"{name} must lie in (0, 1]")


# numpy.linalg's rule for its LAPACK gufuncs: a failed factorization sets the
# invalid flag, and only that flag is an error
LAPACK_ERRSTATE = dict(invalid="raise", over="ignore", divide="ignore", under="ignore")


def eigh_or_raise(a: np.ndarray):
    """``numpy.linalg.eigh(a)`` of a float64 matrix, failing as NumericalError."""
    try:
        with np.errstate(**LAPACK_ERRSTATE):
            return _umath_linalg.eigh_lo(a, signature="d->dd")
    except FloatingPointError as exc:
        raise NumericalError("eigh_failed", "Eigenvalues did not converge") from exc


def det_c(C: np.ndarray) -> float:
    """det(C) from ``numpy.linalg.slogdet``'s LU, independent of the split's factors."""
    sign, logdet = _umath_linalg.slogdet(C, signature="d->dd")
    return float(sign * np.exp(logdet))


def compute_deltas(m: np.ndarray, cov: np.ndarray, m_prop: np.ndarray, cov_prop: np.ndarray):
    """Differences (proposed - old) for the mean and the full covariance.

    ``cov`` and ``cov_prop`` are full covariances sigma^2 C.  Returns
    ``(delta_m, delta_sigma)``; ``delta_sigma`` is the row-major vec of the
    covariance change, so it has length d^2 and reshapes to a symmetric
    matrix.
    """
    return m_prop - m, (cov_prop - cov).ravel()


def to_local_coordinates(
    delta_m: np.ndarray, delta_sigma: np.ndarray, w: np.ndarray, v: np.ndarray
):
    """Map raw deltas into coordinates where the Fisher metric is the identity.

    ``(w, v)`` is the eigendecomposition of the old full covariance Sigma,
    eigenvalues ascending as ``numpy.linalg.eigh`` returns them.  With
    S = v diag(w^-1/2) v^T, the symmetric inverse square root of Sigma, the
    mean delta becomes S delta_m and the covariance delta becomes
    2^(-1/2) vec(S mat(delta_sigma) S).

    Raises:
        NumericalError: with reason ``singular_metric`` if the smallest
            eigenvalue is at or below the eigenvalue floor, so the metric
            cannot be inverted.
    """
    if w[0] <= EIG_FLOOR:
        raise NumericalError(
            "singular_metric", f"min eigenvalue {w[0]:.3e} <= {EIG_FLOOR:.0e}"
        )
    d = delta_m.size
    inv_sqrt = (v / np.sqrt(w)).dot(v.T)
    tilde_m = inv_sqrt.dot(delta_m)
    tilde_sigma = math.sqrt(0.5) * inv_sqrt.dot(delta_sigma.reshape(d, d)).dot(inv_sqrt).ravel()
    return tilde_m, tilde_sigma


def update_snr_state(E: np.ndarray, V: float, tilde: np.ndarray, beta: float):
    """Exponential moving averages: E of the deltas, V of their squared norms.

    ``E`` has the length of the local-coordinate delta (d for the mean
    component, d^2 for the covariance component); both averages start at
    zero.  Returns the new ``(E, V)``.
    """
    E = (1 - beta) * E + beta * tilde
    V = (1 - beta) * V + beta * float(tilde.dot(tilde))
    return E, V


def estimate_snr(E: np.ndarray, V: float, beta: float) -> float:
    """Signal-to-noise estimate from the moving averages.

    Returns (|E|^2 - beta/(2-beta) V) / (V - |E|^2).  A degenerate
    denominator (V <= |E|^2, including the all-zero initial state) is
    signalled as +inf: the noise estimate vanished, so the adaptation's
    projected feedback saturates at its maximum of +1.
    """
    e2 = float(E.dot(E))
    denom = V - e2
    if denom <= 0.0:
        return math.inf
    return (e2 - beta / (2 - beta) * V) / denom


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
    m: np.ndarray,
    cov: np.ndarray,
    m_prop: np.ndarray,
    cov_prop: np.ndarray,
    delta_m: np.ndarray,
    delta_sigma: np.ndarray,
    eta_m: float,
    eta_sigma: float,
):
    """Scale the parameter deltas by their learning rates and apply them.

    ``(m, cov)`` are the old mean and full covariance, ``(m_prop,
    cov_prop)`` the proposed ones and the deltas their differences, as
    :func:`compute_deltas` returns them.  Returns ``(m_new, cov_new, (w,
    v))`` where ``cov_new`` is the full covariance Sigma and ``(w, v)`` its
    eigendecomposition, the generation's only one.  The blend
    (1 - eta) Sigma + eta Sigma_prop of two positive definite matrices is
    positive definite, so it is not repaired: a Sigma that round-off made
    indefinite comes back as it is, and :func:`decompose_sigma` rejects it.

    When a component's eta is exactly 1, that component is taken from the
    proposal unchanged; a full step then reproduces the plain update bit for
    bit instead of via old + (new - old).

    Precondition: ``cov`` and ``mat(delta_sigma)`` are exactly symmetric, so
    the blend old + eta * delta is exactly symmetric and is not symmetrized
    again.  Every state of :class:`LraCmaEs` satisfies it: the constructor
    rejects an asymmetric initial C, :func:`cma_candidate_update`
    symmetrizes its proposal, and the re-split only divides by a scalar.
    """
    m_new = m_prop if eta_m == 1.0 else m + eta_m * delta_m
    if eta_sigma == 1.0:
        cov_new = cov_prop
    else:
        cov_new = cov + eta_sigma * delta_sigma.reshape(cov.shape)
    return m_new, cov_new, eigh_or_raise(cov_new)


def decompose_sigma(cov: np.ndarray):
    """Split a full covariance into (sigma, C) with det(C) = 1.

    sigma = det(Sigma)^(1/(2d)), with the log-determinant taken as
    2 sum(log diag L) from the lower Cholesky factor L of Sigma (the result
    of ``numpy.linalg.cholesky``), and C = Sigma / sigma^2.  The sum of
    the log-eigenvalues is not used: its error grows like kappa eps.

    This factorization is the one test of positive definiteness: every mode
    that blends calls it before it commits any state, and nothing repairs a
    Sigma that fails it.

    Raises:
        NumericalError: with reason ``nonpositive_determinant`` if the
            factorization fails, so Sigma is not numerically positive
            definite, or the determinant is not finite.
    """
    d = cov.shape[0]
    try:
        with np.errstate(**LAPACK_ERRSTATE):
            L = _umath_linalg.cholesky_lo(cov, signature="d->d")
    except FloatingPointError as exc:
        raise NumericalError(
            "nonpositive_determinant", "Sigma is not positive definite"
        ) from exc
    logdet = 2.0 * float(np.add.reduce(np.log(L.diagonal())))
    if not math.isfinite(logdet):
        raise NumericalError("nonpositive_determinant", f"log-determinant {logdet}")
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


class IterationStats(NamedTuple):
    """Per-generation record emitted by :meth:`LraCmaEs.tell`.

    ``snr_m`` / ``snr_sigma`` are NaN when no estimate was formed (fixed and
    plain modes).  ``eig_min`` / ``eig_max`` are the eigenvalue extremes of
    the full covariance sigma^2 C after the update.  ``floored`` is always
    False: nothing repairs the covariance, and the field stays only because
    the benchmark's per-generation hook reads it.  The record holds no det C:
    a trial's in-memory history row inserts :func:`det_c` of the committed C
    before ``floored`` and appends the noiseless f(m).
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
    floored: bool


class LraCmaEs:
    """CMA-ES with learning-rate adaptation, as an ask/tell optimizer.

    Each generation: ``ask()`` yields lambda candidates, the caller evaluates
    them, and ``tell(fitness)`` runs the plain CMA-ES update, measures the
    update's signal-to-noise ratio in Fisher-local coordinates, adapts eta_m
    and eta_sigma, applies the scaled updates, re-splits the covariance into
    (sigma, C) with det(C) = 1, and corrects sigma for the eta_m change.

    Args:
        mean: Initial mean, a finite 1-D vector (defines the dimension).
        sigma: Initial step-size, positive and finite.
        cov: Initial shape matrix C; identity by default.  It must be a
            finite d x d matrix, exactly symmetric (``cov == cov.T``
            elementwise: the update keeps C symmetric by construction and
            never symmetrizes it again), and positive definite with every
            eigenvalue of sigma^2 C above ``EIG_FLOOR``; ``ValueError``
            otherwise.
        population_size: Candidates per generation; 4 + floor(3 ln d) by
            default.
        hyper: Controller hyperparameters (alpha, beta_m, beta_sigma, gamma).
        lr_mode: ``"adaptive"`` runs the full controller; ``"fixed"`` pins
            eta_m/eta_sigma to the given constants (still blending and
            re-splitting, no step-size correction since eta never moves);
            ``"plain"`` disables the layer entirely and assigns the proposed
            parameters directly, which is exactly the plain CMA-ES.
        eta_m, eta_sigma: Pinned learning rates in (0, 1] for
            ``lr_mode="fixed"``; the other modes start from eta = 1 and
            reject any other value.
        seed: Seed of the PCG64 generator ``rng``, which callers drawing
            evaluation noise consume too, so one seed fixes a whole trial.
    """

    def __init__(
        self,
        mean,
        sigma: float,
        *,
        cov: Optional[np.ndarray] = None,
        population_size: Optional[int] = None,
        hyper: Optional[LraHyperParams] = None,
        lr_mode: str = "adaptive",
        eta_m: float = 1.0,
        eta_sigma: float = 1.0,
        seed: Optional[int] = None,
    ):
        mean = np.array(mean, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        sigma = float(sigma)
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        d = mean.size
        sp = default_strategy_params(d, population_size)
        if cov is None:
            cov = np.eye(d)
        else:
            cov = np.array(cov, dtype=float)
            if cov.shape != (d, d) or not np.isfinite(cov).all():
                raise ValueError(f"cov must be a finite {d} x {d} matrix")
            if not np.array_equal(cov, cov.T):
                raise ValueError("cov must be exactly symmetric")
        check_learning_rates(lr_mode, eta_m, eta_sigma)

        self._sp = sp
        self._hyper = hyper if hyper is not None else LraHyperParams()
        self._lr_mode = lr_mode
        self._rng = np.random.default_rng(seed)
        # the state: distribution, paths, and per-component E, V and eta
        self._m, self._sigma, self._C = mean, sigma, cov
        self._p_sigma, self._p_c, self._t = np.zeros(d), np.zeros(d), 0
        self._E_m, self._V_m, self._eta_m = np.zeros(d), 0.0, float(eta_m)
        self._E_sigma, self._V_sigma, self._eta_sigma = np.zeros(d * d), 0.0, float(eta_sigma)
        # (x, y, z) of the generation asked for and not yet told
        self._pending = None
        w, v = eigh_or_raise(cov)
        eig_min = self._sigma**2 * w[0]
        if not eig_min > EIG_FLOOR:
            raise ValueError(
                f"sigma^2 * cov must be positive definite: smallest eigenvalue "
                f"{eig_min:.3e} is not above {EIG_FLOOR:.0e}"
            )
        self._refresh_cov_cache(w, v)

    # -- read-only views -------------------------------------------------

    @property
    def mean(self) -> np.ndarray:
        return self._m

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def C(self) -> np.ndarray:
        """The shape matrix C of N(m, sigma^2 C)."""
        return self._C

    @property
    def strategy(self) -> StrategyParams:
        return self._sp

    @property
    def rng(self) -> np.random.Generator:
        """The trial's random stream; evaluation noise should draw from it too."""
        return self._rng

    @property
    def evals(self) -> int:
        return self._t * self._sp.lam

    @property
    def eta_m(self) -> float:
        return self._eta_m

    @property
    def eta_sigma(self) -> float:
        return self._eta_sigma

    def initial_stats(self) -> IterationStats:
        """A t = 0 record of the starting state, for history logging."""
        return self._make_stats(math.nan, math.nan)

    # -- ask / tell -------------------------------------------------------

    def ask(self) -> np.ndarray:
        """Sample the next generation of candidates, one per row."""
        if self._pending is not None:
            raise RuntimeError("tell() must consume the pending population first")
        self._pending = sample_population(
            self._m, self._sigma, self._sqrt_C, self._sp, self._rng
        )
        return self._pending[0]

    def tell(self, fitness) -> IterationStats:
        """Consume fitness values for the pending population and update.

        The generation is consumed first.  Every op then runs on local
        values, and the state is committed only after all of them
        succeeded, so a ``tell()`` that raises leaves the distribution,
        paths and learning rates as they were, but with nothing pending:
        the caller must ``ask()`` again.
        """
        if self._pending is None:
            raise RuntimeError("ask() must be called before tell()")
        (_, y, z), self._pending = self._pending, None
        fitness = np.asarray(fitness, dtype=float)

        sp = self._sp
        hp = self._hyper
        m, sigma, C = self._m, self._sigma, self._C
        dy, dz, y_best = rank_and_recombine(y, z, fitness, sp)
        p_sigma, p_c, h_sigma, norm2 = update_paths(
            self._p_sigma, self._p_c, self._t, dy, dz, sp
        )
        m_prop, sigma_prop, C_prop = cma_candidate_update(
            m, sigma, C, norm2, p_c, h_sigma, dy, y_best, sp
        )

        E_m, V_m, eta_m = self._E_m, self._V_m, self._eta_m
        E_sigma, V_sigma, eta_sigma = self._E_sigma, self._V_sigma, self._eta_sigma
        snr_m = snr_sigma = math.nan
        if self._lr_mode == "plain":
            m_new, sigma_new, C_new = m_prop, sigma_prop, C_prop
            w_c, v = eigh_or_raise(C_new)
        else:
            cov = sigma**2 * C
            cov_prop = sigma_prop**2 * C_prop
            delta_m, delta_sigma = compute_deltas(m, cov, m_prop, cov_prop)
            if self._lr_mode == "adaptive":
                tilde_m, tilde_sigma = to_local_coordinates(
                    delta_m, delta_sigma, sigma**2 * self._w_C, self._v_C
                )
                E_m, V_m = update_snr_state(E_m, V_m, tilde_m, hp.beta_m)
                E_sigma, V_sigma = update_snr_state(E_sigma, V_sigma, tilde_sigma, hp.beta_sigma)
                snr_m = estimate_snr(E_m, V_m, hp.beta_m)
                snr_sigma = estimate_snr(E_sigma, V_sigma, hp.beta_sigma)
                eta_m = adapt_learning_rate(eta_m, snr_m, hp, hp.beta_m)
                eta_sigma = adapt_learning_rate(eta_sigma, snr_sigma, hp, hp.beta_sigma)
            m_new, cov_new, (w, v) = apply_blended_update(
                m, cov, m_prop, cov_prop, delta_m, delta_sigma, eta_m, eta_sigma
            )
            sigma_new, C_new = decompose_sigma(cov_new)
            w_c = w / sigma_new**2
            if self._lr_mode == "adaptive":
                sigma_new = correct_step_size(sigma_new, self._eta_m, eta_m)
            if np.count_nonzero(np.isfinite(m_new)) != m_new.size or not math.isfinite(sigma_new):
                raise NumericalError(
                    "nonfinite_state", "blended update produced non-finite values"
                )

        self._m, self._sigma, self._C = m_new, sigma_new, C_new
        self._p_sigma, self._p_c, self._t = p_sigma, p_c, self._t + 1
        self._E_m, self._V_m, self._eta_m = E_m, V_m, eta_m
        self._E_sigma, self._V_sigma, self._eta_sigma = E_sigma, V_sigma, eta_sigma
        self._refresh_cov_cache(w_c, v)
        return self._make_stats(snr_m, snr_sigma)

    # -- internals --------------------------------------------------------

    def _refresh_cov_cache(self, w: np.ndarray, v: np.ndarray):
        # (w, v) decomposes the new C (plain mode: an eigh of C; otherwise the
        # new Sigma's eigh over sigma^2): the next root, metric and eig stats
        self._w_C, self._v_C = w, v
        self._sqrt_C = (v * np.sqrt(np.maximum(w, EIG_FLOOR))).dot(v.T)

    def _make_stats(self, snr_m: float, snr_sigma: float) -> IterationStats:
        scale, w = self._sigma**2, self._w_C
        return IterationStats(
            self._t, self.evals, self._sigma, self._eta_m, self._eta_sigma, snr_m,
            snr_sigma, scale * float(w[0]), scale * float(w[-1]), False,
        )
