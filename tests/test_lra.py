"""Tests for the learning-rate adaptation layer and the ask/tell optimizer."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from lracma import lra
from lracma.core import (
    cma_candidate_update,
    rank_and_recombine,
    sample_population,
    update_paths,
)
from lracma.errors import InvalidFitnessError, NumericalError
from lracma.lra import (
    EIG_FLOOR,
    LraCmaEs,
    LraHyperParams,
    adapt_learning_rate,
    apply_blended_update,
    compute_deltas,
    correct_step_size,
    decompose_sigma,
    det_c,
    eigh_or_raise,
    estimate_snr,
    to_local_coordinates,
    update_snr_state,
)
from lracma.problems import make_problem


def random_spd(d, rng, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def rotated_diagonal(eigenvalues, rng):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    a = (q * eigenvalues).dot(q.T)
    return (a + a.T) / 2


class TestDirectLapackCalls:
    """``eigh_or_raise``, ``det_c``'s ``slogdet`` and the split's
    ``cholesky_lo`` give numpy.linalg's results bit for bit."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(11)
        cases = {f"spd{d}": random_spd(d, rng) for d in (2, 4, 10, 40)}
        cases["kappa1e6"] = rotated_diagonal(np.logspace(0, 6, 10), rng)
        cases["identity"] = np.eye(6)
        cases["repeated"] = rotated_diagonal([1.0, 2.0, 2.0, 2.0, 5.0, 5.0], rng)
        return cases

    def test_eigh_matches_numpy(self):
        for name, a in self.matrices().items():
            w, v = eigh_or_raise(a)
            w_np, v_np = np.linalg.eigh(a)
            assert np.array_equal(w, w_np) and np.array_equal(v, v_np), name

    def test_slogdet_matches_numpy(self):
        cases = self.matrices()
        cases["singular"] = np.ones((4, 4))
        for name, a in cases.items():
            sign, logdet = np.linalg.slogdet(a)
            assert det_c(a) == float(sign * np.exp(logdet)), name
        assert det_c(cases["singular"]) == 0.0

    def test_cholesky_matches_numpy(self):
        for name, a in self.matrices().items():
            L = _umath_linalg.cholesky_lo(a, signature="d->d")
            assert np.array_equal(L, np.linalg.cholesky(a)), name

    def test_cholesky_fails_on_a_matrix_that_is_not_positive_definite(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        with pytest.raises(FloatingPointError):
            with np.errstate(**lra.LAPACK_ERRSTATE):
                _umath_linalg.cholesky_lo(a, signature="d->d")

    def test_nan_matrix_fails_as_eigh_failed(self):
        a = random_spd(5, np.random.default_rng(3))
        a[1, 2] = a[2, 1] = math.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(a)
        with pytest.raises(NumericalError) as err:
            eigh_or_raise(a)
        assert err.value.reason == "eigh_failed"

    def test_inf_matrix_returns_numpy_nan_results(self):
        a = np.full((4, 4), 1.0)
        np.fill_diagonal(a, math.inf)
        w, v = eigh_or_raise(a)
        w_np, v_np = np.linalg.eigh(a)
        assert np.isnan(w).all()
        assert np.array_equal(w, w_np, equal_nan=True)
        assert np.array_equal(v, v_np, equal_nan=True)


class TestComputeDeltas:
    def test_identical_params_give_zero(self):
        cov = 4.0 * np.eye(3)
        delta_m, delta_sigma = compute_deltas(np.ones(3), cov, np.ones(3), cov)
        assert np.array_equal(delta_m, np.zeros(3))
        assert np.array_equal(delta_sigma, np.zeros(9))

    def test_doubling_covariance(self):
        _, delta_sigma = compute_deltas(np.zeros(2), np.eye(2), np.zeros(2), 2.0 * np.eye(2))
        assert np.array_equal(delta_sigma, np.eye(2).ravel())

    def test_sigma_c_tradeoff_cancels(self):
        # (sigma=2, C=I) and (sigma=1, C=4I) describe the same Sigma
        old, new = 2.0**2 * np.eye(2), 1.0**2 * (4.0 * np.eye(2))
        assert np.array_equal(compute_deltas(np.zeros(2), old, np.zeros(2), new)[1], np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_deltas(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


class TestLocalCoordinates:
    def test_identity_metric_is_a_noop_up_to_scaling(self):
        delta_m, delta_sigma = np.array([1.0, -2.0]), np.arange(4.0)
        tilde_m, tilde_sigma = to_local_coordinates(delta_m, delta_sigma, np.ones(2), np.eye(2))
        assert np.array_equal(tilde_m, delta_m)
        assert np.array_equal(tilde_sigma, math.sqrt(0.5) * delta_sigma)

    def test_isotropic_metric_hand_value(self):
        tilde_m, _ = to_local_coordinates(
            np.array([2.0, 0.0]), np.zeros(4), np.full(2, 4.0), np.eye(2)
        )
        assert np.array_equal(tilde_m, [1.0, 0.0])

    def test_mean_norm_equals_quadratic_form(self):
        # |tilde_m|^2 == delta_m^T Sigma^-1 delta_m, solved independently
        rng = np.random.default_rng(4)
        for _ in range(20):
            cov = random_spd(5, rng)
            delta = rng.standard_normal(5)
            tilde_m, _ = to_local_coordinates(delta, np.zeros(25), *np.linalg.eigh(cov))
            expected = float(delta @ np.linalg.solve(cov, delta))
            assert float(tilde_m @ tilde_m) == pytest.approx(expected, rel=1e-10)

    def test_cov_norm_equals_fisher_quadratic_form(self):
        # |tilde_Sigma|^2 == 1/2 tr(Sigma^-1 D Sigma^-1 D) for symmetric D
        rng = np.random.default_rng(9)
        for _ in range(10):
            cov = random_spd(4, rng)
            D = random_spd(4, rng) - random_spd(4, rng)
            _, tilde_sigma = to_local_coordinates(np.zeros(4), D.ravel(), *np.linalg.eigh(cov))
            inv = np.linalg.inv(cov)
            expected = 0.5 * float(np.trace(inv @ D @ inv @ D))
            assert float(tilde_sigma @ tilde_sigma) == pytest.approx(expected, rel=1e-9)

    def test_singular_metric_raises(self):
        # singular at or below a smallest eigenvalue of 1e-20, by value
        for w0 in (0.0, 0.99e-20):
            with pytest.raises(NumericalError, match="singular_metric"):
                to_local_coordinates(np.zeros(2), np.zeros(4), np.array([w0, 1.0]), np.eye(2))
        to_local_coordinates(np.zeros(2), np.zeros(4), np.array([1.01e-20, 1.0]), np.eye(2))


class TestSnrState:
    def test_first_update_from_zero(self):
        u = np.array([3.0, 4.0])
        E, V = update_snr_state(np.zeros(2), 0.0, u, beta=0.1)
        assert np.array_equal(E, 0.1 * u)
        assert V == 0.1 * 25.0

    def test_zero_stream_decays_geometrically(self):
        E, V = np.array([1.0, 0.0]), 2.0
        for n in range(1, 30):
            E, V = update_snr_state(E, V, np.zeros(2), beta=0.1)
            assert E[0] == pytest.approx(0.9**n, rel=1e-12)
            assert V == pytest.approx(2.0 * 0.9**n, rel=1e-12)

    def test_constant_stream_converges(self):
        # geometric series oracle: E -> u and V -> |u|^2 within (1-beta)^n
        beta, n = 0.1, 300
        u = np.array([1.0, -0.5, 2.0])
        E, V = np.zeros(3), 0.0
        for _ in range(n):
            E, V = update_snr_state(E, V, u, beta)
        residual = (1 - beta) ** n
        assert np.all(np.abs(E - u) <= np.abs(u) * residual + 1e-15)
        assert abs(V - float(u @ u)) <= float(u @ u) * residual + 1e-15


class TestEstimateSnr:
    def test_zero_numerator(self):
        beta = 0.1
        assert abs(estimate_snr(np.array([1.0]), (2 - beta) / beta, beta)) < 1e-14

    def test_hand_value(self):
        snr = estimate_snr(np.array([1.0, 0.0]), 2.0, 0.1)
        assert snr == pytest.approx(17.0 / 19.0, rel=1e-12)

    def test_degenerate_denominator_signals_inf(self):
        assert estimate_snr(np.zeros(3), 0.0, 0.1) == math.inf
        assert estimate_snr(np.array([2.0]), 1.0, 0.1) == math.inf

    def test_negative_numerator_passes_through(self):
        # |E|^2 below the bias correction: a negative but finite estimate
        snr = estimate_snr(np.array([0.1]), 1.0, 0.1)
        assert snr < 0 and math.isfinite(snr)

    def test_moving_average_distribution(self):
        # E[E] ~= mu and tr Cov[E] ~= beta/(2-beta) d s^2 over a long stream
        beta, d, n = 0.1, 5, 10_000
        mu = np.array([1.0, 0, 0, 0, 0])
        rng = np.random.default_rng(77)
        E, V = np.zeros(d), 0.0
        for _ in range(500):
            E, V = update_snr_state(E, V, mu + rng.standard_normal(d), beta)
        samples = np.empty((n, d))
        for i in range(n):
            E, V = update_snr_state(E, V, mu + rng.standard_normal(d), beta)
            samples[i] = E
        # effective sample size under EMA autocorrelation (1-beta)^|k|
        tau = (2 - beta) / beta
        se = samples.std(axis=0, ddof=1) * math.sqrt(tau / n)
        assert np.all(np.abs(samples.mean(axis=0) - mu) <= 3 * se)
        trace = float(np.trace(np.cov(samples.T)))
        assert trace == pytest.approx(beta / (2 - beta) * d, rel=0.10)


class TestAdaptLearningRate:
    HP = LraHyperParams()

    def test_defaults_are_the_papers(self):
        assert self.HP == LraHyperParams(alpha=1.4, beta_m=0.1, beta_sigma=0.03, gamma=0.1)

    def test_on_target_is_neutral(self):
        for eta in (1.0, 0.5, 0.037):
            snr = self.HP.alpha * eta
            assert adapt_learning_rate(eta, snr, self.HP, 0.1) == eta

    def test_saturated_increase_caps_at_one(self):
        assert adapt_learning_rate(1.0, 1e9, self.HP, 0.1) == 1.0
        assert adapt_learning_rate(1.0, math.inf, self.HP, 0.1) == 1.0

    def test_damped_decrease_hand_value(self):
        # gamma * eta = 0.05 exceeds beta = 0.03, so beta damps
        out = adapt_learning_rate(0.5, 0.0, self.HP, beta=0.03)
        assert out == 0.5 * math.exp(-0.03)

    def test_degenerate_snr_maps_to_max_increase(self):
        out = adapt_learning_rate(0.5, math.inf, self.HP, beta=0.1)
        assert out == min(1.0, 0.5 * math.exp(min(0.1 * 0.5, 0.1)))

    @given(
        eta=st.floats(1e-6, 1.0),
        snr=st.floats(0, 1e6) | st.just(math.inf),
        beta=st.floats(1e-3, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_feedback_direction(self, eta, snr, beta):
        out = adapt_learning_rate(eta, snr, self.HP, beta)
        if snr > self.HP.alpha * eta:
            assert out >= eta
        elif snr < self.HP.alpha * eta:
            assert out <= eta

    @given(
        eta=st.floats(1e-6, 1.0),
        snr=st.floats(-1e6, 1e6) | st.just(math.inf),
        beta=st.floats(1e-3, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_damping_bound_and_cap(self, eta, snr, beta):
        out = adapt_learning_rate(eta, snr, self.HP, beta)
        assert 0 < out <= 1.0
        bound = min(self.HP.gamma * eta, beta)
        assert abs(math.log(out) - math.log(eta)) <= bound + 1e-12


class TestApplyBlendedUpdate:
    M, COV = np.array([1.0, 2.0]), np.eye(2)

    def blend(self, m_prop, cov_prop, eta_m, eta_sigma):
        deltas = compute_deltas(self.M, self.COV, m_prop, cov_prop)
        return apply_blended_update(self.M, self.COV, m_prop, cov_prop, *deltas, eta_m, eta_sigma)

    def test_full_step_returns_proposed_exactly(self):
        m_prop = np.array([1.5, 1.0])
        cov_prop = 1.2**2 * np.array([[1.1, 0.1], [0.1, 0.9]])
        m_new, cov_new, (w, v) = self.blend(m_prop, cov_prop, 1.0, 1.0)
        assert m_new is m_prop
        assert cov_new is cov_prop
        assert (v * w) @ v.T == pytest.approx(cov_new, rel=1e-12)

    def test_null_step_returns_old(self):
        m_new, cov_new, _ = self.blend(np.array([6.0, 7.0]), 4.0 * np.eye(2), 0.0, 0.0)
        assert np.array_equal(m_new, self.M)
        assert np.array_equal(cov_new, self.COV)

    def test_half_step_on_covariance(self):
        _, cov_new, (w, _) = self.blend(self.M, 2.0 * np.eye(2), 1.0, 0.5)
        assert np.array_equal(cov_new, 1.5 * np.eye(2))
        assert w == pytest.approx([1.5, 1.5], rel=1e-14)

    def test_indefinite_blend_is_returned_unrepaired_and_the_split_rejects_it(self):
        # half of the step to diag(1, -2) lands on diag(1, -0.5)
        _, cov_new, (w, _) = self.blend(self.M, np.diag([1.0, -2.0]), 1.0, 0.5)
        assert np.array_equal(cov_new, np.diag([1.0, -0.5]))
        assert w == pytest.approx([-0.5, 1.0], rel=1e-14)
        with pytest.raises(NumericalError) as err:
            decompose_sigma(cov_new)
        assert err.value.reason == "nonpositive_determinant"


class TestDecomposeSigma:
    def test_isotropic(self):
        sigma, C = decompose_sigma(4.0 * np.eye(2))
        assert sigma == pytest.approx(2.0, rel=1e-14)
        assert C == pytest.approx(np.eye(2), rel=1e-14)

    def test_identity_is_exact(self):
        sigma, C = decompose_sigma(np.eye(3))
        assert sigma == 1.0
        assert np.array_equal(C, np.eye(3))

    def test_diagonal_hand_value(self):
        sigma, C = decompose_sigma(np.diag([1.0, 4.0]))
        assert sigma == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert C == pytest.approx(np.diag([0.5, 2.0]), rel=1e-14)
        assert np.linalg.det(C) == pytest.approx(1.0, abs=1e-12)

    def test_unit_determinant_and_sigma_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            cov = random_spd(5, rng, scale=10.0 ** rng.integers(-3, 4))
            sigma, C = decompose_sigma(cov)
            assert np.linalg.det(C) == pytest.approx(1.0, rel=1e-9)
            assert sigma**2 * C == pytest.approx(cov, rel=1e-12)

    def test_unit_determinant_at_the_conditioning_limit(self):
        # Sigma with one eigenvalue 4e6 (harness.KAPPA_LIMIT) below the other
        # nine: a log-determinant from the eigenvalues drifts like kappa eps
        # and breaks the 1e-9 bound of acceptance criterion 7; the Cholesky
        # factor's keeps the LU determinant of C within it
        rng = np.random.default_rng(13)
        for _ in range(50):
            cov = rotated_diagonal(np.r_[1.0, np.full(9, 4e6)], rng)
            _, C = decompose_sigma(cov)
            assert abs(det_c(C) - 1.0) <= 1e-9

    def test_nonpositive_determinant_raises(self):
        with pytest.raises(NumericalError) as err:
            decompose_sigma(np.diag([1.0, -1.0]))
        assert err.value.reason == "nonpositive_determinant"
        with pytest.raises(NumericalError):
            decompose_sigma(np.zeros((2, 2)))


class TestCorrectStepSize:
    def test_unchanged_eta_keeps_sigma(self):
        assert correct_step_size(3.7, 0.25, 0.25) == 3.7

    def test_halved_eta_doubles_sigma(self):
        assert correct_step_size(3.0, 0.4, 0.2) == 6.0

    def test_hand_value(self):
        assert correct_step_size(1.0, 0.2, 0.5) == 0.4


def sqrt_C(w, v):
    """The optimizer's root of C from C's eigendecomposition."""
    return (v * np.sqrt(np.maximum(w, EIG_FLOOR))) @ v.T


# every field of the optimizer's state, its eigendecomposition cache included
STATE = ("_m", "_sigma", "_C", "_p_sigma", "_p_c", "_t", "_E_m", "_V_m", "_eta_m",
         "_E_sigma", "_V_sigma", "_eta_sigma", "_w_C", "_v_C", "_sqrt_C")


def state_bits(opt):
    """The bytes of every state field, for bitwise before/after checks."""
    return {name: np.asarray(getattr(opt, name)).tobytes() for name in STATE}


def run_pairs(opt, problem, n, rng=None):
    rng = rng if rng is not None else opt.rng
    stats = None
    for _ in range(n):
        xs = opt.ask()
        stats = opt.tell(problem.evaluate_population(xs, rng))
    return stats


class TestOptimizer:
    def test_first_step_damping_bound(self):
        problem = make_problem("sphere", 5)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=0)
        hp = LraHyperParams()
        run_pairs(opt, problem, 1)
        assert abs(math.log(opt.eta_m)) <= min(hp.gamma, hp.beta_m) + 1e-12
        assert abs(math.log(opt.eta_sigma)) <= min(hp.gamma, hp.beta_sigma) + 1e-12

    def test_invariants_over_seeded_steps(self):
        problem = make_problem("sphere", 5)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=3)
        hp = LraHyperParams()
        prev = (opt.eta_m, opt.eta_sigma)
        for _ in range(10):
            stats = run_pairs(opt, problem, 1)
            assert 0 < stats.eta_m <= 1 and 0 < stats.eta_sigma <= 1
            assert det_c(opt.C) == pytest.approx(1.0, rel=1e-9)
            assert stats.eig_min > 0
            assert stats.sigma > 0
            assert abs(math.log(stats.eta_m / prev[0])) <= min(
                hp.gamma * prev[0], hp.beta_m
            ) + 1e-12
            assert abs(math.log(stats.eta_sigma / prev[1])) <= min(
                hp.gamma * prev[1], hp.beta_sigma
            ) + 1e-12
            prev = (stats.eta_m, stats.eta_sigma)

    def test_seed_determinism_bitwise(self):
        problem = make_problem("rastrigin", 5)

        def trajectory():
            opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=99)
            run_pairs(opt, problem, 100)
            return opt

        a, b = trajectory(), trajectory()
        assert np.array_equal(a.mean, b.mean)
        assert a.sigma == b.sigma
        assert np.array_equal(a.C, b.C)
        assert (a.eta_m, a.eta_sigma) == (b.eta_m, b.eta_sigma)

    def test_generation_consumes_lambda_evaluations(self):
        problem = make_problem("sphere", 5)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=1)
        calls = []
        xs = opt.ask()
        calls.append(len(xs))
        opt.tell(problem.evaluate_population(xs))
        assert calls == [opt.strategy.lam]
        assert opt.evals == opt.strategy.lam

    def test_ask_tell_alternation_enforced(self):
        problem = make_problem("sphere", 3)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=1)
        with pytest.raises(RuntimeError):
            opt.tell(np.zeros(opt.strategy.lam))
        opt.ask()
        with pytest.raises(RuntimeError):
            opt.ask()

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"lr_mode": "fixed", "eta_m": 0.5, "eta_sigma": 0.2}, {"lr_mode": "fixed"}],
        ids=["adaptive", "fixed_blend", "fixed_unit"],
    )
    def test_one_step_matches_manual_op_composition(self, kwargs):
        # tell() is exactly the documented chain of operations, threading one
        # eigendecomposition of the blended Sigma per generation; fixed eta
        # skips the SNR layer and the step-size correction, and at eta = 1
        # the blend is the plain CMA-ES proposal, which the re-split keeps
        problem = make_problem("ellipsoid", 4)
        hp = LraHyperParams()
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=21, **kwargs)
        sp = opt.strategy
        adaptive = not kwargs

        mirror_rng = np.random.default_rng(21)
        m, sigma, C = problem.init_m.astype(float), problem.init_sigma, np.eye(4)
        p_sigma, p_c, t = np.zeros(4), np.zeros(4), 0
        E_m, V_m, eta_m = np.zeros(4), 0.0, kwargs.get("eta_m", 1.0)
        E_s, V_s, eta_s = np.zeros(16), 0.0, kwargs.get("eta_sigma", 1.0)
        w_c, v = np.linalg.eigh(C)

        for _ in range(100):
            xs = opt.ask()
            fitness = problem.evaluate_population(xs)
            opt.tell(fitness)

            x, y, z = sample_population(m, sigma, sqrt_C(w_c, v), sp, mirror_rng)
            assert np.array_equal(x, xs)
            dy, dz, y_best = rank_and_recombine(y, z, problem.evaluate_population(x), sp)
            p_sigma, p_c, h, norm2 = update_paths(p_sigma, p_c, t, dy, dz, sp)
            t += 1
            m_prop, sigma_prop, C_prop = cma_candidate_update(
                m, sigma, C, norm2, p_c, h, dy, y_best, sp
            )
            cov, cov_prop = sigma**2 * C, sigma_prop**2 * C_prop
            delta_m, delta_sigma = compute_deltas(m, cov, m_prop, cov_prop)
            eta_m_old = eta_m
            if adaptive:
                tm, ts = to_local_coordinates(delta_m, delta_sigma, sigma**2 * w_c, v)
                E_m, V_m = update_snr_state(E_m, V_m, tm, hp.beta_m)
                E_s, V_s = update_snr_state(E_s, V_s, ts, hp.beta_sigma)
                eta_m = adapt_learning_rate(
                    eta_m_old, estimate_snr(E_m, V_m, hp.beta_m), hp, hp.beta_m
                )
                eta_s = adapt_learning_rate(
                    eta_s, estimate_snr(E_s, V_s, hp.beta_sigma), hp, hp.beta_sigma
                )
            m, cov_new, (w, v) = apply_blended_update(
                m, cov, m_prop, cov_prop, delta_m, delta_sigma, eta_m, eta_s
            )
            sigma, C = decompose_sigma(cov_new)
            w_c = w / sigma**2
            if adaptive:
                sigma = correct_step_size(sigma, eta_m_old, eta_m)

            assert np.array_equal(opt.mean, m)
            assert opt.sigma == sigma
            assert np.array_equal(opt.C, C)
            assert opt.eta_m == eta_m and opt.eta_sigma == eta_s
            if not adaptive:
                # the re-split changes the sigma/C factorization, not Sigma
                assert opt.sigma**2 * opt.C == pytest.approx(cov_new, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"lr_mode": "fixed", "eta_m": 0.5, "eta_sigma": 0.2},
            {"lr_mode": "fixed"},
            {"lr_mode": "plain"},
        ],
        ids=["adaptive", "fixed_blend", "fixed_unit", "plain"],
    )
    def test_one_eigh_and_no_lu_per_tell(self, monkeypatch, kwargs):
        # per generation: the one eigh and, when the blend is re-split, the
        # split's Cholesky factorization; the LU behind det C is left to
        # whoever records the state
        problem = make_problem("ellipsoid", 6)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=5, **kwargs)
        counts = {"eigh_lo": 0, "cholesky_lo": 0, "slogdet": 0}
        split = kwargs.get("lr_mode") != "plain"
        expected = {"eigh_lo": 1, "cholesky_lo": int(split), "slogdet": 0}

        def counting(name):
            fn = getattr(_umath_linalg, name)

            def wrapper(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)

            return wrapper

        lapack = SimpleNamespace(**{name: counting(name) for name in counts})
        monkeypatch.setattr(lra, "_umath_linalg", lapack)
        for _ in range(30):
            fitness = problem.evaluate_population(opt.ask())
            before = dict(counts)
            opt.tell(fitness)
            assert {k: counts[k] - before[k] for k in counts} == expected

    def test_eta_sigma_stays_high_on_sphere(self):
        # qualitative noiseless-Sphere behavior: eta_sigma never collapses
        from lracma.harness import TrialConfig, run_trial

        problem = make_problem("sphere", 10)
        ok = 0
        for seed in range(30):
            res = run_trial(
                TrialConfig(
                    problem=problem,
                    optimizer="lra",
                    max_evals=10**6,
                    target_f=1e-8,
                    seed=seed,
                )
            )
            assert res.success
            ok += bool(res.history.column("eta_sigma").min() > 0.05)
        assert ok >= 25

    def test_invalid_fitness_raises_before_any_state_change(self):
        problem = make_problem("sphere", 4)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=4)
        run_pairs(opt, problem, 3)
        fitness = problem.evaluate_population(opt.ask())
        fitness[1] = np.nan
        before = state_bits(opt)
        with pytest.raises(InvalidFitnessError):
            opt.tell(fitness)
        assert state_bits(opt) == before
        # the failed tell() consumed the generation: the caller asks again
        fitness[1] = 0.0
        with pytest.raises(RuntimeError, match="ask"):
            opt.tell(fitness)
        assert state_bits(opt) == before
        opt.tell(problem.evaluate_population(opt.ask()))

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"lr_mode": "fixed", "eta_m": 0.5, "eta_sigma": 0.2}, {"lr_mode": "plain"}],
        ids=["adaptive", "fixed_blend", "plain"],
    )
    def test_late_failure_changes_no_state(self, monkeypatch, kwargs):
        # the generation's eigh runs after ranking, paths and the CMA
        # proposal, and the split's Cholesky after the blend; when either
        # fails, tell() must leave every state field as is
        problem = make_problem("ellipsoid", 4)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=6, **kwargs)
        run_pairs(opt, problem, 5)

        def failing(name):
            # LAPACK reports a failure through the invalid flag, as it does
            # for a matrix full of NaN
            fn = getattr(_umath_linalg, name)
            return lambda a, signature: fn(np.full_like(a, np.nan), signature=signature)

        failures = [("eigh_lo", "eigh_failed")]
        if kwargs.get("lr_mode") != "plain":
            failures.append(("cholesky_lo", "nonpositive_determinant"))
        for name, reason in failures:
            fitness = problem.evaluate_population(opt.ask())
            before = state_bits(opt)
            lapack = {n: getattr(_umath_linalg, n) for n in ("eigh_lo", "cholesky_lo", "slogdet")}
            lapack[name] = failing(name)
            monkeypatch.setattr(lra, "_umath_linalg", SimpleNamespace(**lapack))
            with pytest.raises(NumericalError) as err:
                opt.tell(fitness)
            assert err.value.reason == reason
            assert state_bits(opt) == before

    def test_fixed_mode_keeps_eta_pinned(self):
        problem = make_problem("sphere", 5)
        opt = LraCmaEs(
            problem.init_m,
            problem.init_sigma,
            lr_mode="fixed",
            eta_m=0.1,
            eta_sigma=0.01,
            seed=2,
        )
        stats = run_pairs(opt, problem, 5)
        assert (stats.eta_m, stats.eta_sigma) == (0.1, 0.01)
        assert math.isnan(stats.snr_m) and math.isnan(stats.snr_sigma)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LraCmaEs(np.zeros(3), 1.0, lr_mode="bogus")
        with pytest.raises(ValueError):
            LraCmaEs(np.zeros(3), 1.0, lr_mode="plain", eta_m=0.5)
        with pytest.raises(ValueError, match="adaptive mode runs with eta_m = eta_sigma = 1"):
            LraCmaEs(np.zeros(3), 1.0, eta_m=0.5)
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                LraCmaEs(np.zeros(3), sigma)
        with pytest.raises(ValueError, match="1-D"):
            LraCmaEs(np.zeros((3, 1)), 1.0)
        for mean in ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="mean must be finite"):
                LraCmaEs(mean, 1.0)
        with pytest.raises(ValueError):
            LraCmaEs(np.zeros(3), 1.0, lr_mode="fixed", eta_m=0.0)
        # cov must be finite, 3 x 3, exactly symmetric and positive definite
        # above the eigenvalue floor of 1e-20 once scaled by sigma^2
        for cov, sigma, match in (
            (np.eye(2), 1.0, "finite 3 x 3"),
            (np.diag([1.0, np.nan, 1.0]), 1.0, "finite 3 x 3"),
            (np.diag([1.0, np.inf, 1.0]), 1.0, "finite 3 x 3"),
            (np.eye(3) + np.triu(np.full((3, 3), 0.1), 1), 1.0, "symmetric"),
            (np.diag([1.0, -1.0, 1.0]), 1.0, "positive definite"),
            (np.diag([1.0, 0.0, 1.0]), 1.0, "positive definite"),
            (np.eye(3), 0.99e-10, "positive definite"),
        ):
            with pytest.raises(ValueError, match=match):
                LraCmaEs(np.zeros(3), sigma, cov=cov)
        LraCmaEs(np.zeros(3), 1.01e-10, cov=np.eye(3))
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 3.0]])
        opt = LraCmaEs(np.zeros(3), 0.5, cov=cov, seed=0)
        assert np.array_equal(opt.C, cov)
        run_pairs(opt, make_problem("sphere", 3), 5)
