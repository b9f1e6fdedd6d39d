"""Tests for the learning-rate adaptation layer and the ask/tell optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lracma.core import (
    DistributionParams,
    EvolutionPaths,
    cma_candidate_update,
    default_strategy_params,
    rank_and_recombine,
    sample_population,
    update_paths,
)
from lracma.errors import InvalidFitnessError, NumericalError, SingularMetricError
from lracma.linalg import sqrt_from_eigh
from lracma.lra import (
    DeltaPair,
    LraCmaEs,
    LraComponentState,
    LraHyperParams,
    adapt_learning_rate,
    apply_blended_update,
    compute_deltas,
    correct_step_size,
    decompose_sigma,
    estimate_snr,
    to_local_coordinates,
    update_snr_state,
)
from lracma.problems import make_problem


def random_spd(d, rng, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


class TestComputeDeltas:
    def test_identical_params_give_zero(self):
        p = DistributionParams(m=np.ones(3), sigma=2.0, C=np.eye(3))
        dp = compute_deltas(p, p)
        assert np.array_equal(dp.delta_m, np.zeros(3))
        assert np.array_equal(dp.delta_sigma, np.zeros(9))

    def test_doubling_covariance(self):
        old = DistributionParams(m=np.zeros(2), sigma=1.0, C=np.eye(2))
        new = DistributionParams(m=np.zeros(2), sigma=1.0, C=2.0 * np.eye(2))
        dp = compute_deltas(old, new)
        assert np.array_equal(dp.delta_sigma, np.eye(2).ravel())

    def test_sigma_c_tradeoff_cancels(self):
        # (sigma=2, C=I) and (sigma=1, C=4I) describe the same Sigma
        old = DistributionParams(m=np.zeros(2), sigma=2.0, C=np.eye(2))
        new = DistributionParams(m=np.zeros(2), sigma=1.0, C=4.0 * np.eye(2))
        assert np.array_equal(compute_deltas(old, new).delta_sigma, np.zeros(4))

    def test_dimension_mismatch(self):
        a = DistributionParams(m=np.zeros(2), sigma=1.0, C=np.eye(2))
        b = DistributionParams(m=np.zeros(3), sigma=1.0, C=np.eye(3))
        with pytest.raises(ValueError):
            compute_deltas(a, b)


class TestLocalCoordinates:
    def test_identity_metric_is_a_noop_up_to_scaling(self):
        dp = DeltaPair(delta_m=np.array([1.0, -2.0]), delta_sigma=np.arange(4.0))
        tilde_m, tilde_sigma = to_local_coordinates(dp, np.ones(2), np.eye(2))
        assert np.array_equal(tilde_m, dp.delta_m)
        assert np.array_equal(tilde_sigma, math.sqrt(0.5) * dp.delta_sigma)

    def test_isotropic_metric_hand_value(self):
        dp = DeltaPair(delta_m=np.array([2.0, 0.0]), delta_sigma=np.zeros(4))
        tilde_m, _ = to_local_coordinates(dp, np.full(2, 4.0), np.eye(2))
        assert np.array_equal(tilde_m, [1.0, 0.0])

    def test_mean_norm_equals_quadratic_form(self):
        # |tilde_m|^2 == delta_m^T Sigma^-1 delta_m, solved independently
        rng = np.random.default_rng(4)
        for _ in range(20):
            cov = random_spd(5, rng)
            delta = rng.standard_normal(5)
            dp = DeltaPair(delta_m=delta, delta_sigma=np.zeros(25))
            tilde_m, _ = to_local_coordinates(dp, *np.linalg.eigh(cov))
            expected = float(delta @ np.linalg.solve(cov, delta))
            assert float(tilde_m @ tilde_m) == pytest.approx(expected, rel=1e-10)

    def test_cov_norm_equals_fisher_quadratic_form(self):
        # |tilde_Sigma|^2 == 1/2 tr(Sigma^-1 D Sigma^-1 D) for symmetric D
        rng = np.random.default_rng(9)
        for _ in range(10):
            cov = random_spd(4, rng)
            D = random_spd(4, rng) - random_spd(4, rng)
            dp = DeltaPair(delta_m=np.zeros(4), delta_sigma=D.ravel())
            _, tilde_sigma = to_local_coordinates(dp, *np.linalg.eigh(cov))
            inv = np.linalg.inv(cov)
            expected = 0.5 * float(np.trace(inv @ D @ inv @ D))
            assert float(tilde_sigma @ tilde_sigma) == pytest.approx(expected, rel=1e-9)

    def test_singular_metric_raises(self):
        dp = DeltaPair(delta_m=np.zeros(2), delta_sigma=np.zeros(4))
        with pytest.raises(SingularMetricError):
            to_local_coordinates(dp, np.array([0.0, 1.0]), np.eye(2))


class TestSnrState:
    def test_first_update_from_zero(self):
        u = np.array([3.0, 4.0])
        state = update_snr_state(LraComponentState.initial(2), u, beta=0.1)
        assert np.array_equal(state.E, 0.1 * u)
        assert state.V == 0.1 * 25.0

    def test_zero_stream_decays_geometrically(self):
        state = LraComponentState(eta=1.0, E=np.array([1.0, 0.0]), V=2.0)
        for n in range(1, 30):
            state = update_snr_state(state, np.zeros(2), beta=0.1)
            assert state.E[0] == pytest.approx(0.9**n, rel=1e-12)
            assert state.V == pytest.approx(2.0 * 0.9**n, rel=1e-12)

    def test_constant_stream_converges(self):
        # geometric series oracle: E -> u and V -> |u|^2 within (1-beta)^n
        beta, n = 0.1, 300
        u = np.array([1.0, -0.5, 2.0])
        state = LraComponentState.initial(3)
        for _ in range(n):
            state = update_snr_state(state, u, beta)
        residual = (1 - beta) ** n
        assert np.all(np.abs(state.E - u) <= np.abs(u) * residual + 1e-15)
        assert abs(state.V - float(u @ u)) <= float(u @ u) * residual + 1e-15


class TestEstimateSnr:
    def test_zero_numerator(self):
        beta = 0.1
        state = LraComponentState(eta=1.0, E=np.array([1.0]), V=(2 - beta) / beta)
        assert abs(estimate_snr(state, beta)) < 1e-14

    def test_hand_value(self):
        state = LraComponentState(eta=1.0, E=np.array([1.0, 0.0]), V=2.0)
        assert estimate_snr(state, 0.1) == pytest.approx(17.0 / 19.0, rel=1e-12)

    def test_degenerate_denominator_signals_inf(self):
        assert estimate_snr(LraComponentState.initial(3), 0.1) == math.inf
        state = LraComponentState(eta=1.0, E=np.array([2.0]), V=1.0)
        assert estimate_snr(state, 0.1) == math.inf

    def test_negative_numerator_passes_through(self):
        # |E|^2 below the bias correction: a negative but finite estimate
        state = LraComponentState(eta=1.0, E=np.array([0.1]), V=1.0)
        snr = estimate_snr(state, 0.1)
        assert snr < 0 and math.isfinite(snr)

    def test_iid_stream_oracle(self):
        # stream N(mu, I) in d=5: true SNR = |mu|^2 / tr(I) = 1/5 and the
        # signal estimator recovers |mu|^2 = 1 (time averages, 10% tolerance)
        beta, d = 0.1, 5
        mu = np.zeros(d)
        mu[0] = 1.0
        rng = np.random.default_rng(123)
        state = LraComponentState.initial(d)
        for _ in range(int(50 / beta)):
            state = update_snr_state(state, mu + rng.standard_normal(d), beta)
        snr_sum = 0.0
        signal_sum = 0.0
        n = 10_000
        for _ in range(n):
            state = update_snr_state(state, mu + rng.standard_normal(d), beta)
            snr_sum += estimate_snr(state, beta)
            e2 = float(state.E @ state.E)
            signal_sum += (2 - beta) / (2 - 2 * beta) * e2 - beta / (2 - 2 * beta) * state.V
        assert snr_sum / n == pytest.approx(1 / d, rel=0.10)
        assert signal_sum / n == pytest.approx(1.0, rel=0.10)

    def test_moving_average_distribution(self):
        # E[E] ~= mu and tr Cov[E] ~= beta/(2-beta) d s^2 over a long stream
        beta, d, n = 0.1, 5, 10_000
        mu = np.array([1.0, 0, 0, 0, 0])
        rng = np.random.default_rng(77)
        state = LraComponentState.initial(d)
        for _ in range(500):
            state = update_snr_state(state, mu + rng.standard_normal(d), beta)
        samples = np.empty((n, d))
        for i in range(n):
            state = update_snr_state(state, mu + rng.standard_normal(d), beta)
            samples[i] = state.E
        # effective sample size under EMA autocorrelation (1-beta)^|k|
        tau = (2 - beta) / beta
        se = samples.std(axis=0, ddof=1) * math.sqrt(tau / n)
        assert np.all(np.abs(samples.mean(axis=0) - mu) <= 3 * se)
        trace = float(np.trace(np.cov(samples.T)))
        assert trace == pytest.approx(beta / (2 - beta) * d, rel=0.10)


class TestAdaptLearningRate:
    HP = LraHyperParams()

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
    OLD = DistributionParams(m=np.array([1.0, 2.0]), sigma=1.0, C=np.eye(2))

    def test_full_step_returns_proposed_exactly(self):
        proposed = DistributionParams(
            m=np.array([1.5, 1.0]), sigma=1.2, C=np.array([[1.1, 0.1], [0.1, 0.9]])
        )
        dp = compute_deltas(self.OLD, proposed)
        m_new, cov_new, (w, v), floored = apply_blended_update(
            self.OLD, dp, 1.0, 1.0, proposed
        )
        assert m_new is proposed.m
        assert np.array_equal(cov_new, proposed.covariance)
        assert (v * w) @ v.T == pytest.approx(cov_new, rel=1e-12)
        assert not floored

    def test_null_step_returns_old(self):
        dp = DeltaPair(delta_m=np.array([5.0, 5.0]), delta_sigma=np.full(4, 3.0))
        m_new, cov_new, _, _ = apply_blended_update(self.OLD, dp, 0.0, 0.0)
        assert np.array_equal(m_new, self.OLD.m)
        assert np.array_equal(cov_new, self.OLD.covariance)

    def test_half_step_on_covariance(self):
        dp = DeltaPair(delta_m=np.zeros(2), delta_sigma=np.eye(2).ravel())
        _, cov_new, (w, _), floored = apply_blended_update(self.OLD, dp, 1.0, 0.5)
        assert np.array_equal(cov_new, 1.5 * np.eye(2))
        assert w == pytest.approx([1.5, 1.5], rel=1e-14)
        assert not floored

    def test_indefinite_result_is_floored_with_warning(self, caplog):
        dp = DeltaPair(delta_m=np.zeros(2), delta_sigma=np.diag([0.0, -1.5]).ravel())
        with caplog.at_level("WARNING", logger="lracma.lra"):
            _, cov_new, (w, v), floored = apply_blended_update(self.OLD, dp, 1.0, 1.0)
        assert floored
        assert np.all(np.linalg.eigvalsh(cov_new) > 0)
        # the returned decomposition is the floored one
        assert np.all(w > 0)
        assert (v * w) @ v.T == pytest.approx(cov_new, rel=1e-12)
        assert any("positive definiteness" in r.message for r in caplog.records)

    def test_fully_collapsed_covariance_raises(self):
        dp = DeltaPair(delta_m=np.zeros(2), delta_sigma=(-2.0 * np.eye(2)).ravel())
        with pytest.raises(NumericalError) as err:
            apply_blended_update(self.OLD, dp, 1.0, 1.0)
        assert err.value.reason == "nonpositive_determinant"


class TestDecomposeSigma:
    def test_isotropic(self):
        sigma, C = decompose_sigma(4.0 * np.eye(2), np.full(2, 4.0))
        assert sigma == pytest.approx(2.0, rel=1e-14)
        assert C == pytest.approx(np.eye(2), rel=1e-14)

    def test_identity_is_exact(self):
        sigma, C = decompose_sigma(np.eye(3), np.ones(3))
        assert sigma == 1.0
        assert np.array_equal(C, np.eye(3))

    def test_diagonal_hand_value(self):
        sigma, C = decompose_sigma(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
        assert sigma == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert C == pytest.approx(np.diag([0.5, 2.0]), rel=1e-14)
        assert np.linalg.det(C) == pytest.approx(1.0, abs=1e-12)

    def test_unit_determinant_and_sigma_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            cov = random_spd(5, rng, scale=10.0 ** rng.integers(-3, 4))
            sigma, C = decompose_sigma(cov, np.linalg.eigvalsh(cov))
            assert np.linalg.det(C) == pytest.approx(1.0, rel=1e-9)
            assert sigma**2 * C == pytest.approx(cov, rel=1e-12)

    def test_nonpositive_determinant_raises(self):
        with pytest.raises(NumericalError) as err:
            decompose_sigma(np.diag([1.0, -1.0]), np.array([-1.0, 1.0]))
        assert err.value.reason == "nonpositive_determinant"
        with pytest.raises(NumericalError):
            decompose_sigma(np.zeros((2, 2)), np.zeros(2))


class TestCorrectStepSize:
    def test_unchanged_eta_keeps_sigma(self):
        assert correct_step_size(3.7, 0.25, 0.25) == 3.7

    def test_halved_eta_doubles_sigma(self):
        assert correct_step_size(3.0, 0.4, 0.2) == 6.0

    def test_hand_value(self):
        assert correct_step_size(1.0, 0.2, 0.5) == 0.4


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
            assert stats.det_c == pytest.approx(1.0, rel=1e-9)
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
        assert np.array_equal(a.params.C, b.params.C)
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
        [{}, {"lr_mode": "fixed", "eta_m": 0.5, "eta_sigma": 0.2}],
        ids=["adaptive", "fixed_blend"],
    )
    def test_one_step_matches_manual_op_composition(self, kwargs):
        # tell() is exactly the documented chain of operations, threading one
        # eigendecomposition of the blended Sigma per generation; fixed eta
        # skips the SNR layer and the step-size correction
        problem = make_problem("ellipsoid", 4)
        hp = LraHyperParams()
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=21, **kwargs)
        sp = opt.strategy
        adaptive = not kwargs

        mirror_rng = np.random.default_rng(21)
        params = DistributionParams(
            m=problem.init_m.astype(float), sigma=problem.init_sigma, C=np.eye(4)
        )
        paths = EvolutionPaths.zero(4)
        state_m = LraComponentState(eta=kwargs.get("eta_m", 1.0), E=np.zeros(4), V=0.0)
        state_s = LraComponentState(
            eta=kwargs.get("eta_sigma", 1.0), E=np.zeros(16), V=0.0
        )
        w_c, v = np.linalg.eigh(params.C)

        for _ in range(10):
            xs = opt.ask()
            fitness = problem.evaluate_population(xs)
            opt.tell(fitness)

            pop = sample_population(params, sp, mirror_rng, sqrt_C=sqrt_from_eigh(w_c, v))
            assert np.array_equal(pop.x, xs)
            pop.fitness = problem.evaluate_population(pop.x)
            best = pop.ranking()[: sp.mu]
            dy, dz = rank_and_recombine(pop, sp, best)
            paths, h = update_paths(paths, dy, dz, sp)
            proposed = cma_candidate_update(params, paths, h, dy, pop, sp, best)
            dp = compute_deltas(params, proposed)
            eta_m_old = eta_m = state_m.eta
            eta_s = state_s.eta
            if adaptive:
                tm, ts = to_local_coordinates(dp, params.sigma**2 * w_c, v)
                state_m = update_snr_state(state_m, tm, hp.beta_m)
                state_s = update_snr_state(state_s, ts, hp.beta_sigma)
                eta_m = adapt_learning_rate(
                    eta_m_old, estimate_snr(state_m, hp.beta_m), hp, hp.beta_m
                )
                eta_s = adapt_learning_rate(
                    eta_s, estimate_snr(state_s, hp.beta_sigma), hp, hp.beta_sigma
                )
                state_m = LraComponentState(eta=eta_m, E=state_m.E, V=state_m.V)
                state_s = LraComponentState(eta=eta_s, E=state_s.E, V=state_s.V)
            m_new, cov_new, (w, v), _ = apply_blended_update(
                params, dp, eta_m, eta_s, proposed
            )
            sigma_new, C_new = decompose_sigma(cov_new, w)
            w_c = w / sigma_new**2
            if adaptive:
                sigma_new = correct_step_size(sigma_new, eta_m_old, eta_m)
            params = DistributionParams(m=m_new, sigma=sigma_new, C=C_new)

            assert np.array_equal(opt.mean, params.m)
            assert opt.sigma == params.sigma
            assert np.array_equal(opt.params.C, params.C)
            assert opt.eta_m == eta_m and opt.eta_sigma == eta_s

    def test_unit_eta_reduces_to_plain_update_plus_resplit(self):
        # eta_m = eta_sigma = 1 pinned: bitwise equal to the plain CMA-ES
        # update followed by the eigenvalue-based re-split, for 100
        # generations, with samples drawn from the re-split's decomposition
        problem = make_problem("sphere", 5)
        opt = LraCmaEs(
            problem.init_m,
            problem.init_sigma,
            lr_mode="fixed",
            eta_m=1.0,
            eta_sigma=1.0,
            seed=7,
        )
        sp = opt.strategy
        mirror_rng = np.random.default_rng(7)
        params = DistributionParams(
            m=problem.init_m.astype(float), sigma=problem.init_sigma, C=np.eye(5)
        )
        paths = EvolutionPaths.zero(5)
        w_c, v = np.linalg.eigh(params.C)
        for _ in range(100):
            xs = opt.ask()
            fitness = problem.evaluate_population(xs)
            opt.tell(fitness)

            pop = sample_population(params, sp, mirror_rng, sqrt_C=sqrt_from_eigh(w_c, v))
            pop.fitness = problem.evaluate_population(pop.x)
            best = pop.ranking()[: sp.mu]
            dy, dz = rank_and_recombine(pop, sp, best)
            paths, h = update_paths(paths, dy, dz, sp)
            proposed = cma_candidate_update(params, paths, h, dy, pop, sp, best)
            plain_cov = proposed.covariance
            w, v = np.linalg.eigh(plain_cov)
            sigma_new, C_new = decompose_sigma(plain_cov, w)
            w_c = w / sigma_new**2
            params = DistributionParams(m=proposed.m, sigma=sigma_new, C=C_new)

            assert np.array_equal(opt.mean, params.m)
            assert opt.sigma == params.sigma
            assert np.array_equal(opt.params.C, params.C)
            # the re-split changes the sigma/C factorization, not Sigma
            assert opt.params.covariance == pytest.approx(plain_cov, rel=1e-12)

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
    def test_one_eigh_and_one_slogdet_per_tell(self, monkeypatch, kwargs):
        problem = make_problem("ellipsoid", 6)
        opt = LraCmaEs(problem.init_m, problem.init_sigma, seed=5, **kwargs)
        counts = {"eigh": 0, "slogdet": 0}

        def counting(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)

            return wrapper

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name))
        for _ in range(30):
            fitness = problem.evaluate_population(opt.ask())
            before = dict(counts)
            stats = opt.tell(fitness)
            assert {k: counts[k] - before[k] for k in counts} == {"eigh": 1, "slogdet": 1}
            assert stats.det_c == pytest.approx(np.linalg.det(opt.params.C), rel=1e-12)

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
        params, t, etas = opt.params, opt.t, (opt.eta_m, opt.eta_sigma)
        fitness = problem.evaluate_population(opt.ask())
        fitness[1] = np.nan
        with pytest.raises(InvalidFitnessError):
            opt.tell(fitness)
        assert opt.params is params and opt.t == t
        assert (opt.eta_m, opt.eta_sigma) == etas

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
        with pytest.raises(ValueError):
            LraCmaEs(np.zeros(3), 1.0, lr_mode="fixed", eta_m=0.0)
        with pytest.raises(ValueError):
            LraCmaEs(np.zeros(3), 1.0, seed=1, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            LraCmaEs(np.zeros(3), 1.0, strategy=default_strategy_params(4))
        # cov must be finite, 3 x 3, exactly symmetric and positive definite
        # above the eigenvalue floor once scaled by sigma^2
        for cov, sigma, match in (
            (np.eye(2), 1.0, "finite 3 x 3"),
            (np.diag([1.0, np.nan, 1.0]), 1.0, "finite 3 x 3"),
            (np.diag([1.0, np.inf, 1.0]), 1.0, "finite 3 x 3"),
            (np.eye(3) + np.triu(np.full((3, 3), 0.1), 1), 1.0, "symmetric"),
            (np.diag([1.0, -1.0, 1.0]), 1.0, "positive definite"),
            (np.diag([1.0, 0.0, 1.0]), 1.0, "positive definite"),
            (np.eye(3), 1e-11, "positive definite"),
        ):
            with pytest.raises(ValueError, match=match):
                LraCmaEs(np.zeros(3), sigma, cov=cov)
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 3.0]])
        opt = LraCmaEs(np.zeros(3), 0.5, cov=cov, seed=0)
        assert np.array_equal(opt.params.C, cov)
        run_pairs(opt, make_problem("sphere", 3), 5)
