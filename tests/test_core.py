"""Tests for the plain CMA-ES step: constants, sampling, ranking, updates."""

import dataclasses
import math

import numpy as np
import pytest

from lracma.core import (
    StrategyParams,
    cma_candidate_update,
    default_strategy_params,
    rank_and_recombine,
    ranking,
    sample_population,
    update_paths,
)
from lracma.errors import InvalidFitnessError
from lracma.lra import LraCmaEs


def sym_sqrt(a):
    """Symmetric square root through an eigendecomposition."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(w)) @ v.T


def make_strategy(d, lam, weights):
    """Hand-built StrategyParams; mu, mu_w and chi_d derive from d and the weights."""
    return StrategyParams(
        d=d,
        lam=lam,
        weights=np.asarray(weights, dtype=float),
        c_sigma=0.3,
        c_c=0.4,
        c_1=0.05,
        c_mu=0.1,
        d_sigma=1.0,
    )


# Table 1 of Hansen's CMA-ES tutorial (arXiv:1604.00772), positive weights
# only, as the README's constant list spells it out: evaluated once in
# 50-digit decimal arithmetic, independently of lracma, and rounded to 17
# digits.  (d, lam) -> (lam argument, mu,
#                       (mu_w, c_sigma, d_sigma, c_c, c_1, c_mu, chi_d),
#                       weights)
# A lam argument of None asks for the default 4 + floor(3 ln d).  The (1, 40)
# row has both d_sigma's max(0, .) and c_mu's min(1 - c_1, .) active.
TABLE_1 = {
    (10, 10): (
        None, 5,
        (3.167299281410703, 0.28442858794636749, 1.2844285879463675, 0.29499038303562225,
         0.015283824524751716, 0.020154282761208384, 3.0847265651690119),
        (0.45627264690340585, 0.27075309700178518, 0.16223111715866978, 0.085233547100164439,
         0.025509591835974739),
    ),
    (40, 15): (
        None, 7,
        (4.5409152090759557, 0.13203056870208268, 1.1320305687020826, 0.093009216634249173,
         0.0011694327252618397, 0.0031225007109974062, 6.2852150803977596),
        (0.3447961985920206, 0.22986413239468037, 0.1626331835388348, 0.11493206619734019,
         0.07793220508496225, 0.047701117341494612, 0.022141096850667206),
    ),
    (1, 4): (
        None, 2,
        (1.4597898888525864, 0.46379186818956741, 1.4637918681895674, 0.68940398886096577,
         0.29630551956928913, 0.027690800889192083, 0.79761904761904767),
        (0.80416285993272951, 0.19583714006727049),
    ),
    (3, 7): (
        None, 3,
        (2.2548150822016049, 0.41490900109806167, 1.4149090010980616, 0.55880132288601891,
         0.096409632579272139, 0.051243087013586167, 1.5968775302586078),
        (0.58564510650976498, 0.29282255325488249, 0.1215323402353525),
    ),
    (30, 14): (
        None, 7,
        (4.2871350661907019, 0.16003037777120116, 1.1600303777712011, 0.12083438082715649,
         0.0020325675554091639, 0.0049021153442583868, 5.431871828887874),
        (0.36114811172448119, 0.23690947946564322, 0.16423453845333727, 0.11267084720680526,
         0.072674941012305955, 0.039995906194499303, 0.0123661759429278),
    ),
    (2, 6): (
        None, 3,
        (2.0286114646100621, 0.44620498737831715, 1.4462049873783172, 0.62455453902682645,
         0.15481539989641357, 0.057859085071916339, 1.254272742818995),
        (0.63704257124121677, 0.28457025743803288, 0.078387171320750362),
    ),
    (100, 17): (
        None, 8,
        (5.0961888786101701, 0.064454446161022735, 1.0644544461610228, 0.038913420057841853,
         0.00019480292695356598, 0.00063260323183746961, 9.9750476190476185),
        (0.31509587526762262, 0.21569419380063068, 0.15754793763381131, 0.11629251233363878,
         0.084292318390369644, 0.058146256166819392, 0.036040075540460736, 0.016890830866646875),
    ),
    (10, 24): (
        24, 12,
        (7.0263755575921509, 0.40979849517188949, 1.4097984951718894, 0.30526151086020409,
         0.014846005110529319, 0.06844759963628784, 3.0847265651690119),
        (0.24470488689697081, 0.1775494136421113, 0.13826598006983595, 0.11039394038725178,
         0.088774706821055649, 0.071110506814976437, 0.056175638511833166,
         0.043238467132392273, 0.0318270732427011, 0.021619233566196137, 0.012385119354558443,
         0.003955033560116933),
    ),
    (1, 40): (
        40, 20,
        (11.309482088932262, 0.7689127855213177, 4.3097237458966253, 0.55431050890757838,
         0.12048568679943961, 0.87951431320056039, 0.79761904761904767),
        (0.16712470149808076, 0.1287718140693217, 0.1063368131291178, 0.090418926640562627,
         0.07807205465719276, 0.06798392570035873, 0.059454534199832793, 0.052066039211803569,
         0.045548924760154839, 0.039719167228433695, 0.034445510060994743,
         0.029631038271599672, 0.025202153551306533, 0.021101646771073731,
         0.017284166288229798, 0.013713151783044504, 0.010358699278370813,
         0.0071960373313957769, 0.0042044157694505211, 0.0013662797996746303),
    ),
}


class TestDefaultStrategyParams:
    @pytest.mark.parametrize("d,lam", list(TABLE_1))
    def test_default_lambda(self, d, lam):
        """lam and every other Table 1 constant, by value."""
        lam_arg, mu, scalars, weights = TABLE_1[d, lam]
        sp = default_strategy_params(d, lam_arg)
        assert (sp.lam, sp.mu) == (lam, mu)
        np.testing.assert_allclose(sp.weights, weights, rtol=1e-14)
        np.testing.assert_allclose(
            (sp.mu_w, sp.c_sigma, sp.d_sigma, sp.c_c, sp.c_1, sp.c_mu, sp.chi_d),
            scalars,
            rtol=1e-14,
        )

    def test_derived_constants_are_consistent(self):
        sp = default_strategy_params(10)
        assert sp.mu == 5
        # The mean moves at rate c_m = 1, fixed in the update, not a field.
        assert "c_m" not in {f.name for f in dataclasses.fields(sp)}
        assert np.all(np.diff(sp.weights) < 0)
        assert sp.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert sp.mu_w == pytest.approx(1.0 / np.sum(sp.weights**2), rel=1e-13)
        assert sp.chi_d == pytest.approx(
            math.sqrt(10) * (1 - 1 / 40 + 1 / 2100), rel=1e-13
        )
        assert 0 < sp.c_sigma <= 1 and 0 < sp.c_c <= 1
        assert sp.c_1 >= 0 and sp.c_mu >= 0 and sp.c_1 + sp.c_mu <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            default_strategy_params(0)
        with pytest.raises(ValueError):
            default_strategy_params(10, 1)

    def test_validation_rejects_incoherent_fields(self):
        sp = default_strategy_params(5)
        for change, match in (
            ({"weights": sp.weights[::-1].copy()}, "nonincreasing"),
            ({"weights": 2 * sp.weights}, "sum to 1"),
            ({"weights": np.full(sp.lam + 1, 1 / (sp.lam + 1))}, "1 to lambda"),
            ({"c_sigma": 0.0}, "c_sigma"),
            ({"c_c": 1.5}, "c_c"),
            ({"c_mu": -0.1}, "nonnegative"),
            ({"d_sigma": 0.0}, "d_sigma"),
        ):
            with pytest.raises(ValueError, match=match):
                dataclasses.replace(sp, **change)
        # new weights re-derive mu and mu_w
        halves = dataclasses.replace(sp, weights=np.full(2, 0.5))
        assert (halves.mu, halves.mu_w) == (2, 2.0)


class TestSamplePopulation:
    def test_identity_transform(self):
        # C = I, m = 0, sigma = 1 leaves z untouched
        sp = default_strategy_params(4)
        x, y, z = sample_population(np.zeros(4), 1.0, np.eye(4), sp, np.random.default_rng(0))
        assert np.array_equal(x, z)
        assert np.array_equal(y, z)

    def test_construction_identities(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        root = sym_sqrt(a @ a.T + 5 * np.eye(5))
        m = rng.standard_normal(5)
        sp = default_strategy_params(5)
        x, y, z = sample_population(m, 1.7, root, sp, np.random.default_rng(1))
        # x_i = m + sigma y_i and y_i = sqrt(C) z_i, exactly as constructed
        assert np.array_equal(y, z @ root.T)
        assert np.array_equal(x, m + 1.7 * y)

    def test_sqrt_of_scaled_identity(self):
        # the optimizer's root of C = 4 I doubles every z, hand value
        opt = LraCmaEs(np.zeros(2), 1.0, cov=4.0 * np.eye(2), seed=0)
        z = np.random.default_rng(0).standard_normal((opt.strategy.lam, 2))
        assert np.array_equal(opt.ask(), 2.0 * z)

    def test_empirical_covariance_matches(self):
        # Monte-Carlo oracle: sample covariance of x reproduces sigma^2 C
        sp = default_strategy_params(2, 100_000)
        C = np.diag([1.0, 4.0])
        x, _, _ = sample_population(np.zeros(2), 1.0, sym_sqrt(C), sp, np.random.default_rng(7))
        emp = np.cov(x.T, bias=True)
        scale = np.sqrt(np.outer(np.diag(C), np.diag(C)))
        assert np.all(np.abs(emp - C) <= 0.05 * scale)

    def test_seed_determinism(self):
        sp = default_strategy_params(6)
        a = sample_population(np.ones(6), 0.5, np.eye(6), sp, np.random.default_rng(42))
        b = sample_population(np.ones(6), 0.5, np.eye(6), sp, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0])


class TestRankAndRecombine:
    @staticmethod
    def recombine(sp, y, fitness):
        """rank_and_recombine with given y rows (z = y; z only feeds dz)."""
        y = np.asarray(y, dtype=float)
        return rank_and_recombine(y, y.copy(), np.asarray(fitness, dtype=float), sp)

    def test_equal_steps_recombine_to_themselves(self):
        sp = default_strategy_params(3)
        v = np.array([1.0, -2.0, 0.5])
        dy, _, _ = self.recombine(sp, np.tile(v, (sp.lam, 1)), np.arange(sp.lam, dtype=float))
        assert dy == pytest.approx(v, rel=1e-15)

    def test_hand_weighted_average(self):
        sp = make_strategy(2, 4, [0.75, 0.25])
        y = [[0.0, 4.0], [4.0, 0.0], [9.0, 9.0], [8.0, 8.0]]
        fitness = [2.0, 1.0, 5.0, 4.0]  # ranks rows 1, 0 into the parent set
        dy, _, y_best = self.recombine(sp, y, fitness)
        assert np.array_equal(dy, [3.0, 1.0])
        assert np.array_equal(y_best, [[4.0, 0.0], [0.0, 4.0]])

    def test_sample_order_is_irrelevant(self):
        sp = default_strategy_params(4)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((sp.lam, 4))
        fitness = rng.standard_normal(sp.lam)
        dy, _, _ = self.recombine(sp, y, fitness)
        perm = rng.permutation(sp.lam)
        dy_p, _, _ = self.recombine(sp, y[perm], fitness[perm])
        assert np.array_equal(dy, dy_p)

    def test_ties_break_by_sample_index(self):
        assert list(ranking(np.array([7.0, 3.0, 3.0, 3.0]))) == [1, 2, 3, 0]

    def test_nonfinite_fitness_rejected(self):
        sp = default_strategy_params(2)
        f = np.zeros(sp.lam)
        f[3] = np.nan
        with pytest.raises(InvalidFitnessError):
            self.recombine(sp, np.zeros((sp.lam, 2)), f)


class TestUpdatePaths:
    def test_zero_path_zero_step(self):
        sp = default_strategy_params(5)
        zero = np.zeros(5)
        p_sigma, _, h, norm2 = update_paths(zero, zero, 0, zero, zero, sp)
        assert np.array_equal(p_sigma, np.zeros(5))
        assert h == 1 and norm2 == 0.0

    def test_first_step_scaling(self):
        sp = default_strategy_params(5)
        u = np.arange(5.0)
        p_sigma, _, _, norm2 = update_paths(np.zeros(5), np.zeros(5), 0, np.zeros(5), u, sp)
        scale = math.sqrt(sp.c_sigma * (2 - sp.c_sigma) * sp.mu_w)
        assert np.array_equal(p_sigma, scale * u)
        assert norm2 == float(p_sigma @ p_sigma)

    def test_stalled_indicator_blocks_dy(self):
        sp = default_strategy_params(5)
        _, p_c, h, _ = update_paths(np.full(5, 1e6), np.ones(5), 3, np.ones(5), np.zeros(5), sp)
        assert h == 0
        assert np.array_equal(p_c, (1 - sp.c_c) * np.ones(5))

    def test_indicator_threshold(self):
        sp = default_strategy_params(4)
        limit = (2 + 4 / (sp.d + 1)) * sp.d
        # choose dz so that the fresh path norm lands just around the limit
        scale = math.sqrt(sp.c_sigma * (2 - sp.c_sigma) * sp.mu_w)
        norm_at_limit = math.sqrt(limit * (1 - (1 - sp.c_sigma) ** 2))
        e = np.zeros(4)
        e[0] = 1.0
        zero = np.zeros(4)
        _, _, h_below, _ = update_paths(zero, zero, 0, zero, 0.99 * norm_at_limit / scale * e, sp)
        _, _, h_above, _ = update_paths(zero, zero, 0, zero, 1.01 * norm_at_limit / scale * e, sp)
        assert (h_below, h_above) == (1, 0)


class TestCandidateUpdate:
    @staticmethod
    def update(sp, m, sigma, C, p_sigma, p_c, h, dy, y_best):
        return cma_candidate_update(
            m, sigma, C, float(p_sigma @ p_sigma), p_c, h, dy, np.asarray(y_best, dtype=float), sp
        )

    def test_neutral_sigma_when_path_norm_is_chi(self):
        sp = default_strategy_params(3)
        p_sigma = np.array([sp.chi_d, 0, 0])
        _, sigma, _ = self.update(
            sp, np.zeros(3), 0.7, np.eye(3), p_sigma, np.zeros(3), 1, np.zeros(3),
            np.zeros((sp.mu, 3)),
        )
        assert sigma == pytest.approx(0.7, rel=1e-15)

    def test_sigma_growth_clamped_at_e(self):
        sp = default_strategy_params(3)
        _, sigma, _ = self.update(
            sp, np.zeros(3), 0.7, np.eye(3), np.full(3, 1e9), np.zeros(3), 1, np.zeros(3),
            np.zeros((sp.mu, 3)),
        )
        assert sigma == 0.7 * math.e

    def test_mean_moves_by_scaled_dy(self):
        sp = default_strategy_params(2)
        m = np.array([1.0, 2.0])
        dy = np.array([2.0, -4.0])
        m_new, _, _ = self.update(
            sp, m, 0.5, np.eye(2), np.zeros(2), np.zeros(2), 1, dy, np.zeros((sp.mu, 2))
        )
        assert np.array_equal(m_new, m + 0.5 * dy)

    def test_fixed_point_in_one_dimension(self):
        # dy = 0, every ranked y y^T = C, and p_c p_c^T = C leave C unchanged
        sp = make_strategy(1, 4, [0.5, 0.5])
        m_new, _, C_new = self.update(
            sp, np.zeros(1), 1.0, np.eye(1), np.zeros(1), np.ones(1), 1, np.zeros(1),
            [[1.0], [-1.0]],
        )
        assert np.array_equal(m_new, np.zeros(1))
        assert np.array_equal(C_new, np.eye(1))

    def test_zero_rank_one_path_shrinks_by_c1(self):
        # With p_c = 0 the rank-one term subtracts c_1 C even when the
        # rank-mu term is neutral; C' = (1 - c_1) C.
        sp = make_strategy(1, 4, [0.5, 0.5])
        _, _, C_new = self.update(
            sp, np.zeros(1), 1.0, np.eye(1), np.zeros(1), np.zeros(1), 1, np.zeros(1),
            [[1.0], [-1.0]],
        )
        assert C_new[0, 0] == pytest.approx(1 - sp.c_1, rel=1e-15)

    def test_matches_literal_formula(self):
        # independent transcription of the covariance update, looped per term
        sp = default_strategy_params(4)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        m, sigma, C = rng.standard_normal(4), 1.3, a @ a.T + 4 * np.eye(4)
        _, y, z = sample_population(m, sigma, sym_sqrt(C), sp, rng)
        fitness = rng.standard_normal(sp.lam)
        dy, _, y_best = rank_and_recombine(y, z, fitness, sp)
        for forced_h in (0, 1):
            p_sigma, p_c = rng.standard_normal(4), rng.standard_normal(4)
            _, _, C_new = self.update(sp, m, sigma, C, p_sigma, p_c, forced_h, dy, y_best)
            expected = (1 + (1 - forced_h) * sp.c_1 * sp.c_c * (2 - sp.c_c)) * C
            expected = expected + sp.c_1 * (np.outer(p_c, p_c) - C)
            order = ranking(fitness)
            acc = np.zeros((4, 4))
            for i in range(sp.mu):
                yi = y[order[i]]
                acc = acc + sp.weights[i] * (np.outer(yi, yi) - C)
            expected = expected + sp.c_mu * acc
            assert C_new == pytest.approx((expected + expected.T) / 2, rel=1e-12)
            assert np.array_equal(C_new, C_new.T)

    def test_symmetry_is_exact(self):
        sp = default_strategy_params(6)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        C = a @ a.T + 6 * np.eye(6)
        _, y, z = sample_population(np.zeros(6), 1.0, sym_sqrt(C), sp, rng)
        dy, dz, y_best = rank_and_recombine(y, z, rng.standard_normal(sp.lam), sp)
        _, p_c, h, norm2 = update_paths(np.zeros(6), np.zeros(6), 0, dy, dz, sp)
        _, _, C_new = cma_candidate_update(np.zeros(6), 1.0, C, norm2, p_c, h, dy, y_best, sp)
        assert np.max(np.abs(C_new - C_new.T)) == 0.0


def test_plain_cma_solves_sphere():
    # eta = 1 with no re-split reaches 1e-8 on Sphere d=10 fast and reliably
    from lracma.harness import TrialConfig, run_trial
    from lracma.problems import make_problem

    problem = make_problem("sphere", 10)
    hits = 0
    for seed in range(30):
        cfg = TrialConfig(
            problem=problem,
            optimizer="plain",
            max_evals=50_000,
            target_f=1e-8,
            seed=seed,
        )
        hits += run_trial(cfg).success
    assert hits >= 29
