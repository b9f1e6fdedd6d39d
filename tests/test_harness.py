"""Tests for the trial runner, metrics, ECDF aggregation, and CSV output."""

import math
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from lracma import harness, lra
from lracma.harness import (
    HISTORY_COLUMNS,
    HISTORY_CSV_COLUMNS,
    LR_MODES,
    EcdfSpec,
    History,
    TERM_BUDGET,
    TERM_NUMERICAL,
    TERM_TARGET,
    TrialConfig,
    TrialResult,
    derive_trial_seed,
    ecdf,
    ecdf_from_results,
    run_suite,
    run_trial,
    sp1,
    success_rate,
    summarize,
    write_history_csv,
    write_results_csv,
)
from lracma.lra import LraCmaEs
from lracma.problems import Problem, make_problem


def lu_det(C):
    """det C from numpy.linalg.slogdet, by the formula the history records."""
    sign, logdet = np.linalg.slogdet(C)
    return float(sign * np.exp(logdet))


def run_trial_seeing_c(monkeypatch, cfg):
    """run_trial(cfg), and each on_iteration call's (stats, f_m, committed C)."""
    opts, told = [], []

    class Recording(LraCmaEs):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    monkeypatch.setattr(harness, "LraCmaEs", Recording)
    res = run_trial(cfg, on_iteration=lambda stats, f_m: told.append((stats, f_m, opts[0].C)))
    return res, told


def synthetic_result(success, evals):
    return TrialResult(
        evals=evals,
        termination=TERM_TARGET if success else TERM_BUDGET,
        reason="",
        improvements=([0], [0.0]),
        history=History(),
    )


class TestRunTrial:
    def test_initial_mean_already_below_target(self):
        cfg = TrialConfig(
            problem=make_problem("sphere", 10), target_f=1e6, max_evals=1000, seed=0
        )
        res = run_trial(cfg)
        assert res.success and res.evals_to_target == 0
        assert res.termination == TERM_TARGET
        assert len(res.history) == 1

    def test_single_generation_budget_exhausts(self):
        problem = make_problem("rastrigin", 10)
        cfg = TrialConfig(problem=problem, max_evals=10, target_f=1e-8, seed=0)
        res = run_trial(cfg)
        assert res.termination == TERM_BUDGET
        assert not res.success and res.evals_to_target is None
        assert res.evals == 10

    def test_lra_solves_sphere_within_budget(self):
        cfg = TrialConfig(
            problem=make_problem("sphere", 10),
            optimizer="lra",
            max_evals=10**6,
            target_f=1e-8,
            seed=1,
        )
        res = run_trial(cfg)
        assert res.success
        assert res.evals_to_target == res.evals
        assert res.evals_to_target % 10 == 0

    def test_fixed_default_eta_hits_numerical_stop_on_rastrigin(self):
        cfg = TrialConfig(
            problem=make_problem("rastrigin", 5),
            optimizer="fixed",
            eta_m=1.0,
            eta_sigma=1.0,
            max_evals=10**7,
            target_f=1e-8,
            seed=0,
        )
        res = run_trial(cfg)
        assert res.termination == TERM_NUMERICAL
        assert res.reason in ("sigma_collapse", "covariance_degenerate", "nonpositive_determinant")
        assert res.best_noiseless_fm > 1e-8

    @pytest.mark.parametrize(
        "reported,reason",
        [
            (dict(eig_max=0.99e-32), "sigma_collapse"),
            (dict(eig_max=1.01e-32), ""),
            (dict(eig_min=1.0, eig_max=1.01 * 4e6), "covariance_degenerate"),
            (dict(eig_min=1.0, eig_max=0.99 * 4e6), ""),
        ],
        ids=["sigma_collapse", "sigma_above_tol", "kappa_above_limit", "kappa_below_limit"],
    )
    def test_stop_thresholds_by_value(self, monkeypatch, reported, reason):
        # Sigma's largest eigenvalue below 1e-32 (a coordinate standard
        # deviation of 1e-16) and a condition number above 4e6 stop a trial
        class Reporting(LraCmaEs):
            def tell(self, fitness):
                return super().tell(fitness)._replace(**reported)

        monkeypatch.setattr(harness, "LraCmaEs", Reporting)
        cfg = TrialConfig(problem=make_problem("sphere", 10), max_evals=30, target_f=1e-8, seed=0)
        res = run_trial(cfg)
        if reason:
            assert (res.termination, res.reason, res.evals) == (TERM_NUMERICAL, reason, 10)
        else:
            assert (res.termination, res.reason, res.evals) == (TERM_BUDGET, "", 30)

    def test_history_structure(self):
        cfg = TrialConfig(
            problem=make_problem("sphere", 5),
            max_evals=500,
            target_f=1e-12,
            seed=3,
        )
        res = run_trial(cfg)
        h = res.history
        lam = 8  # 4 + floor(3 ln 5)
        assert np.array_equal(h.column("evals"), lam * h.column("t"))
        assert np.all(h.column("sigma") > 0)
        # the improvement record: t = 0, then generations that strictly
        # improve f(m), each also a history row at history_every 1
        evals, f_m = res.improvements
        assert evals[0] == 0 and f_m[0] == h.column("f_m")[0]
        assert np.all(np.diff(evals) > 0) and np.all(np.diff(f_m) < 0)
        rows = np.searchsorted(h.column("evals"), evals)
        assert np.array_equal(h.column("f_m")[rows], f_m)
        assert res.best_noiseless_fm == f_m[-1] == np.min(h.column("f_m"))

    def test_history_peak_stays_near_its_rows(self):
        # a long trial appends one row per generation; growing the rows must
        # not hold two copies of them at once (a doubling buffer peaks ~2x)
        n, row = 200_000, tuple(float(i) for i in range(len(HISTORY_COLUMNS)))
        history = History()
        tracemalloc.start()
        try:
            for _ in range(n):
                history.append(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(history) == n
        assert np.array_equal(history.data[-1], row)
        assert peak <= 1.25 * n * len(HISTORY_COLUMNS) * 8
        with pytest.raises(ValueError):
            history.append(row[:-1])
        with pytest.raises(TypeError):
            history.append((*row[:-1], "x"))
        assert history.data.shape == (n, len(HISTORY_COLUMNS))

    def test_history_thinning_keeps_first_and_last(self):
        cfg = TrialConfig(
            problem=make_problem("sphere", 5),
            max_evals=700,
            target_f=1e-12,
            seed=3,
            history_every=10,
        )
        res = run_trial(cfg)
        ts = res.history.column("t")
        assert ts[0] == 0
        assert len(ts) < 700 // 7
        full = run_trial(
            TrialConfig(
                problem=make_problem("sphere", 5),
                max_evals=700,
                target_f=1e-12,
                seed=3,
            )
        )
        assert res.termination == full.termination

    # Rastrigin d=5 runs 100 generations of 8 within 803 evaluations, and
    # 100 is not a multiple of 7; fixed eta=1 on Rastrigin d=10 stops early.
    HISTORY_TRIALS = {
        "lra": (("rastrigin", 5), "lra", 1.0, 1.0, 803, TERM_BUDGET),
        "fixed": (("rastrigin", 5), "fixed", 0.5, 0.2, 803, TERM_BUDGET),
        "plain": (("rastrigin", 5), "plain", 1.0, 1.0, 803, TERM_BUDGET),
        "fixed_unit_stops_early": (("rastrigin", 10), "fixed", 1.0, 1.0, 10**6, TERM_NUMERICAL),
    }

    @pytest.mark.parametrize("history_every", [1, 7])
    @pytest.mark.parametrize("trial", list(HISTORY_TRIALS))
    def test_history_holds_initial_every_kth_and_last_row(
        self, monkeypatch, trial, history_every
    ):
        (name, d), optimizer, eta_m, eta_sigma, max_evals, ends = self.HISTORY_TRIALS[trial]
        problem = make_problem(name, d)
        cfg = TrialConfig(
            problem=problem,
            optimizer=optimizer,
            eta_m=eta_m,
            eta_sigma=eta_sigma,
            max_evals=max_evals,
            seed=0,
            history_every=history_every,
        )
        res, told = run_trial_seeing_c(monkeypatch, cfg)
        assert res.termination == ends
        opt = LraCmaEs(
            problem.init_m,
            problem.init_sigma,
            lr_mode=LR_MODES[optimizer],
            eta_m=eta_m,
            eta_sigma=eta_sigma,
        )
        told.insert(0, (opt.initial_stats(), problem.evaluate_noiseless(problem.init_m), opt.C))
        rows = [
            (*stats[:-1], lu_det(C), stats.floored, f_m)
            for i, (stats, f_m, C) in enumerate(told)
            if stats.t % history_every == 0 or i == len(told) - 1
        ]
        assert np.array_equal(res.history.data, np.array(rows), equal_nan=True)

    def test_one_lu_per_kept_row(self, monkeypatch):
        # tell() takes no det C; run_trial takes one LU determinant of the
        # committed C for each row it keeps, and none for the rows it skips
        cfg = TrialConfig(
            problem=make_problem("ellipsoid", 6),
            max_evals=60 * 9,
            target_f=1e-30,
            seed=1,
            history_every=7,
        )
        calls = 0

        def counting_slogdet(*args, **kwargs):
            nonlocal calls
            calls += 1
            return _umath_linalg.slogdet(*args, **kwargs)

        lapack = {n: getattr(_umath_linalg, n) for n in ("eigh_lo", "cholesky_lo")}
        lapack["slogdet"] = counting_slogdet
        monkeypatch.setattr(lra, "_umath_linalg", SimpleNamespace(**lapack))
        res, told = run_trial_seeing_c(monkeypatch, cfg)
        assert res.termination == TERM_BUDGET and len(told) == 60
        assert res.history.column("t").tolist() == [0, *range(7, 60, 7), 60]
        assert calls == len(res.history)
        C_at = {stats.t: C for stats, _, C in told}
        C_at[0] = np.eye(6)
        for t, det in zip(res.history.column("t"), res.history.column("det_c")):
            assert det == lu_det(C_at[t])

    def test_indefinite_blend_ends_the_trial_before_its_generation_commits(self, monkeypatch):
        # at generation K the proposal sigma_prop = 1, C_prop = 2 D - Sigma
        # makes the eta_sigma = 0.5 blend Sigma + 0.5 (C_prop - Sigma) an
        # exactly diagonal D with one negative entry.  The split's Cholesky
        # factorization rejects it, so generation K adds no row and spends
        # no evaluations.
        import lracma.lra

        propose = lracma.lra.cma_candidate_update
        K, D = 5, np.diag([1.0, -0.5, 1.0, 1.0, 1.0])
        calls = 0

        def indefinite_at_k(m, sigma, C, *rest):
            nonlocal calls
            calls += 1
            m_prop, sigma_prop, C_prop = propose(m, sigma, C, *rest)
            if calls == K:
                return m_prop, 1.0, 2.0 * D - sigma**2 * C
            return m_prop, sigma_prop, C_prop

        monkeypatch.setattr(lracma.lra, "cma_candidate_update", indefinite_at_k)
        problem = make_problem("sphere", 5)  # lambda = 8
        cfg = TrialConfig(
            problem=problem,
            optimizer="fixed",
            eta_m=1.0,
            eta_sigma=0.5,
            max_evals=100 * 8,
            target_f=1e-30,
            seed=0,
        )
        res = run_trial(cfg)
        assert (res.termination, res.reason) == (TERM_NUMERICAL, "nonpositive_determinant")
        assert res.history.column("t").tolist() == list(range(K))
        assert res.evals == (K - 1) * 8

    def test_determinism(self):
        cfg = TrialConfig(
            problem=make_problem("rastrigin", 5, noise_variance=1.0),
            max_evals=2000,
            target_f=1e-8,
            seed=123,
        )
        a, b = run_trial(cfg), run_trial(cfg)
        assert np.array_equal(a.history.data, b.history.data, equal_nan=True)
        assert a.best_noiseless_fm == b.best_noiseless_fm
        assert a.termination == b.termination

    def test_validation(self):
        problem = make_problem("sphere", 10)
        with pytest.raises(ValueError):
            TrialConfig(problem=problem, optimizer="nosuch")
        with pytest.raises(ValueError):
            TrialConfig(problem=problem, target_f=0.0)
        with pytest.raises(ValueError):
            TrialConfig(problem=problem, optimizer="fixed", eta_m=0.0)
        # only the fixed optimizer pins eta; the others run with eta = 1
        for optimizer, eta in (("lra", {"eta_m": 0.5}), ("plain", {"eta_sigma": 0.2})):
            with pytest.raises(ValueError, match="eta_m = eta_sigma = 1"):
                TrialConfig(problem=problem, optimizer=optimizer, **eta)
        # rejected before any trial runs, so a pool never meets it
        with pytest.raises(ValueError, match="population size must be at least 2"):
            TrialConfig(problem=problem, population_size=1)
        with pytest.raises(ValueError):
            run_trial(TrialConfig(problem=problem, max_evals=5))  # below lambda

    def test_configs_compare_and_hash_by_their_settings(self):
        a, b = make_problem("ackley", 10), make_problem("ackley", 10)
        assert a == b and hash(a) == hash(b)
        for other in (make_problem("ackley", 11), make_problem("ackley", 10, 1.0),
                      make_problem("sphere", 10)):
            assert a != other
        cfg = TrialConfig(problem=a, optimizer="fixed", eta_m=0.5, eta_sigma=0.2, seed=3)
        same = TrialConfig(problem=b, optimizer="fixed", eta_m=0.5, eta_sigma=0.2, seed=3)
        assert cfg == same and hash(cfg) == hash(same)
        assert {cfg: "x"}[same] == "x"
        assert cfg != TrialConfig(problem=a, optimizer="fixed", eta_m=0.5, eta_sigma=0.2, seed=4)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_overflowing_objective_is_a_numerical_stop(self):
        # an objective that overflows to inf ends the trial, not the suite
        import dataclasses

        problem = make_problem("sphere", 4)

        def overflowing(x):
            with np.errstate(over="ignore"):
                return np.exp(np.sum(x**2, axis=-1)) * 1e300

        blowup = dataclasses.replace(problem, fn=overflowing)
        cfg = TrialConfig(problem=blowup, max_evals=10_000, target_f=1e-8, seed=0)
        res = run_trial(cfg)
        assert res.termination == TERM_NUMERICAL
        assert res.reason in ("nonfinite_fitness", "nonfinite_state")


class TestMetrics:
    def test_success_rate_extremes(self):
        assert success_rate([synthetic_result(True, 10)] * 4) == 1.0
        assert success_rate([synthetic_result(False, 10)] * 4) == 0.0
        mixed = [synthetic_result(i < 15, 100) for i in range(30)]
        assert success_rate(mixed) == 0.5

    def test_success_rate_empty(self):
        with pytest.raises(ValueError):
            success_rate([])

    def test_sp1_full_success(self):
        results = [synthetic_result(True, 1000)] * 5
        assert sp1(results) == 1000

    def test_sp1_penalizes_failures(self):
        results = [synthetic_result(True, 1000)] * 5 + [synthetic_result(False, 9999)] * 5
        assert sp1(results) == 2000

    def test_sp1_no_successes_is_undefined(self):
        assert sp1([synthetic_result(False, 10)] * 3) is None

    def test_sp1_lower_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            results = [
                synthetic_result(bool(rng.integers(0, 2)), int(rng.integers(1, 10_000)))
                for _ in range(n)
            ]
            value = sp1(results)
            successes = [r.evals_to_target for r in results if r.success]
            if not successes:
                assert value is None
            else:
                mean_evals = np.mean(successes)
                assert value >= mean_evals - 1e-9
                if len(successes) == n:
                    assert value == pytest.approx(mean_evals)


class TestEcdf:
    def test_target_grid(self):
        spec = EcdfSpec()
        t = spec.targets
        assert len(t) == 30
        assert t[0] == 1e6
        assert t[-1] == pytest.approx(1e-3, rel=1e-12)
        assert np.all(np.diff(t) < 0)

    def test_no_target_reached(self):
        spec = EcdfSpec(n_targets=30)
        curve = ecdf([(np.array([0.0, 10.0]), np.array([1e9, 2e6]))], spec)
        assert curve.evals.size == 0
        assert curve.value_at(1e12) == 0.0

    def test_all_targets_hit_from_the_start(self):
        spec = EcdfSpec(n_targets=30)
        curve = ecdf([(np.array([0.0, 10.0]), np.array([1e-4, 1e-5]))], spec)
        assert curve.value_at(0) == 1.0

    def test_half_of_targets_hit(self):
        spec = EcdfSpec(n_targets=30)
        final = spec.targets[14]  # reaches targets 1..15 exactly
        history = (np.array([0.0, 50.0]), np.array([1e9, final]))
        curve = ecdf([history], spec)
        assert curve.value_at(49) == 0.0
        assert curve.value_at(50) == 0.5
        assert curve.value_at(1e9) == 0.5

    def test_curve_is_nondecreasing_and_bounded(self):
        rng = np.random.default_rng(8)
        histories = []
        for _ in range(5):
            n = 40
            evals = np.arange(n) * 10.0
            best = np.minimum.accumulate(10.0 ** rng.uniform(-4, 7, n))
            histories.append((evals, best))
        curve = ecdf(histories, EcdfSpec(n_targets=30))
        assert np.all(np.diff(curve.fraction) >= 0)
        assert np.all((curve.fraction >= 0) & (curve.fraction <= 1))

    def test_rejects_increasing_series(self):
        spec = EcdfSpec(n_targets=5)
        with pytest.raises(ValueError):
            ecdf([(np.array([0.0, 1.0]), np.array([1.0, 2.0]))], spec)
        # a NaN reached no target, so it is no best-so-far value
        with pytest.raises(ValueError, match="NaN"):
            ecdf([([0, 10, 20], [1e3, 1e2, math.nan])], EcdfSpec(30))

    def test_nan_f_m_hits_only_the_targets_reached(self, monkeypatch):
        # f(m) turns NaN after 20 generations: the trial stops there, and
        # only the targets its finite f(m) values reached count as hit
        problem = make_problem("sphere", 5)
        calls, exact = [], Problem.evaluate_noiseless

        def turns_nan(self, x):
            calls.append(exact(self, x))
            return calls[-1] if len(calls) <= 21 else math.nan

        monkeypatch.setattr(Problem, "evaluate_noiseless", turns_nan)
        res = run_trial(TrialConfig(problem=problem, max_evals=10_000, seed=3))
        assert (res.termination, res.reason) == (TERM_NUMERICAL, "nonfinite_state")
        spec = EcdfSpec(n_targets=30)
        reached = spec.targets >= min(calls[:21])
        assert 0 < reached.sum() < spec.n_targets
        curve = ecdf_from_results([res], spec)
        assert curve.evals.size == reached.sum()
        assert res.best_noiseless_fm == min(calls[:21])


class TestSuite:
    def small_grid(self, trials=3):
        problem = make_problem("sphere", 5)
        return [
            TrialConfig(
                problem=problem,
                optimizer="lra",
                max_evals=20_000,
                target_f=1e-6,
                seed=derive_trial_seed(1, "sphere", 5, 0.0, "lra", k),
            )
            for k in range(trials)
        ]

    def test_single_config(self):
        results = list(run_suite(self.small_grid(trials=1)))
        assert len(results) == 1 and results[0].success

    def test_seed_derivation_is_stable(self):
        # frozen value: the documented scheme must never drift
        assert derive_trial_seed(1, "sphere", 10, 0.0, "lra", 0) == 2641197679543387175
        assert derive_trial_seed(1, "sphere", 10, 0.0, "lra", 1) != derive_trial_seed(
            1, "sphere", 10, 0.0, "lra", 0
        )

    def test_summarize_groups(self):
        configs = self.small_grid()
        results = list(run_suite(configs))
        rows = summarize(configs, results)
        assert len(rows) == 1
        row = rows[0]
        assert row["problem"] == "sphere" and row["n_trials"] == 3
        assert row["success_rate"] == 1.0
        assert row["sp1"] is not None

    def test_worker_pool_matches_serial_execution(self):
        configs = self.small_grid()
        serial = list(run_suite(configs, jobs=1))
        parallel = list(run_suite(configs, jobs=2))
        for a, b in zip(serial, parallel):
            assert a.termination == b.termination
            assert np.array_equal(a.history.data, b.history.data, equal_nan=True)

    def pool_sizes(self, monkeypatch, affinity, n_configs):
        """Sizes of the pools run_suite starts, at the default jobs, with the
        given affinity mask (None: no mask) and 64 CPUs."""
        # a fake pool records its size and runs nothing, so no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, configs, chunksize):
                return [None for _ in configs]

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        if affinity is None:
            monkeypatch.delattr("os.sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr("os.sched_getaffinity", lambda pid: affinity, raising=False)
        assert list(run_suite(self.small_grid(trials=n_configs))) == [None] * n_configs
        return sizes

    @pytest.mark.parametrize("affinity, expected", [({0, 3, 5}, 3), (None, 64)])
    def test_default_workers_follow_the_affinity_mask(self, monkeypatch, affinity, expected):
        # 64 configs, so that the cap of one worker per config does not bind
        assert self.pool_sizes(monkeypatch, affinity, n_configs=64) == [expected]

    def test_pool_has_no_more_workers_than_configs(self, monkeypatch):
        assert self.pool_sizes(monkeypatch, {0, 3, 5}, n_configs=2) == [2]

    def test_results_csv_schema(self, tmp_path):
        configs = self.small_grid(trials=2)
        results = list(run_suite(configs))
        path = tmp_path / "results.csv"
        write_results_csv(path, configs, results)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "problem,d,optimizer,eta_m,eta_sigma,noise_variance,seed,success,evals,termination"
        )
        assert len(lines) == 3
        assert lines[1].startswith("sphere,5,lra,,,0.0,")

    def test_history_csv_schema(self, tmp_path):
        res = list(run_suite(self.small_grid(trials=1)))[0]
        path = tmp_path / "history.csv"
        write_history_csv(path, res.history)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,evals,f_m,sigma,eta_m,eta_sigma,snr_m,snr_sigma,eig_min,eig_max"
        assert len(lines) == len(res.history) + 1

    def test_history_csv_writes_each_value_like_repr(self, tmp_path):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]
        history = History()
        for t in range(4):
            # a row is (t, evals, *the other columns)
            history.append((t, 10 * t, *(specials * 2)[t : t + len(HISTORY_COLUMNS) - 2]))
        expected = [",".join(HISTORY_CSV_COLUMNS)]
        for row in history.data:
            cells = []
            for c in HISTORY_CSV_COLUMNS:
                v = float(row[HISTORY_COLUMNS.index(c)])
                cells.append(str(int(v)) if c in ("t", "evals") else repr(v))
            expected.append(",".join(cells))
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")

    def test_ecdf_from_results(self):
        results = list(run_suite(self.small_grid()))
        spec = EcdfSpec(n_targets=10)
        curve = ecdf_from_results(results, spec)
        assert curve.n_pairs == 30
        assert curve.value_at(20_000) > 0
