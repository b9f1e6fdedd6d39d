"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive trial
batches are shared through module-scoped fixtures; everything is seeded, so
repeated runs reproduce the same numbers bit for bit, and a last test hashes
the batches' results against ``BITS.json``'s ``acceptance`` digest for this
host's ``"<kernel>/<simd>"`` key, through ``test_bits.check_digest``.
Every test here carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the rest of the suite alone.
"""

import time

import numpy as np
import pytest

from lracma.core import (
    cma_candidate_update,
    default_strategy_params,
    rank_and_recombine,
    sample_population,
    update_paths,
)
from lracma.harness import (
    TrialConfig,
    run_suite,
    success_rate,
    write_history_csv,
    write_results_csv,
)
from lracma.lra import LraCmaEs, LraHyperParams, estimate_snr, update_snr_state
from lracma.problems import make_problem
from test_bits import FIXED_UNIT, check_digest, results_digest
from test_lra import sqrt_C

pytestmark = pytest.mark.acceptance

HP = LraHyperParams()


def report(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status} - {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


# The five seeded batches, all at d=10 with target 1e-8, in the order
# ``test_batches_match_recorded_digest`` hashes them against BITS.json's
# ``acceptance`` digest (``FIXED_UNIT`` is the fixed eta = 1 mode of
# test_bits' grid):
# name -> (problem, noise variance, optimizer settings, max_evals, seeds).
BATCHES = {
    "sphere_lra": ("sphere", 0.0, {}, 10**6, range(20)),
    "rastrigin_lra": ("rastrigin", 0.0, {}, 10**7, range(20)),
    "rastrigin_fixed": ("rastrigin", 0.0, FIXED_UNIT, 10**7, range(20)),
    "noisy_sphere_lra": ("sphere", 1.0, {}, 10**6, range(10)),
    "noisy_sphere_fixed": ("sphere", 1.0, FIXED_UNIT, 10**6, range(10)),
}


def batch_configs(name):
    """The trials of batch ``name``, in seed order."""
    problem, noise, settings, max_evals, seeds = BATCHES[name]
    problem = make_problem(problem, 10, noise)
    return [
        TrialConfig(problem=problem, max_evals=max_evals, target_f=1e-8, seed=s, **settings)
        for s in seeds
    ]


def timed_serial(name):
    """Batch ``name``'s results, run in this process, and their wall time."""
    configs = batch_configs(name)
    start = time.perf_counter()
    results = list(run_suite(configs, jobs=1))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def sphere_lra():
    return timed_serial("sphere_lra")


@pytest.fixture(scope="module")
def rastrigin_lra():
    return timed_serial("rastrigin_lra")


# untimed batches run on every usable CPU; each trial has its own seed, so
# the results are those of a serial run
@pytest.fixture(scope="module")
def rastrigin_fixed():
    return list(run_suite(batch_configs("rastrigin_fixed")))


@pytest.fixture(scope="module")
def noisy_sphere():
    lra, fixed = batch_configs("noisy_sphere_lra"), batch_configs("noisy_sphere_fixed")
    results = list(run_suite(lra + fixed))
    return results[: len(lra)], results[len(lra) :]


@pytest.fixture(scope="module")
def batch_results(sphere_lra, rastrigin_lra, rastrigin_fixed, noisy_sphere):
    """Each batch's results, in ``BATCHES`` order."""
    return [sphere_lra[0], rastrigin_lra[0], rastrigin_fixed, *noisy_sphere]


def test_criterion_1_sphere_success_rate(sphere_lra):
    results, elapsed = sphere_lra
    rate = success_rate(results)
    ok = rate == 1.0 and elapsed < 300
    report(
        1,
        "noiseless Sphere d=10, 20 seeds, target 1e-8 within 1e6 evals",
        ok,
        f"success rate {rate:.2f}, {elapsed:.0f}s",
    )


def test_criterion_2_rastrigin_lra_success_rate(rastrigin_lra):
    assert default_strategy_params(10).lam == 10  # default population size
    results, elapsed = rastrigin_lra
    rate = success_rate(results)
    ok = rate >= 0.9 and elapsed < 1800
    report(
        2,
        "noiseless Rastrigin d=10, adaptive eta, default lambda=10",
        ok,
        f"success rate {rate:.2f}, {elapsed:.0f}s",
    )


def test_criterion_3_rastrigin_fixed_is_worse(rastrigin_lra, rastrigin_fixed):
    lra_results, _ = rastrigin_lra
    lra_rate = success_rate(lra_results)
    fixed_rate = success_rate(rastrigin_fixed)
    ok = fixed_rate < lra_rate
    report(
        3,
        "Rastrigin: fixed eta=1 strictly below the adaptive rate",
        ok,
        f"fixed {fixed_rate:.2f} vs adaptive {lra_rate:.2f}",
    )


def test_criterion_4_noisy_sphere_median_gap(noisy_sphere):
    lra_results, fixed_results = noisy_sphere
    lra_median = float(np.median([r.best_noiseless_fm for r in lra_results]))
    fixed_median = float(np.median([r.best_noiseless_fm for r in fixed_results]))
    ok = lra_median * 10 <= fixed_median
    report(
        4,
        "noisy Sphere (var 1): adaptive at least 10x better median f(m)",
        ok,
        f"adaptive median {lra_median:.3e}, fixed median {fixed_median:.3e}",
    )


def test_criterion_5_snr_estimator_oracle():
    start = time.perf_counter()
    beta, d = 0.1, 5
    mu = np.zeros(d)
    mu[0] = 1.0
    rng = np.random.default_rng(123)
    E, V = np.zeros(d), 0.0
    for _ in range(int(50 / beta)):
        E, V = update_snr_state(E, V, mu + rng.standard_normal(d), beta)
    n = 10_000
    snr_sum = 0.0
    signal_sum = 0.0
    for _ in range(n):
        E, V = update_snr_state(E, V, mu + rng.standard_normal(d), beta)
        snr_sum += estimate_snr(E, V, beta)
        e2 = float(E @ E)
        signal_sum += (2 - beta) / (2 - 2 * beta) * e2 - beta / (2 - 2 * beta) * V
    elapsed = time.perf_counter() - start
    snr_avg = snr_sum / n
    signal_avg = signal_sum / n
    ok = (
        abs(snr_avg - 1 / d) <= 0.10 * (1 / d)
        and abs(signal_avg - 1.0) <= 0.10
        and elapsed < 1.0
    )
    report(
        5,
        "SNR and signal estimators on an i.i.d. N(mu, I) stream",
        ok,
        f"snr {snr_avg:.4f} (true {1/d}), signal {signal_avg:.4f} (true 1), {elapsed:.2f}s",
    )


def test_criterion_6_moving_average_distribution():
    beta, d, replicas, steps = 0.1, 5, 200, 400
    mu = np.zeros(d)
    mu[0] = 1.0
    rng = np.random.default_rng(5)
    finals = np.empty((replicas, d))
    for k in range(replicas):
        E, V = np.zeros(d), 0.0
        for _ in range(steps):
            E, V = update_snr_state(E, V, mu + rng.standard_normal(d), beta)
        finals[k] = E
    trace = float(np.trace(np.cov(finals.T)))
    expected = beta / (2 - beta) * d
    ok = abs(trace - expected) <= 0.10 * expected
    report(
        6,
        "moving-average covariance trace across 200 replicas",
        ok,
        f"trace {trace:.4f} vs {expected:.4f}",
    )


def test_criterion_7_structural_invariants(batch_results):
    violations = 0
    rows = 0
    for results in batch_results:
        for res in results:
            h = res.history
            rows += len(h)
            for col, beta in (("eta_m", HP.beta_m), ("eta_sigma", HP.beta_sigma)):
                eta = h.column(col)
                violations += int(np.any((eta <= 0) | (eta > 1)))
                step = np.abs(np.log(eta[1:] / eta[:-1]))
                bound = np.minimum(HP.gamma * eta[:-1], beta) + 1e-12
                violations += int(np.any(step > bound))
            violations += int(np.any(np.abs(h.column("det_c") - 1.0) > 1e-9))
            violations += int(np.any(h.column("eig_min") <= 0))
            violations += int(np.any(h.column("sigma") <= 0))
    ok = violations == 0
    report(
        7,
        "eta bounds, damping bound, det(C)=1, SPD on every recorded step",
        ok,
        f"{violations} violations over {rows} recorded steps",
    )


def test_criterion_8_reduction_to_plain_cma():
    problem = make_problem("sphere", 5)
    opt = LraCmaEs(problem.init_m, problem.init_sigma, lr_mode="plain", seed=11)
    sp = opt.strategy

    rng = np.random.default_rng(11)
    m, sigma, C = problem.init_m.astype(float), problem.init_sigma, np.eye(5)
    p_sigma, p_c, t = np.zeros(5), np.zeros(5), 0
    exact = True
    for _ in range(100):
        xs = opt.ask()
        opt.tell(problem.evaluate_population(xs))

        x, y, z = sample_population(m, sigma, sqrt_C(*np.linalg.eigh(C)), sp, rng)
        dy, dz, y_best = rank_and_recombine(y, z, problem.evaluate_population(x), sp)
        p_sigma, p_c, h_sigma, norm2 = update_paths(p_sigma, p_c, t, dy, dz, sp)
        t += 1
        m, sigma, C = cma_candidate_update(m, sigma, C, norm2, p_c, h_sigma, dy, y_best, sp)

        exact = (
            exact
            and np.array_equal(opt.mean, m)
            and opt.sigma == sigma
            and np.array_equal(opt.C, C)
        )
    report(
        8,
        "eta pinned to 1 with no re-split reproduces plain CMA-ES bitwise",
        exact,
        "100 generations on Sphere d=5, (m, sigma, C) identical",
    )


def test_criterion_9_noisy_eta_sigma_decay(noisy_sphere):
    # the designated typical-run trace: first seed of the criterion-4 batch
    lra_results, _ = noisy_sphere
    h = lra_results[0].history
    evals = h.column("evals")
    eta_sigma = h.column("eta_sigma")
    at_1e4 = eta_sigma[np.searchsorted(evals, 1e4)]
    at_end = eta_sigma[-1]
    ratio = at_1e4 / at_end
    ok = ratio >= 10.0
    report(
        9,
        "noisy Sphere: eta_sigma ends at least 10x below its value at 1e4 evals",
        ok,
        f"eta_sigma {at_1e4:.4f} at 1e4 evals, {at_end:.5f} at the end, ratio {ratio:.1f}",
    )


def test_criterion_10_byte_identical_reruns(sphere_lra, tmp_path):
    configs = batch_configs("sphere_lra")
    digests = []
    for tag, results in (("fixture", sphere_lra[0]), ("rerun", list(run_suite(configs, jobs=1)))):
        out = tmp_path / tag
        out.mkdir()
        write_results_csv(out / "results.csv", configs, results)
        blob = (out / "results.csv").read_bytes()
        for i, res in enumerate(results):
            write_history_csv(out / f"history_{i}.csv", res.history)
            blob += (out / f"history_{i}.csv").read_bytes()
        digests.append(blob)
    ok = digests[0] == digests[1]
    report(
        10,
        "identical seeds give byte-identical CSV artifacts",
        ok,
        f"{len(configs)} trials, results + histories compared",
    )


def test_batches_match_recorded_digest(batch_results):
    """Compared whenever BITS.json records this host's ``<kernel>/<simd>`` key."""
    digest = results_digest(res for results in batch_results for res in results)
    check_digest("acceptance", digest)
