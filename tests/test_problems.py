"""Tests for the benchmark objectives and the noise wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lracma.problems import (
    ACKLEY_BOUND,
    PROBLEM_NAMES,
    ackley,
    bohachevsky,
    ellipsoid,
    griewank,
    make_problem,
    rastrigin,
    rosenbrock,
    schaffer,
    sphere,
)

INIT_TABLE = {
    "sphere": (3.0, 2.0),
    "ellipsoid": (3.0, 2.0),
    "rosenbrock": (0.0, 0.1),
    "ackley": (15.5, 14.5),
    "schaffer": (55.0, 45.0),
    "rastrigin": (3.0, 2.0),
    "bohachevsky": (8.0, 7.0),
    "griewank": (305.0, 295.0),
}


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_optimum_evaluates_to_zero(name):
    problem = make_problem(name, 10)
    assert problem.evaluate_noiseless(problem.optimum) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_initial_distribution_table(name):
    m0, sigma0 = INIT_TABLE[name]
    problem = make_problem(name, 7)
    assert np.array_equal(problem.init_m, np.full(7, m0))
    assert problem.init_sigma == sigma0


def test_known_point_values():
    assert sphere(np.zeros(4)) == 0.0
    assert rosenbrock(np.ones(6)) == 0.0
    # integer lattice point: cos(2 pi) = 1, so 10*2 + (1-10) + (1-10) = 2
    assert rastrigin(np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-12)
    # condition number 1e6: unit moves along first/last axes
    e1 = np.zeros(10)
    e1[0] = 1.0
    ed = np.zeros(10)
    ed[-1] = 1.0
    assert ellipsoid(e1) == pytest.approx(1.0, rel=1e-12)
    assert ellipsoid(ed) == pytest.approx(1e6, rel=1e-12)
    assert griewank(np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
    assert bohachevsky(np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
    assert ackley(np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
    assert schaffer(np.zeros(5)) == 0.0


@given(arrays(float, 6, elements=st.floats(-100, 100)))
@settings(max_examples=100, deadline=None)
def test_schaffer_depends_only_on_squares(x):
    assert schaffer(x) == schaffer(np.abs(x))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_finite_at_benchmark_scales(name):
    problem = make_problem(name, 10)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1e4, 1e4, size=(64, 10))
    xs[0] = 1e4
    xs[1] = -1e4
    values = problem.fn(xs)
    assert np.all(np.isfinite(values))


def test_batch_matches_pointwise():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-5, 5, size=(32, 8))
    for name in PROBLEM_NAMES:
        problem = make_problem(name, 8)
        batch = problem.evaluate_population(xs)
        single = [problem.evaluate_noiseless(x) for x in xs]
        assert np.array_equal(batch, single)


class TestMakeProblem:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            make_problem("nosuch", 10)

    @pytest.mark.parametrize("name", ["schaffer", "rosenbrock", "bohachevsky", "ellipsoid"])
    def test_pairwise_functions_need_two_dimensions(self, name):
        with pytest.raises(ValueError):
            make_problem(name, 1)
        assert make_problem(name, 2).d == 2

    @pytest.mark.parametrize(
        "variance", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"]
    )
    def test_negative_noise_rejected(self, variance):
        with pytest.raises(ValueError):
            make_problem("sphere", 5, noise_variance=variance)

    def test_ackley_carries_bounds(self):
        problem = make_problem("ackley", 10, noise_variance=1.0)
        assert problem.noise_variance == 1.0
        lo, hi = problem.bounds
        assert np.array_equal(lo, np.full(10, -ACKLEY_BOUND))
        assert np.array_equal(hi, np.full(10, ACKLEY_BOUND))
        for name in set(PROBLEM_NAMES) - {"ackley"}:
            assert make_problem(name, 5).bounds is None

    def test_rosenbrock_optimum_is_ones(self):
        assert np.array_equal(make_problem("rosenbrock", 6).optimum, np.ones(6))

    def test_dimension_mismatch_on_evaluate(self):
        problem = make_problem("sphere", 5)
        with pytest.raises(ValueError):
            problem.evaluate_noiseless(np.zeros(4))
        with pytest.raises(ValueError):
            problem.evaluate_population(np.zeros((3, 4)))


class TestBounds:
    def test_evaluation_clips_outside_points(self):
        problem = make_problem("ackley", 4)
        outside = np.full(4, 100.0)
        clipped = np.full(4, ACKLEY_BOUND)
        assert problem.evaluate_noiseless(outside) == problem.evaluate_noiseless(clipped)

    def test_inside_points_are_untouched(self):
        problem = make_problem("ackley", 4)
        x = np.full(4, 3.25)
        assert problem.evaluate_noiseless(x) == float(ackley(x))


class TestNoise:
    def test_zero_variance_equals_noiseless(self):
        problem = make_problem("sphere", 5, noise_variance=0.0)
        rng = np.random.default_rng(0)
        x = np.full(5, 1.5)
        assert problem.evaluate_noisy(x, rng) == problem.evaluate_noiseless(x)
        # and the stream is untouched
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_noise_is_unbiased(self):
        # CLT oracle: mean of 1e5 noisy evaluations within 0.02 of the truth
        problem = make_problem("sphere", 3, noise_variance=1.0)
        x = np.full(3, 2.0)
        rng = np.random.default_rng(11)
        values = problem.evaluate_population(np.tile(x, (100_000, 1)), rng)
        assert values.mean() == pytest.approx(problem.evaluate_noiseless(x), abs=0.02)

    def test_strong_noise_variance(self):
        # sigma_n^2 = 1e6: sample variance of 1e5 draws within 5%
        problem = make_problem("sphere", 3, noise_variance=1e6)
        x = np.zeros(3)
        rng = np.random.default_rng(13)
        values = problem.evaluate_population(np.tile(x, (100_000, 1)), rng)
        assert values.var(ddof=1) == pytest.approx(1e6, rel=0.05)

    def test_block_draws_match_pointwise_draws(self):
        # one shared stream: population evaluation and per-point evaluation
        # consume identical variates in identical order
        problem = make_problem("rastrigin", 4, noise_variance=2.5)
        xs = np.random.default_rng(3).uniform(-4, 4, size=(10, 4))
        block = problem.evaluate_population(xs, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        pointwise = [problem.evaluate_noisy(x, rng) for x in xs]
        assert np.array_equal(block, pointwise)

    def test_noisy_requires_rng_for_population(self):
        problem = make_problem("sphere", 3, noise_variance=1.0)
        with pytest.raises(ValueError):
            problem.evaluate_population(np.zeros((2, 3)))
