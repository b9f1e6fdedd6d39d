"""CMA-ES with signal-to-noise-driven learning-rate adaptation.

The optimizer (`LraCmaEs`) scales the mean and covariance updates of the
plain CMA-ES by adaptive learning-rate factors so that the default population
size copes with multimodal and noisy objectives.  `lracma.problems` provides
the benchmark suite, `lracma.harness` the seeded trial runner and metrics,
and the ``lracma`` command line drives runs, suites, and sweeps.
"""

__version__ = "0.1.0"

from .core import StrategyParams, default_strategy_params
from .errors import InvalidFitnessError, NumericalError
from .harness import (
    EcdfCurve,
    EcdfSpec,
    TrialConfig,
    TrialResult,
    ecdf,
    ecdf_from_results,
    run_suite,
    run_trial,
    sp1,
    success_rate,
)
from .lra import IterationStats, LraCmaEs, LraHyperParams
from .problems import PROBLEM_NAMES, Problem, make_problem

__all__ = [
    "EcdfCurve",
    "EcdfSpec",
    "InvalidFitnessError",
    "IterationStats",
    "LraCmaEs",
    "LraHyperParams",
    "NumericalError",
    "PROBLEM_NAMES",
    "Problem",
    "StrategyParams",
    "TrialConfig",
    "TrialResult",
    "default_strategy_params",
    "ecdf",
    "ecdf_from_results",
    "make_problem",
    "run_suite",
    "run_trial",
    "sp1",
    "success_rate",
    "__version__",
]
