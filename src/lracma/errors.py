"""Exception types shared across the package.

A numerical failure is one type, `NumericalError`; its ``reason`` code says
what failed, so there is no subclass per failure.
"""


class NumericalError(RuntimeError):
    """Optimizer state became numerically unusable.

    Carries a machine-readable ``reason`` code so the harness can record why
    a trial was aborted.  Known codes: ``nonfinite_state``, ``eigh_failed``,
    ``singular_metric`` (the Fisher metric cannot be inverted: an eigenvalue
    at or below the floor), ``nonpositive_determinant``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class InvalidFitnessError(ValueError):
    """Non-finite fitness values were passed to a ranking operation."""
