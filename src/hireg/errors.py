"""Exception types shared across the package.

Pipeline-stage failures carry a ``stage`` attribute ("coarse" / "fine") when
raised from inside the end-to-end registration pipeline.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NoCorrespondenceError(RuntimeError):
    """Two clouds share no usable overlap under the given transform."""


class NoConsensusError(RuntimeError):
    """Robust estimation found no consensus set; carries best-effort stats."""

    stage: str | None = None

    def __init__(self, message: str, *, best_inliers: int = 0,
                 best_residual: float = float("nan"), iterations: int = 0):
        super().__init__(message)
        self.best_inliers = best_inliers
        self.best_residual = best_residual
        self.iterations = iterations


class DegenerateGeometryError(RuntimeError):
    """Point configuration does not constrain a rigid transform."""

    stage: str | None = None


class DegenerateBatchError(RuntimeError):
    """Every anchor in a sample batch had to be skipped."""


class DegenerateScoreError(RuntimeError):
    """All detection scores are zero; weighted sampling is undefined."""


class GenerationError(RuntimeError):
    """Synthetic scene generation could not satisfy its target."""
