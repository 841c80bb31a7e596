"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: ConfigError -> 2 (a grid
spacing too coarse for the cores, ResolutionError, and a boundary flux with
net flux, CompatibilityError, included), ConvergenceError -> 3, I/O errors
-> 4.
"""


class VortexPatchError(Exception):
    """Base class for all package errors."""


class DomainError(VortexPatchError):
    """A point lies outside the domain (or outside an evaluation region)."""


class SingularityError(VortexPatchError):
    """Evaluation at a singular configuration, e.g. G(x, x)."""


class SolvabilityError(VortexPatchError):
    """A scalar or coupled system has no admissible root for these parameters."""


class ConvergenceError(VortexPatchError):
    """An iteration failed to converge; carries the best iterate if available."""

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


class ConfigError(VortexPatchError):
    """Invalid run configuration."""


class CompatibilityError(ConfigError):
    """Boundary flux with nonzero net integral, or similar data inconsistency."""


class ResolutionError(ConfigError):
    """Grid spacing too coarse for the requested core size: with
    points_per_core >= 4 only an explicit grid.h sets such a spacing."""
