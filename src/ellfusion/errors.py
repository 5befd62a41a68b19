"""Exception hierarchy shared by all modules.

Every numerical failure mode raises a subclass of :class:`ComputationError`,
so callers (and the CLI) can separate computational errors from usage errors.
"""


class ComputationError(Exception):
    """Base class for all numerical/structural failures in this package."""


class NonConvergent(ComputationError):
    """A series evaluation cannot converge (nome outside the unit interval)."""


class SingularDenominator(ComputationError):
    """A denominator bracket vanished within tolerance."""


class NotAStrip(ComputationError):
    """The pair (lam, nu) is not a vertical strip of partitions."""


class GenericityViolation(ComputationError):
    """The coupling sits too close to a resonance for direct evaluation."""


class TrackingAmbiguity(ComputationError):
    """An eigenvalue homotopy step could not be matched unambiguously."""


class GradingViolation(ComputationError):
    """The Z_n grading of the joint spectrum by the simple current failed a check."""


class IllConditioned(ComputationError):
    """The scales |c_lam| sqrt(Delta_lam) of the eigenbasis spread too far for a sound S-matrix."""


class DegenerateCombination(ComputationError):
    """A random operator combination had (near-)repeated eigenvalues."""


class NonIntegral(ComputationError):
    """A value expected to be an integer is not, within tolerance."""
