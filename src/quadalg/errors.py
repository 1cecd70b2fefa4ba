"""Exception types shared across the package."""


class QuadalgError(Exception):
    """Base class for package errors."""


class DegenerateDenominator(QuadalgError):
    """rho(N) denominator vanishes for an in-range N; the offset u is invalid for this p."""


class NegativePhi(QuadalgError):
    """A structure-function value inside the representation window is negative."""


class NotPolynomialInEnergy(QuadalgError):
    """Structure constants whose structure function is not of degree <= 2 in E."""


class SignError(QuadalgError):
    """Parameter map applied to inputs with the wrong sign (no bound-state dual)."""


class SingularPoint(QuadalgError):
    """A divisor jet has zero constant term; resample the evaluation point."""


class GridTooCoarse(QuadalgError):
    """Eigenvalue error estimate stays above target at the largest allowed grid."""


class NoRoot(QuadalgError):
    """A matching condition has no root: the channels carry no bound state."""


class ConfigError(QuadalgError):
    """Invalid CLI configuration; the message names the offending flag."""
