"""Exception types shared across the package."""


class QuadalgError(Exception):
    """Base class for package errors."""


class DegenerateDenominator(QuadalgError):
    """rho(N) denominator vanishes for an in-range N; the offset u is invalid for this p."""


class NegativePhi(QuadalgError):
    """A structure-function value inside the representation window is negative."""


class NotPolynomialInEnergy(QuadalgError):
    """Structure constants whose structure function is not of degree <= 2 in E."""


class ImaginaryM(QuadalgError):
    """Radicand of an m-parameter is negative (unphysical channel)."""


class SignError(QuadalgError):
    """Parameter map applied to inputs with the wrong sign (no bound-state dual)."""


class FiberChartSingular(QuadalgError):
    """Fiber angles are undefined at this point (chart preconditions violated)."""


class SingularPoint(QuadalgError):
    """A divisor jet has zero constant term; resample the evaluation point."""


class PochhammerZero(QuadalgError):
    """A Pochhammer denominator term vanishes before the series terminates."""


class GridTooCoarse(QuadalgError):
    """Eigenvalue error estimate stays above target at the largest allowed grid."""


class NoRoot(QuadalgError):
    """A matching condition has no root: the channels carry no bound state."""


class ConfigError(QuadalgError):
    """Invalid CLI configuration; carries the offending field name."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"invalid configuration field: {field}")
