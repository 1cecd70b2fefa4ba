"""The R^8 -> R^5 x S^3 quadratic transformation, the Euler norm identity, and
the parameter duality between the 8D singular oscillator and the monopole
system. The spectra on either side of the duality are the catalog's printed
forms; `crosscheck ycm` sets them beside the pair oracle.

The printed first component of the base-space map omits three squares and
fails the Euler identity; the completed form is adopted (and verified by
euler_identity_residual), while the printed form stays available behind the
literal flag as a regression witness.
"""

from __future__ import annotations

import numpy as np

from ._record import Frozen, set_fields
from .catalog import Kepler5DParams, Oscillator8DParams
from .errors import SignError


class Point8(Frozen):
    __slots__ = ("u",)

    def __init__(self, u: tuple):
        if len(u) != 8:
            raise ValueError("need eight components")
        set_fields(self, u)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)


class Point5Fiber(Frozen):
    """A base point x and its fiber angles (alpha_T, beta_T, gamma_T), NaNs
    where the chart is singular."""

    __slots__ = ("x", "angles")

    def __init__(self, x: tuple, angles: tuple):
        set_fields(self, x, angles)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)


def _base_map(u: np.ndarray, literal_x0: bool) -> tuple:
    """Components x0..x4 of the base point of one point u (shape (8,)) or of
    each column of an (8, N) stack."""
    u = [u[j, ...] for j in range(8)]  # 0-d arrays for one point, not scalars
    x1 = 2 * (u[0] * u[4] - u[1] * u[5] - u[2] * u[6] - u[3] * u[7])
    x2 = 2 * (u[0] * u[5] + u[1] * u[4] - u[2] * u[7] + u[3] * u[6])
    x3 = 2 * (u[0] * u[6] + u[1] * u[7] + u[2] * u[4] - u[3] * u[5])
    x4 = 2 * (u[0] * u[7] - u[1] * u[6] + u[2] * u[5] + u[3] * u[4])
    if literal_x0:
        x0 = u[0] ** 2 + u[1] ** 2 + u[3] ** 2 - u[4] ** 2 - u[5] ** 2
    else:
        x0 = (u[0] ** 2 + u[1] ** 2 + u[2] ** 2 + u[3] ** 2
              - u[4] ** 2 - u[5] ** 2 - u[6] ** 2 - u[7] ** 2)
    return x0, x1, x2, x3, x4


def _squared_norm(v) -> np.ndarray:
    """Sum of squares of the components v[0], v[1], ..., added in that order,
    so that a column of a stack gets the bits of the single point."""
    total = v[0] * v[0]
    for row in v[1:]:
        total = total + row * row
    return total


def hurwitz_forward(p: Point8, literal_x0: bool = False) -> Point5Fiber:
    """Base point and fiber angles of the quadratic transformation.

    The fiber angles need u0^2 + u1^2 > 0 and u2^2 + u3^2 > 0; outside that
    chart the base point is still returned, with NaN angles.
    """
    u = p.array
    x = _base_map(u, literal_x0)
    a = u[0] + 1j * u[1]
    b = u[2] + 1j * u[3]
    if abs(a) == 0 or abs(b) == 0:
        angles = (np.nan, np.nan, np.nan)
    else:
        phi_a = np.angle(a)
        phi_b = np.angle(b)
        alpha = (phi_b - phi_a) % (2 * np.pi)
        beta = 2 * np.arctan(np.sqrt((u[0] ** 2 + u[1] ** 2) / (u[2] ** 2 + u[3] ** 2)))
        gamma = (phi_a + phi_b) % (4 * np.pi)
        angles = (float(alpha), float(beta), float(gamma))
    return Point5Fiber(x=tuple(float(v) for v in x), angles=angles)


def euler_identity_residual(p, literal_x0: bool = False):
    """|sum x_i^2 - (sum u_j^2)^2| / max(1, (sum u_j^2)^2).

    p is one point (a Point8 or 8 numbers; returns a float) or an (N, 8) array
    with one point per row (returns the N residuals).
    """
    u = p.array if isinstance(p, Point8) else np.asarray(p, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != 8:
        raise ValueError(f"need one point or an (N, 8) array, got shape {u.shape}")
    # one contiguous row per component; one point is a stack of one
    cols = np.ascontiguousarray(u.reshape(-1, 8).T)
    norm4 = _squared_norm(cols) ** 2
    res = np.abs(_squared_norm(_base_map(cols, literal_x0)) - norm4) / np.maximum(1.0, norm4)
    return float(res[0]) if u.ndim == 1 else res


class DualityMap(Frozen):
    """Parameter dictionary between the monopole system and its oscillator dual."""

    __slots__ = ("c0", "eps", "c1", "c2")

    def __init__(self, c0: float, eps: float, c1: float, c2: float):
        set_fields(self, c0, eps, c1, c2)

    @classmethod
    def forward(cls, energy: float, omega: float, lambda1: float, lambda2: float) -> "DualityMap":
        """Oscillator (E, omega, lambda_i) -> Coulomb-side (c0, eps, c_i).

        Raises SignError for E <= 0, then lets Oscillator8DParams refuse the
        oscillator's invalid couplings (ValueError).
        """
        if energy <= 0:
            raise SignError("oscillator energy must be positive")
        Oscillator8DParams(omega=omega, lambda1=lambda1, lambda2=lambda2)
        return cls(c0=energy / 4.0, eps=-(omega**2) / 8.0,
                   c1=2.0 * lambda1, c2=2.0 * lambda2)

    def inverse(self) -> tuple[float, float, float, float]:
        """Coulomb-side -> oscillator (E, omega, lambda1, lambda2).

        Raises SignError for eps >= 0, then lets Kepler5DParams refuse the
        Coulomb side's invalid couplings (ValueError).
        """
        if self.eps >= 0:
            raise SignError("no bound-state dual for eps >= 0")
        Kepler5DParams(c0=self.c0, c1=self.c1, c2=self.c2)
        return (4.0 * self.c0, float(np.sqrt(-8.0 * self.eps)),
                self.c1 / 2.0, self.c2 / 2.0)
