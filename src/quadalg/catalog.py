"""The three concrete systems: parameters, structure constants, structure
functions, m-parameters and closed-form spectra, transcribed as printed.

Every closed-form operation here is a pure evaluation of a printed formula.
Each quadratic algebra is written once, as PrintedAlgebra rows that the
operator closures check and the Fock side reads at an energy. Internal
inconsistencies among those formulas (they exist; several are adjudicated
elsewhere in this package) are deliberately NOT corrected here: the catalog
is the transcription layer, the oracles decide.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import Callable, Optional

import numpy as np

from .algebra import (
    PhiFamily,
    QuadraticAlgebraConstants,
    RepresentationCandidate,
    StructureFunction,
    check_fock,
    fit_relation_constants,
    general_phi_leading_coefficient,
)
from ._record import Frozen, set_fields
from .errors import DegenerateDenominator, NegativePhi

KEPLER_PHI_PREFACTOR = 6191456          # as printed in the pre-substitution factored form
KEPLER_PHI_PREFACTOR_SUBST = 6291456    # as printed in the post-substitution form (= 3 * 2**21)
OSC_PHI_PREFACTOR = 3 * 2**22
OSC_PHI_PREFACTOR_SUBST = 3 * 2**19


def _require_finite(params) -> None:
    """Name the first NaN or infinite number field; both pass the sign checks."""
    for name in type(params).__slots__:
        value = getattr(params, name)
        if isinstance(value, (int, float)) and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class Kepler5DParams(Frozen):
    """Generalized 5D Kepler couplings and the so(4) Casimir eigenvalue l."""

    system = "kepler5d"
    __slots__ = ("c0", "c1", "c2", "hbar", "l")

    def __init__(self, c0: float = 1.0, c1: float = 0.0, c2: float = 0.0,
                 hbar: float = 1.0, l: float = 0.0):
        set_fields(self, c0, c1, c2, hbar, l)
        _require_finite(self)
        if c0 <= 0:
            raise ValueError("c0 must be positive")
        if c1 < 0 or c2 < 0:
            raise ValueError("c1 and c2 are non-negative")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        if l < 0:
            raise ValueError("Casimir label l is non-negative")


class Oscillator8DParams(Frozen):
    """8D singular oscillator: frequency, singular strengths, Casimir labels j, k."""

    system = "osc8d"
    __slots__ = ("omega", "lambda1", "lambda2", "hbar", "j", "k")

    def __init__(self, omega: float = 1.0, lambda1: float = 0.0, lambda2: float = 0.0,
                 hbar: float = 1.0, j: float = 0.0, k: float = 0.0):
        set_fields(self, omega, lambda1, lambda2, hbar, j, k)
        _require_finite(self)
        if omega <= 0:
            raise ValueError("omega must be positive")
        if lambda1 < 0 or lambda2 < 0:
            raise ValueError("singular strengths must be non-negative")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        if j < 0 or k < 0:
            raise ValueError("Casimir labels j, k are non-negative")


class YCMParams(Frozen):
    """Generalized Yang-Coulomb monopole: Kepler couplings plus su(2) isospin T
    and the (J, L) labels of the parabolic channel."""

    __slots__ = ("kepler", "T", "J", "L")

    def __init__(self, kepler: Optional[Kepler5DParams] = None, T: float = 0.0,
                 J: float = 0.0, L: float = 0.0):
        set_fields(self, Kepler5DParams() if kepler is None else kepler, T, J, L)
        _require_finite(self)
        if T < 0 or round(2 * T) != 2 * T:
            raise ValueError("T must be a non-negative half-integer")
        if L < 0:
            raise ValueError("Casimir label L is non-negative")
        if not (abs(L - T) <= J <= L + T + 1e-12):
            raise ValueError("J must satisfy |L - T| <= J <= L + T")


class SpectrumRecord(Frozen):
    """One spectrum evaluation with its provenance and side-by-side m-values."""

    __slots__ = ("system", "quantum_numbers", "energy", "provenance", "m_printed",
                 "m_indicial")

    def __init__(self, system: str, quantum_numbers: dict, energy: float, provenance: str,
                 m_printed: Optional[tuple] = None, m_indicial: Optional[tuple] = None):
        if provenance not in ("algebraic", "duality"):
            raise ValueError(f"unknown provenance {provenance!r}")
        if system in ("kepler5d", "ycm") and not energy < 0:
            raise ValueError("Kepler-type bound states need energy < 0")
        if system == "osc8d" and not energy > 0:
            raise ValueError("oscillator spectra need energy > 0")
        set_fields(self, system, quantum_numbers, energy, provenance, m_printed, m_indicial)


class PrintedAlgebra(Frozen):
    """A quadratic algebra as printed: (name, word, printed coefficient) rows of
    [A,C], [B,C] and the Casimir value, in printed order. A word is a tuple of
    letters multiplied left to right, "A", "B", "{A,B}", "H" and the Casimirs
    that labels maps to their eigenvalues; () stands for 1. The operator
    closures check these rows, and at_energy reads them with H = E."""

    __slots__ = ("ac", "bc", "casimir", "labels")

    def __init__(self, ac: tuple, bc: tuple, casimir: tuple, labels: dict):
        set_fields(self, ac, bc, casimir, labels)

    def split(self) -> tuple:
        """(gamma, epsilon, zeta rows, d rows, z rows) of the deformed-oscillator
        form: gamma is the {A,B} row and epsilon the B row of [A,C], zeta its
        other rows; d holds the [B,C] rows ending in A, that A dropped, and z
        the rest but B^2, whose coefficient the form fixes to -gamma."""
        coef = {word: c for _, word, c in self.ac}
        zeta = tuple(r for r in self.ac if r[1] not in (("{A,B}",), ("B",)))
        d = tuple((n, w[:-1], c) for n, w, c in self.bc if w[-1:] == ("A",))
        z = tuple(r for r in self.bc if r[1][-1:] != ("A",) and r[1] != ("B", "B"))
        return coef[("{A,B}",)], coef[("B",)], zeta, d, z

    @property
    def gamma(self) -> float:
        return self.split()[0]

    def at_energy(self, energy: float) -> QuadraticAlgebraConstants:
        values = {"H": energy, **self.labels}

        def total(rows):
            return reduce(add, (reduce(mul, (values[w] for w in word), c) for _, word, c in rows))

        gamma, epsilon, zeta, d, z = self.split()
        return QuadraticAlgebraConstants(gamma, epsilon, total(zeta), total(d), total(z),
                                         total(self.casimir))


# --------------------------------------------------------------------------
# generalized 5D Kepler
# --------------------------------------------------------------------------

def kepler5d_constants(p: Kepler5DParams) -> PrintedAlgebra:
    """The printed generalized 5D Kepler quadratic algebra; L2 is the so(4) Casimir."""
    h2 = p.hbar**2
    h4 = h2 * h2
    c0, c1, c2 = p.c0, p.c1, p.c2
    return PrintedAlgebra(
        ac=(("anti{A,B}", ("{A,B}",), 2 * h2),
            ("B", ("B",), 8 * h4),
            ("1", (), -4 * (c1 - c2) * h2 * c0)),
        bc=(("B^2", ("B", "B"), -2 * h2),
            ("HA", ("H", "A"), 8 * h2),
            ("L2H", ("L2", "H"), -4 * h2),
            ("H", ("H",), 16 * h4 - 8 * h2 * (c1 + c2)),
            ("1", (), 2 * h2 * c0**2)),
        casimir=(("HL2", ("H", "L2"), 16 * h4),
                 ("H", ("H",), -8 * h2 * (c1 - c2) ** 2 + 32 * (c1 + c2) * h4 - 32 * h4 * h2),
                 ("L2", ("L2",), 4 * h2 * c0**2),
                 ("1", (), 8 * h2 * (c1 + c2) * c0**2 - 4 * h4 * c0**2)),
        labels={"L2": p.l})


def kepler5d_m_parameters(p: Kepler5DParams) -> tuple[float, float]:
    """Positive-branch m parameters, hbar^2 m_i^2 = 16 c_i + 4 l + 4 hbar^2,
    real because Kepler5DParams refuses a negative c_i or l."""
    m1, m2 = (float(np.sqrt(16 * c + 4 * p.l + 4 * p.hbar**2) / p.hbar) for c in (p.c1, p.c2))
    return m1, m2


def _coulomb_energy(c0: float, hbar: float, q):
    """The factor-2 Kepler energy -c0^2 / (2 hbar^2 q^2) at principal number q."""
    return -c0**2 / (2 * hbar**2 * q**2)


def _coulomb_q(p: Kepler5DParams, energy: float) -> float:
    if energy >= 0:
        raise ValueError("bound-state energy must be negative")
    return p.c0 / (np.sqrt(-2 * energy) * p.hbar)


def kepler5d_phi_family(p: Kepler5DParams) -> PhiFamily:
    """Pre-substitution factored structure function, roots parametrized by energy,
    with its printed prefactor."""
    m1, m2 = kepler5d_m_parameters(p)

    def roots_of(energy):
        q = _coulomb_q(p, energy)
        return np.array([(1 - m1 - m2) / 2, (1 - m1 + m2) / 2, (1 + m1 - m2) / 2,
                         (1 + m1 + m2) / 2, 0.5 - q, 0.5 + q])

    def scale_of(energy):
        return KEPLER_PHI_PREFACTOR * energy * p.hbar**18

    return PhiFamily(roots_of=roots_of, scale_of=scale_of)


def _closed_form(spectrum: Callable[[int], SpectrumRecord], u_of: Callable[[float], float],
                 m: tuple, positive_scale: float) -> Callable[[int], RepresentationCandidate]:
    """Printed closed-form (u, E) per dimension, with the post-substitution
    window form of Phi attached: zeros pinned at 0 and p+1, on the printed m.

    The window form is written with five reversed factors (root - x), so the
    stored signed leading coefficient is the negative of the printed positive
    prefactor.
    """
    m1, m2 = m

    def build(rep_p: int) -> RepresentationCandidate:
        energy = spectrum(rep_p).energy
        roots = (0.0, rep_p + 1.0, rep_p + 1.0 + m1, rep_p + 1.0 + m2,
                 rep_p + 1.0 + m1 + m2, 2.0 * rep_p + 2.0 + m1 + m2)
        sf = StructureFunction(roots=roots, scale=-positive_scale)
        window = sf(np.arange(1, rep_p + 1, dtype=float)) if rep_p >= 1 else np.empty(0)
        return RepresentationCandidate(p=rep_p, u=float(u_of(energy)), energy=float(energy),
                                       phi_values=tuple(float(v) for v in window), sf=sf)

    return build


def kepler5d_energy(c0: float, hbar: float, rep_p: int, m1: float, m2: float) -> float:
    """Printed closed-form energy, E = -c0^2 / (hbar^2 (p+1+(m1+m2)/2)^2).

    The printed denominator lacks the factor 2 carried by the parabolic and
    duality spectra; the ODE cross-check adjudicates it.
    """
    return -c0**2 / (hbar**2 * (rep_p + 1 + (m1 + m2) / 2) ** 2)


def kepler5d_spectrum(p: Kepler5DParams, rep_p: int) -> SpectrumRecord:
    """kepler5d_energy at the printed m parameters."""
    if rep_p < 0:
        raise ValueError("rep_p must be nonnegative")
    m1, m2 = kepler5d_m_parameters(p)
    energy = kepler5d_energy(p.c0, p.hbar, rep_p, m1, m2)
    return SpectrumRecord(
        system="kepler5d",
        quantum_numbers={"p": rep_p, "m1": m1, "m2": m2, "l": p.l},
        energy=float(energy),
        provenance="algebraic",
        m_printed=(m1, m2),
    )


def kepler5d_closed_form(p: Kepler5DParams) -> Callable[[int], RepresentationCandidate]:
    """Printed closed-form (u, E) per dimension, u = 1/2 + q(E), with the
    window-form Phi attached."""
    return _closed_form(lambda rep_p: kepler5d_spectrum(p, rep_p),
                        lambda energy: 0.5 + _coulomb_q(p, energy), kepler5d_m_parameters(p),
                        KEPLER_PHI_PREFACTOR_SUBST * p.hbar**16 * p.c0**2)


def kepler5d_energy_window(p: Kepler5DParams, p_max: int) -> tuple[float, float]:
    """Bound-state energies E = -c0^2 / (2 hbar^2 q^2) with 0.02 <= q <= p_max + 3 + m1 + m2,
    which hold every representation of dimension up to p_max + 1."""
    m1, m2 = kepler5d_m_parameters(p)
    lo, hi = _coulomb_energy(p.c0, p.hbar, np.array([0.02, p_max + 3 + m1 + m2]))
    return float(lo), float(hi)


# --------------------------------------------------------------------------
# 8D singular oscillator
# --------------------------------------------------------------------------

def osc8d_constants(p: Oscillator8DParams) -> PrintedAlgebra:
    """The printed 8D singular-oscillator quadratic algebra; J2 and K2 are the
    two so(4) Casimirs."""
    h2 = p.hbar**2
    om2 = p.omega**2
    l1, l2 = p.lambda1, p.lambda2
    return PrintedAlgebra(
        ac=(("anti{A,B}", ("{A,B}",), 2.0),
            ("B", ("B",), 8.0),
            ("J2H", ("J2", "H"), 1.0),
            ("K2H", ("K2", "H"), -1.0),
            ("H", ("H",), -2 * (l1 - l2) / h2),
            ("1", (), 0.0)),
        bc=(("B^2", ("B", "B"), 4 * h2),
            ("H^2", ("H", "H"), 2.0),
            ("A", ("A",), -16 * h2 * om2),
            ("J2", ("J2",), -4 * h2 * om2),
            ("K2", ("K2",), -4 * h2 * om2),
            ("1", (), 8 * (l1 + l2 - 4 * h2) * om2)),
        casimir=(("J2H^2", ("J2", "H", "H"), -2),
                 ("K2H^2", ("K2", "H", "H"), -2),
                 ("H^2", ("H", "H"), 4 * (l1 + l2 - h2) * om2 / h2),
                 ("J2^2", ("J2", "J2"), h2 * om2),
                 ("K2^2", ("K2", "K2"), -h2 * om2),
                 ("J2K2", ("J2", "K2"), -2 * h2 * om2),
                 ("J2", ("J2",), -4 * (l1 - l2 - 4 * h2) * om2),
                 ("K2", ("K2",), 4 * (l1 - l2 + 4 * h2) * om2),
                 ("1", (), 4 * ((l1 - l2) ** 2 - 8 * (l1 + l2) * h2 + 16 * h2 * h2) * om2 / h2)),
        labels={"J2": p.j, "K2": p.k})


def osc8d_m_parameters(p: Oscillator8DParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """(printed, indicial) m pairs.

    The printed relation is linear, hbar^2 m_i = hbar^2 j^2 + 2 lambda_i + hbar^2.
    The indicial pair takes the square root of the same expression, which is the
    value the radial ODE oracle supports; both are carried side by side.
    """
    h2 = p.hbar**2
    lin1 = p.j**2 + 2 * p.lambda1 / h2 + 1
    lin2 = p.k**2 + 2 * p.lambda2 / h2 + 1
    printed = (float(lin1), float(lin2))
    indicial = (float(np.sqrt(lin1)), float(np.sqrt(lin2)))
    return printed, indicial


def osc8d_phi_family(p: Oscillator8DParams) -> PhiFamily:
    """Pre-substitution factored structure function for the oscillator, on the
    printed m parameters.

    With the printed positive prefactor the factored product is negative on the
    bound window; the sign is flipped so unitary windows are positive.
    """
    (m1, m2), _ = osc8d_m_parameters(p)
    scale = -(OSC_PHI_PREFACTOR * p.omega**2)

    def roots_of(energy):
        qq = energy / (2 * p.omega * p.hbar)
        return np.array([0.5 - qq, 0.5 + qq, 0.5 - (m1 + m2) / 2, 0.5 - (m1 - m2) / 2,
                         0.5 + (m1 - m2) / 2, 0.5 + (m1 + m2) / 2])

    def scale_of(energy):
        return scale

    return PhiFamily(roots_of=roots_of, scale_of=scale_of)


def osc8d_energy(omega: float, hbar: float, rep_p: int, m1: float, m2: float) -> float:
    """Printed closed-form energy, E = 2 omega hbar (p+1+(m1+m2)/2)."""
    return 2 * omega * hbar * (rep_p + 1 + (m1 + m2) / 2)


def osc8d_spectrum(p: Oscillator8DParams, rep_p: int) -> SpectrumRecord:
    """osc8d_energy at the printed m parameters."""
    if rep_p < 0:
        raise ValueError("rep_p must be nonnegative")
    printed, indicial = osc8d_m_parameters(p)
    energy = osc8d_energy(p.omega, p.hbar, rep_p, *printed)
    return SpectrumRecord(
        system="osc8d",
        quantum_numbers={"p": rep_p, "j": p.j, "k": p.k},
        energy=float(energy),
        provenance="algebraic",
        m_printed=printed,
        m_indicial=indicial,
    )


def osc8d_closed_form(p: Oscillator8DParams) -> Callable[[int], RepresentationCandidate]:
    """Printed closed-form (u, E) per dimension, u = 1/2 - E / (2 omega hbar),
    with the window-form Phi attached on the printed m parameters."""
    return _closed_form(lambda rep_p: osc8d_spectrum(p, rep_p),
                        lambda energy: 0.5 - energy / (2 * p.omega * p.hbar),
                        osc8d_m_parameters(p)[0], OSC_PHI_PREFACTOR_SUBST * p.omega**2)


def osc8d_energy_window(p: Oscillator8DParams, p_max: int) -> tuple[float, float]:
    """Energies 2 omega hbar q with 0.025 <= q <= p_max + 3 + m1 + m2 (printed m)."""
    printed, _ = osc8d_m_parameters(p)
    hi = 2 * p.omega * p.hbar * (p_max + 3 + printed[0] + printed[1])
    return float(0.05 * p.omega * p.hbar), float(hi)


# --------------------------------------------------------------------------
# generalized Yang-Coulomb monopole
# --------------------------------------------------------------------------

def ycm_parabolic_s_parameters(p: YCMParams) -> tuple[float, float]:
    """Printed parabolic-channel parameters s1 = 4(J(J+1)-2c1), s2 = 4(L(L+1)-2c2)."""
    s1 = 4 * (p.J * (p.J + 1) - 2 * p.kepler.c1)
    s2 = 4 * (p.L * (p.L + 1) - 2 * p.kepler.c2)
    return float(s1), float(s2)


def ycm_parabolic_energy(c0: float, hbar: float, n1: int, n2: int, s1: float,
                         s2: float) -> float:
    """Printed parabolic spectrum, eps = -c0^2 / (2 hbar^2 (n1+n2+s1+s2+1)^2)."""
    return _coulomb_energy(c0, hbar, n1 + n2 + (s1 + s2 + 1))


def ycm_spectrum_parabolic(p: YCMParams, n1: int, n2: int) -> SpectrumRecord:
    """ycm_parabolic_energy at the printed channel parameters."""
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be nonnegative")
    s1, s2 = ycm_parabolic_s_parameters(p)
    energy = ycm_parabolic_energy(p.kepler.c0, p.kepler.hbar, n1, n2, s1, s2)
    return SpectrumRecord(
        system="ycm",
        quantum_numbers={"n1": n1, "n2": n2, "s1": s1, "s2": s2, "T": p.T},
        energy=float(energy),
        provenance="algebraic",
    )


def ycm_dual_oscillator(p: YCMParams) -> Oscillator8DParams:
    """Oscillator parameters under the duality map lambda_i = c_i / 2."""
    kp = p.kepler
    return Oscillator8DParams(omega=1.0, lambda1=kp.c1 / 2, lambda2=kp.c2 / 2,
                              hbar=kp.hbar, j=p.J, k=p.L)


def ycm_duality_energy(c0: float, hbar: float, rep_p: int, m1: float, m2: float) -> float:
    """Spectrum re-derived through the oscillator dual,
    eps = -c0^2 / (2 hbar^2 (p+1+(m1+m2)/2)^2)."""
    return _coulomb_energy(c0, hbar, rep_p + 1 + (m1 + m2) / 2)


def ycm_spectrum_duality(p: YCMParams, rep_p: int) -> SpectrumRecord:
    """ycm_duality_energy at the dual oscillator's printed m parameters."""
    if rep_p < 0:
        raise ValueError("rep_p must be nonnegative")
    printed, indicial = osc8d_m_parameters(ycm_dual_oscillator(p))
    energy = ycm_duality_energy(p.kepler.c0, p.kepler.hbar, rep_p, *printed)
    return SpectrumRecord(
        system="ycm",
        quantum_numbers={"p": rep_p, "J": p.J, "L": p.L, "T": p.T},
        energy=float(energy),
        provenance="duality",
        m_printed=printed,
        m_indicial=indicial,
    )


# --------------------------------------------------------------------------
# Fock-side convention adjudication
# --------------------------------------------------------------------------

class ConventionResult(Frozen):
    """Residuals of one (rho reading, (u,E) source, constants source) assignment."""

    __slots__ = ("name", "u", "energy", "r_ac", "r_bc", "jacobi", "casimir_value",
                 "casimir_expected")

    def __init__(self, name: str, u: float, energy: float, r_ac: float, r_bc: float,
                 jacobi: float, casimir_value: float, casimir_expected: float):
        set_fields(self, name, u, energy, r_ac, r_bc, jacobi, casimir_value, casimir_expected)


def fock_side(params, p_max: int) -> tuple:
    """(printed algebra, closed form per dimension, pre-substitution family,
    energy window up to dimension p_max + 1) of the system params belongs to.

    The catalog functions are looked up when called, so a wrapper set on this
    module's attribute sees every call.
    """
    if isinstance(params, Kepler5DParams):
        return (kepler5d_constants(params), kepler5d_closed_form(params),
                kepler5d_phi_family(params), kepler5d_energy_window(params, p_max))
    if isinstance(params, Oscillator8DParams):
        return (osc8d_constants(params), osc8d_closed_form(params),
                osc8d_phi_family(params), osc8d_energy_window(params, p_max))
    raise ValueError(f"no quadratic algebra is declared for {type(params).__name__}")


def _consistent_pair(params, rep_p: int) -> tuple[float, float]:
    """(u, E) solving both endpoint constraints of the factored family exactly:
    for Kepler the factor-2 energy of the duality spectrum, for the oscillator
    its printed one."""
    if isinstance(params, Kepler5DParams):
        m1, m2 = kepler5d_m_parameters(params)
        energy = ycm_duality_energy(params.c0, params.hbar, rep_p, m1, m2)
        return 0.5 - (rep_p + 1 + (m1 + m2) / 2), energy
    printed, _ = osc8d_m_parameters(params)
    energy = osc8d_energy(params.omega, params.hbar, rep_p, *printed)
    return 0.5 - energy / (2 * params.omega * params.hbar), energy


def fock_convention_scan(params, rep_p: int) -> list[ConventionResult]:
    """Build Fock matrices under several convention assignments and measure residuals.

    Assignments combine the rho reading (printed expression vs its square root),
    the (u, E) source (printed closed forms vs the pair solving both endpoint
    constraints), and the Phi normalization (window form at the printed scale vs
    the scale tied to the general polynomial's leading coefficient vs a
    relation-fitted (d, z, scale)). Ordering is deterministic.
    """
    constants, closed_form, _, _ = fock_side(params, rep_p)
    closed = closed_form(rep_p)
    u_cons, e_cons = _consistent_pair(params, rep_p)
    results = []

    def run(name, rho_convention, u, energy, sf, c):
        try:
            _, rep, cas = check_fock(c, sf, u, rep_p, rho_convention)
        except (DegenerateDenominator, NegativePhi):  # record as inf
            results.append(ConventionResult(name, u, energy, np.inf, np.inf, np.inf,
                                            np.nan, c.casimir_value))
            return
        results.append(ConventionResult(
            name=name, u=u, energy=energy, r_ac=rep.r_ac, r_bc=rep.r_bc, jacobi=rep.jacobi,
            casimir_value=cas.value, casimir_expected=cas.expected))

    # 1-2: printed closed-form (u, E), printed constants, window Phi
    for rho in ("printed", "sqrt"):
        run(f"closed-form-uE/window-phi/rho-{rho}", rho, closed.u, closed.energy,
            closed.sf, constants.at_energy(closed.energy))

    # 3: consistent (u, E), printed constants, Phi scale from the leading coefficient
    c_cons = constants.at_energy(e_cons)
    lead = general_phi_leading_coefficient(c_cons)
    if lead < 0:
        run("consistent-uE/leading-scale-phi/rho-sqrt", "sqrt", u_cons, e_cons,
            StructureFunction(closed.sf.roots, lead, closed.sf.u), c_cons)

    # 4: consistent (u, E), relation-fitted (d, z, scale)
    fit = fit_relation_constants(c_cons, u_cons, closed.sf, rep_p)
    if fit.scale > 0:
        fitted = QuadraticAlgebraConstants(c_cons.gamma, c_cons.epsilon_c, c_cons.zeta_c,
                                           fit.d, fit.z, c_cons.casimir_value)
        run("consistent-uE/relation-fitted-dz/rho-sqrt", "sqrt", u_cons, e_cons,
            StructureFunction(closed.sf.roots, -fit.scale, closed.sf.u), fitted)
    return results
