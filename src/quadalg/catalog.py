"""The three concrete systems: parameters, structure constants, structure
functions, m-parameters and closed-form spectra, transcribed as printed.

Every closed-form operation here is a pure evaluation of a printed formula.
Internal inconsistencies among those formulas (they exist; several are
adjudicated elsewhere in this package) are deliberately NOT corrected here:
the catalog is the transcription layer, the oracles decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .algebra import (
    PhiFamily,
    QuadraticAlgebraConstants,
    RepresentationCandidate,
    StructureFunction,
    build_fock_realization,
    fit_relation_constants,
    general_phi_leading_coefficient,
    oscillator_realization,
    verify_casimir,
    verify_commutation,
)
from .errors import ImaginaryM

KEPLER_PHI_PREFACTOR = 6191456          # as printed in the pre-substitution factored form
KEPLER_PHI_PREFACTOR_SUBST = 6291456    # as printed in the post-substitution form (= 3 * 2**21)
OSC_PHI_PREFACTOR = 3 * 2**22
OSC_PHI_PREFACTOR_SUBST = 3 * 2**19


def _require_finite(params) -> None:
    """Name the first NaN or infinite number field; both pass the sign checks."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Kepler5DParams:
    """Generalized 5D Kepler couplings and the so(4) Casimir eigenvalue l."""

    c0: float = 1.0
    c1: float = 0.0
    c2: float = 0.0
    hbar: float = 1.0
    l: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("c1 and c2 are non-negative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class Oscillator8DParams:
    """8D singular oscillator: frequency, singular strengths, Casimir labels j, k."""

    omega: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    hbar: float = 1.0
    j: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("singular strengths must be non-negative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.j < 0 or self.k < 0:
            raise ValueError("Casimir labels j, k are non-negative")


@dataclass(frozen=True)
class YCMParams:
    """Generalized Yang-Coulomb monopole: Kepler couplings plus su(2) isospin T
    and the (J, L) labels of the parabolic channel."""

    kepler: Kepler5DParams = field(default_factory=Kepler5DParams)
    T: float = 0.0
    J: float = 0.0
    L: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.T < 0 or round(2 * self.T) != 2 * self.T:
            raise ValueError("T must be a non-negative half-integer")
        if not (abs(self.L - self.T) <= self.J <= self.L + self.T + 1e-12):
            raise ValueError("J must satisfy |L - T| <= J <= L + T")


@dataclass(frozen=True)
class SpectrumRecord:
    """One spectrum evaluation with its provenance and side-by-side m-values."""

    system: str
    quantum_numbers: dict
    energy: float
    provenance: str
    m_printed: Optional[tuple] = None
    m_indicial: Optional[tuple] = None
    notes: tuple = ()

    def __post_init__(self):
        if self.provenance not in ("algebraic", "ode-oracle", "duality"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.system in ("kepler5d", "ycm") and not self.energy < 0:
            raise ValueError("Kepler-type bound states need energy < 0")
        if self.system == "osc8d" and not self.energy > 0:
            raise ValueError("oscillator spectra need energy > 0")


class EnergyDependentConstants:
    """Quadratic-algebra constants with the Hamiltonian eigenvalue left open."""

    def __init__(self, gamma: float, epsilon_c: float,
                 zeta: Callable[[float], float], d: Callable[[float], float],
                 z: Callable[[float], float], casimir: Callable[[float], float],
                 hbar: float):
        self.gamma = gamma
        self.epsilon_c = epsilon_c
        self._zeta = zeta
        self._d = d
        self._z = z
        self._casimir = casimir
        self.hbar = hbar

    def at_energy(self, energy: float) -> QuadraticAlgebraConstants:
        return QuadraticAlgebraConstants(
            gamma=self.gamma, epsilon_c=self.epsilon_c,
            zeta_c=self._zeta(energy), d_c=self._d(energy), z_c=self._z(energy),
            casimir_value=self._casimir(energy), hbar=self.hbar)

    __call__ = at_energy


# --------------------------------------------------------------------------
# generalized 5D Kepler
# --------------------------------------------------------------------------

def kepler5d_constants(p: Kepler5DParams) -> EnergyDependentConstants:
    """Structure constants of the generalized 5D Kepler quadratic algebra."""
    h2 = p.hbar**2
    h4 = h2 * h2

    def zeta(E):
        return -4 * (p.c1 - p.c2) * h2 * p.c0

    def d(E):
        return 8 * h2 * E

    def z(E):
        return -4 * h2 * p.l * E + 16 * h4 * E - 8 * h2 * (p.c1 + p.c2) * E + 2 * h2 * p.c0**2

    def casimir(E):
        return (16 * h4 * E * p.l - 8 * h2 * (p.c1 - p.c2) ** 2 * E
                + 32 * (p.c1 + p.c2) * h4 * E - 32 * h4 * h2 * E
                + 4 * h2 * p.c0**2 * p.l + 8 * h2 * (p.c1 + p.c2) * p.c0**2 - 4 * h4 * p.c0**2)

    return EnergyDependentConstants(gamma=2 * h2, epsilon_c=8 * h4,
                                    zeta=zeta, d=d, z=z, casimir=casimir, hbar=p.hbar)


def kepler5d_m_parameters(p: Kepler5DParams) -> tuple[float, float]:
    """Positive-branch m parameters, hbar^2 m_i^2 = 16 c_i + 4 l + 4 hbar^2."""
    out = []
    for c in (p.c1, p.c2):
        radicand = 16 * c + 4 * p.l + 4 * p.hbar**2
        if radicand < 0:
            raise ImaginaryM(f"negative radicand for m: {radicand}")
        out.append(float(np.sqrt(radicand) / p.hbar))
    return out[0], out[1]


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

    return PhiFamily(roots_of=roots_of, scale_of=scale_of, label="kepler5d")


def _rep_window_structure_function(p_rep: int, m1: float, m2: float,
                                   positive_scale: float) -> StructureFunction:
    """Post-substitution factored form with zeros pinned at 0 and p+1.

    Written with five reversed factors (root - x), so the stored signed leading
    coefficient is the negative of the printed positive prefactor.
    """
    roots = (0.0, p_rep + 1.0, p_rep + 1.0 + m1, p_rep + 1.0 + m2,
             p_rep + 1.0 + m1 + m2, 2.0 * p_rep + 2.0 + m1 + m2)
    return StructureFunction(roots=roots, scale=-positive_scale, u=0.0)


def kepler5d_spectrum(p: Kepler5DParams, rep_p: int) -> SpectrumRecord:
    """Printed closed-form energy, E = -c0^2 / (hbar^2 (p+1+(m1+m2)/2)^2)."""
    if rep_p < 0:
        raise ValueError("rep_p must be nonnegative")
    m1, m2 = kepler5d_m_parameters(p)
    energy = -p.c0**2 / (p.hbar**2 * (rep_p + 1 + (m1 + m2) / 2) ** 2)
    return SpectrumRecord(
        system="kepler5d",
        quantum_numbers={"p": rep_p, "m1": m1, "m2": m2, "l": p.l},
        energy=float(energy),
        provenance="algebraic",
        m_printed=(m1, m2),
        notes=("printed denominator lacks the factor 2 carried by the parabolic "
               "and duality spectra; adjudicated by the ODE cross-check",),
    )


def kepler5d_closed_form(p: Kepler5DParams) -> Callable[[int], RepresentationCandidate]:
    """Printed closed-form (u, E) per dimension, with the window-form Phi attached."""
    m1, m2 = kepler5d_m_parameters(p)

    def build(rep_p: int) -> RepresentationCandidate:
        energy = kepler5d_spectrum(p, rep_p).energy
        u = 0.5 + _coulomb_q(p, energy)
        sf = _rep_window_structure_function(rep_p, m1, m2,
                                            KEPLER_PHI_PREFACTOR_SUBST * p.hbar**16 * p.c0**2)
        window = sf(np.arange(1, rep_p + 1, dtype=float)) if rep_p >= 1 else np.empty(0)
        return RepresentationCandidate(p=rep_p, u=float(u), energy=float(energy),
                                       phi_values=tuple(float(v) for v in window),
                                       sf=sf, source="closed-form")

    return build


def kepler5d_energy_window(p: Kepler5DParams, p_max: int) -> tuple[float, float]:
    """Bound-state energies E = -c0^2 / (2 hbar^2 q^2) with 0.02 <= q <= p_max + 3 + m1 + m2,
    which hold every representation of dimension up to p_max + 1."""
    m1, m2 = kepler5d_m_parameters(p)
    q = np.array([0.02, p_max + 3 + m1 + m2])
    lo, hi = -p.c0**2 / (2 * p.hbar**2 * q**2)
    return float(lo), float(hi)


# --------------------------------------------------------------------------
# 8D singular oscillator
# --------------------------------------------------------------------------

def osc8d_constants(p: Oscillator8DParams) -> EnergyDependentConstants:
    """Structure constants of the 8D singular-oscillator quadratic algebra."""
    h2 = p.hbar**2
    om2 = p.omega**2
    l1, l2, j, k = p.lambda1, p.lambda2, p.j, p.k

    def zeta(E):
        return (j - k) * E - 2 * (l1 - l2) * E / h2

    def d(E):
        return -16 * h2 * om2

    def z(E):
        return 2 * E * E - 4 * h2 * om2 * j - 4 * h2 * om2 * k + 8 * (l1 + l2 - 4 * h2) * om2

    def casimir(E):
        return (-2 * j * E * E - 2 * k * E * E + 4 * (l1 + l2 - h2) * om2 * E * E / h2
                + h2 * om2 * j * j - h2 * om2 * k * k - 2 * h2 * om2 * j * k
                - 4 * (l1 - l2 - 4 * h2) * om2 * j + 4 * (l1 - l2 + 4 * h2) * om2 * k
                + 4 * ((l1 - l2) ** 2 - 8 * (l1 + l2) * h2 + 16 * h2 * h2) * om2 / h2)

    return EnergyDependentConstants(gamma=2.0, epsilon_c=8.0,
                                    zeta=zeta, d=d, z=z, casimir=casimir, hbar=p.hbar)


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

    return PhiFamily(roots_of=roots_of, scale_of=scale_of, label="osc8d")


def osc8d_spectrum(p: Oscillator8DParams, rep_p: int) -> SpectrumRecord:
    """Printed closed-form energy, E = 2 omega hbar (p+1+(m1+m2)/2)."""
    if rep_p < 0:
        raise ValueError("rep_p must be nonnegative")
    printed, indicial = osc8d_m_parameters(p)
    m1, m2 = printed
    energy = 2 * p.omega * p.hbar * (rep_p + 1 + (m1 + m2) / 2)
    return SpectrumRecord(
        system="osc8d",
        quantum_numbers={"p": rep_p, "j": p.j, "k": p.k},
        energy=float(energy),
        provenance="algebraic",
        m_printed=printed,
        m_indicial=indicial,
    )


def osc8d_closed_form(p: Oscillator8DParams) -> Callable[[int], RepresentationCandidate]:
    printed, _ = osc8d_m_parameters(p)
    m1, m2 = printed

    def build(rep_p: int) -> RepresentationCandidate:
        energy = osc8d_spectrum(p, rep_p).energy
        u = 0.5 - energy / (2 * p.omega * p.hbar)
        sf = _rep_window_structure_function(rep_p, m1, m2, OSC_PHI_PREFACTOR_SUBST * p.omega**2)
        window = sf(np.arange(1, rep_p + 1, dtype=float)) if rep_p >= 1 else np.empty(0)
        return RepresentationCandidate(p=rep_p, u=float(u), energy=float(energy),
                                       phi_values=tuple(float(v) for v in window),
                                       sf=sf, source="closed-form")

    return build


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


def ycm_spectrum_parabolic(p: YCMParams, n1: int, n2: int) -> SpectrumRecord:
    """Printed parabolic spectrum, eps = -c0^2 / (2 hbar^2 (n1+n2+s1+s2+1)^2)."""
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be nonnegative")
    s1, s2 = ycm_parabolic_s_parameters(p)
    kp = p.kepler
    energy = -kp.c0**2 / (2 * kp.hbar**2 * (n1 + n2 + (s1 + s2 + 1)) ** 2)
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


def ycm_spectrum_duality(p: YCMParams, rep_p: int) -> SpectrumRecord:
    """Spectrum re-derived through the oscillator dual,
    eps = -c0^2 / (2 hbar^2 (p+1+(m1+m2)/2)^2) with the dual m parameters."""
    if rep_p < 0:
        raise ValueError("rep_p must be nonnegative")
    kp = p.kepler
    dual = ycm_dual_oscillator(p)
    printed, indicial = osc8d_m_parameters(dual)
    m1, m2 = printed
    energy = -kp.c0**2 / (2 * kp.hbar**2 * (rep_p + 1 + (m1 + m2) / 2) ** 2)
    return SpectrumRecord(
        system="ycm",
        quantum_numbers={"p": rep_p, "J": p.J, "L": p.L, "T": p.T},
        energy=float(energy),
        provenance="duality",
        m_printed=printed,
        m_indicial=indicial,
    )


def duality_identity_residual(p: YCMParams, record: SpectrumRecord) -> float:
    """Relative residual of 4 c0 = 2 sqrt(-8 eps) hbar (p+1+(m1+m2)/2)."""
    kp = p.kepler
    m1, m2 = record.m_printed
    rep_p = record.quantum_numbers["p"]
    lhs = 4 * kp.c0
    rhs = 2 * np.sqrt(-8 * record.energy) * kp.hbar * (rep_p + 1 + (m1 + m2) / 2)
    return abs(lhs - rhs) / abs(lhs)


# --------------------------------------------------------------------------
# Fock-side convention adjudication
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConventionResult:
    """Residuals of one (rho reading, (u,E) source, constants source) assignment."""

    name: str
    rho_convention: str
    u: float
    energy: float
    r_ac: float
    r_bc: float
    jacobi: float
    casimir_off_diagonal: float
    casimir_spread: float
    casimir_value: float
    casimir_expected: float


def _consistent_pair(system: str, params, rep_p: int) -> tuple[float, float]:
    """(u, E) solving both endpoint constraints of the factored family exactly."""
    if system == "kepler5d":
        m1, m2 = kepler5d_m_parameters(params)
        q = rep_p + 1 + (m1 + m2) / 2
        energy = -params.c0**2 / (2 * params.hbar**2 * q * q)
        return 0.5 - q, energy
    printed, _ = osc8d_m_parameters(params)
    m1, m2 = printed
    energy = 2 * params.omega * params.hbar * (rep_p + 1 + (m1 + m2) / 2)
    return 0.5 - energy / (2 * params.omega * params.hbar), energy


def fock_convention_scan(system: str, params, rep_p: int) -> list[ConventionResult]:
    """Build Fock matrices under several convention assignments and measure residuals.

    Assignments combine the rho reading (printed expression vs its square root),
    the (u, E) source (printed closed forms vs the pair solving both endpoint
    constraints), and the Phi normalization (window form at the printed scale vs
    the scale tied to the general polynomial's leading coefficient vs a
    relation-fitted (d, z, scale)). Ordering is deterministic.
    """
    if system == "kepler5d":
        constants = kepler5d_constants(params)
        closed = kepler5d_closed_form(params)(rep_p)
        m1, m2 = kepler5d_m_parameters(params)
        pos_scale = KEPLER_PHI_PREFACTOR_SUBST * params.hbar**16 * params.c0**2
    elif system == "osc8d":
        constants = osc8d_constants(params)
        closed = osc8d_closed_form(params)(rep_p)
        (m1, m2), _ = osc8d_m_parameters(params)
        pos_scale = OSC_PHI_PREFACTOR_SUBST * params.omega**2
    else:
        raise ValueError(f"unknown system {system!r}")

    u_cons, e_cons = _consistent_pair(system, params, rep_p)
    sf_window = _rep_window_structure_function(rep_p, m1, m2, pos_scale)
    results = []

    def run(name, rho_convention, u, energy, sf, constants_at_e):
        try:
            real = oscillator_realization(constants_at_e, u, p=rep_p,
                                          rho_convention=rho_convention)
            fock = build_fock_realization(sf, real, rep_p)
        except Exception as exc:  # degenerate u or negative window: record as inf
            results.append(ConventionResult(name, rho_convention, u, energy,
                                            np.inf, np.inf, np.inf, np.inf, np.inf,
                                            np.nan, constants_at_e.casimir_value))
            return
        rep = verify_commutation(fock, constants_at_e)
        cas = verify_casimir(fock, constants_at_e)
        results.append(ConventionResult(
            name=name, rho_convention=rho_convention, u=u, energy=energy,
            r_ac=rep.r_ac, r_bc=rep.r_bc, jacobi=rep.jacobi,
            casimir_off_diagonal=cas.off_diagonal, casimir_spread=cas.diagonal_spread,
            casimir_value=cas.value, casimir_expected=cas.expected))

    # 1-2: printed closed-form (u, E), printed constants, window Phi
    for rho in ("printed", "sqrt"):
        run(f"closed-form-uE/window-phi/rho-{rho}", rho, closed.u, closed.energy,
            closed.sf, constants.at_energy(closed.energy))

    # 3: consistent (u, E), printed constants, Phi scale from the leading coefficient
    c_cons = constants.at_energy(e_cons)
    lead = general_phi_leading_coefficient(c_cons)
    if lead < 0:
        sf_lead = _rep_window_structure_function(rep_p, m1, m2, -lead)
        run("consistent-uE/leading-scale-phi/rho-sqrt", "sqrt", u_cons, e_cons, sf_lead, c_cons)

    # 4: consistent (u, E), relation-fitted (d, z, scale)
    fit = fit_relation_constants(c_cons, u_cons, sf_window, rep_p, rho_convention="sqrt")
    if fit.scale > 0:
        fitted = QuadraticAlgebraConstants(
            gamma=c_cons.gamma, epsilon_c=c_cons.epsilon_c, zeta_c=c_cons.zeta_c,
            d_c=fit.d, z_c=fit.z, casimir_value=c_cons.casimir_value, hbar=c_cons.hbar)
        sf_fit = _rep_window_structure_function(rep_p, m1, m2, fit.scale)
        run("consistent-uE/relation-fitted-dz/rho-sqrt", "sqrt", u_cons, e_cons, sf_fit, fitted)
    return results
