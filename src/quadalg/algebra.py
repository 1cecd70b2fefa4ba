"""Deformed-oscillator machinery for quadratic algebras with three generators.

Covers the gamma != 0 branch with alpha = a = delta = 0: the closed-form
realization A(N), b(N), rho(N), the general degree-6 structure function,
representation search by elimination of the two endpoint constraints plus a
positivity window, explicit Fock matrices, and residual checks of the defining
relations and the Casimir. Residual checks report; they never decide
correctness by themselves, because several printed constants are under
adjudication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateDenominator, NegativePhi, NotPolynomialInEnergy

_REALIZATION_NORM = 2**12 * 3  # 12288, the fixed prefactor in rho(N)


@dataclass(frozen=True)
class QuadraticAlgebraConstants:
    """Structure constants of the three-generator quadratic algebra.

    Fields follow [A,B] = C, [A,C] = gamma*{A,B} + epsilon_c*B + zeta_c,
    [B,C] = -gamma*B^2 + d_c*A + z_c, with every central charge already fixed
    to a number. casimir_value is the scalar the Casimir combination acts by.
    """

    gamma: float
    epsilon_c: float
    zeta_c: float
    d_c: float
    z_c: float
    casimir_value: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.gamma == 0:
            raise ValueError("gamma = 0 branch is not implemented")


@dataclass(frozen=True)
class StructureFunction:
    """Degree-6 structure function in factored form.

    Phi(x) = scale * prod_i (x + u - roots[i]). The stored scale is the signed
    leading coefficient; its magnitude is a free convention (rescaling Phi by
    any positive constant changes nothing observable) while its sign is fixed
    by positivity of Phi on the representation window.
    """

    roots: tuple
    scale: float
    u: float = 0.0
    degree: int = 6

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("scale must be nonzero")
        if len(self.roots) != self.degree:
            raise ValueError("root count must match degree")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.asarray(self.roots, dtype=float)
        return self.scale * np.prod(x[..., None] + self.u - r, axis=-1)

    def monic(self, x):
        """Evaluation with unit leading coefficient, for absolute residuals."""
        x = np.asarray(x, dtype=float)
        r = np.asarray(self.roots, dtype=float)
        return np.prod(x[..., None] + self.u - r, axis=-1)

    def expanded_coefficients(self) -> np.ndarray:
        """Polynomial coefficients in x, highest power first."""
        shifted = np.asarray(self.roots, dtype=float) - self.u
        return self.scale * np.poly(shifted)

    def rescaled(self, factor: float) -> "StructureFunction":
        if factor <= 0:
            raise ValueError("rescaling factor must be positive")
        return StructureFunction(self.roots, self.scale * factor, self.u, self.degree)


@dataclass(frozen=True)
class RepresentationCandidate:
    """A (u, E) pair carrying a (p+1)-dimensional unitary representation."""

    p: int
    u: float
    energy: float
    phi_values: tuple
    sf: StructureFunction
    source: str = "solver"
    endpoint_residual: float = 0.0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be nonnegative")


@dataclass(frozen=True)
class FockRealization:
    """Explicit matrices of the deformed-oscillator realization on dim = p+1."""

    dim: int
    N: np.ndarray
    b_dag: np.ndarray
    b: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    phi: np.ndarray  # Phi(0..p+1) used for the shift entries


@dataclass(frozen=True)
class OscillatorRealization:
    """Closed forms A(N), b(N), rho(N) evaluated at integer levels n -> n + u.

    rho_convention selects between the printed rho expression and its square
    root. The square-root reading is the one under which the [B,C] relation
    and the Casimir close on the Fock matrices (see verify_commutation); the
    printed reading is kept for literal transcription checks.
    """

    constants: QuadraticAlgebraConstants
    u: float
    rho_convention: str = "sqrt"

    def A(self, n) -> np.ndarray:
        g, e = self.constants.gamma, self.constants.epsilon_c
        y = np.asarray(n, dtype=float) + self.u
        return g / 2 * (y * y - 0.25 - e / g**2)

    def b(self, n) -> np.ndarray:
        g, zt = self.constants.gamma, self.constants.zeta_c
        y = np.asarray(n, dtype=float) + self.u
        if zt == 0:
            return np.zeros_like(y)
        return -(zt / g**2) / (y * y - 0.25)

    def rho_denominator(self, n) -> np.ndarray:
        g = self.constants.gamma
        y = np.asarray(n, dtype=float) + self.u
        return _REALIZATION_NORM * g**8 * y * (1 + y) * (1 + 2 * y) ** 2

    def rho(self, n) -> np.ndarray:
        den = self.rho_denominator(n)
        if np.any(den == 0):
            raise DegenerateDenominator(f"rho denominator vanishes at n={n}, u={self.u}")
        if self.rho_convention == "printed":
            return 1.0 / den
        if np.any(den < 0):
            raise DegenerateDenominator(
                f"rho denominator negative at n={n}, u={self.u}; square-root reading undefined")
        return 1.0 / np.sqrt(den)

    def check_levels(self, p: int) -> None:
        n = np.arange(p + 1)
        den = self.rho_denominator(n)
        if np.any(den == 0) or (self.rho_convention == "sqrt" and np.any(den < 0)):
            raise DegenerateDenominator(f"invalid u={self.u} for p={p}")
        if self.constants.zeta_c != 0:
            y = n + self.u
            if np.any(y * y == 0.25):
                raise DegenerateDenominator(f"b(N) pole at u={self.u} for p={p}")


def oscillator_realization(c: QuadraticAlgebraConstants, u: float,
                           p: Optional[int] = None,
                           rho_convention: str = "sqrt") -> OscillatorRealization:
    """Closed-form realization functions for the gamma != 0 branch."""
    if rho_convention not in ("sqrt", "printed"):
        raise ValueError("rho_convention must be 'sqrt' or 'printed'")
    real = OscillatorRealization(c, u, rho_convention)
    if p is not None:
        real.check_levels(p)
    return real


def structure_function_general(c: QuadraticAlgebraConstants, u: float, x) -> float:
    """Literal transcription of the general degree-6 structure-function polynomial.

    The polynomial depends on x only through t = x + u, with the Casimir scalar
    as printed. Its agreement with the catalog factored forms is itself one of
    the adjudicated checks, not an assumption.
    """
    g, e, zt = c.gamma, c.epsilon_c, c.zeta_c
    d, z, K = c.d_c, c.z_c, c.casimir_value
    t = np.asarray(x, dtype=float) + u
    w = 2.0 * t
    out = (-3072 * g**6 * K * (w - 1) ** 2
           + 48 * d * g**8 * (w - 3) * (w - 1) ** 4 * (w + 1)
           + 12288 * g**4 * zt**2
           + 32 * g**4 * (w - 1) ** 2 * (12 * t * t - 12 * t - 1) * (-4 * d * e * g**2 + 8 * g**3 * z)
           - 256 * g**2 * (w - 1) ** 2 * (-3 * d * e**2 * g**2 + 2 * d * e * g**4 + 12 * e * g**3 * z - 4 * g**5 * z))
    if np.isscalar(x):
        return float(out)
    return out


def general_phi_leading_coefficient(c: QuadraticAlgebraConstants) -> float:
    """Leading t^6 coefficient of the general structure-function polynomial."""
    return 3072 * c.d_c * c.gamma**8


@dataclass(frozen=True)
class PhiFamily:
    """Structure-function family parametrized by energy.

    roots_of(E) returns the six zeros in t = x + u coordinates (u-independent),
    scale_of(E) the signed leading coefficient. Catalog systems supply closed
    forms. Families built from structure constants also carry coefficients:
    row k holds the t-polynomial P_k (highest power first) of
    Phi(t; E) = sum_k E^k P_k(t), which the representation search eliminates
    on; their roots come from polynomial root extraction.
    """

    roots_of: Callable[[float], np.ndarray]
    scale_of: Callable[[float], float]
    label: str = "family"
    coefficients: Optional[np.ndarray] = None

    def structure_function(self, energy: float, u: float) -> StructureFunction:
        roots = np.asarray(self.roots_of(energy))
        if np.iscomplexobj(roots):
            roots = roots.real  # candidate roots are real up to extraction noise
        return StructureFunction(tuple(float(r) for r in roots), self.scale_of(energy), u=u)


_FIT_NODES = np.arange(-3.0, 4.0)     # seven nodes fix the degree-6 polynomial in t
_FIT_ENERGIES = np.array([-1.0, 0.0, 1.0])
_CHECK_ENERGY = 2.0
_ROUNDING = 1e-12     # relative size below which a coefficient is fit noise


def phi_family_from_constants(constants_at: Callable[[float], QuadraticAlgebraConstants],
                              label: str = "general") -> PhiFamily:
    """Coefficient family of the general polynomial for energy-dependent constants.

    The structure constants are polynomial in E (linear for Kepler, quadratic
    for the oscillator), so Phi(t; E) = sum_k E^k P_k(t) with k <= 2. The
    degree-6 polynomial in t is fitted on seven nodes at three energies, which
    fixes P_0..P_2; P_k that vanish to rounding are dropped. The model must
    reproduce the fit at a fourth energy to 1e-9 relative, otherwise the
    constants are not of degree <= 2 in E and NotPolynomialInEnergy is raised.
    """

    def fit(energy: float) -> np.ndarray:
        vals = structure_function_general(constants_at(energy), 0.0, _FIT_NODES)
        return np.polyfit(_FIT_NODES, vals, 6)

    samples = np.array([fit(e) for e in _FIT_ENERGIES])
    coefficients = np.linalg.solve(np.vander(_FIT_ENERGIES, increasing=True), samples)
    while len(coefficients) > 1 and \
            np.abs(coefficients[-1]).max() <= _ROUNDING * np.abs(samples).max():
        coefficients = coefficients[:-1]
    target = fit(_CHECK_ENERGY)
    model = _CHECK_ENERGY ** np.arange(len(coefficients)) @ coefficients
    miss = np.abs(model - target).max() / np.abs(target).max()
    if miss > 1e-9:
        raise NotPolynomialInEnergy(
            f"structure constants are not of degree <= 2 in E: the degree-"
            f"{len(coefficients) - 1} model misses Phi at E = {_CHECK_ENERGY} "
            f"by {miss:.1e} (relative)")
    return phi_family_from_coefficients(coefficients, label)


def phi_family_from_coefficients(coefficients, label: str = "general") -> PhiFamily:
    """Family of Phi(t; E) = sum_k E^k P_k(t), row k of coefficients holding P_k.

    The roots at each energy come from the companion matrix (np.roots) and get
    a Newton polish. Complex roots are kept; the representation search accepts
    an endpoint only on a real one.
    """
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    powers = np.arange(len(coefficients))

    def poly_coeffs(energy: float) -> np.ndarray:
        return energy ** powers @ coefficients

    def roots_of(energy: float) -> np.ndarray:
        coeffs = poly_coeffs(energy)
        roots = np.roots(coeffs)
        dp = np.polyder(coeffs)
        for _ in range(3):  # Newton polish, keeping only steps that lower |Phi|
            fv = np.polyval(coeffs, roots)
            dv = np.polyval(dp, roots)
            step = np.where(dv != 0, fv / np.where(dv == 0, 1.0, dv), 0.0)
            polished = roots - step
            # at a double root Phi' is rounding noise, and a full step can
            # throw both copies onto one wrong real value
            roots = np.where(np.abs(np.polyval(coeffs, polished)) < np.abs(fv),
                             polished, roots)
        order = np.argsort(roots.real + 1e-9 * np.abs(roots.imag))
        return roots[order]

    def scale_of(energy: float) -> float:
        return float(poly_coeffs(energy)[0])

    return PhiFamily(roots_of=roots_of, scale_of=scale_of, label=label,
                     coefficients=coefficients)


_ENDPOINT_TOL = 1e-10  # |Phi| at both endpoints, with unit leading coefficient

# Two roots closer than _ROOT_TOL * (1 + |r|) are one root, and a root with
# |Im| <= _ROOT_TOL * (1 + |Re|) is real. Root extraction splits a double root
# of Phi (the default Kepler family has one at t = 1/2 for every E) into two
# reals or a near-real conjugate pair; over the bound-state energies of eight
# Kepler/oscillator configurations the split reached a relative |Im| of
# 1.9e-6 (Kepler l = 1), and no genuinely complex pair came that close.
_ROOT_TOL = 1e-5
_SECANT_STEPS = 8


def _same(a: float, b: float) -> bool:
    """Equal up to the spread of solves of one representation (~1e-9 in E)."""
    return abs(a - b) <= 1e-8 * (1.0 + max(abs(a), abs(b)))


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """np.roots after dropping leading coefficients that are fit noise."""
    coeffs = np.asarray(coeffs)
    big = np.nonzero(np.abs(coeffs) > _ROUNDING * np.abs(coeffs).max())[0]
    return np.roots(coeffs[big[0]:]) if len(big) else np.empty(0)


def _real(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    return values.real[np.abs(values.imag) <= _ROOT_TOL * (1.0 + np.abs(values.real))]


def _energy_independent_roots(coefficients: np.ndarray) -> np.ndarray:
    """Roots t that every P_k shares, with multiplicity (complex ones included).

    They are taken from the P_k of lowest degree, since a root of higher
    multiplicity comes out of extraction split further; a double root shows
    up as a near-real pair.
    """
    nonzero = [pk for pk in coefficients if np.abs(pk).max() > 0]

    def on_every_pk(r):
        return all(abs(np.polyval(pk, r)) <= 1e-9 * np.polyval(np.abs(pk), abs(r))
                   for pk in nonzero)

    lowest = min((_roots(pk) for pk in nonzero), key=len)
    return np.array([r for r in lowest if on_every_pk(r)], dtype=complex)


def _resultant_in_energy(a: list, b: list) -> np.ndarray:
    """Res_E(sum_k a_k E^k, sum_k b_k E^k) for E-degree 1 or 2, as a polynomial in u.

    a[k] and b[k] are polynomials in u (highest power first).
    """
    def cross(i, j):
        return np.polysub(np.polymul(a[i], b[j]), np.polymul(a[j], b[i]))

    if len(a) == 1:
        return np.ones(1)  # Phi does not depend on E: no moving roots
    if len(a) == 2:
        return cross(1, 0)
    return np.polysub(np.polymul(cross(2, 0), cross(2, 0)),
                      np.polymul(cross(2, 1), cross(1, 0)))


def _energies_at(cofactor: list, t: float) -> np.ndarray:
    """Real E at which t is a root of the cofactor sum_k E^k Q_k."""
    return _real(_roots([np.polyval(qk, t) for qk in cofactor[::-1]]))


def find_representations(family: PhiFamily, p_max: int,
                         closed_form: Optional[Callable[[int], RepresentationCandidate]] = None,
                         energy_window: Optional[tuple] = None
                         ) -> list[RepresentationCandidate]:
    """All (u, E) pairs carrying a (p+1)-dimensional unitary representation, p <= p_max.

    With closed_form supplied (catalog systems) the candidates are evaluated
    from the closed forms and validated. Otherwise the family must carry
    energy coefficients (phi_family_from_constants), and u and u + p + 1 are
    found as zeros of Phi by elimination, for E inside energy_window:

    - the E-independent roots F (shared by every P_k) are split off, leaving
      the cofactor Q(t; E) = Phi / F;
    - both endpoints on moving roots: u is a real zero of the resultant in E
      of Q(u; E) and Q(u + p + 1; E), and E a real zero of Q(u; E);
    - one endpoint on a root r of F: E solves Q = 0 at the other endpoint,
      r + p + 1 or r - p - 1;
    - both endpoints on F hold for every E, a continuum with no energy of its
      own, so no candidate is built from them.

    Each (u, E) is then finished on the family's own extracted roots, and
    survivors must have a strictly positive window.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    if closed_form is not None:
        return [closed_form(p) for p in range(p_max + 1)]
    if family.coefficients is None or energy_window is None:
        raise ValueError("the generic search needs a coefficient family and an energy window")
    lo, hi = energy_window
    shared = _energy_independent_roots(family.coefficients)
    cofactor = [np.polydiv(pk, np.poly(shared).real)[0] for pk in family.coefficients]
    fixed = _real(shared)
    out: list[RepresentationCandidate] = []
    for p in range(p_max + 1):
        s = p + 1.0
        shifted = [np.poly1d(qk)(np.poly1d([1.0, s])).coeffs for qk in cofactor]
        seeds = [(u, e) for u in _real(_roots(_resultant_in_energy(cofactor, shifted)))
                 for e in _energies_at(cofactor, u)]
        for r in fixed:
            for other in (r + s, r - s):
                if np.any(np.abs(fixed - other) <= _ROOT_TOL * (1.0 + abs(other))):
                    continue  # both endpoints on F
                seeds += [(min(r, other), e) for e in _energies_at(cofactor, other)]
        found: list[RepresentationCandidate] = []
        for u, energy in seeds:
            if not lo <= energy <= hi:
                continue
            cand = _finish(family, p, u, energy)
            if cand is None or any(_same(f.u, cand.u) and _same(f.energy, cand.energy)
                                   for f in found):
                continue
            found.append(cand)
        found.sort(key=lambda c: (c.energy, c.u))
        out.extend(found)
    return out


def _finish(family: PhiFamily, p: int, u: float,
            energy: float) -> Optional[RepresentationCandidate]:
    """Candidate at an eliminated (u, E), solved again on the extracted roots.

    u snaps to the nearest root of the family at E, u + p + 1 to the nearest
    other one, and E solves their gap roots[j] - roots[i] - (p + 1) = 0 by
    secant steps from the seed. The seeds are real solutions, so both roots
    are real up to extraction noise.
    """
    s = p + 1.0
    roots = family.roots_of(energy)
    i = int(np.argmin(np.abs(roots - u)))
    j = int(np.argmin(np.abs(roots - (u + s))))

    def gap(roots):
        return roots[j].real - roots[i].real - s

    best = (abs(gap(roots)), energy, roots)
    e0, g0 = energy, gap(roots)
    e1 = energy + 1e-8 * (1.0 + abs(energy))
    for _ in range(_SECANT_STEPS):
        roots = family.roots_of(e1)
        g1 = gap(roots)
        if abs(g1) < best[0]:
            best = (abs(g1), e1, roots)
        if g1 == 0 or g1 == g0 or abs(e1 - e0) <= 1e-15 * (1.0 + abs(e1)):
            break
        e0, g0, e1 = e1, g1, e1 - g1 * (e1 - e0) / (g1 - g0)
    _, energy, roots = best
    return _candidate_from_family(family, p, float(roots[i].real), float(energy))


def _candidate_from_family(family: PhiFamily, p: int, u: float,
                           energy: float) -> Optional[RepresentationCandidate]:
    sf = family.structure_function(energy, u)
    endpoints = np.abs(sf.monic(np.array([0.0, p + 1.0])))
    if endpoints.max() > _ENDPOINT_TOL:
        return None
    window = sf(np.arange(1, p + 1, dtype=float)) if p >= 1 else np.empty(0)
    if p >= 1 and window.min() <= 0:
        return None
    return RepresentationCandidate(p=p, u=u, energy=energy,
                                   phi_values=tuple(float(v) for v in window),
                                   sf=sf, source="solver",
                                   endpoint_residual=float(endpoints.max()))


def build_fock_realization(sf: StructureFunction, realization: OscillatorRealization,
                           p: int) -> FockRealization:
    """Explicit (p+1)-dimensional matrices N, b, b^dag, A, B, C.

    b^dag carries sqrt(Phi(n)) on the subdiagonal, A is diagonal, and
    B = b(N) + b^dag rho(N) + rho(N) b; C is the literal matrix commutator.
    """
    realization.check_levels(p)
    n = np.arange(p + 1)
    phi = sf(np.arange(0, p + 2, dtype=float))
    if np.any(phi[1:p + 1] < 0):
        raise NegativePhi(f"Phi negative inside the window: {phi[1:p + 1]}")
    Nmat = np.diag(n.astype(float))
    b_dag = np.zeros((p + 1, p + 1))
    for m in range(1, p + 1):
        b_dag[m, m - 1] = np.sqrt(phi[m])
    b = b_dag.T.copy()
    A = np.diag(realization.A(n))
    rho = realization.rho(n)
    B = np.diag(realization.b(n)) + b_dag @ np.diag(rho) + np.diag(rho) @ b
    C = A @ B - B @ A
    return FockRealization(dim=p + 1, N=Nmat, b_dag=b_dag, b=b, A=A, B=B, C=C, phi=phi)


def fock_invariant_residuals(f: FockRealization) -> dict:
    """Shift-structure and ladder-product residuals, relative to the entry scale."""
    scale_b = max(1.0, _absmax(f.b_dag))
    scale_phi = max(1.0, _absmax(f.phi))
    shift = max(_absmax(f.N @ f.b_dag - f.b_dag @ f.N - f.b_dag),
                _absmax(f.N @ f.b - f.b @ f.N + f.b)) / scale_b
    p = f.dim - 1
    ladder = max(_absmax(f.b @ f.b_dag - np.diag(f.phi[1:])),
                 _absmax(f.b_dag @ f.b - np.diag(f.phi[:p + 1]))) / scale_phi
    return {"shift": float(shift), "ladder": float(ladder)}


def _comm(x, y):
    return x @ y - y @ x


def _anti(x, y):
    return x @ y + y @ x


@dataclass(frozen=True)
class CommutationReport:
    """Max-norm residuals of the defining relations, relative to the largest term."""

    r_ab: float
    r_ac: float
    r_bc: float
    jacobi: float
    scale_ac: float
    scale_bc: float

    def max_relation_residual(self) -> float:
        return max(self.r_ac, self.r_bc)


def verify_commutation(f: FockRealization, c: QuadraticAlgebraConstants) -> CommutationReport:
    """Residuals of [A,B]=C, the [A,C] and [B,C] relations, and the Jacobi identity."""
    I = np.eye(f.dim)
    AC = _comm(f.A, f.C)
    BC = _comm(f.B, f.C)
    anti = _anti(f.A, f.B)
    rhs_ac = c.gamma * anti + c.epsilon_c * f.B + c.zeta_c * I
    rhs_bc = -c.gamma * f.B @ f.B + c.d_c * f.A + c.z_c * I
    # floors reflect the natural magnitude of the algebra so that relations
    # whose every term vanishes (possible at dim 1) read as satisfied
    scale_ac = max(_absmax(AC), _absmax(c.gamma * anti), _absmax(c.epsilon_c * f.B),
                   abs(c.zeta_c), abs(c.epsilon_c), abs(c.gamma), 1.0)
    scale_bc = max(_absmax(BC), _absmax(c.gamma * f.B @ f.B), _absmax(c.d_c * f.A),
                   abs(c.z_c), abs(c.d_c), abs(c.gamma), 1.0)
    jac = _comm(f.A, _comm(f.B, f.C)) + _comm(f.B, _comm(f.C, f.A)) + _comm(f.C, _comm(f.A, f.B))
    scale_j = max(_absmax(_comm(f.B, f.C)), _absmax(_comm(f.C, f.A)), _absmax(f.C @ f.C), 1.0)
    return CommutationReport(
        r_ab=_absmax(_comm(f.A, f.B) - f.C),
        r_ac=_absmax(AC - rhs_ac) / scale_ac,
        r_bc=_absmax(BC - rhs_bc) / scale_bc,
        jacobi=_absmax(jac) / scale_j,
        scale_ac=scale_ac,
        scale_bc=scale_bc,
    )


@dataclass(frozen=True)
class CasimirReport:
    """Casimir matrix diagnostics: scalarness and the value it acts by."""

    value: float
    expected: float
    off_diagonal: float
    diagonal_spread: float
    commutant_a: float
    commutant_b: float

    @property
    def value_residual(self) -> float:
        return abs(self.value - self.expected) / max(abs(self.expected), 1.0)


def verify_casimir(f: FockRealization, c: QuadraticAlgebraConstants) -> CasimirReport:
    """Casimir combination on the Fock matrices versus the stored scalar."""
    K = (f.C @ f.C - c.gamma * _anti(f.A, f.B @ f.B)
         + (c.gamma**2 - c.epsilon_c) * f.B @ f.B
         - 2 * c.zeta_c * f.B + c.d_c * f.A @ f.A + 2 * c.z_c * f.A)
    diag = np.diag(K)
    return CasimirReport(
        value=float(diag.mean()),
        expected=c.casimir_value,
        off_diagonal=_absmax(K - np.diag(diag)),
        diagonal_spread=float(np.ptp(diag)) if f.dim > 1 else 0.0,
        commutant_a=_absmax(_comm(K, f.A)),
        commutant_b=_absmax(_comm(K, f.B)),
    )


def relation_phi_recurrence(c: QuadraticAlgebraConstants, u: float, p: int,
                            rho_convention: str = "sqrt") -> np.ndarray:
    """Structure-function values Phi(0..p+1) forced by the [B,C] relation.

    Independent of any printed Phi formula: the diagonal part of the [B,C]
    relation is a first-order recurrence in G(n) = rho(n)^2 Phi(n+1), seeded by
    Phi(0) = 0. Dividing out rho^2 recovers Phi. Used as an oracle against the
    factored and general printed forms.
    """
    real = oscillator_realization(c, u, p=p, rho_convention=rho_convention)
    g = c.gamma
    G = np.zeros(p + 1)
    for n in range(p + 1):
        y = n + u
        rhs = -g * real.b(n) ** 2 + c.d_c * real.A(n) + c.z_c
        prev = G[n - 1] if n > 0 else 0.0
        G[n] = (rhs + 2 * g * (y - 1) * prev) / (2 * g * (y + 1))
    rho2 = real.rho(np.arange(p + 1)) ** 2
    phi = np.zeros(p + 2)
    phi[1:] = G / rho2
    return phi


@dataclass(frozen=True)
class RelationFit:
    """Least-squares (d, z, scale) that close the [B,C] relation for a given window."""

    d: float
    z: float
    scale: float
    residual: float


def fit_relation_constants(c: QuadraticAlgebraConstants, u: float,
                           sf: StructureFunction, p: int,
                           rho_convention: str = "sqrt") -> RelationFit:
    """Fit (d, z, Phi-scale) so the [B,C] diagonal closes, holding gamma, epsilon, zeta.

    The fit is meaningful when zeta != 0 (otherwise rescaling B leaves a gauge
    family and only the ratio z/d is determined; the scale is then pinned to
    the general-polynomial leading coefficient instead).
    """
    real = oscillator_realization(c, u, p=p, rho_convention=rho_convention)
    n = np.arange(p + 1)
    g = c.gamma
    phihat = sf.monic(np.arange(0, p + 2, dtype=float))
    window_sign = np.sign(phihat[1]) if p >= 1 else -1.0
    phihat = phihat * window_sign  # window-positive, unit |leading|

    def recurrence(rhs):
        G = np.zeros(p + 1)
        for k in range(p + 1):
            yy = k + u
            prev = G[k - 1] if k > 0 else 0.0
            G[k] = (rhs[k] + 2 * g * (yy - 1) * prev) / (2 * g * (yy + 1))
        return G

    Gd = recurrence(real.A(n))
    Gz = recurrence(np.ones(p + 1))
    G0 = recurrence(-g * real.b(n) ** 2)
    rho2 = real.rho(n) ** 2
    target = rho2 * phihat[1:]
    if abs(c.zeta_c) > 0 and p >= 2:
        # B normalization pinned by zeta: (d, z, scale) all absolute
        M = np.column_stack([Gd, Gz, -target])
        sol, *_ = np.linalg.lstsq(M, -G0, rcond=None)
        pred = M @ sol
        resid = _absmax(pred + G0) / max(_absmax(pred), _absmax(G0), 1e-300)
        return RelationFit(d=float(sol[0]), z=float(sol[1]), scale=float(sol[2]),
                           residual=float(resid))
    # zeta = 0 leaves a B-rescaling gauge (and p < 2 underdetermines the full
    # fit); pin the scale to the general polynomial's leading coefficient and
    # fit (d, z) in that gauge
    scale = abs(general_phi_leading_coefficient(c))
    M = np.column_stack([Gd, Gz])
    sol, *_ = np.linalg.lstsq(M, scale * target - G0, rcond=None)
    pred = M @ sol + G0
    resid = _absmax(pred - scale * target) / max(_absmax(scale * target), 1e-300)
    return RelationFit(d=float(sol[0]), z=float(sol[1]), scale=float(scale),
                       residual=float(resid))


def _absmax(x) -> float:
    x = np.asarray(x)
    return float(np.abs(x).max()) if x.size else 0.0
