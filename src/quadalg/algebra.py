"""Deformed-oscillator machinery for quadratic algebras with three generators.

Covers the gamma != 0 branch with alpha = a = delta = 0: the closed-form
realization A(N), b(N), rho(N), the general degree-6 structure function,
representation search via the two endpoint constraints plus a positivity
window, explicit Fock matrices, and residual checks of the defining relations
and the Casimir. Residual checks report; they never decide correctness by
themselves, because several printed constants are under adjudication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DegenerateDenominator, NegativePhi, NonConvergence, NoRepresentation

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
    forms; generic constants go through polynomial root extraction.
    """

    roots_of: Callable[[float], np.ndarray]
    scale_of: Callable[[float], float]
    label: str = "family"

    def structure_function(self, energy: float, u: float) -> StructureFunction:
        roots = np.asarray(self.roots_of(energy))
        if np.iscomplexobj(roots):
            roots = roots.real  # candidate roots are real up to extraction noise
        return StructureFunction(tuple(float(r) for r in roots), self.scale_of(energy), u=u)


def phi_family_from_constants(constants_at: Callable[[float], QuadraticAlgebraConstants],
                              label: str = "general") -> PhiFamily:
    """Family built from the general polynomial via companion-matrix roots.

    The degree-6 polynomial in t is reconstructed from sampled values, its
    roots come from the companion matrix (np.roots) and get a Newton polish.
    Complex roots are kept; the representation search filters to real ones.
    """

    nodes = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])

    def poly_coeffs(energy: float) -> np.ndarray:
        c = constants_at(energy)
        vals = structure_function_general(c, 0.0, nodes)
        return np.polyfit(nodes, vals, 6)

    def roots_of(energy: float) -> np.ndarray:
        coeffs = poly_coeffs(energy)
        roots = np.roots(coeffs)
        dp = np.polyder(coeffs)
        for _ in range(3):  # Newton polish
            fv = np.polyval(coeffs, roots)
            dv = np.polyval(dp, roots)
            step = np.where(dv != 0, fv / np.where(dv == 0, 1.0, dv), 0.0)
            roots = roots - step
        order = np.argsort(roots.real + 1e-9 * np.abs(roots.imag))
        return roots[order]

    def scale_of(energy: float) -> float:
        return float(poly_coeffs(energy)[0])

    return PhiFamily(roots_of=roots_of, scale_of=scale_of, label=label)


# A root counts as real when |Im| <= _REAL_TOL * (1 + |Re|). Root extraction
# splits a double root of Phi (the default Kepler family has one at t = 1/2 for
# every E) into two reals at some energies and into a conjugate pair at others.
# A tight threshold lets the real-root count flicker along the energy grid,
# which shifts the sorted indices the root pairs are keyed on: fake sign
# changes cost Brent solves, and genuine ones are lost. On the p_max = 1, 2, 3
# and 6 grids of eight Kepler/oscillator configurations the near-real roots
# reached a relative |Im| of 1.9e-6 (Kepler l = 1, p_max = 2), and no
# genuinely complex pair occurred. A pair that is complex beyond the threshold
# never yields a candidate: StructureFunction keeps only real parts, and the
# endpoint check rejects such a Phi.
_REAL_TOL = 1e-5


def _real_roots(roots: np.ndarray) -> np.ndarray:
    mask = np.abs(roots.imag) <= _REAL_TOL * (1.0 + np.abs(roots.real))
    return np.sort(roots.real[mask])


def _same(a: float, b: float) -> bool:
    """Equal up to the spread of Brent solves of one representation (~1e-9 in E)."""
    return abs(a - b) <= 1e-8 * (1.0 + max(abs(a), abs(b)))


def find_representations(family: PhiFamily, p_max: int,
                         closed_form: Optional[Callable[[int], RepresentationCandidate]] = None,
                         e_grid: Optional[np.ndarray] = None,
                         endpoint_tol: float = 1e-10,
                         strict: bool = False) -> list[RepresentationCandidate]:
    """All (u, E) pairs carrying a (p+1)-dimensional unitary representation, p <= p_max.

    With closed_form supplied (catalog systems) the candidates are evaluated
    from the closed forms and validated. Otherwise both endpoint constraints
    are solved by pairwise root matching: u sits on one root of the factored
    family and u + p + 1 on another, so each ordered root pair yields a
    one-dimensional root-finding problem in E, bracketed on e_grid and solved
    by Brent iteration. The real roots on e_grid do not depend on p and are
    extracted once. Survivors must have a strictly positive window.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    if closed_form is not None:
        return [closed_form(p) for p in range(p_max + 1)]
    if e_grid is None:
        raise NonConvergence("generic search needs an energy grid")
    e_grid = np.asarray(e_grid, dtype=float)
    grid_roots = [_real_roots(family.roots_of(energy)) for energy in e_grid]
    out: list[RepresentationCandidate] = []
    for p in range(p_max + 1):
        found = _solve_representations_at_p(family, p, e_grid, grid_roots, endpoint_tol)
        if not found and strict:
            raise NoRepresentation(p)
        out.extend(found)
    return out


def _solve_representations_at_p(family: PhiFamily, p: int, e_grid: np.ndarray,
                                grid_roots: list[np.ndarray],
                                endpoint_tol: float) -> list[RepresentationCandidate]:
    gaps = {}
    for energy, roots in zip(e_grid, grid_roots):
        for i in range(len(roots)):
            for j in range(len(roots)):
                if i == j:
                    continue
                gaps.setdefault((i, j), []).append((energy, roots[j] - roots[i] - (p + 1)))
    found: list[RepresentationCandidate] = []
    for (i, j), samples in gaps.items():
        for (e0, g0), (e1, g1) in zip(samples, samples[1:]):
            if not (np.isfinite(g0) and np.isfinite(g1)) or g0 * g1 > 0:
                continue
            if max(abs(g0), abs(g1)) < 1e-8:
                # gap identically p+1 across the bracket up to root-extraction
                # noise (double-root artifact, e.g. m1 = m2): not an isolated
                # solution
                continue

            def gap(energy, i=i, j=j):
                roots = _real_roots(family.roots_of(energy))
                if max(i, j) >= len(roots):
                    return np.nan
                return roots[j] - roots[i] - (p + 1)

            try:
                e_star = brentq(gap, e0, e1, xtol=1e-14, rtol=1e-15)
            except ValueError:
                continue
            # isolated-root check: a genuine solution leaves the gap clearly
            # nonzero a small step away; E-independent root spacings (double
            # roots sitting exactly p+1 apart) produce continuum artifacts
            delta = 1e-4 * (1.0 + abs(e_star))
            nearby = max(abs(gap(e_star - delta)), abs(gap(e_star + delta)))
            if not np.isfinite(nearby) or nearby < 1e-7:
                continue
            roots = _real_roots(family.roots_of(e_star))
            if max(i, j) >= len(roots):
                continue
            u = float(roots[i])
            cand = _candidate_from_family(family, p, u, float(e_star), endpoint_tol)
            if cand is None:
                continue
            if any(_same(f.u, cand.u) and _same(f.energy, cand.energy) for f in found):
                continue
            found.append(cand)
    found.sort(key=lambda c: (c.energy, c.u))
    return found


def _candidate_from_family(family: PhiFamily, p: int, u: float, energy: float,
                           endpoint_tol: float) -> Optional[RepresentationCandidate]:
    sf = family.structure_function(energy, u)
    endpoints = np.abs(sf.monic(np.array([0.0, p + 1.0])))
    if endpoints.max() > endpoint_tol:
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
