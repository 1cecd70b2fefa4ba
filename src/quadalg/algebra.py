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
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from ._record import Frozen, field_eq, set_fields
from .errors import DegenerateDenominator, NegativePhi, NotPolynomialInEnergy

_REALIZATION_NORM = 2**12 * 3  # 12288, the fixed prefactor in rho(N)


class QuadraticAlgebraConstants(Frozen):
    """Structure constants of the three-generator quadratic algebra.

    Fields follow [A,B] = C, [A,C] = gamma*{A,B} + epsilon_c*B + zeta_c,
    [B,C] = -gamma*B^2 + d_c*A + z_c, with every central charge already fixed
    to a number. casimir_value is the scalar the Casimir combination acts by.
    """

    __slots__ = ("gamma", "epsilon_c", "zeta_c", "d_c", "z_c", "casimir_value")

    def __init__(self, gamma: float, epsilon_c: float, zeta_c: float, d_c: float, z_c: float,
                 casimir_value: float):
        if gamma == 0:
            raise ValueError("gamma = 0 branch is not implemented")
        set_fields(self, gamma, epsilon_c, zeta_c, d_c, z_c, casimir_value)


class StructureFunction(Frozen):
    """Degree-6 structure function in factored form.

    Phi(x) = scale * prod_i (x + u - roots[i]). The stored scale is the signed
    leading coefficient; its magnitude is a free convention (rescaling Phi by
    any positive constant changes nothing observable) while its sign is fixed
    by positivity of Phi on the representation window.
    """

    __slots__ = ("roots", "scale", "u")
    __eq__ = field_eq

    def __init__(self, roots: tuple, scale: float, u: float = 0.0):
        if scale == 0:
            raise ValueError("scale must be nonzero")
        if len(roots) != 6:
            raise ValueError("need six roots")
        set_fields(self, roots, scale, u)

    def __call__(self, x):
        return self.scale * self.monic(x)

    def monic(self, x):
        """Evaluation with unit leading coefficient, for absolute residuals."""
        x = np.asarray(x, dtype=float)
        r = np.asarray(self.roots, dtype=float)
        return np.prod(x[..., None] + self.u - r, axis=-1)


class RepresentationCandidate(Frozen):
    """A (u, E) pair carrying a (p+1)-dimensional unitary representation."""

    __slots__ = ("p", "u", "energy", "phi_values", "sf", "endpoint_residual")
    __eq__ = field_eq

    def __init__(self, p: int, u: float, energy: float, phi_values: tuple,
                 sf: StructureFunction, endpoint_residual: float = 0.0):
        if p < 0:
            raise ValueError("p must be nonnegative")
        set_fields(self, p, u, energy, phi_values, sf, endpoint_residual)


class FockRealization(Frozen):
    """Explicit matrices of the deformed-oscillator realization on dim = p+1,
    for a stack of candidates: N is the (dim, dim) number operator they
    share; b_dag, b, A, B and C are (k, dim, dim), one matrix per candidate
    that built, and phi (k, p+2) holds its Phi(0..p+1), used for the shift
    entries. errors has one entry per candidate given: None where it built,
    else the DegenerateDenominator or NegativePhi it has no matrices for."""

    __slots__ = ("dim", "N", "b_dag", "b", "A", "B", "C", "phi", "errors")

    def __init__(self, dim: int, N: np.ndarray, b_dag: np.ndarray, b: np.ndarray,
                 A: np.ndarray, B: np.ndarray, C: np.ndarray, phi: np.ndarray,
                 errors: tuple):
        set_fields(self, dim, N, b_dag, b, A, B, C, phi, errors)


class OscillatorRealization(Frozen):
    """Closed forms A(N), b(N), rho(N) evaluated at integer levels n -> n + u,
    for a stack of realizations: member i has constants[i], offset u[i] and
    rho reading rho_convention[i]. A single realization is a stack of one.

    rho_convention selects between the printed rho expression and its square
    root. The square-root reading is the one under which the [B,C] relation
    and the Casimir close on the Fock matrices (see verify_commutation); the
    printed reading is kept for literal transcription checks.
    """

    __slots__ = ("constants", "u", "rho_convention")

    def __init__(self, constants: tuple, u: tuple, rho_convention: tuple):
        if not set(rho_convention) <= {"sqrt", "printed"}:
            raise ValueError("rho_convention must be 'sqrt' or 'printed'")
        set_fields(self, constants, u, rho_convention)

    def closed_forms(self, p: int) -> tuple:
        """((A, b, rho) at the levels n = 0..p of the members that are valid
        there, one row each; per member, the DegenerateDenominator that its
        levels meet, or None). A member is invalid where its rho denominator
        vanishes, or is negative under the square-root reading, or where b(N)
        has a pole."""
        y = np.arange(p + 1.0) + np.reshape(self.u, (-1, 1))
        den = (np.reshape([_REALIZATION_NORM * c.gamma**8 for c in self.constants], (-1, 1))
               * y * (1 + y) * (1 + 2 * y) ** 2)
        sqrt = np.array([r == "sqrt" for r in self.rho_convention], bool)
        zeta = np.reshape([c.zeta_c for c in self.constants], (-1, 1))
        undefined = (den == 0).any(axis=1) | (sqrt & (den < 0).any(axis=1))
        errors = [DegenerateDenominator(f"invalid u={u} for p={p}") if bad
                  else DegenerateDenominator(f"b(N) pole at u={u} for p={p}") if pole else None
                  for u, bad, pole in zip(self.u, undefined,
                                          ((zeta != 0) & (y * y == 0.25)).any(axis=1))]
        valid = [error is None for error in errors]
        y, den, zeta, printed = y[valid], den[valid], zeta[valid], ~sqrt[valid, None]
        half_g, shift, b_scale = np.reshape(
            [(c.gamma / 2, c.epsilon_c / c.gamma**2, -(c.zeta_c / c.gamma**2) if c.zeta_c else 0.0)
             for c in compress(self.constants, valid)], (-1, 3)).T[..., None]
        w = y * y - 0.25
        return (half_g * (w - shift), np.divide(b_scale, w, out=np.zeros_like(y), where=zeta != 0),
                np.where(printed, 1.0 / den, 1.0 / np.sqrt(np.where(printed, 1.0, den)))), errors


def oscillator_realization(c: QuadraticAlgebraConstants, u: float,
                           p: Optional[int] = None,
                           rho_convention: str = "sqrt") -> OscillatorRealization:
    """Closed-form realization functions for the gamma != 0 branch, as a stack
    of one; with p given, its levels 0..p must be valid (DegenerateDenominator)."""
    real = OscillatorRealization((c,), (u,), (rho_convention,))
    if p is not None and (error := real.closed_forms(p)[1][0]):
        raise error
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
    on; their roots come from polynomial root extraction, and their roots_of
    also takes a 1-D array of energies, returning one row of roots per energy.
    """

    roots_of: Callable
    scale_of: Callable[[float], float]
    coefficients: Optional[np.ndarray] = None

    def structure_function(self, energy: float, u: float) -> StructureFunction:
        return _structure_function(self, energy, u, self.roots_of(energy))


def _structure_function(family: PhiFamily, energy: float, u: float,
                        roots: np.ndarray) -> StructureFunction:
    # candidate roots are real up to extraction noise
    return StructureFunction(tuple(float(r) for r in np.real(roots)), family.scale_of(energy),
                             u=u)


_FIT_NODES = np.arange(-3.0, 4.0)     # seven nodes fix the degree-6 polynomial in t
_FIT_ENERGIES = np.array([-1.0, 0.0, 1.0])
_CHECK_ENERGY = 2.0
_ROUNDING = 1e-12     # relative size below which a coefficient is fit noise


def phi_family_from_constants(
        constants_at: Callable[[float], QuadraticAlgebraConstants]) -> PhiFamily:
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
    return phi_family_from_coefficients(coefficients)


def phi_family_from_coefficients(coefficients) -> PhiFamily:
    """Family of Phi(t; E) = sum_k E^k P_k(t), row k of coefficients holding P_k.

    The roots at each energy come from the companion matrix and get a Newton
    polish. roots_of(E) takes one energy, or a 1-D array of energies and then
    returns a list with one row of roots per energy; each row is, bit for bit,
    the roots of that energy alone. Complex roots are kept; the
    representation search accepts an endpoint only on a real one.
    """
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    powers = np.arange(len(coefficients))

    def poly_coeffs(energy: float) -> np.ndarray:
        return energy ** powers @ coefficients

    def roots_of(energy):
        rows = _polished_roots(np.array([poly_coeffs(e) for e in np.atleast_1d(energy)]))
        return rows[0] if np.ndim(energy) == 0 else rows

    def scale_of(energy: float) -> float:
        return float(poly_coeffs(energy)[0])

    return PhiFamily(roots_of=roots_of, scale_of=scale_of, coefficients=coefficients)


def _companion_groups(coeffs: np.ndarray):
    """(row indices, roots) of each set of rows of coeffs (highest power
    first) that strip alike, from one eigvals call per set.

    The roots of a row are np.roots of it: the eigenvalues of the companion
    matrix of the row stripped of leading and trailing zeros, then one zero
    per trailing zero. A set's roots are complex if any of its rows has a
    complex root; each root is, bit for bit, that of its row alone.
    """
    width = coeffs.shape[1]
    nonzero = coeffs != 0
    # a zero row has no roots, as a constant one
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), width - 1)
    last = width - 1 - nonzero[:, ::-1].argmax(axis=1)
    for f, l in sorted(set(zip(first.tolist(), last.tolist()))):
        rows = np.nonzero((first == f) & (last == l))[0]
        p = coeffs[rows, f:l + 1]
        roots = np.zeros((len(rows), 0))
        if l > f:
            companion = np.zeros((len(rows), l - f, l - f))
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            companion[:, np.arange(1, l - f), np.arange(l - f - 1)] = 1.0
            roots = np.linalg.eigvals(companion)
        yield rows, np.concatenate([roots, np.zeros((len(rows), width - 1 - l), roots.dtype)],
                                   axis=1)


def _polished_roots(coeffs: np.ndarray) -> list:
    """Polished, sorted roots of each row of coeffs (highest power first):
    its companion roots (_companion_groups), polished in real arithmetic if
    they are all real, as the row alone would be."""
    out = {}
    for rows, roots in _companion_groups(coeffs):
        real = (roots.imag == 0).all(axis=1)
        for part, part_roots in ((rows[real], roots[real].real), (rows[~real], roots[~real])):
            if len(part):
                out.update(zip(part, _polish(coeffs[part], part_roots)))
    return [out[k] for k in range(len(coeffs))]


def _polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Three Newton steps on each row of roots, keeping only the steps that
    lower |Phi|, then each row sorted by real part; Phi and Phi' are
    evaluated with np.polyval's operations."""
    def polyval(c, x):
        y = np.zeros_like(x)
        for k in range(c.shape[1]):
            y = y * x + c[:, k, None]
        return y

    dp = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)
    for _ in range(3):
        fv = polyval(coeffs, roots)
        dv = polyval(dp, roots)
        step = np.where(dv != 0, fv / np.where(dv == 0, 1.0, dv), 0.0)
        polished = roots - step
        # at a double root Phi' is rounding noise, and a full step can
        # throw both copies onto one wrong real value
        roots = np.where(np.abs(polyval(coeffs, polished)) < np.abs(fv), polished, roots)
    order = np.argsort(roots.real + 1e-9 * np.abs(roots.imag), axis=1)
    return np.take_along_axis(roots, order, axis=1)


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


def _roots(polys) -> list:
    """np.roots of each polynomial (highest power first) after dropping its
    leading coefficients that are fit noise, all from one stacked extraction
    (_companion_groups)."""
    width = max(map(len, polys), default=1)
    coeffs = np.zeros((len(polys), width))
    for row, poly in zip(coeffs, polys):
        row[width - len(poly):] = poly
    big = np.abs(coeffs) > _ROUNDING * np.abs(coeffs).max(axis=1, keepdims=True)
    coeffs[~np.logical_or.accumulate(big, axis=1)] = 0.0
    out = {k: r for rows, roots in _companion_groups(coeffs) for k, r in zip(rows, roots)}
    return [out[k] for k in range(len(polys))]


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

    lowest = min(_roots(nonzero), key=len)
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


def _shifted(polys: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """P(t + s) for each row P of polys (highest power first) and each s of
    spans, as an array of shape (len(spans),) + polys.shape. Each Horner step
    in t + s rounds as np.poly1d composition does: a convolution with (1, s),
    then the next coefficient added to the constant term."""
    s = spans[:, None, None]
    out = np.zeros((len(spans), len(polys), 1))
    for c in polys.T:
        out = np.concatenate([out, out[..., -1:] * s], axis=-1)
        out[..., 1:-1] += out[..., :-2] * s
        out[..., -1] += c
    return out[..., 1:]


def _energies_at(cofactor: np.ndarray, ts) -> list:
    """Per t of ts, the real E at which t is a root of the cofactor
    sum_k E^k Q_k, from one stacked extraction."""
    return [_real(r) for r in _roots(np.array([np.polyval(qk, ts) for qk in cofactor[::-1]]).T)]


def find_representations(family: PhiFamily, p_max: int,
                         energy_window: tuple) -> list[RepresentationCandidate]:
    """All (u, E) pairs carrying a (p+1)-dimensional unitary representation, p <= p_max.

    A search only, on a family with energy coefficients
    (phi_family_from_constants): u and u + p + 1 are found as zeros of Phi by
    elimination, for E inside energy_window.

    - the E-independent roots F (shared by every P_k) are split off, leaving
      the cofactor Q(t; E) = Phi / F;
    - both endpoints on moving roots: u is a real zero of the resultant in E
      of Q(u; E) and Q(u + p + 1; E), and E a real zero of Q(u; E);
    - one endpoint on a root r of F: E solves Q = 0 at the other endpoint,
      r + p + 1 or r - p - 1;
    - both endpoints on F hold for every E, a continuum with no energy of its
      own, so no candidate is built from them.

    Each root extraction of the elimination (the roots of the P_k, the
    resultant roots of every p, the E-roots of every endpoint) is one
    stacked solve. The (u, E) of every p inside the window are then finished
    together on the family's own extracted roots (one roots_of call per
    secant step for all of them, each seed equal bit for bit to another
    finished once), and survivors must have a strictly positive window.
    """
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    if family.coefficients is None:
        raise ValueError("the representation search needs a family with energy coefficients")
    lo, hi = energy_window
    shared = _energy_independent_roots(family.coefficients)
    cofactor = np.array([np.polydiv(pk, np.poly(shared).real)[0] for pk in family.coefficients])
    fixed = _real(shared)
    spans = np.arange(1.0, p_max + 2)  # p + 1
    resultants = [_resultant_in_energy(cofactor, q) for q in _shifted(cofactor, spans)]
    ends = []  # (p, u, t): a seed at u for each real E at which t is a root
    for p, (s, us) in enumerate(zip(spans, map(_real, _roots(resultants)))):
        ends += [(p, u, u) for u in us]
        for r in fixed:
            for other in (r + s, r - s):
                if np.any(np.abs(fixed - other) <= _ROOT_TOL * (1.0 + abs(other))):
                    continue  # both endpoints on F
                ends.append((p, min(r, other), other))
    energies = _energies_at(cofactor, [t for *_, t in ends])
    seeds = [(p, u, e) for (p, u, _), es in zip(ends, energies) for e in es if lo <= e <= hi]
    found: dict[int, list[RepresentationCandidate]] = {p: [] for p in range(p_max + 1)}
    # a seed equal bit for bit to an earlier one would finish as a duplicate
    for cand in _finish(family, list(dict.fromkeys(seeds))):
        if cand is None or any(_same(f.u, cand.u) and _same(f.energy, cand.energy)
                               for f in found[cand.p]):
            continue
        found[cand.p].append(cand)
    return [c for p in found for c in sorted(found[p], key=lambda c: (c.energy, c.u))]


def _finish(family: PhiFamily, seeds: list) -> list[Optional[RepresentationCandidate]]:
    """Candidates at the eliminated (p, u, E) seeds, solved again on the
    extracted roots, in seed order (None where a seed does not close).

    Per seed, u snaps to the nearest root of the family at E, u + p + 1 to
    the nearest other one, and E solves their gap
    roots[j] - roots[i] - (p + 1) = 0 by secant steps from the seed, keeping
    the energy of the smallest |gap| met. The seeds are real solutions, so
    both roots are real up to extraction noise. All seeds, of every p, step
    together: each step extracts the roots of every seed still stepping in
    one family.roots_of call, and a seed stops on its own when its gap
    vanishes, stalls or its step falls below rounding.
    """
    if not seeds:
        return []
    ps, us, energies = zip(*seeds)
    spans = [p + 1.0 for p in ps]
    rows = family.roots_of(np.array(energies))
    ends = [(int(np.argmin(np.abs(roots - u))), int(np.argmin(np.abs(roots - (u + s)))))
            for roots, s, u in zip(rows, spans, us)]

    def gap(k, roots):
        i, j = ends[k]
        return roots[j].real - roots[i].real - spans[k]

    best = [(abs(gap(k, roots)), e, roots) for k, (roots, e) in enumerate(zip(rows, energies))]
    # (e0, g0, e1) of every seed still stepping
    secant = {k: (e, gap(k, roots), e + 1e-8 * (1.0 + abs(e)))
              for k, (roots, e) in enumerate(zip(rows, energies))}
    for _ in range(_SECANT_STEPS):
        if not secant:
            break
        stepping = list(secant)
        rows = family.roots_of(np.array([secant[k][2] for k in stepping]))
        for k, roots in zip(stepping, rows):
            e0, g0, e1 = secant.pop(k)
            g1 = gap(k, roots)
            if abs(g1) < best[k][0]:
                best[k] = (abs(g1), e1, roots)
            if not (g1 == 0 or g1 == g0 or abs(e1 - e0) <= 1e-15 * (1.0 + abs(e1))):
                secant[k] = (e1, g1, e1 - g1 * (e1 - e0) / (g1 - g0))
    return [_candidate(family, ps[k], float(roots[ends[k][0]].real), float(energy), roots)
            for k, (_, energy, roots) in enumerate(best)]


def _candidate(family: PhiFamily, p: int, u: float, energy: float,
               roots: np.ndarray) -> Optional[RepresentationCandidate]:
    """The representation at (u, E) on the family's roots at E, if its
    endpoints are zeros of Phi and its window is positive."""
    sf = _structure_function(family, energy, u, roots)
    endpoints = np.abs(sf.monic(np.array([0.0, p + 1.0])))
    if endpoints.max() > _ENDPOINT_TOL:
        return None
    window = sf(np.arange(1, p + 1, dtype=float)) if p >= 1 else np.empty(0)
    if p >= 1 and window.min() <= 0:
        return None
    return RepresentationCandidate(p=p, u=u, energy=energy,
                                   phi_values=tuple(float(v) for v in window),
                                   sf=sf, endpoint_residual=float(endpoints.max()))


def build_fock_realization(sfs: Sequence[StructureFunction],
                           realization: OscillatorRealization, p: int) -> FockRealization:
    """Explicit (p+1)-dimensional matrices N, b, b^dag, A, B, C of a stack of
    candidates, candidate i being sfs[i] on member i of the realization.

    b^dag carries sqrt(Phi(n)) on the subdiagonal, A is diagonal, and
    B = b(N) + b^dag rho(N) + rho(N) b; C is the literal matrix commutator.
    A candidate whose levels are invalid (DegenerateDenominator) or whose Phi
    is negative inside the window (NegativePhi) gets no matrices; errors
    holds that exception in its place.
    """
    n = np.arange(p + 1)
    rows, errors = realization.closed_forms(p)
    phi = np.reshape([sf(np.arange(0, p + 2, dtype=float))
                      for sf, error in zip(sfs, errors, strict=True) if error is None], (-1, p + 2))
    valid = [i for i, error in enumerate(errors) if error is None]
    for i, window in zip(valid, phi[:, 1:p + 1]):
        if np.any(window < 0):
            errors[i] = NegativePhi(f"Phi negative inside the window: {window}")
    built = [errors[i] is None for i in valid]
    A, b_n, rho = (_diag(r[built]) for r in rows)
    phi = phi[built]
    b_dag = np.zeros((len(phi), p + 1, p + 1))
    b_dag[:, n[1:], n[:-1]] = np.sqrt(phi[:, 1:p + 1])
    b = b_dag.transpose(0, 2, 1).copy()
    B = b_n + b_dag @ rho + rho @ b
    C = A @ B - B @ A
    return FockRealization(p + 1, np.diag(n.astype(float)), b_dag, b, A, B, C, phi, tuple(errors))


def fock_invariant_residuals(f: FockRealization) -> list[dict]:
    """Shift-structure and ladder-product residuals of each matrix set of the
    stack, relative to its entry scale."""
    scale_b = np.maximum(1.0, _absmax(f.b_dag))
    scale_phi = np.maximum(1.0, np.abs(f.phi).max(axis=1))
    shift = np.maximum(_absmax(f.N @ f.b_dag - f.b_dag @ f.N - f.b_dag),
                       _absmax(f.N @ f.b - f.b @ f.N + f.b)) / scale_b
    ladder = np.maximum(_absmax(f.b @ f.b_dag - _diag(f.phi[:, 1:])),
                        _absmax(f.b_dag @ f.b - _diag(f.phi[:, :-1]))) / scale_phi
    return [{"shift": float(s), "ladder": float(lad)} for s, lad in zip(shift, ladder)]


def _comm(x, y):
    return x @ y - y @ x


def _anti(x, y):
    return x @ y + y @ x


def _per_matrix(cs: Sequence[QuadraticAlgebraConstants], *fields: str) -> np.ndarray:
    """The named fields of the constants of each matrix set of a stack, one
    (k, 1, 1) array per field, to scale the (k, d, d) stack by."""
    return np.array([[getattr(c, name) for c in cs] for name in fields], float)[..., None, None]


class CommutationReport(Frozen):
    """Max-norm residuals of the defining relations, relative to the largest term."""

    __slots__ = ("r_ac", "r_bc", "jacobi")

    def __init__(self, r_ac: float, r_bc: float, jacobi: float):
        set_fields(self, r_ac, r_bc, jacobi)

    def max_relation_residual(self) -> float:
        return max(self.r_ac, self.r_bc)


def verify_commutation(f: FockRealization,
                       cs: Sequence[QuadraticAlgebraConstants]) -> list[CommutationReport]:
    """Residuals of the [A,C] and [B,C] relations and of the Jacobi identity
    of each matrix set of the stack under its constants cs[i]; [A,B] = C holds
    by construction (build_fock_realization)."""
    g, e, zt, d, z = _per_matrix(cs, "gamma", "epsilon_c", "zeta_c", "d_c", "z_c")
    AC, BC, CA = _comm(f.A, f.C), _comm(f.B, f.C), _comm(f.C, f.A)
    g_anti, eB, dA = g * _anti(f.A, f.B), e * f.B, d * f.A
    rhs_ac = g_anti + eB + zt * np.eye(f.dim)
    rhs_bc = -g * f.B @ f.B + dA + z * np.eye(f.dim)
    # floors reflect the natural magnitude of the algebra so that relations
    # whose every term vanishes (possible at dim 1) read as satisfied
    scale_ac = np.maximum.reduce([
        _absmax(AC), _absmax(g_anti), _absmax(eB),
        [max(abs(c.zeta_c), abs(c.epsilon_c), abs(c.gamma), 1.0) for c in cs]])
    scale_bc = np.maximum.reduce([
        _absmax(BC), _absmax(g * f.B @ f.B), _absmax(dA),
        [max(abs(c.z_c), abs(c.d_c), abs(c.gamma), 1.0) for c in cs]])
    jac = _comm(f.A, BC) + _comm(f.B, CA) + _comm(f.C, _comm(f.A, f.B))
    scale_j = np.maximum.reduce([_absmax(BC), _absmax(CA), _absmax(f.C @ f.C), np.ones(len(cs))])
    return [CommutationReport(r_ac=float(r_ac), r_bc=float(r_bc), jacobi=float(jacobi))
            for r_ac, r_bc, jacobi in zip(_absmax(AC - rhs_ac) / scale_ac,
                                          _absmax(BC - rhs_bc) / scale_bc,
                                          _absmax(jac) / scale_j)]


class CasimirReport(Frozen):
    """Casimir matrix diagnostics: scalarness and the value it acts by."""

    __slots__ = ("value", "expected", "off_diagonal", "commutant_a", "commutant_b")

    def __init__(self, value: float, expected: float, off_diagonal: float,
                 commutant_a: float, commutant_b: float):
        set_fields(self, value, expected, off_diagonal, commutant_a, commutant_b)


def verify_casimir(f: FockRealization,
                   cs: Sequence[QuadraticAlgebraConstants]) -> list[CasimirReport]:
    """Casimir combination on each matrix set of the stack versus the scalar
    of its constants cs[i]."""
    g, zt, d, z = _per_matrix(cs, "gamma", "zeta_c", "d_c", "z_c")
    K = (f.C @ f.C - g * _anti(f.A, f.B @ f.B)
         + np.reshape([c.gamma**2 - c.epsilon_c for c in cs], (-1, 1, 1)) * f.B @ f.B
         - 2 * zt * f.B + d * f.A @ f.A + 2 * z * f.A)
    diag = np.ascontiguousarray(np.diagonal(K, axis1=1, axis2=2))
    return [CasimirReport(value=float(value), expected=c.casimir_value,
                          off_diagonal=float(off), commutant_a=float(ka), commutant_b=float(kb))
            for c, value, off, ka, kb in zip(cs, diag.mean(axis=1), _absmax(K - _diag(diag)),
                                             _absmax(_comm(K, f.A)), _absmax(_comm(K, f.B)))]


def check_fock(p: int, cases: Sequence[tuple]) -> list:
    """Each case (constants c, structure function sf, u, rho reading) as a
    (p+1)-dimensional realization of sf at u under c, all checked as one
    stack: per case, its (Fock invariants, relation residuals, Casimir
    diagnostics), or the DegenerateDenominator or NegativePhi it has no
    matrices for. A case checked alone, as a stack of one, gives the same bits.
    """
    cs, sfs, us, rhos = (tuple(case[i] for case in cases) for i in range(4))
    fock = build_fock_realization(sfs, OscillatorRealization(cs, us, rhos), p)
    built = list(compress(cs, [error is None for error in fock.errors]))
    checks = zip(fock_invariant_residuals(fock), verify_commutation(fock, built),
                 verify_casimir(fock, built))
    return [error or next(checks) for error in fock.errors]


def _bc_diagonal_recurrence(rhs, g: float, u: float) -> np.ndarray:
    """G(n) = rho(n)^2 Phi(n+1) from the diagonal of the [B,C] relation, a
    first-order recurrence seeded by Phi(0) = 0, for the right side rhs(n)."""
    G = np.zeros(len(rhs))
    for n in range(len(rhs)):
        y = n + u
        prev = G[n - 1] if n > 0 else 0.0
        G[n] = (rhs[n] + 2 * g * (y - 1) * prev) / (2 * g * (y + 1))
    return G


class RelationFit(Frozen):
    """Least-squares (d, z, scale) that close the [B,C] relation for a given window."""

    __slots__ = ("d", "z", "scale", "residual")

    def __init__(self, d: float, z: float, scale: float, residual: float):
        set_fields(self, d, z, scale, residual)


def fit_relation_constants(c: QuadraticAlgebraConstants, u: float,
                           sf: StructureFunction, p: int) -> RelationFit:
    """Fit (d, z, Phi-scale) so the [B,C] diagonal closes, holding gamma, epsilon, zeta,
    under the square-root reading of rho.

    The fit is meaningful when zeta != 0 (otherwise rescaling B leaves a gauge
    family and only the ratio z/d is determined; the scale is then pinned to
    the general-polynomial leading coefficient instead).
    """
    ((a,), (b,), (rho,)), _ = oscillator_realization(c, u, p=p).closed_forms(p)
    g = c.gamma
    phihat = sf.monic(np.arange(0, p + 2, dtype=float))
    window_sign = np.sign(phihat[1]) if p >= 1 else -1.0
    phihat = phihat * window_sign  # window-positive, unit |leading|

    Gd = _bc_diagonal_recurrence(a, g, u)
    Gz = _bc_diagonal_recurrence(np.ones(p + 1), g, u)
    G0 = _bc_diagonal_recurrence(-g * b ** 2, g, u)
    rho2 = rho ** 2
    target = rho2 * phihat[1:]
    if abs(c.zeta_c) > 0 and p >= 2:
        # B normalization pinned by zeta: (d, z, scale) all absolute
        M = np.column_stack([Gd, Gz, -target])
        sol, *_ = np.linalg.lstsq(M, -G0, rcond=None)
        pred = M @ sol
        resid = np.abs(pred + G0).max() / max(np.abs(pred).max(), np.abs(G0).max(), 1e-300)
        return RelationFit(d=float(sol[0]), z=float(sol[1]), scale=float(sol[2]),
                           residual=float(resid))
    # zeta = 0 leaves a B-rescaling gauge (and p < 2 underdetermines the full
    # fit); pin the scale to the general polynomial's leading coefficient and
    # fit (d, z) in that gauge
    scale = abs(general_phi_leading_coefficient(c))
    M = np.column_stack([Gd, Gz])
    sol, *_ = np.linalg.lstsq(M, scale * target - G0, rcond=None)
    pred = M @ sol + G0
    resid = np.abs(pred - scale * target).max() / max(np.abs(scale * target).max(), 1e-300)
    return RelationFit(d=float(sol[0]), z=float(sol[1]), scale=float(scale),
                       residual=float(resid))


def _absmax(x: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix of a (k, d, d) stack."""
    return np.abs(x).max(axis=(1, 2))


def _diag(rows: np.ndarray) -> np.ndarray:
    """The (k, d, d) stack of diagonal matrices of the rows of a (k, d) array."""
    out = np.zeros(rows.shape + rows.shape[-1:])
    np.einsum("kii->ki", out)[...] = rows
    return out
