import dataclasses

import numpy as np
import pytest

from quadalg import algebra as alg
from quadalg import catalog as cat
from quadalg import cli
from quadalg.errors import DegenerateDenominator, NegativePhi, NotPolynomialInEnergy


# -- reference oracles ---------------------------------------------------------

def relation_phi_recurrence(c, u, p):
    """Structure-function values Phi(0..p+1) forced by the [B,C] relation.

    Independent of any printed Phi formula: the diagonal part of the [B,C]
    relation fixes G(n) = rho(n)^2 Phi(n+1), and dividing out rho^2 (the
    square-root reading) recovers Phi. Used as an oracle against the factored
    and general printed forms.
    """
    real = alg.oscillator_realization(c, u, p=p)
    ((a,), (b,), (rho,)), _ = real.closed_forms(p)
    G = alg._bc_diagonal_recurrence(-c.gamma * b ** 2 + c.d_c * a + c.z_c, c.gamma, u)
    return np.concatenate([[0.0], G / rho ** 2])


def _kepler_pure():
    return cat.Kepler5DParams(c0=1.0, c1=0.0, c2=0.0, l=0.0)


def _osc_pure():
    return cat.Oscillator8DParams()


# -- realization closed forms ------------------------------------------------

def test_realization_A_at_printed_example():
    # u = 1/2, gamma = 2, eps = 8, N = 0 -> A(0) = -2
    c = alg.QuadraticAlgebraConstants(gamma=2.0, epsilon_c=8.0, zeta_c=0.0,
                                      d_c=0.0, z_c=0.0, casimir_value=0.0)
    real = alg.oscillator_realization(c, u=0.5)
    ((A,), _, _), _ = real.closed_forms(0)
    assert A == pytest.approx([-2.0])


def test_realization_b_vanishes_for_zero_zeta():
    c = alg.QuadraticAlgebraConstants(gamma=2.0, epsilon_c=8.0, zeta_c=0.0,
                                      d_c=1.0, z_c=1.0, casimir_value=0.0)
    # levels 0..5 from u = 1/2: n + u = 1/2 is the pole of b(N) when zeta != 0
    (_, b, _), (error,) = alg.oscillator_realization(c, u=0.5).closed_forms(5)
    assert error is None and b.shape == (1, 6) and np.all(b == 0.0)


def test_realization_degenerate_denominator():
    c = alg.QuadraticAlgebraConstants(gamma=2.0, epsilon_c=8.0, zeta_c=0.0,
                                      d_c=1.0, z_c=1.0, casimir_value=0.0)
    with pytest.raises(DegenerateDenominator):
        alg.oscillator_realization(c, u=-0.5, p=0)
    with pytest.raises(DegenerateDenominator):
        alg.oscillator_realization(c, u=-2.0, p=2)  # hits n + u = 0


def test_gamma_zero_rejected():
    with pytest.raises(ValueError):
        alg.QuadraticAlgebraConstants(gamma=0.0, epsilon_c=1.0, zeta_c=0.0,
                                      d_c=0.0, z_c=0.0, casimir_value=0.0)


# -- general structure-function polynomial -----------------------------------

def test_general_phi_zeroed_constants_vanishes():
    # with eps = zeta = d = z = K = 0 every additive block carries a zero factor
    c = alg.QuadraticAlgebraConstants(gamma=2.0, epsilon_c=0.0, zeta_c=0.0,
                                      d_c=0.0, z_c=0.0, casimir_value=0.0)
    xs = np.linspace(-3, 3, 11)
    assert np.abs(alg.structure_function_general(c, 0.5, xs)).max() == 0.0


def test_general_phi_matches_factored_for_oscillator():
    # pure-oscillator constants on the energy shell: the general polynomial
    # equals the factored form exactly, including the overall scale
    p = _osc_pure()
    cons = cat.osc8d_constants(p)
    fam = cat.osc8d_phi_family(p)
    energy = cat.osc8d_spectrum(p, 1).energy
    c = cons.at_energy(energy)
    xs = np.linspace(-2.5, 3.5, 9)
    general = alg.structure_function_general(c, 0.0, xs)
    factored = fam.structure_function(energy, 0.0)(xs)
    assert np.abs(general - factored).max() < 1e-9 * np.abs(general).max()


def test_general_phi_vs_kepler_factored_scale_fit_documents_mismatch():
    # the catalog factored form and the general polynomial disagree beyond a
    # constant rescaling for the Kepler constants; the fit quantifies it
    p = _kepler_pure()
    cons = cat.kepler5d_constants(p)
    fam = cat.kepler5d_phi_family(p)
    energy = -1.0 / 9.0
    c = cons.at_energy(energy)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 4, 22)
    general = alg.structure_function_general(c, 0.0, xs)
    factored = fam.structure_function(energy, 0.0)(xs)
    scale = float(general[:2] @ factored[:2]) / float(factored[:2] @ factored[:2])
    mismatch = np.abs(general - scale * factored).max() / np.abs(general).max()
    assert mismatch > 1e-3  # recorded inconsistency, not an artifact bug


def test_general_phi_leading_coefficient_matches_polyfit():
    p = _kepler_pure()
    c = cat.kepler5d_constants(p).at_energy(-0.05)
    nodes = np.linspace(-3, 3, 7)
    coeffs = np.polyfit(nodes, alg.structure_function_general(c, 0.0, nodes), 6)
    assert coeffs[0] == pytest.approx(alg.general_phi_leading_coefficient(c), rel=1e-9)


# -- StructureFunction -------------------------------------------------------

def test_structure_function_roots_vs_expanded_polynomial():
    sf = alg.StructureFunction(roots=(0.0, 2.0, 3.5, 4.0, 7.25, 9.0), scale=-3.0, u=0.5)
    xs = np.linspace(-2, 10, 23)
    via_roots = sf(xs)
    via_poly = np.polyval(sf.scale * np.poly(np.asarray(sf.roots) - sf.u), xs)
    assert np.abs(via_roots - via_poly).max() < 1e-12 * np.abs(via_roots).max()


def test_structure_function_vanishes_at_roots():
    sf = alg.StructureFunction(roots=(-1.5, 0.5, 0.5, 2.5, -2.0, 3.0), scale=2.0, u=0.0)
    for r in sf.roots:
        assert sf(float(r)) == pytest.approx(0.0, abs=1e-12)


# -- representation search ---------------------------------------------------

def test_find_representations_oscillator_matches_closed_form():
    # pure oscillator towers: solver output agrees with E = 2(p+2) exactly
    p = _osc_pure()
    fam = _general_family(cat.osc8d_constants(p))
    sols = alg.find_representations(fam, 2, energy_window=cat.osc8d_energy_window(p, 2))
    for rp in range(3):
        expected = 2.0 * (rp + 2)
        matches = [s for s in sols if s.p == rp and abs(s.energy - expected) < 1e-9]
        assert matches, f"missing p={rp} tower energy {expected}"
        for s in matches:
            assert np.all(np.asarray(s.phi_values) > 0) or s.p == 0
            assert s.endpoint_residual < 1e-10


def test_find_representations_positivity_window():
    # any catalog window form is positive on the interior integers and zero at
    # the endpoints
    p = _osc_pure()
    cand = cat.osc8d_closed_form(p)(3)
    assert np.asarray(cand.phi_values).min() > 0
    assert abs(cand.sf.monic(0.0)) < 1e-12
    assert abs(cand.sf.monic(4.0)) < 1e-12


def test_find_representations_scale_invariance():
    # multiplying the family scale by a positive constant leaves (p, u, E) fixed
    p = _osc_pure()
    fam = _general_family(cat.osc8d_constants(p))
    fam2 = alg.phi_family_from_coefficients(7.5 * fam.coefficients)
    window = cat.osc8d_energy_window(p, 1)
    a = alg.find_representations(fam, 1, energy_window=window)
    b = alg.find_representations(fam2, 1, energy_window=window)
    key = lambda s: (s.p, round(s.u, 8), round(s.energy, 8))
    assert a and sorted(map(key, a)) == sorted(map(key, b))


def test_solver_recovers_physical_kepler_tower():
    # honest solve on the general polynomial family built from the
    # operator-verified constants; frozen oracle: the pure-system bound tower
    # -c0^2 / (2 (p+2)^2), cross-checked by the radial/parabolic oracles
    p = _kepler_pure()
    cons = cat.kepler5d_constants(p)
    fam = alg.phi_family_from_constants(cons.at_energy)
    sols = alg.find_representations(fam, 2, energy_window=cat.kepler5d_energy_window(p, 2))
    for rp, expected in ((1, -1.0 / 18.0), (2, -1.0 / 32.0)):
        close = [s for s in sols if s.p == rp and abs(s.energy - expected) < 1e-9]
        assert close, f"tower energy {expected} not found at p={rp}"
        verified = 0
        for s in close:
            cc = cons.at_energy(s.energy)
            try:
                real = alg.oscillator_realization(cc, s.u, p=s.p, rho_convention="sqrt")
            except DegenerateDenominator:
                continue
            fock = alg.build_fock_realization([s.sf], real, s.p)
            (rep,), (cas,) = alg.verify_commutation(fock, [cc]), alg.verify_casimir(fock, [cc])
            if rep.max_relation_residual() < 1e-9 and \
                    abs(cas.value - cas.expected) <= 1e-9 * max(1, abs(cas.expected)):
                verified += 1
        assert verified >= 1


def _general_family(constants):
    return alg.phi_family_from_constants(constants.at_energy)


def test_coefficient_family_is_linear_for_kepler_quadratic_for_the_oscillator():
    # P_k that vanish to rounding are dropped, and the model reproduces the
    # direct fit of Phi at energies it was not built from
    for constants, degree, energy in ((cat.kepler5d_constants(_kepler_pure()), 1, -0.07),
                                      (cat.osc8d_constants(_osc_pure()), 2, 5.5)):
        fam = _general_family(constants)
        assert len(fam.coefficients) == degree + 1
        nodes = np.arange(-3.0, 4.0)
        direct = np.polyfit(
            nodes, alg.structure_function_general(constants.at_energy(energy), 0.0, nodes), 6)
        model = energy ** np.arange(degree + 1) @ fam.coefficients
        assert np.abs(model - direct).max() < 1e-9 * np.abs(direct).max()


def test_constants_cubic_in_energy_are_refused():
    # the elimination assumes Phi is at most quadratic in E; constants that
    # break it must stop the search before any representation is reported
    kepler = cat.kepler5d_constants(_kepler_pure())

    def cubic(energy):
        c = kepler.at_energy(energy)
        return alg.QuadraticAlgebraConstants(
            gamma=c.gamma, epsilon_c=c.epsilon_c, zeta_c=c.zeta_c,
            d_c=c.d_c + 0.5 * energy**3, z_c=c.z_c, casimir_value=c.casimir_value)

    with pytest.raises(NotPolynomialInEnergy, match="degree <= 2"):
        alg.phi_family_from_constants(cubic)


def test_solver_finds_u_three_halves_at_every_dimension():
    # u = +3/2 closes at E = -c0^2 / (2 (p+2)^2) for each p; the p = 3 one was
    # hidden when the real-root count flickered along the grid
    p = _kepler_pure()
    fam = _general_family(cat.kepler5d_constants(p))
    sols = alg.find_representations(fam, 3, energy_window=cat.kepler5d_energy_window(p, 3))
    for rp in range(4):
        assert any(s.p == rp and abs(s.u - 1.5) < 1e-6
                   and abs(s.energy + 0.5 / (rp + 2) ** 2) < 1e-9 for s in sols), rp


def test_solver_reports_each_representation_once():
    # two solves of one representation differ by ~1e-9 in E; the search
    # keeps one of them
    p = cat.Kepler5DParams(c1=0.25, l=3.0)
    fam = _general_family(cat.kepler5d_constants(p))
    sols = alg.find_representations(fam, 3, energy_window=cat.kepler5d_energy_window(p, 3))

    def same(x, y):
        return abs(x - y) <= 1e-8 * (1.0 + max(abs(x), abs(y)))

    for a_idx, a in enumerate(sols):
        for b in sols[a_idx + 1:]:
            assert not (a.p == b.p and same(a.u, b.u) and same(a.energy, b.energy)), \
                (a.p, a.u, a.energy, b.u, b.energy)


def test_solver_extracts_few_roots():
    # elimination seeds every (u, E); roots are extracted only to finish them
    p = _kepler_pure()
    gen = _general_family(cat.kepler5d_constants(p))
    calls = []

    def roots_of(energy):
        calls.append(energy)
        return gen.roots_of(energy)

    fam = dataclasses.replace(gen, roots_of=roots_of)
    p_max = 3
    sols = alg.find_representations(fam, p_max,
                                    energy_window=cat.kepler5d_energy_window(p, p_max))
    # per p, one batched call at the seeds and one per secant step
    assert sols and len(calls) <= (p_max + 1) * (1 + alg._SECANT_STEPS)


_SEARCHED = [
    (cat.kepler5d_constants, cat.kepler5d_energy_window, _kepler_pure()),
    (cat.kepler5d_constants, cat.kepler5d_energy_window,
     cat.Kepler5DParams(c1=0.25, c2=0.1, l=1.0)),
    (cat.osc8d_constants, cat.osc8d_energy_window, cat.Oscillator8DParams(lambda1=0.5,
                                                                          lambda2=0.3)),
]


@pytest.mark.parametrize("constants, window, params", _SEARCHED)
def test_search_of_every_p_equals_the_search_up_to_each_p(constants, window, params):
    # the seeds of every p are finished together; each p's candidates are,
    # bit for bit, those of a search that stops at that p
    gen = _general_family(constants(params))
    every = alg.find_representations(gen, 3, energy_window=window(params, 3))
    assert every
    for k in range(3):
        alone = alg.find_representations(gen, k, energy_window=window(params, 3))
        assert [c for c in every if c.p <= k] == alone


@pytest.mark.parametrize("constants, window, params", _SEARCHED)
def test_search_extracts_roots_once_per_secant_step(constants, window, params):
    # one batched call at the seeds of every p, then one per secant step
    gen = _general_family(constants(params))
    calls = []

    def roots_of(energy):
        calls.append(energy)
        return gen.roots_of(energy)

    fam = dataclasses.replace(gen, roots_of=roots_of)
    assert alg.find_representations(fam, 3, energy_window=window(params, 3))
    assert len(calls) <= 1 + alg._SECANT_STEPS


@pytest.mark.parametrize("constants, window, params",
                         [(cat.kepler5d_constants, cat.kepler5d_energy_window,
                           cat.Kepler5DParams())] + _SEARCHED)
def test_search_makes_few_stacked_eigen_solves(constants, window, params, monkeypatch):
    # the elimination extracts the shared roots, the resultant roots of every
    # p and the E-roots of every u in a few stacked solves (one np.roots per
    # polynomial made 43 on the default Kepler family); the finish makes one
    # per roots_of call
    solves, finish = [], alg._finish
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solves.append(a.shape) or eigvals(a))
    monkeypatch.setattr(alg, "_finish", lambda *a: solves.append("finish") or finish(*a))
    assert alg.find_representations(_general_family(constants(params)), 3,
                                    energy_window=window(params, 3))
    split = solves.index("finish")
    assert split <= 4 and len(solves) - split - 1 <= alg._SECANT_STEPS + 1


def test_stacked_root_extraction_equals_np_roots_of_each_polynomial():
    # polynomials of several lengths, leading coefficients of fit-noise size,
    # trailing zeros and a zero polynomial, in one stack
    rng = np.random.default_rng(5)
    polys = [rng.normal(size=n) for n in (1, 2, 3, 5, 7, 7)]
    polys[3][:2] = (1e-14, -2e-13)
    polys[4][-2:] = 0.0
    polys += [np.zeros(4), np.array([3e-13, 0.0, 2.0, -1.0])]
    for poly, roots in zip(polys, alg._roots(polys)):
        big = np.nonzero(np.abs(poly) > alg._ROUNDING * np.abs(poly).max())[0]
        alone = np.roots(poly[big[0]:]) if len(big) else np.empty(0)
        assert np.array_equal(roots, alone)


def test_shifted_polynomials_equal_poly1d_composition():
    # the elimination's Q(t + p + 1), bit for bit as np.poly1d composes them
    rng = np.random.default_rng(6)
    polys = rng.normal(size=(3, 5)) * 10.0 ** rng.integers(-6, 6, size=(3, 5))
    polys[2, 0] = 0.0
    spans = np.arange(1.0, 6.0)
    for s, shifted in zip(spans, alg._shifted(polys, spans)):
        for poly, row in zip(polys, shifted):
            composed = np.poly1d(poly)(np.poly1d([1.0, s])).coeffs
            assert np.array_equal(row[len(row) - len(composed):], composed)
            assert not row[:len(row) - len(composed)].any()


def _roots_one_at_a_time(coeffs):
    """The roots of one polynomial as np.roots, np.polyval and np.argsort give them."""
    roots = np.roots(coeffs)
    dp = np.polyder(coeffs)
    for _ in range(3):
        fv = np.polyval(coeffs, roots)
        dv = np.polyval(dp, roots)
        step = np.where(dv != 0, fv / np.where(dv == 0, 1.0, dv), 0.0)
        polished = roots - step
        roots = np.where(np.abs(np.polyval(coeffs, polished)) < np.abs(fv), polished, roots)
    return roots[np.argsort(roots.real + 1e-9 * np.abs(roots.imag))]


def test_batched_roots_equal_the_roots_of_each_energy():
    # Phi = (t^2 - E) R(t): the pair +-sqrt(E) is real for E >= 0 and complex
    # for E < 0, and eigvals returns a real array only when every root of the
    # stack is real
    rest = np.poly([1.0, 2.5, -3.0, 4.0])
    fam = alg.phi_family_from_coefficients([np.polymul([1.0, 0.0, 0.0], rest),
                                            np.concatenate([[0.0, 0.0], -rest])])
    energies = np.array([0.5, -0.5, 2.0, 0.0, -3.0, 1e-3])
    rows = fam.roots_of(energies)
    assert len(rows) == len(energies)
    assert [np.iscomplexobj(r) for r in rows] == [False, True, False, False, True, False]
    for energy, row in zip(energies, rows):
        alone = fam.roots_of(energy)
        assert np.array_equal(row, alone) and row.dtype == alone.dtype
        assert np.array_equal(alone, _roots_one_at_a_time(energy ** np.arange(2) @
                                                          fam.coefficients))


def test_batched_roots_follow_np_roots_on_stripped_zeros():
    # leading zeros drop roots, trailing zeros add zero roots, a zero
    # polynomial has none: rows stripped alike share one eigvals call
    rng = np.random.default_rng(3)
    for zeros in ((), (0,), (6,), (0, 1, 6), tuple(range(7))):
        coefficients = rng.normal(size=(3, 7))
        coefficients[:, list(zeros)] = 0.0
        energies = rng.normal(size=5)
        fam = alg.phi_family_from_coefficients(coefficients)
        for energy, row in zip(energies, fam.roots_of(energies)):
            alone = _roots_one_at_a_time(energy ** np.arange(3) @ coefficients)
            assert np.array_equal(row, alone) and row.dtype == alone.dtype, zeros
    # a family that loses its leading coefficient at E = 1 only
    fam = alg.phi_family_from_coefficients([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    assert [len(r) for r in fam.roots_of(np.array([0.0, 1.0, 2.0]))] == [2, 1, 2]


def test_solver_builds_no_candidate_from_a_complex_root():
    # Phi = (t - E)(t - 1 - 0.5i)(t - 1 + 0.5i)(t - 10)(t - 20)(t - 30): the
    # complex pair sits exactly 1 to the right of the moving root t = E at
    # E = 0; taking real parts of every root would close a p = 0
    # representation there
    rest = np.real(np.poly([1 + 0.5j, 1 - 0.5j, 10.0, 20.0, 30.0]))
    fam = alg.phi_family_from_coefficients([np.polymul([1.0, 0.0], rest),
                                            np.concatenate([[0.0], -rest])])
    assert alg.find_representations(fam, 0, energy_window=(-1.0, 1.0)) == []


def test_search_refuses_a_family_without_energy_coefficients():
    # the catalog's factored family has closed-form roots but no P_k to
    # eliminate on
    p = cat.Kepler5DParams()
    with pytest.raises(ValueError, match="energy coefficients"):
        alg.find_representations(cat.kepler5d_phi_family(p), 2,
                                 energy_window=cat.kepler5d_energy_window(p, 2))


def test_solver_emits_no_energy_for_two_energy_independent_endpoints():
    # at c1 = 0.25, l = 3 the roots 0.618 and 2.618 of Phi do not move with E,
    # so u = 0.618 closes p = 1 at every energy: no energy of its own
    p = cat.Kepler5DParams(c1=0.25, l=3.0)
    fam = _general_family(cat.kepler5d_constants(p))
    fixed = alg._energy_independent_roots(fam.coefficients).real
    assert np.abs(fixed - 0.618034).min() < 1e-6 and np.abs(fixed - 2.618034).min() < 1e-6

    def on_fixed(t):
        return np.abs(fixed - t).min() < 1e-6

    sols = alg.find_representations(fam, 3, energy_window=cat.kepler5d_energy_window(p, 3))
    assert sols
    assert not [(s.p, s.u, s.energy) for s in sols
                if on_fixed(s.u) and on_fixed(s.u + s.p + 1)]


# -- Fock matrices -----------------------------------------------------------

def test_fock_p0_is_scalar():
    p = _osc_pure()
    cand = cat.osc8d_closed_form(p)(0)
    cons = cat.osc8d_constants(p).at_energy(cand.energy)
    real = alg.oscillator_realization(cons, cand.u, p=0, rho_convention="sqrt")
    fock = alg.build_fock_realization([cand.sf], real, 0)
    assert fock.dim == 1
    assert fock.C.shape == (1, 1, 1)
    assert abs(fock.C[0, 0, 0]) == 0.0


def test_fock_p1_ladder_products():
    p = _osc_pure()
    cand = cat.osc8d_closed_form(p)(1)
    cons = cat.osc8d_constants(p).at_energy(cand.energy)
    real = alg.oscillator_realization(cons, cand.u, p=1, rho_convention="sqrt")
    fock = alg.build_fock_realization([cand.sf], real, 1)
    (b_dag,), (b,) = fock.b_dag, fock.b
    phi = cand.sf(np.arange(0.0, 3.0))
    assert np.abs(b_dag @ b - np.diag([0.0, phi[1]])).max() < 1e-12 * phi.max()
    assert np.abs(b @ b_dag - np.diag(phi[1:])).max() < 1e-12 * phi.max()


def test_fock_shift_structure_exact():
    p = _kepler_pure()
    cand = cat.kepler5d_closed_form(p)(2)
    cons = cat.kepler5d_constants(p).at_energy(cand.energy)
    real = alg.oscillator_realization(cons, cand.u, p=2, rho_convention="sqrt")
    fock = alg.build_fock_realization([cand.sf], real, 2)
    (b_dag,), (b,), N = fock.b_dag, fock.b, fock.N
    assert np.abs(N @ b_dag - b_dag @ N - b_dag).max() == 0.0
    assert np.abs(N @ b - b @ N + b).max() == 0.0


def test_fock_negative_phi_is_refused():
    sf = alg.StructureFunction(roots=(0.0, 3.0, 5.0, 6.0, 7.0, 8.0), scale=1.0)
    c = alg.QuadraticAlgebraConstants(gamma=2.0, epsilon_c=8.0, zeta_c=0.0,
                                      d_c=-1.0, z_c=0.0, casimir_value=0.0)
    real = alg.oscillator_realization(c, u=-9.0)
    fock = alg.build_fock_realization([sf], real, 2)
    assert isinstance(fock.errors[0], NegativePhi) and fock.C.shape == (0, 3, 3)


def _bits(result):
    """A Fock check as comparable bits: an exception's type and message, or
    every number of its invariants, relation residuals and Casimir report."""
    if isinstance(result, Exception):
        return type(result), str(result)
    inv, rep, cas = result
    return tuple(float(x).hex() for x in (
        inv["shift"], inv["ladder"], rep.r_ac, rep.r_bc, rep.jacobi, cas.value, cas.expected,
        cas.off_diagonal, cas.commutant_a, cas.commutant_b))


@pytest.mark.parametrize("command", [
    "verify kepler5d --p 3", "verify kepler5d --p 3 --l 1",
    "verify kepler5d --p 3 --c1 0.25 --c2 0.1", "verify kepler5d --p 3 --hbar 0.1",
    "verify osc8d --p 3 --lambda1 0.5 --lambda2 2", "verify osc8d --p 2 --j 1 --k 2"])
def test_a_stacked_fock_check_equals_each_case_checked_alone(command, monkeypatch, capsys):
    # every stack verify checks (the closed form and the search candidates of
    # one p, the convention assignments), case by case against a stack of one
    stacks, check_fock = [], alg.check_fock

    def spy(p, cases):
        stacks.append((p, cases))
        return check_fock(p, cases)

    monkeypatch.setattr(alg, "check_fock", spy)
    monkeypatch.setattr(cat, "check_fock", spy)
    assert cli.main([*command.split(), "--trials", "2"]) == 0
    capsys.readouterr()
    checked = [(p, case, result) for p, cases in stacks
               for case, result in zip(cases, check_fock(p, cases))]
    assert any(len(cases) > 1 for _, cases in stacks)
    assert any(isinstance(result, DegenerateDenominator) for *_, result in checked)
    for p, case, result in checked:
        assert _bits(result) == _bits(check_fock(p, [case])[0])


def test_a_stack_gives_each_case_its_own_refusal():
    params = _kepler_pure()
    cand = cat.kepler5d_closed_form(params)(2)
    c = cat.kepler5d_constants(params).at_energy(cand.energy)
    bad = alg.QuadraticAlgebraConstants(gamma=2.0, epsilon_c=8.0, zeta_c=0.0,
                                        d_c=-1.0, z_c=0.0, casimir_value=0.0)
    sf = alg.StructureFunction(roots=(0.0, 3.0, 5.0, 6.0, 7.0, 8.0), scale=1.0)
    cases = [(c, cand.sf, cand.u, "sqrt"), (bad, sf, -9.0, "sqrt"), (bad, sf, -2.0, "sqrt"),
             (c, cand.sf, cand.u, "printed")]
    results = alg.check_fock(2, cases)
    assert [type(r) for r in results[1:3]] == [NegativePhi, DegenerateDenominator]
    for case, result in zip(cases, results):
        assert _bits(result) == _bits(alg.check_fock(2, [case])[0])


def test_jacobi_identity_for_any_constants():
    # Jacobi holds for matrix commutators regardless of whether the printed
    # relations do
    rng = np.random.default_rng(11)
    p = _osc_pure()
    cand = cat.osc8d_closed_form(p)(4)
    for _ in range(3):
        c = alg.QuadraticAlgebraConstants(
            gamma=rng.uniform(0.5, 3), epsilon_c=rng.uniform(-2, 8),
            zeta_c=rng.uniform(-1, 1), d_c=rng.uniform(-20, -1),
            z_c=rng.uniform(-5, 5), casimir_value=0.0)
        real = alg.oscillator_realization(c, cand.u, p=4, rho_convention="sqrt")
        fock = alg.build_fock_realization([cand.sf], real, 4)
        (rep,) = alg.verify_commutation(fock, [c])
        assert rep.jacobi < 1e-10


def test_recurrence_phi_matches_factored_for_oscillator():
    # the [B,C]-diagonal recurrence reproduces the factored structure function
    # values, an oracle independent of any printed Phi formula
    p = _osc_pure()
    rp = 4
    cand = cat.osc8d_closed_form(p)(rp)
    cons = cat.osc8d_constants(p).at_energy(cand.energy)
    phi_rec = relation_phi_recurrence(cons, cand.u, rp)
    phi_cat = cand.sf(np.arange(0.0, rp + 2.0))
    ratios = phi_rec[1:rp + 1] / phi_cat[1:rp + 1]
    assert np.ptp(ratios) < 1e-9 * abs(ratios.mean())
    assert abs(phi_rec[rp + 1]) < 1e-9 * np.abs(phi_rec).max()


def test_relation_fit_closes_for_kepler_window():
    # with zeta = 0 the fit runs in the leading-coefficient gauge and returns
    # the printed d together with the relation-consistent z
    p = _kepler_pure()
    rp = 3
    u, energy = cat._consistent_pair(p, rp)
    cons = cat.kepler5d_constants(p).at_energy(energy)
    sf = cat.kepler5d_closed_form(p)(rp).sf
    fit = alg.fit_relation_constants(cons, u, sf, rp)
    assert fit.residual < 1e-10
    assert fit.d == pytest.approx(cons.d_c, rel=1e-9)
    assert fit.scale > 0


def test_casimir_report_commutant():
    p = _osc_pure()
    cand = cat.osc8d_closed_form(p)(3)
    cons = cat.osc8d_constants(p).at_energy(cand.energy)
    real = alg.oscillator_realization(cons, cand.u, p=3, rho_convention="sqrt")
    # leading-coefficient scale pairs the window form with the realization
    lead = abs(alg.general_phi_leading_coefficient(cons))
    sf = alg.StructureFunction(cand.sf.roots, cand.sf.scale * (lead / abs(cand.sf.scale)),
                               cand.sf.u)
    fock = alg.build_fock_realization([sf], real, 3)
    (cas,) = alg.verify_casimir(fock, [cons])
    assert cas.commutant_a < 1e-9
    assert cas.commutant_b < 1e-9
    assert cas.off_diagonal < 1e-9
    assert cas.value == pytest.approx(cons.casimir_value, abs=1e-8)
