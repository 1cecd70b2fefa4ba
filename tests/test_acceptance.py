"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1's literal-first-component clause demands an exceedance fraction the
sampled defect distribution cannot reach under any residual normalization
(measured ~0.97 against the required 0.99 for the absolute defect, ~0.31 for
the normalized one); it is asserted as stated and fails honestly. Every other
criterion passes. Analysis lives in the decisions ledger outside the package.
"""

import json
import time

import numpy as np

from quadalg import algebra as alg
from quadalg import catalog as cat
from quadalg import hurwitz as hw
from quadalg import odecheck as ode
from quadalg import operators as ops
from quadalg.cli import main as cli_main
from test_hurwitz import duality_spectrum_check
from test_odecheck import kummer
from test_operators import OpZero


def _gate(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: Euler identity ------------------------------------------------

def test_criterion_1_euler_identity_adopted():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, hw.euler_identity_residual(
            hw.Point8(tuple(rng.uniform(-2, 2, 8)))))
    elapsed = time.time() - t0
    _gate("1a", worst < 1e-12 and elapsed < 1.0,
          f"adopted first component: max residual {worst:.3e} over 1000 samples "
          f"in {elapsed:.2f}s")


def test_criterion_1_euler_identity_literal_regression():
    # stated threshold: defect > 0.1 on >= 99% of samples; the exceedance
    # fraction of the omitted-squares defect peaks near 0.97 under the most
    # favorable (absolute) reading, so this clause fails as specified
    rng = np.random.default_rng(1)
    exceed = 0
    for _ in range(1000):
        u = hw.Point8(tuple(rng.uniform(-2, 2, 8)))
        norm4 = float(np.dot(u.array, u.array)) ** 2
        absolute_defect = hw.euler_identity_residual(u, literal_x0=True) * max(1.0, norm4)
        exceed += absolute_defect > 0.1
    frac = exceed / 1000.0
    _gate("1b", frac >= 0.99,
          f"literal first component: defect > 0.1 on {frac:.1%} of samples "
          f"(criterion demands >= 99%)")


# -- criterion 2: Fock construction over the catalog grid -------------------------

def _kepler_grid():
    return [cat.Kepler5DParams(c0=1.0, c1=c1, c2=c2, l=l)
            for c1 in (0.0, 0.25) for c2 in (0.0, 0.25) for l in (0.0, 3.0)]


def test_criterion_2_fock_construction_grid():
    worst_inv = 0.0
    worst_energy = 0.0
    for params in _kepler_grid():
        constants = cat.kepler5d_constants(params)
        m1, m2 = cat.kepler5d_m_parameters(params)
        candidates = [cat.kepler5d_closed_form(params)(p) for p in range(6)]
        assert len(candidates) == 6
        for cand in candidates:
            p = cand.p
            expected = -params.c0**2 / (params.hbar**2 * (p + 1 + (m1 + m2) / 2) ** 2)
            worst_energy = max(worst_energy,
                               abs(cand.energy - expected) / abs(expected))
            real = alg.oscillator_realization(constants.at_energy(cand.energy),
                                              cand.u, p=p, rho_convention="sqrt")
            fock = alg.build_fock_realization([cand.sf], real, p)
            (inv,) = alg.fock_invariant_residuals(fock)
            worst_inv = max(worst_inv, inv["shift"], inv["ladder"])
            if p >= 1:
                assert min(cand.phi_values) > 0
    _gate(2, worst_inv < 1e-12 and worst_energy < 1e-12,
          f"48 realizations: worst invariant residual {worst_inv:.3e}, "
          f"worst closed-form energy mismatch {worst_energy:.3e}")


# -- criterion 3: algebra closure on matrices -------------------------------------

def test_criterion_3_matrix_closure_and_conventions():
    worst_jacobi = 0.0
    worst_best = 0.0
    printed_summary = []
    # Jacobi on every realization the criterion-2 grid constructs
    for params in _kepler_grid():
        closed = cat.kepler5d_closed_form(params)
        constants = cat.kepler5d_constants(params)
        for p in range(6):
            cand = closed(p)
            real = alg.oscillator_realization(constants.at_energy(cand.energy),
                                              cand.u, p=p, rho_convention="sqrt")
            fock = alg.build_fock_realization([cand.sf], real, p)
            (rep,) = alg.verify_commutation(fock, [constants.at_energy(cand.energy)])
            worst_jacobi = max(worst_jacobi, rep.jacobi)
    for params in _kepler_grid():
        results = cat.fock_convention_scan(params, 3)
        for r in results:
            if np.isfinite(r.jacobi):
                worst_jacobi = max(worst_jacobi, r.jacobi)
        best = min(max(r.r_ac, r.r_bc) for r in results)
        worst_best = max(worst_best, best)
        printed = [r for r in results if r.name.startswith("closed-form")]
        printed_summary.append(min(max(r.r_ac, r.r_bc) for r in printed))
    for params in (cat.Oscillator8DParams(),
                   cat.Oscillator8DParams(lambda1=0.25, lambda2=0.25)):
        results = cat.fock_convention_scan(params, 3)
        for r in results:
            if np.isfinite(r.jacobi):
                worst_jacobi = max(worst_jacobi, r.jacobi)
        worst_best = max(worst_best, min(max(r.r_ac, r.r_bc) for r in results))
    _gate(3, worst_jacobi < 1e-10 and worst_best < 1e-9,
          f"Jacobi worst {worst_jacobi:.3e}; per-system best convention residual "
          f"{worst_best:.3e}; printed closed-form assignments reach "
          f"{min(printed_summary):.3e} at best (reported findings)")


# -- criterion 4: jet verifier -----------------------------------------------------

def test_criterion_4_jet_verifier():
    t0 = time.time()
    rng = np.random.default_rng(4)
    sampler = ops.kepler_sampler()
    k = ops.build_kepler_operators(c0=1.0, c1=0.25, c2=0.25)
    worst_h = 0.0
    for op in (k.A, k.B, k.L2, k.L[(1, 2)], k.L[(3, 4)], k.L[(2, 4)]):
        worst_h = max(worst_h, ops.commutator_residual(k.H, op, None, 20, sampler, rng))

    # so(5) closure, every generator pair
    kp = ops.build_kepler_operators(c0=1.0, c1=0.0, c2=0.0)
    L = kp.L

    def L_signed(i, j):
        if i == j:
            return OpZero()
        return L[(i, j)] if i < j else ops.OpScale(-1.0, L[(j, i)])

    worst_so5 = 0.0
    pairs = list(L.keys())
    for (i, j) in pairs:
        for (m, n) in pairs:
            expected = ops.OpSum([
                ops.OpScale(1j * (i == m), L_signed(j, n)),
                ops.OpScale(-1j * (j == m), L_signed(i, n)),
                ops.OpScale(-1j * (i == n), L_signed(j, m)),
                ops.OpScale(1j * (j == n), L_signed(i, m))])
            worst_so5 = max(worst_so5, ops.commutator_residual(
                L[(i, j)], L[(m, n)], expected, 2, sampler, rng))

    # T = 0 monopole trees reduce to the plain Kepler residuals identically
    y0 = ops.build_ycm_operators(c0=1.0, c1=0.25, c2=0.25, T=0.0)
    worst_t0 = 0.0
    for opk, opy in ((k.A, y0.A), (k.B, y0.B), (k.L2, y0.L2)):
        rk = ops.commutator_residual(k.H, opk, None, 5, sampler,
                                     np.random.default_rng(40))
        ry = ops.commutator_residual(y0.H, opy, None, 5, sampler,
                                     np.random.default_rng(40))
        worst_t0 = max(worst_t0, abs(rk - ry))

    # the full 8D commutation set
    rng8 = np.random.default_rng(8)
    sampler8 = ops.osc8d_sampler()
    o = ops.build_osc8d_operators(omega=1.0, lambda1=0.25, lambda2=0.25)
    worst_osc = 0.0
    checks = ([o.A, o.B, o.J2, o.K2] + list(o.J.values()) + list(o.K.values()))
    for op in checks:
        worst_osc = max(worst_osc, ops.commutator_residual(o.H, op, None, 3,
                                                           sampler8, rng8))
    for a, b in ((o.A, o.J2), (o.A, o.K2), (o.B, o.J2), (o.B, o.K2)):
        worst_osc = max(worst_osc, ops.commutator_residual(a, b, None, 2,
                                                           sampler8, rng8))
    elapsed = time.time() - t0
    _gate(4, worst_h < 1e-10 and worst_so5 < 1e-11 and worst_t0 < 1e-12
          and worst_osc < 1e-10 and elapsed < 60.0,
          f"5D commutators {worst_h:.3e}; so(5) closure {worst_so5:.3e}; "
          f"T=0 reduction {worst_t0:.3e}; 8D set {worst_osc:.3e}; "
          f"runtime {elapsed:.1f}s")


# -- criterion 5: spectrum triple-check ----------------------------------------------

def test_criterion_5_spectrum_triple_check():
    p = cat.YCMParams()  # s1 = s2 = 0, c0 = 1, hbar = 1
    rep = duality_spectrum_check(p, 0)
    closed_forms_agree = abs(rep.eps_parabolic - rep.eps_duality) < 1e-12
    oracle_ok = rep.oracle_error < 1e-6
    supported = [name for name, val in (("parabolic", rep.eps_parabolic),
                                        ("duality", rep.eps_duality))
                 if abs(val - rep.eps_oracle) < 1e-5]
    # the closed form without the factor 2 in the denominator
    m1, m2 = 0.0, 0.0  # identification m_i = 2 s_i at s = 0
    eps_unhalved = -1.0 / ((0 + 1 + (m1 + m2) / 2) ** 2)
    resolved = abs(rep.eps_duality - rep.eps_oracle) < abs(eps_unhalved - rep.eps_oracle)
    _gate(5, closed_forms_agree and oracle_ok and supported == ["parabolic", "duality"]
          and resolved,
          f"triple ({rep.eps_parabolic:.9f}, {rep.eps_duality:.9f}, "
          f"{rep.eps_oracle:.9f}), oracle error {rep.oracle_error:.2e}; "
          f"supported={supported}; factor-2 denominator resolved in favor of the "
          f"halved form (unhalved value {eps_unhalved:+.3f} rejected)")


# -- criterion 6: 8D oracle -----------------------------------------------------------

def test_criterion_6_radial_oracle():
    spec = ode.RadialOscillatorSpec()
    ladder = [ode.radial_oscillator_eigensolve(spec, n)[n].extrapolated for n in range(3)]
    worst = max(abs(v - t) for v, t in zip(ladder, (2.0, 4.0, 6.0)))
    block_sum = 2 * ladder[0]
    formula = cat.osc8d_spectrum(cat.Oscillator8DParams(), 0).energy
    _gate(6, worst < 1e-6 and abs(block_sum - formula) < 1e-6,
          f"block ladder {np.round(ladder, 9).tolist()} (worst dev {worst:.2e}); "
          f"summed blocks {block_sum:.9f} vs closed form {formula}")


# -- criterion 7: Kummer function ------------------------------------------------------

def test_criterion_7_kummer():
    ok = kummer(0, 3.7, 2.2) == 1.0
    ok &= abs(kummer(1, 2.0, 1.0) - 0.5) < 1e-15
    ok &= abs(kummer(2, 3.0, 1.0) - 5.0 / 12.0) < 1e-15
    worst = 0.0
    rng = np.random.default_rng(7)
    for n in range(11):
        b = rng.uniform(0.5, 4.0)
        x = rng.uniform(0.0, 5.0)
        term, total = 1.0, 1.0
        for kk in range(n):
            term = term * (kk - n) * x / ((b + kk) * (kk + 1))
            total += term
        worst = max(worst, abs(kummer(n, b, x) - total))
    _gate(7, ok and worst < 1e-10,
          f"spot values exact; series recurrence deviation {worst:.2e} for n <= 10")


# -- criterion 8: determinism ----------------------------------------------------------

def test_criterion_8_deterministic_reports(tmp_path):
    argv = ["verify", "ycm", "--T", "0.5", "--trials", "4", "--seed", "5",
            "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    schema_ok = json.loads(a.read_text())["schema"] == "quadalg/1"
    _gate(8, identical and schema_ok,
          "repeated verify runs with one seed emit byte-identical JSON")
