"""Command-line surface: spectra, verification suites, cross-checks, duality.

Exit codes: 0 when every required check passes, 1 when a required check fails,
2 for configuration errors (input refused before the run, by the flag checks
or the system's parameter class), 3 for internal errors (a package error, a
ValueError or an ArithmeticError raised during the run, such as an oracle with
no root or a float overflow, where no report is written).
Checks of printed formulas against oracles carry status "finding" and never
affect the exit code; so does an oracle whose error estimate misses its
target on the finest grid.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: load it here, not in the first draw

from . import __version__
from . import algebra as alg
from . import catalog as cat
from . import hurwitz as hw
from . import odecheck as ode
from . import operators as ops
from .errors import (ConfigError, DegenerateDenominator, GridTooCoarse, NegativePhi,
                     QuadalgError)
from .report import Report


def _write_report(report: Report, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_table()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return report.exit_code


def _params(cls, args, **given):
    """cls built from the flags named after its fields and then given; a
    field with neither keeps its default."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if hasattr(args, f.name)}
    return cls(**{**flags, **given})


def _system_params(args):
    if args.system == "ycm":
        return _params(cat.YCMParams, args, kepler=_params(cat.Kepler5DParams, args))
    cls = {c.system: c for c in (cat.Kepler5DParams, cat.Oscillator8DParams)}[args.system]
    return _params(cls, args)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    report = Report(command="spectrum", config=_config_echo(args), version=__version__)
    rows = []
    p = _system_params(args)
    if args.system == "ycm":
        for n1 in range(args.n_max + 1):
            for n2 in range(args.n_max + 1 - n1):
                rows.append(cat.ycm_spectrum_parabolic(p, n1, n2))
        spectrum = cat.ycm_spectrum_duality
    else:
        spectrum = {"kepler5d": cat.kepler5d_spectrum, "osc8d": cat.osc8d_spectrum}[p.system]
    for rp in range(args.p_max + 1):
        rows.append(spectrum(p, rp))
    for rec in rows:
        qn = "_".join(f"{k}{v:g}" if isinstance(v, (int, float)) else f"{k}{v}"
                      for k, v in sorted(rec.quantum_numbers.items()))
        report.add(check=f"spectrum.{rec.system}.{rec.provenance}.{qn}",
                   ref=f"{rec.system} closed-form spectrum",
                   status="finding",
                   values={"energy": rec.energy,
                           **{f"qn_{k}": v for k, v in sorted(rec.quantum_numbers.items())},
                           **({"m_printed": list(rec.m_printed)} if rec.m_printed else {}),
                           **({"m_indicial": list(rec.m_indicial)} if rec.m_indicial else {})})
    return _write_report(report, args)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_fock_track(report: Report, params, p_max: int) -> None:
    """Closed-form representation invariants plus the convention scan."""
    system = params.system
    constants, closed_form, family, e_window = cat.fock_side(params, p_max)

    for cand in map(closed_form, range(p_max + 1)):
        sf = cand.sf
        window = np.array(cand.phi_values)
        endpoint = float(np.abs(sf.monic(np.array([0.0, cand.p + 1.0]))).max())
        report.required_check(
            f"fock.{system}.closed-form.p{cand.p}.window",
            "representation window: endpoint zeros and positivity",
            residual=endpoint + (0.0 if cand.p == 0 or window.min() > 0 else 1.0),
            tolerance=1e-10,
            values={"u": cand.u, "energy": cand.energy})
        # literal endpoint residual of the pre-substitution family at the
        # printed closed-form pair: documents their mutual inconsistency
        fam_sf = family.structure_function(cand.energy, cand.u)
        fam_res = float(np.abs(fam_sf.monic(np.array([0.0, cand.p + 1.0]))).max())
        report.add(f"fock.{system}.closed-form.p{cand.p}.family-endpoint",
                   "printed (u, E) against the pre-substitution factored roots",
                   status="finding", residual=fam_res,
                   values={"u": cand.u, "energy": cand.energy})
        try:
            real = alg.oscillator_realization(constants.at_energy(cand.energy), cand.u,
                                              p=cand.p, rho_convention="sqrt")
            fock = alg.build_fock_realization(sf, real, cand.p)
        except (DegenerateDenominator, NegativePhi) as exc:
            report.add(f"fock.{system}.closed-form.p{cand.p}.build",
                       "Fock build at the printed closed-form pair",
                       status="finding", values={"error": str(exc)})
            continue
        inv = alg.fock_invariant_residuals(fock)
        report.required_check(f"fock.{system}.closed-form.p{cand.p}.shift",
                              "shift structure [N,b+]=b+, [N,b]=-b",
                              residual=inv["shift"], tolerance=1e-12)
        report.required_check(f"fock.{system}.closed-form.p{cand.p}.ladder",
                              "bb+ = Phi(N+1), b+b = Phi(N)",
                              residual=inv["ladder"], tolerance=1e-12)
        rep = alg.verify_commutation(fock, constants.at_energy(cand.energy))
        report.required_check(f"fock.{system}.closed-form.p{cand.p}.jacobi",
                              "Jacobi identity on (A, B, C)",
                              residual=rep.jacobi, tolerance=1e-10)
        report.add(f"fock.{system}.closed-form.p{cand.p}.relations",
                   "printed relations at the printed closed-form pair",
                   status="finding", residual=rep.max_relation_residual())

    # convention scan at the largest requested dimension
    best = np.inf
    for res in cat.fock_convention_scan(params, max(p_max, 1)):
        rel = max(res.r_ac, res.r_bc)
        best = min(best, rel)
        report.add(f"fock.{system}.convention.{res.name}",
                   "relation residuals under one convention assignment",
                   status="finding", residual=rel,
                   values={"jacobi": res.jacobi, "casimir": res.casimir_value,
                           "casimir_expected": res.casimir_expected,
                           "u": res.u, "energy": res.energy})
        if np.isfinite(res.jacobi):
            report.required_check(f"fock.{system}.convention.{res.name}.jacobi",
                                  "Jacobi identity on (A, B, C)",
                                  residual=res.jacobi, tolerance=1e-10)
    if best < 1e-9:
        report.add(f"fock.{system}.convention.best",
                   "at least one convention assignment closes the relations",
                   status="pass", residual=best, tolerance=1e-9)
    else:
        # no assignment closes at these parameters: an inconsistency of the
        # printed formulas, documented with the measured residuals
        report.add(f"fock.{system}.convention.best",
                   "no convention assignment closes the relations here",
                   status="finding", residual=best, tolerance=1e-9)

    # honest representation search on the general polynomial family built from
    # the (operator-verified) structure constants
    gen = alg.phi_family_from_constants(constants.at_energy)
    closing = []
    for cand in alg.find_representations(gen, p_max, energy_window=e_window):
        try:
            real = alg.oscillator_realization(constants.at_energy(cand.energy), cand.u,
                                              p=cand.p, rho_convention="sqrt")
            fock = alg.build_fock_realization(cand.sf, real, cand.p)
        except (DegenerateDenominator, NegativePhi):
            continue
        rep = alg.verify_commutation(fock, constants.at_energy(cand.energy))
        cas = alg.verify_casimir(fock, constants.at_energy(cand.energy))
        if rep.max_relation_residual() < 1e-9 and \
                abs(cas.value - cas.expected) < 1e-7 * max(1.0, abs(cas.expected)):
            closing.append(cand)
    for cand in closing:
        report.add(f"fock.{system}.solver.p{cand.p}.E{cand.energy:+.9f}.u{cand.u:+.6f}",
                   "unitary representation of the verified algebra (full closure)",
                   status="finding",
                   values={"u": cand.u, "energy": cand.energy})
    if not closing:
        report.add(f"fock.{system}.solver.no-closing-representation",
                   "no candidate on this family closed the relations and Casimir",
                   status="finding", values={"count": 0})


def _report_rows(report: Report, rows, residuals) -> None:
    """One check per (check name, sides, tolerance, ref) row and its residual.
    A row without a tolerance is a finding."""
    for (check, _, tolerance, ref), r in zip(rows, residuals):
        if tolerance is None:
            report.add(check, ref, status="finding", residual=r)
        else:
            report.required_check(check, ref, residual=r, tolerance=tolerance)


def _closure_checks(report: Report, system: str, closure) -> None:
    """The [A,C] relation and the fitted constants; [B,C] is reported per system."""
    report.required_check(f"jets.{system}.closure.AC",
                          "printed [A,C] relation as an operator identity",
                          residual=closure.residual_ac_printed, tolerance=1e-9)
    report.add(f"jets.{system}.closure.fit",
               "fitted structure constants (printed vs fitted per basis term)",
               status="finding",
               residual=max(closure.fit_ac_residual, closure.fit_bc_residual),
               values={"AC": closure.fit_ac, "BC": closure.fit_bc})


_COMMUTES_H = "integral commutes with the Hamiltonian"


def _verify_kepler(report: Report, args) -> None:
    params = _system_params(args)
    # the printed constants overflow before the operator values do: evaluate
    # them first, so such input stops before any check runs on inf or NaN
    algebra = cat.kepler5d_constants(params)
    k = ops.build_kepler_operators(c0=params.c0, c1=params.c1, c2=params.c2,
                                   hbar=params.hbar)
    integrals = [("HA", k.A), ("HB", k.B), ("HL2", k.L2), ("HL12", k.L[(1, 2)]),
                 ("HL34", k.L[(3, 4)])]
    if params.c1 == 0 and params.c2 == 0:
        integrals.append(("HL01", k.L[(0, 1)]))
    rows = [(f"jets.kepler5d.commute.{name}", ops.commutator_sides(k.H, op), 1e-10, _COMMUTES_H)
            for name, op in integrals]
    rows.append(("jets.kepler5d.so5.L12L23",
                 ops.commutator_sides(k.L[(1, 2)], k.L[(2, 3)],
                                      {(k.L[(1, 3)],): -1j * params.hbar}),
                 1e-11, "rotation algebra closure"))
    relations = ops.closure_relations(k, algebra)
    # as many samples as the largest check drew when each drew its own
    n = max([args.trials] + [ops.relation_samples(spec, max(3, args.trials // 4))
                             for spec in relations])
    residuals, (ac, bc), _ = ops.check_suite([sides for _, sides, _, _ in rows], relations, n,
                                             ops.kepler_sampler(), np.random.default_rng(args.seed))
    _report_rows(report, rows, residuals)
    closure = ops.ClosureReport.of(ac, bc)
    _closure_checks(report, "kepler5d", closure)
    report.required_check("jets.kepler5d.closure.BC",
                          "printed [B,C] relation as an operator identity",
                          residual=closure.residual_bc_printed, tolerance=1e-9)
    _verify_fock_track(report, params, args.p)


def _verify_osc8d(report: Report, args) -> None:
    params = _system_params(args)
    o = ops.build_osc8d_operators(omega=params.omega, lambda1=params.lambda1,
                                  lambda2=params.lambda2, hbar=params.hbar)
    t = max(2, args.trials // 2)
    block = "integral commutes with the block Casimir"
    rows = ([(f"jets.osc8d.commute.{name}", ops.commutator_sides(o.H, op), 1e-10, _COMMUTES_H)
             for name, op in (("HA", o.A), ("HB", o.B), ("HJ2", o.J2), ("HK2", o.K2),
                              ("HJ01", o.J[(0, 1)]), ("HK45", o.K[(4, 5)]))]
            + [(f"jets.osc8d.commute.{name}", ops.commutator_sides(a, b), 1e-10, block)
               for name, a, b in (("AJ2", o.A, o.J2), ("AK2", o.A, o.K2),
                                  ("BJ2", o.B, o.J2), ("BK2", o.B, o.K2))]
            + [("jets.osc8d.commute.HB-literal", ops.commutator_sides(o.H, o.B_literal), None,
                "literal full-Laplacian reading of the second integral")])
    relations = ops.closure_relations(o, cat.osc8d_constants(params))
    # as many samples as the largest check drew when each drew its own
    n = max([t] + [ops.relation_samples(spec, max(2, t // 2)) for spec in relations])
    residuals, (ac, bc), _ = ops.check_suite([sides for _, sides, _, _ in rows], relations, n,
                                             ops.osc8d_sampler(), np.random.default_rng(args.seed))
    _report_rows(report, rows, residuals)
    closure = ops.ClosureReport.of(ac, bc)
    _closure_checks(report, "osc8d", closure)
    report.add("jets.osc8d.closure.BC-printed",
               "printed [B,C] relation (B^2 coefficient under adjudication)",
               status="finding", residual=closure.residual_bc_printed)
    b2_printed, b2_fitted = closure.fit_bc["B^2"]
    report.required_check("jets.osc8d.closure.BC-fitted-b2",
                          "[B,C] with the fitted B^2 coefficient (-gamma)",
                          residual=closure.fit_bc_residual, tolerance=1e-9,
                          values={"b2_printed": b2_printed, "b2_fitted": b2_fitted})
    _verify_fock_track(report, params, args.p)


def _verify_ycm(report: Report, args) -> None:
    params = _system_params(args)
    kp = params.kepler
    # as in _verify_kepler: input that overflows the printed constants stops
    # before any check runs on inf or NaN
    cat.kepler5d_constants(kp)
    y = ops.build_ycm_operators(c0=kp.c0, c1=kp.c1, c2=kp.c2, hbar=kp.hbar, T=params.T)
    spin = y.spin
    comm = spin.T1 @ spin.T2 - spin.T2 @ spin.T1 - 1j * spin.T3
    cas = (spin.T1 @ spin.T1 + spin.T2 @ spin.T2 + spin.T3 @ spin.T3
           - spin.casimir * np.eye(spin.dim))
    report.required_check("jets.ycm.spin.commutation", "su(2) generator commutation",
                          residual=float(np.abs(comm).max()), tolerance=1e-14)
    report.required_check("jets.ycm.spin.casimir", "su(2) Casimir is T(T+1)",
                          residual=float(np.abs(cas).max()), tolerance=1e-14)
    integrals = (("HL12", y.L[(1, 2)]), ("HL01", y.L[(0, 1)]), ("HM0", y.M[0]),
                 ("HA", y.A), ("HB", y.B), ("HL2", y.L2))
    rows = [(f"jets.ycm.commute.{name}", ops.commutator_sides(y.H, op), None,
             "claimed integral of the monopole system (reported residual)")
            for name, op in integrals]
    checks = [sides for _, sides, _, _ in rows]
    if params.T == 0:
        # the plain system's [H, A] on the same batch: equal trees give equal
        # residuals
        k = ops.build_kepler_operators(c0=kp.c0, c1=kp.c1, c2=kp.c2, hbar=kp.hbar)
        checks.append(ops.commutator_sides(k.H, k.A))
    # one batch for the gauge jets (10 points, as many as they ever took) and
    # the rows; the gauge jets are checked at the batch degree, that of the
    # highest-order commutator
    residuals, _, ctx = ops.check_suite(checks, (), max(10, args.trials // 4),
                                        ops.kepler_sampler(), np.random.default_rng(args.seed))
    gauge = y.gauge
    worst_anti, worst_imag = 0.0, 0.0
    for i in range(5):
        for a in range(3):
            worst_imag = max(worst_imag, float(
                np.abs(gauge.potential_jet(ctx, i, a).coeffs.imag).max()))
            for kk in range(i + 1, 5):
                fik = gauge.field_jet(ctx, i, kk, a).coeffs
                fki = gauge.field_jet(ctx, kk, i, a).coeffs
                # F_ik + F_ki vanishes identically; the rest is rounding,
                # measured per point against the field's own size
                scale = np.maximum(np.abs(np.stack([fik, fki])).max(axis=(0, 2)), 1.0)
                defect = np.abs(fik + fki).max(axis=1)
                worst_anti = max(worst_anti, float((defect / scale).max()))
    report.required_check("jets.ycm.gauge.antisymmetry", "field strength antisymmetry",
                          residual=worst_anti, tolerance=1e-12)
    report.required_check("jets.ycm.gauge.real", "gauge potential is real",
                          residual=worst_imag, tolerance=1e-12)
    _report_rows(report, rows, residuals[:len(rows)])
    if params.T == 0:
        ha = [name for name, _ in integrals].index("HA")
        report.required_check("jets.ycm.t0-reduction",
                              "T = 0 monopole trees reproduce the plain system",
                              residual=abs(residuals[ha] - residuals[-1]), tolerance=1e-12)


def cmd_verify(args) -> int:
    report = Report(command="verify", config=_config_echo(args), version=__version__)
    verify = {"kepler5d": _verify_kepler, "osc8d": _verify_osc8d, "ycm": _verify_ycm}
    verify[args.system](report, args)
    return _write_report(report, args)


# --------------------------------------------------------------------------
# crosscheck
# --------------------------------------------------------------------------

# rows per crosscheck euler block: the sweep's memory does not grow with --samples
_EULER_BLOCK = 2048


def cmd_crosscheck(args) -> int:
    report = Report(command="crosscheck", config=_config_echo(args), version=__version__)
    if args.target == "euler":
        # successive (block, 8) draws are the same stream as one (samples, 8)
        # draw, and as one 8-draw per sample
        rng = np.random.default_rng(args.seed)
        worst, exceed = 0.0, 0
        for start in range(0, args.samples, _EULER_BLOCK):
            u = rng.uniform(-2.0, 2.0, (min(_EULER_BLOCK, args.samples - start), 8))
            rel = hw.euler_identity_residual(u, literal_x0=args.literal_x0)
            worst = max(worst, float(rel.max()))
            if args.literal_x0:
                # rel * max(1, norm4) is the absolute defect
                norm4 = np.einsum("ij,ij->i", u, u) ** 2
                exceed += int(np.count_nonzero(rel * np.maximum(1.0, norm4) > 0.1))
        if args.literal_x0:
            report.add("hurwitz.euler.literal-x0",
                       "printed first component fails the norm identity",
                       status="finding", residual=worst,
                       values={"fraction_above_0.1": exceed / args.samples,
                               "samples": args.samples})
        else:
            report.required_check("hurwitz.euler.adopted-x0",
                                  "norm identity with the completed first component",
                                  residual=worst, tolerance=1e-12,
                                  values={"samples": args.samples})
    elif args.target == "ycm":
        s1, s2 = _channel(args.channel)
        try:
            t = hw.ycm_triple(s1, s2, args.c0, args.hbar, args.n1, args.n2, n_grid=args.grid)
        except GridTooCoarse as exc:
            report.add("ode.ycm.pair-solve", "parabolic pair oracle",
                       status="finding", values={"error": str(exc)})
            return _write_report(report, args)
        report.required_check("ode.ycm.oracle-error", "extrapolated oracle error",
                              residual=t.oracle_error, tolerance=1e-6)
        report.add("ode.ycm.triple",
                   "parabolic closed form vs duality chain vs oracle",
                   status="finding",
                   values={"parabolic": t.parabolic, "duality": t.duality,
                           "oracle": t.oracle, "oracle_error": t.oracle_error})
        supported = []
        if abs(t.parabolic - t.oracle) < 1e-5:
            supported.append("parabolic")
        if abs(t.duality - t.oracle) < 1e-5:
            supported.append("duality")
        report.add("ode.ycm.supported-forms",
                   "closed forms within 1e-5 of the oracle",
                   status="finding", values={"supported": supported})
        report.add("ode.ycm.halving-adjudication",
                   "denominator normalization: the factor-2 form vs the form without it",
                   status="finding",
                   values={"with_half": t.duality, "without_half": t.unhalved,
                           "oracle": t.oracle,
                           "resolved": "factor-2 form" if abs(t.duality - t.oracle)
                           < abs(t.unhalved - t.oracle) else "form without 2"})
    elif args.target == "osc8d":
        spec = ode.RadialOscillatorSpec(angular=0.0, lam=args.lambda1, omega=args.omega,
                                        hbar=args.hbar)
        try:
            eigs = ode.radial_oscillator_eigensolve(spec, args.levels - 1, n_grid=args.grid)
        except GridTooCoarse as exc:
            report.add("ode.osc8d.block-solve", "radial block oracle",
                       status="finding", values={"error": str(exc)})
            return _write_report(report, args)
        for n, r in enumerate(eigs):
            report.add(f"ode.osc8d.block-level.{n}", "radial block eigenvalue",
                       status="finding",
                       values={"eigenvalue": r.extrapolated, "error": r.error_estimate})
        if args.lambda1 == 0:
            ladder = [2 * args.omega * args.hbar * (n + 1) for n in range(args.levels)]
            worst = max(abs(e.extrapolated - t) for e, t in zip(eigs, ladder))
            report.required_check("ode.osc8d.isotropic-ladder",
                                  "block reproduces the isotropic ladder",
                                  residual=worst, tolerance=1e-6)
        two_block = 2 * eigs[0].extrapolated
        # both blocks were solved with the coupling --lambda1
        e_formula = cat.osc8d_spectrum(
            _params(cat.Oscillator8DParams, args, lambda2=args.lambda1), 0).energy
        report.add("ode.osc8d.block-sum",
                   "two summed blocks vs the closed-form ground energy",
                   status="finding",
                   values={"oracle": two_block, "formula": e_formula,
                           "difference": abs(two_block - e_formula)})
    return _write_report(report, args)


# --------------------------------------------------------------------------
# dualize / hurwitz-check
# --------------------------------------------------------------------------

def cmd_dualize(args) -> int:
    report = Report(command="dualize", config=_config_echo(args), version=__version__)
    if args.direction == "forward":
        dm = hw.DualityMap.forward(args.energy, args.omega, args.lambda1, args.lambda2)
        report.add("duality.forward", "oscillator parameters to Coulomb-side",
                   status="finding",
                   values={"c0": dm.c0, "eps": dm.eps, "c1": dm.c1, "c2": dm.c2})
    else:
        energy, omega, l1, l2 = hw.DualityMap(c0=args.c0, eps=args.eps,
                                              c1=args.c1, c2=args.c2).inverse()
        report.add("duality.inverse", "Coulomb-side parameters to oscillator",
                   status="finding",
                   values={"energy": energy, "omega": omega,
                           "lambda1": l1, "lambda2": l2})
    return _write_report(report, args)


def cmd_hurwitz_check(args) -> int:
    report = Report(command="hurwitz-check", config=_config_echo(args), version=__version__)
    u = hw.Point8(_point(args.point))
    f = hw.hurwitz_forward(u, literal_x0=args.literal_x0)
    res = hw.euler_identity_residual(u, literal_x0=args.literal_x0)
    if args.literal_x0:
        report.add("hurwitz.point.literal", "transform with the printed first component",
                   status="finding", residual=res,
                   values={"x": list(f.x), "angles": list(f.angles)})
    else:
        report.required_check("hurwitz.point", "norm identity at the point",
                              residual=res, tolerance=1e-12,
                              values={"x": list(f.x), "angles": list(f.angles)})
    return _write_report(report, args)


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _channel(text: str) -> tuple:
    """(s1, s2) from --channel, which must set exactly s1 and s2 to finite numbers."""
    parts = [part.split("=") for part in text.split(",")]
    try:
        values = {key: float(value) for key, value in parts}
    except ValueError:  # a part without exactly one "=", or a value that is no number
        values = {}
    if len(parts) != 2 or set(values) != {"s1", "s2"} or not np.isfinite([*values.values()]).all():
        raise ConfigError("--channel must set exactly s1 and s2 to finite numbers, "
                          f"as in s1=0,s2=0.5; got {text!r}")
    return values["s1"], values["s2"]


def _point(text: str) -> tuple:
    """The eight coordinates of --point, which must be eight finite numbers."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:  # a part that is no number
        values = ()
    if len(values) != 8 or not np.isfinite(values).all():
        raise ConfigError(f"--point must be eight finite numbers separated by "
                          f"commas, as in 1,0,0,0,1,0,0,0; got {text!r}")
    return values


def _require_finite(args, flags) -> None:
    for flag in flags:
        if not np.isfinite(getattr(args, flag)):
            raise ConfigError(f"--{flag} must be finite, got {getattr(args, flag)}")


def _check_config(args) -> None:
    """Refuse inputs that would pass a required check over nothing or fail mid-run."""
    if args.command in ("spectrum", "verify"):
        # checked before J defaults to |L - T|, so a message names the flag set
        _require_finite(args, ("L", "T"))
        if args.command == "verify":
            # a required check must not pass over zero samples
            if args.trials < 1:
                raise ConfigError(f"--trials must be at least 1, got {args.trials}")
            if args.p < 0:
                raise ConfigError(f"--p must be non-negative, got {args.p}")
        else:
            # a negative range lists no level: a report over nothing
            for field, flag in (("p_max", "--p-max"), ("n_max", "--n-max")):
                if getattr(args, field) < 0:
                    raise ConfigError(f"{flag} must be non-negative, "
                                      f"got {getattr(args, field)}")
        if args.J is None:
            args.J = abs(args.L - args.T)
        # the system's parameter class refuses its invalid values here
        _system_params(args)
        return
    if args.command == "hurwitz-check":
        _point(args.point)
        return
    if args.command == "dualize":
        # NaN and inf pass the sign checks and would reach the report
        _require_finite(args, ("energy", "omega", "lambda1", "lambda2", "c0", "eps", "c1", "c2"))
        # then the parameter class of the side the map starts from refuses
        # its invalid values, as it does for spectrum and verify
        if args.direction == "forward":
            if not args.energy > 0:
                raise ConfigError(f"--energy must be positive, got {args.energy}")
            _params(cat.Oscillator8DParams, args)
        else:
            if not args.eps < 0:
                raise ConfigError(f"--eps must be negative, got {args.eps}")
            _params(cat.Kepler5DParams, args)
        return
    if args.command != "crosscheck":
        return
    for flag in ("samples", "levels", "grid"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if args.target in ("osc8d", "ycm") and args.grid > 1024:
        # both oracles extrapolate over three doubled grids up to 4096
        raise ConfigError(f"--grid must be at most 1024 for crosscheck {args.target}, "
                          f"got {args.grid}")
    _require_finite(args, ("c0", "hbar", "omega", "lambda1"))
    for flag in ("c0", "hbar", "omega"):
        if not getattr(args, flag) > 0:
            raise ConfigError(f"--{flag} must be positive, got {getattr(args, flag)}")
    for flag in ("n1", "n2"):
        if getattr(args, flag) < 0:
            raise ConfigError(f"--{flag} must be non-negative, got {getattr(args, flag)}")
    if args.target == "osc8d" and args.levels > args.grid:
        # the radial oracle solves --levels levels on the coarsest grid
        raise ConfigError(f"--levels must be at most --grid ({args.grid}), "
                          f"got {args.levels}")
    if args.target == "ycm":
        # level n is the (n + 1)-th of the coarsest grid's --grid levels
        flag = "n1" if args.n1 >= args.n2 else "n2"
        if getattr(args, flag) >= args.grid:
            raise ConfigError(f"--{flag} must be less than --grid ({args.grid}), "
                              f"got {getattr(args, flag)}")
    if args.lambda1 < 0:
        # the radial oracle's m = sqrt(1 + 2 lambda) is real only for lambda >= 0
        raise ConfigError(f"--lambda1 must be non-negative, got {args.lambda1}")
    _channel(args.channel)


def _config_echo(args) -> dict:
    # output routing is not part of the run configuration: identical runs to
    # different destinations must produce byte-identical reports
    skip = {"func", "out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.add_argument("--out", default=None)


def _add_system_params(p: argparse.ArgumentParser) -> None:
    """The system and the parameters of all three systems."""
    p.add_argument("system", choices=("kepler5d", "osc8d", "ycm"))
    for name, default in (("c0", 1.0), ("c1", 0.0), ("c2", 0.0), ("l", 0.0), ("hbar", 1.0),
                          ("omega", 1.0), ("lambda1", 0.0), ("lambda2", 0.0), ("j", 0.0),
                          ("k", 0.0), ("T", 0.0)):
        p.add_argument(f"--{name}", type=float, default=default)
    p.add_argument("--J", type=float, default=None,
                   help="defaults to |L - T|, the smallest coupled value")
    p.add_argument("--L", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadalg",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form spectra")
    _add_system_params(sp)
    sp.add_argument("--p-max", dest="p_max", type=int, default=3)
    sp.add_argument("--n-max", dest="n_max", type=int, default=2)
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    vp = sub.add_parser("verify", help="full invariant suite for one system")
    _add_system_params(vp)
    vp.add_argument("--p", type=int, default=3)
    vp.add_argument("--trials", type=int, default=20)
    _add_common(vp)
    vp.set_defaults(func=cmd_verify)

    cp = sub.add_parser("crosscheck", help="oracle comparisons")
    cp.add_argument("target", choices=("euler", "ycm", "osc8d"))
    cp.add_argument("--samples", type=int, default=1000)
    cp.add_argument("--literal-x0", dest="literal_x0", action="store_true")
    cp.add_argument("--channel", default="s1=0,s2=0")
    cp.add_argument("--n1", type=int, default=0)
    cp.add_argument("--n2", type=int, default=0)
    cp.add_argument("--c0", type=float, default=1.0)
    cp.add_argument("--hbar", type=float, default=1.0)
    cp.add_argument("--omega", type=float, default=1.0)
    cp.add_argument("--lambda1", type=float, default=0.0)
    cp.add_argument("--levels", type=int, default=3)
    cp.add_argument("--grid", type=int, default=1024)
    _add_common(cp)
    cp.set_defaults(func=cmd_crosscheck)

    dp = sub.add_parser("dualize", help="parameter duality map")
    dp.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    dp.add_argument("--energy", type=float, default=4.0)
    dp.add_argument("--omega", type=float, default=1.0)
    dp.add_argument("--lambda1", type=float, default=0.0)
    dp.add_argument("--lambda2", type=float, default=0.0)
    dp.add_argument("--c0", type=float, default=1.0)
    dp.add_argument("--eps", type=float, default=-0.125)
    dp.add_argument("--c1", type=float, default=0.0)
    dp.add_argument("--c2", type=float, default=0.0)
    _add_common(dp)
    dp.set_defaults(func=cmd_dualize)

    hp = sub.add_parser("hurwitz-check", help="point transform and norm identity")
    hp.add_argument("--point", default="1,0,0,0,0,0,0,0")
    hp.add_argument("--literal-x0", dest="literal_x0", action="store_true")
    _add_common(hp)
    hp.set_defaults(func=cmd_hurwitz_check)
    return parser


# argparse keeps no state between parse_args calls, so one parser, built on
# the first call, serves every main() call of a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        _check_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (QuadalgError, ValueError, ArithmeticError) as exc:
        # the input passed every check above, so the fault is the package's
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
