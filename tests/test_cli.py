import json

import pytest

from quadalg import catalog as cat
from quadalg.cli import _verify_fock_track, main
from quadalg.report import Report


def _run_json(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_spectrum_kepler_rows(tmp_path):
    code, rep = _run_json(tmp_path, "k.json",
                          ["spectrum", "kepler5d", "--c0", "1", "--l", "0",
                           "--p-max", "3"])
    assert code == 0
    assert rep["schema"] == "quadalg/1"
    energies = [f["values"]["energy"] for f in rep["findings"]]
    assert energies == pytest.approx([-1 / 9, -1 / 16, -1 / 25, -1 / 36])


def test_spectrum_osc_rows(tmp_path):
    code, rep = _run_json(tmp_path, "o.json",
                          ["spectrum", "osc8d", "--omega", "1", "--p-max", "2"])
    assert code == 0
    energies = [f["values"]["energy"] for f in rep["findings"]]
    assert energies == pytest.approx([4.0, 6.0, 8.0])


def test_spectrum_empty_range_exits_zero(tmp_path):
    code, rep = _run_json(tmp_path, "e.json",
                          ["spectrum", "kepler5d", "--p-max", "-1"])
    assert code == 0
    assert rep["findings"] == []


def test_invalid_system_exits_two(capsys):
    assert main(["spectrum", "nosuch"]) == 2
    assert main(["verify", "nosuch"]) == 2


def test_invalid_parameter_exits_two():
    assert main(["spectrum", "kepler5d", "--c0", "-1"]) == 2


def test_verify_ycm_exit_zero(tmp_path):
    code, rep = _run_json(tmp_path, "y.json",
                          ["verify", "ycm", "--T", "0.5", "--trials", "4"])
    assert code == 0
    assert rep["summary"]["failed"] == 0
    checks = {f["check"] for f in rep["findings"]}
    assert "jets.ycm.spin.commutation" in checks
    assert any(c.startswith("jets.ycm.commute.") for c in checks)


def test_verify_ycm_antisymmetry_is_relative_to_the_field(tmp_path):
    # at this seed the field-strength jets reach sizes where an absolute 1e-12
    # on F_ik + F_ki failed; measured against |F| the rounding stays ~1e-16
    code, rep = _run_json(tmp_path, "y18.json",
                          ["verify", "ycm", "--T", "1", "--trials", "20", "--seed", "18"])
    assert code == 0
    by_check = {f["check"]: f for f in rep["findings"]}
    assert by_check["jets.ycm.gauge.antisymmetry"]["residual"] < 1e-14


def test_verify_reports_are_byte_identical(tmp_path):
    argv = ["verify", "ycm", "--T", "0.5", "--trials", "3", "--seed", "11"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--format", "json", "--out", str(a)]) == 0
    assert main(argv + ["--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_reports_depend_on_seed(tmp_path):
    base = ["verify", "ycm", "--T", "0.5", "--trials", "3"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(base + ["--seed", "1", "--format", "json", "--out", str(a)])
    main(base + ["--seed", "2", "--format", "json", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()  # config echo includes the seed


def test_crosscheck_euler(tmp_path):
    code, rep = _run_json(tmp_path, "c.json",
                          ["crosscheck", "euler", "--samples", "200", "--seed", "1"])
    assert code == 0
    (finding,) = rep["findings"]
    assert finding["check"] == "hurwitz.euler.adopted-x0"
    assert finding["status"] == "pass"
    assert finding["residual"] < 1e-12


def test_crosscheck_euler_literal_is_finding(tmp_path):
    code, rep = _run_json(tmp_path, "cl.json",
                          ["crosscheck", "euler", "--samples", "200", "--seed", "1",
                           "--literal-x0"])
    assert code == 0
    (finding,) = rep["findings"]
    assert finding["status"] == "finding"
    assert finding["residual"] > 0.1
    assert finding["values"]["fraction_above_0.1"] > 0.9


@pytest.mark.parametrize("argv, flag", [
    (["crosscheck", "euler", "--samples", "0"], "--samples"),
    (["crosscheck", "euler", "--samples", "-5", "--literal-x0"], "--samples"),
    (["crosscheck", "ycm", "--channel", "s1=0"], "--channel"),
    (["crosscheck", "ycm", "--channel", "s1=0,s3=1"], "--channel"),
    (["crosscheck", "ycm", "--channel", "s1=0,s2=0,s1=1"], "--channel"),
    (["crosscheck", "ycm", "--channel", "s1=0,s2=nan"], "--channel"),
    (["crosscheck", "ycm", "--channel", "s1=0,s2=x"], "--channel"),
    (["crosscheck", "osc8d", "--levels", "0"], "--levels"),
    (["crosscheck", "osc8d", "--grid", "0"], "--grid"),
    (["crosscheck", "ycm", "--grid", "0"], "--grid"),
    (["crosscheck", "osc8d", "--grid", "4096"], "--grid"),
    (["crosscheck", "ycm", "--c0", "nan"], "--c0"),
    (["crosscheck", "ycm", "--hbar", "inf"], "--hbar"),
    (["crosscheck", "osc8d", "--omega", "inf"], "--omega"),
    (["crosscheck", "osc8d", "--lambda1", "nan"], "--lambda1"),
    (["crosscheck", "osc8d", "--lambda1", "-5"], "--lambda1"),
])
def test_crosscheck_rejects_bad_input_at_parse_time(capsys, argv, flag):
    # a configuration error exits 2 and names the flag; 1 means a failed check
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "osc8d", "--omega", "inf"], "omega"),
    (["spectrum", "kepler5d", "--c0", "nan"], "c0"),
    (["verify", "kepler5d", "--hbar", "nan"], "hbar"),
    (["spectrum", "ycm", "--T", "nan"], "T"),
])
def test_non_finite_parameter_is_named(capsys, argv, name):
    # NaN and inf pass every sign check, so they are refused by name first
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be finite" in captured.err


def test_crosscheck_ycm_triple(tmp_path):
    code, rep = _run_json(tmp_path, "t.json",
                          ["crosscheck", "ycm", "--channel", "s1=0,s2=0",
                           "--n1", "0", "--n2", "0"])
    assert code == 0
    by_check = {f["check"]: f for f in rep["findings"]}
    triple = by_check["ode.ycm.triple"]["values"]
    assert triple["parabolic"] == pytest.approx(-0.5)
    assert triple["duality"] == pytest.approx(-0.5)
    assert triple["oracle"] == pytest.approx(-0.5, abs=1e-5)
    assert by_check["ode.ycm.halving-adjudication"]["values"]["resolved"] == "factor-2 form"
    assert set(by_check["ode.ycm.supported-forms"]["values"]["supported"]) == \
        {"parabolic", "duality"}


def test_dualize_round_trip(tmp_path):
    code, rep = _run_json(tmp_path, "d.json",
                          ["dualize", "--direction", "inverse", "--c0", "1",
                           "--eps", "-0.125"])
    assert code == 0
    vals = rep["findings"][0]["values"]
    assert vals["omega"] == pytest.approx(1.0)
    assert vals["energy"] == pytest.approx(4.0)


def test_hurwitz_check_literal_flag(tmp_path):
    code, rep = _run_json(tmp_path, "h.json",
                          ["hurwitz-check", "--point", "1,1,1,1,0.5,0.5,0.5,0.5",
                           "--literal-x0"])
    assert code == 0
    assert rep["findings"][0]["status"] == "finding"


def test_table_format_prints(capsys):
    code = main(["spectrum", "osc8d", "--p-max", "1", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectrum.osc8d" in out


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "ycm", "--L", "inf"], "--L"),
    (["verify", "ycm", "--L", "nan"], "--L"),
    (["verify", "kepler5d", "--T", "inf"], "--T"),
    (["dualize", "--energy", "-1"], "--energy"),
    (["dualize", "--direction", "inverse", "--eps", "0.1"], "--eps"),
])
def test_flag_is_named_before_derived_values(capsys, argv, flag):
    # J defaults to |L - T| and the duality map refuses the wrong sign: the
    # message names the flag the user set, not the derived field
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {flag} ")


def test_internal_error_exits_three(capsys, monkeypatch):
    # 1 is reserved for a failed required check; a package error raised while
    # running is an internal error, reported without a traceback or a report
    from quadalg import odecheck as ode
    from quadalg.errors import NoRoot

    def no_root(*args, **kwargs):
        raise NoRoot("no bound state")

    monkeypatch.setattr(ode, "solve_parabolic_pair", no_root)
    assert main(["crosscheck", "ycm"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: NoRoot: no bound state\n"


# closing `fock.*.solver.*` names of the generic representation search, as the
# energy-grid search reported them, less one artifact: at c1 = 0.25, l = 3 it
# also reported p1.E-35.888543822.u+0.618034, whose endpoints 0.618 and 2.618
# are both E-independent roots of Phi, so it closes at every energy
_CLOSING = {
    "kepler5d-default": ("kepler5d", {}, 3, [
        "p0.E-0.125000000.u+1.500000", "p0.E-0.125000000.u-1.500000",
        "p1.E-0.055555556.u+1.500000", "p1.E-0.055555556.u-2.500000",
        "p2.E-0.031250000.u+1.500000", "p2.E-0.031250000.u-3.500000",
        "p3.E-0.020000000.u+1.500000", "p3.E-0.020000000.u-4.500000"]),
    "kepler5d-c1-c2-0.5": ("kepler5d", {"c1": 0.5, "c2": 0.5}, 3, [
        "p0.E-0.066987298.u+2.232051", "p0.E-0.066987298.u-2.232051",
        "p0.E-0.933012702.u+1.232051", "p0.E-0.933012702.u-1.232051",
        "p1.E-0.035898385.u+2.232051", "p1.E-0.035898385.u-3.232051",
        "p1.E-6.964101615.u+0.232051", "p2.E-0.022329099.u+2.232051",
        "p2.E-0.022329099.u-4.232051", "p3.E-0.015217732.u+2.232051",
        "p3.E-0.015217732.u-5.232051"]),
    "kepler5d-hbar-0.7-c0-1.3": ("kepler5d", {"hbar": 0.7, "c0": 1.3}, 3, [
        "p0.E-0.431122449.u+1.500000", "p0.E-0.431122449.u-1.500000",
        "p1.E-0.191609977.u+1.500000", "p1.E-0.191609977.u-2.500000",
        "p2.E-0.107780612.u+1.500000", "p2.E-0.107780612.u-3.500000",
        "p3.E-0.068979592.u+1.500000", "p3.E-0.068979592.u-4.500000"]),
    "kepler5d-c1-0.3-c2-0.2": ("kepler5d", {"c1": 0.3, "c2": 0.2}, 3, [
        "p0.E-0.085912603.u+1.912440", "p0.E-0.085912603.u-1.912440",
        "p0.E-0.436067501.u+0.570799", "p0.E-0.579096704.u+0.429201",
        "p0.E-2.939327233.u+0.912440", "p1.E-0.042937810.u+1.912440",
        "p1.E-0.042937810.u-2.912440", "p2.E-0.025681024.u+1.912440",
        "p2.E-0.025681024.u-3.912440", "p3.E-0.017068045.u+1.912440",
        "p3.E-0.017068045.u-4.912440"]),
    "kepler5d-c1-0.25-l-3": ("kepler5d", {"c1": 0.25, "l": 3.0}, 3, [
        "p0.E-0.051429028.u+2.618034", "p0.E-0.051429028.u-2.618034",
        "p0.E-0.400000000.u+0.618034", "p0.E-0.400000000.u+1.618034",
        "p0.E-0.400000000.u-1.618034", "p0.E-0.642785848.u+0.381966",
        "p1.E-0.029484254.u+2.618034", "p1.E-0.029484254.u-3.618034",
        "p2.E-0.019088143.u+2.618034", "p2.E-0.019088143.u-4.618034",
        "p3.E-0.013358147.u+2.618034", "p3.E-0.013358147.u-5.618034"]),
    "kepler5d-l-1": ("kepler5d", {"l": 1.0}, 3, [
        "p0.E-0.085786438.u+1.914214", "p0.E-0.085786438.u-1.914214",
        "p0.E-2.914213562.u+0.914214", "p1.E-0.042893219.u+1.914214",
        "p1.E-0.042893219.u-2.914214", "p2.E-0.025660394.u+1.914214",
        "p2.E-0.025660394.u-3.914214", "p3.E-0.017056866.u+1.914214",
        "p3.E-0.017056866.u-4.914214"]),
    "osc8d-default": ("osc8d", {}, 2, [
        "p0.E+4.000000000.u+1.500000", "p0.E+4.000000000.u-1.500000",
        "p1.E+6.000000000.u+1.500000", "p1.E+6.000000000.u-2.500000",
        "p2.E+8.000000000.u+1.500000", "p2.E+8.000000000.u-3.500000"]),
    "osc8d-lambda-0.5-0.3": ("osc8d", {"lambda1": 0.5, "lambda2": 0.3}, 2, [
        "p0.E+0.679124626.u+0.839562", "p0.E+1.850697502.u+0.425349",
        "p0.E+2.149302498.u+0.574651", "p0.E+4.679124626.u+1.839562",
        "p0.E+4.679124626.u-1.839562", "p1.E+6.679124626.u+1.839562",
        "p1.E+6.679124626.u-2.839562", "p2.E+8.679124626.u+1.839562",
        "p2.E+8.679124626.u-3.839562"]),
}


@pytest.mark.parametrize("config", sorted(_CLOSING))
def test_solver_closing_sets_are_kept(config):
    system, params, p_max, expected = _CLOSING[config]
    build = cat.Kepler5DParams if system == "kepler5d" else cat.Oscillator8DParams
    report = Report(command="verify", config={}, version="test")
    _verify_fock_track(report, system, build(**params), p_max)
    prefix = f"fock.{system}.solver."
    assert sorted(f.check[len(prefix):] for f in report.findings
                  if f.check.startswith(prefix)) == expected
