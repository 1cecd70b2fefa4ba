import argparse
import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import quadalg
from quadalg import catalog as cat
from quadalg import hurwitz as hw
from quadalg import operators as ops
from quadalg.cli import _verify_fock_track, main
from quadalg.report import Report


def _run_json(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def _child_env(**extra):
    """Environment of a child python: the package's src/ first on PYTHONPATH,
    none of the BLAS thread counts of the shell that runs the tests, then
    extra."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cat.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in quadalg._THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


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


@pytest.mark.parametrize("samples", [2049, 5000])
@pytest.mark.parametrize("literal", [False, True])
def test_crosscheck_euler_blocks_report_the_single_stack(tmp_path, samples, literal):
    # the sweep draws and checks its points in blocks of rows; the report is
    # the one the whole (samples, 8) stack gives
    code, rep = _run_json(tmp_path, "e.json",
                          ["crosscheck", "euler", "--samples", str(samples), "--seed", "3"]
                          + (["--literal-x0"] if literal else []))
    assert code == 0
    u = np.random.default_rng(3).uniform(-2.0, 2.0, (samples, 8))
    rel = hw.euler_identity_residual(u, literal_x0=literal)
    expected = Report(command="crosscheck", config={}, version="")
    if literal:
        norm4 = np.einsum("ij,ij->i", u, u) ** 2
        exceed = int(np.count_nonzero(rel * np.maximum(1.0, norm4) > 0.1))
        expected.add("hurwitz.euler.literal-x0",
                     "printed first component fails the norm identity",
                     status="finding", residual=float(rel.max()),
                     values={"fraction_above_0.1": exceed / samples, "samples": samples})
    else:
        expected.required_check("hurwitz.euler.adopted-x0",
                                "norm identity with the completed first component",
                                residual=float(rel.max()), tolerance=1e-12,
                                values={"samples": samples})
    assert rep["findings"] == expected.as_dict()["findings"]


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
    (["crosscheck", "ycm", "--hbar", "-1"], "--hbar"),
    (["crosscheck", "ycm", "--hbar", "0"], "--hbar"),
    (["crosscheck", "ycm", "--c0", "-1"], "--c0"),
    (["crosscheck", "ycm", "--n1", "-1"], "--n1"),
    (["crosscheck", "ycm", "--n2", "-1"], "--n2"),
    (["crosscheck", "osc8d", "--omega", "-1"], "--omega"),
    (["crosscheck", "euler", "--hbar", "0"], "--hbar"),
    (["crosscheck", "ycm", "--grid", "4096"], "--grid"),
    (["crosscheck", "ycm", "--n1", "2000"], "--n1"),
    (["crosscheck", "osc8d", "--levels", "65", "--grid", "64"], "--levels"),
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
    (["dualize", "--omega", "nan"], "omega"),
    (["dualize", "--direction", "inverse", "--c0", "inf", "--eps", "-0.1"], "c0"),
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


def test_crosscheck_ycm_and_spectrum_ycm_share_the_parabolic_form(tmp_path):
    # one transcription of the printed parabolic spectrum serves both
    # commands: the same energy to the bit at n1 = 1, n2 = 0, s1 = s2 = 0
    code, cross = _run_json(tmp_path, "x.json",
                            ["crosscheck", "ycm", "--channel", "s1=0,s2=0", "--n1", "1",
                             "--c0", "1.3", "--hbar", "0.7"])
    assert code == 0
    (triple,) = [f["values"] for f in cross["findings"] if f["check"] == "ode.ycm.triple"]
    code, spec = _run_json(tmp_path, "s.json", ["spectrum", "ycm", "--c0", "1.3", "--hbar", "0.7"])
    assert code == 0
    (row,) = [f["values"] for f in spec["findings"]
              if f["check"].startswith("spectrum.ycm.algebraic.")
              and (f["values"]["qn_n1"], f["values"]["qn_n2"]) == (1, 0)]
    assert (row["qn_s1"], row["qn_s2"]) == (0.0, 0.0)
    assert triple["parabolic"].hex() == row["energy"].hex()


def test_crosscheck_osc8d_block_sum_uses_the_solved_coupling(tmp_path):
    # both blocks carry lambda = 0.5: 2 (1 + sqrt(2)) against the printed form
    # at lambda1 = lambda2 = 0.5, 2 (1 + 1 + (1 + 1) / 2) = 6
    code, rep = _run_json(tmp_path, "b.json",
                          ["crosscheck", "osc8d", "--levels", "1", "--lambda1", "0.5"])
    assert code == 0
    by_check = {f["check"]: f for f in rep["findings"]}
    block_sum = by_check["ode.osc8d.block-sum"]["values"]
    assert block_sum["oracle"] == pytest.approx(2 * (1 + 2**0.5), abs=1e-6)
    assert block_sum["formula"] == pytest.approx(6.0)


def test_crosscheck_osc8d_solves_all_levels_once_per_grid(tmp_path, eigensolves):
    # one sweep serves every reported level: one eigensolve on each grid, by
    # index on the pilot only and certified on the three grids
    assert main(["crosscheck", "osc8d", "--levels", "3",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert eigensolves.levels == [128, 1024, 2048, 4096]
    assert eigensolves.index_sizes == [128]


def test_crosscheck_osc8d_accuracy_limit_is_a_finding(tmp_path, capsys):
    # level 15's error estimate (about 1.1e-6) misses the oracle's 1e-6 target:
    # reported like the pair oracle's, not as an internal error
    code, rep = _run_json(tmp_path, "l.json", ["crosscheck", "osc8d", "--levels", "16"])
    assert code == 0
    (finding,) = rep["findings"]
    assert finding["check"] == "ode.osc8d.block-solve"
    assert finding["status"] == "finding"
    assert finding["values"]["error"].startswith("radial level 15: error 1.1")
    assert "Traceback" not in capsys.readouterr().err


def test_dualize_round_trip(tmp_path):
    code, rep = _run_json(tmp_path, "d.json",
                          ["dualize", "--direction", "inverse", "--c0", "1",
                           "--eps", "-0.125"])
    assert code == 0
    vals = rep["findings"][0]["values"]
    assert vals["omega"] == pytest.approx(1.0)
    assert vals["energy"] == pytest.approx(4.0)


@pytest.mark.parametrize("argv, message", [
    (["--direction", "inverse", "--c0", "-1"], "c0 must be positive"),
    (["--direction", "inverse", "--c1", "-1"], "c1 and c2 are non-negative"),
    (["--direction", "forward", "--omega", "-1"], "omega must be positive"),
    (["--direction", "forward", "--lambda1", "-1"], "singular strengths must be non-negative"),
])
def test_dualize_refuses_what_the_parameter_classes_refuse(capsys, argv, message):
    # refused before the run, as a configuration error, and not mid-run (3)
    assert main(["dualize", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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
    (["verify", "kepler5d", "--trials", "0"], "--trials"),
    (["verify", "osc8d", "--trials", "-1"], "--trials"),
    (["verify", "ycm", "--trials", "-3"], "--trials"),
    (["verify", "kepler5d", "--p", "-1"], "--p"),
    (["hurwitz-check", "--point", "nan,0,0,0,1,0,0,0"], "--point"),
    (["hurwitz-check", "--point", "1,0,0,0,1,0,0"], "--point"),
    (["hurwitz-check", "--point", "1,0,0,0,1,0,0,x"], "--point"),
    (["spectrum", "kepler5d", "--p-max", "-1"], "--p-max"),
    (["spectrum", "osc8d", "--p-max", "-2"], "--p-max"),
    (["spectrum", "ycm", "--n-max", "-1", "--p-max", "0"], "--n-max"),
    (["spectrum", "kepler5d", "--n-max", "-3"], "--n-max"),
])
def test_flag_is_named_before_derived_values(capsys, argv, flag):
    # J defaults to |L - T| and the duality map refuses the wrong sign: the
    # message names the flag the user set, not the derived field. Zero trials
    # would pass the operator checks over nothing, a negative --p-max or
    # --n-max would list no level, and a non-finite point would fail the norm identity as a
    # required check.
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


def test_value_error_inside_the_package_exits_three(capsys, monkeypatch):
    # exit 2 is for input the checks refuse; a ValueError from a kernel on
    # accepted input is the package's fault
    from quadalg import _jet_kernels as kernels

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(kernels, "jet_mul", broken)
    assert main(["verify", "kepler5d", "--p", "0", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "internal error: ValueError: operands could not be broadcast together\n"


@pytest.mark.parametrize("argv, error", [
    (["spectrum", "kepler5d", "--hbar", "1e-200"], "ZeroDivisionError: float division by zero"),
    (["spectrum", "kepler5d", "--c0", "1e200"], "OverflowError: "),
    (["verify", "kepler5d", "--c0", "1e200"], "OverflowError: "),
    (["verify", "ycm", "--c0", "1e200"], "OverflowError: "),
])
def test_arithmetic_error_inside_the_package_exits_three(capsys, argv, error):
    # the flags pass every check; hbar^2 then underflows to 0, or c0^2
    # overflows, inside a printed formula: an internal error, not exit 1.
    # verify evaluates the printed constants before any operator check, so no
    # check runs on inf or NaN values and stderr holds the one error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {error}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err and "Warning" not in captured.err



_CONFIG = "configuration error: "


@pytest.mark.parametrize("argv, line", [
    (["crosscheck", "osc8d", "--omega=inf"], _CONFIG + "--omega must be finite, got inf"),
    (["spectrum", "kepler5d", "--c0=nan"], _CONFIG + "--c0 must be finite, got nan"),
    (["crosscheck", "ycm", "--hbar=0"], _CONFIG + "--hbar must be positive, got 0.0"),
    (["crosscheck", "ycm", "--n1=-1"], _CONFIG + "--n1 must be non-negative, got -1"),
    (["verify", "kepler5d", "--trials=0"], _CONFIG + "--trials must be at least 1, got 0"),
    (["crosscheck", "ycm", "--grid=2048"],
     _CONFIG + "--grid must be at most 1024 for crosscheck ycm, got 2048"),
    (["crosscheck", "osc8d", "--grid=64", "--levels=65"],
     _CONFIG + "--levels must be at most --grid (64), got 65"),
    (["crosscheck", "ycm", "--grid=64", "--n2=64"],
     _CONFIG + "--n2 must be less than --grid (64), got 64"),
    (["dualize", "--energy=0"], _CONFIG + "--energy must be positive, got 0.0"),
    (["dualize", "--direction", "inverse", "--eps=0"], _CONFIG + "--eps must be negative, got 0.0"),
    (["crosscheck", "ycm", "--channel", "s1=0"], _CONFIG + "--channel must set exactly s1 and "
     "s2 to finite numbers, as in s1=0,s2=0.5; got 's1=0'"),
    (["hurwitz-check", "--point", "1,0"], _CONFIG + "--point must be eight finite numbers "
     "separated by commas, as in 1,0,0,0,1,0,0,0; got '1,0'"),
    (["verify", "ycm", "--T", "0.3"], _CONFIG + "T must be a non-negative half-integer"),
    # argparse names a flag's type by its callable, which the domain check
    # keeps; its message follows its usage lines
    (["crosscheck", "ycm", "--c0", "x"],
     "quadalg crosscheck: error: argument --c0: invalid float value: 'x'"),
    (["crosscheck", "ycm", "--n1", "1.5"],
     "quadalg crosscheck: error: argument --n1: invalid int value: '1.5'"),
    # a negative seed or Casimir label, which no run can use
    (["verify", "kepler5d", "--p", "0", "--trials", "1", "--seed=-1"],
     _CONFIG + "--seed must be non-negative, got -1"),
    (["verify", "osc8d", "--p", "0", "--trials", "1", "--seed=-1"],
     _CONFIG + "--seed must be non-negative, got -1"),
    (["verify", "ycm", "--p", "0", "--trials", "1", "--seed=-1"],
     _CONFIG + "--seed must be non-negative, got -1"),
    (["crosscheck", "euler", "--grid", "64", "--levels", "1", "--seed=-1"],
     _CONFIG + "--seed must be non-negative, got -1"),
    (["verify", "kepler5d", "--p", "0", "--trials", "1", "--l=-1"],
     _CONFIG + "Casimir label l is non-negative"),
    (["spectrum", "ycm", "--L=-1e-200"], _CONFIG + "Casimir label L is non-negative"),
])
def test_refusal_texts(capsys, argv, line):
    # one case per refusal rule: a flag's domain, a rule joining flags, a
    # flag's own syntax, a parameter class and argparse's type conversion
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if line.startswith(_CONFIG):
        assert err == line + "\n"
    else:
        assert err.startswith("usage: quadalg ") and err.splitlines()[-1] == line


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_pipe_ends_with_the_reports_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["verify", "kepler5d", "--p", "0", "--trials", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_ends_the_process_quietly():
    # the reader closes its end before the report is written: the write
    # fails, and so would the flush at exit without stdout pointed at devnull
    proc = subprocess.Popen([sys.executable, "-m", "quadalg.cli", "hurwitz-check"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


# each numeric flag takes these values, given as --flag=value: argparse reads
# "--c0 -1e-200" and "--c0 -inf" as a flag without its value
_EXTREMES = {"float": ("0", "-1", "nan", "inf", "-inf", "1e200", "1e-200", "-1e-200"),
             "int": ("-1", "0", "1")}
# one command per system, target and direction, sized to run fast where the
# sweep leaves their flags alone
_SWEPT = ([["spectrum", s] for s in ("kepler5d", "osc8d", "ycm")]
          + [["verify", s, "--p", "0", "--trials", "1"] for s in ("kepler5d", "osc8d", "ycm")]
          + [["crosscheck", t, "--grid", "64", "--levels", "1"] for t in ("euler", "ycm", "osc8d")]
          + [["dualize", "--direction", d] for d in ("forward", "inverse")]
          + [["hurwitz-check"], ["hurwitz-check", "--literal-x0"]])


def _flags(cls):
    return {f"--{name}" for name in cls.__slots__}


# the flags each system's parameter class reads
_READS = {"kepler5d": _flags(cat.Kepler5DParams), "osc8d": _flags(cat.Oscillator8DParams),
          "ycm": _flags(cat.Kepler5DParams) | _flags(cat.YCMParams)}


def _swept_values(base, flag, kind):
    """The extremes of a flag of type kind (its name) in the command base."""
    values = _EXTREMES[kind]
    if base[0] != "verify" or kind != "float":
        return values
    if flag not in _READS[base[1]]:
        # a finite value of a flag the system ignores runs the default suite again
        return ("nan", "inf", "-inf")
    # a large half-integer T builds dense (2T + 1)-square spin matrices
    return tuple(v for v in values if (flag, v) != ("--T", "1e200"))


def _extreme_argvs(base):
    """base with each numeric flag of its subcommand set in turn to each extreme."""
    from quadalg import cli

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for action in sub.choices[base[0]]._actions:
        kind = getattr(action.type, "__name__", None)
        if kind in _EXTREMES:
            (flag,) = action.option_strings
            for value in _swept_values(base, flag, kind):
                yield base + [f"{flag}={value}"]
    if base[0] == "hurwitz-check":
        for value in ("1e200", "nan"):
            yield base + [f"--point={value},0,0,0,0,0,0,0"]


@pytest.mark.parametrize("base", _SWEPT, ids=" ".join)
def test_extreme_flag_values_exit_as_documented(capsys, tmp_path, base):
    # an exit code of the CLI docstring; nothing on stderr beside a report,
    # one line for a refusal or an internal error, and no numpy warning
    wrong = []
    for argv in _extreme_argvs(base):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        one_line = err.endswith("\n") and err.count("\n") == 1 and \
            err.startswith(("configuration error: ", "internal error: "))
        if caught or code not in (0, 1, 2, 3) or (not one_line if code >= 2 else err):
            wrong.append((argv, code, err, [str(w.message) for w in caught]))
    assert wrong == []


# the coefficient keys of the c1 and c2 terms of H, A and B
_COUPLING_KEYS = {"1/(r(r+x0))", "1/(r(r-x0))", "r/(r+x0)", "r/(r-x0)",
                  "(r-x0)/(r(r+x0))", "(r+x0)/(r(r-x0))"}


@pytest.mark.parametrize("couplings, requested", [([], set()),
                                                  (["--c1", "0.25", "--c2", "0.1"], _COUPLING_KEYS)])
def test_vanishing_couplings_build_no_coefficient(tmp_path, monkeypatch, couplings, requested):
    keys = set()
    coef = ops.PointContext.coef
    monkeypatch.setattr(ops.PointContext, "coef",
                        lambda self, key, builder: keys.add(key) or coef(self, key, builder))
    argv = ["verify", "kepler5d", "--p", "1", "--trials", "2", *couplings]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert keys & _COUPLING_KEYS == requested
    assert "1/r" in keys


# the benchmark's directory beside tests/, which a checkout may lack
_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracing.py wraps package functions by name and records a
    # missing one as absent, which leaves that layer unmeasured
    if not os.path.isfile(os.path.join(_BENCH, "tracing.py")):
        pytest.skip("no perfbench/ beside tests/")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cat.__file__)))
    script = f"""
import json, sys
sys.path[:0] = [{src!r}, {_BENCH!r}]
import quadalg.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps(tracer.absent))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _bench_module(name):
    # perfbench/<name>.py, read without putting perfbench/ on the import path
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(_BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["kepler5d-verify", "osc8d-verify", "ycm-verify",
                                      "oracle-sweep"])
def test_every_workload_keeps_its_reference_verdicts(capsys, workload):
    # every command of a benchmark workload at seed 7, judged against the
    # recorded verdicts as the benchmark judges it, so a jet-layer or oracle
    # change that flips a verdict fails here and not only there
    if not all(os.path.isfile(os.path.join(_BENCH, f"{name}.py"))
               for name in ("workloads", "verdicts")):
        pytest.skip("no perfbench/ beside tests/")
    workloads, verdicts = _bench_module("workloads"), _bench_module("verdicts")
    reference = verdicts.load_reference()
    failed = {}
    for key, argv in workloads.commands(workload, 7):
        code = main(argv)
        reasons = verdicts.failures(reference[key], code, capsys.readouterr().out)
        if reasons:
            failed[key] = reasons
    assert failed == {}



@pytest.mark.parametrize("channel, solves", [("s1=0.5,s2=0.5", 3), ("s1=0,s2=1", 6)])
def test_crosscheck_ycm_solves_each_distinct_channel_once_per_grid(
        tmp_path, eigensolves, channel, solves):
    # three grids per distinct unit level; equal channels at equal levels
    # share one; only each level's pilot is solved by index
    from quadalg import odecheck as ode

    ode._unit_level.cache_clear()
    main(["crosscheck", "ycm", "--channel", channel, "--n1", "1", "--n2", "1",
          "--out", str(tmp_path / "r.json")])
    calls, by_index = eigensolves.levels, eigensolves.index_sizes
    assert sorted(c for c in calls if c > 128) == sorted([1024, 2048, 4096] * (solves // 3))
    assert by_index == [128] * (solves // 3)
    assert len(calls) == solves + len(by_index)


def test_crosscheck_ycm_run_again_makes_no_eigensolve(tmp_path, eigensolves):
    # a process keeps each unit level, so a repeated command reads them
    from quadalg import odecheck as ode

    argv = ["crosscheck", "ycm", "--channel", "s1=0,s2=0.5", "--n1", "1",
            "--out", str(tmp_path / "r.json")]
    ode._unit_level.cache_clear()
    assert main(argv) == 0
    eigensolves.clear()
    assert main(argv) == 0
    assert eigensolves.levels == eigensolves.index == []


# the crosscheck ycm commands of the benchmark's oracle sweep
_YCM_SWEEP = [["crosscheck", "ycm", "--channel", f"s1={a},s2={b}", "--n1", str(n1),
               "--n2", str(n2), "--seed", "7"]
              for a in ("0", "0.5", "1") for b in ("0", "0.5", "1")
              for n1, n2 in ((0, 0), (1, 0), (0, 1))]


def test_crosscheck_ycm_reports_do_not_depend_on_the_ladders_kept(capsys):
    # each report from an empty cache of unit levels equals, byte for byte,
    # its report after every other command of the sweep has run in the same
    # process
    from quadalg import odecheck as ode

    def run(argv):
        code = main(argv)
        return code, *capsys.readouterr()

    cold = []
    for argv in _YCM_SWEEP:
        ode._unit_level.cache_clear()
        cold.append(run(argv))
    assert all(code == 0 for code, _, _ in cold)
    ode._unit_level.cache_clear()
    for i, argv in enumerate(_YCM_SWEEP):
        for other in _YCM_SWEEP[:i] + _YCM_SWEEP[i + 1:]:
            run(other)
        assert run(argv) == cold[i]


def test_the_reused_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main() builds its parser once per process; a refused argv or --version
    # must leave nothing behind that changes a later report
    from quadalg import cli

    argv = ["crosscheck", "ycm", "--channel", "s1=0,s2=0", "--n1", "1", "--seed", "3"]
    cli._parser.cache_clear()
    first = _run_json(tmp_path, "first.json", argv)
    text = (tmp_path / "first.json").read_text(encoding="utf-8")
    assert main(["crosscheck", "ycm", "--n1", "-1"]) == 2
    assert main(["crosscheck", "--channel", "s1=0.5"]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()
    for name in ("again.json", "third.json"):
        assert _run_json(tmp_path, name, argv) == first
        assert (tmp_path / name).read_text(encoding="utf-8") == text
    assert cli._parser.cache_info().misses == 1

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
    _verify_fock_track(report, build(**params), p_max)
    prefix = f"fock.{system}.solver."
    assert sorted(f.check[len(prefix):] for f in report.findings
                  if f.check.startswith(prefix)) == expected


def test_commands_start_without_scipy(tmp_path):
    # numpy.random and locale are loaded at import, not in the first pass; a
    # verify and an ODE-oracle crosscheck then run without loading any module
    out = str(tmp_path / "r.json")
    script = f"""
import json, sys
import quadalg.cli as cli
random_at_import = "numpy.random" in sys.modules
loaded = set(sys.modules)
codes = [cli.main(["verify", "kepler5d", "--p", "1", "--trials", "2", "--seed", "7",
                   "--out", {out!r}]),
         cli.main(["crosscheck", "ycm", "--channel", "s1=0,s2=0", "--n1", "0", "--n2", "0",
                   "--out", {out!r}])]
print(json.dumps([random_at_import, codes, sorted(set(sys.modules) - loaded),
                  sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120, check=True)
    random_at_import, codes, loaded_in_pass, scipy_modules = json.loads(
        done.stdout.splitlines()[-1])
    assert random_at_import
    assert codes == [0, 0]
    assert loaded_in_pass == []
    assert scipy_modules == []


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "OPENBLAS_NUM_THREADS=2"])
def test_the_package_loads_openblas_on_one_thread_unless_told_otherwise(preset):
    # OpenBLAS reads its thread count only while it loads; importing the
    # package loads it on one thread, so no idle worker spins, and restores
    # the environment. A count the user set is left to OpenBLAS.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count native threads")
    # OpenBLAS's thread count is asked as the benchmark's environment stamp
    # asks it, where perfbench/ is there
    script = f"""
import json, os, sys
before = dict(os.environ)
import quadalg.cli
native, unchanged = len(os.listdir("/proc/self/task")), dict(os.environ) == before
sys.path.insert(0, {_BENCH!r})
try:
    from worker import _blas_threads
except ImportError:
    _blas_threads = lambda: None
print(json.dumps([native, _blas_threads(), unchanged, os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.sched_getaffinity(0))]))
"""
    extra = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(**extra), timeout=120, check=True)
    native, blas, unchanged, variable, cores = json.loads(done.stdout.splitlines()[-1])
    assert unchanged
    assert variable == preset
    if preset is None:
        assert native == 1
    if blas is None:
        pytest.skip("the loaded OpenBLAS exports no thread-count getter")
    assert blas == (1 if preset is None else min(int(preset), cores))


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every matrix the package factors is below OpenBLAS's threading
    # thresholds, so one or two BLAS threads give byte-identical reports
    argvs = [["verify", "kepler5d", "--p", "3", "--trials", "20"],
             ["verify", "osc8d", "--p", "2", "--trials", "4"],
             ["crosscheck", "ycm"],
             ["crosscheck", "osc8d", "--levels", "3"],
             ["crosscheck", "euler", "--samples", "2000"]]
    reports = {}
    for threads in ("1", "2"):
        outs = [str(tmp_path / f"{threads}-{i}.json") for i in range(len(argvs))]
        script = f"""
import json
import quadalg.cli as cli
print(json.dumps([cli.main(argv + ["--seed", "7", "--out", out])
                  for argv, out in zip({argvs!r}, {outs!r})]))
"""
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_child_env(OPENBLAS_NUM_THREADS=threads), timeout=300,
                              check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(argvs)
        reports[threads] = [open(out, "rb").read() for out in outs]
    assert reports["1"] == reports["2"]


# -- one batch per verify suite --------------------------------------------------

def _statuses(rep):
    return {f["check"]: f["status"] for f in rep["findings"]}


@pytest.mark.parametrize("side, row", [("ac", "anti{A,B}"), ("ac", "B"), ("bc", "B^2"),
                                       ("bc", "HA"), ("bc", "L2H"), ("bc", "H"), ("bc", "1")])
def test_a_planted_coefficient_error_turns_its_closure_check_red(tmp_path, monkeypatch,
                                                                  side, row):
    # one printed [A,C] or [B,C] coefficient off by a relative 1e-3
    declared = cat.kepler5d_constants

    def off(p):
        algebra = declared(p)
        rows = tuple((n, w, c * (1 + 1e-3) if n == row else c)
                     for n, w, c in getattr(algebra, side))
        return cat.PrintedAlgebra(**{"ac": algebra.ac, "bc": algebra.bc, side: rows},
                                  casimir=algebra.casimir, labels=algebra.labels)

    monkeypatch.setattr(cat, "kepler5d_constants", off)
    code, rep = _run_json(tmp_path, "k.json",
                          ["verify", "kepler5d", "--p", "0", "--trials", "20", "--seed", "7"])
    status = _statuses(rep)
    other = {"ac": "bc", "bc": "ac"}[side]
    assert code == 1
    assert status[f"jets.kepler5d.closure.{side.upper()}"] == "fail"
    assert status[f"jets.kepler5d.closure.{other.upper()}"] == "pass"


def test_a_planted_fourth_order_term_in_H_turns_its_commutators_red(tmp_path, monkeypatch):
    # 1e-3 d0^2 d1 d2 in H; it commutes with L34 alone
    build = ops.build_kepler_operators

    def planted(**params):
        k = build(**params)
        d = [ops.OpPartial(i) for i in range(5)]
        return ops.KeplerOperators(H=k.H + ops.OpScale(1e-3, d[0] @ d[0] @ d[1] @ d[2]),
                                   A=k.A, B=k.B, L2=k.L2, L2_full=k.L2_full, L=k.L, M=k.M)

    monkeypatch.setattr(ops, "build_kepler_operators", planted)
    code, rep = _run_json(tmp_path, "k.json",
                          ["verify", "kepler5d", "--p", "0", "--trials", "20", "--seed", "7"])
    status = _statuses(rep)
    assert code == 1
    for name in ("HA", "HB", "HL2", "HL12", "HL01"):
        assert status[f"jets.kepler5d.commute.{name}"] == "fail", name
    assert status["jets.kepler5d.commute.HL34"] == "pass"
    assert status["jets.kepler5d.so5.L12L23"] == "pass"


@pytest.mark.parametrize("couplings", [[], ["--c1", "0.25", "--c2", "0.1"]])
def test_verify_ycm_t0_reduction_reads_zero(tmp_path, couplings):
    code, rep = _run_json(tmp_path, "y.json",
                          ["verify", "ycm", "--T", "0", "--trials", "8", "--seed", "3", *couplings])
    (t0,) = [f for f in rep["findings"] if f["check"] == "jets.ycm.t0-reduction"]
    assert code == 0 and t0["status"] == "pass" and t0["residual"] == 0.0


class _CountedLetter(ops.Operator):
    """A letter that adds each of its applications to counts["letters"]."""

    def __init__(self, child, counts):
        self.child, self.counts = child, counts
        self.order, self.spin_dim, self.is_zero = child.order, child.spin_dim, child.is_zero

    def apply(self, coeffs, ctx, degree):
        self.counts["letters"] += 1
        return self.child.apply(coeffs, ctx, degree)


# recorded for verify kepler5d --p 3 --trials 20 --seed 7; the counts do not
# depend on timing and repeat exactly, so more work than this is a regression
_KEPLER5D_VERIFY_WORK = {"letters": 33, "coef_builds": 8, "germs": 20}


def test_verify_kepler5d_work_does_not_grow(tmp_path, monkeypatch):
    counts = dict.fromkeys(_KEPLER5D_VERIFY_WORK, 0)
    build = ops.build_kepler_operators

    def counted(**params):
        k = build(**params)

        def wrap(t):
            return _CountedLetter(t, counts)

        return ops.KeplerOperators(H=wrap(k.H), A=wrap(k.A), B=wrap(k.B), L2=wrap(k.L2),
                                   L2_full=wrap(k.L2_full),
                                   L={key: wrap(t) for key, t in k.L.items()},
                                   M={key: wrap(t) for key, t in k.M.items()})

    coef, random_state = ops.PointContext.coef, ops.random_state

    def counting_coef(self, key, builder):
        def build_counted(ctx):
            counts["coef_builds"] += 1
            return builder(ctx)

        return coef(self, key, build_counted)

    def counting_state(*args):
        counts["germs"] += 1
        return random_state(*args)

    monkeypatch.setattr(ops, "build_kepler_operators", counted)
    monkeypatch.setattr(ops.PointContext, "coef", counting_coef)
    monkeypatch.setattr(ops, "random_state", counting_state)
    argv = ["verify", "kepler5d", "--p", "3", "--trials", "20", "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "k.json")]) == 0
    assert all(counts[name] <= limit for name, limit in _KEPLER5D_VERIFY_WORK.items()), counts
