"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


# --------------------------------------------------------------------------
# self-time arithmetic
# --------------------------------------------------------------------------

# root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 9] > a [6, 8] (recursion)
NESTED = [
    ["root", -1, 0.0, 10.0],
    ["a", 0, 1.0, 4.0],
    ["b", 1, 2.0, 3.0],
    ["a", 0, 5.0, 9.0],
    ["a", 3, 6.0, 8.0],
]


def test_self_times_are_nonnegative_and_sum_to_the_root():
    out = tracing.summarize(NESTED)
    assert all(row["self_s"] >= 0 for row in out.values())
    assert sum(row["self_s"] for row in out.values()) == pytest.approx(10.0)
    assert out["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert out["b"]["self_s"] == pytest.approx(1.0)


def test_recursive_spans_are_not_counted_twice():
    out = tracing.summarize(NESTED)
    assert out["a"]["calls"] == 3
    assert out["a"]["total_s"] == pytest.approx(3.0 + 4.0)
    assert out["a"]["self_s"] == pytest.approx(2.0 + 2.0 + 2.0)


def test_tracer_spans_nest_like_the_calls():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.001)

    leaf_w = tracer.timed("leaf", leaf)

    def outer(depth):
        leaf_w()
        if depth:
            outer_w(depth - 1)

    outer_w = tracer.timed("outer", outer)
    outer_w(2)
    out = tracing.summarize(tracer.spans)
    root = tracer.spans[0]
    assert out["outer"]["calls"] == 3 and out["leaf"]["calls"] == 3
    assert out["outer"]["total_s"] == pytest.approx(root[3] - root[2])
    assert sum(r["self_s"] for r in out.values()) == pytest.approx(root[3] - root[2])
    assert all(r["self_s"] >= 0 for r in out.values())


# --------------------------------------------------------------------------
# reported percentile
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert run.percentile(values, 50.0) == pytest.approx(50.5)
    assert run.percentile(values, 90.0) == pytest.approx(90.1)
    assert run.percentile([3.0], 90.0) == 3.0


# --------------------------------------------------------------------------
# verdict gate
# --------------------------------------------------------------------------

def _report(findings) -> str:
    return json.dumps({"schema": "quadalg/1", "findings": [
        {"check": name, "ref": "", "status": status, "residual": 1e-14}
        for name, status in findings]})


REFERENCE = {"exit_code": 0,
             "required": {"jets.a": "pass", "jets.b": "pass"},
             "findings": ["fock.kepler5d.solver.p0.E-0.500000000.u+0.500000"]}
GOOD = [("jets.a", "pass"), ("jets.b", "pass"),
        ("fock.kepler5d.solver.p0.E-0.500000000.u+0.500000", "finding")]


def test_matching_verdict_passes_with_new_findings_and_other_residuals():
    text = _report(GOOD + [("new.finding", "finding")]).replace("1e-14", "3e-12")
    assert verdicts.failures(REFERENCE, 0, text) == []


@pytest.mark.parametrize("exit_code, findings, error, expect", [
    (0, [("jets.a", "fail")] + GOOD[1:], None, "jets.a: fail"),
    (0, GOOD[1:], None, "jets.a missing"),
    (1, GOOD, None, "exit code 1"),
    (2, GOOD, None, "exit code 2"),
    (0, GOOD[:2], None, "finding fock.kepler5d.solver"),
    (None, GOOD, "Traceback ... KeyError", "raised"),
])
def test_changed_verdict_flips_the_command_to_failed(exit_code, findings, error, expect):
    reasons = verdicts.failures(REFERENCE, exit_code, _report(findings), error)
    assert reasons and any(expect in r for r in reasons)


@pytest.mark.parametrize("text", [
    "configuration error", json.dumps({"schema": "x/1"}),
    json.dumps({"schema": "quadalg/1", "findings": [{"check": "jets.a"}]}),
])
def test_output_that_is_no_quadalg_report_fails(text):
    assert any("report" in r or "JSON" in r for r in verdicts.failures(REFERENCE, 0, text))


def test_reference_covers_every_workload_command():
    reference = verdicts.load_reference()
    keys = {key for w in workloads.WORKLOADS for key, _ in workloads.commands(w, 0)}
    assert keys <= set(reference)
    assert all(v["exit_code"] == 0 for v in reference.values())
    assert any(".solver.p" in f for v in reference.values() for f in v["findings"])


# --------------------------------------------------------------------------
# workers and tracing, on short commands
# --------------------------------------------------------------------------

SHORT = ["hurwitz-check --point 1,0,0,0,1,0,0,0 --seed {s0}",
         "dualize --direction forward --seed {s0}",
         "crosscheck euler --samples 200 --seed {s1} --literal-x0"]


def _short_argvs(seed):
    return [t.format(s0=seed, s1=seed + 1).split() for t in SHORT]


def test_traced_worker_reports_byte_identical_and_counts_layers():
    deadline = time.monotonic() + 120
    plain = run.spawn_worker(_short_argvs(3), False, deadline)
    traced = run.spawn_worker(_short_argvs(3), True, deadline)
    assert "layers" not in plain
    assert run.report_digests(plain) == run.report_digests(traced)
    layers = traced["layers"]
    assert traced["absent"] == []
    assert layers["cli.commands"][0] == len(SHORT)
    assert layers["hurwitz.euler_calls"][0] == 1 + 200
    assert layers["jets.mul_calls"][0] == 0
    assert 0 <= layers["cli.self_s"][0] <= traced["wall_s"]
    assert plain["environment"]["numba_active"] in (True, False)


def test_a_removed_name_is_reported_absent_not_fatal():
    script = f"""
import json, sys
sys.path[:0] = [{os.path.join(run.ROOT, 'src')!r}, {HERE!r}]
import quadalg.cli, quadalg.jets, quadalg.operators, tracing
del quadalg.jets.jet_seed_polynomial
del quadalg.operators.kepler_quadratic_closure
tracer = tracing.Tracer()
tracing.install(tracer)
quadalg.cli.main(["dualize"])
print(json.dumps({{"absent": tracer.absent, "metrics": list(tracing.layer_metrics(tracer))}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out["absent"]) == {"jet_seed_polynomial", "kepler_quadratic_closure"}
    assert "jets.seed_calls" not in out["metrics"]
    assert "operators.closure_s" in out["metrics"]  # osc8d_quadratic_closure remains
    assert "cli.commands" in out["metrics"]


def test_mul_pairs_and_bytes_come_from_table_sizes():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from quadalg.jets import JetSpace

    tracer = tracing.Tracer()
    make = next(m for _, name, m in tracing._targets(tracer) if name == "JetSpace.mul_coeffs")
    wrapped = make(JetSpace.mul_coeffs)
    space = JetSpace(2, 3)
    a = np.arange(space.n_terms, dtype=np.complex128)
    for _ in range(3):
        assert np.array_equal(wrapped(space, a, a), space.mul_coeffs(a, a))
    metrics = tracing.layer_metrics(tracer)
    pairs = len(space.mul_i)
    # per pair three int64 indices and two complex128 operands; per term one output
    assert metrics["jets.mul_calls"] == (3, "count")
    assert metrics["jets.mul_pairs"] == (3 * pairs, "count")
    assert metrics["jets.mul_bytes_computed"] == (3 * (56 * pairs + 16 * space.n_terms), "B")
