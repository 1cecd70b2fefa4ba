#!/usr/bin/env python3
"""Time-to-verdict benchmark of the quadalg CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kepler5d-verify --seed 7 --seconds 60 --trace 0

A workload (``workloads.py``) is a fixed list of ``quadalg`` CLI commands built
from ``--seed``. One pass runs them one after another through
``quadalg.cli.main(argv)`` in a fresh worker process (``worker.py``), which
imports quadalg from ``src/`` of this checkout: a closed loop with one client,
with nothing else running, so lazily built jet tables are paid inside the pass
as a CLI user pays them. Every report is checked against the verdict reference
(``verdicts.py``); a command that fails counts in ``failed``.

With ``--trace 0`` the run first starts ``SETUP_PROBES`` workers that only
import the CLI, then runs passes, each started only if it is expected (from
the longest pass so far) to end within ``--seconds`` of the run's start; there
is at least one pass. It reports the median over passes of:

- ``wall_s``: summed wall time of the pass's ``cli.main`` calls;
- ``cpu_s``: user plus system CPU time of the worker over the same calls;
- ``peak_rss_mb``: peak resident set of the worker;

and ``setup_s``, the median time to ``import quadalg.cli`` over every worker of
the run. Reports of the same command in different passes must be identical.

With ``--trace 1`` it runs one untraced pass and then one traced pass, whose
worker wraps each layer's public functions (``tracing.py``); it reports the
per-layer metrics of the traced pass and ``trace.overhead_frac``, the traced
wall time over the untraced one minus 1. The two passes must produce
byte-identical reports.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a readable summary and the environment stamp. The run exits 2 without that
line when it cannot measure, for instance when quadalg is not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import verdicts  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run ends well within 180 s
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


class BenchError(RuntimeError):
    """The benchmark cannot measure; it exits without a result."""


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least ten of n samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """p-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(values, unit: str) -> str:
    """Median, the tail percentile if there is one, and the sample count."""
    text = f"median {statistics.median(values):.4g} {unit}"
    p = tail_percentile(len(values))
    if p is not None and p > 50.0:
        text += f", p{p:g} {percentile(values, p):.4g} {unit}"
    text += f" (n={len(values)})"
    if len(values) < 20:
        text += ": " + " ".join(f"{v:.4g}" for v in values)
    return text


# --------------------------------------------------------------------------
# workers
# --------------------------------------------------------------------------

def spawn_worker(argvs, trace: bool, deadline: float) -> dict:
    """Run one fresh worker to completion and return its result."""
    request = json.dumps({"root": ROOT, "argvs": argvs, "trace": trace})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=request, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def check_pass(result: dict, cmds, reference: dict) -> list[tuple[str, list[str]]]:
    """(command key, reasons) for every command of one pass that failed."""
    failed = []
    for (key, _), cmd in zip(cmds, result["commands"]):
        ref = reference.get(key)
        reasons = (["no reference verdict"] if ref is None else
                   verdicts.failures(ref, cmd["exit_code"], cmd["stdout"], cmd["error"]))
        if reasons:
            stderr = cmd["stderr"].strip()
            failed.append((key, reasons + ([f"stderr: {stderr}"] if stderr else [])))
    return failed


def report_digests(result: dict) -> list[str]:
    return [hashlib.sha256(c["stdout"].encode()).hexdigest() for c in result["commands"]]


# --------------------------------------------------------------------------
# environment stamp
# --------------------------------------------------------------------------

def git_commit(root: str) -> str | None:
    """HEAD commit of the git checkout at root, or None when root is none."""
    # the ceiling keeps git from taking up a repository above root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: str) -> str:
    """sha256 over the package sources, which names the code where git cannot.

    A benchmark checkout is often an export without ``.git``; then this is
    the only identity of the measured code.
    """
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "quadalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(worker_env: dict) -> dict:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"git_commit": git_commit(ROOT), "source_sha256": source_digest(ROOT),
            "nproc": nproc, **worker_env}


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, reference: dict,
              deadline: float) -> dict:
    cmds = workloads.commands(workload, seed)
    argvs = [argv for _, argv in cmds]
    end = time.monotonic() + seconds
    setups = [spawn_worker([], False, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes, longest = [], 0.0
    while True:
        t0 = time.monotonic()
        passes.append(spawn_worker(argvs, False, deadline))
        now = time.monotonic()
        longest = max(longest, now - t0)
        # start another pass only if it is expected to end within the window
        if now + longest > min(end, deadline - 5.0):
            break
    setups += [p["setup_s"] for p in passes]

    failed = [f for p in passes for f in check_pass(p, cmds, reference)]
    digests = [report_digests(p) for p in passes]
    unstable = [key for i, (key, _) in enumerate(cmds)
                if len({d[i] for d in digests}) > 1]
    median = statistics.median
    return {
        "attempted": len(passes) * len(cmds),
        "failed": failed,
        "problems": [f"report of {key!r} differs between passes" for key in unstable],
        "metrics": {
            "wall_s": (median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (median(p["cpu_s"] for p in passes), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        },
        "samples": {
            "pass wall": ([p["wall_s"] for p in passes], "s"),
            "command wall": ([c["wall_s"] for p in passes for c in p["commands"]], "s"),
            "setup": (setups, "s"),
        },
        "environment": passes[0]["environment"],
    }


def traced_run(workload: str, seed: int, reference: dict, deadline: float) -> dict:
    cmds = workloads.commands(workload, seed)
    argvs = [argv for _, argv in cmds]
    plain = spawn_worker(argvs, False, deadline)
    traced = spawn_worker(argvs, True, deadline)
    failed = check_pass(plain, cmds, reference) + check_pass(traced, cmds, reference)
    problems = [f"traced report of {key!r} differs from the untraced one"
                for (key, _), a, b in zip(cmds, report_digests(plain), report_digests(traced))
                if a != b]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    return {
        "attempted": 2 * len(cmds),
        "failed": failed,
        "problems": problems,
        "notes": [f"traced name absent, its metrics left out: {name}"
                  for name in traced["absent"]],
        "metrics": metrics,
        "samples": {"command wall": ([c["wall_s"] for c in plain["commands"]], "s")},
        "environment": plain["environment"],
    }


def print_summary(workload: str, seed: int, trace: bool, out: dict) -> None:
    attempted, n_failed = out["attempted"], len(out["failed"])
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:30s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':30s} {n_failed / attempted:>16.6g} ratio"
          f"  ({n_failed} of {attempted} commands)")
    for label, (values, unit) in out["samples"].items():
        print(f"  {label}: {describe(values, unit)}")
    for key, reasons in out["failed"]:
        print(f"  FAILED {key}: {'; '.join(reasons)}")
    for line in out["problems"] + out.get("notes", []):
        print(f"  {line}")
    print("environment " + json.dumps(environment(out["environment"]), sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        reference = verdicts.load_reference()
        if args.trace:
            out = traced_run(args.workload, args.seed, reference, deadline)
        else:
            out = timed_run(args.workload, args.seed, args.seconds, reference, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print_summary(args.workload, args.seed, bool(args.trace), out)
    result = {
        "correct": not out["failed"] and not out["problems"],
        "attempted": out["attempted"],
        "failed": len(out["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
