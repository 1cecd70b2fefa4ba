"""One fresh benchmark worker: import quadalg.cli, run CLI commands, report.

Reads a JSON request from standard input:
``{"root": checkout root, "argvs": [[arg, ...], ...], "trace": bool}``.
It imports ``quadalg.cli`` from ``<root>/src``, calls ``quadalg.cli.main(argv)``
for each argv in order with the report captured in memory, and writes one JSON
object to standard output: the import time, the summed wall and CPU time of
the calls, the peak resident set, and per command its wall time, exit code,
report text and any exception. With ``"trace": true`` it first wraps the
package's layers (``tracing.py``) and adds the per-layer metrics; without it,
no wrapper is imported. Exits 3 if quadalg cannot be imported from the
checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    import quadalg._jet_kernels as kernels

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(),
            "numba_active": bool(getattr(kernels, "NUMBA_ACTIVE", False))}


def main() -> int:
    request = json.load(sys.stdin)
    src = os.path.join(request["root"], "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import quadalg.cli as cli
    except ImportError as exc:
        print(f"cannot import quadalg from {src}: {exc}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"quadalg was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if request["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    commands = []
    cpu0, wall = _cpu_s(), 0.0
    for argv in request["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        error, code = None, None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:  # a crash is a failed command, not a failed benchmark
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t
        wall += dt
        commands.append({"wall_s": dt, "exit_code": code, "stdout": out.getvalue(),
                         "stderr": err.getvalue(), "error": error})
    cpu_s = _cpu_s() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "environment": _environment(),
    }
    if tracer is not None:
        result["layers"] = {k: list(v) for k, v in tracing.layer_metrics(tracer).items()}
        result["absent"] = tracer.absent
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
