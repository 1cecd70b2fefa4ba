"""Per-layer tracing of the quadalg package from outside it.

The traced worker calls ``install`` before it runs any command. ``install``
replaces public functions and methods of each layer with wrappers that record
spans and counts in a ``Tracer`` held in memory; the package itself carries no
instrumentation. Every wrapped name is resolved when ``install`` runs, so a
name that a refactor removed is listed in ``Tracer.absent`` and its metrics are
left out of the result instead of failing the run. The wrappers change no
argument and no return value, so traced reports are byte-identical to untraced
ones (the benchmark checks this on every traced run).

A span is ``[name, parent index, start, end]``. A span's self time is its
duration minus the durations of its direct children; because spans of one
thread nest, the self times of a tree sum to the duration of its root. A
wrapper's own bookkeeping (counters bumped after a call returns) runs inside
the caller's span and so counts in the caller's self time; the hooks only bump
counters, and ``trace.overhead_frac`` bounds what all of it costs.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one traced worker, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.mul_tally: dict[tuple, int] = defaultdict(int)
        self._stack: list[int] = []

    def timed(self, name: str, fn, after=None):
        """Wrap fn in a span called name; after(args, result) may add counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, _clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = _clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that each call that returns adds 1 to the counter name."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans) -> dict:
    """Per span name: calls, total_s and self_s.

    total_s counts only spans with no ancestor of the same name, so recursion
    is not counted twice; self_s sums every span's duration minus its direct
    children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for idx, (name, parent, t0, t1) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child_time[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc < 0:
            row["total_s"] += t1 - t0
    return out


# --------------------------------------------------------------------------
# wrapped names, per layer
# --------------------------------------------------------------------------

def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    return 0


def _table_bytes(space) -> int:
    return sum(_nbytes(v) for v in vars(space).values())


def _mul_work(tally) -> tuple[int, int]:
    """(pairs, bytes) of the products in tally, computed from index-table sizes.

    tally maps (space, a dtype, b dtype, result dtype) to a call count, so the
    traced call only bumps a counter and the sizes are read once, here. The
    bytes are those a gather-and-scatter product touches: three index entries
    and two operand reads per pair, and one output per term. A space without
    the index tables counts (0, 0).
    """
    pairs = nbytes = 0
    for (space, a_dtype, b_dtype, out_dtype), calls in tally.items():
        tables = [getattr(space, t, None) for t in ("mul_i", "mul_j", "mul_k")]
        if any(t is None for t in tables):
            continue
        n = len(tables[0])
        pairs += calls * n
        nbytes += calls * ((sum(t.itemsize for t in tables) + a_dtype.itemsize
                            + b_dtype.itemsize) * n + out_dtype.itemsize * space.n_terms)
    return pairs, nbytes


def _sampler_factory(tracer: Tracer, fn):
    def factory(*args, **kwargs):
        sampler = fn(*args, **kwargs)
        accept = sampler.accept

        def counting_accept(x):
            ok = accept(x)
            tracer.counts["operators.point_draws" if ok else "operators.point_rejections"] += 1
            return ok

        return dataclasses.replace(sampler, accept=counting_accept)

    factory.__wrapped__ = fn
    return factory


def _family_factory(tracer: Tracer, fn):
    def factory(*args, **kwargs):
        family = fn(*args, **kwargs)
        return dataclasses.replace(
            family, roots_of=tracer.counted("algebra.roots_calls", family.roots_of))

    factory.__wrapped__ = fn
    return factory


def _coef_method(tracer: Tracer, fn):
    def coef(self, key, builder):
        tracer.counts["operators.coef_requests"] += 1
        return fn(self, key, tracer.counted("operators.coef_builds", builder))

    coef.__wrapped__ = fn
    return coef


def _eigh_counter(tracer: Tracer, fn):
    def eigh(d, e, *args, **kwargs):
        tracer.counts["odecheck.eigensolves"] += 1
        tracer.counts["odecheck.grid_points"] += len(d)
        return fn(d, e, *args, **kwargs)

    eigh.__wrapped__ = fn
    return eigh


def _targets(tracer: Tracer):
    """(module, dotted name, wrapper factory) for every traced name."""
    t = tracer

    def span(name):
        return lambda fn: t.timed(name, fn)

    def jet_space_init(fn):
        def after(args, result):
            t.counts["jets.table_bytes"] += _table_bytes(args[0])
        return t.timed("jets.space_build", fn, after)

    def mul(fn):
        tally = t.mul_tally

        def after(args, result):
            tally[args[0], args[1].dtype, args[2].dtype, result.dtype] += 1
        return t.timed("jets.mul", fn, after)

    def search(fn):
        def after(args, result):
            t.counts["algebra.candidates"] += len(result)
        return t.timed("algebra.search", fn, after)

    return [
        ("quadalg.cli", "main", span("cli.main")),
        ("quadalg.report", "Report.to_json", span("report.serialize")),
        ("quadalg.jets", "JetSpace.__init__", jet_space_init),
        ("quadalg.jets", "JetSpace.mul_coeffs", mul),
        ("quadalg.jets", "JetSpace.div_coeffs", span("jets.div")),
        ("quadalg.jets", "jet_seed_polynomial", span("jets.seed")),
        ("quadalg.operators", "commutator_residual", span("operators.check")),
        ("quadalg.operators", "operator_residual", span("operators.check")),
        ("quadalg.operators", "fit_operator_coefficients", span("operators.check")),
        ("quadalg.operators", "kepler_quadratic_closure", span("operators.closure")),
        ("quadalg.operators", "osc8d_quadratic_closure", span("operators.closure")),
        ("quadalg.operators", "random_state", span("operators.germ")),
        ("quadalg.operators", "kepler_sampler", lambda fn: _sampler_factory(t, fn)),
        ("quadalg.operators", "osc8d_sampler", lambda fn: _sampler_factory(t, fn)),
        ("quadalg.operators", "PointContext.coef", lambda fn: _coef_method(t, fn)),
        ("quadalg.algebra", "find_representations", search),
        ("quadalg.algebra", "phi_family_from_constants", lambda fn: _family_factory(t, fn)),
        ("quadalg.catalog", "kepler5d_phi_family", lambda fn: _family_factory(t, fn)),
        ("quadalg.catalog", "osc8d_phi_family", lambda fn: _family_factory(t, fn)),
        ("quadalg.algebra", "build_fock_realization",
         lambda fn: t.counted("algebra.fock_builds", t.timed("algebra.fock", fn))),
        ("quadalg.algebra", "verify_commutation", span("algebra.fock")),
        ("quadalg.algebra", "verify_casimir", span("algebra.fock")),
        ("quadalg.algebra", "fock_invariant_residuals", span("algebra.fock")),
        ("quadalg.catalog", "fock_convention_scan", span("catalog.convention_scan")),
        ("quadalg.catalog", "kepler5d_spectrum", span("catalog.spectrum")),
        ("quadalg.catalog", "osc8d_spectrum", span("catalog.spectrum")),
        ("quadalg.catalog", "ycm_spectrum_parabolic", span("catalog.spectrum")),
        ("quadalg.catalog", "ycm_spectrum_duality", span("catalog.spectrum")),
        ("quadalg.odecheck", "solve_parabolic_pair", span("odecheck.solve")),
        ("quadalg.odecheck", "radial_oscillator_eigensolve", span("odecheck.solve")),
        ("quadalg.odecheck", "eigh_tridiagonal", lambda fn: _eigh_counter(t, fn)),
        ("quadalg.hurwitz", "euler_identity_residual", span("hurwitz.euler")),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced name that exists; record the others as absent.

    A method is replaced on its class. A module-level function is replaced in
    every loaded quadalg module that holds the same object, under any name, so
    calls through ``from .jets import ...`` bindings are traced too.
    """
    for module_name, dotted, make in _targets(tracer):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(dotted)
            continue
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.absent.append(dotted)
            continue
        wrapper = make(original)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "quadalg" or mod_name.startswith("quadalg.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """{metric: (value, unit)} for the per-layer metrics of one traced worker.

    A metric is left out when none of the wrapped names it is measured from
    exists. A ratio over a zero count reads 0.
    """
    spans = summarize(tracer.spans)
    c = tracer.counts

    def s(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    mul_s = s("jets.mul", "total_s")
    mul_pairs, mul_bytes = _mul_work(tracer.mul_tally)
    draws, rejections = c["operators.point_draws"], c["operators.point_rejections"]
    requests, builds = c["operators.coef_requests"], c["operators.coef_builds"]
    samplers = ("kepler_sampler", "osc8d_sampler")
    families = ("phi_family_from_constants", "kepler5d_phi_family", "osc8d_phi_family")
    fock = ("build_fock_realization", "verify_commutation", "verify_casimir",
            "fock_invariant_residuals")
    spectra = ("kepler5d_spectrum", "osc8d_spectrum", "ycm_spectrum_parabolic",
               "ycm_spectrum_duality")
    checks = ("commutator_residual", "operator_residual", "fit_operator_coefficients")
    # metric: (value, unit, wrapped names it is measured from)
    table = {
        "jets.mul_calls": (s("jets.mul", "calls"), "count", ("JetSpace.mul_coeffs",)),
        "jets.mul_s": (mul_s, "s", ("JetSpace.mul_coeffs",)),
        "jets.mul_pairs": (mul_pairs, "count", ("JetSpace.mul_coeffs",)),
        "jets.mul_bytes_computed": (mul_bytes, "B",
                                    ("JetSpace.mul_coeffs",)),
        "jets.mul_ns_per_pair": (_ratio(mul_s * 1e9, mul_pairs), "ns",
                                 ("JetSpace.mul_coeffs",)),
        "jets.div_calls": (s("jets.div", "calls"), "count", ("JetSpace.div_coeffs",)),
        "jets.div_s": (s("jets.div", "total_s"), "s", ("JetSpace.div_coeffs",)),
        "jets.seed_calls": (s("jets.seed", "calls"), "count", ("jet_seed_polynomial",)),
        "jets.seed_s": (s("jets.seed", "total_s"), "s", ("jet_seed_polynomial",)),
        "jets.space_builds": (s("jets.space_build", "calls"), "count",
                              ("JetSpace.__init__",)),
        "jets.space_build_s": (s("jets.space_build", "total_s"), "s",
                               ("JetSpace.__init__",)),
        "jets.table_bytes": (c["jets.table_bytes"], "B", ("JetSpace.__init__",)),
        "operators.check_calls": (s("operators.check", "calls"), "count", checks),
        "operators.check_s": (s("operators.check", "total_s"), "s", checks),
        "operators.check_self_s": (s("operators.check", "self_s"), "s", checks),
        "operators.closure_s": (s("operators.closure", "total_s"), "s",
                                ("kepler_quadratic_closure", "osc8d_quadratic_closure")),
        "operators.germ_draws": (s("operators.germ", "calls"), "count", ("random_state",)),
        "operators.germ_s": (s("operators.germ", "total_s"), "s", ("random_state",)),
        "operators.point_draws": (draws, "count", samplers),
        "operators.point_rejections": (rejections, "count", samplers),
        "operators.point_accept_ratio": (_ratio(draws, draws + rejections), "ratio",
                                         samplers),
        "operators.coef_requests": (requests, "count", ("PointContext.coef",)),
        "operators.coef_builds": (builds, "count", ("PointContext.coef",)),
        "operators.coef_hit_ratio": (_ratio(requests - builds, requests), "ratio",
                                     ("PointContext.coef",)),
        "algebra.search_calls": (s("algebra.search", "calls"), "count",
                                 ("find_representations",)),
        "algebra.search_s": (s("algebra.search", "total_s"), "s",
                             ("find_representations",)),
        "algebra.roots_calls": (c["algebra.roots_calls"], "count", families),
        "algebra.candidates": (c["algebra.candidates"], "count", ("find_representations",)),
        "algebra.roots_per_candidate": (_ratio(c["algebra.roots_calls"],
                                               c["algebra.candidates"]), "ratio",
                                        ("find_representations",)),
        "algebra.fock_builds": (c["algebra.fock_builds"], "count",
                                ("build_fock_realization",)),
        "algebra.fock_s": (s("algebra.fock", "total_s"), "s", fock),
        "catalog.convention_scan_s": (s("catalog.convention_scan", "total_s"), "s",
                                      ("fock_convention_scan",)),
        "catalog.spectrum_calls": (s("catalog.spectrum", "calls"), "count", spectra),
        "catalog.spectrum_s": (s("catalog.spectrum", "total_s"), "s", spectra),
        "odecheck.solve_calls": (s("odecheck.solve", "calls"), "count",
                                 ("solve_parabolic_pair", "radial_oscillator_eigensolve")),
        "odecheck.solve_s": (s("odecheck.solve", "total_s"), "s",
                             ("solve_parabolic_pair", "radial_oscillator_eigensolve")),
        "odecheck.eigensolves": (c["odecheck.eigensolves"], "count", ("eigh_tridiagonal",)),
        "odecheck.grid_points": (c["odecheck.grid_points"], "count", ("eigh_tridiagonal",)),
        "hurwitz.euler_calls": (s("hurwitz.euler", "calls"), "count",
                                ("euler_identity_residual",)),
        "hurwitz.euler_s": (s("hurwitz.euler", "total_s"), "s", ("euler_identity_residual",)),
        "report.serialize_s": (s("report.serialize", "total_s"), "s", ("Report.to_json",)),
        "cli.commands": (s("cli.main", "calls"), "count", ("main",)),
        "cli.self_s": (s("cli.main", "self_s"), "s", ("main",)),
    }
    out = {}
    for metric, (value, unit, sources) in table.items():
        if all(name in tracer.absent for name in sources):
            continue
        out[metric] = (int(value) if unit in ("count", "B") else float(value), unit)
    return out
