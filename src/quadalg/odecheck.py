"""Independent spectral oracle: finite-difference eigenproblems for the
separated parabolic channels and the 4D radial oscillator blocks.

Discretizations are flux-form symmetric second-order schemes, and eigenvalues
are Richardson-extrapolated over three doubled grids, all solved in one sweep
(_sweep). A pilot grid of 1/_PILOT_RATIO of the coarsest grid's cells, or of
_PILOT_CELLS_PER_LEVEL cells per wanted level where that is more, finds
the wanted levels by LAPACK's symmetric tridiagonal bisection (dstebz) by
index. Each Richardson grid refines every level by Rayleigh-quotient
iteration from the same level on the next coarser grid (one tridiagonal
solve, dgtsv, per step) and certifies it by two Sturm counts (dlarrc): a
window of a few ulps of the matrix norm around the level must hold exactly
one eigenvalue, at the wanted index. Where any level fails, or the pilot is
over half the coarsest grid, the index form decides that grid, so a
coarser grid's levels set the cost and the last bits, never which eigenvalue
a level is. The paired parabolic channels are matched through the grid's
exact scaling with sqrt(-beta) instead of a root search on beta: each channel
needs only its level at beta = -1, alpha = 0 on the three grids. A process
keeps every such level it solves (_unit_level) under (s, level, coarsest
grid); each is swept alone, from its own pilot, so it does not depend on the
other levels a command asks for or on what was solved before. Nothing else
in this module is kept across calls. A radial block's levels 0..n come from
one sweep with the cutoff of level n. These spectra adjudicate the printed
closed forms, so no printed formula is used in this module's numerics.

The LAPACK routines are called through ctypes in the LAPACK that numpy's own
linalg extension is linked against (numpy's bundled OpenBLAS, with 64-bit
integers), so no command loads scipy. The eigensolver, eigh_tridiagonal, is
one dstebz call by index, with the arguments scipy.linalg.eigh_tridiagonal
passes for an index range, so every pilot eigenvalue is bitwise scipy's;
where that library exports no dstebz of known integer width,
scipy.linalg.lapack.dstebz is imported on the first solve instead. Where it
exports no dgtsv or dlarrc, every grid is solved by index.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Optional, Sequence

import numpy as np

from ._record import Frozen, field_eq, set_fields
from .errors import GridTooCoarse, NoRoot


def _linalg_library():
    """numpy.linalg's extension module opened as a shared library, or None.

    Names are looked up through it, so the dynamic linker searches the
    libraries that extension links to.
    """
    try:
        from numpy.linalg import _umath_linalg

        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None


_LAPACK = _linalg_library()


def _bind(routine: str, argtypes: list):
    """routine of numpy's LAPACK with int64 integers (OpenBLAS ILP64 names), or None."""
    if _LAPACK is None:
        return None
    for name in (f"scipy_{routine}_64_", f"{routine}_64_"):
        fn = getattr(_LAPACK, name, None)
        if fn is not None:
            fn.argtypes = argtypes
            fn.restype = None
            return fn
    return None


_I = ctypes.POINTER(ctypes.c_int64)
_F = ctypes.POINTER(ctypes.c_double)
_A, _C, _LEN = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
# RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT,
# WORK, IWORK, INFO and the lengths of the two characters
_DSTEBZ = _bind("dstebz", [_C, _C, _I, _F, _F, _I, _I, _F, _A, _A, _I, _I,
                           _A, _A, _A, _A, _A, _I, _LEN, _LEN])
# N, NRHS, DL, D, DU, B, LDB, INFO
_DGTSV = _bind("dgtsv", [_I, _I, _A, _A, _A, _A, _I, _I])
# JOBT, N, VL, VU, D, E, PIVMIN, EIGCNT, LCNT, RCNT, INFO and the length of JOBT
_DLARRC = _bind("dlarrc", [_C, _I, _F, _F, _A, _A, _F, _I, _I, _I, _I, _LEN])


def _dstebz(d: np.ndarray, e: np.ndarray, il: int, iu: int) -> tuple:
    """(m, w, info) of dstebz for the 1-based indices il..iu with ABSTOL 0 and
    ORDER 'E', as scipy calls it."""
    if _DSTEBZ is None:
        from scipy.linalg.lapack import dstebz

        # scipy's wrapper refuses an empty e, which dstebz does not read at N = 1
        m, w, _, _, info = dstebz(d, e if e.size else np.zeros(1), 2, 0.0, 1.0, il, iu, 0.0,
                                  "E")
        return int(m), w, int(info)
    n = len(d)
    i64, f64 = ctypes.c_int64, ctypes.c_double
    m, nsplit, info = i64(), i64(), i64()
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.int64) for k in (1, 1, 3))
    _DSTEBZ(b"I", b"E", i64(n), f64(0.0), f64(1.0), i64(il), i64(iu), f64(0.0),
            d.ctypes.data, e.ctypes.data, m, nsplit, w.ctypes.data, iblock.ctypes.data,
            isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data, info, 1, 1)
    return m.value, w, info.value


def eigh_tridiagonal(d, e, lo: int, hi: int) -> np.ndarray:
    """Eigenvalues lo..hi (0-based, ascending) of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, by dstebz.

    d and e must be 1-D and finite, with one more element in d than in e:
    LAPACK reads them through raw pointers, so anything else raises
    ValueError before it runs. So does an index range outside 0 <= lo <= hi
    < len(d), with the argument (6, IL, or 7, IU) that dstebz would name:
    LAPACK's error handler would print its refusal on stdout. A negative
    LAPACK info raises ValueError and a positive one LinAlgError, as in
    scipy.linalg.eigh_tridiagonal.
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if not 0 <= lo < d.size:
        info = -6
    elif not lo <= hi < d.size:
        info = -7
    else:
        m, w, info = _dstebz(d, e, lo + 1, hi + 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal stebz "
                         f"(eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info})")
    return w[:m]


class ParabolicChannelSpec(Frozen):
    """One separated parabolic channel: operator d/dx(x d/dx) - s/(4x) + alpha/4 + (beta/4) x."""

    __slots__ = ("s", "alpha", "beta")

    def __init__(self, s: float, alpha: float, beta: float):
        if beta >= 0:
            raise ValueError("bound channels need beta < 0")
        set_fields(self, s, alpha, beta)


class RadialOscillatorSpec(Frozen):
    """Radial reduction of one 4-variable oscillator block."""

    __slots__ = ("angular", "lam", "omega", "hbar")

    def __init__(self, angular: float = 0.0, lam: float = 0.0, omega: float = 1.0,
                 hbar: float = 1.0):
        if omega <= 0 or hbar <= 0:
            raise ValueError("omega and hbar must be positive")
        set_fields(self, angular, lam, omega, hbar)


class EigenResult(Frozen):
    __slots__ = ("grid_size", "extrapolated", "error_estimate")
    __eq__ = field_eq

    def __init__(self, grid_size: int, extrapolated: float, error_estimate: float):
        set_fields(self, grid_size, extrapolated, error_estimate)


# Rayleigh-quotient steps before the index form decides, the half-width of the
# certification window in ulps of the matrix norm, coarsest cells per pilot
# cell, and the fewest pilot cells per wanted level
_RQI_STEPS = 6
_WINDOW_ULPS = 64
_PILOT_RATIO = 8
_PILOT_CELLS_PER_LEVEL = 8


def _shifted_solve(diag: np.ndarray, off: np.ndarray, shift: float,
                   rhs: np.ndarray) -> Optional[np.ndarray]:
    """y with (T - shift) y = rhs, by LAPACK dgtsv (LU with partial
    pivoting); None when a pivot is exactly zero."""
    i64 = ctypes.c_int64
    lower, upper, d, y, info = off.copy(), off.copy(), diag - shift, rhs.copy(), i64()
    _DGTSV(i64(len(diag)), i64(1), lower.ctypes.data, d.ctypes.data, upper.ctypes.data,
           y.ctypes.data, i64(len(diag)), info)
    return y if info.value == 0 else None


def _sturm_counts(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> tuple:
    """The numbers of eigenvalues at or below lo and at or below hi, by the
    Sturm counts of LAPACK dlarrc."""
    i64, f64 = ctypes.c_int64, ctypes.c_double
    count, below_lo, below_hi, info = i64(), i64(), i64(), i64()
    _DLARRC(b"T", i64(len(diag)), f64(lo), f64(hi), diag.ctypes.data, off.ctypes.data,
            f64(0.0), count, below_lo, below_hi, info, 1)
    return below_lo.value, below_hi.value


def _certified_levels(diag: np.ndarray, off: np.ndarray, levels: range, top: bool,
                      hint: Sequence[float]) -> Optional[np.ndarray]:
    """The levels (see _extreme_levels) by Rayleigh-quotient iteration, each
    certified by Sturm counts; None if any level fails.

    The i-th level starts at the shift hint[i]. A step solves (T - shift) y =
    x, moves the shift to the Rayleigh quotient of y, shift + (x.y)/(y.y), and
    takes x = y/|y|; the level is the shift once a step moves it by less than
    delta, _WINDOW_ULPS ulps of the Gershgorin norm. Level j is certified when
    (level - delta, level + delta] holds exactly one eigenvalue and the counts
    put it at index j from the top (top) or from the bottom. A zero pivot, a
    non-finite step, a shift still moving after _RQI_STEPS steps, wrong counts
    or a missing LAPACK routine fail it.
    """
    if _DGTSV is None or _DLARRC is None:
        return None
    n = len(diag)
    diag, off = np.ascontiguousarray(diag, float), np.ascontiguousarray(off, float)
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    delta = _WINDOW_ULPS * np.finfo(float).eps * float(np.max(np.abs(diag) + radius))
    found = np.empty(len(levels))
    for i, j in enumerate(levels):
        shift, x = float(hint[i]), np.full(n, 1.0 / np.sqrt(n))
        for _ in range(_RQI_STEPS):
            y = _shifted_solve(diag, off, shift, x)
            if y is None:
                return None
            yy = float(y @ y)
            if not 0.0 < yy < np.inf:
                return None
            step = float(x @ y) / yy
            shift, x = shift + step, y / np.sqrt(yy)
            if abs(step) < delta:
                break
        else:
            return None
        index = n - 1 - j if top else j
        if _sturm_counts(diag, off, shift - delta, shift + delta) != (index, index + 1):
            return None
        found[i] = shift
    return found


def _extreme_levels(diag: np.ndarray, off: np.ndarray, levels: range, top: bool,
                    hint: Optional[Sequence[float]] = None) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal matrix counted from the top
    (top, descending) or the bottom (ascending), level 0 the extreme one.

    With no hint LAPACK bisects the levels by index. A hint holds the same
    levels on a coarser grid: each level is then refined from its own and
    certified (_certified_levels), and where any level fails the index form
    decides.
    """
    n = len(diag)
    if not 0 <= levels.start < levels.stop <= n:
        raise ValueError(f"need 1 <= levels <= {n} grid cells, got {levels.stop}")
    if hint is not None:
        found = _certified_levels(diag, off, levels, top, hint)
        if found is not None:
            return found
    index = range(n - levels.stop, n - levels.start) if top else levels
    vals = eigh_tridiagonal(diag, off, index[0], index[-1])
    return vals[::-1] if top else vals


def _sweep(matrix, levels: range, top: bool, n_grid: int, max_grid: int) -> tuple:
    """The levels (see _extreme_levels) on the three finest grids n_grid 2^k
    <= max_grid: (finest grid, an array with one row per grid, coarsest first).

    matrix(cells) is the (diag, off) of the operator on that many cells. The
    pilot grid bisects the levels by index, and each grid refines them from
    the next coarser grid's. The pilot has the coarsest grid's cells //
    _PILOT_RATIO, or _PILOT_CELLS_PER_LEVEL cells per wanted level (levels.stop)
    where that is more, so a higher level is found on a finer pilot. A pilot
    of more than half the coarsest grid's cells is skipped: the coarsest grid
    is then bisected itself.
    """
    if n_grid < 1:
        raise ValueError(f"n_grid must be at least 1, got {n_grid}")
    fine = n_grid
    while 2 * fine <= max_grid:
        fine *= 2
    if fine < 4 * n_grid:
        raise ValueError("need at least three grid sizes between n_grid and max_grid")
    coarse = fine // 4
    pilot = max(coarse // _PILOT_RATIO, _PILOT_CELLS_PER_LEVEL * levels.stop)
    hint = _extreme_levels(*matrix(pilot), levels, top) if 2 * pilot <= coarse else None
    rows = []
    for grid in (coarse, 2 * coarse, fine):
        hint = _extreme_levels(*matrix(grid), levels, top, hint)
        rows.append(hint)
    return fine, np.array(rows)


def _richardson(values) -> tuple:
    """(extrapolated, error estimate) of values (or arrays of values) with an
    h^2 error on three doubled grids, coarsest first: (4 fine - coarse) / 3 on
    the finer pair of grids, and its distance to that on the coarser pair."""
    values = np.asarray(values, dtype=float)
    extrap = (4 * values[1:] - values[:-1]) / 3.0
    return extrap[1], np.abs(extrap[1] - extrap[0])


def _parabolic_matrix(spec: ParabolicChannelSpec, n_grid: int, cutoff: float) -> tuple:
    """(diag, off) of the discretized channel operator.

    Flux form of d/dx (x d/dx) on the midpoint grid x_i = (i + 1/2) h; the cell
    face at x = 0 carries zero weight, which is the natural boundary for the
    x-weighted operator, and the cutoff end is Dirichlet.
    """
    h = cutoff / n_grid
    x = (np.arange(n_grid) + 0.5) * h
    faces_left = x - 0.5 * h
    faces_right = x + 0.5 * h
    diag = -(faces_left + faces_right) / h**2
    sx = np.full(n_grid, spec.s, dtype=float)  # an integer s keeps its boundary weight
    if spec.s != 0.0:
        # indicial boundary weight: cell-average of s/(4x) against the x^(sqrt(s))
        # profile instead of the midpoint value, refining the singular cell
        m = np.sqrt(abs(spec.s))
        sx[0] = spec.s * (m + 1) / (2 * m)
    diag = diag - sx / (4 * x) + spec.alpha / 4 + (spec.beta / 4) * x
    return diag, faces_right[:-1] / h**2


@functools.lru_cache(maxsize=None)
def _unit_level(s: float, n: int, n_grid: int) -> tuple:
    """Level n from the top (times 2) of the unit channel, beta = -1 and
    alpha = 0, with the cutoff 40, on n_grid, 2 n_grid and 4 n_grid cells.

    Kept per process under (s, n, n_grid). The level is swept alone, from its
    own pilot, so it is the same whichever other levels a command asks for
    and whatever was solved before. Plain floats, so no LAPACK output buffer
    is kept.
    """
    spec = ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0)
    _, rows = _sweep(lambda cells: _parabolic_matrix(spec, cells, 40.0), range(n, n + 1),
                     True, n_grid, 4 * n_grid)
    return tuple(2.0 * float(v) for v in rows[:, 0])


def solve_parabolic_pair(s1: float, s2: float, alpha: float, n1: int, n2: int,
                         n_grid: int = 1024, target: float = 1e-7):
    """Bound-state energy from the paired channels, by the grid's scaling law.

    Channel 1 carries +v/2 and channel 2 carries -v/2; the matching condition
    is v(n1; beta) + v'(n2; beta) = 0. With the cutoff 40/kappa, kappa =
    sqrt(-beta), the grid in y = kappa x is the same for every beta, and the
    discretized channel operator is exactly kappa M_s + alpha/4, where M_s is
    the operator at beta = -1, alpha = 0. So v = kappa w + alpha/2 with w the
    matching level at beta = -1, alpha = 0 (_unit_level), and on each grid
    the condition has the closed-form root kappa = -alpha / (w1 + w2). Raises
    NoRoot when w1 + w2 >= 0 (no bound state). Returns (beta*, v*, eps*,
    err_estimate, eps values per grid) with eps = hbar^2 beta / 2 at hbar = 1.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be nonnegative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ladder1, ladder2 = _unit_level(s1, n1, n_grid), _unit_level(s2, n2, n_grid)
    betas = []
    for grid, w1, w2 in zip((n_grid, 2 * n_grid, 4 * n_grid), ladder1, ladder2):
        w = w1 + w2
        if w >= 0:
            raise NoRoot(f"levels (s1={s1}, n1={n1}) and (s2={s2}, n2={n2}) at beta = -1 "
                         f"sum to {w:.6g} >= 0 on {grid} cells: v1 + v2 = 0 has no bound state")
        betas.append(-(alpha / w) ** 2)
    beta_star, err = (float(v) for v in _richardson(betas))
    if err > target:
        raise GridTooCoarse(f"pair solve error estimate {err:.3e} above {target:.1e}")
    # channel 1 level at beta* on the finest grid, by the same scaling law
    v_star = float(np.sqrt(-beta_star)) * ladder1[-1] + alpha / 2
    return beta_star, v_star, beta_star / 2.0, err, [b / 2.0 for b in betas]


def _radial_matrix(spec: RadialOscillatorSpec, n_grid: int, cutoff: float) -> tuple:
    """(diag, off) of the 4D radial block in flux form with weight r^3."""
    h = cutoff / n_grid
    r = (np.arange(n_grid) + 0.5) * h
    faces = np.arange(n_grid + 1) * h
    w = r**3
    a = faces**3  # face weights; a[0] = 0 handles the origin naturally
    hb2 = spec.hbar**2 / 2
    diag = hb2 * (a[:-1] + a[1:]) / (h**2 * w)
    pot = (spec.angular * spec.hbar**2 / (2 * r**2) + spec.lam / r**2
           + spec.omega**2 * r**2 / 2)
    return diag + pot, -hb2 * a[1:-1] / (h**2 * np.sqrt(w[:-1] * w[1:]))


def radial_oscillator_eigensolve(spec: RadialOscillatorSpec, n: int,
                                 n_grid: int = 1024, cutoff: Optional[float] = None,
                                 target: float = 1e-6, max_grid: int = 4096) -> tuple:
    """Levels 0..n of the radial block, Richardson-extrapolated, as a tuple of
    EigenResults indexed by level.

    One sweep solves all n + 1 levels on each grid, with the cutoff of level
    n, so a lower level k carries level n's cutoff, not its own. Raises
    GridTooCoarse naming the lowest level whose error estimate misses target.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if cutoff is None:
        # generous tail so domain truncation sits far below the h^2 error
        cutoff = np.sqrt(spec.hbar / spec.omega) * (np.sqrt(4.0 * n + 10.0) + 6.0)
    grid, rows = _sweep(lambda cells: _radial_matrix(spec, cells, cutoff), range(n + 1),
                        False, n_grid, max_grid)
    extrap, err = _richardson(rows)
    for k, e in enumerate(err):
        if e > target:
            raise GridTooCoarse(f"radial level {k}: error {e:.3e} above {target:.1e}")
    return tuple(EigenResult(grid_size=grid, extrapolated=float(x), error_estimate=float(e))
                 for x, e in zip(extrap, err))
