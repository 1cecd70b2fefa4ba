"""Independent spectral oracle: finite-difference eigenproblems for the
separated parabolic channels and the 4D radial oscillator blocks.

Discretizations are flux-form symmetric second-order schemes, and eigenvalues
are Richardson-extrapolated over three doubled grids. The coarsest grid finds
its levels by LAPACK's symmetric tridiagonal bisection (dstebz) by index. Each
finer grid refines every level by Rayleigh-quotient iteration from the same
level on the next coarser grid (one tridiagonal solve, dgtsv, per step) and
certifies it by two Sturm counts (dlarrc): a window of a few ulps of the
matrix norm around the level must hold exactly one eigenvalue, at the wanted
index. Where any level fails, the index-form bisection decides that grid, so
the levels never depend on the coarser grid's, only the cost does.
The paired parabolic channels are matched through the grid's exact scaling
with sqrt(-beta) instead of a root search on beta: each channel needs only its
levels at beta = -1, alpha = 0 on the three grids, its unit-channel ladder.
A process keeps every ladder it solves (_unit_ladder) under the exact key
(s, level count, coarsest grid), so commands run in one process solve each
distinct ladder once, while a single command gains nothing. The key holds the
exact level count because the coarsest grid's index range sets the last bits
of its levels, and each finer level starts from them, so no result depends on
what was solved before. Nothing else in this module is kept across calls. A
radial block's levels 0..n come from one sweep with the cutoff of level n,
one eigensolve per grid, so a command that reports n + 1 levels solves each
grid once. These spectra adjudicate the printed closed forms, so no printed
formula is used anywhere in this module's numerics.

The LAPACK routines are called through ctypes in the LAPACK that numpy's own
linalg extension is linked against (numpy's bundled OpenBLAS, with 64-bit
integers), so no command loads scipy. dstebz gets the arguments
scipy.linalg.eigh_tridiagonal passes, so every coarsest-grid eigenvalue is
bitwise scipy's; where that library exports no dstebz of known integer width,
scipy.linalg.lapack.dstebz is imported on the first solve instead. Where it
exports no dgtsv or dlarrc, every grid is solved by index.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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


def _dstebz(d: np.ndarray, e: np.ndarray, by_value: bool, vl: float, vu: float,
            il: int, iu: int) -> tuple:
    """(m, w, info) of dstebz with ABSTOL 0 and ORDER 'E', as scipy calls it."""
    if _DSTEBZ is None:
        from scipy.linalg.lapack import dstebz

        m, w, _, _, info = dstebz(d, e, 1 if by_value else 2, vl, vu, il, iu, 0.0, "E")
        return int(m), w, int(info)
    n = len(d)
    i64, f64 = ctypes.c_int64, ctypes.c_double
    m, nsplit, info = i64(), i64(), i64()
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.int64) for k in (1, 1, 3))
    _DSTEBZ(b"V" if by_value else b"I", b"E", i64(n), f64(vl), f64(vu), i64(il), i64(iu),
            f64(0.0), d.ctypes.data, e.ctypes.data, m, nsplit, w.ctypes.data,
            iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data,
            info, 1, 1)
    return m.value, w, info.value


def eigh_tridiagonal(d, e, eigvals_only: bool = True, *, select: str,
                     select_range) -> np.ndarray:
    """Eigenvalues (ascending) of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: by value in (min, max] for select "v", by
    0-based index min..max for select "i".

    scipy.linalg.eigh_tridiagonal with eigvals_only=True, on the same LAPACK
    call, with its input checks and error mapping: non-finite entries, a
    length mismatch and an index range outside [0, len(d)) raise ValueError
    before LAPACK runs; a negative LAPACK info raises ValueError and a
    positive one LinAlgError. Eigenvectors are not computed.
    """
    if not eigvals_only:
        raise ValueError("only eigenvalues are computed: eigvals_only must be True")
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if select not in ("v", "i"):
        raise ValueError(f"select must be 'v' or 'i', got {select!r}")
    sr = np.asarray(select_range)
    if sr.ndim != 1 or sr.size != 2 or not sr[0] <= sr[1]:
        raise ValueError("select_range must be a 2-element array-like "
                         "in nondecreasing order")
    vl, vu, il, iu = 0.0, 1.0, 1, 1
    if select == "v":
        vl, vu = float(sr[0]), float(sr[1])
    else:
        if sr.dtype.char.lower() not in "hilqp":
            raise ValueError(f'when using select="i", select_range must contain '
                             f"integers, got dtype {sr.dtype}")
        il, iu = int(sr[0]) + 1, int(sr[1]) + 1
        if il < 1 or iu > d.size:
            raise ValueError("select_range out of bounds")
    if d.size == 1:  # scipy answers a 1x1 matrix without LAPACK
        return d.copy() if select == "i" or vl < d[0] <= vu else np.empty(0)
    m, w, info = _dstebz(d, e, select == "v", vl, vu, il, iu)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal stebz "
                         f"(eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info})")
    return w[:m]


@dataclass(frozen=True)
class ParabolicChannelSpec:
    """One separated parabolic channel: operator d/dx(x d/dx) - s/(4x) + alpha/4 + (beta/4) x."""

    s: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta >= 0:
            raise ValueError("bound channels need beta < 0")


@dataclass(frozen=True)
class RadialOscillatorSpec:
    """Radial reduction of one 4-variable oscillator block."""

    angular: float = 0.0
    lam: float = 0.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.omega <= 0 or self.hbar <= 0:
            raise ValueError("omega and hbar must be positive")


@dataclass(frozen=True)
class EigenResult:
    grid_size: int
    extrapolated: float
    error_estimate: float


# Rayleigh-quotient steps a level may take before the index form decides,
# and the half-width of its certification window in ulps of the matrix norm
_RQI_STEPS = 4
_WINDOW_ULPS = 64


def _shifted_solve(diag: np.ndarray, off: np.ndarray, shift: float,
                   rhs: np.ndarray) -> Optional[np.ndarray]:
    """y with (T - shift) y = rhs, by LAPACK dgtsv (LU with partial
    pivoting); None when a pivot is exactly zero."""
    n = len(diag)
    i64 = ctypes.c_int64
    lower, upper, d, y, info = off.copy(), off.copy(), diag - shift, rhs.copy(), i64()
    _DGTSV(i64(n), i64(1), lower.ctypes.data, d.ctypes.data, upper.ctypes.data,
           y.ctypes.data, i64(n), info)
    return y if info.value == 0 else None


def _sturm_counts(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> tuple:
    """The numbers of eigenvalues at or below lo and at or below hi, by the
    Sturm counts of LAPACK dlarrc."""
    i64, f64 = ctypes.c_int64, ctypes.c_double
    count, below_lo, below_hi, info = i64(), i64(), i64(), i64()
    _DLARRC(b"T", i64(len(diag)), f64(lo), f64(hi), diag.ctypes.data, off.ctypes.data,
            f64(0.0), count, below_lo, below_hi, info, 1)
    return below_lo.value, below_hi.value


def _certified_levels(diag: np.ndarray, off: np.ndarray, k: int, top: bool,
                      hint: Sequence[float]) -> Optional[np.ndarray]:
    """The k highest (top, descending) or k lowest (ascending) eigenvalues by
    Rayleigh-quotient iteration, each certified by Sturm counts; None if any
    level fails.

    Level j starts at the shift hint[j]. A step solves (T - shift) y = x,
    moves the shift to the Rayleigh quotient of y, shift + (x.y)/(y.y), and
    takes x = y/|y|; the level is the shift once a step moves it by less than
    delta, _WINDOW_ULPS ulps of the Gershgorin norm. It is certified when
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
    levels = np.empty(k)
    for j in range(k):
        shift, x = float(hint[j]), np.full(n, 1.0 / np.sqrt(n))
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
        levels[j] = shift
    return levels


def _extreme_levels(diag: np.ndarray, off: np.ndarray, k: int, top: bool,
                    hint: Optional[Sequence[float]] = None) -> np.ndarray:
    """The k highest eigenvalues (top, descending) or k lowest (ascending) of
    the symmetric tridiagonal matrix.

    With no hint LAPACK bisects the k levels by index. A hint holds the k
    levels on a coarser grid, in the same order: each level is then refined
    from its own and certified (_certified_levels), and where any level fails
    the index form decides, so the levels never depend on the hint, only the
    cost does.
    """
    n = len(diag)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= levels <= {n} grid cells, got {k}")
    if hint is not None:
        levels = _certified_levels(diag, off, k, top, hint)
        if levels is not None:
            return levels
    first = n - k if top else 0
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(first, first + k - 1),
                            eigvals_only=True)
    return vals[::-1] if top else vals


def _parabolic_levels(spec: ParabolicChannelSpec, n_levels: int, n_grid: int,
                      cutoff: float, hint: Optional[Sequence[float]] = None) -> np.ndarray:
    """Top eigenvalues (descending) of the discretized channel operator, times 2.

    Flux form of d/dx (x d/dx) on the midpoint grid x_i = (i + 1/2) h; the cell
    face at x = 0 carries zero weight, which is the natural boundary for the
    x-weighted operator, and the cutoff end is Dirichlet. hint, if given,
    holds the wanted levels (descending, times 2) on a coarser grid; see
    _extreme_levels.
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
        if m > 0:
            sx[0] = spec.s * (m + 1) / (2 * m)
    diag = diag - sx / (4 * x) + spec.alpha / 4 + (spec.beta / 4) * x
    off = faces_right[:-1] / h**2
    return 2.0 * _extreme_levels(diag, off, n_levels, True,
                                 None if hint is None else np.asarray(hint) / 2.0)


def _richardson(solve, n_grid: int, max_grid: int):
    """One Richardson step over the three finest grids n_grid 2^k <= max_grid.

    solve(grid, previous) returns a value (or an array of values) with an h^2
    error; previous is what it returned on the next coarser grid, None on the
    first, so that a finer solve can refine its levels from the coarser ones.
    Extrapolates (4 fine - coarse) / 3 on the two finer pairs of grids and
    takes their difference as the error estimate. Returns (finest grid, values
    on the three grids, extrapolated value, error estimate).
    """
    if n_grid < 1:
        raise ValueError(f"n_grid must be at least 1, got {n_grid}")
    fine = n_grid
    while 2 * fine <= max_grid:
        fine *= 2
    if fine < 4 * n_grid:
        raise ValueError("need at least three grid sizes between n_grid and max_grid")
    values, previous = [], None
    for grid in (fine // 4, fine // 2, fine):
        previous = solve(grid, previous)
        values.append(previous)
    values = np.array(values)
    extrap = (4 * values[1:] - values[:-1]) / 3.0
    return fine, values, extrap[1], np.abs(extrap[1] - extrap[0])


@functools.lru_cache(maxsize=None)
def _unit_ladder(s: float, n: int, n_grid: int) -> tuple:
    """Top n + 1 levels (descending, times 2) of the unit channel, beta = -1
    and alpha = 0, with the cutoff 40, on n_grid, 2 n_grid and 4 n_grid cells.

    The coarsest grid finds its levels by index and each finer grid refines
    every level from the same level on the coarser grid. Kept per process
    under the exact (s, n, n_grid): the coarsest grid's index range sets the
    last bits of its levels, and the finer levels start from them, so a
    ladder of more levels is never read for fewer, and no value depends on
    what was solved before. Plain floats, so no LAPACK output buffer is kept.
    """
    spec = ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0)
    ladder, hint = [], None
    for grid in (n_grid, 2 * n_grid, 4 * n_grid):
        levels = tuple(float(v) for v in _parabolic_levels(spec, n + 1, grid, 40.0, hint))
        ladder.append(levels)
        hint = levels
    return tuple(ladder)


def solve_parabolic_pair(s1: float, s2: float, alpha: float, n1: int, n2: int,
                         n_grid: int = 1024, target: float = 1e-7):
    """Bound-state energy from the paired channels, by the grid's scaling law.

    Channel 1 carries +v/2 and channel 2 carries -v/2; the matching condition
    is v(n1; beta) + v'(n2; beta) = 0. With the cutoff 40/kappa, kappa =
    sqrt(-beta), the grid in y = kappa x is the same for every beta, and the
    discretized channel operator is exactly kappa M_s + alpha/4, where M_s is
    the operator at beta = -1, alpha = 0. So v = kappa w + alpha/2 with w the
    matching level at beta = -1, alpha = 0, and on each grid the condition has
    the closed-form root kappa = -alpha / (w1 + w2): no search on beta. The
    levels w come from _unit_ladder, one per distinct channel, so equal
    channels (s1 == s2) share one ladder of max(n1, n2) + 1 levels. Raises
    NoRoot when w1 + w2 >= 0 (no bound state). Returns (beta*, v*, eps*,
    err_estimate, eps values per grid) with eps = hbar^2 beta / 2 evaluated at
    hbar = 1 by the caller's convention.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be nonnegative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_grid < 1:
        raise ValueError(f"n_grid must be at least 1, got {n_grid}")
    if s1 == s2:
        ladder1 = ladder2 = _unit_ladder(s1, max(n1, n2), n_grid)
    else:
        ladder1, ladder2 = _unit_ladder(s1, n1, n_grid), _unit_ladder(s2, n2, n_grid)
    rungs = iter(zip(ladder1, ladder2))

    def beta_and_levels(grid: int, _previous) -> tuple:
        levels1, levels2 = next(rungs)
        w1, w2 = levels1[n1], levels2[n2]
        w = w1 + w2
        if w >= 0:
            raise NoRoot(f"levels (s1={s1}, n1={n1}) and (s2={s2}, n2={n2}) at beta = -1 "
                         f"sum to {w:.6g} >= 0 on {grid} cells: v1 + v2 = 0 has no bound state")
        return -(alpha / w) ** 2, w1, w2

    _, values, extrap, err = _richardson(beta_and_levels, n_grid, 4 * n_grid)
    beta_star, err = float(extrap[0]), float(err[0])
    if err > target:
        raise GridTooCoarse(f"pair solve error estimate {err:.3e} above {target:.1e}")
    # channel 1 level at beta* on the finest grid, by the same scaling law
    v_star = float(np.sqrt(-beta_star)) * float(values[-1, 1]) + alpha / 2
    eps = beta_star / 2.0
    return beta_star, v_star, eps, err, [float(b) / 2.0 for b in values[:, 0]]


def _radial_levels(spec: RadialOscillatorSpec, n_levels: int, n_grid: int,
                   cutoff: float, hint: Optional[Sequence[float]] = None) -> np.ndarray:
    """Lowest eigenvalues of the 4D radial block in flux form with weight r^3.

    hint, if given, holds the wanted levels (ascending) on a coarser grid; see
    _extreme_levels.
    """
    h = cutoff / n_grid
    r = (np.arange(n_grid) + 0.5) * h
    faces = np.arange(n_grid + 1) * h
    w = r**3
    a = faces**3  # face weights; a[0] = 0 handles the origin naturally
    hb2 = spec.hbar**2 / 2
    diag = hb2 * (a[:-1] + a[1:]) / (h**2 * w)
    pot = (spec.angular * spec.hbar**2 / (2 * r**2) + spec.lam / r**2
           + spec.omega**2 * r**2 / 2)
    diag = diag + pot
    off = -hb2 * a[1:-1] / (h**2 * np.sqrt(w[:-1] * w[1:]))
    return _extreme_levels(diag, off, n_levels, False, hint)


def radial_oscillator_eigensolve(spec: RadialOscillatorSpec, n: int,
                                 n_grid: int = 1024, cutoff: Optional[float] = None,
                                 target: float = 1e-6, max_grid: int = 4096) -> tuple:
    """Levels 0..n of the radial block, Richardson-extrapolated, as a tuple of
    EigenResults indexed by level.

    One sweep solves all n + 1 levels on each grid, with the cutoff of level
    n: the coarsest grid by index, and each finer grid refines every level
    from the same level on the coarser grid. So a lower level k carries level
    n's cutoff, not its own. Raises GridTooCoarse naming the lowest level
    whose error estimate misses target.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if cutoff is None:
        # generous tail so domain truncation sits far below the h^2 error
        width = np.sqrt(spec.hbar / spec.omega)
        cutoff = width * (np.sqrt(4.0 * n + 10.0) + 6.0)
    grid, _, extrap, err = _richardson(
        lambda g, previous: _radial_levels(spec, n + 1, g, cutoff, previous), n_grid, max_grid)
    for k, e in enumerate(err):
        if e > target:
            raise GridTooCoarse(f"radial level {k}: error {e:.3e} above {target:.1e}")
    return tuple(EigenResult(grid_size=grid, extrapolated=float(x), error_estimate=float(e))
                 for x, e in zip(extrap, err))
