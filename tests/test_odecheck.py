import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from scipy.optimize import brentq
from scipy.special import comb, eval_genlaguerre

from quadalg import odecheck as ode
from quadalg.errors import GridTooCoarse, NoRoot, QuadalgError


# -- reference oracles ---------------------------------------------------------

class PochhammerZero(QuadalgError):
    """A Pochhammer denominator term vanishes before the series terminates."""


def kummer(n: int, b: float, x):
    """Terminating confluent hypergeometric series F(-n, b, x).

    Sum over k = 0..n of (-n)_k / (b)_k x^k / k!; raises if a Pochhammer
    denominator vanishes before the series terminates.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(n):
        denom = b + k
        if denom == 0:
            raise PochhammerZero(f"(b)_k vanishes at k={k + 1} for b={b}")
        term = term * ((-n + k) / denom) * x / (k + 1)
        total = total + term
    if total.ndim == 0:
        return float(total)
    return total


def _channel_levels(spec, levels, n_grid, cutoff=40.0, hint=None):
    """The channel's levels (a range, from the top, descending), times 2 as
    the unit levels hold them; hint, times 2 too, is handed on as in a sweep."""
    found = ode._extreme_levels(*ode._parabolic_matrix(spec, n_grid, cutoff), levels, True,
                                None if hint is None else np.asarray(hint) / 2)
    return 2 * found


def _radial_levels(spec, levels, n_grid, cutoff, hint=None):
    """The radial block's levels (a range, from the bottom, ascending)."""
    return ode._extreme_levels(*ode._radial_matrix(spec, n_grid, cutoff), levels, False, hint)


def parabolic_eigensolve(spec, n_levels, n_grid=1024, cutoff=None, target=1e-7,
                         max_grid=4096):
    """Top n_levels quantized v values of one channel, Richardson-extrapolated.

    One sweep of the levels, as the oracle runs it, and an error estimate
    above target raises GridTooCoarse.
    """
    if cutoff is None:
        cutoff = 40.0 / np.sqrt(-spec.beta)
    grid, rows = ode._sweep(lambda n: ode._parabolic_matrix(spec, n, cutoff), range(n_levels),
                            True, n_grid, max_grid)
    extrap, err = ode._richardson(2 * rows)
    for idx in range(n_levels):
        if err[idx] > target:
            raise GridTooCoarse(
                f"level {idx}: error estimate {err[idx]:.3e} above target {target:.1e}")
    return [ode.EigenResult(grid_size=grid, extrapolated=float(e), error_estimate=float(r))
            for e, r in zip(extrap, err)]


def parabolic_closed_form_residual(spec, n, exponent="sqrt", n_grid=2048, cutoff=None):
    """Residual of the closed-form channel solution in the discrete operator.

    exponent="sqrt" uses x^(sqrt(s)/2) with Kummer parameter sqrt(s)+1 (what the
    indicial equation forces); exponent="printed" uses x^(s/2) with parameter
    s+1. The convention whose residual vanishes under refinement is the one the
    oracle supports. Residual is RMS over interior cells, amplitude-normalized.
    """
    if cutoff is None:
        cutoff = 40.0 / np.sqrt(-spec.beta)
    kappa = np.sqrt(-spec.beta)
    m = np.sqrt(abs(spec.s)) if exponent == "sqrt" else spec.s
    h = cutoff / n_grid
    x = (np.arange(n_grid) + 0.5) * h
    t = kappa * x
    f = t ** (m / 2) * np.exp(-t / 2) * kummer(n, m + 1, t)
    v = spec.alpha / 2 - 2 * kappa * (n + (m + 1) / 2)
    faces_left = x - 0.5 * h
    faces_right = x + 0.5 * h
    lhs = np.zeros_like(f)
    lhs[1:-1] = (faces_right[1:-1] * (f[2:] - f[1:-1])
                 - faces_left[1:-1] * (f[1:-1] - f[:-2])) / h**2
    lhs = lhs - spec.s / (4 * x) * f + (spec.alpha / 4 + spec.beta / 4 * x) * f
    interior = slice(8, n_grid // 2)
    resid = lhs[interior] - (v / 2) * f[interior]
    return float(np.sqrt(np.mean(resid**2)) / max(np.abs(f).max(), 1e-300))


# -- Kummer series -------------------------------------------------------------

def test_kummer_spot_values():
    assert kummer(0, 2.0, 1.7) == pytest.approx(1.0)
    assert kummer(1, 2.0, 1.0) == pytest.approx(0.5)
    assert kummer(2, 3.0, 1.0) == pytest.approx(5.0 / 12.0)


def test_kummer_against_laguerre_oracle():
    # independent oracle: F(-n, b, x) = L_n^(b-1)(x) / C(n+b-1, n)
    rng = np.random.default_rng(0)
    for n in range(11):
        for b in (1.0, 2.0, 3.5, 6.0):
            x = rng.uniform(0, 8)
            expected = eval_genlaguerre(n, b - 1, x) / comb(n + b - 1, n)
            assert kummer(n, b, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_kummer_series_recurrence_exact():
    # terminating-series term recurrence: t_{k+1} = t_k (k-n) x / ((b+k)(k+1));
    # rebuilding the sum from it reproduces kummer exactly for n <= 10
    rng = np.random.default_rng(1)
    for n in range(11):
        b = rng.uniform(0.5, 5.0)
        x = rng.uniform(0.0, 6.0)
        term, total = 1.0, 1.0
        for k in range(n):
            term = term * (k - n) * x / ((b + k) * (k + 1))
            total += term
        # exact up to floating-point reassociation of the alternating sum
        assert kummer(n, b, x) == pytest.approx(total, rel=1e-10, abs=1e-10)


def test_kummer_pochhammer_zero():
    with pytest.raises(PochhammerZero):
        kummer(3, -1.0, 0.5)


def test_kummer_rejects_negative_n():
    with pytest.raises(ValueError):
        kummer(-1, 2.0, 1.0)


# -- radial oscillator oracle ----------------------------------------------------

def test_radial_isotropic_ladder():
    spec = ode.RadialOscillatorSpec()
    values = [ode.radial_oscillator_eigensolve(spec, n)[n].extrapolated for n in range(3)]
    assert values == pytest.approx([2.0, 4.0, 6.0], abs=1e-6)


def test_radial_spacing_is_two_omega_hbar():
    spec = ode.RadialOscillatorSpec(omega=1.5, hbar=1.0)
    vals = [ode.radial_oscillator_eigensolve(spec, n)[n].extrapolated for n in range(3)]
    assert np.diff(vals) == pytest.approx([3.0, 3.0], abs=1e-6)


def test_radial_singular_block_matches_indicial_formula():
    # with a 1/r^2 strength the block ladder is 2*omega*hbar*(n + (1+m)/2) with
    # m = sqrt(1 + 2*lam); the closed form adjudicated by this oracle
    lam = 0.3
    m = np.sqrt(1 + 2 * lam)
    spec = ode.RadialOscillatorSpec(lam=lam)
    for n in range(2):
        got = ode.radial_oscillator_eigensolve(spec, n, target=1e-5)[n].extrapolated
        assert got == pytest.approx(2.0 * (n + (1 + m) / 2), abs=2e-5)


def test_radial_error_estimate_decreases_with_refinement():
    spec = ode.RadialOscillatorSpec()
    errs = []
    for base in (256, 512, 1024):
        r = ode.radial_oscillator_eigensolve(spec, 0, n_grid=base, max_grid=4 * base,
                                             target=1.0)[0]
        errs.append(r.error_estimate)
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 4.0


def test_radial_grid_too_coarse():
    spec = ode.RadialOscillatorSpec()
    with pytest.raises(GridTooCoarse):
        ode.radial_oscillator_eigensolve(spec, 0, n_grid=64, max_grid=256, target=1e-12)


@pytest.mark.parametrize("n_grid", [0, -4])
def test_eigensolvers_reject_empty_grid(n_grid):
    # the grid-doubling loops would never pass max_grid from a start at 0
    with pytest.raises(ValueError, match="n_grid"):
        ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(), 0, n_grid=n_grid)
    with pytest.raises(ValueError, match="n_grid"):
        parabolic_eigensolve(ode.ParabolicChannelSpec(s=0.0, alpha=0.0, beta=-1.0), 1,
                                 n_grid=n_grid)
    with pytest.raises(ValueError, match="n_grid"):
        ode.solve_parabolic_pair(0.0, 0.0, 2.0, 0, 0, n_grid=n_grid)


# -- parabolic channel oracle ------------------------------------------------------

def test_parabolic_levels_arithmetic_progression():
    spec = ode.ParabolicChannelSpec(s=0.0, alpha=0.0, beta=-1.0)
    levels = parabolic_eigensolve(spec, 4)
    vs = np.array([l.extrapolated for l in levels])
    # self-convergence oracle: quantized v follow an n-indexed progression
    assert np.ptp(np.diff(vs)) < 1e-6
    assert np.diff(vs)[0] == pytest.approx(-2.0, abs=1e-6)


def test_parabolic_cutoff_insensitivity():
    # doubling the domain at matched step leaves bound-state eigenvalues
    # unchanged to well below the target: exponential localization
    spec = ode.ParabolicChannelSpec(s=0.0, alpha=2.0, beta=-1.0)
    a = parabolic_eigensolve(spec, 1, cutoff=40.0, n_grid=1024)[0].extrapolated
    b = parabolic_eigensolve(spec, 1, cutoff=80.0, n_grid=2048,
                                 max_grid=8192)[0].extrapolated
    assert abs(a - b) < 1e-9


def test_parabolic_closed_form_exponent_adjudication():
    # the indicial square-root exponent is the convention the operator supports:
    # its residual decays ~h^2 under refinement, the printed exponent stalls
    spec = ode.ParabolicChannelSpec(s=4.0, alpha=2.0, beta=-1.0)
    r_sqrt = [parabolic_closed_form_residual(spec, 1, "sqrt", n) for n in (1024, 2048, 4096)]
    r_printed = [parabolic_closed_form_residual(spec, 1, "printed", n) for n in (1024, 2048, 4096)]
    assert r_sqrt[0] > r_sqrt[1] > r_sqrt[2]
    assert r_sqrt[0] / r_sqrt[2] > 8.0
    assert r_printed[2] > 1e-2


def test_pair_solver_matches_closed_form_at_zero_s():
    beta, v, eps, err, _ = ode.solve_parabolic_pair(0.0, 0.0, 2.0, 0, 0)
    assert err < 1e-6
    assert eps == pytest.approx(-0.5, abs=1e-6)


def test_pair_solver_swap_symmetry():
    # relabeling the two channels (s1, n1) <-> (s2, n2) mirrors the same
    # discretized problem, so the solved energies coincide almost exactly even
    # where the s > 0 channel converges slowly
    a = ode.solve_parabolic_pair(0.0, 2.0, 2.0, 1, 0, n_grid=512, target=1e-3)[2]
    b = ode.solve_parabolic_pair(2.0, 0.0, 2.0, 0, 1, n_grid=512, target=1e-3)[2]
    assert a == pytest.approx(b, abs=1e-9)


def test_pair_solver_monotone_in_n1():
    es = [ode.solve_parabolic_pair(0.0, 0.0, 2.0, n1, 0, n_grid=512)[2]
          for n1 in range(3)]
    assert es[0] < es[1] < es[2] < 0


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
def test_parabolic_levels_follow_the_scaling_law(s):
    # with the cutoff 40/kappa the grid in kappa x is fixed, so the channel
    # matrix is kappa M_s + alpha/4 with M_s the matrix at beta = -1, alpha = 0
    mu = _channel_levels(ode.ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0),
                         range(3), 256) / 2
    for beta in (-0.01, -0.3, -1.7, -25.0):
        kappa = np.sqrt(-beta)
        for alpha in (0.0, 1.3):
            spec = ode.ParabolicChannelSpec(s=s, alpha=alpha, beta=beta)
            got = _channel_levels(spec, range(3), 256, 40.0 / kappa)
            assert got == pytest.approx(2 * (kappa * mu + alpha / 4), rel=1e-9)


@pytest.mark.parametrize("n1, n2", [(0, 0), (1, 0), (0, 1)])
def test_pair_solver_matches_bracketed_root(n1, n2):
    # reference: a sign-change bracket on beta and brentq on the mismatch
    # v1 + v2 of the two channels, discretized at each grid with cutoff 40/kappa
    alpha = 2.0

    def mismatch(beta, n):
        cut = 40.0 / np.sqrt(-beta)
        v1 = _channel_levels(ode.ParabolicChannelSpec(0.0, alpha, beta), range(n1 + 1), n, cut)
        v2 = _channel_levels(ode.ParabolicChannelSpec(0.0, alpha, beta), range(n2 + 1), n, cut)
        return v1[n1] + v2[n2]

    _, _, eps, _, per_grid = ode.solve_parabolic_pair(0.0, 0.0, alpha, n1, n2,
                                                      n_grid=128, target=1.0)
    betas = []
    for n in (128, 256, 512):
        grid = -np.geomspace(4.0, 1e-3, 41)
        vals = [mismatch(b, n) for b in grid]
        i = next(i for i in range(40) if vals[i] * vals[i + 1] <= 0)
        betas.append(brentq(lambda b: mismatch(b, n), grid[i], grid[i + 1],
                            xtol=1e-14, rtol=1e-14))
    assert per_grid == pytest.approx([b / 2 for b in betas], abs=1e-9)
    assert eps == pytest.approx((4 * betas[2] - betas[1]) / 6, abs=1e-9)


def test_pair_solver_grid_too_coarse_message():
    # the s > 0 channels converge slowly; the message carries the estimate
    with pytest.raises(GridTooCoarse, match="1.951e-03"):
        ode.solve_parabolic_pair(0.0, 0.5, 2.0, 0, 0)


def test_pair_solver_without_bound_state_raises_no_root():
    # a strongly repulsive channel lifts the summed levels at beta = -1 above
    # zero, so v1 + v2 = 0 has no root for any beta < 0
    with pytest.raises(NoRoot, match="no bound state"):
        ode.solve_parabolic_pair(-30.0, 0.0, 2.0, 0, 0, n_grid=256)


def test_pair_solver_input_validation():
    with pytest.raises(ValueError):
        ode.solve_parabolic_pair(0.0, 0.0, -1.0, 0, 0)
    with pytest.raises(ValueError):
        ode.solve_parabolic_pair(0.0, 0.0, 2.0, -1, 0)


def test_an_integer_s_is_the_float_channel():
    # an integer s must not truncate the singular cell's boundary weight; the
    # kept levels are keyed by value, where 2 == 2.0
    levels = [_channel_levels(ode.ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0),
                              range(2), 256) for s in (2, 2.0)]
    assert np.array_equal(levels[0], levels[1])


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ode.ParabolicChannelSpec(s=0.0, alpha=1.0, beta=0.5)
    with pytest.raises(ValueError):
        ode.RadialOscillatorSpec(omega=-1.0)


def test_richardson_solves_only_the_three_finest_grids(monkeypatch):
    # the three finest grids, after the pilot of the coarsest one
    grids = []
    matrix = ode._radial_matrix

    def spy(spec, n_grid, cutoff):
        grids.append(n_grid)
        return matrix(spec, n_grid, cutoff)

    monkeypatch.setattr(ode, "_radial_matrix", spy)
    r = ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(), 0, n_grid=256,
                                         max_grid=5000)[0]
    assert grids == [1024 // ode._PILOT_RATIO, 1024, 2048, 4096]
    assert r.grid_size == 4096
    assert r.extrapolated == ode.radial_oscillator_eigensolve(
        ode.RadialOscillatorSpec(), 0, n_grid=1024)[0].extrapolated


def test_richardson_extrapolates_hand_made_h2_values():
    # v(h) = 1 + 3 h^2 + 5 h^4 on h = 1/4, 1/8, 1/16: the h^2 term cancels in
    # each pair, the finer pair leaves 1 - 5 h^4 / 64, and the two pairs differ
    # by 75 h^4 / 64
    h = np.array([0.25, 0.125, 0.0625])
    values = 1 + 3 * h**2 + 5 * h**4
    extrap, err = ode._richardson(values)
    assert extrap == pytest.approx(1 - 5 * 0.25**4 / 64, rel=1e-15)
    assert err == pytest.approx(75 * 0.25**4 / 64, rel=1e-12)
    # an array per grid is extrapolated entry by entry
    extrap, err = ode._richardson(np.stack([values, 2 * values, 7.0 + 0 * h], axis=1))
    assert extrap.shape == err.shape == (3,)
    assert extrap[1] == pytest.approx(2 * (1 - 5 * 0.25**4 / 64), rel=1e-15)
    assert extrap[2] == 7.0 and err[2] == 0.0


# -- certified Richardson grids --------------------------------------------------------

def _radial_cutoff(spec, n):
    # the cutoff radial_oscillator_eigensolve uses for level n
    return np.sqrt(spec.hbar / spec.omega) * (np.sqrt(4.0 * n + 10.0) + 6.0)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2])
def test_bracketed_parabolic_levels_equal_the_index_form(s, k):
    # each grid refines its levels from the next coarser grid's, as in the
    # sweep: every level is certified, and the certified levels are the index
    # form's
    spec = ode.ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0)
    for n in (1024, 2048, 4096):
        hint = _channel_levels(spec, range(k), n // 2)
        diag, off = ode._parabolic_matrix(spec, n, 40.0)
        certified = ode._certified_levels(diag, off, range(k), True, hint / 2)
        assert certified is not None and certified.shape == (k,)
        np.testing.assert_allclose(2 * certified, _channel_levels(spec, range(k), n),
                                   rtol=0, atol=1e-9)
        assert np.array_equal(_channel_levels(spec, range(k), n, hint=hint), 2 * certified)


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_bracketed_radial_levels_equal_the_index_form(lam, k):
    spec = ode.RadialOscillatorSpec(lam=lam)
    cutoff = _radial_cutoff(spec, k - 1)
    for n in (1024, 2048, 4096):
        hint = _radial_levels(spec, range(k), n // 2, cutoff)
        diag, off = ode._radial_matrix(spec, n, cutoff)
        certified = ode._certified_levels(diag, off, range(k), False, hint)
        assert certified is not None and certified.shape == (k,)
        np.testing.assert_allclose(certified, _radial_levels(spec, range(k), n, cutoff),
                                   rtol=0, atol=1e-9)
        assert np.array_equal(_radial_levels(spec, range(k), n, cutoff, hint), certified)


@pytest.mark.parametrize("hint", [-1e6, -50.0, -0.2, 50.0, 1e6])
def test_parabolic_levels_do_not_depend_on_a_wrong_hint(hint):
    # the top two unit levels are about -1.7 and -3.7; both start from a value
    # far from them or between them
    spec = ode.ParabolicChannelSpec(s=0.5, alpha=0.0, beta=-1.0)
    expected = _channel_levels(spec, range(2), 1024)
    got = _channel_levels(spec, range(2), 1024, hint=(hint, hint))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("hint", [-1e6, -50.0, 2.5, 50.0, 1e6])
def test_radial_levels_do_not_depend_on_a_wrong_hint(hint):
    # the lowest three levels are about 2, 4 and 6
    spec = ode.RadialOscillatorSpec()
    cutoff = _radial_cutoff(spec, 2)
    expected = _radial_levels(spec, range(3), 1024, cutoff)
    got = _radial_levels(spec, range(3), 1024, cutoff, (hint,) * 3)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("misled", [0, 1])
def test_a_hint_nearer_the_neighbouring_level_falls_back_to_the_index_form(eigensolves,
                                                                           misled):
    # one level starts nearer the other wanted level, so the iteration finds
    # that one, the Sturm counts place it at the other's index, and the index
    # form decides the grid
    spec = ode.ParabolicChannelSpec(s=0.0, alpha=0.0, beta=-1.0)
    expected = _channel_levels(spec, range(2), 2048)
    hint = _channel_levels(spec, range(2), 1024)
    hint[misled] = hint[1 - misled] + 0.1 * (hint[misled] - hint[1 - misled])
    eigensolves.clear()
    got = _channel_levels(spec, range(2), 2048, hint=hint)
    assert np.array_equal(got, expected)
    assert eigensolves.index_sizes == [2048]


@pytest.mark.parametrize("plant", [lambda lo, hi: (lo + 1, hi + 1), lambda lo, hi: (lo - 1, hi)],
                         ids=["wrong-index", "two-in-the-window"])
def test_a_planted_count_mismatch_falls_back_to_the_index_form(monkeypatch, eigensolves,
                                                                 plant):
    spec = ode.RadialOscillatorSpec()
    cutoff = _radial_cutoff(spec, 2)
    hint = _radial_levels(spec, range(3), 1024, cutoff)
    expected = _radial_levels(spec, range(3), 2048, cutoff)
    eigensolves.clear()
    certified = _radial_levels(spec, range(3), 2048, cutoff, hint)
    assert eigensolves.index_sizes == []
    np.testing.assert_allclose(certified, expected, rtol=0, atol=1e-9)
    counts = ode._sturm_counts
    monkeypatch.setattr(ode, "_sturm_counts", lambda *args: plant(*counts(*args)))
    assert np.array_equal(_radial_levels(spec, range(3), 2048, cutoff, hint), expected)
    assert eigensolves.index_sizes == [2048]


@pytest.mark.parametrize("routine", ["_DGTSV", "_DLARRC"])
def test_without_the_refinement_routines_every_grid_is_solved_by_index(monkeypatch,
                                                                       eigensolves, routine):
    spec = ode.ParabolicChannelSpec(s=0.5, alpha=0.0, beta=-1.0)
    hint = _channel_levels(spec, range(2), 1024)
    expected = _channel_levels(spec, range(2), 2048)
    monkeypatch.setattr(ode, routine, None)
    eigensolves.clear()
    assert np.array_equal(_channel_levels(spec, range(2), 2048, hint=hint), expected)
    assert eigensolves.index_sizes == [2048]
    # and a whole sweep bisects its pilot and every grid
    ode._sweep(lambda n: ode._parabolic_matrix(spec, n, 40.0), range(2), True, 1024, 4096)
    assert eigensolves.index_sizes == [2048, 128, 1024, 2048, 4096]


def test_a_shift_at_an_eigenvalue_does_not_crash(eigensolves):
    # the grid's own levels as the hint: the first solve is as near singular
    # as a shift gets, and the levels are still certified
    spec = ode.RadialOscillatorSpec(lam=0.5)
    cutoff = _radial_cutoff(spec, 2)
    expected = _radial_levels(spec, range(3), 2048, cutoff)
    np.testing.assert_allclose(_radial_levels(spec, range(3), 2048, cutoff, expected),
                               expected, rtol=0, atol=1e-9)
    # 0 is an eigenvalue of this matrix in exact arithmetic, and the LU of
    # the matrix shifted by 0 meets a zero pivot: the index form decides
    d, e = np.zeros(3), np.ones(2)
    assert ode._shifted_solve(d, e, 0.0, np.ones(3)) is None
    expected = ode.eigh_tridiagonal(d, e, 0, 1)
    eigensolves.clear()
    assert np.array_equal(ode._extreme_levels(d, e, range(2), False, (-np.sqrt(2.0), 0.0)),
                          expected)
    assert eigensolves.index_sizes == [3]


@pytest.mark.parametrize("k", [0, 65])
def test_level_count_must_fit_the_grid(k):
    spec = ode.RadialOscillatorSpec()
    for hint in (None, (2.0,) * k):
        with pytest.raises(ValueError, match="levels"):
            _radial_levels(spec, range(k), 64, 10.0, hint)


# -- one sweep for every grid ----------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_radial_sweep_top_level_is_the_single_level_solve(lam):
    # level n of the oracle is the sweep's at level n's cutoff; and it is a
    # solve of level n alone, by index on every grid, up to bisection noise
    spec = ode.RadialOscillatorSpec(lam=lam)
    n = 2
    cutoff = _radial_cutoff(spec, n)
    grid, rows = ode._sweep(lambda g: ode._radial_matrix(spec, g, cutoff), range(n + 1),
                            False, 1024, 4096)
    extrap, err = ode._richardson(rows)
    levels = ode.radial_oscillator_eigensolve(spec, n)
    assert len(levels) == n + 1
    assert levels[n] == ode.EigenResult(grid_size=grid, extrapolated=float(extrap[n]),
                                        error_estimate=float(err[n]))
    alone, alone_err = ode._richardson(
        [_radial_levels(spec, range(n, n + 1), g, cutoff)[0] for g in (1024, 2048, 4096)])
    assert abs(levels[n].extrapolated - alone) <= 1e-9
    assert abs(levels[n].error_estimate - alone_err) <= 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_radial_sweep_lower_levels_agree_with_their_own_cutoff(lam):
    # a lower level carries the top level's larger cutoff, which moves it by
    # far less than the oracle's 1e-6 target
    spec = ode.RadialOscillatorSpec(lam=lam)
    levels = ode.radial_oscillator_eigensolve(spec, 2)
    for k in range(2):
        own = ode.radial_oscillator_eigensolve(spec, k)[k]
        assert levels[k].grid_size == own.grid_size
        assert abs(levels[k].extrapolated - own.extrapolated) <= 1e-9


def test_radial_sweep_names_the_lowest_level_that_misses_the_target():
    # the error estimates of levels 0, 1 and 2 are about 3e-11, 5e-10 and 2e-9
    with pytest.raises(GridTooCoarse, match="radial level 1:"):
        ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(), 2, target=1e-10)


def test_a_default_sweep_bisects_only_its_pilot(eigensolves):
    # on the default grids, the oracle sweep's three radial sweeps and six
    # unit levels make one index-form solve each, on the pilot; every
    # Richardson grid is refined and certified
    for lam in (0.0, 0.5, 2.0):
        ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(lam=lam), 2)
    ode._unit_level.cache_clear()
    for s in (0.0, 0.5, 1.0):
        for level in (0, 1):
            ode._unit_level(s, level, 1024)
    assert eigensolves.index_sizes == [1024 // ode._PILOT_RATIO] * 9


def _radial_sweep(lam, n_grid, max_grid):
    try:
        ode.radial_oscillator_eigensolve(ode.RadialOscillatorSpec(lam=lam), 2,
                                         n_grid=n_grid, max_grid=max_grid)
    except GridTooCoarse:  # the sweep ran; only its error estimate missed
        pass


@pytest.mark.parametrize("n_grid", [128, 256, 512, 1024])
def test_every_sweep_bisects_at_most_one_grid(eigensolves, n_grid):
    # the pilot grows with the wanted levels, so a higher level is not lost
    # on too coarse a pilot: unit levels 0..5 of s in {0, 0.5, 1}, and levels
    # 0..2 of the radial blocks on the CLI's grids and on n_grid, 2 n_grid and
    # 4 n_grid, each make one index-form solve
    ode._unit_level.cache_clear()
    sweeps = {f"unit s={s} level {n}": (ode._unit_level, s, n, n_grid)
              for s in (0.0, 0.5, 1.0) for n in range(6)}
    sweeps.update({f"radial lambda={lam} max_grid={top}": (_radial_sweep, lam, n_grid, top)
                   for lam in (0.0, 0.5, 2.0) for top in (4096, 4 * n_grid)})
    solves = {}
    for name, (sweep, *args) in sweeps.items():
        eigensolves.clear()
        sweep(*args)
        solves[name] = len(eigensolves.index)
    assert solves == dict.fromkeys(sweeps, 1)


@pytest.mark.parametrize("plant", [lambda v: v[::-1].copy(), lambda v: v + 50.0],
                         ids=["levels-swapped", "far-off"])
def test_a_wrong_pilot_level_falls_back_to_the_index_form(monkeypatch, eigensolves, plant):
    # the coarsest grid cannot certify levels refined from a wrong pilot, so
    # it is bisected, and the finer grids refine from its levels: the same
    # levels as the sweep from a right pilot
    spec = ode.RadialOscillatorSpec(lam=0.5)
    cutoff = _radial_cutoff(spec, 2)

    def matrix(n):
        return ode._radial_matrix(spec, n, cutoff)

    _, expected = ode._sweep(matrix, range(3), False, 1024, 4096)
    extreme = ode._extreme_levels

    def planted(diag, off, levels, top, hint=None):
        found = extreme(diag, off, levels, top, hint)
        return plant(found) if len(diag) == 128 else found

    monkeypatch.setattr(ode, "_extreme_levels", planted)
    eigensolves.clear()
    _, rows = ode._sweep(matrix, range(3), False, 1024, 4096)
    assert eigensolves.index_sizes == [128, 1024]
    assert np.array_equal(rows[0], extreme(*matrix(1024), range(3), False))
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n_grid, levels", [(4, range(1)), (16, range(3)), (16, range(1, 3))],
                         ids=["no-pilot", "pilot-of-2-for-3-levels", "pilot-of-2-for-level-2"])
def test_a_coarsest_grid_too_small_for_a_pilot_is_bisected_itself(eigensolves, n_grid,
                                                                   levels):
    # a pilot of n_grid // 8 cells holds fewer cells than the levels need, and
    # one of 8 cells per level would hold more than half the coarsest grid's
    spec = ode.RadialOscillatorSpec()
    cutoff = _radial_cutoff(spec, 2)

    def matrix(n):
        return ode._radial_matrix(spec, n, cutoff)

    _, rows = ode._sweep(matrix, levels, False, n_grid, 4 * n_grid)
    assert eigensolves.index_sizes[0] == n_grid
    assert np.array_equal(rows[0], ode._extreme_levels(*matrix(n_grid), levels, False))


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_a_level_solved_alone_is_the_level_every_pair_reads(s):
    # each unit level is swept alone, so every pair reads the same level,
    # whichever pair ran first and whatever other levels are kept
    spec = ode.ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0)
    alone = {}
    for j in range(3):
        _, rows = ode._sweep(lambda n: ode._parabolic_matrix(spec, n, 40.0), range(j, j + 1),
                             True, 256, 1024)
        alone[j] = [2.0 * float(v) for v in rows[:, 0]]
    ode._unit_level.cache_clear()
    for n1, n2 in [(2, 0), (0, 0), (1, 2), (0, 1), (2, 2)]:
        per_grid = ode.solve_parabolic_pair(s, s, 2.0, n1, n2, n_grid=256, target=1.0)[4]
        assert per_grid == [-(2.0 / (w1 + w2)) ** 2 / 2.0
                            for w1, w2 in zip(alone[n1], alone[n2])]
        if n1 == n2:
            ode._unit_level.cache_clear()
    assert all(ode._unit_level(s, j, 256) == tuple(alone[j]) for j in range(3))


# -- tridiagonal bisection through numpy's LAPACK ------------------------------------

def _sweep_solves(eigensolves):
    """(d, e, lo, hi) of index-form eigensolves on the oracle sweep's
    matrices: the parabolic unit channels s in {0, 0.5, 1} (one level alone
    and two together) and the radial blocks lambda in {0, 0.5, 2}, on the
    pilot of 1024 cells and on 1024, 2048 and 4096 cells."""
    for n in (128, 1024, 2048, 4096):
        for s in (0.0, 0.5, 1.0):
            spec = ode.ParabolicChannelSpec(s=s, alpha=0.0, beta=-1.0)
            _channel_levels(spec, range(1, 2), n)
            _channel_levels(spec, range(2), n)
        for lam in (0.0, 0.5, 2.0):
            spec = ode.RadialOscillatorSpec(lam=lam)
            _radial_levels(spec, range(3), n, _radial_cutoff(spec, 2))
    assert len(eigensolves.index) == 36
    return list(eigensolves.index)


def _use_binding(monkeypatch, binding):
    """Solve through numpy's LAPACK (skipped where it exports no dstebz of
    known integer width) or through the scipy fallback."""
    if binding == "numpy lapack":
        if ode._DSTEBZ is None:
            pytest.skip("numpy's LAPACK exports no dstebz of known integer width")
    else:
        monkeypatch.setattr(ode, "_DSTEBZ", None)


@pytest.mark.parametrize("binding", ["numpy lapack", "scipy fallback"])
def test_eigenvalues_are_bitwise_scipys(monkeypatch, eigensolves, binding):
    solves = _sweep_solves(eigensolves)
    used = []
    dstebz = scipy.linalg.lapack.dstebz

    def counted(*args):
        used.append(args)
        return dstebz(*args)

    _use_binding(monkeypatch, binding)
    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", counted)
    for d, e, lo, hi in solves:
        got = ode.eigh_tridiagonal(d, e, lo, hi)
        expected = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                                 select_range=(lo, hi))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
    assert len(used) == (0 if binding == "numpy lapack" else len(solves))


@pytest.mark.parametrize("binding", ["numpy lapack", "scipy fallback"])
def test_a_1x1_matrix_is_its_diagonal(monkeypatch, binding):
    # dstebz answers N = 1 with d itself, as scipy does without LAPACK
    _use_binding(monkeypatch, binding)
    for value in (0.3, -1e300, 5e-324, -0.0):
        got = ode.eigh_tridiagonal([value], [], 0, 0)
        assert got.dtype == np.float64 and got.shape == (1,)
        assert got.tobytes() == np.float64(value).tobytes()


def _outcome(eigh, *args, **kwargs):
    try:
        return eigh(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_small_matrices_match_scipy(n):
    # values and refusals alike; at n = 1 scipy answers without LAPACK
    rng = np.random.default_rng(n)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    for lo, hi in ((0, n - 1), (n - 1, n - 1), (0, 0), (0, n), (-1, 0)):
        got = _outcome(ode.eigh_tridiagonal, d, e, lo, hi)
        expected = _outcome(scipy.linalg.eigh_tridiagonal, d, e, eigvals_only=True,
                            select="i", select_range=(lo, hi))
        if isinstance(expected, type):
            assert got is expected
        else:
            assert np.array_equal(got, expected)


_D, _E = np.linspace(1.0, 2.0, 8), np.full(7, 0.5)


@pytest.mark.parametrize("d, e", [
    (np.where(np.arange(8) == 3, np.nan, _D), _E),
    (np.where(np.arange(8) == 7, np.inf, _D), _E),
    (_D, np.where(np.arange(7) == 0, np.nan, _E)),
    (_D, np.where(np.arange(7) == 6, -np.inf, _E)),
    (_D, _E[:-1]),
    (_D, np.full(8, 0.5)),
    (_D.reshape(2, 4), _E),
])
def test_eigensolve_refuses_bad_input_before_lapack(monkeypatch, d, e):
    # LAPACK reads d and e through raw pointers
    def lapack(*args):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(ode, "_dstebz", lapack)
    with pytest.raises(ValueError):
        ode.eigh_tridiagonal(d, e, 0, 1)


@pytest.mark.parametrize("lo, hi, argument", [(0, 8, 7), (-1, 0, 6), (3, 2, 7), (8, 8, 6)],
                         ids=["0-8", "-1-0", "3-2", "8-8"])
def test_dstebz_refuses_an_index_range_outside_the_matrix_or_reversed(monkeypatch, capfd, lo,
                                                                       hi, argument):
    # refused before LAPACK runs, whose error handler prints on stdout, with
    # the argument dstebz names: IL (6) outside 1..N, or IU (7) outside IL..N
    def lapack(*args):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(ode, "_dstebz", lapack)
    with pytest.raises(ValueError,
                       match=f"illegal value in argument {argument} of internal stebz"):
        ode.eigh_tridiagonal(_D, _E, lo, hi)
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("info, error", [(-3, ValueError), (2, np.linalg.LinAlgError)])
def test_lapack_info_maps_to_scipys_errors(monkeypatch, info, error):
    monkeypatch.setattr(ode, "_dstebz", lambda *args: (0, np.empty(8), info))
    with pytest.raises(error, match="stebz"):
        ode.eigh_tridiagonal(_D, _E, 0, 1)
