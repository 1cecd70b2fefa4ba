import json
from dataclasses import dataclass

import numpy as np
import pytest

from quadalg import catalog as cat
from quadalg import hurwitz as hw
from quadalg.errors import SignError
from quadalg.odecheck import solve_parabolic_pair


# -- reference oracles ---------------------------------------------------------

@dataclass(frozen=True)
class DualitySpectrumReport:
    """Three-way spectrum comparison for one monopole channel.

    eps_duality carries the duality-chain value under the channel
    identification m_i = 2 s_i, p = n1 + n2, which matches the parabolic form
    by construction; eps_duality_oscillator_m is the same chain evaluated with
    the oscillator-side printed m parameters (a different tower, kept as a
    reported comparison).
    """

    eps_parabolic: float     # closed form in parabolic quantum numbers
    eps_duality: float       # chain value under the channel identification
    eps_duality_oscillator_m: float
    eps_oracle: float        # finite-difference pair solve
    oracle_error: float
    chain_identity_residual: float
    n1: int
    n2: int
    rep_p: int


def duality_spectrum_check(p, rep_p, oracle_grid=1024):
    """Compare the parabolic closed form, the duality chain, and the ODE oracle.

    The chain 4 c0 = 2 sqrt(-8 eps) hbar (p + 1 + (m1+m2)/2) is evaluated both
    under the channel identification (m_i = 2 s_i, p = n1 + n2) and with the
    oscillator-side m parameters at lambda_i = c_i / 2; the oracle solves the
    actual separated pair for the printed channel parameters (n1 = p, n2 = 0).
    """
    kp = p.kepler
    n1, n2 = rep_p, 0
    s1, s2 = cat.ycm_parabolic_s_parameters(p)
    _, _, eps_beta, err, _ = solve_parabolic_pair(s1, s2, 2 * kp.c0 / kp.hbar**2, n1, n2,
                                                  n_grid=oracle_grid)
    duality = cat.ycm_duality_energy(kp.c0, kp.hbar, rep_p, 2 * s1, 2 * s2)

    # channel identification: the chain reproduces the parabolic form
    lhs = 4 * kp.c0
    rhs = 2 * np.sqrt(-8 * duality) * kp.hbar * (rep_p + 1 + (2 * s1 + 2 * s2) / 2)
    chain_res = abs(lhs - rhs) / abs(lhs)

    dual_record = cat.ycm_spectrum_duality(p, rep_p)
    return DualitySpectrumReport(
        eps_parabolic=float(cat.ycm_parabolic_energy(kp.c0, kp.hbar, n1, n2, s1, s2)),
        eps_duality=float(duality),
        eps_duality_oscillator_m=float(dual_record.energy),
        eps_oracle=float(eps_beta * kp.hbar**2), oracle_error=float(err * kp.hbar**2 / 2),
        chain_identity_residual=float(chain_res), n1=n1, n2=n2, rep_p=rep_p)


def bilinear_block_residual(p):
    """Residual of sum_{i=1..4} x_i^2 = 4 (u0^2+..+u3^2)(u4^2+..+u7^2)."""
    u = p.array
    x = hw._base_map(u, literal_x0=False)
    lhs = float(np.dot(x[1:], x[1:]))
    rhs = 4.0 * float(np.dot(u[:4], u[:4])) * float(np.dot(u[4:], u[4:]))
    return abs(lhs - rhs) / max(1.0, rhs)


def test_forward_unit_vectors():
    assert hw.hurwitz_forward(hw.Point8((1, 0, 0, 0, 0, 0, 0, 0))).x == \
        pytest.approx((1.0, 0.0, 0.0, 0.0, 0.0))
    assert hw.hurwitz_forward(hw.Point8((0, 0, 0, 0, 0, 0, 0, 1))).x == \
        pytest.approx((-1.0, 0.0, 0.0, 0.0, 0.0))


def test_forward_hand_value_cross_block():
    f = hw.hurwitz_forward(hw.Point8((1, 0, 0, 0, 1, 0, 0, 0)))
    assert f.x == pytest.approx((0.0, 2.0, 0.0, 0.0, 0.0))
    assert sum(v * v for v in f.x) == pytest.approx(4.0)


def test_point8_validation():
    with pytest.raises(ValueError):
        hw.Point8((1, 2, 3))


def test_euler_identity_adopted():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, hw.euler_identity_residual(
            hw.Point8(tuple(rng.uniform(-2, 2, 8)))))
    assert worst < 1e-12


@pytest.mark.parametrize("literal_x0", [False, True])
def test_euler_identity_on_a_stack_matches_the_point_loop(literal_x0):
    # one (N, 8) draw is the stream of N per-point draws, and each row gets
    # the bits the single-point call gives
    rng = np.random.default_rng(5)
    loop = [hw.euler_identity_residual(hw.Point8(tuple(rng.uniform(-2, 2, 8))), literal_x0)
            for _ in range(300)]
    stack = np.random.default_rng(5).uniform(-2, 2, (300, 8))
    batched = hw.euler_identity_residual(stack, literal_x0)
    assert batched.shape == (300,)
    assert np.array_equal(batched, loop)


def test_euler_identity_rejects_other_shapes():
    for bad in (np.zeros(7), np.zeros((3, 5)), np.zeros((2, 3, 8))):
        with pytest.raises(ValueError, match="8"):
            hw.euler_identity_residual(bad)


def test_euler_identity_zero_point():
    assert hw.euler_identity_residual(hw.Point8((0,) * 8)) == 0.0


def test_euler_identity_literal_form_fails():
    # the printed first component omits three squares; the identity breaks at
    # order one on generic points
    rng = np.random.default_rng(2)
    residuals = [hw.euler_identity_residual(hw.Point8(tuple(rng.uniform(-2, 2, 8))),
                                            literal_x0=True) for _ in range(500)]
    assert np.median(residuals) > 1e-2
    assert max(residuals) > 0.1


def test_bilinear_block_norm_identity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = bilinear_block_residual(hw.Point8(tuple(rng.uniform(-2, 2, 8))))
        assert r < 1e-12


def test_angle_ranges_on_chart():
    rng = np.random.default_rng(4)
    for _ in range(300):
        u = rng.uniform(-2, 2, 8)
        a, b, g = hw.hurwitz_forward(hw.Point8(tuple(u))).angles
        assert 0.0 <= a < 2 * np.pi
        assert 0.0 <= b <= np.pi
        assert 0.0 <= g < 4 * np.pi


def test_fiber_chart_singular():
    p = hw.Point8((0, 0, 1, 0, 0, 0, 0, 0))  # u0 = u1 = 0: chart breaks
    f = hw.hurwitz_forward(p)
    assert np.isnan(f.angles[0])
    assert f.x == pytest.approx((1.0, 0, 0, 0, 0))  # base point still returned


def test_parameter_map_examples():
    dm = hw.DualityMap.forward(energy=4.0, omega=1.0, lambda1=0.0, lambda2=0.0)
    assert dm.c0 == pytest.approx(1.0)
    assert dm.eps == pytest.approx(-0.125)
    e, om, l1, l2 = hw.DualityMap(c0=1.0, eps=-0.125, c1=0.0, c2=0.0).inverse()
    assert om == pytest.approx(1.0)
    assert e == pytest.approx(4.0)


def test_parameter_map_involution():
    dm = hw.DualityMap.forward(energy=7.3, omega=2.1, lambda1=0.4, lambda2=0.2)
    e, om, l1, l2 = dm.inverse()
    assert (e, om, l1, l2) == pytest.approx((7.3, 2.1, 0.4, 0.2))


def test_parameter_map_sign_errors():
    with pytest.raises(SignError):
        hw.DualityMap(c0=1.0, eps=0.25, c1=0.0, c2=0.0).inverse()
    with pytest.raises(SignError):
        hw.DualityMap.forward(energy=-1.0, omega=1.0, lambda1=0.0, lambda2=0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: hw.DualityMap.forward(4.0, -1.0, 0.0, 0.0), "omega"),
    (lambda: hw.DualityMap.forward(4.0, 1.0, -0.5, 0.0), "singular strengths"),
    (lambda: hw.DualityMap(c0=-1.0, eps=-0.125, c1=0.0, c2=0.0).inverse(), "c0"),
    (lambda: hw.DualityMap(c0=1.0, eps=-0.125, c1=0.0, c2=-2.0).inverse(), "c1 and c2"),
])
def test_parameter_map_refuses_what_the_parameter_classes_refuse(make, message):
    # omega = -1 would map to the same eps as omega = 1, and c0 = -1 to a
    # negative oscillator energy
    with pytest.raises(ValueError, match=message):
        make()


def test_duality_spectrum_check_triple():
    p = cat.YCMParams()  # s1 = s2 = 0 channel
    rep = duality_spectrum_check(p, 0)
    # the two closed forms agree by construction of the chain at this channel
    assert rep.eps_duality == pytest.approx(rep.eps_parabolic, rel=1e-12)
    assert rep.chain_identity_residual < 1e-12
    assert rep.eps_parabolic == pytest.approx(-0.5)
    # the oscillator-side m parameters land on a different tower value
    assert rep.eps_duality_oscillator_m == pytest.approx(-0.125)
    # the oracle adjudicates: it supports both identified forms on this channel
    assert rep.oracle_error < 1e-6
    assert rep.eps_oracle == pytest.approx(rep.eps_parabolic, abs=1e-5)


def test_duality_scaling():
    base = duality_spectrum_check(cat.YCMParams(), 1, oracle_grid=512)
    scaled = duality_spectrum_check(
        cat.YCMParams(kepler=cat.Kepler5DParams(c0=2.0)), 1, oracle_grid=512)
    assert scaled.eps_duality == pytest.approx(4.0 * base.eps_duality)
    assert scaled.eps_duality_oscillator_m == pytest.approx(
        4.0 * base.eps_duality_oscillator_m)


def test_crosscheck_ycm_and_duality_check_share_the_triple(tmp_path):
    # both read the catalog's closed forms and the one pair oracle
    from quadalg.cli import main

    out = tmp_path / "t.json"
    argv = ["crosscheck", "ycm", "--n1", "1", "--c0", "1.3", "--hbar", "0.7",
            "--out", str(out)]
    assert main(argv) == 0
    (triple,) = [f["values"] for f in json.loads(out.read_text())["findings"]
                 if f["check"] == "ode.ycm.triple"]
    rep = duality_spectrum_check(
        cat.YCMParams(kepler=cat.Kepler5DParams(c0=1.3, hbar=0.7)), 1)
    assert (rep.eps_parabolic, rep.eps_duality, rep.eps_oracle) == (
        triple["parabolic"], triple["duality"], triple["oracle"])
    # both report the error of the oracle energy eps = hbar^2 beta / 2
    beta_error = solve_parabolic_pair(0.0, 0.0, 2 * 1.3 / 0.7**2, 1, 0)[3]
    assert rep.oracle_error == triple["oracle_error"] == beta_error * 0.7**2 / 2
