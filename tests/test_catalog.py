import numpy as np
import pytest

from quadalg import algebra as alg
from quadalg import catalog as cat


# -- reference oracles ---------------------------------------------------------

def duality_identity_residual(p, record):
    """Relative residual of 4 c0 = 2 sqrt(-8 eps) hbar (p+1+(m1+m2)/2)."""
    kp = p.kepler
    m1, m2 = record.m_printed
    rep_p = record.quantum_numbers["p"]
    lhs = 4 * kp.c0
    rhs = 2 * np.sqrt(-8 * record.energy) * kp.hbar * (rep_p + 1 + (m1 + m2) / 2)
    return abs(lhs - rhs) / abs(lhs)


# -- parameter validation -----------------------------------------------------

def test_kepler_params_validation():
    with pytest.raises(ValueError):
        cat.Kepler5DParams(c0=0.0)
    with pytest.raises(ValueError):
        cat.Kepler5DParams(c1=-0.1)
    with pytest.raises(ValueError):
        cat.Kepler5DParams(hbar=0.0)


def test_ycm_triangle_rule():
    with pytest.raises(ValueError):
        cat.YCMParams(T=0.5, J=2.0, L=0.0)
    with pytest.raises(ValueError):
        cat.YCMParams(T=0.3)  # not a half-integer
    cat.YCMParams(T=0.5, J=0.5, L=0.0)  # fine


def test_spectrum_record_sign_invariants():
    with pytest.raises(ValueError):
        cat.SpectrumRecord(system="kepler5d", quantum_numbers={}, energy=1.0,
                           provenance="algebraic")
    with pytest.raises(ValueError):
        cat.SpectrumRecord(system="osc8d", quantum_numbers={}, energy=-1.0,
                           provenance="algebraic")
    # the oracles cross-check spectra; none produces a record of its own
    with pytest.raises(ValueError):
        cat.SpectrumRecord(system="kepler5d", quantum_numbers={}, energy=-1.0,
                           provenance="ode-oracle")


# -- Kepler constants and spectra ---------------------------------------------

def test_kepler_constants_casimir_value():
    # hbar=1, c0=1, c1=c2=0, l=0, E=-1/9: K = -32 E - 4 = -4/9
    p = cat.Kepler5DParams()
    c = cat.kepler5d_constants(p).at_energy(-1.0 / 9.0)
    assert c.casimir_value == pytest.approx(-4.0 / 9.0)
    assert c.gamma == pytest.approx(2.0)
    assert c.epsilon_c == pytest.approx(8.0)


def test_kepler_zeta_antisymmetric_in_c1_c2():
    p = cat.Kepler5DParams(c1=0.3, c2=0.3)
    assert cat.kepler5d_constants(p).at_energy(-0.1).zeta_c == 0.0
    p2 = cat.Kepler5DParams(c1=0.4, c2=0.1)
    assert cat.kepler5d_constants(p2).at_energy(-0.1).zeta_c == pytest.approx(-1.2)


def test_kepler_gamma_independent_of_couplings():
    gammas = {cat.kepler5d_constants(cat.Kepler5DParams(c0=c0, c1=c1, c2=c2, l=l)).gamma
              for c0 in (0.5, 2.0) for c1 in (0.0, 0.3) for c2 in (0.0, 0.2)
              for l in (0.0, 3.0)}
    assert gammas == {2.0}


def test_kepler_m_parameters():
    assert cat.kepler5d_m_parameters(cat.Kepler5DParams()) == pytest.approx((2.0, 2.0))
    p = cat.Kepler5DParams(c1=0.75)
    assert cat.kepler5d_m_parameters(p)[0] == pytest.approx(4.0)


def test_kepler_m_monotone():
    base = cat.kepler5d_m_parameters(cat.Kepler5DParams())[0]
    up_c = cat.kepler5d_m_parameters(cat.Kepler5DParams(c1=0.5))[0]
    up_l = cat.kepler5d_m_parameters(cat.Kepler5DParams(l=2.0))[0]
    assert up_c > base and up_l > base


def test_kepler_m_imaginary_channel():
    # a negative l, where m would be imaginary, is refused with the parameters
    with pytest.raises(ValueError, match="Casimir label l is non-negative"):
        cat.Kepler5DParams(l=-2.0)


def test_kepler_spectrum_values():
    p = cat.Kepler5DParams()
    assert cat.kepler5d_spectrum(p, 0).energy == pytest.approx(-1.0 / 9.0)
    # table row values for p = 0..3 with m1 = m2 = 2
    expected = [-1 / 9, -1 / 16, -1 / 25, -1 / 36]
    got = [cat.kepler5d_spectrum(p, rp).energy for rp in range(4)]
    assert got == pytest.approx(expected)


def test_kepler_spectrum_limit():
    p = cat.Kepler5DParams()
    energies = [cat.kepler5d_spectrum(p, rp).energy for rp in (10, 100, 1000)]
    assert energies[0] < energies[1] < energies[2] < 0
    assert abs(energies[-1]) < 1e-5


# -- oscillator ----------------------------------------------------------------

def test_osc_constants_casimir_pure():
    # omega=hbar=1, lambda=0, j=k=0, E=4: K = -4 E^2 + 64 = 0
    p = cat.Oscillator8DParams()
    c = cat.osc8d_constants(p).at_energy(4.0)
    assert c.casimir_value == pytest.approx(0.0)
    assert c.d_c == pytest.approx(-16.0)


def test_osc_zeta_antisymmetry():
    p = cat.Oscillator8DParams(lambda1=0.2, lambda2=0.2, j=1.0, k=1.0)
    assert cat.osc8d_constants(p).at_energy(5.0).zeta_c == 0.0


def test_osc_m_parameters_both_paths():
    p = cat.Oscillator8DParams()
    printed, indicial = cat.osc8d_m_parameters(p)
    assert printed == pytest.approx((1.0, 1.0))
    assert indicial == pytest.approx((1.0, 1.0))
    p2 = cat.Oscillator8DParams(lambda1=1.5)
    printed2, indicial2 = cat.osc8d_m_parameters(p2)
    assert printed2[0] == pytest.approx(4.0)       # linear in lambda
    assert indicial2[0] == pytest.approx(2.0)      # square root of the same expression


def test_osc_spectrum_values_and_spacing():
    p = cat.Oscillator8DParams()
    energies = [cat.osc8d_spectrum(p, rp).energy for rp in range(4)]
    assert energies[0] == pytest.approx(4.0)
    assert np.allclose(np.diff(energies), 2.0)
    p2 = cat.Oscillator8DParams(omega=3.0, lambda1=0.7, j=2.0)
    e2 = [cat.osc8d_spectrum(p2, rp).energy for rp in range(3)]
    assert np.allclose(np.diff(e2), 2.0 * 3.0)  # gap 2*omega*hbar independent of m


# -- YCM -----------------------------------------------------------------------

def test_ycm_s_parameters():
    p = cat.YCMParams()
    assert cat.ycm_parabolic_s_parameters(p) == pytest.approx((0.0, 0.0))
    p2 = cat.YCMParams(T=1.0, J=1.0, L=0.0)
    assert cat.ycm_parabolic_s_parameters(p2)[0] == pytest.approx(8.0)


def test_ycm_s_decreases_with_coupling():
    s_plain = cat.ycm_parabolic_s_parameters(
        cat.YCMParams(kepler=cat.Kepler5DParams(), T=1.0, J=1.0, L=0.0))[0]
    s_coupled = cat.ycm_parabolic_s_parameters(
        cat.YCMParams(kepler=cat.Kepler5DParams(c1=0.5), T=1.0, J=1.0, L=0.0))[0]
    assert s_coupled < s_plain


def test_ycm_parabolic_spectrum():
    p = cat.YCMParams()
    assert cat.ycm_spectrum_parabolic(p, 0, 0).energy == pytest.approx(-0.5)
    seq = [cat.ycm_spectrum_parabolic(p, n1, 0).energy for n1 in range(4)]
    assert np.all(np.diff(seq) > 0)  # strictly increasing in n1 + n2


def test_ycm_duality_spectrum():
    p = cat.YCMParams()
    rec = cat.ycm_spectrum_duality(p, 0)
    assert rec.energy == pytest.approx(-1.0 / 8.0)
    assert rec.m_printed == pytest.approx((1.0, 1.0))


def test_ycm_duality_chain_identity():
    # 4 c0 = 2 sqrt(-8 eps) hbar (p + 1 + (m1+m2)/2) holds identically
    for c0 in (0.5, 1.0, 2.5):
        for rp in range(3):
            p = cat.YCMParams(kepler=cat.Kepler5DParams(c0=c0))
            rec = cat.ycm_spectrum_duality(p, rp)
            assert duality_identity_residual(p, rec) < 1e-12


def test_ycm_duality_scaling_homogeneity():
    base = cat.ycm_spectrum_duality(cat.YCMParams(), 1).energy
    for t in (2.0, 3.5):
        scaled = cat.ycm_spectrum_duality(
            cat.YCMParams(kepler=cat.Kepler5DParams(c0=t)), 1).energy
        assert scaled == pytest.approx(t * t * base)


def test_ycm_parabolic_vs_duality_identification():
    # substituting m_i = 2 s_i and p = n1 + n2 into the duality formula
    # reproduces the parabolic closed form identically in (s1+s2, n1+n2)
    p0 = cat.YCMParams()
    kp = p0.kepler
    for (n1, n2) in ((0, 0), (1, 1), (2, 0)):
        s1, s2 = cat.ycm_parabolic_s_parameters(p0)
        par = cat.ycm_spectrum_parabolic(p0, n1, n2).energy
        rp, m1, m2 = n1 + n2, 2 * s1, 2 * s2
        dual_identified = -kp.c0**2 / (2 * kp.hbar**2 * (rp + 1 + (m1 + m2) / 2) ** 2)
        assert dual_identified == pytest.approx(par)
    # the oscillator-side m's differ from 2 s_i, so the duality record itself
    # lands on a different tower; that mismatch is a reported finding
    assert cat.ycm_spectrum_duality(p0, 2).energy != pytest.approx(
        cat.ycm_spectrum_parabolic(p0, 1, 1).energy)


# -- determinism ----------------------------------------------------------------

def test_closed_form_evaluations_are_pure():
    p = cat.Kepler5DParams(c1=0.25, l=3.0)
    a = cat.kepler5d_spectrum(p, 2)
    b = cat.kepler5d_spectrum(p, 2)
    assert a.energy == b.energy and a.quantum_numbers == b.quantum_numbers


# -- convention scan -----------------------------------------------------------

@pytest.mark.parametrize("system,params", [
    ("kepler5d", cat.Kepler5DParams()),
    ("kepler5d", cat.Kepler5DParams(c1=0.25, c2=0.0, l=3.0)),
    ("kepler5d", cat.Kepler5DParams(hbar=0.5)),   # gamma != 2 branch of the realization
    ("osc8d", cat.Oscillator8DParams()),
    ("osc8d", cat.Oscillator8DParams(omega=1.3, hbar=0.7)),
])
def test_convention_scan_contains_closing_assignment(system, params):
    results = cat.fock_convention_scan(params, 3)
    assert len(results) >= 3
    best = min(max(r.r_ac, r.r_bc) for r in results)
    assert best < 1e-9
    for r in results:
        if np.isfinite(r.jacobi):
            assert r.jacobi < 1e-10


def test_convention_scan_lets_programming_errors_through(monkeypatch):
    # only a degenerate u or a negative window is recorded as an inf finding
    def broken(*args, **kwargs):
        raise TypeError("not a convention failure")

    monkeypatch.setattr(alg, "build_fock_realization", broken)
    with pytest.raises(TypeError):
        cat.fock_convention_scan(cat.Kepler5DParams(), 1)
