import itertools

import numpy as np
import pytest

from quadalg import _jet_kernels as kernels
from quadalg import jets
from quadalg.errors import SingularPoint
from quadalg.jets import Jet, JetSpace, jet_seed_polynomial, jet_space, random_polynomial


@pytest.fixture(scope="module")
def space5():
    return jet_space(5, 6)


def _random_jet(rng, space, degree=3):
    point = rng.uniform(-2, 2, space.n_vars)
    return jet_seed_polynomial(random_polynomial(rng, space.n_vars, degree), point, space)


def test_seed_monomial_derivative_coefficient(space5):
    # d/dx of x^2 at x=3 is 6, read off the linear coefficient
    f = jet_seed_polynomial({(2, 0, 0, 0, 0): 1.0}, (3, 0, 0, 0, 0), space5)
    assert f.coeffs[space5.index_of((1, 0, 0, 0, 0))] == pytest.approx(6.0)
    assert f.coeffs[space5.index_of((2, 0, 0, 0, 0))] == pytest.approx(1.0)


def test_seed_constant_polynomial(space5):
    f = jet_seed_polynomial({(0, 0, 0, 0, 0): 2.5}, (1, 2, 3, 4, 5), space5)
    assert f.value == pytest.approx(2.5)
    assert np.abs(f.coeffs[1:]).max() == 0.0


def test_reseed_at_shifted_point_agrees(space5):
    # expanding the same cubic about two points must give consistent jets:
    # value and every derivative of the second expansion match the first
    # polynomial evaluated at the shifted point
    rng = np.random.default_rng(3)
    poly = random_polynomial(rng, 5, 3)
    p1 = rng.uniform(-1, 1, 5)
    shift = rng.uniform(-0.5, 0.5, 5)
    p2 = p1 + shift
    f2 = jet_seed_polynomial(poly, p2, space5)
    f1 = jet_seed_polynomial(poly, p1, space5)
    # recenter f1 to p2 by seeding the shifted-coordinate polynomial
    coords = [space5.coordinate(v, p2) for v in range(5)]
    acc = space5.zero()
    for expo, coef in poly.items():
        term = space5.constant(coef)
        for v, e in enumerate(expo):
            for _ in range(e):
                term = term * coords[v]
        acc = acc + term
    assert np.abs(acc.coeffs - f2.coeffs).max() < 1e-12
    assert f1.value != pytest.approx(f2.value)  # different points, generic polynomial


def test_product_rule_matches_cauchy_truncation(space5):
    rng = np.random.default_rng(0)
    a = _random_jet(rng, space5)
    b = _random_jet(rng, space5)
    prod = a * b
    # derivative of a product versus product rule, exercised through the tables
    for v in range(5):
        lhs = prod.deriv(v).coeffs
        rhs = (a.deriv(v) * b + a * b.deriv(v)).coeffs
        keep = space5.term_degree <= space5.degree - 1
        assert np.abs(lhs[keep] - rhs[keep]).max() < 1e-12


def test_mul_associative_distributive(space5):
    rng = np.random.default_rng(1)
    a, b = _random_jet(rng, space5), _random_jet(rng, space5)
    c = _random_jet(rng, space5, degree=2)
    assert np.abs(((a * b) * c).coeffs - (a * (b * c)).coeffs).max() < 1e-13 * 100
    assert np.abs((a * (b + c)).coeffs - (a * b + a * c).coeffs).max() < 1e-12


def test_division_inverts_multiplication(space5):
    rng = np.random.default_rng(2)
    a, b = _random_jet(rng, space5), _random_jet(rng, space5)
    if abs(b.value) < 1e-3:
        b = b + 1.0
    q = (a * b) / b
    assert np.abs(q.coeffs - a.coeffs).max() < 1e-12 * max(1, np.abs(a.coeffs).max())


def test_division_by_zero_constant_term_raises(space5):
    rng = np.random.default_rng(4)
    a = _random_jet(rng, space5)
    b = a - a.value  # zero constant term
    with pytest.raises(SingularPoint):
        a / b


def test_sqrt_squares_back(space5):
    rng = np.random.default_rng(5)
    pt = rng.uniform(-2, 2, 5)
    r2 = space5.zero()
    for v in range(5):
        c = space5.coordinate(v, pt)
        r2 = r2 + c * c
    r = r2.sqrt()
    assert np.abs((r * r).coeffs - r2.coeffs).max() < 1e-12
    assert r.value == pytest.approx(np.linalg.norm(pt))


def test_sqrt_lower_degree_is_the_prefix_of_a_higher_one():
    # c0 = 3.7 is a value where c0 / c0 - 1 rounds to -1.1e-16; with the
    # series variable's constant term left at that, the low terms of sqrt
    # would depend on the jet degree
    assert np.complex128(3.7) / np.complex128(3.7) - 1 != 0
    top = jet_space(5, 6)
    rng = np.random.default_rng(15)
    f = rng.uniform(-1.0, 1.0, (6, top.n_terms)).astype(np.complex128)
    f[:, 0] = [3.7, 0.5, 1.3, 2.9, 4.1, 7.7]
    full = Jet(top, f).sqrt().coeffs
    for d in range(top.degree):
        sp = jet_space(5, d)
        assert np.array_equal(Jet(sp, f[:, :sp.n_terms]).sqrt().coeffs, full[:, :sp.n_terms]), d
    # and each row of the stack is that row's sqrt alone
    for s in range(len(f)):
        assert np.array_equal(Jet(top, f[s]).sqrt().coeffs, full[s])


@pytest.mark.parametrize("n_vars,degree", [(5, 0), (5, 3), (5, 6), (8, 4)])
def test_stacked_kernels_equal_each_row_alone(n_vars, degree):
    # one coefficient per sample, multiplied into (or dividing) every spin row
    # of an (S, spin, n) stack in one call: every value is the row's own call
    sp = jet_space(n_vars, degree)
    rng = np.random.default_rng(n_vars + degree)
    f = rng.standard_normal((4, 3, sp.n_terms)) + 1j * rng.standard_normal((4, 3, sp.n_terms))
    c = rng.standard_normal((4, 1, sp.n_terms)) + 1j * rng.standard_normal((4, 1, sp.n_terms))
    c[..., 0] += 3.0
    prod, quot = sp.mul_coeffs(c, f), sp.div_coeffs(f, c)
    assert prod.shape == quot.shape == f.shape
    for s in range(4):
        for row in range(3):
            assert np.array_equal(prod[s, row], sp.mul_coeffs(c[s, 0], f[s, row]))
            assert np.array_equal(quot[s, row], sp.div_coeffs(f[s, row], c[s, 0]))
    # a constant jet of shape (n,) broadcasts against the stack
    one = sp.constant(1.0).coeffs
    assert np.array_equal(sp.div_coeffs(one, c), sp.div_coeffs(np.broadcast_to(one, c.shape), c))


def test_zero_constant_term_in_any_row_raises():
    sp = jet_space(5, 3)
    rng = np.random.default_rng(16)
    b = rng.uniform(1.0, 2.0, (3, sp.n_terms)).astype(np.complex128)
    b[1, 0] = 0.0
    with pytest.raises(SingularPoint):
        sp.div_coeffs(np.ones_like(b), b)
    with pytest.raises(SingularPoint):
        Jet(sp, b).sqrt()
    with pytest.raises(SingularPoint):
        1.0 / Jet(sp, b)


def test_second_derivative_of_cubic(space5):
    rng = np.random.default_rng(6)
    pt = rng.uniform(-2, 2, 5)
    f = jet_seed_polynomial({(3, 0, 0, 0, 0): 1.0}, pt, space5)
    assert f.deriv(0).deriv(0).value == pytest.approx(6 * pt[0])


def test_mul_then_div_by_r_identity(space5):
    # multiplying by 1/r then by r is the identity on germs away from r = 0
    rng = np.random.default_rng(7)
    pt = rng.uniform(0.5, 2, 5)
    r2 = space5.zero()
    for v in range(5):
        c = space5.coordinate(v, pt)
        r2 = r2 + c * c
    r = r2.sqrt()
    f = _random_jet(rng, space5)
    g = (f / r) * r
    assert np.abs(g.coeffs - f.coeffs).max() < 1e-13 * max(1, np.abs(f.coeffs).max())


def test_jet_kernels_division_oracle():
    # the division kernel solves b * c = a: multiplying back recovers a
    sp = jet_space(8, 6)
    rng = np.random.default_rng(8)
    a = rng.standard_normal(sp.n_terms) + 1j * rng.standard_normal(sp.n_terms)
    b = rng.standard_normal(sp.n_terms) + 1j * rng.standard_normal(sp.n_terms)
    b[0] += 5.0
    d = kernels.jet_div(a, b, sp.div_i, sp.div_j, sp.div_k,
                        sp.div_level_starts, sp.term_level_starts, sp.n_terms)
    back = kernels.jet_mul(b, d, sp.mul_i, sp.mul_j, sp.mul_k, sp.n_terms)
    assert np.abs(back - a).max() < 1e-10


def test_integer_power(space5):
    rng = np.random.default_rng(9)
    a = _random_jet(rng, space5, degree=2)
    assert np.abs((a ** 3).coeffs - (a * a * a).coeffs).max() < 1e-11
    assert (a ** 0).value == pytest.approx(1.0)


@pytest.mark.parametrize("n_vars,degree", [(1, 3), (2, 4), (3, 5), (5, 6), (8, 3),
                                           (1, 0), (5, 0), (8, 0)])
def test_tables_match_brute_force_enumeration(n_vars, degree):
    # the mul table's order fixes the summation order of jet_mul, so the
    # tables must equal the plain enumeration element for element
    sp = JetSpace(n_vars, degree)
    exps = sorted((e for e in itertools.product(range(degree + 1), repeat=n_vars)
                   if sum(e) <= degree), key=lambda e: (sum(e), e))
    assert np.array_equal(sp.exps, exps)
    pos = {e: idx for idx, e in enumerate(exps)}
    assert [sp.index_of(e) for e in exps] == list(range(len(exps)))
    triples = [(i, j, pos[tuple(a + b for a, b in zip(exps[i], exps[j]))])
               for i, j in itertools.product(range(len(exps)), repeat=2)
               if sum(exps[i]) + sum(exps[j]) <= degree]
    assert np.array_equal(np.stack([sp.mul_i, sp.mul_j, sp.mul_k], axis=1), triples)
    for v in range(n_vars):
        dst = [idx for idx, e in enumerate(exps) if sum(e) < degree]
        up = [tuple(x + (u == v) for u, x in enumerate(exps[idx])) for idx in dst]
        assert np.array_equal(sp.deriv_dst[v], dst)
        assert np.array_equal(sp.deriv_src[v], [pos[e] for e in up])
        assert np.array_equal(sp.deriv_coef[v], [float(e[v]) for e in up])
    with pytest.raises(KeyError):
        sp.index_of((degree + 1,) + (0,) * (n_vars - 1))
    # degree 0 is the lowest space, and a space needs a variable
    for bad in ((n_vars, -1), (0, 1)):
        with pytest.raises(ValueError):
            JetSpace(*bad)


@pytest.mark.parametrize("n_vars, degree", [(5, 6), (8, 6), (3, 4)])
def test_a_cut_space_is_the_built_space(n_vars, degree):
    # every table of a lower degree cut from a higher space equals, array for
    # array and dtype for dtype, the table a built space holds
    top = JetSpace(n_vars, degree)
    for d in range(degree):
        cut, built = vars(top.cut(d)), vars(JetSpace(n_vars, d))
        assert cut.keys() == built.keys()
        for name, table in built.items():
            got = cut[name]
            if isinstance(table, list):
                assert len(got) == len(table), (d, name)
                pairs = zip(got, table)
            elif isinstance(table, np.ndarray):
                pairs = [(got, table)]
            else:
                assert got == table, (d, name)
                continue
            for a, b in pairs:
                assert a.dtype == b.dtype and np.array_equal(a, b), (d, name)


def test_jet_space_cuts_a_lower_degree_from_a_kept_space(monkeypatch):
    # with a higher space of the same variables kept, a lower degree is cut
    # from it and no space is built
    monkeypatch.setattr(jets, "_spaces", {})
    built = []
    init = JetSpace.__init__

    def counted(self, n_vars, degree):
        built.append((n_vars, degree))
        init(self, n_vars, degree)

    monkeypatch.setattr(JetSpace, "__init__", counted)
    top = jet_space(4, 5)
    low = jet_space(4, 2)
    assert built == [(4, 5)]
    assert jet_space(4, 5) is top and jet_space(4, 2) is low
    assert low.degree == 2 and low.n_terms == 15
    jet_space(3, 2)
    jet_space(4, 7)
    assert built == [(4, 5), (3, 2), (4, 7)]
