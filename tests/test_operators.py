import numpy as np
import pytest

from quadalg import catalog as cat
from quadalg import operators as ops
from quadalg.errors import SingularPoint
from quadalg.jets import JetSpace, jet_seed_polynomial, jet_space


class OpIdentity(ops.Operator):
    """The identity tree, a reference for hand-built identities."""

    def apply(self, coeffs, ctx, degree):
        return coeffs[..., :jet_space(ctx.n_vars, degree).n_terms].copy()


def commutator(a, b):
    """The tree a b - b a."""
    return a @ b - b @ a


@pytest.fixture(scope="module")
def kepler():
    return ops.build_kepler_operators(c0=1.0, c1=0.25, c2=0.25)


@pytest.fixture(scope="module")
def kepler_pure():
    return ops.build_kepler_operators(c0=1.0, c1=0.0, c2=0.0)


@pytest.fixture(scope="module")
def sampler5():
    return ops.kepler_sampler()


@pytest.fixture(scope="module")
def sampler8():
    return ops.osc8d_sampler()


def test_apply_operator_hand_value():
    # (x_a d_b - x_b d_a) on (x_a x_b) gives x_a^2 - x_b^2; at the point with
    # first coordinate 1 and second 2 that is -3
    sp = jet_space(5, 6)
    ctx = ops.PointContext(sp, np.array([1.0, 2.0, 1.0, 1.0, 1.0]))
    op = (ops.OpMul("c0", lambda c: c.coord(0)) @ ops.OpPartial(1)
          - ops.OpMul("c1", lambda c: c.coord(1)) @ ops.OpPartial(0))
    f = jet_seed_polynomial({(1, 1, 0, 0, 0): 1.0}, ctx.points, sp)
    out = op.apply(f.coeffs[None, None, :], ctx, 0)[0]
    assert out[0, 0] == pytest.approx(-3.0)


def test_apply_operator_second_derivative():
    sp = jet_space(5, 6)
    pt = np.array([0.7, -1.1, 0.2, 1.4, -0.3])
    ctx = ops.PointContext(sp, pt)
    f = jet_seed_polynomial({(3, 0, 0, 0, 0): 1.0}, pt, sp)
    out = (ops.OpPartial(0) @ ops.OpPartial(0)).apply(f.coeffs[None, None, :], ctx, 0)[0]
    assert out[0, 0] == pytest.approx(6 * pt[0])


# -- truncated, batched application ---------------------------------------------

_TREES = {"H": lambda o: o.H, "A": lambda o: o.A, "B": lambda o: o.B,
          "AC": lambda o: commutator(o.A, commutator(o.A, o.B)),
          "BC": lambda o: commutator(o.B, commutator(o.A, o.B))}


@pytest.fixture(scope="module")
def systems():
    """name: (operators, sampler) for the three systems, the monopole at T = 1."""
    return {"kepler5d": (ops.build_kepler_operators(c0=1.0, c1=0.25, c2=0.1), ops.kepler_sampler()),
            "osc8d": (ops.build_osc8d_operators(omega=1.0, lambda1=0.3, lambda2=0.1),
                      ops.osc8d_sampler()),
            "ycm": (ops.build_ycm_operators(c0=1.0, c1=0.25, c2=0.1, T=1.0), ops.kepler_sampler())}


def _samples(system, tree, top, n_samples, seed):
    """The space of germs deep enough to apply the tree at degree top,
    n_samples points and their stacked germs."""
    o, sampler = system
    space = jet_space(sampler.n_vars, top + tree.order)
    rng = np.random.default_rng(seed)
    points, germs = [], []
    for _ in range(n_samples):
        points.append(sampler.draw(rng))
        germs.append(ops.random_state(rng, space, o.H.spin_dim))
    return space, np.stack(points), np.stack(germs)


# the triple brackets of the 8-variable and spin systems stop at degree 1,
# which keeps their jets small
def _top(name, tree):
    return 1 if name != "kepler5d" and tree in ("AC", "BC") else 2


@pytest.mark.parametrize("tree", list(_TREES))
@pytest.mark.parametrize("name", ["kepler5d", "osc8d", "ycm"])
def test_lower_degree_is_the_prefix_of_a_higher_one(systems, name, tree):
    # every term up to degree d is the same, bit for bit, whatever degree the
    # tree is applied at
    op = _TREES[tree](systems[name][0])
    top = _top(name, tree)
    space, points, f = _samples(systems[name], op, top, 2, seed=len(tree))
    n_terms = space.term_level_starts[1:]
    ctx = ops.PointContext(space, points)
    full = op.apply(f, ctx, top)
    assert full.shape == f.shape[:2] + (n_terms[top],)
    for d in range(top):
        assert np.array_equal(op.apply(f, ctx, d), full[..., :n_terms[d]]), d


@pytest.mark.parametrize("tree", list(_TREES))
@pytest.mark.parametrize("name", ["kepler5d", "osc8d", "ycm"])
def test_stacked_samples_equal_each_sample_alone(systems, name, tree):
    # each stacked sample, at degree 0 and at the highest degree the germs
    # allow, is that sample applied alone at the highest degree, cut to the
    # terms of the degree
    op = _TREES[tree](systems[name][0])
    top = _top(name, tree)
    space, points, f = _samples(systems[name], op, top, 3, seed=10 + len(tree))
    n_terms = space.term_level_starts[1:]
    stacked = {d: op.apply(f, ops.PointContext(space, points), d) for d in (0, top)}
    for s in range(len(points)):
        alone = op.apply(f[s:s + 1], ops.PointContext(space, points[s:s + 1]), top)[0]
        for d, values in stacked.items():
            assert np.array_equal(values[s], alone[..., :n_terms[d]]), (d, s)


@pytest.mark.parametrize("tree", ["H", "A", "B"])
@pytest.mark.parametrize("name", ["kepler5d", "osc8d", "ycm"])
def test_stacked_inputs_equal_each_input_alone(systems, name, tree):
    # inputs stacked on a new axis after the sample axis, as the word
    # evaluator stacks the suffixes one letter serves: each entry, spin rows
    # included, is that input applied alone, bit for bit
    op = _TREES[tree](systems[name][0])
    space, points, f = _samples(systems[name], op, 1, 3, seed=20 + len(tree))
    ctx = ops.PointContext(space, points)
    g = np.random.default_rng(1).uniform(-1.0, 1.0, f.shape) + 0j
    for d in (0, 1):
        stacked = op.apply(np.stack([f, g, f], axis=1), ctx, d)
        assert stacked.shape[:3] == (3, 3, f.shape[1])
        for k, alone in enumerate((f, g, f)):
            assert np.array_equal(stacked[:, k], op.apply(alone, ctx, d)), (d, k)


def _coefficients(*trees):
    """{key: builder} of every OpMul node in the trees."""
    found, todo = {}, list(trees)
    while todo:
        node = todo.pop()
        if isinstance(node, ops.OpMul):
            found[node.key] = node.builder
        todo.extend(getattr(node, "terms", ()))
        todo.extend(getattr(node, name) for name in ("child", "a", "b") if hasattr(node, name))
    return found


def _points(name, systems, n=3):
    rng = np.random.default_rng(17)
    return np.stack([systems[name][1].draw(rng) for _ in range(n)])


@pytest.mark.parametrize("name", ["kepler5d", "osc8d", "ycm"])
def test_coefficient_at_a_lower_degree_is_the_prefix_of_a_higher_one(systems, name):
    # OpMul builds its coefficient at the degree it is applied at; every term
    # must be the one the highest degree gives, bit for bit
    o = systems[name][0]
    coefficients = _coefficients(o.H, o.A, o.B)
    assert len(coefficients) == {"kepler5d": 8, "osc8d": 6, "ycm": 54}[name]
    points = _points(name, systems)
    ctx = ops.PointContext(jet_space(points.shape[1], 4), points)
    for d in range(1, 4):
        low = ctx.at(d)
        for key, build in coefficients.items():
            got = low.coef(key, build).coeffs
            assert got.shape == (3, low.space.n_terms), key
            assert np.array_equal(got, ctx.coef(key, build).coeffs[..., :low.space.n_terms]), (key, d)


def test_r2F_holds_the_curl_in_its_top_terms(systems):
    # F_ik^a read at its own degree lacks the curl in its top-degree terms;
    # r^2 F reads F one degree up, so at degree d it is the prefix of the
    # one built at d + 1
    o = systems["ycm"][0]
    r2F = {k: b for k, b in _coefficients(o.A, o.B).items() if k.startswith("r2F")}
    assert len(r2F) == 30
    ctx = ops.PointContext(jet_space(5, 1), _points("ycm", systems))
    for d in range(1, 5):
        low, high = ctx.at(d), ctx.at(d + 1)
        for key, build in r2F.items():
            assert np.array_equal(low.coef(key, build).coeffs,
                                  high.coef(key, build).coeffs[..., :low.space.n_terms]), (key, d)
    g, n = o.gauge, low.space.n_terms
    top = low.space.term_degree == low.space.degree
    own, up = g.field_jet(low, 1, 2, 0).coeffs, g.field_jet(high, 1, 2, 0).coeffs[..., :n]
    assert np.array_equal(own[..., ~top], up[..., ~top])
    assert np.abs(own[..., top] - up[..., top]).max() > 1e-2


def test_sampler_margins(sampler5, sampler8):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = sampler5.draw(rng)
        assert np.linalg.norm(x) > 0.3
        assert np.linalg.norm(x) - abs(x[0]) > 0.1
        u = sampler8.draw(rng)
        assert np.linalg.norm(u[:4]) > 0.1 and np.linalg.norm(u[4:]) > 0.1


def test_singular_point_unreachable_sampler():
    s = ops.PointSampler(n_vars=2, accept=lambda x: False)
    with pytest.raises(SingularPoint):
        s.draw(np.random.default_rng(0), max_tries=5)


@pytest.mark.parametrize("n_vars,degree", [(5, d) for d in range(1, 7)]
                         + [(8, d) for d in range(1, 5)])
@pytest.mark.parametrize("spin_dim", [1, 3])
def test_coord_equals_the_coordinate_jet_product(n_vars, degree, spin_dim):
    # every coefficient, the truncated top degree included, equals the full
    # jet product by the coordinate germ; the points have negative coordinates
    sp = jet_space(n_vars, degree)
    rng = np.random.default_rng(10 * n_vars + degree)
    for _ in range(3):
        pt = rng.uniform(-2.0, 2.0, n_vars)
        pt[::2] = -np.abs(pt[::2])
        f = ops.random_state(rng, sp, spin_dim)
        for v in range(n_vars):
            shifted = ops.OpCoord(v).apply(f[None], ops.PointContext(sp, pt[None]), degree)[0]
            product = ops.OpMul("x", lambda c, v=v: c.coord(v)).apply(
                f[None], ops.PointContext(sp, pt[None]), degree)[0]
            assert np.array_equal(shifted, product)


def test_rotations_make_no_jet_product(kepler_pure, sampler5, monkeypatch):
    calls = []
    mul = JetSpace.mul_coeffs
    monkeypatch.setattr(JetSpace, "mul_coeffs",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    ops.commutator_residual(kepler_pure.L[(1, 2)], kepler_pure.L[(2, 3)],
                            ops.OpScale(-1j, kepler_pure.L[(1, 3)]), 5, sampler5,
                            np.random.default_rng(2))
    assert calls == []
    # [d_v, x_w] = delta_vw: off the diagonal both orders give the same
    # products; on it x_w f_(e_w) + f_0 is rounded once
    for v in range(5):
        for w in range(5):
            r = ops.commutator_residual(ops.OpPartial(v), ops.OpCoord(w),
                                        float(v == w) * OpIdentity(), 5, sampler5,
                                        np.random.default_rng(v + 5 * w))
            assert r == 0.0 if v != w else r <= np.finfo(float).eps
    assert calls == []


# -- rotation algebra ----------------------------------------------------------

def test_so5_closure_all_pairs(kepler_pure, sampler5):
    # [L_ij, L_mn] = ih(d_im L_jn - d_jm L_in - d_in L_jm + d_jn L_im),
    # checked for every pair of generators
    rng = np.random.default_rng(1)
    L = kepler_pure.L

    def L_signed(i, j):
        if i == j:
            return ops.OpZero()
        return L[(i, j)] if i < j else ops.OpScale(-1.0, L[(j, i)])

    pairs = list(L.keys())
    worst = 0.0
    for (i, j) in pairs:
        for (m, n) in pairs:
            expected = ops.OpSum([
                ops.OpScale(1j * ((i == m) * 1.0), L_signed(j, n)),
                ops.OpScale(-1j * ((j == m) * 1.0), L_signed(i, n)),
                ops.OpScale(-1j * ((i == n) * 1.0), L_signed(j, m)),
                ops.OpScale(1j * ((j == n) * 1.0), L_signed(i, m)),
            ])
            r = ops.commutator_residual(L[(i, j)], L[(m, n)], expected, 2, sampler5, rng)
            worst = max(worst, r)
    assert worst < 1e-11


def test_L12_L23_expected_value(kepler_pure, sampler5):
    rng = np.random.default_rng(2)
    expected = ops.OpScale(-1j, kepler_pure.L[(1, 3)])
    r = ops.commutator_residual(kepler_pure.L[(1, 2)], kepler_pure.L[(2, 3)],
                                expected, 5, sampler5, rng)
    assert r < 1e-12


def test_LM_and_MM_closures(kepler_pure, sampler5):
    rng = np.random.default_rng(3)
    k = kepler_pure
    # [L_ij, M_k] = ih(d_ik M_j - d_jk M_i): here [L12, M1] = ih M2
    r = ops.commutator_residual(k.L[(1, 2)], k.M[1], ops.OpScale(1j, k.M[2]),
                                3, sampler5, rng)
    assert r < 1e-11
    # [M_i, M_k] = -2 ih H L_ik
    exp = ops.OpScale(-2j, k.H @ k.L[(1, 2)])
    r = ops.commutator_residual(k.M[1], k.M[2], exp, 3, sampler5, rng)
    assert r < 1e-11


# -- tree orders and test germs --------------------------------------------------

def test_tree_order_is_the_differential_order(kepler_pure):
    k = kepler_pure
    assert k.H.order == 2
    C = commutator(k.A, k.B)
    assert commutator(k.A, C).order == 6
    casimir = ops.OpSum([C @ C, k.A @ k.B @ k.B, k.H @ k.L2, OpIdentity()])
    assert casimir.order == 8
    assert ops.OpScale(2.0, ops.OpPartial(3)).order == 1
    assert ops.OpSum([ops.OpZero()]).order == 0


# -- exactly-zero terms -----------------------------------------------------------

def _refused(ctx):
    raise AssertionError("the coefficient of a dropped term was built")


_ZERO_TERMS = {
    "scale": lambda: ops.OpScale(0.0, ops.OpMul("refused", _refused)
                                 @ ops.OpPartial(0) @ ops.OpPartial(1) @ ops.OpPartial(2)),
    "zero-matrix": lambda: (ops.OpMat(np.zeros((3, 3))) @ ops.OpMul("refused", _refused)
                            @ ops.OpPartial(0) @ ops.OpPartial(0)),
}


@pytest.mark.parametrize("zero", list(_ZERO_TERMS))
def test_sum_drops_an_exactly_zero_term(zero, sampler5):
    term = _ZERO_TERMS[zero]()
    base = [ops.OpCoord(0) @ ops.OpPartial(1),
            0.5 * ops.OpMul("x1^2", lambda c: c.coord(1) * c.coord(1))]
    kept = ops.OpSum(base)
    folded = ops.OpSum(base[:1] + [term] + base[1:])
    assert term.is_zero and not kept.is_zero
    assert folded.terms == kept.terms
    # the order and spin rows are still those of every term given
    assert (folded.order, folded.spin_dim) == (term.order, term.spin_dim)
    assert (folded.order, folded.spin_dim) != (kept.order, kept.spin_dim)
    rng = np.random.default_rng(3)
    space = jet_space(5, 2 + folded.order)
    points = np.stack([sampler5.draw(rng) for _ in range(2)])
    f = np.stack([ops.random_state(rng, space, folded.spin_dim) for _ in range(2)])
    ctx = ops.PointContext(space, points)
    for d in range(3):
        assert np.array_equal(folded.apply(f, ctx, d), kept.apply(f, ctx, d)), d


def test_is_zero_marks_exactly_zero_trees():
    x = ops.OpPartial(0)
    zero_mat = ops.OpMat(np.zeros((2, 2)))
    assert ops.OpZero().is_zero and zero_mat.is_zero
    assert (0.0 * x).is_zero and (-1.0 * (0.0 * x)).is_zero and (2.0 * zero_mat).is_zero
    assert (x @ zero_mat).is_zero and (zero_mat @ x).is_zero
    assert ops.OpSum([0.0 * x, zero_mat, ops.OpZero()]).is_zero
    assert ops.OpSum([]).is_zero and (2.0 * ops.OpSum([0.0 * x])).is_zero
    # a flag set at construction, not a symbolic simplification
    assert not any(t.is_zero for t in (x, ops.OpMat(np.eye(2)), ops.OpCoord(1),
                                       1e-300 * x, x + 0.0 * x, x - x))


def _named_trees(o):
    """name: tree for every operator field of a system's operators."""
    for name in type(o).__slots__:
        value = getattr(o, name)
        if isinstance(value, ops.Operator):
            yield name, value
        elif isinstance(value, dict):
            yield from ((f"{name}{key}", t) for key, t in value.items())
        elif isinstance(value, list):
            yield from ((f"{name}[{i}]", t) for i, t in enumerate(value))


_COUPLED = {
    "kepler5d": (lambda: ops.build_kepler_operators(c1=0.0, c2=0.0),
                 lambda: ops.build_kepler_operators(c1=0.25, c2=0.1)),
    "osc8d": (lambda: ops.build_osc8d_operators(lambda1=0.0, lambda2=0.0),
              lambda: ops.build_osc8d_operators(lambda1=0.5, lambda2=0.3)),
    "ycm": (lambda: ops.build_ycm_operators(T=0.0),
            lambda: ops.build_ycm_operators(T=0.5)),
}


@pytest.mark.parametrize("name", list(_COUPLED))
def test_vanishing_couplings_keep_every_tree_shape(name):
    # the terms a zero coupling drops still set the order, so germs and draws
    # do not depend on the couplings
    zero, coupled = (dict(_named_trees(build())) for build in _COUPLED[name])
    assert zero.keys() == coupled.keys() and len(zero) > 5
    assert {n: t.order for n, t in zero.items()} == {n: t.order for n, t in coupled.items()}
    if name == "ycm":
        # T sets the monopole's spin rows
        assert {t.spin_dim for t in zero.values()} == {1}
        assert {t.spin_dim for t in coupled.values()} == {2}
    else:
        assert {n: t.spin_dim for n, t in zero.items()} == \
            {n: t.spin_dim for n, t in coupled.items()}


def _reaches_spin_matrix(op) -> bool:
    seen, todo = set(), [op]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ops.OpMat):
            return True
        todo.extend(getattr(node, "terms", ()))
        todo.extend(getattr(node, name) for name in ("child", "a", "b") if hasattr(node, name))
    return False


def test_t0_monopole_trees_reach_no_spin_matrix():
    # at T = 0 every spin matrix is zero, and the gauge terms drop out of the sums
    y0 = ops.build_ycm_operators(c1=0.2, T=0.0)
    assert not any(_reaches_spin_matrix(t) for t in (y0.H, y0.A, y0.B))
    y = ops.build_ycm_operators(c1=0.2, T=0.5)
    assert all(_reaches_spin_matrix(t) for t in (y.H, y.A, y.B))


def test_random_state_fills_every_taylor_coefficient():
    sp = jet_space(5, 4)
    f = ops.random_state(np.random.default_rng(0), sp, 2)
    assert f.shape == (2, sp.n_terms)
    assert f.dtype == np.complex128
    top = f[:, sp.term_degree == sp.degree]
    assert np.all(top != 0) and np.abs(f).max() <= 1.0


def test_commutator_sees_terms_above_third_order(kepler_pure, sampler5):
    # a planted fourth-order term breaks [H, L2]; germs seeded from cubic
    # polynomials were blind to it
    k = kepler_pure
    d = [ops.OpPartial(i) for i in range(5)]
    planted = k.H + ops.OpScale(1e-3, d[0] @ d[0] @ d[1] @ d[2])
    assert planted.order == 4
    r = ops.commutator_residual(planted, k.L2, None, 5, sampler5, np.random.default_rng(7))
    assert r >= 1e-4
    assert ops.commutator_residual(k.H, k.L2, None, 5, sampler5,
                                   np.random.default_rng(7)) < 1e-11


# -- conserved integrals -------------------------------------------------------

def test_kepler_integrals_commute(kepler, kepler_pure, sampler5):
    rng = np.random.default_rng(4)
    k = kepler
    # the couplings preserve the rotations among the last four coordinates; the
    # L_0i components are conserved only when both couplings vanish
    for op in (k.A, k.B, k.L2, k.L[(1, 2)], k.L[(3, 4)]):
        assert ops.commutator_residual(k.H, op, None, 4, sampler5, rng) < 1e-11
    assert ops.commutator_residual(k.H, k.L[(0, 1)], None, 3, sampler5, rng) > 1e-3
    assert ops.commutator_residual(kepler_pure.H, kepler_pure.L[(0, 1)], None, 3,
                                   sampler5, rng) < 1e-11


def test_kepler_central_charge_commutes_with_generators(kepler, sampler5):
    rng = np.random.default_rng(5)
    k = kepler
    assert ops.commutator_residual(k.A, k.L2, None, 3, sampler5, rng) < 1e-11
    assert ops.commutator_residual(k.B, k.L2, None, 3, sampler5, rng) < 1e-11


def test_kepler_A_reduces_to_full_rotation_casimir(kepler_pure, sampler5):
    # with both couplings off, A is the full-rotation Casimir and B is M_0
    rng = np.random.default_rng(6)
    k = kepler_pure
    r = ops.commutator_residual(k.A, k.L2_full, None, 2, sampler5, rng)
    assert r < 1e-12
    sp = jet_space(5, 6)
    for _ in range(3):
        pt = sampler5.draw(rng)
        ctx = ops.PointContext(sp, pt[None])
        f = ops.random_state(rng, sp, 1)
        va = k.A.apply(f[None], ctx, 0)[0, :, 0]
        vl = k.L2_full.apply(f[None], ctx, 0)[0, :, 0]
        vb = k.B.apply(f[None], ctx, 0)[0, :, 0]
        vm = k.M[0].apply(f[None], ctx, 0)[0, :, 0]
        assert np.abs(va - vl).max() < 1e-12 * max(1, np.abs(va).max())
        assert np.abs(vb - vm).max() < 1e-12 * max(1, np.abs(vb).max())


# -- quadratic closure and constant fits ----------------------------------------

class _Counting(ops.Operator):
    """A tree that counts how often it is applied, to how many samples, at
    which degrees and to how many stacked inputs (1 for an unstacked one)."""

    def __init__(self, child):
        self.child = child
        self.order = child.order
        self.spin_dim = child.spin_dim
        self.calls = 0
        self.samples = []
        self.degrees = []
        self.stacked = []

    def apply(self, coeffs, ctx, degree):
        self.calls += 1
        self.samples.append(coeffs.shape[0])
        self.degrees.append(degree)
        self.stacked.append(coeffs.shape[1] if coeffs.ndim == 4 else 1)
        return self.child.apply(coeffs, ctx, degree)


# -- the word evaluator ------------------------------------------------------------

def _suite_words(H, A, B):
    """The combinations of a Kepler-like suite: two commutator rows, the two
    relation left sides and a basis with {A,B}, B and the identity."""
    A_, B_ = ops.letter(A), ops.letter(B)
    C = ops.bracket(A_, B_)
    return [*ops.commutator_sides(H, A), *ops.commutator_sides(H, B),
            ops.bracket(A_, C), ops.bracket(B_, C),
            ops.combine((1.0, ops.product(A_, B_)), (1.0, ops.product(B_, A_))), B_, {(): 1.0}]


def test_relation_left_sides_are_the_printed_words(kepler_pure):
    A, B = ops.letter(kepler_pure.A), ops.letter(kepler_pure.B)
    a, b = kepler_pure.A, kepler_pure.B
    C = ops.bracket(A, B)
    assert ops.bracket(A, C) == {(a, a, b): 1.0, (a, b, a): -2.0, (b, a, a): 1.0}
    assert ops.bracket(B, C) == {(b, a, b): 2.0, (b, b, a): -1.0, (a, b, b): -1.0}


def test_each_suffix_is_applied_once_at_the_highest_degree_it_is_read(kepler_pure, sampler5):
    k = kepler_pure
    H, A, B = (_Counting(t) for t in (k.H, k.A, k.B))
    combos = _suite_words(H, A, B)
    read = {}
    for combo in combos:
        for word in combo:
            for j in range(len(word)):
                degree = sum(x.order for x in word[:j])
                read[word[j:]] = max(read.get(word[j:], 0), degree)
    v, size, ctx = ops.sample_words(combos, 3, sampler5, np.random.default_rng(1))
    assert v.shape == (3, len(combos), 1) and size.shape == (3, len(combos))
    assert ctx.space.degree == 6
    for x in (H, A, B):
        # every suffix that starts with x is in exactly one stacked input, at
        # the degree it is read at; one apply serves each length and degree
        suffixes = [s for s in read if s[0] is x]
        assert len(suffixes) == sum(x.stacked) == {H: 3, A: 7, B: 7}[x]
        assert sorted(d for d, k in zip(x.degrees, x.stacked) for _ in range(k)) == \
            sorted(read[s] for s in suffixes)
        assert x.calls == len({(len(s), read[s]) for s in suffixes}) == {H: 2, A: 4, B: 4}[x]
        assert x.samples == [3] * x.calls
    # a second batch applies its own suffixes again: (A), (H, A), (H), (A, H)
    ops.sample_words(combos[:2], 3, sampler5, np.random.default_rng(1))
    assert (H.calls, A.calls, B.calls) == (4, 6, 4)


def test_a_word_is_its_tree_bit_for_bit_on_the_same_batch(kepler, sampler5):
    # a word reads the prefix of its suffix applied at a higher degree for
    # another word; that is what its composed tree gives at degree 0
    k = kepler
    ctx, f = ops._draw(4, sampler5, 6, 1, np.random.default_rng(3))
    combos = _suite_words(k.H, k.A, k.B)
    trees = [k.H @ k.A, k.A @ k.A @ k.B, k.B @ k.B @ k.A, k.A @ k.B, k.B]
    words = [{(k.H, k.A): 1.0}, {(k.A, k.A, k.B): 1.0}, {(k.B, k.B, k.A): 1.0},
             {(k.A, k.B): 1.0}, {(k.B,): 1.0}]
    v, _ = ops._word_values(combos + words + [ops.letter(t) for t in trees], ctx, f)
    for i, tree in enumerate(trees):
        expected = tree.apply(f, ctx, 0)[..., 0]
        assert np.array_equal(v[:, len(combos) + i], expected), i
        assert np.array_equal(v[:, len(combos) + len(words) + i], expected), i


def test_zero_words_are_not_applied_but_set_the_germ(kepler_pure, sampler5):
    H, A = _Counting(kepler_pure.H), _Counting(kepler_pure.A)
    zero = ops.OpScale(0.0, ops.OpPartial(0) @ ops.OpPartial(1) @ ops.OpPartial(2))
    v, size, ctx = ops.sample_words([{(H, A): 1.0, (A, A, A): 0.0}, {(zero, H): 1.0}], 2,
                                    sampler5, np.random.default_rng(0))
    assert ctx.space.degree == 6 and (H.calls, A.calls) == (1, 1)
    assert not v[:, 1].any() and not size[:, 1].any()


def check_relation(spec, trials, sampler, rng):
    """(printed residual, {basis name: (printed, fitted)}, fit residual) of one
    relation on a batch of relation_samples(spec, trials), as check_suite
    gives it for a relation of a verify suite."""
    return ops.check_suite((), [spec], ops.relation_samples(spec, trials), sampler, rng)[1][0]


def _rotation_relation(kepler_pure):
    lhs = _Counting(kepler_pure.L[(0, 1)])
    return lhs, ops.RelationSpec(ops.letter(lhs), (("L01", ops.letter(kepler_pure.L[(0, 1)]), 1.0),))


def test_check_relation_applies_each_side_once_per_sample(kepler_pure, sampler5):
    # once, to the residual's trials and the fit's 2 * len(rows) + 4 samples
    # together
    lhs, spec = _rotation_relation(kepler_pure)
    residual, fit, fit_residual = check_relation(spec, 3, sampler5, np.random.default_rng(0))
    assert lhs.samples == [3 + 2 * len(spec.rows) + 4]
    assert residual < 1e-14 and fit_residual < 1e-14
    assert fit["L01"][1] == pytest.approx(1.0, abs=1e-12)


def test_checks_refuse_zero_samples(kepler_pure, sampler5):
    # a required check must not pass over nothing
    lhs, spec = _rotation_relation(kepler_pure)
    with pytest.raises(ValueError):
        ops.fit_operator_coefficients(spec.lhs, [ops.letter(kepler_pure.H)], 0, sampler5,
                                      np.random.default_rng(0))
    with pytest.raises(ValueError):
        ops.check_suite([ops.commutator_sides(lhs, kepler_pure.H)], (), 0, sampler5,
                        np.random.default_rng(0))
    assert lhs.calls == 0


@pytest.mark.parametrize("system", ["kepler5d", "osc8d"])
def test_check_relation_is_the_residual_then_the_fit(system, sampler5, sampler8):
    # one batch of trials + 2 * len(rows) + 4 samples gives, bit for bit, the
    # residual of lhs - sum_k c_k basis_k over every sample of it, relative to
    # the largest term, and the fit of the same batch
    if system == "kepler5d":
        params = cat.Kepler5DParams(c1=0.25, c2=0.1)
        o = ops.build_kepler_operators(c0=params.c0, c1=params.c1, c2=params.c2)
        algebra, sampler, trials = cat.kepler5d_constants(params), sampler5, 3
    else:
        params = cat.Oscillator8DParams(lambda1=0.2, lambda2=0.1)
        o = ops.build_osc8d_operators(lambda1=params.lambda1, lambda2=params.lambda2)
        algebra, sampler, trials = cat.osc8d_constants(params), sampler8, 2
    for spec in ops.closure_relations(o, algebra):
        n = ops.relation_samples(spec, trials)
        assert n == trials + 2 * len(spec.rows) + 4
        residual, fit, fit_residual = check_relation(spec, trials, sampler,
                                                     np.random.default_rng(5))
        coefficients, expected_fit_residual = ops.fit_operator_coefficients(
            spec.lhs, [b for _, b, _ in spec.rows], n, sampler, np.random.default_rng(5))
        assert fit_residual == expected_fit_residual
        assert [fit[n] for n, _, _ in spec.rows] == \
            [(c, float(f)) for (_, _, c), f in zip(spec.rows, coefficients)]
        v, size, _ = ops.sample_words([spec.lhs, *(b for _, b, _ in spec.rows)], n, sampler,
                                      np.random.default_rng(5))
        rhs, terms = np.zeros_like(v[:, 0]), [size[:, 0]]
        for k, (_, _, c) in enumerate(spec.rows, start=1):
            rhs += v[:, k] * c
            terms.append(abs(c) * size[:, k])
        scale = np.maximum(np.max(terms, axis=0), 1.0)
        assert residual == float((np.abs(v[:, 0] - rhs).max(axis=1) / scale).max())
        # the largest term is a word of the left side, or of a row times its c_k
        assert (size[:, 0] >= np.abs(v[:, 0]).max(axis=1)).all()


def test_relation_residual_reads_every_sample_against_its_largest_term():
    # lhs = 2 X - 0.5 Y holds on the first samples; the last is off by 0.25,
    # against its largest term |2| * 4 (not the lhs's 3, nor Y's 10 alone)
    spec = ops.RelationSpec({}, (("X", {}, 2.0), ("Y", {}, -0.5)))
    x, y = np.array([1.0, 3.0, -2.0, 1.0]), np.array([2.0, 1.0, 4.0, 2.0])
    v = np.stack([2 * x - 0.5 * y + np.array([0.0, 0.0, 0.0, 0.25]), x, y], axis=1)
    size = np.array([[1.0, 1.0, 1.0], [5.5, 3.0, 1.0], [6.0, 2.0, 4.0], [3.0, 4.0, 10.0]])
    residual, fit, _ = ops._relation_result(spec, v[..., None].astype(np.complex128), size)
    assert residual == 0.25 / 8
    assert set(fit) == {"X", "Y"}


def test_trees_carry_their_spin_dimension(kepler_pure):
    # the size of their spin matrices, through sums, scalings and compositions
    y = ops.build_ycm_operators(c0=1.0, c1=0.0, c2=0.0, T=1.0)
    assert ops.OpMat(np.eye(3)).spin_dim == 3
    assert y.H.spin_dim == y.L[(1, 2)].spin_dim == y.A.spin_dim == 3
    assert (2.0 * ops.OpPartial(0) @ ops.OpMat(np.eye(2)) + ops.OpCoord(1)).spin_dim == 2
    # and 1 without one
    assert kepler_pure.H.spin_dim == kepler_pure.A.spin_dim == OpIdentity().spin_dim == 1


def test_check_relation_on_monopole_trees(sampler5):
    # the relation check samples germs with as many spin rows as its trees
    # act on: [L12, L23] = -i L13 on the T = 1/2 doublet
    y = ops.build_ycm_operators(c0=1.0, c1=0.0, c2=0.0, T=0.5)
    spec = ops.RelationSpec(ops.bracket(ops.letter(y.L[(1, 2)]), ops.letter(y.L[(2, 3)])),
                            (("L13", {(y.L[(1, 3)],): -1j}, 1.0),))
    residual, fit, fit_residual = check_relation(spec, 2, sampler5, np.random.default_rng(3))
    assert residual < 1e-14 and fit_residual < 1e-14
    assert fit["L13"] == (1.0, pytest.approx(1.0, abs=1e-12))


def test_kepler_quadratic_closure_printed_relations():
    rep = ops.kepler_quadratic_closure(c0=1.0, c1=0.25, c2=0.1, trials=3, seed=0)
    assert rep.residual_ac_printed < 1e-9
    assert rep.residual_bc_printed < 1e-9
    for fit in (rep.fit_ac, rep.fit_bc):
        for name, (printed, fitted) in fit.items():
            assert fitted == pytest.approx(printed, rel=1e-8, abs=1e-9), name


def test_kepler_quadratic_closure_explicit_hbar():
    # the printed hbar powers verify away from hbar = 1 as well
    rep = ops.kepler_quadratic_closure(c0=1.0, c1=0.2, c2=0.05, hbar=0.7,
                                       trials=2, seed=1)
    assert rep.residual_ac_printed < 1e-9
    assert rep.residual_bc_printed < 1e-9
    for fit in (rep.fit_ac, rep.fit_bc):
        for name, (printed, fitted) in fit.items():
            assert fitted == pytest.approx(printed, rel=1e-7, abs=1e-8), name


def test_osc_closure_b2_coefficient_is_hbar_independent():
    # at hbar != 1 the bracket still demands -2 on B^2, pinning the printed
    # +4 hbar^2 as the lone coefficient error rather than a unit convention
    rep = ops.osc8d_quadratic_closure(omega=1.3, lambda1=0.2, lambda2=0.1,
                                      hbar=0.7, trials=2, seed=1)
    assert rep.residual_ac_printed < 1e-9
    assert rep.fit_bc["B^2"][1] == pytest.approx(-2.0, abs=1e-7)
    for name in ("H^2", "A", "J2", "K2", "1"):
        printed, fitted = rep.fit_bc[name]
        assert fitted == pytest.approx(printed, rel=1e-7, abs=1e-8), name


def _fitted_algebra(algebra, closure):
    """The printed algebra with its [A,C] and [B,C] rows replaced by the fits."""
    return cat.PrintedAlgebra(
        ac=tuple((n, w, closure.fit_ac[n][1]) for n, w, _ in algebra.ac),
        bc=tuple((n, w, closure.fit_bc[n][1]) for n, w, _ in algebra.bc),
        casimir=algebra.casimir, labels=algebra.labels)


def test_kepler_casimir_fit_matches_printed():
    algebra = _fitted_algebra(
        cat.kepler5d_constants(cat.Kepler5DParams(c0=1.0, c1=0.25, c2=0.1)),
        ops.kepler_quadratic_closure(c0=1.0, c1=0.25, c2=0.1, seed=0))
    k = ops.build_kepler_operators(c0=1.0, c1=0.25, c2=0.1)
    _, fit, fit_residual = check_relation(ops.casimir_relation(k, algebra), 2,
                                          ops.kepler_sampler(), np.random.default_rng(0))
    assert fit_residual < 1e-9
    for name, (printed, fitted) in fit.items():
        assert fitted == pytest.approx(printed, rel=1e-7, abs=1e-7), name


def test_osc8d_casimir_relation_closes_with_one_printed_sign_off():
    # the Casimir tree closes on the declared rows; the printed K2^2 row,
    # -hbar^2 omega^2, is fitted as +hbar^2 omega^2 (a finding: the catalog
    # row stays as printed), and it alone carries the printed residual
    algebra = _fitted_algebra(cat.osc8d_constants(cat.Oscillator8DParams()),
                              ops.osc8d_quadratic_closure(seed=0))
    o = ops.build_osc8d_operators()
    residual, fit, fit_residual = check_relation(
        ops.casimir_relation(o, algebra), 2, ops.osc8d_sampler(), np.random.default_rng(0))
    assert fit_residual < 1e-9
    assert fit.pop("K2^2") == (-1.0, pytest.approx(1.0, abs=1e-7))
    for name, (printed, fitted) in fit.items():
        assert fitted == pytest.approx(printed, rel=1e-7, abs=1e-7), name
    assert residual > 1e-3


def test_closure_checks_the_catalog_declaration(monkeypatch):
    # the closure reads its rows from the catalog: one coefficient off by 1e-3
    # fails the printed-residual gate
    declared = cat.kepler5d_constants

    def off(p):
        algebra = declared(p)
        ac = tuple((n, w, c + 1e-3 if n == "B" else c) for n, w, c in algebra.ac)
        return cat.PrintedAlgebra(ac, algebra.bc, algebra.casimir, algebra.labels)

    monkeypatch.setattr(cat, "kepler5d_constants", off)
    rep = ops.kepler_quadratic_closure(c0=1.0, c1=0.25, c2=0.1, trials=2, seed=0)
    assert rep.residual_ac_printed > 1e-6
    assert rep.residual_bc_printed < 1e-9


def test_fitted_declaration_gives_the_printed_constants():
    # the operator-fitted rows, read as the Fock side reads the printed ones
    p = cat.Kepler5DParams(c0=1.0, c1=0.25, c2=0.1, hbar=0.7, l=2.0)
    rep = ops.kepler_quadratic_closure(c0=p.c0, c1=p.c1, c2=p.c2, hbar=p.hbar,
                                       trials=2, seed=1)
    printed = cat.kepler5d_constants(p)
    fitted = _fitted_algebra(printed, rep)

    def constants(algebra, energy):
        c = algebra.at_energy(energy)
        return [getattr(c, name) for name in type(c).__slots__]

    for energy in (-0.05, -0.3):
        np.testing.assert_allclose(constants(fitted, energy), constants(printed, energy),
                                   rtol=0, atol=1e-7)


def test_osc_quadratic_closure_b2_adjudication():
    p = cat.Oscillator8DParams(omega=1.0, lambda1=0.3, lambda2=0.1)
    rep = ops.osc8d_quadratic_closure(omega=p.omega, lambda1=p.lambda1, lambda2=p.lambda2,
                                      trials=2, seed=0)
    assert rep.residual_ac_printed < 1e-9          # printed [A,C] is exact
    assert rep.residual_bc_printed > 1e-2          # printed B^2 coefficient is not
    assert rep.fit_bc_residual < 1e-9
    b2_printed, b2_fitted = rep.fit_bc["B^2"]
    assert b2_printed == pytest.approx(4.0)
    assert b2_fitted == pytest.approx(-2.0, abs=1e-8)   # the -gamma the bracket demands
    assert b2_fitted == pytest.approx(-cat.osc8d_constants(p).gamma, abs=1e-8)
    for name in ("H^2", "A", "J2", "K2", "1"):
        printed, fitted = rep.fit_bc[name]
        assert fitted == pytest.approx(printed, rel=1e-8, abs=1e-8), name


# -- 8D oscillator integrals -----------------------------------------------------

def test_osc8d_integrals_commute(sampler8):
    rng = np.random.default_rng(7)
    o = ops.build_osc8d_operators(omega=1.0, lambda1=0.3, lambda2=0.1)
    for op in (o.A, o.B, o.J2, o.K2, o.J[(0, 1)], o.K[(4, 5)]):
        assert ops.commutator_residual(o.H, op, None, 3, sampler8, rng) < 1e-11
    for a, b in ((o.A, o.J2), (o.A, o.K2), (o.B, o.J2), (o.B, o.K2)):
        assert ops.commutator_residual(a, b, None, 2, sampler8, rng) < 1e-11


def test_osc8d_literal_B_fails(sampler8):
    rng = np.random.default_rng(8)
    o = ops.build_osc8d_operators(omega=1.0, lambda1=0.3, lambda2=0.1)
    r = ops.commutator_residual(o.H, o.B_literal, None, 2, sampler8, rng)
    assert r > 1e-2  # the full-Laplacian reading is not conserved


def test_osc8d_A_reduces_when_couplings_vanish(sampler8):
    rng = np.random.default_rng(9)
    o = ops.build_osc8d_operators(omega=1.0, lambda1=0.0, lambda2=0.0)
    sp = jet_space(8, 6)
    pt = sampler8.draw(rng)
    ctx = ops.PointContext(sp, pt[None])
    f = ops.random_state(rng, sp, 1)
    # A with zero couplings is (-1/4) of the full-rotation quadratic form
    rot = ops.OpSum([op @ op for op in
                     [ops.OpMul(f"ci{i}", lambda c, i=i: c.coord(i)) @ ops.OpPartial(j)
                      - ops.OpMul(f"cj{j}", lambda c, j=j: c.coord(j)) @ ops.OpPartial(i)
                      for i in range(8) for j in range(i + 1, 8)]])
    va = o.A.apply(f[None], ctx, 0)[0, :, 0]
    vr = ops.OpScale(-0.25, rot).apply(f[None], ctx, 0)[0, :, 0]
    assert np.abs(va - vr).max() < 1e-11 * max(1, np.abs(va).max())


# -- spin representations and the gauge sector -----------------------------------

@pytest.mark.parametrize("T", [0.5, 1.0, 1.5, 2.0])
def test_spinrep_identities(T):
    s = ops.SpinRep.make(T)
    T1, T2, T3 = s.matrices()
    assert np.abs(T1 @ T2 - T2 @ T1 - 1j * T3).max() < 1e-14
    assert np.abs(T2 @ T3 - T3 @ T2 - 1j * T1).max() < 1e-14
    assert np.abs(T3 @ T1 - T1 @ T3 - 1j * T2).max() < 1e-14
    cas = T1 @ T1 + T2 @ T2 + T3 @ T3
    assert np.abs(cas - s.casimir * np.eye(s.dim)).max() < 1e-14


def test_tau_matrices_su2():
    tau = ops.tau_matrices()
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        r = tau[a] @ tau[b] - tau[b] @ tau[a] - 1j * tau[c]
        assert np.abs(r).max() < 1e-15


def test_gauge_potential_real_and_field_antisymmetric(sampler5):
    rng = np.random.default_rng(10)
    g = ops.GaugeData()
    sp = jet_space(5, 6)
    for _ in range(10):
        ctx = ops.PointContext(sp, sampler5.draw(rng))
        for i in range(5):
            for a in range(3):
                assert np.abs(g.potential_jet(ctx, i, a).coeffs.imag).max() == 0.0
        for i in range(5):
            for k in range(5):
                for a in range(3):
                    s = g.field_jet(ctx, i, k, a).coeffs + g.field_jet(ctx, k, i, a).coeffs
                    assert np.abs(s).max() < 1e-13


def test_ycm_monopole_integrals(sampler5):
    # plain monopole (couplings off): every printed integral is conserved
    rng = np.random.default_rng(11)
    y0 = ops.build_ycm_operators(c0=1.0, c1=0.0, c2=0.0, T=0.5)
    for op in (y0.L[(1, 2)], y0.L[(0, 1)], y0.M[0], y0.A, y0.B, y0.L2):
        r = ops.commutator_residual(y0.H, op, None, 2, sampler5, rng)
        assert r < 1e-10
    # generalized monopole: the corrected pair (A, B) and the so(4) content
    # stay conserved; bare M_0 and L_0i do not
    y = ops.build_ycm_operators(c0=1.0, c1=0.3, c2=0.15, T=0.5)
    for op in (y.L[(1, 2)], y.A, y.B, y.L2):
        r = ops.commutator_residual(y.H, op, None, 2, sampler5, rng)
        assert r < 1e-10
    assert ops.commutator_residual(y.H, y.M[0], None, 2, sampler5, rng) > 1e-3


def test_ycm_monopole_lie_closure(sampler5):
    rng = np.random.default_rng(12)
    y = ops.build_ycm_operators(c0=1.0, c1=0.0, c2=0.0, T=0.5)
    exp = ops.OpScale(-1j, y.L[(1, 3)])
    assert ops.commutator_residual(y.L[(1, 2)], y.L[(2, 3)], exp, 2, sampler5, rng) < 1e-11
    exp = ops.OpScale(-2j, y.H @ y.L[(1, 2)])
    assert ops.commutator_residual(y.M[1], y.M[2], exp, 2, sampler5, rng) < 1e-10


def test_ycm_t0_reduces_to_kepler(sampler5):
    # identical seeds, identical residual values between the T = 0 monopole
    # trees and the plain trees
    k = ops.build_kepler_operators(c0=1.0, c1=0.25, c2=0.1)
    y = ops.build_ycm_operators(c0=1.0, c1=0.25, c2=0.1, T=0.0)
    for (opk, opy) in ((k.A, y.A), (k.B, y.B), (k.L2, y.L2)):
        rk = ops.commutator_residual(k.H, opk, None, 3, sampler5,
                                     np.random.default_rng(13))
        ry = ops.commutator_residual(y.H, opy, None, 3, sampler5,
                                     np.random.default_rng(13))
        assert abs(rk - ry) < 1e-13


def test_identity_operator_trivial_closure(sampler5, kepler_pure):
    # degenerate check: with the identity in place of a generator the bracket
    # vanishes identically
    rng = np.random.default_rng(14)
    r = ops.commutator_residual(OpIdentity(), kepler_pure.H, None, 2,
                                sampler5, rng)
    assert r == 0.0
