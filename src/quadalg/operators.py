"""Differential-operator verification via exact jet arithmetic.

Operators are immutable composition trees of partial derivatives,
coordinates, coefficient functions (evaluated as jets at the sample points)
and spin-matrix coefficients. Multiplying by a coordinate is an index shift;
only the other coefficient functions (1/r, r/(r+x0), 1/rho, ...) go through
the jet product `jet_mul`. A tree acts on the spin multiplets of S samples at
once, held as a plain (S, spin_dim, n_terms) complex array, or a stack of
such inputs on axes after the sample axis, with one batched `PointContext`
that holds the (S, n_vars) points. Every tree knows its differential order
and its spin dimension (the size of its spin matrices, 1 without one), so a
check reads both from its trees. A sum drops its
exactly-zero terms (a zero factor, an all-zero spin matrix) when it is built,
and keeps the order and spin rows of every term it was given, so a vanished
coupling costs nothing and changes no germ or draw. An identity is checked on
jets whose degree is the order of the identity: the constant term of (L f) is
then the exact value of (L f)(point) and depends on every Taylor coefficient
of L at the point. Test germs are full-degree jets with random Taylor
coefficients and as many spin rows as the trees act on.

A node applied at degree d returns only the Taylor terms up to d, the terms
its parent reads: the root is applied at degree 0, and the inner factor b of
a composition a @ b at d + a.order. Terms are ordered by degree, so those are
a prefix, and each term is computed by the same operations at every degree.
A node at degree d reads the tables of jet_space(n_vars, d), degree 0
included, whose one product pair forms the value.

Coefficient functions are built per degree, too. ctx.at(d) is the context of
the same points at degree d, and an OpMul applied at degree d reads its
coefficient there: one (S, n_terms) stack of jets, built once per batch and
degree, and multiplied into the whole (S, spin_dim, n_terms) array in one
kernel call. Every coefficient at degree d is, bit for bit, the prefix of the
one at any higher degree; the gauge field F is the one builder that must read
a degree up for that (see `GaugeData.field_jet`).

Every check samples through one path, `sample_words`. What it evaluates is
a linear combination of words over the system's integrals, a dict
{(X1, ..., Xk): c} that stands for the sum of c X1 X2 ... Xk f, the empty word
being f itself: a commutator row is its sides HX, -XH (and minus the expected
combination), a printed relation its left side (AAB - 2ABA + BAA for
[A,[A,B]]) and one combination per basis row, {A,B} being AB + BA. One batch
draws a point and then a germ per sample; the germs are jets of the highest
word order, with as many spin rows as the letters act on. Each distinct
suffix of the words is computed once, at the highest degree any word reads it
at, from the suffix one letter shorter; a word that reads it at a lower degree
takes the prefix, which by the rule above is bit for bit what an apply at that
degree gives. The suffixes of one length that start with the same letter at
the same degree share one apply, on their inputs stacked. Commutator
residuals, printed-relation residuals and least-squares fits of unknown
structure constants are reductions over the constant terms, so they are
checked at every derivative order they contain.
A residual is relative to the largest term it sums, |c X1 ... Xk f| at the
sample (at least 1), since the rounding of a sum of words grows with its
words, not with the sum.
`check_suite` puts every row and relation of a `verify` suite on one batch, so
a word such as AB and a coefficient such as 1/r that several checks share are
computed once. The printed relations are the catalog's rows; the Casimir
relation of any algebra is built from its split [A,C] and [B,C] constants
(`casimir_relation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: load it here, not in the first draw

from . import catalog as cat
from ._record import Frozen, set_fields
from .errors import SingularPoint
from .jets import Jet, JetSpace, jet_space


# --------------------------------------------------------------------------
# evaluation contexts
# --------------------------------------------------------------------------

class PointContext:
    """Coefficient-function jets at a batch of evaluation points, at one degree.

    points is an (S, n_vars) array, or one (n_vars,) point; each coefficient is
    built once for all of them, as a (..., n_terms) stack of jets of the
    context's space. at(d) is the context of the same points at degree d. The
    contexts of one batch share one cache per degree, and no context refers
    to another, so the caches go as soon as the contexts do.
    """

    def __init__(self, space: JetSpace, points, _caches: Optional[dict] = None):
        self.space = space
        self.points = np.asarray(points, dtype=float)
        if self.points.shape[-1:] != (space.n_vars,) or self.points.ndim > 2:
            raise ValueError("point dimension mismatch")
        self.n_vars = space.n_vars
        self._caches = {} if _caches is None else _caches
        self._cache = self._caches.setdefault(space.degree, {})

    def at(self, degree: int) -> "PointContext":
        return PointContext(jet_space(self.n_vars, degree), self.points, self._caches)

    def coord(self, v: int) -> Jet:
        key = ("coord", v)
        if key not in self._cache:
            self._cache[key] = self.space.coordinate(v, self.points)
        return self._cache[key]

    def coef(self, key: str, builder: Callable[["PointContext"], Jet]) -> Jet:
        if key not in self._cache:
            self._cache[key] = builder(self)
        return self._cache[key]


# --------------------------------------------------------------------------
# operator trees
# --------------------------------------------------------------------------

class Operator:
    """A tree node; order is the differential order of the tree below it and
    spin_dim the number of spin rows it acts on. is_zero marks a tree that is
    exactly zero, which a sum drops."""

    order = 0
    spin_dim = 1
    is_zero = False

    def apply(self, coeffs: np.ndarray, ctx: PointContext, degree: int) -> np.ndarray:
        """The tree applied to an (S, ..., spin_dim, n) array of jets, the
        first axis one per point of ctx, up to the given degree.

        The input needs the terms up to degree + order; the result is a new
        array of the terms up to degree, each equal to that term of the tree
        applied at any higher degree.
        """
        raise NotImplementedError

    def __add__(self, other: "Operator") -> "Operator":
        return OpSum((self, other))

    def __sub__(self, other: "Operator") -> "Operator":
        return OpSum((self, OpScale(-1.0, other)))

    def __neg__(self) -> "Operator":
        return OpScale(-1.0, self)

    def __mul__(self, scalar) -> "Operator":
        return OpScale(complex(scalar), self)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        return OpCompose(self, other)


class OpSum(Operator):
    """A sum of trees; exactly-zero terms are dropped, but order and spin_dim
    are taken over every term given."""

    def __init__(self, terms: Sequence[Operator]):
        flat = []
        for t in terms:
            if isinstance(t, OpSum):
                flat.extend(t.terms)
            elif not t.is_zero:
                flat.append(t)
        self.terms = tuple(flat)
        self.order = max((t.order for t in terms), default=0)
        self.spin_dim = max((t.spin_dim for t in terms), default=1)
        self.is_zero = not flat

    def apply(self, coeffs, ctx, degree):
        n = jet_space(ctx.n_vars, degree).n_terms
        out = np.zeros(coeffs.shape[:-1] + (n,), dtype=np.complex128)
        for t in self.terms:
            out += t.apply(coeffs, ctx, degree)
        return out


class OpScale(Operator):
    def __init__(self, factor: complex, child: Operator):
        if isinstance(child, OpScale):
            factor = factor * child.factor
            child = child.child
        self.factor = factor
        self.child = child
        self.order = child.order
        self.spin_dim = child.spin_dim
        self.is_zero = factor == 0 or child.is_zero

    def apply(self, coeffs, ctx, degree):
        out = self.child.apply(coeffs, ctx, degree)
        out *= self.factor
        return out


class OpCompose(Operator):
    """Composition: (a @ b) f = a(b(f)); a reads b f up to degree + a.order."""

    def __init__(self, a: Operator, b: Operator):
        self.a = a
        self.b = b
        self.order = a.order + b.order
        self.spin_dim = max(a.spin_dim, b.spin_dim)
        self.is_zero = a.is_zero or b.is_zero

    def apply(self, coeffs, ctx, degree):
        return self.a.apply(self.b.apply(coeffs, ctx, degree + self.a.order), ctx, degree)


class OpPartial(Operator):
    order = 1

    def __init__(self, v: int):
        self.v = v

    def apply(self, coeffs, ctx, degree):
        # the derivative tables one degree up move every term up to degree + 1
        # onto the terms up to degree
        sp = jet_space(ctx.n_vars, degree + 1)
        return sp.deriv_coef[self.v] * coeffs[..., sp.deriv_src[self.v]]


class OpCoord(Operator):
    """Multiplication by the coordinate x_v.

    The jet of x_v is x_v(point) + (x - point)_v, so the product is
    x_v(point) f plus f with the exponent of v raised by one: the derivative
    tables read backwards, with no jet product.
    """

    def __init__(self, v: int):
        self.v = v

    def apply(self, coeffs, ctx, degree):
        sp = jet_space(ctx.n_vars, degree)
        out = _per_sample(ctx.points[..., self.v], coeffs.ndim) * coeffs[..., :sp.n_terms]
        out[..., sp.deriv_src[self.v]] += coeffs[..., sp.deriv_dst[self.v]]
        return out


class OpMul(Operator):
    """Multiplication by a scalar coefficient function, evaluated as a jet.

    Applied at degree d, the coefficient is built at degree d, once for all
    points of the batch (at degree 1 for d = 0, where a coordinate germ needs
    its linear term), and multiplied into every sample and spin row at once.
    """

    def __init__(self, key: str, builder: Callable[[PointContext], Jet]):
        self.key = key
        self.builder = builder

    def apply(self, coeffs, ctx, degree):
        sp = jet_space(ctx.n_vars, degree)
        coef = ctx.at(max(degree, 1)).coef(self.key, self.builder).coeffs[..., :sp.n_terms]
        return sp.mul_coeffs(_per_sample(coef, coeffs.ndim, 1), coeffs[..., :sp.n_terms])


class OpMat(Operator):
    """Constant matrix acting on the spin index; commutes with derivatives."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        self.spin_dim = self.matrix.shape[0]
        self.is_zero = not self.matrix.any()

    def apply(self, coeffs, ctx, degree):
        if coeffs.shape[-2] != self.matrix.shape[1]:
            raise ValueError("spin dimension mismatch")
        n = jet_space(ctx.n_vars, degree).n_terms
        # a sum over the spin columns rounds every term the same at any jet
        # width, which a matmul does not
        out = self.matrix[:, 0, None] * coeffs[..., None, 0, :n]
        for j in range(1, self.matrix.shape[1]):
            out += self.matrix[:, j, None] * coeffs[..., None, j, :n]
        return out


def _per_sample(a: np.ndarray, ndim: int, trailing: int = 0) -> np.ndarray:
    """A per-sample array (first axis one per point, or no such axis for one
    point) with unit axes inserted before its last trailing axes, so that it
    broadcasts over an ndim-axis (S, ..., spin_dim, n) stack."""
    lead = a.ndim - trailing
    return a.reshape(a.shape[:lead] + (1,) * (ndim - a.ndim) + a.shape[lead:])


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSampler:
    """Uniform sampler on the box [-2, 2]^n_vars with a margin predicate keeping
    clear of singular loci."""

    n_vars: int
    accept: Callable[[np.ndarray], bool]

    def draw(self, rng: np.random.Generator, max_tries: int = 200) -> np.ndarray:
        for _ in range(max_tries):
            x = rng.uniform(-2.0, 2.0, self.n_vars)
            if self.accept(x):
                return x
        raise SingularPoint("could not sample a point clear of the singular locus")


def kepler_sampler() -> PointSampler:
    def accept(x):
        r = float(np.linalg.norm(x))
        return r > 0.3 and r - abs(x[0]) > 0.1

    return PointSampler(n_vars=5, accept=accept)


def osc8d_sampler() -> PointSampler:
    def accept(u):
        return (np.linalg.norm(u) > 0.3
                and np.linalg.norm(u[:4]) > 0.1
                and np.linalg.norm(u[4:]) > 0.1)

    return PointSampler(n_vars=8, accept=accept)


def random_state(rng: np.random.Generator, space: JetSpace, spin_dim: int) -> np.ndarray:
    """A (spin_dim, n_terms) germ whose Taylor coefficients up to the space
    degree are uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, (spin_dim, space.n_terms)).astype(np.complex128)


# --------------------------------------------------------------------------
# words
# --------------------------------------------------------------------------

def letter(op: Operator) -> dict:
    """The combination of the one-letter word op."""
    return {(op,): 1.0}


def combine(*terms) -> dict:
    """The sum of (coefficient, combination) terms, equal words merged."""
    out: dict = {}
    for c, combo in terms:
        for word, cw in combo.items():
            out[word] = out.get(word, 0.0) + c * cw
    return out


def product(*factors) -> dict:
    """The combinations multiplied left to right, words concatenated."""
    out = {(): 1.0}
    for factor in factors:
        out = combine(*((c, {w + v: cv for v, cv in factor.items()}) for w, c in out.items()))
    return out


def bracket(a: dict, b: dict) -> dict:
    """The commutator ab - ba of two combinations."""
    return combine((1.0, product(a, b)), (-1.0, product(b, a)))


def commutator_sides(a: Operator, b: Operator, expected: Optional[dict] = None) -> tuple:
    """The sides ab, -ba and -expected of [a, b] = expected, as combinations."""
    sides = ({(a, b): 1.0}, {(b, a): -1.0})
    return sides + ((combine((-1.0, expected)),) if expected else ())


def _draw(n_samples: int, sampler: PointSampler, degree: int, spin_dim: int,
          rng: Optional[np.random.Generator]):
    """n_samples (point, germ) pairs, each point drawn before its germ: the
    PointContext of the points at the germ degree and the stacked germs."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    rng = rng or np.random.default_rng(0)
    space = jet_space(sampler.n_vars, max(degree, 1))
    points, germs = [], []
    for _ in range(n_samples):
        points.append(sampler.draw(rng))
        germs.append(random_state(rng, space, spin_dim))
    return PointContext(space, np.stack(points)), np.stack(germs)


def _word_values(combos: Sequence[dict], ctx: PointContext, f: np.ndarray) -> np.ndarray:
    """Constant terms of every combination applied to the germs f.

    Each distinct suffix of the words is computed once, at the highest degree
    any word reads it at (the order of the letters before it), from the
    suffix one letter shorter; a word at a lower degree reads a prefix, which
    is the value an apply at that degree gives, bit for bit. The suffixes of
    one length that start with the same letter at the same degree share one
    apply of that letter: their inputs, each cut to the terms the letter
    reads, are stacked on a new axis after the sample axis, and every node
    acts on each entry of the stack as it would alone. A word with a zero
    coefficient or an exactly-zero letter is not applied. Returns the
    (S, len(combos), spin_dim) complex values and the (S, len(combos)) sizes:
    per sample, the largest |coefficient x word value| of a combination's
    words over the spin rows, the scale its rounding grows with.
    """
    live = [{w: c for w, c in combo.items() if c != 0 and not any(x.is_zero for x in w)}
            for combo in combos]
    need: dict = {}
    for combo in live:
        for word in combo:
            degree = 0
            for j, x in enumerate(word):
                need[word[j:]] = max(need.get(word[j:], 0), degree)
                degree += x.order
    groups: dict = {}
    for suffix in sorted(need, key=len):
        groups.setdefault((len(suffix), suffix[0], need[suffix]), []).append(suffix)
    values = {(): f}
    for (_, x, degree), suffixes in groups.items():
        n = jet_space(ctx.n_vars, degree + x.order).n_terms
        stack = x.apply(np.stack([values[s[1:]][..., :n] for s in suffixes], axis=1), ctx, degree)
        values.update((s, stack[:, k]) for k, s in enumerate(suffixes))
    out = np.zeros((f.shape[0], len(combos), f.shape[1]), dtype=np.complex128)
    size = np.zeros(out.shape[:2])
    for k, combo in enumerate(live):
        for word, c in combo.items():
            term = c * values[word][..., 0]
            out[:, k] += term
            size[:, k] = np.maximum(size[:, k], np.abs(term).max(axis=1))
    return out, size


def sample_words(combos: Sequence[dict], n_samples: int, sampler: PointSampler,
                 rng: Optional[np.random.Generator]):
    """Constant terms of every combination at one batch of n_samples random
    (point, germ) pairs, their sizes (see `_word_values`) and the batch's
    PointContext.

    The germs are jets of the highest word order (at least 1), zero words
    included, with as many spin rows as the letters act on.
    """
    words = [w for combo in combos for w in combo]
    degree = max([sum(x.order for x in w) for w in words], default=0)
    spin_dim = max([x.spin_dim for w in words for x in w], default=1)
    ctx, f = _draw(n_samples, sampler, degree, spin_dim, rng)
    return (*_word_values(combos, ctx, f), ctx)


def _relative_defect(v: np.ndarray, size: np.ndarray) -> float:
    """Max over samples of |sum of v's sides| (the largest over the spin
    rows), relative to the sample's largest term: the largest of the sides'
    sizes, at least 1. A side of one word, as a commutator side is, has the
    size |side|."""
    defect = np.abs(v.sum(axis=1)).max(axis=1)
    return float((defect / np.maximum(size.max(axis=1), 1.0)).max())


def commutator_residual(op1: Operator, op2: Operator, expected: Optional[Operator],
                        trials: int, sampler: PointSampler,
                        rng: Optional[np.random.Generator] = None) -> float:
    """Max over trials of |([op1, op2] - expected) f|(point), relative to the
    largest magnitude of the trial: op1 op2 f, op2 op1 f, expected f and 1."""
    sides = commutator_sides(op1, op2, None if expected is None else letter(expected))
    return check_suite([sides], (), trials, sampler, rng)[0][0]


def operator_residual(lhs: dict, rhs: dict, trials: int, sampler: PointSampler,
                      rng: Optional[np.random.Generator] = None) -> float:
    """Max over trials of |(lhs - rhs) f|(point) for two combinations,
    relative to the largest |coefficient x word value| of either and 1."""
    return check_suite([(lhs, combine((-1.0, rhs)))], (), trials, sampler, rng)[0][0]


def fit_operator_coefficients(lhs: dict, basis: Sequence[dict], n_samples: int,
                              sampler: PointSampler, rng: Optional[np.random.Generator] = None):
    """Least-squares coefficients c with lhs = sum_k c_k basis_k, from sampled values.

    Returns (coefficients, relative residual). Exact jet evaluation makes the
    fit sharp: residuals at rounding level certify the operator identity.
    """
    return _least_squares(sample_words([lhs, *basis], n_samples, sampler, rng)[0])


def _least_squares(v: np.ndarray):
    """Column-scaled least-squares fit of the first combination's values
    v[:, 0] on the others', one equation per sample, spin row and real or
    imaginary part.

    Returns (coefficients, residual relative to the largest left-side value).
    """
    M = v[:, 1:].transpose(0, 2, 1).reshape(-1, v.shape[1] - 1)
    y = v[:, 0].reshape(-1)
    M2 = np.vstack([M.real, M.imag])
    y2 = np.concatenate([y.real, y.imag])
    col_scale = np.abs(M2).max(axis=0)
    col_scale[col_scale == 0] = 1.0
    sol, *_ = np.linalg.lstsq(M2 / col_scale, y2, rcond=None)
    sol = sol / col_scale
    resid = np.abs(M2 @ sol - y2).max() / max(np.abs(y2).max(), 1.0)
    return sol, float(resid)


# --------------------------------------------------------------------------
# spin representations and the gauge sector
# --------------------------------------------------------------------------

class SpinRep(Frozen):
    """su(2) irreducible representation: [T_a, T_b] = i eps_abc T_c on dim 2T+1."""

    __slots__ = ("T", "T1", "T2", "T3")

    def __init__(self, T: float, T1: np.ndarray, T2: np.ndarray, T3: np.ndarray):
        set_fields(self, T, T1, T2, T3)

    @property
    def dim(self) -> int:
        return self.T1.shape[0]

    @property
    def casimir(self) -> float:
        return self.T * (self.T + 1)

    @classmethod
    def make(cls, T: float) -> "SpinRep":
        if T < 0 or round(2 * T) != 2 * T:
            raise ValueError("T must be a non-negative half-integer")
        dim = int(round(2 * T + 1))
        m = T - np.arange(dim)
        tz = np.diag(m).astype(np.complex128)
        tp = np.zeros((dim, dim), dtype=np.complex128)
        for idx in range(1, dim):
            mm = m[idx]
            tp[idx - 1, idx] = np.sqrt(T * (T + 1) - mm * (mm + 1))
        tm = tp.conj().T
        return cls(T=T, T1=(tp + tm) / 2, T2=(tp - tm) / (2j), T3=tz)

    def matrices(self) -> tuple:
        return (self.T1, self.T2, self.T3)


def tau_matrices() -> np.ndarray:
    """The three fixed 5x5 coefficient matrices of the gauge potential."""
    s1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    s3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    tau = np.zeros((3, 5, 5), dtype=np.complex128)
    tau[0, 1:3, 3:5] = -1j * s1 / 2
    tau[0, 3:5, 1:3] = 1j * s1 / 2
    tau[1, 1:3, 3:5] = 1j * s3 / 2
    tau[1, 3:5, 1:3] = -1j * s3 / 2
    tau[2, 1:3, 1:3] = s2 / 2
    tau[2, 3:5, 3:5] = s2 / 2
    return tau


class GaugeData:
    """Jet-evaluable gauge potential A_i^a and field strength F_ik^a.

    A_i^a = (2i / (r (r + x0))) tau^a_{ij} x_j, which is real because the tau
    are purely imaginary and antisymmetric. F collects the curl plus the
    non-Abelian quadratic term.
    """

    def __init__(self):
        self.tau = tau_matrices()

    def potential_jet(self, ctx: PointContext, i: int, a: int) -> Jet:
        def build(c: PointContext) -> Jet:
            r = _kepler_r(c)
            x0 = c.coord(0)
            num = c.space.zero()
            for j in range(5):
                t = self.tau[a, i, j]
                if t != 0:
                    num = num + (2j * t) * c.coord(j)
            return num / (r * (r + x0))

        return ctx.coef(f"gaugeA[{i},{a}]", build)

    def field_jet(self, ctx: PointContext, i: int, k: int, a: int) -> Jet:
        """F_ik^a at the context's degree, exact below its top degree only.

        The curl differentiates A at the same degree, and the derivative of a
        jet has no terms of the top degree, so F's top-degree terms hold the
        quadratic term alone. A caller that needs every term up to degree d
        reads F at ctx.at(d + 1) and cuts it to d, as the r^2 F coefficient
        of the rotations does.
        """
        def build(c: PointContext) -> Jet:
            Ak = self.potential_jet(c, k, a)
            Ai = self.potential_jet(c, i, a)
            out = Ak.deriv(i) - Ai.deriv(k)
            for (b, cc, sgn) in _EPS_TRIPLES[a]:
                out = out + sgn * (self.potential_jet(c, i, b) * self.potential_jet(c, k, cc))
            return out

        return ctx.coef(f"gaugeF[{i},{k},{a}]", build)


_EPS_TRIPLES = {
    # eps_abc contributions to index a: (b, c, sign)
    0: ((1, 2, 1.0), (2, 1, -1.0)),
    1: ((2, 0, 1.0), (0, 2, -1.0)),
    2: ((0, 1, 1.0), (1, 0, -1.0)),
}


# --------------------------------------------------------------------------
# coefficient functions and builders shared between systems
# --------------------------------------------------------------------------

def _kepler_r(ctx: PointContext) -> Jet:
    def build(c: PointContext) -> Jet:
        acc = c.space.zero()
        for v in range(5):
            acc = acc + c.coord(v) * c.coord(v)
        return acc.sqrt()

    return ctx.coef("r", build)


def _coord_ops(n_vars: int) -> list:
    return [OpCoord(i) for i in range(n_vars)]


def _coulomb_parts(mom: list, L: dict, c0: float, c1: float, c2: float) -> tuple:
    """The pieces shared by the 5D Kepler and the monopole integrals, built on
    the momenta mom (-i hbar d, or the covariant pi) and the rotations L.

    Returns (L2, L2_full, M, kinetic, potential, A, B). H sums the kinetic and
    the potential terms; a system's extra term goes between the two.
    """
    def coef(key, fn):
        return OpMul(key, lambda ctx: fn(_kepler_r(ctx), ctx.coord(0)))

    L2 = OpSum([L[(i, j)] @ L[(i, j)] for i in range(1, 5) for j in range(i + 1, 5)])
    L2_full = OpSum([L[(i, j)] @ L[(i, j)] for i in range(5) for j in range(i + 1, 5)])

    def M_op(k):
        terms = []
        for i in range(5):
            if i == k:
                continue
            Lik = L[(i, k)] if i < k else OpScale(-1.0, L[(k, i)])
            terms.append(OpScale(0.5, mom[i] @ Lik + Lik @ mom[i]))
        terms.append(OpScale(c0, OpMul(f"coord[{k}]/r", lambda ctx, k=k: ctx.coord(k) / _kepler_r(ctx))))
        return OpSum(terms)

    M = {k: M_op(k) for k in range(5)}
    kinetic = [OpScale(0.5, p @ p) for p in mom]
    potential = [OpScale(-c0, coef("1/r", lambda r, x0: 1.0 / r)),
                 OpScale(c1, coef("1/(r(r+x0))", lambda r, x0: 1.0 / (r * (r + x0)))),
                 OpScale(c2, coef("1/(r(r-x0))", lambda r, x0: 1.0 / (r * (r - x0))))]
    A = OpSum([L2_full,
               OpScale(2 * c1, coef("r/(r+x0)", lambda r, x0: r / (r + x0))),
               OpScale(2 * c2, coef("r/(r-x0)", lambda r, x0: r / (r - x0)))])
    B = OpSum([M[0],
               OpScale(c1, coef("(r-x0)/(r(r+x0))", lambda r, x0: (r - x0) / (r * (r + x0)))),
               OpScale(-c2, coef("(r+x0)/(r(r-x0))", lambda r, x0: (r + x0) / (r * (r - x0))))])
    return L2, L2_full, M, kinetic, potential, A, B


# --------------------------------------------------------------------------
# generalized 5D Kepler operators
# --------------------------------------------------------------------------

class KeplerOperators(Frozen):
    """Integrals of the generalized 5D Kepler system.

    L2 is the so(4) Casimir over indices 1..4 (the central charge of the
    quadratic algebra); L2_full sums every pair including index 0. The
    integral A carries L2_full: only the full sum makes [H, A] vanish, the
    coupling terms compensate exactly the rotations broken by the potential.
    """

    __slots__ = ("H", "A", "B", "L2", "L2_full", "L", "M")

    def __init__(self, H: Operator, A: Operator, B: Operator, L2: Operator,
                 L2_full: Operator, L: dict, M: dict):
        set_fields(self, H, A, B, L2, L2_full, L, M)


def build_kepler_operators(c0: float = 1.0, c1: float = 0.0, c2: float = 0.0,
                           hbar: float = 1.0) -> KeplerOperators:
    """Verbatim operator trees for the generalized 5D Kepler system."""
    P = [OpScale(-1j * hbar, OpPartial(i)) for i in range(5)]
    x = _coord_ops(5)
    L = {(i, j): x[i] @ P[j] - x[j] @ P[i] for i in range(5) for j in range(i + 1, 5)}
    L2, L2_full, M, kinetic, potential, A, B = _coulomb_parts(P, L, c0, c1, c2)
    return KeplerOperators(H=OpSum(kinetic + potential), A=A, B=B, L2=L2, L2_full=L2_full,
                           L=L, M=M)


# --------------------------------------------------------------------------
# generalized Yang-Coulomb monopole operators
# --------------------------------------------------------------------------

class YCMOperators(Frozen):
    __slots__ = ("H", "A", "B", "L2", "L2_full", "L", "M", "pi", "spin", "gauge")

    def __init__(self, H: Operator, A: Operator, B: Operator, L2: Operator,
                 L2_full: Operator, L: dict, M: dict, pi: list, spin: SpinRep,
                 gauge: GaugeData):
        set_fields(self, H, A, B, L2, L2_full, L, M, pi, spin, gauge)


def build_ycm_operators(c0: float = 1.0, c1: float = 0.0, c2: float = 0.0,
                        hbar: float = 1.0, T: float = 0.5) -> YCMOperators:
    """Monopole operator trees on (2T+1)-component germs.

    The Kepler trees with the momenta minimally coupled (pi), the r^2 F
    corrections in the rotations and the hbar^2 T(T+1)/2r^2 term in H. T = 0
    reduces every gauge term to zero and reproduces the plain Kepler values;
    for T > 0 the printed forms are checked as claims, with residuals reported
    rather than asserted.
    """
    spin = SpinRep.make(T)
    gauge = GaugeData()
    Ts = spin.matrices()
    x = _coord_ops(5)

    def pi_op(jv):
        terms = [OpScale(-1j * hbar, OpPartial(jv))]
        for a in range(3):
            terms.append(OpScale(-hbar, OpMat(Ts[a]) @ OpMul(
                f"gaugeA[{jv},{a}]", lambda ctx, jv=jv, a=a: gauge.potential_jet(ctx, jv, a))))
        return OpSum(terms)

    pi = [pi_op(jv) for jv in range(5)]

    def r2F(ctx, i, k, a):
        # F one degree up, so that its terms up to this degree hold the curl
        F = gauge.field_jet(ctx.at(ctx.space.degree + 1), i, k, a)
        r = _kepler_r(ctx)
        return (r * r) * Jet(ctx.space, F.coeffs[..., :ctx.space.n_terms])

    def L_op(i, k):
        terms = [x[i] @ pi[k], OpScale(-1.0, x[k] @ pi[i])]
        for a in range(3):
            terms.append(OpScale(-hbar, OpMat(Ts[a]) @ OpMul(
                f"r2F[{i},{k},{a}]", lambda ctx, i=i, k=k, a=a: r2F(ctx, i, k, a))))
        return OpSum(terms)

    L = {(i, k): L_op(i, k) for i in range(5) for k in range(i + 1, 5)}
    L2, L2_full, M, kinetic, potential, A, B = _coulomb_parts(pi, L, c0, c1, c2)
    centrifugal = OpScale(hbar**2 * spin.casimir / 2,
                          OpMul("1/r2", lambda ctx: 1.0 / (_kepler_r(ctx) * _kepler_r(ctx))))
    return YCMOperators(H=OpSum(kinetic + [centrifugal] + potential), A=A, B=B, L2=L2,
                        L2_full=L2_full, L=L, M=M, pi=pi, spin=spin, gauge=gauge)


# --------------------------------------------------------------------------
# 8D singular oscillator operators
# --------------------------------------------------------------------------

class Osc8DOperators(Frozen):
    __slots__ = ("H", "A", "B", "B_literal", "J2", "K2", "J", "K")

    def __init__(self, H: Operator, A: Operator, B: Operator, B_literal: Operator,
                 J2: Operator, K2: Operator, J: dict, K: dict):
        set_fields(self, H, A, B, B_literal, J2, K2, J, K)


def _osc_block_jet(ctx: PointContext, lo: int, hi: int, key: str) -> Jet:
    def build(c: PointContext) -> Jet:
        acc = c.space.zero()
        for v in range(lo, hi):
            acc = acc + c.coord(v) * c.coord(v)
        return acc

    return ctx.coef(key, build)


def build_osc8d_operators(omega: float = 1.0, lambda1: float = 0.0, lambda2: float = 0.0,
                          hbar: float = 1.0) -> Osc8DOperators:
    """Operator trees for the 8D singular oscillator.

    The block rotations J_ij, K_ij follow the printed hbar-free convention. The
    sum of squares for the second block is built from the K_ij themselves. B is
    returned in the block-antisymmetric form that commutes with H (kinetic part
    split across the two 4-blocks); the literal full-Laplacian transcription is
    kept alongside as B_literal, whose [H, B] residual is a reported finding.
    """
    u = _coord_ops(8)

    def rot(i, j):
        return u[i] @ OpPartial(j) - u[j] @ OpPartial(i)

    J = {(i, j): rot(i, j) for i in range(4) for j in range(4) if i < j}
    K = {(i, j): rot(i, j) for i in range(4, 8) for j in range(4, 8) if i < j}
    J2 = OpSum([op @ op for op in J.values()])
    K2 = OpSum([op @ op for op in K.values()])

    lap_1 = OpSum([OpPartial(i) @ OpPartial(i) for i in range(4)])
    lap_2 = OpSum([OpPartial(i) @ OpPartial(i) for i in range(4, 8)])
    lap = lap_1 + lap_2

    rho1 = lambda ctx: _osc_block_jet(ctx, 0, 4, "rho1")
    rho2 = lambda ctx: _osc_block_jet(ctx, 4, 8, "rho2")
    u2 = lambda ctx: ctx.coef("|u|^2", lambda c: rho1(c) + rho2(c))

    mul_u2 = OpMul("|u|^2", u2)
    inv_rho1 = OpMul("1/rho1", lambda ctx: 1.0 / rho1(ctx))
    inv_rho2 = OpMul("1/rho2", lambda ctx: 1.0 / rho2(ctx))
    u2_over_rho1 = OpMul("|u|^2/rho1", lambda ctx: u2(ctx) / rho1(ctx))
    u2_over_rho2 = OpMul("|u|^2/rho2", lambda ctx: u2(ctx) / rho2(ctx))
    block_diff = OpMul("rho1-rho2", lambda ctx: rho1(ctx) - rho2(ctx))

    H = OpSum([OpScale(-hbar**2 / 2, lap), OpScale(omega**2 / 2, mul_u2),
               OpScale(lambda1, inv_rho1), OpScale(lambda2, inv_rho2)])

    # u_i u_j d_i d_j summed over all pairs equals D@D - D with D the dilation
    D = OpSum([u[i] @ OpPartial(i) for i in range(8)])
    quad = D @ D - D
    A_diff = OpScale(-0.25, mul_u2 @ lap - quad - OpScale(7.0, D))
    A = OpSum([A_diff,
               OpScale(lambda1 / (2 * hbar**2), u2_over_rho1),
               OpScale(lambda2 / (2 * hbar**2), u2_over_rho2)])

    B_pot = OpSum([OpScale(omega**2 / 2, block_diff),
                   OpScale(lambda1, inv_rho1), OpScale(-lambda2, inv_rho2)])
    B = OpScale(-hbar**2 / 2, lap_1 - lap_2) + B_pot
    B_literal = OpScale(hbar**2 / 2, lap) + B_pot

    return Osc8DOperators(H=H, A=A, B=B, B_literal=B_literal, J2=J2, K2=K2, J=J, K=K)


# --------------------------------------------------------------------------
# quadratic-algebra relations at the operator level
# --------------------------------------------------------------------------

class RelationSpec(Frozen):
    """A printed relation lhs = sum_k c_k basis_k, as data.

    lhs is a combination of words; rows holds one (basis name, basis
    combination, printed coefficient c_k) per term of the right side.
    """

    __slots__ = ("lhs", "rows")

    def __init__(self, lhs: dict, rows: tuple):
        set_fields(self, lhs, rows)


def relation_samples(spec: RelationSpec, trials: int) -> int:
    """The samples a relation check draws: trials, and 2 * len(rows) + 4 more,
    so that its fit stays overdetermined at any trials."""
    return trials + 2 * len(spec.rows) + 4


def _relation_result(spec: RelationSpec, v: np.ndarray, size: np.ndarray):
    """(printed residual, {basis name: (printed, fitted)}, fit residual) from
    the values v and sizes of the left side and the basis combinations on one
    batch.

    The residual is that of lhs - sum_k c_k basis_k, the right side summed row
    by row, relative to the largest term: a word of the left side, or of a
    row times its c_k. The left side's words (AAB for [A,[A,B]]) outgrow the
    bracket they sum to, and their rounding with them. Both the residual and
    the fit use every sample.
    """
    names, _, printed = zip(*spec.rows)
    rhs, rhs_size = np.zeros_like(v[:, 0]), np.zeros_like(size[:, 0])
    for k, c in enumerate(printed, start=1):
        rhs += v[:, k] * c
        rhs_size = np.maximum(rhs_size, abs(c) * size[:, k])
    residual = _relative_defect(np.stack([v[:, 0], -rhs], axis=1),
                                np.stack([size[:, 0], rhs_size], axis=1))
    fit, fit_residual = _least_squares(v)
    return residual, {n: (p, float(f)) for n, p, f in zip(names, printed, fit)}, fit_residual


def check_suite(checks: Sequence[Sequence[dict]], relations: Sequence[RelationSpec],
                n_samples: int, sampler: PointSampler, rng: Optional[np.random.Generator]):
    """Every check and relation of a suite on one batch of n_samples.

    A check is a sequence of combinations, its sides, whose sum vanishes; its
    residual is the largest |sum of the sides| relative to the sample's
    largest |coefficient x word value| over the sides (at least 1). A relation
    gives (printed residual, {basis name: (printed, fitted)}, fit residual),
    see _relation_result.
    Every word of every side, left side and basis goes through one
    sample_words call, so a shared suffix is applied once. Returns (check
    residuals, relation results, the batch's PointContext).
    """
    combos = [c for sides in checks for c in sides]
    combos += [c for spec in relations for c in (spec.lhs, *(b for _, b, _ in spec.rows))]
    v, size, ctx = sample_words(combos, n_samples, sampler, rng)
    residuals, at = [], 0
    for sides in checks:
        residuals.append(_relative_defect(v[:, at:at + len(sides)], size[:, at:at + len(sides)]))
        at += len(sides)
    results = []
    for spec in relations:
        span = slice(at, at + 1 + len(spec.rows))
        results.append(_relation_result(spec, v[:, span], size[:, span]))
        at += 1 + len(spec.rows)
    return residuals, results, ctx


class ClosureReport(Frozen):
    """Residuals of the printed quadratic-algebra relations as operator
    identities, plus least-squares fits of the structure constants.

    Fits carry (name, printed value, fitted value) triples; a fit residual at
    rounding level certifies that the left side genuinely lies in the span of
    the chosen basis, making the fitted values the operator-level ground truth.
    """

    __slots__ = ("residual_ac_printed", "residual_bc_printed", "fit_ac", "fit_bc",
                 "fit_ac_residual", "fit_bc_residual")

    def __init__(self, residual_ac_printed: float, residual_bc_printed: float, fit_ac: dict,
                 fit_bc: dict, fit_ac_residual: float, fit_bc_residual: float):
        set_fields(self, residual_ac_printed, residual_bc_printed, fit_ac, fit_bc,
                   fit_ac_residual, fit_bc_residual)


def _words(o, word: tuple) -> dict:
    """The combination of a printed word: its letters, fields of the operators
    o, multiplied left to right, {A,B} as AB + BA; () is the identity."""
    A, B = letter(o.A), letter(o.B)
    return product(*(combine((1.0, product(A, B)), (1.0, product(B, A))) if w == "{A,B}"
                     else letter(getattr(o, w)) for w in word))


def _relation(o, lhs: dict, rows: tuple) -> RelationSpec:
    """lhs against printed (name, word, coefficient) rows, each word built from o."""
    return RelationSpec(lhs, tuple((n, _words(o, w), c) for n, w, c in rows))


def closure_relations(o, algebra: cat.PrintedAlgebra) -> tuple:
    """The printed [A,C] and [B,C] relations on the operators o, their left
    sides AAB - 2ABA + BAA and 2BAB - BBA - ABB."""
    A, B = letter(o.A), letter(o.B)
    C = bracket(A, B)
    return (_relation(o, bracket(A, C), algebra.ac), _relation(o, bracket(B, C), algebra.bc))


def casimir_relation(o, algebra: cat.PrintedAlgebra) -> RelationSpec:
    """The Casimir of the algebra on the operators o, against its Casimir rows.

    The left side C^2 - gamma {A, B^2} + (gamma^2 - epsilon) B^2 - 2 zeta B
    + d A^2 + 2 z A takes its constants from algebra.split(); with the
    operator-fitted [A,C] and [B,C] rows, a fit of this relation adjudicates
    the printed Casimir polynomial.
    """
    gamma, epsilon, zeta, d, z = algebra.split()
    A, B = letter(o.A), letter(o.B)
    C = bracket(A, B)
    B2 = product(B, B)
    lhs = combine((1.0, product(C, C)), (-gamma, product(A, B2)), (-gamma, product(B2, A)),
                  (gamma**2 - epsilon, B2),
                  *((-2 * c, _words(o, w + ("B",))) for _, w, c in zeta),
                  *((c, _words(o, w + ("A", "A"))) for _, w, c in d),
                  *((2 * c, _words(o, w + ("A",))) for _, w, c in z))
    return _relation(o, lhs, algebra.casimir)


def _closure_report(o, algebra: cat.PrintedAlgebra, trials: int, sampler: PointSampler,
                    seed: int) -> ClosureReport:
    """Check the declared [A,C] and [B,C] rows on the operators o, both on one
    batch as large as the larger relation check would draw."""
    relations = closure_relations(o, algebra)
    n = max(relation_samples(spec, trials) for spec in relations)
    ac, bc = check_suite((), relations, n, sampler, np.random.default_rng(seed))[1]
    return ClosureReport(ac[0], bc[0], ac[1], bc[1], ac[2], bc[2])


def kepler_quadratic_closure(c0: float = 1.0, c1: float = 0.0, c2: float = 0.0,
                             hbar: float = 1.0, trials: int = 6, seed: int = 0) -> ClosureReport:
    """Closure residuals and constant fits for the generalized 5D Kepler algebra."""
    algebra = cat.kepler5d_constants(cat.Kepler5DParams(c0=c0, c1=c1, c2=c2, hbar=hbar))
    return _closure_report(build_kepler_operators(c0=c0, c1=c1, c2=c2, hbar=hbar), algebra,
                           trials, kepler_sampler(), seed)


def osc8d_quadratic_closure(omega: float = 1.0, lambda1: float = 0.0, lambda2: float = 0.0,
                            hbar: float = 1.0, trials: int = 4, seed: int = 0) -> ClosureReport:
    """Closure residuals and constant fits for the 8D singular-oscillator algebra."""
    algebra = cat.osc8d_constants(cat.Oscillator8DParams(omega=omega, lambda1=lambda1,
                                                         lambda2=lambda2, hbar=hbar))
    o = build_osc8d_operators(omega=omega, lambda1=lambda1, lambda2=lambda2, hbar=hbar)
    return _closure_report(o, algebra, trials, osc8d_sampler(), seed)
