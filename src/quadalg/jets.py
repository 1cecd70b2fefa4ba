"""Truncated multivariate Taylor expansions (jets) with exact arithmetic.

A jet holds every partial-derivative coefficient of a function germ up to a
fixed total degree. Jets are closed under +, *, /, sqrt and partial
differentiation, which lets differential operators act exactly on test germs:
the constant term of the final jet is the exact value at the expansion point
as long as the total derivative order consumed stays at or below the jet
degree. A degree-0 jet is the value alone: its product table holds the one
triple (0, 0, 0), and its derivative and division tables are empty.

A Jet's coefficients are a (..., n_terms) array: one jet, or a stack of jets
(one per sample point, say) that every operation acts on row by row, each row
computed exactly as it would be alone. Operands broadcast over the leading
axes, so a constant jet of shape (n_terms,) combines with a stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from . import _jet_kernels as kernels
from ._record import Frozen
from .errors import SingularPoint


def _multi_indices(n_vars: int, degree: int) -> np.ndarray:
    """All exponent tuples with total degree <= degree, sorted by (degree, lex)."""
    rows = []
    for d in range(degree + 1):
        level = []
        for combo in combinations_with_replacement(range(n_vars), d):
            e = [0] * n_vars
            for v in combo:
                e[v] += 1
            level.append(tuple(e))
        rows.extend(sorted(level))
    return np.array(rows, dtype=np.int16)


class JetSpace:
    """Index tables for jets in n_vars variables truncated at total degree."""

    def __init__(self, n_vars: int, degree: int):
        if n_vars < 1 or degree < 0:
            raise ValueError("need n_vars >= 1 and degree >= 0")
        self.n_vars = n_vars
        self.degree = degree
        self.exps = _multi_indices(n_vars, degree)
        self.n_terms = self.exps.shape[0]
        assert self.n_terms == comb(n_vars + degree, degree)
        self.term_degree = self.exps.sum(axis=1).astype(np.int64)
        self.term_level_starts = np.searchsorted(self.term_degree, np.arange(degree + 2))
        self._build_keys()
        self._build_mul_table()
        self._build_div_table()
        self._build_deriv_tables()

    def cut(self, degree: int) -> "JetSpace":
        """The space of the same variables at a lower degree, its tables cut
        from these rather than built: terms are ordered by degree, so each
        table is a prefix of this one's, except the product table, which
        keeps its triples with k below the lower n_terms, in their order (so
        every product sums its pairs in the order a built space would)."""
        out = object.__new__(JetSpace)
        n = comb(self.n_vars + degree, degree)
        out.n_vars, out.degree, out.n_terms = self.n_vars, degree, n
        out.exps, out.term_degree = self.exps[:n], self.term_degree[:n]
        out.term_level_starts = self.term_level_starts[:degree + 2]
        out._build_keys()
        keep = self.mul_k < n
        out.mul_i, out.mul_j, out.mul_k = self.mul_i[keep], self.mul_j[keep], self.mul_k[keep]
        m = self.div_level_starts[degree + 1]
        out.div_i, out.div_j, out.div_k = self.div_i[:m], self.div_j[:m], self.div_k[:m]
        out.div_level_starts = self.div_level_starts[:degree + 2]
        below = self.term_level_starts[degree]  # the terms of degree below the lower one
        out.deriv_dst = [self.deriv_dst[0][:below]] * self.n_vars
        out.deriv_src = [src[:below] for src in self.deriv_src]
        out.deriv_coef = [coef[:below] for coef in self.deriv_coef]
        return out

    def _build_keys(self):
        """Exponent tuples as base-(degree + 1) integers: a key is linear in
        the exponents, so the key of a product term is the sum of the keys."""
        self._radix = (self.degree + 1) ** np.arange(self.n_vars, dtype=np.int64)
        self._keys = self.exps.astype(np.int64) @ self._radix
        self._key_order = np.argsort(self._keys)

    def _index_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Term indices of exponent keys, all of which must be terms."""
        at = np.searchsorted(self._keys, keys, sorter=self._key_order)
        return self._key_order[at]

    def index_of(self, exponents) -> int:
        e = np.asarray(exponents, dtype=np.int64)
        if e.shape != (self.n_vars,) or e.min() < 0 or e.sum() > self.degree:
            raise KeyError(tuple(exponents))
        return int(self._index_of_keys(e @ self._radix))

    def _build_mul_table(self):
        """Every (i, j, k) with exps[i] + exps[j] = exps[k], i-major, then j
        ascending. The order fixes the summation order of jet_mul's bincount."""
        # terms sorted by degree: the partners j of term i are a prefix
        n_pairs = self.term_level_starts[self.degree - self.term_degree + 1]
        self.mul_i = np.repeat(np.arange(self.n_terms), n_pairs)
        first = np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
        self.mul_j = np.arange(len(self.mul_i)) - first
        self.mul_k = self._index_of_keys(self._keys[self.mul_i] + self._keys[self.mul_j])

    def _build_div_table(self):
        keep = self.mul_i > 0
        i, j, k = self.mul_i[keep], self.mul_j[keep], self.mul_k[keep]
        order = np.argsort(k, kind="stable")
        self.div_i, self.div_j, self.div_k = i[order], j[order], k[order]
        kd = self.term_degree[self.div_k]
        self.div_level_starts = np.searchsorted(kd, np.arange(self.degree + 2))

    def _build_deriv_tables(self):
        """d/dx_v moves coefficient src = dst + e_v to dst, times exps[src, v]."""
        dst = np.flatnonzero(self.term_degree < self.degree)
        self.deriv_dst = [dst] * self.n_vars
        self.deriv_src = [self._index_of_keys(self._keys[dst] + self._radix[v])
                          for v in range(self.n_vars)]
        self.deriv_coef = [(self.exps[dst, v] + 1).astype(np.float64)
                           for v in range(self.n_vars)]

    # -- jet constructors -------------------------------------------------
    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.n_terms, dtype=np.complex128))

    def constant(self, value: complex) -> "Jet":
        c = np.zeros(self.n_terms, dtype=np.complex128)
        c[0] = value
        return Jet(self, c)

    def coordinate(self, v: int, point) -> "Jet":
        """Germ of the coordinate function x_v about the given point, or one
        germ per row of an (..., n_vars) array of points."""
        point = np.asarray(point)
        c = np.zeros(point.shape[:-1] + (self.n_terms,), dtype=np.complex128)
        c[..., 0] = point[..., v]
        unit = [0] * self.n_vars
        unit[v] = 1
        c[..., self.index_of(unit)] = 1.0
        return Jet(self, c)

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernels.jet_mul(a, b, self.mul_i, self.mul_j, self.mul_k, self.n_terms)

    def div_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if np.any(b[..., 0] == 0):
            raise SingularPoint("division by a jet with zero constant term")
        return kernels.jet_div(a, b, self.div_i, self.div_j, self.div_k,
                               self.div_level_starts, self.term_level_starts, self.n_terms)

    def deriv_coeffs(self, a: np.ndarray, v: int) -> np.ndarray:
        out = np.zeros(a.shape[:-1] + (self.n_terms,), dtype=np.complex128)
        out[..., self.deriv_dst[v]] = self.deriv_coef[v] * a[..., self.deriv_src[v]]
        return out


_spaces: dict = {}


def jet_space(n_vars: int, degree: int) -> JetSpace:
    """The JetSpace of n_vars and degree, kept per process: cut from the
    lowest kept space of the same variables and a higher degree
    (JetSpace.cut), built where there is none."""
    space = _spaces.get((n_vars, degree))
    if space is None:
        higher = [d for n, d in _spaces if n == n_vars and d > degree >= 0]
        space = (_spaces[n_vars, min(higher)].cut(degree) if higher
                 else JetSpace(n_vars, degree))
        _spaces[n_vars, degree] = space
    return space


class Jet(Frozen):
    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        # the slots' own setters: a jet is built on every jet operation
        _set_space(self, space)
        _set_coeffs(self, coeffs)

    @property
    def value(self) -> complex:
        """The value at the expansion point of a single jet."""
        return complex(self.coeffs[0])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.coeffs + other.coeffs)
        return Jet(self.space, _shift_const(self.coeffs, other))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.mul_coeffs(self.coeffs, other.coeffs))
        return Jet(self.space, self.coeffs * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.div_coeffs(self.coeffs, other.coeffs))
        return Jet(self.space, self.coeffs / complex(other))

    def __rtruediv__(self, other):
        return self.space.constant(complex(other)) / self

    def __pow__(self, n: int):
        if n < 0:
            return 1.0 / (self ** (-n))
        out = self.space.constant(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def deriv(self, v: int) -> "Jet":
        return Jet(self.space, self.space.deriv_coeffs(self.coeffs, v))

    def sqrt(self) -> "Jet":
        """Principal square root; needs a nonzero constant term.

        sqrt(c0 (1 + w)) is sqrt(c0) times the binomial series in w = f/c0 - 1,
        summed by Horner's rule. The constant term of w is set to exactly 0
        (c0/c0 - 1 can round to 1e-16), so every term of the series up to a
        degree d is the same, bit for bit, at any jet degree from d up.
        """
        c0 = self.coeffs[..., :1]
        if np.any(c0 == 0):
            raise SingularPoint("sqrt of a jet with zero constant term")
        w = self.coeffs / c0
        w[..., 0] = 0.0
        w = Jet(self.space, w)
        acc = self.space.constant(_binom_half(self.space.degree))
        for k in range(self.space.degree - 1, -1, -1):
            acc = acc * w + _binom_half(k)
        return Jet(self.space, acc.coeffs * np.sqrt(c0))


_set_space, _set_coeffs = Jet.space.__set__, Jet.coeffs.__set__


def _shift_const(coeffs: np.ndarray, value) -> np.ndarray:
    out = coeffs.copy()
    out[..., 0] += complex(value)
    return out


@lru_cache(maxsize=None)
def _binom_half(k: int) -> float:
    """Binomial coefficient C(1/2, k)."""
    out = 1.0
    for i in range(k):
        out *= (0.5 - i) / (i + 1)
    return out


def jet_seed_polynomial(poly: dict, point, space: JetSpace) -> Jet:
    """Exact Taylor expansion about point of a sparse polynomial.

    poly maps exponent tuples to coefficients; its degree must not exceed the
    space degree, otherwise the expansion would be silently truncated. Built
    from jet products, it serves as an oracle for the jet arithmetic.
    """
    coords = [space.coordinate(v, point) for v in range(space.n_vars)]
    out = space.zero()
    for expo, coef in poly.items():
        if sum(expo) > space.degree:
            raise ValueError("polynomial degree exceeds jet degree")
        term = space.constant(coef)
        for v, e in enumerate(expo):
            if e:
                term = term * coords[v] ** int(e)
        out = out + term
    return out


def random_polynomial(rng: np.random.Generator, n_vars: int, degree: int = 3) -> dict:
    """Dense random polynomial with coefficients uniform in [-1, 1]."""
    out = {}
    for row in _multi_indices(n_vars, degree):
        out[tuple(int(x) for x in row)] = rng.uniform(-1.0, 1.0)
    return out
