"""Hot kernels for jet (truncated multivariate Taylor) arithmetic.

The product kernel serves the coefficient functions of the operator trees
(multiplying by a coordinate needs no product), the division kernel their
quotients. Both gather operand pairs through the precomputed index tables of a
JetSpace and scatter-add them with bincount.

Operands are (..., n_terms) arrays whose leading axes broadcast: every row of
the broadcast shape is one jet. One bincount per complex part serves all rows,
over the bins k + n_terms * row, so each row sums its pairs in table order, and
every value is bitwise what the kernel gives that row alone.
"""

from __future__ import annotations

import math

import numpy as np


def _scatter(prod, k_idx, n_terms):
    """Per row of prod (..., n_pairs), the sums of its entries by term k_idx,
    as a (..., n_terms) complex array."""
    lead = prod.shape[:-1]
    rows = math.prod(lead)
    bins = k_idx if rows == 1 else (k_idx + n_terms * np.arange(rows)[:, None]).ravel()
    out = np.empty(lead + (n_terms,), dtype=np.complex128)
    out.real = np.bincount(bins, prod.real.ravel(), rows * n_terms).reshape(out.shape)
    out.imag = np.bincount(bins, prod.imag.ravel(), rows * n_terms).reshape(out.shape)
    return out


def jet_mul(a, b, i_idx, j_idx, k_idx, n_terms):
    """Truncated Cauchy product via index tables, bincount-based."""
    return _scatter(np.take(a, i_idx, axis=-1) * np.take(b, j_idx, axis=-1), k_idx, n_terms)


def jet_div(a, b, i_idx, j_idx, k_idx, level_starts, level_k_starts, n_terms):
    """Order-by-order solve of b*c = a, requires b[..., 0] != 0.

    Table entries are the product triples with divisor index i > 0, sorted by
    total degree of the output index k; level_starts[d] points at the first
    entry of output degree d, level_k_starts[d] at the first term index of
    degree d.
    """
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    c = np.zeros(lead + (n_terms,), dtype=np.complex128)
    b0 = b[..., :1]
    c[..., :1] = a[..., :1] / b0
    n_levels = len(level_k_starts) - 1
    for d in range(1, n_levels):
        lo, hi = level_starts[d], level_starts[d + 1]
        klo, khi = level_k_starts[d], level_k_starts[d + 1]
        prod = np.take(b, i_idx[lo:hi], axis=-1) * np.take(c, j_idx[lo:hi], axis=-1)
        acc = _scatter(prod, k_idx[lo:hi] - klo, khi - klo)
        c[..., klo:khi] = (a[..., klo:khi] - acc) / b0
    return c
