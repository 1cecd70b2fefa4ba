"""Hot kernels for jet (truncated multivariate Taylor) arithmetic.

The product kernel serves the coefficient functions of the operator trees
(multiplying by a coordinate needs no product), the division kernel their
quotients. Both gather operand pairs through the precomputed index tables of a
JetSpace and scatter-add them with bincount.
"""

from __future__ import annotations

import numpy as np


def jet_mul(a, b, i_idx, j_idx, k_idx, n_terms):
    """Truncated Cauchy product via index tables, bincount-based."""
    prod = a[i_idx] * b[j_idx]
    out = np.empty(n_terms, dtype=np.complex128)
    out.real = np.bincount(k_idx, weights=prod.real, minlength=n_terms)
    out.imag = np.bincount(k_idx, weights=prod.imag, minlength=n_terms)
    return out


def jet_div(a, b, i_idx, j_idx, k_idx, level_starts, level_k_starts, n_terms):
    """Order-by-order solve of b*c = a, requires b[0] != 0.

    Table entries are the product triples with divisor index i > 0, sorted by
    total degree of the output index k; level_starts[d] points at the first
    entry of output degree d, level_k_starts[d] at the first term index of
    degree d.
    """
    c = np.zeros(n_terms, dtype=np.complex128)
    b0 = b[0]
    c[0] = a[0] / b0
    n_levels = len(level_k_starts) - 1
    for d in range(1, n_levels):
        lo, hi = level_starts[d], level_starts[d + 1]
        klo, khi = level_k_starts[d], level_k_starts[d + 1]
        acc = np.zeros(khi - klo, dtype=np.complex128)
        if hi > lo:
            prod = b[i_idx[lo:hi]] * c[j_idx[lo:hi]]
            acc.real = np.bincount(k_idx[lo:hi] - klo, weights=prod.real, minlength=khi - klo)
            acc.imag = np.bincount(k_idx[lo:hi] - klo, weights=prod.imag, minlength=khi - klo)
        c[klo:khi] = (a[klo:khi] - acc) / b0
    return c
