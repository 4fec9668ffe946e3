"""Euclidean projection onto the probability simplex.

Sort-and-threshold algorithm; see Held, Wolfe & Crowder (Math. Prog. 1974)
and the vectorized form in Duchi et al. (ICML 2008). Cost is O(K log K)
per vector, or O(K) for a column whose order is known from a previous
call on nearby values. Prefix sums take one NumPy call per row: cheap on
wide blocks, but at K=200 a single vector costs ~10x a cumsum.
"""

import numpy as np


def project_simplex_columns(V, order=None):
    """Project every column of V (K x M) onto the simplex {w >= 0, sum w = 1}.

    `order`, if given, is a K x M integer array of row indices (a view into
    a wider array is fine) that is read and then updated in place: each
    column is gathered in that order, and only the columns that do not come
    out strictly descending are sorted again and have their new order
    written back. A column with tied values, or whose indices repeat a row,
    is therefore always sorted again, so the result does not depend on
    `order`; an index outside -K..K-1 raises IndexError. Without `order`,
    every column is sorted.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={V.ndim}")
    if not np.isfinite(V).all():
        raise ValueError("cannot project non-finite values")
    K, M = V.shape
    if K < 1:
        raise ValueError("vectors must have at least one component")
    if order is None:
        order = np.zeros(V.shape, dtype=np.intp)  # repeats a row: every column is sorted
    elif order.shape != V.shape:
        raise ValueError(f"order has shape {order.shape}, expected {V.shape}")
    if K == 1:
        return np.ones_like(V)
    cols = np.arange(M)
    S = np.take(V, order[::-1] * M + cols)
    # strictly ascending values come from K distinct rows
    stale = (S[:-1] >= S[1:]).any(axis=0)
    if stale.any():
        stale = np.flatnonzero(stale)
        fresh = np.argsort(V[:, stale], axis=0)
        order[:, stale] = fresh[::-1]
        S[:, stale] = np.take(V, fresh * M + stale)
    # ties sort into either order with equal values, so S is the same
    # either way. css[k] sums S[k:] from the largest down, a row at a time
    # along contiguous memory: the same additions as a cumsum of the
    # descending columns, which walks each column.
    css = S.copy()
    prev = css[-1]
    for row in css[-2::-1]:
        np.add(prev, row, row)
        prev = row
    css -= 1.0
    S *= np.arange(K, 0, -1, dtype=np.float64)[:, None]  # rank from the top
    # rho >= 1 always: the largest component satisfies u_1 > (u_1 - 1) / 1;
    # counted in the narrowest type that holds K, which sums fastest
    rho = np.add.reduce(S > css, axis=0, dtype=np.min_scalar_type(K))
    theta = css[K - rho, cols] / rho
    out = V - theta
    return np.maximum(out, 0.0, out=out)
