"""Euclidean projection onto the probability simplex.

Sort-and-threshold algorithm; see Held, Wolfe & Crowder (Math. Prog. 1974)
and the vectorized form in Duchi et al. (ICML 2008). Cost is O(K log K)
per vector.
"""

import numpy as np


def project_simplex_columns(V):
    """Project every column of V (K x M) onto the simplex {w >= 0, sum w = 1}."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={V.ndim}")
    if not np.isfinite(V).all():
        raise ValueError("cannot project non-finite values")
    K = V.shape[0]
    if K < 1:
        raise ValueError("vectors must have at least one component")
    if K == 1:
        return np.ones_like(V)
    U = -np.sort(-V, axis=0)  # each column in descending order
    css = np.cumsum(U, axis=0) - 1.0
    ranks = np.arange(1, K + 1, dtype=np.float64)[:, None]
    # rho >= 1 always: the largest component satisfies u_1 > (u_1 - 1) / 1
    rho = np.count_nonzero(U * ranks > css, axis=0)
    theta = css[rho - 1, np.arange(V.shape[1])] / rho
    return np.maximum(V - theta[None, :], 0.0)


def project_simplex(v):
    """Project a single vector onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    return project_simplex_columns(v[:, None])[:, 0]
