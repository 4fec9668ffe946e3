"""Brute-force reference implementations used only by the tests.

These are slow but transparently correct, so the fast library code can be
checked against them on small instances.
"""

import itertools
from functools import lru_cache

import numpy as np
import scipy.optimize
import scipy.sparse as sparse


@lru_cache(maxsize=None)
def _support_masks(K):
    bits = np.arange(1, 2 ** K, dtype=np.int64)
    return ((bits[:, None] >> np.arange(K)[None, :]) & 1).astype(bool)


def simplex_qp_oracle(v):
    """Exact simplex projection by trying every support set.

    For each candidate support S, the equality-constrained minimizer is
    v_S shifted by a common constant to sum to 1; keep the feasible
    candidate closest to v.
    """
    v = np.asarray(v, dtype=np.float64)
    K = v.size
    masks = _support_masks(K)
    sizes = masks.sum(axis=1)
    shift = (masks @ v - 1.0) / sizes
    W = (v[None, :] - shift[:, None]) * masks
    feasible = ((W >= -1e-12) | ~masks).all(axis=1)
    W = np.where(masks, np.maximum(W, 0.0), 0.0)
    dist = ((W - v[None, :]) ** 2).sum(axis=1)
    dist[~feasible] = np.inf
    return W[int(np.argmin(dist))]


def linf_left_inverse_oracle(B, k, delta=0.0, feas_tol=1e-9):
    """Minimum-infinity-norm row of an approximate left inverse, solved by
    enumerating vertices of the feasible polyhedron.

    Variables are z = (b, t) with t bounding |b_j|. All constraints are
    collected as rows a·z <= rhs; every vertex is the solution of some
    nonsingular (N+1)-subset of active rows, so enumerating subsets and
    checking feasibility finds the optimum. With delta = 0 the K bias
    constraints are equalities and always active.
    """
    B = np.asarray(B, dtype=np.float64)
    N, K = B.shape
    rows, rhs = [], []
    for j in range(N):  # b_j - t <= 0 and -b_j - t <= 0
        a = np.zeros(N + 1)
        a[j], a[N] = 1.0, -1.0
        rows.append(a)
        rhs.append(0.0)
        a = np.zeros(N + 1)
        a[j], a[N] = -1.0, -1.0
        rows.append(a)
        rhs.append(0.0)
    target = np.zeros(K)
    target[k] = 1.0
    for l in range(K):  # (B^T b)_l <= target_l + delta and >= target_l - delta
        a = np.zeros(N + 1)
        a[:N] = B[:, l]
        rows.append(a)
        rhs.append(target[l] + delta)
        a = np.zeros(N + 1)
        a[:N] = -B[:, l]
        rhs.append(delta - target[l])
        rows.append(a)
    A = np.array(rows)
    r = np.array(rhs)
    if delta == 0.0:
        always = [2 * N + 2 * l for l in range(K)]
        pool = range(2 * N)
        pick = N + 1 - K
    else:
        always = []
        pool = range(len(rows))
        pick = N + 1
    best_t, best_b = np.inf, None
    for combo in itertools.combinations(pool, pick):
        active = always + list(combo)
        try:
            z = np.linalg.solve(A[active], r[active])
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(z).all():
            continue
        if (A @ z - r > feas_tol).any():
            continue
        if z[N] < best_t:
            best_t, best_b = z[N], z[:N]
    if best_b is None:
        raise RuntimeError("oracle found no feasible vertex")
    return best_t, best_b


def linf_left_inverse_lp(B, k, delta=0.0):
    """Minimum-infinity-norm row of an approximate left inverse, solved as
    the direct LP over (b, t): minimize t subject to |b_j| <= t as 2N
    constraint rows plus the K bias rows (equalities when delta = 0, else
    2K inequalities). Reaches sizes vertex enumeration cannot. Uses HiGHS's
    interior-point method (with crossover): its dual simplex stops with
    status 4 on some near-anchor rows of this form.
    """
    B = np.asarray(B, dtype=np.float64)
    N, K = B.shape
    c = np.zeros(N + 1)
    c[N] = 1.0
    eye = sparse.eye_array(N, format="csr")
    ones = np.ones((N, 1))
    bound_rows = sparse.block_array([[eye, -ones], [-eye, -ones]], format="csr")
    target = np.zeros(K)
    target[k] = 1.0
    bias_rows = sparse.hstack([sparse.csr_array(B.T), sparse.csr_array((K, 1))], format="csr")
    if delta == 0.0:
        res = scipy.optimize.linprog(
            c, A_ub=bound_rows, b_ub=np.zeros(2 * N), A_eq=bias_rows, b_eq=target,
            bounds=(None, None), method="highs-ipm",
        )
    else:
        A_ub = sparse.vstack([bound_rows, bias_rows, -bias_rows], format="csr")
        b_ub = np.concatenate([np.zeros(2 * N), target + delta, delta - target])
        res = scipy.optimize.linprog(
            c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs-ipm"
        )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[N], res.x[:N]


def grid_min_quadratic(B, h, step):
    """Minimize ||B w - h||^2 over the simplex by exhaustive grid search.

    Supports K = 2 (line grid) and K = 3 (triangle grid). Returns the best
    grid point.
    """
    B = np.asarray(B, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    K = B.shape[1]
    if K == 2:
        x = np.arange(0.0, 1.0 + step / 2, step)
        W = np.vstack([x, 1.0 - x])
    elif K == 3:
        pts = []
        x = np.arange(0.0, 1.0 + step / 2, step)
        for w1 in x:
            for w2 in np.arange(0.0, 1.0 - w1 + step / 2, step):
                pts.append((w1, w2, 1.0 - w1 - w2))
        W = np.array(pts).T
    else:
        raise ValueError("grid oracle supports K = 2 or 3 only")
    obj = ((B @ W - h[:, None]) ** 2).sum(axis=0)
    j = int(np.argmin(obj))
    return W[:, j], float(obj[j])


def prominent_prefix_oracle(w, mass):
    """Smallest prefix of the (value desc, index asc) ordering reaching
    the mass, found by testing every prefix length."""
    w = np.asarray(w, dtype=np.float64)
    order = sorted(range(w.size), key=lambda i: (-w[i], i))
    for length in range(1, w.size + 1):
        if w[order[:length]].sum() >= mass:
            return set(order[:length])
    return set(order)


def dirichlet_second_moment(alpha):
    """E[w w^T] for w ~ Dir(alpha): diagonal a_k(a_k+1)/(s(s+1)),
    off-diagonal a_k a_l/(s(s+1))."""
    a = np.asarray(alpha, dtype=np.float64)
    s = a.sum()
    moment = np.outer(a, a)
    np.fill_diagonal(moment, a * (a + 1.0))
    return moment / (s * (s + 1.0))


def kl_reference(p, q, eps=1e-10):
    """Direct loop implementation of the smoothed KL divergence."""
    K = len(p)
    total = 0.0
    for pk, qk in zip(p, q):
        if pk > 0.0:
            total += pk * np.log(pk / ((qk + eps) / (1.0 + K * eps)))
    return total
