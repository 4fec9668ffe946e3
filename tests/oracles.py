"""Brute-force reference implementations used only by the tests.

These are slow but transparently correct, so the fast library code can be
checked against them on small instances.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import scipy.optimize
import scipy.sparse as sparse

from topic_compose import PaddConfig, normalize_corpus, project_simplex_columns
from topic_compose.metrics import KL_EPS, METRIC_ORDER
from topic_compose.padd import _dr_block, _prox_inverse


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


def simplex_argsort_reference(V):
    """Column-wise simplex projection that orders each column with a stable
    argsort and gathers the values, the form the library used before it
    switched to a plain sort; kept to check the two agree bit-for-bit."""
    V = np.asarray(V, dtype=np.float64)
    K = V.shape[0]
    if K == 1:
        return np.ones_like(V)
    order = np.argsort(-V, axis=0, kind="stable")
    U = np.take_along_axis(V, order, axis=0)
    css = np.cumsum(U, axis=0) - 1.0
    ranks = np.arange(1, K + 1, dtype=np.float64)[:, None]
    rho = np.count_nonzero(U * ranks > css, axis=0)
    theta = css[rho - 1, np.arange(V.shape[1])] / rho
    return np.maximum(V - theta[None, :], 0.0)


def linf_left_inverse_oracle(B, k, feas_tol=1e-9):
    """Minimum-infinity-norm row of a left inverse, solved by enumerating
    vertices of the feasible polyhedron.

    Variables are z = (b, t) with t bounding |b_j|. All constraints are
    collected as rows a·z <= rhs; every vertex is the solution of some
    nonsingular (N+1)-subset of active rows, so enumerating subsets and
    checking feasibility finds the optimum. The K constraints B^T b = e_k
    are equalities, each kept as a pair of rows, and always active.
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
    for l in range(K):  # (B^T b)_l = target_l as <= and >= rows
        a = np.zeros(N + 1)
        a[:N] = B[:, l]
        rows.append(a)
        rhs.append(target[l])
        a = np.zeros(N + 1)
        a[:N] = -B[:, l]
        rhs.append(-target[l])
        rows.append(a)
    A = np.array(rows)
    r = np.array(rhs)
    always = [2 * N + 2 * l for l in range(K)]
    best_t, best_b = np.inf, None
    for combo in itertools.combinations(range(2 * N), N + 1 - K):
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


def linf_left_inverse_lp(B, k):
    """Minimum-infinity-norm row of a left inverse, solved as the direct LP
    over (b, t): minimize t subject to |b_j| <= t as 2N constraint rows
    plus the K equality rows B^T b = e_k. Reaches sizes vertex enumeration
    cannot. Uses HiGHS's interior-point method (with crossover): its dual
    simplex stops with status 4 on some near-anchor rows of this form.
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
    res = scipy.optimize.linprog(
        c, A_ub=bound_rows, b_ub=np.zeros(2 * N), A_eq=bias_rows, b_eq=target,
        bounds=(None, None), method="highs-ipm",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[N], res.x[:N]


def dense_charnes_cooper_row(B, k):
    """Row k of TLI's left inverse from the Charnes-Cooper program of
    `estimators._row_program` with a dense constraint matrix: every entry
    of [B^T, -e_k] goes to HiGHS, which itself drops those with
    |a| <= 1e-9. Same objective, bounds, right-hand side and options as the
    library, so its bytes are the library's as long as HiGHS drops exactly
    what the library does.
    """
    B = np.asarray(B, dtype=np.float64)
    N, K = B.shape
    A = np.hstack([B.T, np.zeros((K, 1))])
    A[k, N] = -1.0
    objective = np.zeros(N + 1)
    objective[N] = -1.0
    bounds = np.array([(-1.0, 1.0)] * N + [(0.0, np.inf)])
    res = scipy.optimize.linprog(objective, A_eq=A, b_eq=np.zeros(K), bounds=bounds,
                                 method="highs", options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[:N] / res.x[N]


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


def solve_one_document(Q, f, w0, q0=None, max_iters=PaddConfig.slave_iters,
                       tol=PaddConfig.slave_tol):
    """Minimize w^T Q w / 2 - f^T w over the simplex from w0 projected onto
    it and the auxiliary q0 (default: that projection) with PADD's own prox
    and Douglas-Rachford block on one column; a tol below 0 runs exactly
    max_iters iterations. Raises RuntimeError, as a master round does,
    unless Q is positive definite."""
    G, rho, _ = _prox_inverse(Q, "Q")
    order = np.arange(len(w0))[:, None]
    w = project_simplex_columns(w0[:, None], order=order)
    q = w.copy() if q0 is None else np.array(q0, dtype=np.float64)[:, None]
    w, _, _ = _dr_block(rho * G, G @ f[:, None], w, q, order, max_iters, tol)
    return w[:, 0]


def affine_minimizer(Q, F):
    """Each column's minimizer of w^T Q w / 2 - f^T w subject to sum w = 1,
    and its multiplier nu, from the bordered KKT system
    [[Q, 1], [1^T, 0]] [w; nu] = [f; 1], solved densely."""
    K = Q.shape[0]
    kkt = np.block([[Q, np.ones((K, 1))], [np.ones((1, K)), np.zeros((1, 1))]])
    F = np.asarray(F, dtype=np.float64).reshape(K, -1)
    sol = np.linalg.solve(kkt, np.vstack([F, np.ones((1, F.shape[1]))]))
    return sol[:K], sol[K]


def mean_reconstruction_loss(B, W, corpus):
    """Mean over documents of ||B w_m - h_m||^2, with h_m the document's
    word frequencies, formed densely one document at a time."""
    H = normalize_corpus(corpus).toarray()
    B = np.asarray(B, dtype=np.float64)
    return float(np.mean([np.sum((B @ W[:, m] - H[:, m]) ** 2)
                          for m in range(W.shape[1])]))


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


# ---------------------------------------------------------------------------
# single-document metrics: the definitions evaluate_compositions batches


def prominent_topics(w, mass=0.8):
    """Indices of the smallest prefix of topics, sorted by decreasing
    weight (ties broken by index), whose cumulative weight reaches `mass`.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("expected a nonempty vector")
    if not (0.0 < mass <= 1.0):
        raise ValueError(f"mass must lie in (0, 1], got {mass!r}")
    order = np.argsort(-w, kind="stable")
    csum = np.cumsum(w[order])
    # first index whose cumulative sum reaches the mass; rounding may keep
    # the total just under it, in which case all topics are prominent
    head = min(int(np.searchsorted(csum, mass, side="left")), w.size - 1)
    return set(int(k) for k in order[: head + 1])


def set_prf(truth, pred):
    """Precision, recall and F1 of a predicted topic set against the truth."""
    truth, pred = set(truth), set(pred)
    if not truth:
        raise ValueError("truth set must be nonempty")
    hits = len(truth & pred)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(truth)
    f1 = 0.0 if hits == 0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def l1_error(wt, wp):
    return float(np.abs(wt - wp).sum())


def linf_error(wt, wp):
    return float(np.abs(wt - wp).max())


def hellinger(wt, wp):
    bc = float(np.sqrt(wt * wp).sum())
    return math.sqrt(max(1.0 - bc, 0.0))


def kl_divergence(wt, wp):
    """KL(truth || smoothed prediction); zero-weight truth terms drop out."""
    K = wt.size
    q = (wp + KL_EPS) / (1.0 + K * KL_EPS)
    mask = wt > 0.0
    return float(np.sum(wt[mask] * np.log(wt[mask] / q[mask])))


def distribution_metrics(wt, wp):
    """(l1, linf, hellinger, kl) between a truth and a predicted composition."""
    wt = np.asarray(wt, dtype=np.float64)
    wp = np.asarray(wp, dtype=np.float64)
    return l1_error(wt, wp), linf_error(wt, wp), hellinger(wt, wp), kl_divergence(wt, wp)


def nonsupport_mass(wt, wp, mass=0.8):
    """Predicted weight landing outside the truth's prominent topic set."""
    keep = np.ones(wt.size, dtype=bool)
    keep[list(prominent_topics(wt, mass))] = False
    return float(wp[keep].sum())


def evaluate_loop_reference(Wt, Wp, prominent_mass=0.8):
    """Per-document metric arrays from a loop over the columns, calling the
    single-document metric functions; the form evaluate_compositions took
    before it was column-batched, kept to check the two agree bit-for-bit."""
    Wt = np.asarray(Wt, dtype=np.float64)
    Wp = np.asarray(Wp, dtype=np.float64)
    M = Wt.shape[1]
    per_doc = {name: np.empty(M) for name in METRIC_ORDER}
    for m in range(M):
        wt, wp = Wt[:, m], Wp[:, m]
        ts = prominent_topics(wt, prominent_mass)
        ps = prominent_topics(wp, prominent_mass)
        p, r, f = set_prf(ts, ps)
        per_doc["precision"][m] = p
        per_doc["recall"][m] = r
        per_doc["f1"][m] = f
        l1, linf, h, kl = distribution_metrics(wt, wp)
        per_doc["l1_error"][m] = l1
        per_doc["linf_error"][m] = linf
        per_doc["hellinger"][m] = h
        per_doc["kl"][m] = kl
        per_doc["nonsupp_mass"][m] = nonsupport_mass(wt, wp, prominent_mass)
    return per_doc


def savetxt_corpus_reference(path, corpus):
    """The corpus file as np.savetxt wrote it before the block writer."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{corpus.M}\t{corpus.N}\t{corpus.docs.size}\n")
        body = np.column_stack((corpus.docs + 1, corpus.words + 1, corpus.counts))
        np.savetxt(fh, body, fmt="%d", delimiter="\t")


def per_doc_format_reference(report, path):
    """per_doc.tsv as the row-by-row f-string writer produced it."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("doc\t" + "\t".join(METRIC_ORDER) + "\n")
        for m in range(report.M):
            vals = "\t".join(f"{report.per_doc[name][m]:.17g}" for name in METRIC_ORDER)
            fh.write(f"{m + 1}\t{vals}\n")


def normalize_corpus_reference(corpus):
    """Word frequencies per document by the general route: the COO count
    matrix converted to CSC, times the diagonal of inverse lengths."""
    H = sparse.csc_array(
        (corpus.counts.astype(np.float64), (corpus.words, corpus.docs)),
        shape=(corpus.N, corpus.M),
    )
    inv = sparse.dia_array(
        (1.0 / corpus.lengths.astype(np.float64)[None, :], [0]),
        shape=(corpus.M, corpus.M),
    )
    return (H @ inv).tocsc()
