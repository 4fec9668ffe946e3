"""Quality metrics for inferred topic compositions.

Support metrics compare "prominent" topic sets (the smallest head of the
sorted composition covering PROMINENT_MASS); distance metrics compare
the full distributions; corpus-level metrics check consistency with the
prior's second moment.
"""

from dataclasses import dataclass

import numpy as np

from .model import CompositionMatrix, write_rows

KL_EPS = 1e-10  # smoothing applied to predictions so KL stays finite
PROMINENT_MASS = 0.8  # weight a document's prominent topics cover

METRIC_ORDER = (
    "precision",
    "recall",
    "f1",
    "l1_error",
    "linf_error",
    "hellinger",
    "kl",
    "nonsupp_mass",
)


def prior_distance(A0, comp):
    """Frobenius distance between the prior second moment A0 and the
    empirical second moment of the CompositionMatrix `comp`."""
    W = comp.W
    K = W.shape[0]
    A0 = np.asarray(A0, dtype=np.float64)
    if A0.shape != (K, K) or not np.isfinite(A0).all():
        got = f"shape {A0.shape}" if A0.shape != (K, K) else "a non-finite entry"
        raise ValueError(f"prior must be a finite {K}x{K} matrix, got {got}")
    return float(np.linalg.norm(A0 - (W @ W.T) / W.shape[1]))


def random_baseline(K, M, seed):
    """Compositions drawn uniformly from the simplex; the floor any real
    estimator should beat."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(K), size=M).T
    return CompositionMatrix(W)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-document metric arrays keyed by METRIC_ORDER, plus corpus-level numbers."""

    per_doc: dict
    prior_dist: object  # float, or None when no prior was supplied

    @property
    def M(self):
        return len(self.per_doc["precision"])

    def mean(self, name):
        return float(self.per_doc[name].mean())

    def std(self, name):
        return float(self.per_doc[name].std())


def _prominent_masks(X, mass):
    """Boolean (M, K) mask of each row's prominent topics (the smallest
    head of the row sorted by decreasing weight, ties broken by index,
    whose cumulative weight reaches `mass`), for the rows of X."""
    K = X.shape[1]
    order = np.argsort(-X, axis=1, kind="stable")
    csum = np.cumsum(np.take_along_axis(X, order, axis=1), axis=1)
    head = np.minimum(np.count_nonzero(csum < mass, axis=1), K - 1)
    mask = np.empty(X.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(K)[None, :] <= head[:, None], axis=1)
    return mask


def _masked_row_sums(X, mask):
    """Per-row sums of X over the entries where mask holds, each summed as
    the compressed 1-D array `X[m][mask[m]]` would be: rows are grouped by
    their count of entries so every row is reduced in the same order."""
    sums = np.zeros(X.shape[0])
    n = np.count_nonzero(mask, axis=1)
    for size in np.unique(n[n > 0]):
        rows = np.flatnonzero(n == size)
        sums[rows] = X[rows][mask[rows]].reshape(rows.size, size).sum(axis=1)
    return sums


def evaluate_compositions(truth, pred, prior=None):
    """Compare predicted compositions against the truth, column by column.

    Every metric is computed for all documents at once, on the (M, K)
    transposes. Any two compositions of one shape are accepted, so a
    metric may leave its nominal range ([0, 1], [0, 2] for l1_error, at
    least 0 for kl) by up to twice model.COMP_SUM_TOL, the amount an
    input's column sums may differ from 1.

    `prior`, if given, is the target second moment used for the
    corpus-level prior_dist number.
    """
    Wt, Wp = truth.W, pred.W
    if Wt.shape != Wp.shape:
        raise ValueError(f"truth is {Wt.shape}, prediction is {Wp.shape}")
    K = Wt.shape[0]
    T, P = np.ascontiguousarray(Wt.T), np.ascontiguousarray(Wp.T)
    ts, ps = _prominent_masks(T, PROMINENT_MASS), _prominent_masks(P, PROMINENT_MASS)
    hits = np.count_nonzero(ts & ps, axis=1)
    precision = hits / np.count_nonzero(ps, axis=1)
    recall = hits / np.count_nonzero(ts, axis=1)
    f1 = np.zeros(hits.size)
    np.divide(2.0 * precision * recall, precision + recall, out=f1, where=hits > 0)
    D = np.abs(T - P)
    bc = np.sqrt(T * P).sum(axis=1)
    Q = (P + KL_EPS) / (1.0 + K * KL_EPS)
    support = T > 0.0
    terms = np.zeros(T.shape)
    terms[support] = T[support] * np.log(T[support] / Q[support])
    per_doc = {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "l1_error": D.sum(axis=1),
        "linf_error": D.max(axis=1),
        "hellinger": np.sqrt(np.maximum(1.0 - bc, 0.0)),
        "kl": _masked_row_sums(terms, support),
        "nonsupp_mass": _masked_row_sums(P, ~ts),
    }
    prior_dist = None if prior is None else prior_distance(prior, pred)
    return EvalReport(per_doc=per_doc, prior_dist=prior_dist)


def write_report_tsv(report, path):
    """Corpus-level summary: metric, mean, std rows in METRIC_ORDER, then
    prior_dist (std column 0) when a prior was supplied."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("metric\tmean\tstd\n")
        for name in METRIC_ORDER:
            fh.write(f"{name}\t{report.mean(name):.17g}\t{report.std(name):.17g}\n")
        if report.prior_dist is not None:
            fh.write(f"prior_dist\t{float(report.prior_dist):.17g}\t0\n")


def write_per_doc_tsv(report, path):
    """One row per document with every metric column, in corpus order."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("doc\t" + "\t".join(METRIC_ORDER) + "\n")
        write_rows(fh, "%d" + "\t%.17g" * len(METRIC_ORDER) + "\n",
                   np.arange(1, report.M + 1), *(report.per_doc[n] for n in METRIC_ORDER))
