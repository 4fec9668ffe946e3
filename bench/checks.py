"""The benchmark's own scoring and output checks.

Scores are computed here, column-batched, rather than by
`topic_compose.metrics`, so the yardstick does not move with the code it
measures. The definitions follow the package's: a composition's prominent
topics are the smallest head of its stably sorted weights reaching 80% of
the mass, and F1 compares the truth's and the prediction's sets.
"""

import numpy as np

PROMINENT_MASS = 0.8
SUM_TOL = 1e-6  # column-sum tolerance of a valid composition matrix
# Reported when no batch could be scored: worse than any composition
# matrix can score (l1 is at most 2, and so is the distance between two
# joint distributions).
UNSCORED = {"f1": 0.0, "l1": 2.0, "prior_dist": 2.0}


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_composition(comp, cls, K, M):
    """A valid CompositionMatrix: the right type and shape, finite,
    nonnegative, every column summing to one."""
    require(isinstance(comp, cls), f"output is {type(comp).__name__}, not {cls.__name__}")
    W = comp.W
    require(W.shape == (K, M), f"output shape {W.shape} != {(K, M)}")
    require(bool(np.isfinite(W).all()), "output has non-finite entries")
    require(float(W.min()) >= 0.0, f"output has a negative entry {float(W.min())!r}")
    err = float(np.abs(W.sum(axis=0) - 1.0).max())
    require(err <= SUM_TOL, f"an output column sums to 1 {err:+.3e}")


def prominent_mask(W, mass=PROMINENT_MASS):
    """Boolean K x M mask of each column's prominent topics."""
    K = W.shape[0]
    order = np.argsort(-W, axis=0, kind="stable")
    csum = np.cumsum(np.take_along_axis(W, order, axis=0), axis=0)
    head = np.minimum((csum < mass).sum(axis=0), K - 1)
    mask = np.zeros(W.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(K)[:, None] <= head[None, :], axis=0)
    return mask


def f1_per_doc(Wt, Wp):
    truth, pred = prominent_mask(Wt), prominent_mask(Wp)
    hits = (truth & pred).sum(axis=0)
    precision = hits / pred.sum(axis=0)
    recall = hits / truth.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = 2.0 * precision * recall / (precision + recall)
    return np.where(hits > 0, f1, 0.0)


def l1_per_doc(Wt, Wp):
    return np.abs(Wt - Wp).sum(axis=0)


def prior_dist(A, W):
    """Frobenius distance from A to the second moment of W's columns."""
    return float(np.linalg.norm(A - (W @ W.T) / W.shape[1]))
