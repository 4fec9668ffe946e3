"""Single-pass linear estimators of document topic compositions.

Two estimators share the pattern `W = T @ Htilde` for a K x N matrix T:

* the posterior estimator applies the word-topic posterior, so every
  output column is automatically a distribution;
* the left-inverse estimator applies a minimum-infinity-norm approximate
  left inverse of B, then thresholds small entries at a level calibrated
  to the document length before renormalizing.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .model import CompositionMatrix, normalize_corpus, word_topic_posterior
from .parallel import map_chunks


@dataclass(frozen=True)
class TliConfig:
    """Settings for the thresholded left-inverse estimator.

    delta bounds the worst-case bias |B_dagger B - I| allowed when
    minimizing the inverse's magnitude; threshold_divisor scales down the
    worst-case noise level to reach a usable threshold.
    """

    delta: float = 0.0
    threshold_divisor: float = 4.5

    def __post_init__(self):
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")
        if not (self.threshold_divisor > 0.0 and math.isfinite(self.threshold_divisor)):
            raise ValueError(f"threshold_divisor must be > 0, got {self.threshold_divisor!r}")


@dataclass(frozen=True, eq=False)
class TliInverse:
    """Approximate left inverse of B with its magnitude bound.

    Bdagger is K x N with |Bdagger @ B - I| <= delta entrywise; bias is
    the largest entry of |Bdagger @ B - I| actually achieved (nan when the
    inverse was built by hand); magnitude, derived from Bdagger, is its
    largest absolute entry, which controls how much a finite-sample
    frequency error can be amplified.
    """

    Bdagger: np.ndarray
    delta: float
    bias: float = math.nan
    magnitude: float = field(init=False)

    def __post_init__(self):
        Bd = np.array(self.Bdagger, dtype=np.float64, order="C")
        if Bd.ndim != 2:
            raise ValueError("Bdagger must be a matrix")
        if not np.isfinite(Bd).all():
            raise ValueError("Bdagger contains non-finite entries")
        Bd.setflags(write=False)
        object.__setattr__(self, "Bdagger", Bd)
        object.__setattr__(self, "magnitude", float(np.abs(Bd).max()))


def spi_infer(model, corpus):
    """Posterior composition estimate: average the word-topic posterior
    over each document's observed words."""
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    return CompositionMatrix(word_topic_posterior(model) @ normalize_corpus(corpus))


def _row_program(rows, bounds, k, delta):
    """Smallest-magnitude row b with (B^T b)_l within delta of 1{l == k}.

    Solves "minimize max|b_j|" in its Charnes-Cooper rescaling b = c/s:
    maximize s over -1 <= c_j <= 1 and s >= 0 (variable bounds, not
    constraint rows), subject to the K rows B^T c - s e_k = 0 when
    delta = 0, or the 2K rows +-(B^T c - s e_k) <= delta s otherwise. The
    optimal s is 1 / max|b_j|. `rows` is [B^T, 0] or
    [[B^T, -delta], [-B^T, -delta]], shared by all rows of one inverse;
    the e_k terms go into a copy. Only the magnitude is unique: near-anchor
    B has many optimal vertices, and which one comes back is up to the
    solver.
    """
    K = rows.shape[0] if delta == 0.0 else rows.shape[0] // 2
    N = rows.shape[1] - 1
    A = rows.copy()
    A[k, N] -= 1.0
    objective = np.zeros(N + 1)
    objective[N] = -1.0
    if delta == 0.0:
        res = scipy.optimize.linprog(
            objective, A_eq=A, b_eq=np.zeros(K), bounds=bounds, method="highs"
        )
    else:
        A[K + k, N] += 1.0
        res = scipy.optimize.linprog(
            objective, A_ub=A, b_ub=np.zeros(2 * K), bounds=bounds, method="highs"
        )
    s = res.x[N] if res.status == 0 else math.nan
    # a singular B leaves s = 0 as the only feasible scale, and HiGHS calls that optimal
    if not (s > 0.0 and np.isfinite(res.x).all()):
        smin = float(np.linalg.svd(rows[:K, :N], compute_uv=False)[-1])
        raise RuntimeError(
            f"left-inverse program for topic {k} found no scale s > 0 (s = {s:.3g}, "
            f"status {res.status}: {res.message}); smallest singular value of B is {smin:.3e}"
        )
    return res.x[:N] / s


def tli_compute_inverse(model, config=None, threads=1):
    """Minimum-infinity-norm approximate left inverse of the model's B.

    Each row is one bounded linear program (see `_row_program`); rows are
    independent, so they are farmed out to the worker pool. Every row's
    magnitude is the optimum, but which optimal row comes back is up to
    the solver. The achieved bias max|Bdagger B - I| must be within delta
    (to 1e-6).
    """
    config = config or TliConfig()
    B = model.B
    N, K = B.shape
    delta = config.delta
    if delta >= 1.0:
        # b = 0 already meets the bias budget (and the rescaled program is unbounded)
        Bd = np.zeros((K, N))
    else:
        slack = np.full((K, 1), -delta)
        rows = np.hstack([B.T, slack]) if delta == 0.0 else np.block([[B.T, slack], [-B.T, slack]])
        bounds = np.array([(-1.0, 1.0)] * N + [(0.0, np.inf)])
        Bd = np.empty((K, N))

        def solve_rows(span):
            for k in range(*span):
                Bd[k] = _row_program(rows, bounds, k, delta)

        map_chunks(K, 1, solve_rows, threads)
    residual = np.abs(Bd @ B - np.eye(K))
    bias = float(residual.max())
    if bias > delta + 1e-6:
        k = int(residual.max(axis=1).argmax())
        raise RuntimeError(
            f"left inverse has bias {bias:.9g} on topic {k}, "
            f"above delta={delta} + 1e-6; B is too ill-conditioned"
        )
    return TliInverse(Bdagger=Bd, delta=delta, bias=bias)


def tli_thresholds(inverse, lengths, config=None):
    """Per-document threshold below which estimated weights are considered
    noise: a two-sigma-style bound on the worst-case frequency deviation,
    amplified by the inverse magnitude, plus the bias allowance, scaled
    down by the configured divisor."""
    config = config or TliConfig()
    K = inverse.Bdagger.shape[0]
    n = np.asarray(lengths, dtype=np.float64)
    raw = 2.0 * inverse.magnitude * np.sqrt(math.log(K) / n) + inverse.delta
    return raw / config.threshold_divisor


def tli_infer(inverse, model, corpus, config=None):
    """Apply the left inverse to document frequencies, zero entries below
    the per-document threshold, and renormalize.

    Documents whose entries are all thresholded away fall back to the
    uniform composition.
    """
    config = config or TliConfig()
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    if inverse.Bdagger.shape != (model.K, model.N):
        raise ValueError(
            f"inverse has shape {inverse.Bdagger.shape}, expected ({model.K}, {model.N})"
        )
    raw = inverse.Bdagger @ normalize_corpus(corpus)
    if not np.isfinite(raw).all():
        raise RuntimeError("left-inverse estimate produced non-finite entries")
    tau = tli_thresholds(inverse, corpus.lengths, config)
    W = np.where(raw < tau[None, :], 0.0, raw)
    sums = W.sum(axis=0)
    kept = sums > 0.0
    W[:, kept] /= sums[kept]
    W[:, ~kept] = 1.0 / model.K
    return CompositionMatrix(W)
