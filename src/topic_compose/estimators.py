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
from typing import ClassVar

import numpy as np
import scipy.optimize
import scipy.sparse

from .model import CompositionMatrix, freeze_fields, normalize_corpus, word_topic_posterior
from .parallel import map_chunks

BIAS_TOL = 1e-6  # the largest bias, and the largest rounding error, a row may carry
# HiGHS's `small_matrix_value` default: it drops every matrix entry with |a| <= this
SMALL_MATRIX_VALUE = 1e-9


@dataclass(frozen=True)
class TliConfig:
    """Settings for the thresholded left-inverse estimator: it has none.

    The class constant is not a setting: threshold_divisor scales down the
    worst-case noise level to reach a usable threshold. `tli_compute_inverse`
    and `tli_infer` accept a TliConfig without reading it, because
    bench/workloads.py passes one.
    """

    threshold_divisor: ClassVar[float] = 4.5


@dataclass(frozen=True, eq=False)
class TliInverse:
    """Left inverse of B with its magnitude bound.

    Bdagger is K x N with Bdagger @ B = I up to rounding; bias is the
    largest entry of |Bdagger @ B - I| actually achieved (nan when the
    inverse was built by hand); magnitude, derived from Bdagger, is its
    largest absolute entry, which controls how much a finite-sample
    frequency error can be amplified.
    """

    Bdagger: np.ndarray
    bias: float = math.nan
    magnitude: float = field(init=False)

    def __post_init__(self):
        Bd = np.array(self.Bdagger, dtype=np.float64, order="C")
        if Bd.ndim != 2:
            raise ValueError("Bdagger must be a matrix")
        if not np.isfinite(Bd).all():
            raise ValueError("Bdagger contains non-finite entries")
        freeze_fields(self, Bdagger=Bd)
        object.__setattr__(self, "magnitude", float(np.abs(Bd).max()))


def spi_infer(model, corpus):
    """Posterior composition estimate: average the word-topic posterior
    over each document's observed words."""
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    return CompositionMatrix(word_topic_posterior(model) @ normalize_corpus(corpus))


def _row_program(B, kept, bounds, k):
    """Smallest-magnitude row b with B^T b = e_k.

    Solves "minimize max|b_j|" in its Charnes-Cooper rescaling b = c/s:
    maximize s over -1 <= c_j <= 1 and s >= 0 (variable bounds, not
    constraint rows), subject to the K rows B^T c - s e_k = 0. The optimal
    s is 1 / max|b_j|. `kept` is B^T holding only the entries HiGHS keeps;
    it is shared by all rows of one inverse, and each row appends its own
    s column, a -1 at row k. HiGHS runs without presolve, which on these
    K-row programs only adds time and memory. Only the magnitude is
    unique: near-anchor B has many optimal vertices, and which one comes
    back is up to the solver.
    """
    N, K = B.shape
    # kept's N columns, then the s column as column N
    A = scipy.sparse.csc_array(
        (np.append(kept.data, -1.0), np.append(kept.indices, k),
         np.append(kept.indptr, kept.nnz + 1)),
        shape=(K, N + 1),
    )
    objective = np.zeros(N + 1)
    objective[N] = -1.0
    res = scipy.optimize.linprog(objective, A_eq=A, b_eq=np.zeros(K), bounds=bounds,
                                 method="highs", options={"presolve": False})
    s = res.x[N] if res.status == 0 else math.nan
    # a singular B leaves s = 0 as the only feasible scale, and HiGHS calls that optimal
    if not (s > 0.0 and np.isfinite(res.x).all()):
        smin = float(np.linalg.svd(B, compute_uv=False)[-1])
        raise RuntimeError(
            f"left-inverse program for topic {k} found no scale s > 0 (s = {s:.3g}, "
            f"status {res.status}: {res.message}); smallest singular value of B is {smin:.3e}"
        )
    return res.x[:N] / s


def tli_compute_inverse(model, config=None, threads=1):
    """Minimum-infinity-norm left inverse of the model's B.

    Each row is one bounded linear program (see `_row_program`); rows are
    independent, so they are farmed out to the worker pool. Every row's
    magnitude is the optimum, but which optimal row comes back is up to
    the solver. The achieved bias max|Bdagger B - I| must be within
    BIAS_TOL, and it must be certified: B's columns sum to 1, so row k
    of Bdagger B carries rounding error of at most about N eps max|b_k|,
    and a row whose bound exceeds BIAS_TOL (a magnitude above BIAS_TOL /
    (N eps), 9.0e6 at N = 500; only a near-singular B needs one) raises
    RuntimeError naming the topic, the magnitude and B's smallest singular
    value. Both certificates use the full B, not the entries HiGHS keeps.
    `config` is not read (see TliConfig).
    """
    B = model.B
    N, K = B.shape
    kept = scipy.sparse.csc_array(np.where(np.abs(B.T) > SMALL_MATRIX_VALUE, B.T, 0.0))
    bounds = np.array([(-1.0, 1.0)] * N + [(0.0, np.inf)])
    Bd = np.empty((K, N))

    def solve_rows(span):
        for k in range(*span):
            Bd[k] = _row_program(B, kept, bounds, k)

    map_chunks(K, 1, solve_rows, threads)
    magnitudes = np.abs(Bd).max(axis=1)
    k = int(magnitudes.argmax())
    rounding = N * np.finfo(np.float64).eps * magnitudes[k]
    if rounding > BIAS_TOL:
        smin = float(np.linalg.svd(B, compute_uv=False)[-1])
        raise RuntimeError(
            f"left-inverse row for topic {k} has magnitude {magnitudes[k]:.3g}, so rounding "
            f"({rounding:.3g}) hides its bias at tolerance {BIAS_TOL:g}; "
            f"smallest singular value of B is {smin:.3e}"
        )
    residual = np.abs(Bd @ B - np.eye(K))
    bias = float(residual.max())
    if bias > BIAS_TOL:
        k = int(residual.max(axis=1).argmax())
        raise RuntimeError(
            f"left inverse has bias {bias:.9g} on topic {k}, above {BIAS_TOL:g}; "
            "B is too ill-conditioned"
        )
    return TliInverse(Bdagger=Bd, bias=bias)


def tli_thresholds(inverse, lengths):
    """Per-document threshold below which estimated weights are considered
    noise: a two-sigma-style bound on the worst-case frequency deviation,
    amplified by the inverse magnitude, scaled down by
    TliConfig.threshold_divisor."""
    K = inverse.Bdagger.shape[0]
    n = np.asarray(lengths, dtype=np.float64)
    raw = 2.0 * inverse.magnitude * np.sqrt(math.log(K) / n)
    return raw / TliConfig.threshold_divisor


def tli_infer(inverse, model, corpus, config=None):
    """Apply the left inverse to document frequencies, zero entries below
    the per-document threshold, and renormalize.

    Documents whose entries are all thresholded away fall back to the
    uniform composition. `config` is not read (see TliConfig).
    """
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    if inverse.Bdagger.shape != (model.K, model.N):
        raise ValueError(
            f"inverse has shape {inverse.Bdagger.shape}, expected ({model.K}, {model.N})"
        )
    raw = inverse.Bdagger @ normalize_corpus(corpus)
    if not np.isfinite(raw).all():
        raise RuntimeError("left-inverse estimate produced non-finite entries")
    # in place, keeping raw's F order, so each column sums in the same order
    np.copyto(raw, 0.0, where=raw < tli_thresholds(inverse, corpus.lengths))
    sums = raw.sum(axis=0)
    kept = sums > 0.0
    np.divide(raw, sums, out=raw, where=kept)
    raw[:, ~kept] = 1.0 / model.K
    return CompositionMatrix(raw)
