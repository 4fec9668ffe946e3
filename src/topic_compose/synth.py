"""Corpus synthesis with retained ground-truth compositions.

Documents are generated independently: draw a composition from a prior
(Dirichlet, or logistic-normal for correlated topics), mix the topics'
word distributions, and sample a bag of words of the requested length.
Each document gets its own RNG stream derived from (seed, document index),
so output is reproducible and independent of the worker count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import CompositionMatrix, Corpus
from .parallel import map_chunks

EIG_CLAMP = -1e-10  # eigenvalues this far below zero mean a broken covariance

_DOC_CHUNK = 256
# Vocabulary size from which a second thread pays off. Each document is a
# few short NumPy calls that hold the GIL, plus one multinomial draw over N
# words that dominates only for large N; below that, threads mostly hand
# the GIL back and forth. Median seconds on 1 / 2 threads, 1,000 documents
# of mean length 150, K=25, 2-core x86-64: N=500 0.12 / 0.23, N=2,000
# 0.25 / 0.31, N=3,000 0.28-0.35 / 0.32-0.39, N=3,500 0.41 / 0.42,
# N=4,096 0.42-0.45 / 0.36-0.40, N=8,000 0.74 / 0.50, N=20,000 1.78 / 1.01.
_POOL_MIN_VOCAB = 4096


@dataclass(frozen=True)
class DirichletPrior:
    """Dirichlet over compositions with concentration vector alpha."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=np.float64).ravel()
        if a.size < 1 or not np.isfinite(a).all() or (a <= 0.0).any():
            raise ValueError("alpha must be a vector of positive finite values")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def K(self):
        return self.alpha.size

    @classmethod
    def symmetric(cls, K, mass=5.0):
        """Symmetric prior with total concentration `mass` split over K
        topics; small mass per topic gives sparse compositions."""
        return cls(np.full(K, mass / K))


@dataclass(frozen=True)
class LogisticNormalPrior:
    """Softmax of a Gaussian: compositions with correlated topics."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=np.float64).ravel()
        sigma = np.array(self.sigma, dtype=np.float64)
        if mu.size < 1 or not np.isfinite(mu).all():
            raise ValueError("mu must be a finite vector")
        if sigma.shape != (mu.size, mu.size) or not np.isfinite(sigma).all():
            raise ValueError(f"sigma must be a finite {mu.size}x{mu.size} matrix")
        if np.abs(sigma - sigma.T).max() > 1e-10:
            raise ValueError("sigma must be symmetric")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def K(self):
        return self.mu.size


@dataclass(frozen=True)
class FixedLength:
    """Every document has exactly n words."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("document length must be >= 1")


@dataclass(frozen=True)
class PoissonLength:
    """Lengths are 1 + Poisson(mean - 1), so the mean is as requested and
    no document is empty."""

    mean: float

    def __post_init__(self):
        if not (self.mean >= 1.0 and math.isfinite(self.mean)):
            raise ValueError(f"mean length must be >= 1, got {self.mean!r}")


@dataclass(frozen=True)
class SynthConfig:
    prior: object
    docs: int
    doc_length: object
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.prior, (DirichletPrior, LogisticNormalPrior)):
            raise ValueError(f"unsupported prior {type(self.prior).__name__}")
        if self.docs < 1:
            raise ValueError("need at least one document")
        if not isinstance(self.doc_length, (FixedLength, PoissonLength)):
            raise ValueError(f"unsupported length model {type(self.doc_length).__name__}")


@dataclass(frozen=True)
class SynthOutput:
    """Synthesized corpus plus its ground truth: the drawn compositions
    and their empirical topic-topic second moment."""

    corpus: Corpus
    Wstar: CompositionMatrix
    Astar: np.ndarray

    def __post_init__(self):
        A = np.array(self.Astar, dtype=np.float64)
        K = self.Wstar.K
        if A.shape != (K, K):
            raise ValueError(f"Astar has shape {A.shape}, expected ({K}, {K})")
        if np.abs(A - A.T).max() > 1e-10:
            raise ValueError("Astar must be symmetric")
        if abs(float(A.sum()) - 1.0) > 1e-8:
            raise ValueError(f"entries of Astar sum to {float(A.sum())!r}, expected 1")
        A.setflags(write=False)
        object.__setattr__(self, "Astar", A)


def sample_dirichlet(alpha, rng):
    """One draw from Dirichlet(alpha) via normalized Gamma variates."""
    a = np.asarray(alpha, dtype=np.float64)
    for _ in range(100):
        g = rng.standard_gamma(a)
        s = g.sum()
        if s > 0.0:
            return g / s
    # reachable only for tiny alpha where every variate underflows to 0
    raise RuntimeError(f"Dirichlet sampling underflowed for alpha={a!r}")


def _softmax(x):
    z = np.exp(x - x.max())
    return z / z.sum()


def _covariance_factor(sigma):
    """Matrix L with L L^T = sigma, by Cholesky when possible, otherwise
    by eigendecomposition with tiny negative eigenvalues clamped to 0."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(sigma)
    if vals.min() < EIG_CLAMP:
        raise ValueError(
            f"sigma is not positive semidefinite: smallest eigenvalue {vals.min():.3e}"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]


def sample_logistic_normal(mu, sigma, rng):
    """One draw: softmax(mu + L z) with z standard normal."""
    L = _covariance_factor(np.asarray(sigma, dtype=np.float64))
    z = rng.standard_normal(len(mu))
    return _softmax(np.asarray(mu, dtype=np.float64) + L @ z)


def sample_document(B, w, length, rng):
    """Sample a bag of `length` words from the mixture B @ w.

    Returns (word indices, counts) of the nonzero entries, indices
    ascending.
    """
    if length < 1:
        raise ValueError("document length must be >= 1")
    p = B @ w
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    counts = rng.multinomial(length, p)
    idx = np.nonzero(counts)[0]
    return idx, counts[idx]


def _doc_rng(seed, m):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))


def synthesize(model, config, threads=1):
    """Generate a corpus of config.docs documents from the model's topics
    and the configured composition prior.

    `threads` workers are used only when the vocabulary has at least
    _POOL_MIN_VOCAB words; smaller models are synthesized on the calling
    thread. The output is the same for any thread count."""
    K = model.K
    if config.prior.K != K:
        raise ValueError(f"prior is over {config.prior.K} topics, model has {K}")
    M = config.docs
    B = model.B
    W = np.empty((K, M))
    per_doc = [None] * M

    if isinstance(config.prior, LogisticNormalPrior):
        _covariance_factor(config.prior.sigma)  # fail fast on a bad covariance

    def run(span):
        for m in range(*span):
            rng = _doc_rng(config.seed, m)
            if isinstance(config.prior, DirichletPrior):
                w = sample_dirichlet(config.prior.alpha, rng)
            else:
                w = sample_logistic_normal(config.prior.mu, config.prior.sigma, rng)
            if isinstance(config.doc_length, FixedLength):
                n = config.doc_length.n
            else:
                n = 1 + int(rng.poisson(config.doc_length.mean - 1.0))
            idx, cnt = sample_document(B, w, n, rng)
            W[:, m] = w
            per_doc[m] = (idx, cnt)

    map_chunks(M, _DOC_CHUNK, run, threads if model.N >= _POOL_MIN_VOCAB else 1)

    docs = np.repeat(np.arange(M, dtype=np.int64), [idx.size for idx, _ in per_doc])
    words = np.concatenate([idx for idx, _ in per_doc])
    counts = np.concatenate([cnt for _, cnt in per_doc])
    corpus = Corpus(docs=docs, words=words, counts=counts, M=M, N=model.N)
    P = W @ W.T
    Astar = (P + P.T) / (2.0 * M)
    return SynthOutput(corpus=corpus, Wstar=CompositionMatrix(W), Astar=Astar)
