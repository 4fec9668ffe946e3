"""Corpus synthesis with retained ground-truth compositions.

Each document draws a composition from a prior (Dirichlet, or logistic-
normal for correlated topics), mixes the topics' word distributions, and
samples a bag of words. Documents come in fixed chunks of _DOC_CHUNK, and
chunk c has one RNG stream, from (seed, c), that draws all the chunk's
compositions with the prior's `draw(rows, rng)`, then their lengths with the
length model's `draw(rows, rng)`, then the kept documents' bags in order.
So output is reproducible, the same for any worker count, and prefix-stable
(fewer documents give the start of the longer corpus); the chunk size is
part of the streams' definition.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import SYM_TOL, CompositionMatrix, Corpus, freeze_fields
from .parallel import map_chunks

EIG_CLAMP = -1e-10  # eigenvalues this far below zero mean a broken covariance

_DOC_CHUNK = 256
_BLOCK_ENTRIES = 1 << 12  # documents x words per multinomial draw: bounds RSS, not the stream
_MAX_LENGTH = 2**31 - 1  # word counts are held as int32


@dataclass(frozen=True, eq=False)
class DirichletPrior:
    """Dirichlet over compositions with concentration vector alpha."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=np.float64).ravel()
        if a.size < 1 or not np.isfinite(a).all() or (a <= 0.0).any():
            raise ValueError("alpha must be a vector of positive finite values")
        freeze_fields(self, alpha=a)

    @property
    def K(self):
        return self.alpha.size

    @classmethod
    def symmetric(cls, K, mass):
        """Symmetric prior with total concentration `mass` split over K
        topics; small mass per topic gives sparse compositions. K < 1
        gives an empty alpha, which raises ValueError."""
        if not (mass > 0.0 and np.isfinite(mass)):
            raise ValueError(f"total concentration must be positive and finite, got {mass!r}")
        return cls(np.full(K, mass) / K)  # the bytes of np.full(K, mass / K)

    def draw(self, rows, rng):
        """`rows` compositions, one per row, via normalized Gamma variates.
        A row whose variates all underflow to 0 is redrawn."""
        g, redraw = np.empty((rows, self.K)), slice(None)
        for _ in range(100):
            g[redraw] = rng.standard_gamma(self.alpha, size=g[redraw].shape)
            s = g.sum(axis=1, keepdims=True)
            if s.all():
                return g / s
            redraw = np.flatnonzero(s == 0.0)
        # reachable only for tiny alpha where every variate underflows to 0
        raise RuntimeError(f"Dirichlet sampling underflowed for alpha={self.alpha!r}")


@dataclass(frozen=True, eq=False)
class LogisticNormalPrior:
    """Softmax of a Gaussian: compositions with correlated topics. `factor`
    is L with L L^T = sigma, by Cholesky when possible, otherwise by
    eigendecomposition with tiny negative eigenvalues clamped to 0."""

    mu: np.ndarray
    sigma: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=np.float64).ravel()
        sigma = np.array(self.sigma, dtype=np.float64)
        if mu.size < 1 or not np.isfinite(mu).all():
            raise ValueError("mu must be a finite vector")
        if sigma.shape != (mu.size, mu.size) or not np.isfinite(sigma).all():
            raise ValueError(f"sigma must be a finite {mu.size}x{mu.size} matrix")
        if np.abs(sigma - sigma.T).max() > SYM_TOL:
            raise ValueError("sigma must be symmetric")
        try:
            L = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(sigma)
            if vals.min() < EIG_CLAMP:
                raise ValueError(
                    f"sigma is not positive semidefinite: smallest eigenvalue {vals.min():.3e}"
                ) from None
            L = vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]
        freeze_fields(self, mu=mu, sigma=sigma, factor=L)

    @property
    def K(self):
        return self.mu.size

    def draw(self, rows, rng):
        """`rows` compositions softmax(mu + L z) with z standard normal, one per row."""
        x = self.mu + rng.standard_normal((rows, self.K)) @ self.factor.T
        z = np.exp(x - x.max(axis=1, keepdims=True))
        return z / z.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class FixedLength:
    """Every document has exactly n words."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"document length must be an integer, got {self.n!r}")
        if not 1 <= self.n <= _MAX_LENGTH:
            raise ValueError(f"document length must be in [1, {_MAX_LENGTH}], got {self.n!r}")

    def draw(self, rows, rng):
        return np.full(rows, self.n)


@dataclass(frozen=True)
class PoissonLength:
    """Lengths are 1 + Poisson(mean - 1), so the mean is as requested and
    no document is empty."""

    mean: float

    def __post_init__(self):
        if not (isinstance(self.mean, numbers.Real) and 1.0 <= self.mean <= _MAX_LENGTH / 2):
            raise ValueError(f"mean length must be in [1, {_MAX_LENGTH // 2}], got {self.mean!r}")

    def draw(self, rows, rng):
        return 1 + rng.poisson(self.mean - 1.0, size=rows)


@dataclass(frozen=True, eq=False)
class SynthOutput:
    """Synthesized corpus plus its ground truth: the drawn compositions
    and their empirical topic-topic second moment (read-only, symmetric)."""

    corpus: Corpus
    Wstar: CompositionMatrix
    Astar: np.ndarray


def _bags(B, W, lengths, rng):
    """Bags of lengths[m] words from the mixture B w_m for the first len(lengths)
    rows w_m of W: each bag's number of distinct words, then (word, count) of
    each nonzero count by row and word. Every row's mixture is computed, so
    its rounding does not depend on how many rows are drawn."""
    P = W @ B.T
    P /= P.sum(axis=1, keepdims=True)
    counts = rng.multinomial(lengths, P[:len(lengths)])
    rows, words = np.nonzero(counts)
    # int32 halves what a synthesized corpus holds until it is built
    return (np.bincount(rows, minlength=len(lengths)), words.astype(np.int32),
            counts[rows, words].astype(np.int32))


def synthesize(model, prior, docs, doc_length, seed=0, threads=1):
    """Generate a corpus of `docs` documents from the model's topics, with
    compositions drawn from `prior` and lengths from `doc_length`; the same
    for any thread count."""
    K, N, M = model.K, model.N, docs
    if not (isinstance(M, numbers.Integral) and M >= 1):
        raise ValueError(f"need at least one document: docs must be an integer >= 1, got {docs!r}")
    if prior.K != K:
        raise ValueError(f"prior is over {prior.K} topics, model has {K}")
    step = max(1, _BLOCK_ENTRIES // N)  # documents per multinomial draw
    W = np.empty((K, M))
    parts = [None] * len(range(0, M, _DOC_CHUNK))

    def run(span):
        start, kept = span[0], span[1] - span[0]
        c = start // _DOC_CHUNK
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        # all the chunk's compositions and lengths, however many are kept
        Wc = prior.draw(_DOC_CHUNK, rng)
        n = doc_length.draw(_DOC_CHUNK, rng)
        W[:, start:start + kept] = Wc[:kept].T
        parts[c] = [_bags(model.B, Wc[s:s + step], n[s:min(s + step, kept)], rng)
                    for s in range(0, kept, step)]

    map_chunks(M, _DOC_CHUNK, run, threads)

    # blocks come in document order, each one sorted, so Corpus skips its lexsort
    distinct, words, counts = (np.concatenate(a) for a in zip(*(t for b in parts for t in b)))
    parts.clear()  # the blocks' arrays go before Corpus makes its copies
    docs = np.repeat(np.arange(M, dtype=np.int32), distinct)
    corpus = Corpus(docs=docs, words=words, counts=counts, M=M, N=N)
    P = W @ W.T
    Astar = (P + P.T) / (2.0 * M)
    Astar.setflags(write=False)
    return SynthOutput(corpus=corpus, Wstar=CompositionMatrix(W), Astar=Astar)
