"""Seeded benchmark inputs: models, document batches and model files.

Everything here is drawn with this module's own seeded NumPy generators
and written with its own TSV writer, so a change to
`topic_compose.synth` or to the package's writers cannot change what the
benchmark feeds the program.
"""

from dataclasses import dataclass

import numpy as np

POOL = 8  # distinct batches per workload; requests cycle through them

# The model is part of a workload's definition, so it is drawn from this
# fixed seed; the workload seed draws the documents (or synth seeds) that
# make up the request traffic.
MODEL_SEED = 1711_07065


@dataclass(frozen=True)
class Batch:
    """One request's documents as sorted (doc, word, count) triplets, plus
    the compositions they were drawn from (K x M)."""

    docs: np.ndarray
    words: np.ndarray
    counts: np.ndarray
    M: int
    N: int
    truth: np.ndarray


@dataclass(frozen=True)
class Inputs:
    B: np.ndarray
    A: np.ndarray
    batches: tuple       # Batch per pool slot (padd-k10, tli-k50)
    pool_seeds: tuple    # synth seed per pool slot (cli-pipeline)


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def anchor_topics(rng, N, K, concentration):
    """B (N x K) with Dirichlet(concentration) columns; a small
    concentration gives near-anchor topics."""
    return rng.dirichlet(np.full(N, concentration), size=K).T


def dirichlet_moment(alpha):
    """E[w w^T] for w ~ Dirichlet(alpha)."""
    a = np.asarray(alpha, dtype=np.float64)
    s = a.sum()
    moment = np.outer(a, a)
    np.fill_diagonal(moment, a * (a + 1.0))
    return moment / (s * (s + 1.0))


def block_covariance(K, blocks=2, within=0.5):
    """Unit-variance covariance with `blocks` equally sized correlated
    topic blocks."""
    sigma = np.zeros((K, K))
    size = K // blocks
    for b in range(blocks):
        sl = slice(b * size, K if b == blocks - 1 else (b + 1) * size)
        sigma[sl, sl] = within
    np.fill_diagonal(sigma, 1.0)
    return sigma


def logistic_normal(rng, sigma, M):
    """M zero-mean logistic-normal compositions (K x M)."""
    L = np.linalg.cholesky(sigma)
    X = L @ rng.standard_normal((sigma.shape[0], M))
    X = np.exp(X - X.max(axis=0))
    return X / X.sum(axis=0)


def draw_batch(rng, B, W, mean_length):
    """Multinomial documents for compositions W with 1 + Poisson(mean - 1)
    lengths, so no document is empty."""
    N = B.shape[0]
    M = W.shape[1]
    lengths = 1 + rng.poisson(mean_length - 1.0, size=M)
    P = np.clip((B @ W).T, 0.0, None)
    P /= P.sum(axis=1, keepdims=True)
    counts = rng.multinomial(lengths, P)
    docs, words = np.nonzero(counts)
    return Batch(docs=docs, words=words, counts=counts[docs, words],
                 M=M, N=N, truth=W)


def padd_k10(seed, N=500, K=10, docs=1024, mean_length=300.0, pool=POOL):
    """Correlated corpus: two 5-topic logistic-normal blocks over
    Dirichlet(0.1) topics; A is the second moment of the whole pool."""
    B = anchor_topics(_rng(MODEL_SEED, 10), N, K, 0.1)
    rng = _rng(seed, 10)
    sigma = block_covariance(K)
    Ws = [logistic_normal(rng, sigma, docs) for _ in range(pool)]
    batches = tuple(draw_batch(rng, B, W, mean_length) for W in Ws)
    W_all = np.concatenate(Ws, axis=1)
    P = W_all @ W_all.T
    A = (P + P.T) / (2.0 * W_all.shape[1])
    return Inputs(B=B, A=A, batches=batches, pool_seeds=())


def tli_k50(seed, N=500, K=50, docs=1024, mean_length=150.0, pool=POOL):
    """Near-anchor Dirichlet(0.01) topics; symmetric Dirichlet(5/K)
    compositions with A set to their analytic second moment."""
    B = anchor_topics(_rng(MODEL_SEED, 50), N, K, 0.01)
    rng = _rng(seed, 50)
    alpha = np.full(K, 5.0 / K)
    batches = tuple(
        draw_batch(rng, B, rng.dirichlet(alpha, size=docs).T, mean_length)
        for _ in range(pool)
    )
    return Inputs(B=B, A=dirichlet_moment(alpha), batches=batches, pool_seeds=())


def cli_pipeline(seed, N=500, K=25, pool=POOL):
    """Near-anchor model for the CLI; the CLI's own `synth` draws the
    documents, one synth seed per pool slot. A matches the CLI's default
    symmetric Dirichlet(5/K) synthesis prior."""
    B = anchor_topics(_rng(MODEL_SEED, 25), N, K, 0.01)
    A = dirichlet_moment(np.full(K, 5.0 / K))
    pool_seeds = tuple(int(s) for s in _rng(seed, 25).integers(0, 2**31 - 1, size=pool))
    return Inputs(B=B, A=A, batches=(), pool_seeds=pool_seeds)


def write_dense_tsv(path, X):
    """`rows<TAB>cols` header, then one row per line of %.17g values, the
    model file format the program reads."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{X.shape[0]}\t{X.shape[1]}\n")
        for row in X:
            fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")


def write_model(directory, inputs):
    write_dense_tsv(directory / "B.tsv", inputs.B)
    write_dense_tsv(directory / "A.tsv", inputs.A)
