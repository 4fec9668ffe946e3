import numpy as np
import pytest

from topic_compose import TopicModel, write_dense_tsv


def random_model(N, K, seed, concentration=0.3):
    """Model with Dirichlet-random topics and a random valid topic-topic
    moment; generic fixture material, no special structure."""
    rng = np.random.default_rng(seed)
    B = rng.dirichlet(np.full(N, concentration), size=K).T
    R = rng.random((K, K)) + K * np.eye(K)
    A = R + R.T
    A /= A.sum()
    return TopicModel(B=B, A=A)


def write_model(directory, model):
    """Write B.tsv and A.tsv, the files `load_model` reads, into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    write_dense_tsv(directory / "B.tsv", model.B)
    write_dense_tsv(directory / "A.tsv", model.A)


def random_corpus(N, M, seed, mean_len=40):
    """Unstructured word counts, one rng draw per document."""
    from topic_compose import Corpus

    rng = np.random.default_rng(seed)
    docs, words, counts = [], [], []
    for m in range(M):
        n = 1 + rng.poisson(mean_len - 1)
        c = rng.multinomial(n, rng.dirichlet(np.full(N, 0.5)))
        idx = np.nonzero(c)[0]
        docs += [m] * idx.size
        words += idx.tolist()
        counts += c[idx].tolist()
    return Corpus(docs=docs, words=words, counts=counts, M=M, N=N)


@pytest.fixture
def tiny_model():
    return TopicModel(B=[[0.6, 0.2], [0.4, 0.8]], A=[[0.3, 0.2], [0.2, 0.3]])


@pytest.fixture
def identity_model():
    def make(K):
        return TopicModel(B=np.eye(K), A=np.eye(K) / K)

    return make
