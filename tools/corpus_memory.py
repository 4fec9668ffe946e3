"""Print the peak memory of each corpus call, in bytes per nonzero entry.

    PYTHONPATH=src python3 tools/corpus_memory.py

On bench/inputs.py's cli-pipeline model at seed 1, it draws the corpus one
cli-pipeline request draws (2,000 documents of 1 + Poisson(149) words from
the CLI's default Dirichlet prior, at the pool's first synth seed, on one
thread), writes it to a temporary file, reads it back, and builds a Corpus
from its int64 arrays, first in their sorted order and then in one fixed
shuffled order (`Corpus shuffled`, the route that lexsorts). For each call
it prints the name, tab, the peak that tracemalloc saw above what was
allocated when the call began, divided by the corpus's nonzero entries.
The peak counts what the call returns: a Corpus holds 16 bytes per
nonzero, its int64 words and counts. The program is imported from
PYTHONPATH.
"""

import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs  # noqa: E402

from topic_compose import Corpus, TopicModel, read_corpus_tsv, write_corpus_tsv  # noqa: E402
from topic_compose.cli import ALPHA_SCALE  # noqa: E402
from topic_compose.synth import DirichletPrior, PoissonLength, synthesize  # noqa: E402

DOCS = 2000
MEAN_LENGTH = 150.0


def traced_peak(call, *args, **kwargs):
    """call(*args, **kwargs) and the most tracemalloc saw allocated during
    it beyond what was allocated when it began, in bytes."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    result = call(*args, **kwargs)
    return result, tracemalloc.get_traced_memory()[1] - start


def corpus_peaks(model, seed, docs=DOCS):
    """{call name: peak bytes} for synthesize, write_corpus_tsv,
    read_corpus_tsv, Corpus and Corpus on shuffled arrays, on one
    synthesized corpus, and its nonzeros."""
    prior = DirichletPrior.symmetric(model.K, ALPHA_SCALE)
    tracemalloc.start()
    try:
        peaks = {}
        out, peaks["synthesize"] = traced_peak(
            synthesize, model, prior, docs, PoissonLength(MEAN_LENGTH), seed=seed)
        c = out.corpus
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "corpus.tsv")
            _, peaks["write_corpus_tsv"] = traced_peak(write_corpus_tsv, path, c)
            _, peaks["read_corpus_tsv"] = traced_peak(read_corpus_tsv, path)
        _, peaks["Corpus"] = traced_peak(
            Corpus, docs=c.docs, words=c.words, counts=c.counts, M=c.M, N=c.N)
        perm = np.random.default_rng(0).permutation(c.words.size)
        shuffled = {name: getattr(c, name)[perm] for name in ("docs", "words", "counts")}
        _, peaks["Corpus shuffled"] = traced_peak(Corpus, **shuffled, M=c.M, N=c.N)
    finally:
        tracemalloc.stop()
    return peaks, c.words.size


def main():
    data = inputs.cli_pipeline(1)
    model = TopicModel(B=data.B, A=data.A)
    peaks, nnz = corpus_peaks(model, data.pool_seeds[0])
    print(f"nonzeros\t{nnz}")
    for name, peak in peaks.items():
        print(f"{name}\t{peak / nnz:.1f}")


if __name__ == "__main__":
    main()
