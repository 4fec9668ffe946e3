"""Core types and file formats for spectral topic models.

A model is a pair (B, A): B holds one word distribution per topic in its
columns, A holds the joint probability of drawing each ordered topic pair.
Corpora are bags of word counts. Everything is 0-based in memory; the TSV
formats use 1-based document and word ids.
"""

import math
import numbers
import os

import numpy as np
import scipy.sparse as sparse
from dataclasses import dataclass

NEG_TOL = 1e-12        # entries this far below zero are treated as rounding noise
COL_SUM_TOL = 1e-8     # tolerance on stochastic column / total sums
SYM_TOL = 1e-10        # tolerance on symmetry of topic-topic matrices
COMP_SUM_TOL = 1e-6    # looser sum tolerance for inferred composition columns

_FLOAT_FMT = "%.17g"   # round-trips float64 exactly
# Values per formatted write: one %-format over a block of rows is several
# times faster than a write per row, and bounding the values in the block,
# not its rows, keeps the temporary tuple of Python numbers (and so peak
# memory) small however wide a row is. Corpus's sortedness check and the
# TSV rescan work on blocks of this many entries or lines too, for the same
# two reasons.
WRITE_BLOCK = 8192


def check_number(value, name, low, high=math.inf, kind=numbers.Integral):
    """value, if it is a `kind` number, not a bool, in [low, high]; else a
    ValueError naming `name`, the rule and the value. NumPy scalars pass."""
    if isinstance(value, kind) and not isinstance(value, bool) and low <= value <= high:
        return value
    what = "a real number" if kind is numbers.Real else "an integer"
    where = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be {what} {where}, got {value!r}")


def freeze_fields(record, **arrays):
    """Set each keyword array, made read-only, as that field of the frozen
    dataclass `record`; for use while it is built."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def _clean_nonnegative(X, name):
    """Validate entries of X are >= -NEG_TOL, clamping rounding noise to 0."""
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite entries")
    lo = X.min() if X.size else 0.0
    if lo < -NEG_TOL:
        i = tuple(int(v) for v in np.unravel_index(int(np.argmin(X)), X.shape))
        raise ValueError(f"{name} has a negative entry {float(lo)!r} at index {i}")
    np.clip(X, 0.0, None, out=X)


@dataclass(frozen=True, eq=False)
class TopicModel:
    """Word-topic matrix B (N x K, column-stochastic) and topic-topic
    joint probability matrix A (K x K, symmetric, entries summing to 1)."""

    B: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        B = np.array(self.B, dtype=np.float64, order="C")
        A = np.array(self.A, dtype=np.float64, order="C")
        if B.ndim != 2:
            raise ValueError(f"B must be a matrix, got ndim={B.ndim}")
        N, K = B.shape
        if K < 1:
            raise ValueError("model must have at least one topic")
        if K > N:
            raise ValueError(
                f"overcomplete model: {K} topics over a vocabulary of {N} words"
            )
        _clean_nonnegative(B, "B")
        sums = B.sum(axis=0)
        j = int(np.argmax(np.abs(sums - 1.0)))
        if abs(sums[j] - 1.0) > COL_SUM_TOL:
            raise ValueError(f"column {j} of B sums to {float(sums[j])!r}, expected 1")
        if A.shape != (K, K):
            raise ValueError(f"A has shape {A.shape}, expected ({K}, {K}) to match B")
        asym = float(np.abs(A - A.T).max())
        if asym > SYM_TOL:
            raise ValueError(f"A is not symmetric: max |A - A^T| = {asym:.3e}")
        A = (A + A.T) / 2.0  # PADD's dual would accumulate skew that SYM_TOL lets through
        _clean_nonnegative(A, "A")
        total = float(A.sum())
        if abs(total - 1.0) > COL_SUM_TOL:
            raise ValueError(f"entries of A sum to {total!r}, expected 1")
        freeze_fields(self, B=B, A=A)

    @property
    def N(self):
        return self.B.shape[0]

    @property
    def K(self):
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class CompositionMatrix:
    """Topic compositions for a corpus, one document per column (K x M);
    every column lies on the probability simplex."""

    W: np.ndarray

    def __post_init__(self):
        W = np.array(self.W, dtype=np.float64, order="C")
        if W.ndim != 2:
            raise ValueError("W must be a matrix")
        if W.shape[0] < 1 or W.shape[1] < 1:
            raise ValueError(f"W has degenerate shape {W.shape}")
        _clean_nonnegative(W, "W")
        sums = W.sum(axis=0)
        j = int(np.argmax(np.abs(sums - 1.0)))
        if abs(sums[j] - 1.0) > COMP_SUM_TOL:
            raise ValueError(f"composition column {j} sums to {float(sums[j])!r}, expected 1")
        freeze_fields(self, W=W)

    @property
    def K(self):
        return self.W.shape[0]

    @property
    def M(self):
        return self.W.shape[1]


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """Sparse word counts for M documents over an N-word vocabulary.

    Stored as parallel (words, counts) arrays sorted by document then word,
    with at most one entry per (document, word) pair. Every document must
    contain at least one word. Document m's entries are indptr[m]:indptr[m + 1],
    the CSC column pointer of the count matrix; `docs`, each entry's
    document, is derived from it rather than stored.

    Entries may come in any order, and every input is checked in one
    order: word range and counts in the caller's order, then sortedness;
    input that is not sorted is lexsorted and judged once more, and sorted
    pairs that still do not strictly increase hold a repeated pair, named
    as a duplicate entry. Then the document range, from the sorted ends,
    and the first empty document.
    """

    words: np.ndarray
    counts: np.ndarray
    M: int
    N: int
    lengths: np.ndarray
    indptr: np.ndarray

    def __init__(self, docs, words, counts, M, N):
        docs = _integers(docs, "docs")  # a view: sorted input is read a block at a time
        # copies: the arrays are frozen below, and the caller's stay theirs
        words = np.array(_integers(words, "words"), dtype=np.int64)
        counts = np.array(_integers(counts, "counts"), dtype=np.int64)
        if not (docs.size == words.size == counts.size):
            raise ValueError("docs, words and counts must have equal lengths")
        check_number(M, "corpus dimension M", 1)
        check_number(N, "corpus dimension N", 1)
        # so M, N and the N x M count matrix's cell count fit int64; SciPy takes
        # the shape (N, M) that normalize_corpus gives it as C longs
        if int(M) * int(N) >= 2**63:
            raise ValueError(f"corpus dimensions M={M}, N={N} have M*N >= 2**63")
        if docs.size:  # before any sort, so an entry's index is the caller's
            if words.min() < 0 or words.max() >= N:
                raise ValueError(f"word index out of range [0, {N})")
            if counts.min() < 1:
                i = int(np.argmax(counts < 1))
                raise ValueError(f"count must be >= 1, got {counts[i]} at entry {i}")
        starts = _sorted_starts(docs, words)
        if starts is None:
            order = np.lexsort((words, docs))
            docs, words, counts = docs[order], words[order], counts[order]
            starts = _sorted_starts(docs, words)
            if starts is None:  # sorted pairs fail to increase only where one repeats
                i = int(np.argmax((docs[1:] == docs[:-1]) & (words[1:] == words[:-1])))
                raise ValueError(f"duplicate entry for document {docs[i]}, word {words[i]}")
        # sorted documents have their least first and their greatest last
        if docs.size and (docs[0] < 0 or docs[-1] >= M):
            raise ValueError(f"document index out of range [0, {M})")
        # the documents with entries, increasing, so present[j] >= j, and the
        # first j where they differ has no entries
        present = np.concatenate((docs[:1], docs[starts]))
        gap = present != np.arange(present.size)
        empty = int(np.argmax(gap)) if gap.any() else present.size
        if empty < M:
            raise ValueError(f"document {empty} is empty")
        indptr = np.concatenate(([0], starts, [docs.size]))
        lengths = np.add.reduceat(counts, indptr[:-1])
        freeze_fields(self, words=words, counts=counts, lengths=lengths, indptr=indptr)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)

    @property
    def docs(self):
        """Each entry's document, a read-only int64 array made from indptr."""
        docs = np.repeat(np.arange(self.M), np.diff(self.indptr))
        docs.setflags(write=False)
        return docs


def _integers(values, name):
    """values as a 1-D integer array, without a copy where it is one already;
    ValueError naming it if it holds values of another type."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        if arr.size:
            raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
    return arr.reshape(-1)  # ravel() would copy a strided view such as np.nonzero's


def _sorted_starts(docs, words):
    """Where each document but the first begins, if the (document, word)
    pairs strictly increase; None if they do not, which for pairs already
    sorted by lexsort means a pair repeats. Judged by comparisons
    alone, which hold for any values, on contiguous copies of blocks of
    WRITE_BLOCK entries that overlap by one, so no array of the full length
    is made."""
    starts = [np.empty(0, dtype=np.int64)]
    for start in range(0, docs.size - 1, WRITE_BLOCK):
        block = slice(start, start + WRITE_BLOCK + 1)
        d, w = np.ascontiguousarray(docs[block]), words[block]
        new = d[1:] != d[:-1]
        if not ((d[1:] >= d[:-1]).all() and (new | (w[1:] > w[:-1])).all()):
            return None
        starts.append(np.flatnonzero(new) + (start + 1))
    return np.concatenate(starts)


def normalize_corpus(corpus):
    """Column-normalize the count matrix: word frequencies per document.

    A Corpus keeps its entries sorted by document then word, which is CSC
    order with sorted indices, so the arrays are used as they stand.
    """
    data = corpus.counts * np.repeat(1.0 / corpus.lengths, np.diff(corpus.indptr))
    return sparse.csc_array((data, corpus.words, corpus.indptr),
                            shape=(corpus.N, corpus.M))


def topic_marginals(model):
    """Corpus-level topic probabilities p(z=k), the row sums of A."""
    return model.A.sum(axis=1)


def word_topic_posterior(model):
    """Posterior p(z=k | x=i) under the model's topic marginals, as a
    read-only K x N array whose columns are distributions over topics.

    Words the model gives zero probability to under every topic fall back
    to the marginal distribution.
    """
    pz = topic_marginals(model)
    joint = model.B * pz[None, :]          # (N, K): p(x=i, z=k)
    px = joint.sum(axis=1)
    Bb = np.empty((model.K, model.N))
    seen = px > 0.0
    Bb[:, seen] = (joint[seen, :] / px[seen, None]).T
    if not seen.all():
        Bb[:, ~seen] = pz[:, None]
    Bb.setflags(write=False)
    return Bb


# ---------------------------------------------------------------------------
# file formats

def write_table(path, header, row_fmt, tables):
    """Write the line `header`, then every row of each 2-D array in
    `tables` in turn, formatted by `row_fmt` (one %-field per column,
    newline included), with one %-format per block of about WRITE_BLOCK
    values: max(1, WRITE_BLOCK // columns) rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for table in tables:
            step = max(1, WRITE_BLOCK // max(1, table.shape[1]))
            for start in range(0, table.shape[0], step):
                block = table[start:start + step]
                fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_dense_tsv(path, X):
    """Write a dense matrix: `rows<TAB>cols` header, one row per line,
    tab-separated %.17g values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a matrix")
    write_table(path, f"{X.shape[0]}\t{X.shape[1]}",
                "\t".join([_FLOAT_FMT] * X.shape[1]) + "\n", [X])


def _sizes(line, fields):
    """The header line's `fields` nonnegative integers, written in digits
    alone; ValueError if it is not that."""
    header = line.split()
    if len(header) != fields or not all(v.isdigit() for v in header):
        raise ValueError(f"malformed header {header!r}")
    return [int(v) for v in header]


def _fields(line):
    """A body line's tab-separated fields, or [] for a line loadtxt skips:
    text from '#' on is a comment, and nothing else is left."""
    text = line.split("#", 1)[0].rstrip("\n")
    return text.split("\t") if text else []


def _first_bad_line(path, fields, dtype, cols):
    """What is wrong with the first line of path, in file order, that has a
    byte that is not ASCII, is a malformed header, or is a body line with
    other than cols fields (by default the header's last size) or a field
    loadtxt cannot read as dtype, naming path and the line (the header is
    line 1); None if no line is. Bytes that are not ASCII are read as
    surrogates, so lines split where the strict read splits them. One
    loadtxt call judges the fields of a block of up to WRITE_BLOCK body
    lines, and only a block that fails is judged field by field."""
    block = []  # (number, line) of the body lines not yet judged

    def unreadable():
        """The first field of block that loadtxt cannot read, named as a
        fault; None, and block emptied, if there is none."""
        try:
            if block:
                np.loadtxt([line for _, line in block], dtype=dtype, delimiter="\t")
        except ValueError:
            for number, line in block:
                for value in _fields(line):
                    try:
                        if not value:  # loadtxt warns on an empty field rather than raising
                            raise ValueError(value)
                        np.loadtxt([value], dtype=dtype, delimiter="\t")
                    except ValueError:
                        return f"{path}: line {number}: cannot read {value!r} as {np.dtype(dtype)}"
        block.clear()
        return None

    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.isascii():  # byte b reads as the surrogate U+DC00 + b
                byte = ord(next(c for c in line if not c.isascii())) - 0xDC00
                return unreadable() or f"{path}: line {number}: cannot read byte {byte:#04x} as ASCII"
            if number == 1:
                try:
                    cols = cols or _sizes(line, fields)[-1]
                except ValueError as exc:
                    return f"{path}: {exc}"
                continue
            values = _fields(line)
            if values and len(values) != cols:
                return unreadable() or f"{path}: line {number}: expected {cols} fields, got {len(values)}"
            if values:
                block.append((number, line))
            if len(block) == WRITE_BLOCK and (fault := unreadable()):
                return fault
    return unreadable()


def _read_tsv(path, fields, dtype, cols=None):
    """The header's `fields` sizes, and the body as a 2-D dtype array of
    `cols` columns (by default the header's last size) read by loadtxt; a
    body without data lines gives a 0 x cols array, without loadtxt's
    no-data warning. A file that does not read raises ValueError naming
    path and, where the rescan finds one, the first bad line."""
    try:
        with open(path, encoding="ascii") as fh:
            sizes = _sizes(fh.readline(), fields)
            start = fh.tell()
            if not any(_fields(line) for line in iter(fh.readline, "")):
                return sizes, np.empty((0, cols or sizes[-1]), dtype=dtype)
            fh.seek(start)
            return sizes, np.loadtxt(fh, dtype=dtype, delimiter="\t", ndmin=2)
    except ValueError as exc:  # a UnicodeDecodeError is one
        raise ValueError(_first_bad_line(path, fields, dtype, cols) or f"{path}: {exc}") from None


def from_file(source, make, *args, **kwargs):
    """make(*args, **kwargs), a record built from what was read from
    `source`; a ValueError it raises is raised again prefixed by source."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def read_dense_tsv(path):
    (rows, cols), X = _read_tsv(path, 2, np.float64)
    if X.size == 0:  # a header size NumPy cannot make an array of is named by path
        X = from_file(path, X.reshape, rows, cols) if rows * cols == 0 else X
    if X.shape != (rows, cols):
        raise ValueError(f"{path}: header says {rows}x{cols}, body is {X.shape}")
    return X


def write_corpus_tsv(path, corpus):
    """Write sparse counts: `M<TAB>N<TAB>NNZ` header, then 1-based
    `doc<TAB>word<TAB>count` triplets sorted by document then word."""
    nnz = corpus.words.size

    def blocks():
        # ids a block at a time, so no id array of the full length is made; entry
        # i of document m has indptr[m] <= i < indptr[m + 1], so m + 1 is its 1-based id
        for start in range(0, nnz, WRITE_BLOCK):
            block = slice(start, min(start + WRITE_BLOCK, nnz))
            docs = np.searchsorted(corpus.indptr, np.arange(block.start, block.stop), side="right")
            yield np.column_stack((docs, corpus.words[block] + 1, corpus.counts[block]))

    write_table(path, f"{corpus.M}\t{corpus.N}\t{nnz}", "%d\t%d\t%d\n", blocks())


def read_corpus_tsv(path):
    (M, N, nnz), body = _read_tsv(path, 3, np.int64, cols=3)
    if body.shape != (nnz, 3):
        raise ValueError(f"{path}: header says {nnz} entries, body has shape {body.shape}")
    if body.size and body[:, :2].min() < 1:
        raise ValueError(f"{path}: document and word ids are 1-based")
    body[:, :2] -= 1  # in place: 0-based ids without another array of them
    return from_file(path, Corpus, docs=body[:, 0], words=body[:, 1], counts=body[:, 2],
                     M=M, N=N)


def write_composition_tsv(path, comp):
    write_dense_tsv(path, comp.W)


def read_composition_tsv(path):
    """Read a composition matrix; a file that is not one raises
    ValueError naming path."""
    return from_file(path, CompositionMatrix, read_dense_tsv(path))


def load_model(directory):
    """Read B.tsv and A.tsv from a model directory.

    A file's A may be skewed by up to COL_SUM_TOL, the file tolerance its
    sum is held to; a larger skew raises ValueError naming the file. A is
    symmetrized as (A + A^T) / 2 before TopicModel validates it, and what
    TopicModel rejects raises ValueError naming the directory.
    """
    B = read_dense_tsv(os.path.join(directory, "B.tsv"))
    path = os.path.join(directory, "A.tsv")
    A = read_dense_tsv(path)
    square = A.shape[0] == A.shape[1]
    skew = float(np.abs(A - A.T).max(initial=0.0)) if square else 0.0
    if skew > COL_SUM_TOL:
        raise ValueError(f"{path}: A is not symmetric: max |A - A^T| = {skew:.3e}")
    return from_file(directory, TopicModel, B=B, A=(A + A.T) / 2.0 if square else A)
