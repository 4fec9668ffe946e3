import os
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from topic_compose import (
    CompositionMatrix,
    Corpus,
    DirichletPrior,
    LogisticNormalPrior,
    SynthOutput,
    TliInverse,
    TopicModel,
    evaluate_compositions,
    load_model,
    normalize_corpus,
    read_composition_tsv,
    read_corpus_tsv,
    read_dense_tsv,
    topic_marginals,
    word_topic_posterior,
    write_corpus_tsv,
    write_dense_tsv,
)
from conftest import random_corpus, random_model, write_model
from oracles import normalize_corpus_reference, savetxt_corpus_reference
from topic_compose.model import WRITE_BLOCK


class TestTopicModel:
    def test_identity_model(self):
        m = TopicModel(B=np.eye(2), A=[[0.5, 0.0], [0.0, 0.5]])
        assert m.N == 2 and m.K == 2

    def test_column_sum_violation_names_column(self):
        B = np.eye(3)
        B[0, 1] = 0.0
        B[1, 1] = 0.9
        with pytest.raises(ValueError, match="column 1"):
            TopicModel(B=B, A=np.eye(3) / 3)

    def test_overcomplete_rejected(self):
        B = np.full((2, 3), 0.5)
        with pytest.raises(ValueError, match="overcomplete"):
            TopicModel(B=B, A=np.eye(3) / 3)

    def test_negative_entry_rejected(self):
        B = np.eye(2)
        B[0, 0] = -1e-6
        B[1, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError, match="negative"):
            TopicModel(B=B, A=np.eye(2) / 2)

    def test_negative_rounding_noise_clamped(self):
        B = np.eye(2)
        B[0, 1] = -5e-13
        B[1, 1] = 1.0 + 5e-13
        m = TopicModel(B=B, A=np.eye(2) / 2)
        assert m.B[0, 1] == 0.0

    def test_asymmetric_A_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            TopicModel(B=np.eye(2), A=[[0.5, 0.1], [0.0, 0.4]])

    def test_skew_within_tolerance_is_stored_symmetrized(self):
        A = np.array([[0.3, 0.2 + 4e-11], [0.2 - 4e-11, 0.3]])
        m = TopicModel(B=np.eye(2), A=A)
        assert (m.A == m.A.T).all()
        npt.assert_allclose(m.A, [[0.3, 0.2], [0.2, 0.3]], rtol=0, atol=1e-16)
        # an exactly symmetric A is stored bit for bit
        S = np.array([[0.1, 0.25], [0.25, 0.4]])
        assert TopicModel(B=np.eye(2), A=S).A.tobytes() == S.tobytes()

    def test_A_total_checked(self):
        with pytest.raises(ValueError, match="sum"):
            TopicModel(B=np.eye(2), A=[[0.5, 0.0], [0.0, 0.6]])

    def test_arrays_read_only(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.B[0, 0] = 0.5


class TestCorpus:
    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(docs=[0, 0], words=[1, 1], counts=[1, 2], M=1, N=3)

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Corpus(docs=[0], words=[0], counts=[3], M=2, N=2)

    @pytest.mark.parametrize("docs, first_empty", [([], 0), ([0, 1, 2], 3), ([0, 2, 3], 1)])
    def test_more_documents_than_entries_names_first_empty(self, docs, first_empty):
        # found among the first len(docs) + 1 documents, without an array of M
        with pytest.raises(ValueError, match=f"^document {first_empty} is empty$"):
            Corpus(docs=docs, words=[0] * len(docs), counts=[1] * len(docs),
                   M=10**15, N=2)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Corpus(docs=[0], words=[0], counts=[0], M=1, N=1)

    def test_entries_sorted_and_lengths(self):
        c = Corpus(docs=[1, 0, 1], words=[0, 2, 2], counts=[4, 1, 2], M=2, N=3)
        npt.assert_array_equal(c.docs, [0, 1, 1])
        npt.assert_array_equal(c.words, [2, 0, 2])
        npt.assert_array_equal(c.lengths, [1, 6])

    def test_shuffled_input_matches_sorted(self):
        # within one block of the sortedness check, and across three
        for N, M in ((30, 40), (200, 600)):
            ref = random_corpus(N=N, M=M, seed=3)
            perm = np.random.default_rng(4).permutation(ref.docs.size)
            docs, words, counts = ref.docs[perm], ref.words[perm], ref.counts[perm]
            c = Corpus(docs=docs, words=words, counts=counts, M=ref.M, N=ref.N)
            for name in ("docs", "words", "counts", "lengths"):
                assert getattr(c, name).tobytes() == getattr(ref, name).tobytes()
            # sorted input is copied, not frozen in the caller's hands
            sorted_docs = np.array(ref.docs)
            Corpus(docs=sorted_docs, words=ref.words, counts=ref.counts, M=ref.M, N=ref.N)
            assert sorted_docs.flags.writeable

    # entries WRITE_BLOCK - 1 and WRITE_BLOCK end one block of the sortedness
    # check and begin the next
    @pytest.mark.parametrize("first", [0, WRITE_BLOCK - 2, WRITE_BLOCK - 1, 2 * WRITE_BLOCK])
    def test_out_of_order_pair_is_sorted_in_any_block(self, first):
        keys = np.arange(2 * WRITE_BLOCK + 4)
        swapped = keys.copy()
        swapped[[first, first + 1]] = keys[[first + 1, first]]
        c = Corpus(docs=swapped // 4, words=swapped % 4, counts=swapped + 1,
                   M=keys.size // 4, N=4)
        for name, expected in (("docs", keys // 4), ("words", keys % 4), ("counts", keys + 1)):
            npt.assert_array_equal(getattr(c, name), expected)

    @pytest.mark.parametrize("first", [WRITE_BLOCK - 2, WRITE_BLOCK - 1, 2 * WRITE_BLOCK])
    def test_duplicate_is_found_in_any_block(self, first):
        keys = np.arange(2 * WRITE_BLOCK + 4)
        keys[first + 1] = keys[first]
        with pytest.raises(ValueError, match=f"^duplicate entry for document {keys[first] // 4}, "
                                             f"word {keys[first] % 4}$"):
            Corpus(docs=keys // 4, words=keys % 4, counts=np.ones_like(keys),
                   M=keys.size // 4, N=4)

    def test_one_entry(self):
        c = Corpus(docs=[0], words=[3], counts=[2], M=1, N=5)
        assert (c.docs.tolist(), c.words.tolist(), c.counts.tolist()) == ([0], [3], [2])
        assert (c.lengths.tolist(), c.indptr.tolist()) == ([2], [0, 1])

    def test_numpy_integer_dimensions_accepted(self):
        c = Corpus(docs=[0, 1], words=[0, 1], counts=[1, 1], M=np.int64(2), N=np.uint8(2))
        assert (c.M, c.N) == (2, 2)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_integer_dtypes_accepted(self, dtype):
        c = Corpus(docs=np.array([1, 0, 1], dtype), words=np.array([0, 2, 2], dtype),
                   counts=np.array([4, 1, 2], dtype), M=2, N=3)
        assert (c.docs.tolist(), c.words.tolist(), c.counts.tolist()) == ([0, 1, 1], [2, 0, 2],
                                                                          [1, 4, 2])
        assert c.words.dtype == c.counts.dtype == np.int64

    @staticmethod
    def _nonzero_entries():
        """np.nonzero's strided (docs, words) of a 1,024 x 500 count matrix
        of 1 + Poisson(149) words per document, and their counts: how the
        benchmark's batches come."""
        rng = np.random.default_rng(6)
        counts = rng.multinomial(1 + rng.poisson(149, size=1024), np.full(500, 1 / 500))
        docs, words = np.nonzero(counts)
        return docs, words, counts[docs, words]

    def test_holds_16_bytes_per_entry(self):
        # docs is checked where it lies, never copied; 25.5 bytes per entry
        # when each of the three arrays was copied
        docs, words, counts = self._nonzero_entries()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            c = Corpus(docs=docs, words=words, counts=counts, M=1024, N=500)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        held = {name: v.nbytes for name, v in vars(c).items()
                if isinstance(v, np.ndarray) and v.size == docs.size}
        assert held == {"words": 8 * docs.size, "counts": 8 * docs.size}
        assert peak <= 18 * docs.size, peak / docs.size

    def test_docs_derived_and_read_only(self):
        docs, words, counts = self._nonzero_entries()
        perm = np.random.default_rng(7).permutation(docs.size)
        c = Corpus(docs=docs[perm], words=words[perm], counts=counts[perm], M=1024, N=500)
        assert "docs" not in vars(c)
        assert c.docs.tobytes() == np.sort(docs[perm]).astype(np.int64).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            c.docs[0] = 1

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0]])
    def test_duplicate_message_same_sorted_or_not(self, order):
        docs, words, counts = np.array([0, 1, 1]), np.array([2, 0, 0]), np.array([1, 2, 3])
        with pytest.raises(ValueError, match="^duplicate entry for document 1, word 0$"):
            Corpus(docs=docs[order], words=words[order], counts=counts[order], M=2, N=3)


class TestNormalizeCorpus:
    def test_two_word_doc(self):
        c = Corpus(docs=[0, 0], words=[3, 7], counts=[2, 2], M=1, N=10)
        col = normalize_corpus(c).toarray()[:, 0]
        assert col[3] == 0.5 and col[7] == 0.5 and col.sum() == 1.0

    def test_single_token_doc_is_indicator(self):
        c = Corpus(docs=[0], words=[4], counts=[1], M=1, N=6)
        col = normalize_corpus(c).toarray()[:, 0]
        npt.assert_array_equal(col, np.eye(6)[4])

    def test_mixed_counts(self):
        c = Corpus(docs=[0, 0, 0], words=[1, 2, 3], counts=[1, 1, 2], M=1, N=4)
        col = normalize_corpus(c).toarray()[:, 0]
        npt.assert_allclose(col, [0.0, 0.25, 0.25, 0.5])

    def test_columns_on_simplex(self):
        c = random_corpus(N=30, M=50, seed=11)
        H = normalize_corpus(c).toarray()
        npt.assert_allclose(H.sum(axis=0), 1.0, atol=1e-12)
        assert (H >= 0.0).all()

    @staticmethod
    def _shuffled(seed):
        ref = random_corpus(N=60, M=80, seed=seed, mean_len=25)
        perm = np.random.default_rng(seed + 1).permutation(ref.docs.size)
        return Corpus(docs=ref.docs[perm], words=ref.words[perm],
                      counts=ref.counts[perm], M=ref.M, N=ref.N)

    @pytest.mark.parametrize("make", [
        lambda: random_corpus(N=500, M=1024, seed=12, mean_len=300),  # bench-sized
        lambda: TestNormalizeCorpus._shuffled(13),
        lambda: Corpus(docs=[0, 0, 0], words=[5, 1, 3], counts=[7, 2, 2**40], M=1, N=6),
    ], ids=["bench-sized", "shuffled-input", "one-document"])
    def test_matches_reference_construction(self, make):
        c = make()
        H = normalize_corpus(c)
        ref = normalize_corpus_reference(c)
        ref.sort_indices()
        assert H.shape == ref.shape
        npt.assert_array_equal(H.indptr, ref.indptr)
        npt.assert_array_equal(H.indices, ref.indices)
        assert H.has_sorted_indices
        assert H.data.tobytes() == ref.data.tobytes()


class TestTopicMarginals:
    @pytest.mark.parametrize(
        "A",
        [
            [[0.5, 0.0], [0.0, 0.5]],
            [[0.25, 0.25], [0.25, 0.25]],
            [[0.4, 0.1], [0.1, 0.4]],
        ],
    )
    def test_two_topic_cases(self, A):
        m = TopicModel(B=np.eye(2), A=A)
        npt.assert_allclose(topic_marginals(m), [0.5, 0.5], atol=1e-15)

    def test_sums_to_one_randomized(self):
        for seed in range(5):
            m = random_model(N=20, K=6, seed=seed)
            pz = topic_marginals(m)
            assert abs(pz.sum() - 1.0) <= 1e-8

    def test_invariant_under_symmetrization(self):
        m = random_model(N=10, K=4, seed=2)
        resym = TopicModel(B=m.B, A=(m.A + m.A.T) / 2)
        npt.assert_array_equal(topic_marginals(m), topic_marginals(resym))


class TestWordTopicPosterior:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, None])
    def test_plain_read_only_stochastic_array(self, seed):
        if seed is None:  # the last word has zero probability under every topic
            m = TopicModel(B=[[0.7, 0.1], [0.3, 0.9], [0.0, 0.0]], A=[[0.4, 0.1], [0.1, 0.4]])
        else:
            m = random_model(N=25, K=5, seed=seed)
        Bb = word_topic_posterior(m)
        assert type(Bb) is np.ndarray
        assert Bb.shape == (m.K, m.N)
        assert not Bb.flags.writeable
        assert (Bb >= 0.0).all()
        npt.assert_allclose(Bb.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_identity(self, identity_model):
        m = identity_model(2)
        npt.assert_array_equal(word_topic_posterior(m), np.eye(2))

    def test_bayes_by_hand(self, tiny_model):
        Bb = word_topic_posterior(tiny_model)
        npt.assert_allclose(Bb[:, 0], [0.75, 0.25], atol=1e-15)
        npt.assert_allclose(Bb[:, 1], [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_single_topic_all_ones(self):
        m = TopicModel(B=np.ones((4, 1)) / 4, A=[[1.0]])
        npt.assert_array_equal(word_topic_posterior(m), np.ones((1, 4)))

    def test_degenerate_word_gets_marginal(self):
        B = np.array([[0.7, 0.1], [0.3, 0.9], [0.0, 0.0]])
        m = TopicModel(B=B, A=[[0.4, 0.1], [0.1, 0.4]])
        Bb = word_topic_posterior(m)
        npt.assert_allclose(Bb[:, 2], topic_marginals(m), atol=1e-15)

    def test_round_trip_recovers_B(self):
        for seed in range(5):
            m = random_model(N=25, K=5, seed=seed)
            pz = topic_marginals(m)
            Bb = word_topic_posterior(m)
            # invert Bayes: B_ik proportional to Bb_ki * p(x=i) / p(z=k)
            px = (m.B * pz[None, :]).sum(axis=1)
            B_back = (Bb * px[None, :]).T / pz[None, :]
            npt.assert_allclose(B_back[px > 0], m.B[px > 0], atol=1e-10)


class TestFileFormats:
    def test_dense_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.random((5, 3)) / 3
        path = tmp_path / "x.tsv"
        write_dense_tsv(path, X)
        npt.assert_array_equal(read_dense_tsv(path), X)
        header = path.read_text().splitlines()[0]
        assert header == "5\t3"

    def test_dense_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("2\t2\n0.5\t0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_dense_tsv(path)

    def test_corpus_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t2\n1\t1\t3\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header says 2 entries, body has shape (1, 3)")):
            read_corpus_tsv(path)

    @pytest.mark.parametrize("text, error", [
        ("2\t2\n0.5\t0.5\n\n0.5\n", "line 4: expected 2 fields, got 1"),
        ("1\t2\n# note\n0.5\tx\n", "line 3: cannot read 'x' as float64"),
        # a field loadtxt cannot read comes before a later line's fault
        ("2\t2\n0.5\tx\n0.5\n", "line 2: cannot read 'x' as float64"),
        ("2\t2\n0.5\tx\n0.5\t\u00e9\n", "line 2: cannot read 'x' as float64"),
        ("a\t2\n0.5\t0.5\n", "malformed header ['a', '2']"),
        ("2\t-1\n", "malformed header ['2', '-1']"),
        # float() and int() read digit-group underscores; the readers do not
        ("1\t2\n0.5\t1_0\n", "line 2: cannot read '1_0' as float64"),
        ("1\t2\t1\n1\t2\t1_0\n", "line 2: cannot read '1_0' as int64"),
        ("1_0\t2\n", "malformed header ['1_0', '2']"),
        ("1_0\t2\t1\n1\t1\t3\n", "malformed header ['1_0', '2', '1']"),
        ("1\t2\n0.5\t\u00e9\n", "line 2: cannot read byte 0xc3 as ASCII"),
        ("1\t2\t1\n1\t2\t\u00e9\n", "line 2: cannot read byte 0xc3 as ASCII"),
        # the first bad line in file order, wherever the decoder stops
        pytest.param("40\t2\n0.5\t0.5\n0.5\n" + "0.5\t0.5\n" * 37 + "0.5\t\u00e9\n",
                     "line 3: expected 2 fields, got 1", id="short-line-3-before-byte-line-41"),
        ("a\t2\n\u00e9\n", "malformed header ['a', '2']"),
        # loadtxt judges a field: this count overflows int64
        ("1\t1\t1\n1\t1\t99999999999999999999\n",
         "line 2: cannot read '99999999999999999999' as int64"),
        ("1\t2\n0.5\t\n", "line 2: cannot read '' as float64"),
        ("1\t2\n0.5\t0.5 # caf\u00e9\n", "line 2: cannot read byte 0xc3 as ASCII"),
        ("1\t2\u00e9\n0.5\t0.5\n", "line 1: cannot read byte 0xc3 as ASCII"),
        ("", "malformed header []"),
        # an empty body: a shape NumPy cannot make
        ("99999999999999999999\t0\n", "Maximum allowed dimension exceeded"),
    ])
    def test_dense_parse_error_names_file_and_line(self, tmp_path, text, error):
        # a header of three fields is a corpus's
        read = read_corpus_tsv if text.split("\n")[0].count("\t") == 2 else read_dense_tsv
        path = tmp_path / "bad.tsv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
            read(path)

    def test_error_no_line_explains_names_file(self, tmp_path):
        # every line reads, but a 0 x 10**19 array is larger than NumPy allows
        path = tmp_path / "huge.tsv"
        path.write_text("0\t10000000000000000000\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as info:
            read_dense_tsv(path)
        assert not re.search(r": line \d+: ", str(info.value))

    def test_corpus_record_error_names_file(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("2\t2\t1\n5\t2\t1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: document index "):
            read_corpus_tsv(path)

    def test_empty_dense_body_reads_without_warning(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("0\t3\n")
        assert read_dense_tsv(path).shape == (0, 3)

    def test_empty_corpus_body_is_empty_document_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("3\t2\t0\n")
        with pytest.raises(ValueError, match="document 0 is empty"):
            read_corpus_tsv(path)

    def test_corpus_round_trip(self, tmp_path):
        c = random_corpus(N=12, M=9, seed=3)
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(path, c)
        c2 = read_corpus_tsv(path)
        npt.assert_array_equal(c.docs, c2.docs)
        npt.assert_array_equal(c.words, c2.words)
        npt.assert_array_equal(c.counts, c2.counts)
        assert (c.M, c.N) == (c2.M, c2.N)

    def test_corpus_file_is_one_based(self, tmp_path):
        c = Corpus(docs=[0], words=[0], counts=[2], M=1, N=1)
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(path, c)
        assert path.read_text().splitlines()[1] == "1\t1\t2"

    @pytest.mark.parametrize("blocks", [0.5, 2.3])
    def test_corpus_file_matches_savetxt(self, tmp_path, blocks):
        # within one write block, and across blocks with a partial last one;
        # counts reach past 2**32 so wide integers are formatted too
        rng = np.random.default_rng(11)
        nnz = int(blocks * WRITE_BLOCK)
        M, N = nnz // 40, 5_000  # ~40 entries per document, none empty
        keys = np.unique(rng.integers(0, M * N, size=nnz))
        c = Corpus(docs=keys // N, words=keys % N,
                   counts=rng.integers(1, 2**40, size=keys.size), M=M, N=N)
        assert keys.size % WRITE_BLOCK != 0
        write_corpus_tsv(tmp_path / "new.tsv", c)
        savetxt_corpus_reference(tmp_path / "ref.tsv", c)
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    def test_corpus_writer_peak_does_not_grow_with_entries(self, tmp_path):
        # the writer holds one block's ids and strings, whatever the corpus size
        peaks = []
        for blocks in (4, 16):
            keys = np.arange(blocks * WRITE_BLOCK)
            c = Corpus(docs=keys // 8, words=keys % 8, counts=keys % 5 + 1, M=keys.size // 8, N=8)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                write_corpus_tsv(tmp_path / "corpus.tsv", c)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("bad_line", [2, WRITE_BLOCK + 1, WRITE_BLOCK + 2, 3 * WRITE_BLOCK + 1])
    def test_rescan_reads_a_block_per_loadtxt_call(self, tmp_path, monkeypatch, bad_line):
        # line 1 is the header, so body line WRITE_BLOCK + 1 ends the first block
        keys = np.arange(3 * WRITE_BLOCK)
        c = Corpus(docs=keys // 8, words=keys % 8, counts=np.ones_like(keys), M=keys.size // 8, N=8)
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(path, c)
        lines = path.read_text().splitlines(keepends=True)
        lines[bad_line - 1] = lines[bad_line - 1].replace("\t1\n", "\tx\n")
        path.write_text("".join(lines))
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {bad_line}: "
                                             "cannot read 'x' as int64$"):
            read_corpus_tsv(path)
        # the strict read, one call per block up to the bad line's, and the
        # fields of that block's lines up to and including the bad one
        blocks = (bad_line - 2) // WRITE_BLOCK + 1
        fields = 3 * ((bad_line - 2) % WRITE_BLOCK + 1)
        assert len(calls) == 1 + blocks + fields

    def test_zero_based_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("1\t2\t1\n0\t1\t3\n")
        with pytest.raises(ValueError, match="1-based"):
            read_corpus_tsv(path)

    def test_model_round_trip_and_symmetrization(self, tmp_path):
        m = random_model(N=8, K=3, seed=5)
        write_model(tmp_path / "model", m)
        m2 = load_model(tmp_path / "model")
        npt.assert_array_equal(m.B, m2.B)
        npt.assert_array_equal(m.A, m2.A)
        # a slightly asymmetric A file is accepted after symmetrization
        A = np.array(m.A)
        A[0, 1] += 3e-9
        write_dense_tsv(tmp_path / "model" / "A.tsv", A)
        m3 = load_model(tmp_path / "model")
        npt.assert_allclose(m3.A, (A + A.T) / 2, atol=1e-16)

    def test_skewed_model_file_rejected(self, tmp_path):
        # symmetrizing this A would give [[0.5, 0.25], [0.25, 0]], which
        # TopicModel accepts although the file's A is not symmetric
        write_model(tmp_path, TopicModel(B=np.eye(2), A=np.eye(2) / 2))
        write_dense_tsv(tmp_path / "A.tsv", [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"A\.tsv: A is not symmetric"):
            load_model(tmp_path)

    def test_non_square_A_file_rejected(self, tmp_path):
        # symmetrizing would broadcast a 1 x 3 A to the 3 x 3 all-1/9 matrix
        write_model(tmp_path, TopicModel(B=np.eye(3), A=np.eye(3) / 3))
        write_dense_tsv(tmp_path / "A.tsv", np.full((1, 3), 1 / 9))
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path}: A has shape (1, 3), expected (3, 3) to match B")):
            load_model(tmp_path)

    def test_composition_round_trip(self, tmp_path):
        comp = CompositionMatrix(np.array([[0.25, 1.0], [0.75, 0.0]]))
        path = tmp_path / "W.tsv"
        from topic_compose import write_composition_tsv

        write_composition_tsv(path, comp)
        npt.assert_array_equal(read_composition_tsv(path).W, comp.W)


class TestCompositionMatrix:
    def test_column_sum_tolerance(self):
        CompositionMatrix([[0.5 + 5e-7], [0.5]])
        with pytest.raises(ValueError, match="sums to"):
            CompositionMatrix([[0.5 + 5e-6], [0.5]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CompositionMatrix([[1.1], [-0.1]])


def _composition():
    return CompositionMatrix([[0.25, 1.0], [0.75, 0.0]])


def _corpus():
    return Corpus(docs=[0, 1], words=[0, 1], counts=[2, 3], M=2, N=2)


ARRAY_RECORDS = {
    "TopicModel": lambda: TopicModel(B=np.eye(2), A=np.eye(2) / 2),
    "CompositionMatrix": _composition,
    "Corpus": _corpus,
    "TliInverse": lambda: TliInverse(np.eye(2)),
    "DirichletPrior": lambda: DirichletPrior.symmetric(3, 5.0),
    "LogisticNormalPrior": lambda: LogisticNormalPrior(np.zeros(2), np.eye(2)),
    "SynthOutput": lambda: SynthOutput(_corpus(), _composition(), np.eye(2) / 2),
    "EvalReport": lambda: evaluate_compositions(_composition(), _composition()),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True


# each input check of the records and of the dense writer: the call and its message
INVALID_INPUTS = {
    "Corpus-unequal-lengths": (lambda: Corpus(docs=[0, 0], words=[0], counts=[1, 1], M=1, N=2),
                               "docs, words and counts must have equal lengths"),
    "Corpus-no-documents": (lambda: Corpus(docs=[], words=[], counts=[], M=0, N=2),
                            "corpus dimensions M=0, N=2 must be positive"),
    "Corpus-no-words": (lambda: Corpus(docs=[], words=[], counts=[], M=1, N=0),
                        "corpus dimensions M=1, N=0 must be positive"),
    "Corpus-document-out-of-range": (lambda: Corpus(docs=[1], words=[0], counts=[1], M=1, N=2),
                                     "document index out of range [0, 1)"),
    "Corpus-word-out-of-range": (lambda: Corpus(docs=[0], words=[2], counts=[1], M=1, N=2),
                                 "word index out of range [0, 2)"),
    # 2.5 documents would count as more than two, and report document 2 empty
    "Corpus-non-integer-M": (lambda: Corpus(docs=[0, 1], words=[0, 0], counts=[1, 1], M=2.5, N=2),
                             "corpus dimensions M=2.5, N=2 must be integers"),
    "Corpus-non-integer-N": (lambda: Corpus(docs=[0], words=[0], counts=[1], M=1, N=2.0),
                             "corpus dimensions M=1, N=2.0 must be integers"),
    # NumPy's int64 copy would truncate 0.5 to 0 and 1.7 to 1
    "Corpus-non-integer-docs": (
        lambda: Corpus(docs=[0.5, 1], words=[0, 0], counts=[1.7, 1], M=2, N=2),
        "docs must hold integers, got dtype float64"),
    "Corpus-non-integer-words": (
        lambda: Corpus(docs=[0, 1], words=[0, 0.5], counts=[1, 1], M=2, N=2),
        "words must hold integers, got dtype float64"),
    "Corpus-non-integer-counts": (
        lambda: Corpus(docs=[0, 1], words=[0, 0], counts=[1.7, 1], M=2, N=2),
        "counts must hold integers, got dtype float64"),
    # the count matrix's flat indices docs * N + words would overflow int64
    "Corpus-M-times-N-overflows-int64": (
        lambda: Corpus(docs=[0, 4], words=[0, 0], counts=[1, 1], M=5, N=2**62),
        f"corpus dimensions M=5, N={2**62} have M*N >= 2**63"),
    "TopicModel-non-finite-B": (lambda: TopicModel(B=[[np.nan], [1.0]], A=[[1.0]]),
                                "B contains non-finite entries"),
    "TopicModel-B-not-a-matrix": (lambda: TopicModel(B=[0.5, 0.5], A=[[1.0]]),
                                  "B must be a matrix, got ndim=1"),
    "TopicModel-no-topics": (lambda: TopicModel(B=np.zeros((2, 0)), A=np.zeros((0, 0))),
                             "model must have at least one topic"),
    "TopicModel-A-wrong-shape": (lambda: TopicModel(B=np.eye(2), A=np.eye(3) / 3),
                                 "A has shape (3, 3), expected (2, 2) to match B"),
    "CompositionMatrix-not-a-matrix": (lambda: CompositionMatrix([0.5, 0.5]),
                                       "W must be a matrix"),
    "CompositionMatrix-no-documents": (lambda: CompositionMatrix(np.zeros((2, 0))),
                                       "W has degenerate shape (2, 0)"),
    "TliInverse-not-a-matrix": (lambda: TliInverse(np.ones(2)), "Bdagger must be a matrix"),
    "TliInverse-non-finite": (lambda: TliInverse([[1.0, np.inf]]),
                              "Bdagger contains non-finite entries"),
    "LogisticNormalPrior-non-finite-mu": (lambda: LogisticNormalPrior([0.0, np.nan], np.eye(2)),
                                          "mu must be a finite vector"),
    # raises before the file is opened
    "write_dense_tsv-not-a-matrix": (lambda: write_dense_tsv(os.devnull, np.ones(3)),
                                     "expected a matrix"),
}


@pytest.mark.parametrize("call, message", INVALID_INPUTS.values(), ids=INVALID_INPUTS.keys())
def test_invalid_input_names_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
