import hashlib
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from topic_compose import (
    DirichletPrior,
    FixedLength,
    LogisticNormalPrior,
    PoissonLength,
    TopicModel,
    synthesize,
    write_corpus_tsv,
)
import topic_compose.synth as synth_module
from topic_compose.parallel import map_chunks
from conftest import random_model
from oracles import dirichlet_second_moment


def draw_bag(B, w, length, rng):
    """One bag of `length` words from the mixture B @ w, as synthesis draws
    it: (word indices, counts) of the nonzero entries, indices ascending."""
    return synth_module._bags(B, np.asarray(w, dtype=np.float64)[None, :], [length], rng)[1:]


class TestPriors:
    def test_dirichlet_alpha_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DirichletPrior(alpha=[0.5, 0.0])

    def test_symmetric_helper_splits_mass(self):
        p = DirichletPrior.symmetric(4, 5.0)
        npt.assert_array_equal(p.alpha, [1.25] * 4)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan])
    def test_symmetric_helper_rejects_bad_total_concentration(self, mass):
        with pytest.raises(ValueError, match="total concentration must be positive and finite"):
            DirichletPrior.symmetric(4, mass)

    def test_symmetric_helper_rejects_no_topics(self):
        with pytest.raises(ValueError, match="K must be an integer >= 1, got 0"):
            DirichletPrior.symmetric(0, 5.0)
        # the split is the one every synthesized stream was drawn with
        for K in range(1, 51):
            for mass in (0.1, 1.0, 5.0, 2.0 * K):
                alpha = DirichletPrior.symmetric(K, mass).alpha
                assert alpha.tobytes() == np.full(K, mass / K).tobytes()

    @pytest.mark.parametrize("K", [2.5, -1, "3"])  # 0 above
    def test_symmetric_helper_names_a_bad_topic_count(self, K):
        with pytest.raises(ValueError, match=re.escape(
                f"need at least one topic: K must be an integer >= 1, got {K!r}")):
            DirichletPrior.symmetric(K, 5.0)

    def test_symmetric_helper_takes_numpy_integers(self):
        assert DirichletPrior.symmetric(np.int64(3), 6.0).alpha.tobytes() == np.full(3, 2.0).tobytes()

    def test_logistic_normal_shape_checks(self):
        with pytest.raises(ValueError, match="sigma"):
            LogisticNormalPrior(mu=[0.0, 0.0], sigma=np.eye(3))
        with pytest.raises(ValueError, match="symmetric"):
            LogisticNormalPrior(mu=[0.0, 0.0], sigma=[[1.0, 0.5], [0.0, 1.0]])

    def test_indefinite_sigma_rejected_at_construction(self):
        with pytest.raises(ValueError, match="semidefinite"):
            LogisticNormalPrior(mu=[0.0, 0.0], sigma=[[1.0, 0.0], [0.0, -1.0]])

    def test_sigma_factored_once_read_only(self):
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        prior = LogisticNormalPrior(mu=[0.0, 0.0], sigma=sigma)
        npt.assert_allclose(prior.factor @ prior.factor.T, sigma, atol=1e-15)
        assert not prior.factor.flags.writeable
        assert "factor" not in repr(prior)

    def test_lengths_validated(self):
        with pytest.raises(ValueError):
            FixedLength(0)
        with pytest.raises(ValueError):
            PoissonLength(0.5)
        # word counts are held as int32
        with pytest.raises(ValueError):
            FixedLength(2**31)
        with pytest.raises(ValueError):
            PoissonLength(2.0**31)

    def test_non_integer_fixed_length_rejected(self):
        # synthesize would fail casting its lengths, naming no argument
        with pytest.raises(ValueError, match=r"^document length must be an integer in \[1, 2147483647\], got 5\.5$"):
            FixedLength(5.5)
        assert FixedLength(np.int64(5)).n == 5

    def test_non_number_poisson_mean_rejected(self):
        with pytest.raises(ValueError, match=r"^mean length must be a real number in \[1, 1073741823\], got '3'$"):
            PoissonLength("3")
        assert PoissonLength(np.float64(3.0)).mean == 3.0

    def test_length_models_draw_rows(self):
        rng = np.random.default_rng(12)
        npt.assert_array_equal(FixedLength(7).draw(4, rng), [7, 7, 7, 7])
        npt.assert_array_equal(PoissonLength(1.0).draw(5, rng), np.ones(5))


class TestSampleDirichlet:
    def test_single_topic_exact(self):
        rng = np.random.default_rng(1)
        npt.assert_array_equal(DirichletPrior([2.5]).draw(3, rng), [[1.0]] * 3)

    def test_mean_matches_analytic(self):
        rng = np.random.default_rng(2)
        draws = DirichletPrior(np.full(5, 1.0)).draw(100_000, rng)
        npt.assert_allclose(draws.mean(axis=0), 0.2, atol=0.01)

    def test_variance_matches_analytic(self):
        rng = np.random.default_rng(3)
        draws = DirichletPrior([1.0, 1.0]).draw(100_000, rng)
        # Dir(1,1) coordinate is uniform on [0,1]: variance 1/12
        assert draws[:, 0].var() == pytest.approx(1.0 / 12.0, abs=0.005)

    def test_always_on_simplex(self):
        rng = np.random.default_rng(4)
        W = DirichletPrior(np.full(8, 0.05)).draw(200, rng)
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12 and W.min() >= 0.0


class TestSampleLogisticNormal:
    def test_zero_covariance_is_softmax(self):
        rng = np.random.default_rng(5)
        w = LogisticNormalPrior(mu=[1.0, 0.0], sigma=np.zeros((2, 2))).draw(1, rng)[0]
        e = math.exp(1.0)
        npt.assert_allclose(w, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-15)
        assert w[0] == pytest.approx(0.7311, abs=1e-4)

    def test_symmetric_coordinates_balanced(self):
        rng = np.random.default_rng(6)
        draws = LogisticNormalPrior(mu=np.zeros(2), sigma=np.eye(2)).draw(100_000, rng)
        assert draws[:, 0].mean() == pytest.approx(0.5, abs=0.01)

    def test_on_simplex(self):
        rng = np.random.default_rng(7)
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        W = LogisticNormalPrior(mu=np.zeros(2), sigma=sigma).draw(200, rng)
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12 and W.min() >= 0.0

    def test_psd_repair_accepts_tiny_negative_eigenvalue(self):
        # rank-one covariance perturbed just below zero still factors
        v = np.array([1.0, -1.0])
        sigma = np.outer(v, v) - 5e-11 * np.eye(2)
        rng = np.random.default_rng(8)
        w = LogisticNormalPrior(mu=np.zeros(2), sigma=sigma).draw(1, rng)[0]
        assert abs(w.sum() - 1.0) <= 1e-12


class TestSampleDocument:
    def test_deterministic_category(self):
        rng = np.random.default_rng(9)
        idx, cnt = draw_bag(np.eye(2), np.array([1.0, 0.0]), 5, rng)
        npt.assert_array_equal(idx, [0])
        npt.assert_array_equal(cnt, [5])

    def test_frequency_concentrates(self):
        rng = np.random.default_rng(10)
        idx, cnt = draw_bag(np.eye(2), np.array([0.5, 0.5]), 100_000, rng)
        freq = cnt[list(idx).index(0)] / 100_000
        assert freq == pytest.approx(0.5, abs=0.005)

    def test_single_token(self):
        rng = np.random.default_rng(11)
        idx, cnt = draw_bag(np.eye(3), np.array([0.2, 0.5, 0.3]), 1, rng)
        assert idx.size == 1 and cnt[0] == 1


class TestSynthesize:
    def test_single_doc_single_topic(self):
        m = TopicModel(B=np.ones((2, 1)) / 2, A=[[1.0]])
        cfg = dict(prior=DirichletPrior.symmetric(1, 5.0), docs=1,
                   doc_length=FixedLength(4), seed=0)
        out = synthesize(m, **cfg)
        npt.assert_array_equal(out.Wstar.W, [[1.0]])
        npt.assert_array_equal(out.Astar, [[1.0]])
        assert out.corpus.lengths[0] == 4

    def test_moment_matches_analytic_dirichlet(self):
        m = random_model(N=30, K=5, seed=20)
        alpha = np.full(5, 1.0)
        cfg = dict(prior=DirichletPrior(alpha), docs=10_000,
                   doc_length=FixedLength(5), seed=21)
        out = synthesize(m, **cfg, threads=4)
        expected = dirichlet_second_moment(alpha)
        assert np.abs(out.Astar - expected).max() <= 0.01

    def test_wstar_columns_on_simplex(self):
        m = random_model(N=20, K=4, seed=22)
        cfg = dict(prior=DirichletPrior.symmetric(4, 5.0), docs=300,
                   doc_length=PoissonLength(30.0), seed=23)
        out = synthesize(m, **cfg)
        npt.assert_allclose(out.Wstar.W.sum(axis=0), 1.0, atol=1e-12)
        npt.assert_array_equal(out.Astar, out.Astar.T)
        assert not out.Astar.flags.writeable
        assert abs(out.Astar.sum() - 1.0) <= 1e-10

    def test_poisson_lengths_never_empty_and_mean_close(self):
        m = random_model(N=25, K=3, seed=24)
        cfg = dict(prior=DirichletPrior.symmetric(3, 5.0), docs=4000,
                   doc_length=PoissonLength(12.0), seed=25)
        out = synthesize(m, **cfg)
        assert out.corpus.lengths.min() >= 1
        assert out.corpus.lengths.mean() == pytest.approx(12.0, abs=0.3)

    def test_seed_reproducible_files(self, tmp_path):
        m = random_model(N=20, K=3, seed=26)
        cfg = dict(prior=DirichletPrior.symmetric(3, 5.0), docs=50,
                   doc_length=FixedLength(42), seed=42)
        a = synthesize(m, **cfg)
        b = synthesize(m, **cfg)
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_corpus_tsv(pa, a.corpus)
        write_corpus_tsv(pb, b.corpus)
        assert pa.read_bytes() == pb.read_bytes()
        npt.assert_array_equal(a.Wstar.W, b.Wstar.W)

    @staticmethod
    def _priors(K):
        return (DirichletPrior.symmetric(K, 5.0),
                LogisticNormalPrior(mu=np.zeros(K), sigma=0.5 * np.eye(K) + 0.1))

    def test_threads_do_not_change_output(self, monkeypatch):
        # several document chunks, the last one partial, on the pool
        pool_threads = []

        def spy(total, chunk, fn, threads):
            pool_threads.append(threads)
            return map_chunks(total, chunk, fn, threads)

        monkeypatch.setattr(synth_module, "map_chunks", spy)
        m = random_model(N=20, K=4, seed=27)
        docs = 3 * synth_module._DOC_CHUNK + 50
        for prior in self._priors(4):
            cfg = dict(prior=prior, docs=docs, doc_length=PoissonLength(20.0), seed=28)
            pool_threads.clear()
            a = synthesize(m, **cfg, threads=1)
            for threads in (2, 4):
                b = synthesize(m, **cfg, threads=threads)
                npt.assert_array_equal(a.Wstar.W, b.Wstar.W)
                npt.assert_array_equal(a.corpus.docs, b.corpus.docs)
                npt.assert_array_equal(a.corpus.counts, b.corpus.counts)
                npt.assert_array_equal(a.corpus.words, b.corpus.words)
            assert pool_threads == [1, 2, 4]

    @pytest.mark.parametrize("length", [FixedLength(15), PoissonLength(20.0)],
                             ids=["fixed", "poisson"])
    def test_prefix_stable(self, monkeypatch, length):
        # a shorter corpus is the first documents of a longer one, also when
        # it ends inside a chunk
        monkeypatch.setattr(synth_module, "_DOC_CHUNK", 256)
        m = random_model(N=20, K=4, seed=32)
        for prior in self._priors(4):
            short, long = (
                synthesize(m, prior, docs, length, seed=33)
                for docs in (300, 700)
            )
            npt.assert_array_equal(short.Wstar.W, long.Wstar.W[:, :300])
            keep = long.corpus.docs < 300
            npt.assert_array_equal(short.corpus.docs, long.corpus.docs[keep])
            npt.assert_array_equal(short.corpus.words, long.corpus.words[keep])
            npt.assert_array_equal(short.corpus.counts, long.corpus.counts[keep])

    def test_underflowed_rows_redrawn_and_tiny_alpha_raises(self):
        m = random_model(N=20, K=2, seed=34)
        # about a fifth of Dirichlet(1e-3, 1e-3) draws underflow to all zeros
        cfg = dict(prior=DirichletPrior([1e-3, 1e-3]), docs=300,
                   doc_length=FixedLength(5), seed=35)
        npt.assert_allclose(synthesize(m, **cfg).Wstar.W.sum(axis=0), 1.0, atol=1e-12)
        cfg = dict(prior=DirichletPrior([1e-300, 1e-300]), docs=300,
                   doc_length=FixedLength(5), seed=35)
        with pytest.raises(RuntimeError, match="underflowed"):
            synthesize(m, **cfg)
        with pytest.raises(RuntimeError, match="underflowed"):
            DirichletPrior([1e-300, 1e-300]).draw(1, np.random.default_rng(36))

    def test_logistic_normal_end_to_end(self):
        m = random_model(N=20, K=4, seed=29)
        sigma = 0.5 * np.eye(4) + 0.1
        prior = LogisticNormalPrior(mu=np.zeros(4), sigma=sigma)
        cfg = dict(prior=prior, docs=100, doc_length=FixedLength(15), seed=30)
        out = synthesize(m, **cfg)
        npt.assert_allclose(out.Wstar.W.sum(axis=0), 1.0, atol=1e-12)

    def test_prior_topic_count_must_match(self):
        m = random_model(N=20, K=4, seed=31)
        with pytest.raises(ValueError, match="topics"):
            synthesize(m, DirichletPrior.symmetric(3, 5.0), 5, FixedLength(5))

    def test_needs_a_document(self):
        m = random_model(N=20, K=4, seed=31)
        with pytest.raises(ValueError, match="at least one document"):
            synthesize(m, DirichletPrior.symmetric(4, 5.0), 0, FixedLength(5))

    def test_non_integer_docs_rejected(self):
        m = random_model(N=20, K=4, seed=31)
        prior = DirichletPrior.symmetric(4, 5.0)
        with pytest.raises(ValueError, match=r"docs must be an integer >= 1, got 2\.5$"):
            synthesize(m, prior, 2.5, FixedLength(3))
        assert synthesize(m, prior, np.int64(3), FixedLength(3)).corpus.M == 3


# SHA-256 of synthesize's corpus arrays, Wstar and Astar as versions 0.4.0
# and 0.5.0 draw them; another digest means every seed gives another corpus
STREAM_DIGESTS = {
    "dirichlet-poisson": "60e18428139e2a19a1a38b38e0dcac20fb319ac3f4abf19b9fa559b65b3a69cb",
    "logistic-normal-fixed": "ab39d207b39e1062b79df0d6ca3a4bdd6d5c0f9722ac88b4ad7b8ec027dc5271",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
def test_stream_is_pinned(case, threads):
    # 300 documents: one whole chunk and a partial one
    prior, length = {
        "dirichlet-poisson": (DirichletPrior(np.full(4, 1.25)), PoissonLength(20.0)),
        "logistic-normal-fixed": (
            LogisticNormalPrior(mu=[0.5, 0.0, -0.5, 0.0], sigma=0.5 * np.eye(4) + 0.1),
            FixedLength(15)),
    }[case]
    cfg = dict(prior=prior, docs=300, doc_length=length, seed=41)
    out = synthesize(random_model(N=30, K=4, seed=40), **cfg, threads=threads)
    h = hashlib.sha256()
    for a in (out.corpus.docs, out.corpus.words, out.corpus.counts, out.Wstar.W, out.Astar):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == STREAM_DIGESTS[case]


@pytest.mark.parametrize("prior", ["dirichlet", "logistic-normal"])
@pytest.mark.parametrize("K, N", [(25, 500), (50, 500), (10, 4096)],
                         ids=["K25-N500", "K50-N500", "K10-N4096"])
def test_block_size_is_not_part_of_the_stream(monkeypatch, K, N, prior):
    # the multinomial block only bounds memory: one document, two per draw
    # or a whole 256-document chunk per draw give the same bytes
    m = random_model(N=N, K=K, seed=42)
    p = (DirichletPrior.symmetric(K, 5.0) if prior == "dirichlet"
         else LogisticNormalPrior(mu=np.zeros(K), sigma=0.5 * np.eye(K) + 0.1))
    cfg = dict(prior=p, docs=500, doc_length=PoissonLength(150.0), seed=43)
    ref = synthesize(m, **cfg)
    for block in (1, 2 * N, 1 << 22):
        monkeypatch.setattr(synth_module, "_BLOCK_ENTRIES", block)
        out = synthesize(m, **cfg)
        npt.assert_array_equal(out.corpus.docs, ref.corpus.docs)
        npt.assert_array_equal(out.corpus.words, ref.corpus.words)
        npt.assert_array_equal(out.corpus.counts, ref.corpus.counts)
        assert out.Wstar.W.tobytes() == ref.Wstar.W.tobytes()
