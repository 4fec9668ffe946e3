import dataclasses
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.optimize
import scipy.sparse

from topic_compose import (
    Corpus,
    TliConfig,
    TliInverse,
    TopicModel,
    padd_infer,
    spi_infer,
    tli_compute_inverse,
    tli_infer,
    tli_thresholds,
)
from topic_compose import estimators
from conftest import random_corpus, random_model
from oracles import dense_charnes_cooper_row, linf_left_inverse_lp, linf_left_inverse_oracle


def stochastic_matrix(N, K, seed, concentration=0.5):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(N, concentration), size=K).T


# Near-anchor topics have many optimal left-inverse rows, so only magnitudes
# are compared. On seed 1 the dense (b, t) form defeats HiGHS's dual simplex;
# seed 4 is ill-conditioned (smallest singular value 0.06).
NEAR_ANCHOR = [stochastic_matrix(60, 8, seed=s, concentration=0.01) for s in (1, 4)]
HIGHS_SMALL = 1e-9  # HiGHS's small_matrix_value default: it drops entries with |a| <= this


def near_singular_model(seed):
    """Two topics over 6 words that differ by 1e-10 of a second topic:
    every exact left inverse has magnitude ~1e10."""
    col, other = stochastic_matrix(6, 2, seed=seed).T
    B = np.column_stack([col, (1 - 1e-10) * col + 1e-10 * other])
    return TopicModel(B=B, A=np.eye(2) / 2)


class TestSpi:
    def test_single_topic(self):
        m = TopicModel(B=np.ones((3, 1)) / 3, A=[[1.0]])
        c = random_corpus(N=3, M=7, seed=0)
        W = spi_infer(m, c).W
        npt.assert_array_equal(W, np.ones((1, 7)))

    def test_identity_posterior_passes_frequencies_through(self, identity_model):
        m = identity_model(2)
        c = Corpus(docs=[0, 0], words=[0, 1], counts=[3, 1], M=1, N=2)
        npt.assert_allclose(spi_infer(m, c).W[:, 0], [0.75, 0.25], atol=1e-15)

    def test_single_token_doc_reads_off_posterior_column(self, tiny_model):
        c = Corpus(docs=[0], words=[0], counts=[1], M=1, N=2)
        npt.assert_allclose(spi_infer(tiny_model, c).W[:, 0], [0.75, 0.25], atol=1e-15)

    def test_columns_on_simplex_without_projection(self):
        for seed in range(4):
            m = random_model(N=30, K=6, seed=seed)
            c = random_corpus(N=30, M=40, seed=seed + 100)
            W = spi_infer(m, c).W
            npt.assert_allclose(W.sum(axis=0), 1.0, atol=1e-8)
            assert W.min() >= 0.0

    def test_dimension_mismatch(self, tiny_model):
        c = random_corpus(N=5, M=3, seed=1)
        with pytest.raises(ValueError, match="vocabulary"):
            spi_infer(tiny_model, c)


class TestTliInverse:
    def test_identity_is_its_own_inverse(self, identity_model):
        inv = tli_compute_inverse(identity_model(4), TliConfig())
        npt.assert_array_equal(np.abs(inv.Bdagger), np.eye(4))
        assert inv.magnitude == 1.0

    def test_rank_deficient_errors(self):
        col = stochastic_matrix(6, 1, seed=2)
        B = np.hstack([col, col])
        m = TopicModel(B=B, A=np.eye(2) / 2)
        with pytest.raises(RuntimeError, match="singular value"):
            tli_compute_inverse(m, TliConfig())

    def test_near_singular_errors_name_the_cause(self):
        # B^T c = s e_k is then met only within solver tolerance: either no
        # positive scale s is found or the unscaled row misses its bias budget
        for seed in range(4):
            col, other = stochastic_matrix(6, 2, seed=seed).T
            B = np.column_stack([col, (1 - 1e-10) * col + 1e-10 * other])
            m = TopicModel(B=B, A=np.eye(2) / 2)
            with pytest.raises(RuntimeError, match="singular value|bias .* on topic"):
                tli_compute_inverse(m, TliConfig())

    def test_near_singular_sweep_always_errors(self):
        # whichever optimal vertex HiGHS returns, a row of magnitude ~1e10
        # cannot have its bias certified
        for seed in range(16):
            with pytest.raises(RuntimeError, match="singular value|bias .* on topic"):
                tli_compute_inverse(near_singular_model(seed), TliConfig())

    @pytest.mark.parametrize("scale, certified", [(1e6, True), (1e12, False)],
                             ids=["certified", "uncertified"])
    def test_bias_certified_by_magnitude_not_vertex(self, monkeypatch, scale, certified):
        # exact rows plus a null-space direction of B^T: the true bias stays
        # 0, and only the rounding bound N eps magnitude says whether the
        # computed one can be trusted
        B = stochastic_matrix(6, 2, seed=3)
        exact = np.linalg.pinv(B)
        v = np.linalg.svd(B.T)[2][-1]
        npt.assert_allclose(B.T @ v, 0.0, atol=1e-12)
        monkeypatch.setattr(estimators, "_row_program",
                            lambda B, kept, bounds, k: exact[k] + scale * v)
        m = TopicModel(B=B, A=np.eye(2) / 2)
        if certified:
            inv = tli_compute_inverse(m, TliConfig())
            assert inv.bias <= 1e-6
            assert inv.magnitude == pytest.approx(np.abs(exact + scale * v).max())
        else:
            smin = np.linalg.svd(B, compute_uv=False)[-1]
            with pytest.raises(RuntimeError) as err:
                tli_compute_inverse(m, TliConfig())
            mag = np.abs(exact + scale * v).max(axis=1)
            message = str(err.value)
            assert f"topic {int(mag.argmax())} has magnitude {mag.max():.3g}" in message
            assert f"smallest singular value of B is {smin:.3e}" in message

    def test_bias_above_tolerance_is_runtime_error_naming_the_topic(self, monkeypatch):
        # a row of small magnitude, so rounding is certified, whose bias is
        # 1e-3: only the residual check can refuse it
        B = stochastic_matrix(6, 2, seed=3)
        rows = np.linalg.pinv(B)
        rows[1] *= 1.0 + 1e-3
        monkeypatch.setattr(estimators, "_row_program", lambda B, kept, bounds, k: rows[k])
        bias = np.abs(rows @ B - np.eye(2)).max()
        assert bias > 1e-6 and np.abs(rows).max() < 1e3
        with pytest.raises(RuntimeError) as err:
            tli_compute_inverse(TopicModel(B=B, A=np.eye(2) / 2), TliConfig())
        assert str(err.value) == (f"left inverse has bias {bias:.9g} on topic 1, above 1e-06; "
                                  "B is too ill-conditioned")

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_vertex_enumeration_oracle(self, seed):
        B = stochastic_matrix(6, 2, seed=seed)
        m = TopicModel(B=B, A=np.eye(2) / 2)
        inv = tli_compute_inverse(m, TliConfig())
        for k in range(2):
            t_star, _ = linf_left_inverse_oracle(B, k)
            assert np.abs(inv.Bdagger[k]).max() == pytest.approx(t_star, abs=1e-6)
        npt.assert_allclose(inv.Bdagger @ B, np.eye(2), atol=1e-9)

    def test_bias_residual_within_delta(self):
        for seed in range(4):
            B = stochastic_matrix(40, 8, seed=seed)
            m = random_model(N=40, K=8, seed=seed + 50)
            m = TopicModel(B=B, A=m.A)
            inv = tli_compute_inverse(m, TliConfig())
            assert np.abs(inv.Bdagger @ B - np.eye(8)).max() <= 1e-6
        for B in NEAR_ANCHOR:
            m = TopicModel(B=B, A=np.eye(8) / 8)
            inv = tli_compute_inverse(m, TliConfig())
            residual = np.abs(inv.Bdagger @ B - np.eye(8)).max()
            assert residual <= 1e-6
            assert inv.bias == pytest.approx(residual, abs=1e-12)
            for k in range(8):
                t_ref, _ = linf_left_inverse_lp(B, k)
                assert np.abs(inv.Bdagger[k]).max() == pytest.approx(t_ref, abs=1e-6)

    def test_magnitude_matches_recomputation(self):
        B = stochastic_matrix(20, 4, seed=7)
        m = TopicModel(B=B, A=np.eye(4) / 4)
        inv = tli_compute_inverse(m, TliConfig())
        assert inv.magnitude == pytest.approx(np.abs(inv.Bdagger).max(), abs=1e-10)

    def test_threads_do_not_change_result(self):
        for B in (stochastic_matrix(30, 6, seed=8), NEAR_ANCHOR[0]):
            m = TopicModel(B=B, A=np.eye(B.shape[1]) / B.shape[1])
            a = tli_compute_inverse(m, TliConfig(), threads=1)
            b = tli_compute_inverse(m, TliConfig(), threads=4)
            npt.assert_array_equal(a.Bdagger, b.Bdagger)

    def test_kept_entries_give_the_dense_program_bytes(self):
        # HiGHS drops every entry with |a| <= 1e-9 from the dense program
        # itself, so handing it only the kept ones changes no byte
        B = NEAR_ANCHOR[0]
        assert (B <= HIGHS_SMALL).mean() >= 0.5
        inv = tli_compute_inverse(TopicModel(B=B, A=np.eye(8) / 8), TliConfig())
        reference = np.array([dense_charnes_cooper_row(B, k) for k in range(8)])
        assert inv.Bdagger.tobytes() == reference.tobytes()

    def test_programs_hold_only_the_entries_highs_keeps(self, monkeypatch):
        B = NEAR_ANCHOR[0]
        N, K = B.shape
        linprog = scipy.optimize.linprog
        matrices = []

        def spy(*args, **kwargs):
            matrices.append(kwargs["A_eq"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(estimators.scipy.optimize, "linprog", spy)
        tli_compute_inverse(TopicModel(B=B, A=np.eye(K) / K), TliConfig())
        assert len(matrices) == K
        for A in matrices:
            assert scipy.sparse.issparse(A)
            assert A.shape == (K, N + 1)
            assert (np.abs(A.data) > HIGHS_SMALL).all()

    def test_lp_magnitude_at_most_least_squares_inverse(self):
        B = stochastic_matrix(20, 4, seed=3)
        m = TopicModel(B=B, A=np.eye(4) / 4)
        ls = np.linalg.solve(B.T @ B, B.T)  # (B^T B)^-1 B^T, also unbiased
        npt.assert_allclose(ls @ B, np.eye(4), atol=1e-8)
        # an exact unbiased inverse can never have a smaller max entry than the LP
        lp = tli_compute_inverse(m, TliConfig())
        assert np.abs(ls).max() >= lp.magnitude - 1e-9


class TestTliConfig:
    def test_validation(self):
        # the divisor is a module constant, not a setting: TliConfig holds nothing
        assert estimators.THRESHOLD_DIVISOR == 4.5
        assert dataclasses.fields(TliConfig) == ()
        assert not hasattr(TliConfig, "threshold_divisor")
        with pytest.raises(TypeError, match="threshold_divisor"):
            TliConfig(threshold_divisor=4.5)
        # the left inverse is always the exact LP; there is no solver to
        # pick and no bias to allow
        with pytest.raises(TypeError, match="solver"):
            TliConfig(solver="lp")
        with pytest.raises(TypeError, match="delta"):
            TliConfig(delta=0.0)


class TestTliInfer:
    def test_threshold_formula(self, identity_model):
        m = identity_model(2)
        inv = tli_compute_inverse(m, TliConfig())
        tau = tli_thresholds(inv, [100])
        expected = 2.0 * math.sqrt(math.log(2.0) / 100.0) / 4.5
        assert tau[0] == pytest.approx(expected, abs=1e-15)
        assert tau[0] == pytest.approx(0.0370024, abs=1e-6)

    def test_survivors_pass_through(self, identity_model):
        m = identity_model(2)
        c = Corpus(docs=[0, 0], words=[0, 1], counts=[90, 10], M=1, N=2)
        inv = tli_compute_inverse(m, TliConfig())
        W = tli_infer(inv, m, c, TliConfig()).W
        npt.assert_allclose(W[:, 0], [0.9, 0.1], atol=1e-12)

    def test_small_entries_zeroed_and_renormalized(self, identity_model):
        m = identity_model(2)
        # one token of word 1 in a 50-token doc: frequency 0.02 < tau ~ 0.037
        c = Corpus(docs=[0, 0], words=[0, 1], counts=[49, 1], M=1, N=2)
        inv = tli_compute_inverse(m, TliConfig())
        W = tli_infer(inv, m, c, TliConfig()).W
        npt.assert_array_equal(W[:, 0], [1.0, 0.0])

    def test_uniform_fallback_when_everything_thresholded(self, identity_model, monkeypatch):
        m = identity_model(4)
        # at the divisor of 4.5, tau ~ 0.15 keeps the last three words
        c = Corpus(docs=[0, 0, 0, 0], words=[0, 1, 2, 3], counts=[1, 2, 3, 6], M=1, N=4)
        monkeypatch.setattr(estimators, "THRESHOLD_DIVISOR", 0.1)  # tau far past any entry
        inv = tli_compute_inverse(m)
        W = tli_infer(inv, m, c).W
        npt.assert_array_equal(W[:, 0], [0.25, 0.25, 0.25, 0.25])

    def test_single_topic(self):
        m = TopicModel(B=np.ones((2, 1)) / 2, A=[[1.0]])
        c = Corpus(docs=[0], words=[1], counts=[5], M=1, N=2)
        inv = tli_compute_inverse(m, TliConfig())
        W = tli_infer(inv, m, c, TliConfig()).W
        npt.assert_array_equal(W, [[1.0]])

    def test_columns_exactly_on_simplex(self):
        m = random_model(N=40, K=5, seed=21)
        c = random_corpus(N=40, M=60, seed=22)
        inv = tli_compute_inverse(m, TliConfig())
        W = tli_infer(inv, m, c, TliConfig()).W
        npt.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
        assert W.min() >= 0.0

    def test_negative_raw_mass_removed(self, identity_model):
        # hand-built inverse producing raw [1.05, -0.05]
        m = identity_model(2)
        Bd = np.array([[1.05, 0.0], [0.0, -0.05]])
        inv = TliInverse(Bdagger=Bd)
        c = Corpus(docs=[0, 0], words=[0, 1], counts=[999, 1], M=1, N=2)
        W = tli_infer(inv, m, c, TliConfig()).W
        assert W[1, 0] == 0.0 and W[0, 0] == 1.0

    def test_peak_memory_is_three_estimate_arrays(self):
        # a tli-k50-sized batch: the estimate is thresholded and renormalized
        # in place, so the peak is about the estimate, the returned copy and
        # the sparse frequencies (3.2 estimates when each step made a new one)
        K, M, N = 50, 1024, 500
        rng = np.random.default_rng(5)
        B = rng.dirichlet(np.full(N, 0.01), size=K).T
        model = TopicModel(B=B, A=np.eye(K) / K)
        counts = rng.multinomial(1 + rng.poisson(149, size=M),
                                 rng.dirichlet(np.full(K, 5.0 / K), size=M) @ B.T)
        docs, words = np.nonzero(counts)
        corpus = Corpus(docs=docs, words=words, counts=counts[docs, words], M=M, N=N)
        inverse = TliInverse(np.linalg.pinv(B))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tli_infer(inverse, model, corpus)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * K * M * 8, peak / (K * M * 8)

    def test_overflowing_estimate_is_runtime_error(self, identity_model):
        # frequencies 0.4 and 0.6 weight two largest floats; their sum
        # rounds past the largest float to inf
        inv = TliInverse(Bdagger=np.full((2, 2), np.finfo(float).max))
        c = Corpus(docs=[0, 0], words=[0, 1], counts=[2, 3], M=1, N=2)
        with pytest.raises(RuntimeError, match="^left-inverse estimate produced non-finite "
                                               "entries$"):
            tli_infer(inv, identity_model(2), c, TliConfig())


@pytest.mark.parametrize("method, corpus_N, inverse_shape, message", [
    ("tli", 3, (2, 2), "corpus vocabulary 3 != model vocabulary 2"),
    ("tli", 2, (2, 3), "inverse has shape (2, 3), expected (2, 2)"),
    ("padd", 3, None, "corpus vocabulary 3 != model vocabulary 2"),
], ids=["tli-vocabulary", "tli-inverse-shape", "padd-vocabulary"])
def test_mismatched_input_rejected(tiny_model, method, corpus_N, inverse_shape, message):
    corpus = random_corpus(N=corpus_N, M=3, seed=1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if method == "tli":
            tli_infer(TliInverse(np.ones(inverse_shape)), tiny_model, corpus)
        else:
            padd_infer(tiny_model, corpus)
