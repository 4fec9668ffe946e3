import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from topic_compose import (
    Corpus,
    DirichletPrior,
    FixedLength,
    PaddConfig,
    PaddDiagnostics,
    SynthConfig,
    TopicModel,
    admm_dr_solve,
    padd_infer,
    synthesize,
    word_topic_posterior,
    normalize_corpus,
)
from topic_compose.padd import _prox_inverse, _symmetrize
from conftest import random_corpus, random_model
from oracles import grid_min_quadratic


def grid_truth_instance(K, M, seed, doc_len=10_000, grid=100):
    """Noiseless identifiable setup: B = I, compositions on the 1/grid
    lattice, documents sampled exactly proportional to B w*."""
    rng = np.random.default_rng(seed)
    Wstar = rng.multinomial(grid, rng.dirichlet(np.ones(K)), size=M).T / grid
    counts_full = (Wstar * doc_len).round().astype(np.int64)  # exact by construction
    docs, words, counts = [], [], []
    for m in range(M):
        idx = np.nonzero(counts_full[:, m])[0]
        docs += [m] * idx.size
        words += idx.tolist()
        counts += counts_full[idx, m].tolist()
    corpus = Corpus(docs=docs, words=words, counts=counts, M=M, N=K)
    P = Wstar @ Wstar.T
    A = (P + P.T) / (2.0 * M)
    model = TopicModel(B=np.eye(K), A=A)
    return model, corpus, Wstar


class TestDualStep:
    def test_inv_sqrt(self):
        m = random_model(N=20, K=3, seed=3)
        c = random_corpus(N=20, M=30, seed=4)
        cfg = PaddConfig(master_iters=4, slave_iters=10, tau0=0.1, dual_stop_tol=0.0)
        _, diag = padd_infer(m, c, cfg)
        assert diag.rounds == [1, 2, 3, 4]
        assert diag.tau[0] == 0.1
        assert diag.tau[3] == pytest.approx(0.05, abs=1e-15)


class TestPaddConfig:
    def test_defaults(self):
        cfg = PaddConfig()
        assert cfg.loss_weight == 3.0 and cfg.relaxation == 1.9
        assert cfg.master_iters == 15 and cfg.slave_iters == 150

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relaxation": 0.0},
            {"relaxation": 2.0},
            {"loss_weight": 0.0},
            {"master_iters": 0},
            {"slave_iters": 0},
            {"tau0": 0.0},
            {"slave_tol": 0.0},
            {"dual_stop_tol": -1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PaddConfig(**kwargs)


class TestAdmmDrSolve:
    def test_single_topic(self):
        w = admm_dr_solve(np.eye(1), np.zeros(1), np.ones(1))
        npt.assert_array_equal(w, [1.0])

    def test_identity_fixed_point(self):
        w0 = np.array([0.3, 0.5, 0.2])
        w = admm_dr_solve(np.eye(3), np.zeros(3), w0)
        npt.assert_allclose(w, w0, atol=1e-12)

    def test_matches_line_grid_oracle(self):
        B = np.array([[0.7, 0.1], [0.2, 0.6], [0.1, 0.3]])
        h = np.array([0.5, 0.3, 0.2])
        gamma = 3.0
        G = np.linalg.inv(gamma * (B.T @ B) + np.eye(2))
        f = gamma * (B.T @ h)
        w = admm_dr_solve(G, f, np.array([0.5, 0.5]))
        w_grid, _ = grid_min_quadratic(B, h, step=1e-4)
        npt.assert_allclose(w, w_grid, atol=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triangle_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.dirichlet(np.full(8, 0.6), size=3).T
        h = rng.dirichlet(np.full(8, 0.6))
        gamma = 3.0
        G = np.linalg.inv(gamma * (B.T @ B) + np.eye(3))
        f = gamma * (B.T @ h)
        w = admm_dr_solve(G, f, np.full(3, 1 / 3), max_iters=400)
        w_grid, obj_grid = grid_min_quadratic(B, h, step=1e-2)
        obj_w = float(((B @ w - h) ** 2).sum())
        assert obj_w <= obj_grid + 1e-9  # solver at least as good as the grid
        npt.assert_allclose(w, w_grid, atol=2e-2)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            K = int(rng.integers(2, 7))
            G0 = rng.standard_normal((K, K)) * 0.1
            G = G0 @ G0.T + np.eye(K)  # any SPD operator
            f = rng.standard_normal(K)
            w = admm_dr_solve(G, f, np.full(K, 1.0 / K), max_iters=80)
            assert abs(w.sum() - 1.0) <= 1e-9 and w.min() >= 0.0

    def test_rejects_bad_relaxation(self):
        with pytest.raises(ValueError, match="relaxation"):
            admm_dr_solve(np.eye(2), np.zeros(2), [0.5, 0.5], relaxation=2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            admm_dr_solve(np.eye(2), [np.nan, 0.0], [0.5, 0.5])


class TestProxInverse:
    def test_plain_inverse_when_well_conditioned(self):
        S = np.array([[2.0, 0.5], [0.5, 1.5]])
        G, min_eig = _prox_inverse(S, 1)
        assert G.tobytes() == _symmetrize(np.linalg.inv(S)).tobytes()
        npt.assert_array_equal(G, G.T)
        assert min_eig == np.linalg.eigvalsh(S)[0]

    def test_singular_matrix_raises(self):
        S = np.ones((3, 3))  # rank one
        with pytest.raises(RuntimeError, match="round 4 is not positive definite"):
            _prox_inverse(S, 4)


class TestPaddInfer:
    def test_single_topic_short_circuit(self):
        m = TopicModel(B=np.ones((4, 1)) / 4, A=[[1.0]])
        c = random_corpus(N=4, M=9, seed=0)
        comp, diag = padd_infer(m, c)
        npt.assert_array_equal(comp.W, np.ones((1, 9)))
        assert diag.rounds == []

    def test_zero_gap_keeps_dual_at_zero_and_stops(self):
        m0 = random_model(N=20, K=3, seed=5)
        c = random_corpus(N=20, M=30, seed=6)
        # round 1 always starts from a zero dual, so its solutions depend
        # only on B (the start point W0 does not move the unique minimizer);
        # match A to them and the first dual update vanishes
        tight = dict(slave_iters=5000, slave_tol=1e-13)
        comp1, _ = padd_infer(m0, c, PaddConfig(master_iters=1, **tight))
        P = comp1.W @ comp1.W.T
        A_matched = (P + P.T) / (2.0 * comp1.M)
        m = TopicModel(B=m0.B, A=A_matched)
        comp2, diag = padd_infer(m, c, PaddConfig(master_iters=6, **tight))
        # round 1 re-derives the same solutions, so the dual update vanishes
        assert len(diag.rounds) == 1
        assert diag.constraint_gap[0] <= 1e-9
        assert diag.dual_norm[0] <= 1e-9
        npt.assert_allclose(comp2.W, comp1.W, atol=1e-9)

    def test_noiseless_grid_instance_recovered(self):
        model, corpus, Wstar = grid_truth_instance(K=3, M=40, seed=7)
        comp, diag = padd_infer(model, corpus, PaddConfig(master_iters=5))
        l1 = np.abs(comp.W - Wstar).sum(axis=0)
        assert l1.mean() <= 0.05
        # each document's solution beats the triangle grid on its own loss
        for m in (0, 13, 39):
            w_grid, obj_grid = grid_min_quadratic(model.B, Wstar[:, m], step=1e-2)
            obj = float(((model.B @ comp.W[:, m] - Wstar[:, m]) ** 2).sum())
            assert obj <= obj_grid + 1e-9

    def test_matches_single_document_solver_when_dual_is_zero(self):
        m = random_model(N=15, K=3, seed=8)
        c = random_corpus(N=15, M=12, seed=9)
        cfg = PaddConfig(master_iters=1)
        comp, _ = padd_infer(m, c, cfg)
        Ht = normalize_corpus(c)
        W0 = word_topic_posterior(m).Bbreve @ Ht
        gamma = cfg.loss_weight
        G = np.linalg.inv(gamma * (m.B.T @ m.B) + np.eye(3))
        G = (G + G.T) / 2.0
        F = gamma * (m.B.T @ Ht)
        for j in range(c.M):
            w = admm_dr_solve(G, F[:, j], W0[:, j],
                              relaxation=cfg.relaxation,
                              max_iters=cfg.slave_iters, tol=cfg.slave_tol)
            npt.assert_allclose(comp.W[:, j], w, atol=1e-9)

    def test_columns_on_simplex_and_diagnostics_finite(self):
        m = random_model(N=25, K=4, seed=10)
        c = random_corpus(N=25, M=50, seed=11)
        diag = PaddDiagnostics()
        cfg = PaddConfig(master_iters=4)
        comp, diag = padd_infer(m, c, cfg, diagnostics=diag)
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-6)
        assert comp.W.min() >= 0.0
        assert len(diag.rounds) <= 4
        for field in (diag.tau, diag.constraint_gap, diag.mean_loss,
                      diag.dual_norm, diag.mean_final_step, diag.prox_min_eig):
            assert np.isfinite(field).all()
        assert diag.tau == [cfg.tau0 / math.sqrt(t) for t in diag.rounds]
        assert min(diag.prox_min_eig) > 0.0

    def test_constraint_gap_not_worse_than_round_one(self):
        rng = np.random.default_rng(12)
        B = rng.dirichlet(np.full(60, 0.1), size=5).T
        model0 = TopicModel(B=B, A=np.eye(5) / 5)
        synth = synthesize(
            model0,
            SynthConfig(prior=DirichletPrior.symmetric(5, 5.0), docs=600,
                        doc_length=FixedLength(80), seed=13),
        )
        model = TopicModel(B=B, A=synth.Astar)
        _, diag = padd_infer(model, synth.corpus, PaddConfig(master_iters=8))
        assert diag.constraint_gap[-1] <= diag.constraint_gap[0] + 1e-12

    @pytest.mark.parametrize("K, M", [(10, 5200), (7, 7400), (4, 6500)])
    def test_thread_count_does_not_change_result_across_blocks(self, K, M):
        # every corpus spans several slave blocks, the last one partial
        m = random_model(60, K, seed=20)
        c = random_corpus(60, M, seed=21)
        cfg = PaddConfig(master_iters=2, slave_iters=20)
        runs = [padd_infer(m, c, cfg, threads=n)[0].W.tobytes() for n in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_indefinite_prox_raises_without_warning(self):
        m = random_model(N=20, K=3, seed=1)
        c = random_corpus(N=20, M=40, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="positive definite"):
                padd_infer(m, c, PaddConfig(tau0=1e4, master_iters=6))

    def test_diagnostics_tsv(self, tmp_path):
        m = random_model(N=15, K=3, seed=18)
        c = random_corpus(N=15, M=10, seed=19)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=2))
        path = tmp_path / "diag.tsv"
        diag.write_tsv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("round\ttau\tconstraint_gap\tmean_loss\tdual_norm\t"
                            "mean_final_step\tdocs_converged\tprox_min_eig")
        assert len(lines) == 1 + len(diag.rounds)
        assert lines[1].split("\t")[0] == "1"
