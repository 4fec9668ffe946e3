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
    SynthConfig,
    TopicModel,
    padd_infer,
    project_simplex_columns,
    synthesize,
    word_topic_posterior,
    normalize_corpus,
)
import topic_compose.padd as padd_module
import topic_compose.simplex as simplex_module
from topic_compose.padd import _prox_inverse, _symmetrize
from conftest import random_corpus, random_model
from oracles import grid_min_quadratic, mean_reconstruction_loss, solve_one_document


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
        cfg = PaddConfig(master_iters=4, slave_iters=10, tau0=0.1)
        _, diag = padd_infer(m, c, cfg)
        assert diag.rounds == [1, 2, 3, 4]
        assert diag.tau[0] == 0.1
        assert diag.tau[3] == pytest.approx(0.05, abs=1e-15)


class TestPaddConfig:
    def test_defaults(self):
        cfg = PaddConfig()
        assert padd_module.RELAXATION == 1.9
        assert padd_module.GAP_STOP == 1e-6
        assert cfg.master_iters == 15 and cfg.slave_iters == 150

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"master_iters": 0},
            {"slave_iters": 0},
            {"tau0": 0.0},
            {"slave_tol": 0.0},
            {"tau0": math.inf},
            {"tau0": math.nan},
            {"slave_tol": math.nan},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PaddConfig(**kwargs)


class TestAdmmDrSolve:
    def test_single_topic(self):
        w = solve_one_document(np.eye(1), np.zeros(1), np.ones(1))
        npt.assert_array_equal(w, [1.0])

    def test_identity_fixed_point(self):
        # ||w - w0||^2 / 2 is minimized on the simplex at w0 itself
        w0 = np.array([0.3, 0.5, 0.2])
        w = solve_one_document(np.eye(3), w0, w0)
        npt.assert_allclose(w, w0, atol=1e-12)

    def test_matches_line_grid_oracle(self):
        B = np.array([[0.7, 0.1], [0.2, 0.6], [0.1, 0.3]])
        h = np.array([0.5, 0.3, 0.2])
        w = solve_one_document(B.T @ B, B.T @ h, np.array([0.5, 0.5]))
        w_grid, _ = grid_min_quadratic(B, h, step=1e-4)
        npt.assert_allclose(w, w_grid, atol=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triangle_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.dirichlet(np.full(8, 0.6), size=3).T
        h = rng.dirichlet(np.full(8, 0.6))
        w = solve_one_document(B.T @ B, B.T @ h, np.full(3, 1 / 3), max_iters=400)
        w_grid, obj_grid = grid_min_quadratic(B, h, step=1e-2)
        obj_w = float(((B @ w - h) ** 2).sum())
        assert obj_w <= obj_grid + 1e-9  # solver at least as good as the grid
        npt.assert_allclose(w, w_grid, atol=2e-2)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            K = int(rng.integers(2, 7))
            Q0 = rng.standard_normal((K, K)) * 0.1
            Q = Q0 @ Q0.T + np.eye(K)  # any SPD quadratic
            f = rng.standard_normal(K)
            w = solve_one_document(Q, f, np.full(K, 1.0 / K), max_iters=80)
            assert abs(w.sum() - 1.0) <= 1e-9 and w.min() >= 0.0

    @pytest.mark.parametrize("seed", [5819, 2577])
    def test_stops_only_where_prox_agrees(self, seed):
        # on these instances the projection pins w to a face for an
        # iteration while q still moves; a stop on |w_new - w| alone ends
        # ~7e-4 away from the optimum
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 6))
        N = int(rng.integers(K, 9))
        B = rng.dirichlet(np.full(N, 0.5), size=K).T
        h = rng.dirichlet(np.full(N, 0.5))
        Q, f = B.T @ B, B.T @ h
        w = solve_one_document(Q, f, np.full(K, 1.0 / K))
        kkt = np.abs(w - project_simplex_columns((w - (Q @ w - f))[:, None])[:, 0]).max()
        assert kkt <= 1e-6

    def test_rejects_singular_quadratic(self):
        with pytest.raises(RuntimeError, match=r"Q is not positive definite"):
            solve_one_document(np.zeros((2, 2)), np.zeros(2), [0.5, 0.5])


class TestProxInverse:
    def test_plain_inverse_when_well_conditioned(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.5]])
        G, rho, min_eig = _prox_inverse(Q, "Q")
        eig = np.linalg.eigvalsh(Q)
        assert rho == math.sqrt(eig[0] * eig[-1])
        want = _symmetrize(np.linalg.inv(Q + rho * np.eye(2)))
        assert G.tobytes() == want.tobytes()
        npt.assert_array_equal(G, G.T)
        assert min_eig == eig[0]

    def test_singular_matrix_raises(self):
        Q = np.ones((3, 3))  # rank one
        with pytest.raises(RuntimeError, match="round 4 is not positive definite"):
            _prox_inverse(Q, "Q at master round 4")


class TestPaddInfer:
    def test_single_topic_short_circuit(self):
        m = TopicModel(B=np.ones((4, 1)) / 4, A=[[1.0]])
        c = random_corpus(N=4, M=9, seed=0)
        comp, diag = padd_infer(m, c)
        npt.assert_array_equal(comp.W, np.ones((1, 9)))
        assert diag.rounds == []

    TIGHT = dict(slave_iters=5000, slave_tol=1e-13)

    def _matched_instance(self):
        """An unmatched model, its corpus, round 1's solutions under it and
        the same model with A matched to those solutions. Round 1 always
        starts from a zero dual, so its solutions depend only on B (the
        start point W0 does not move the unique minimizer); under the
        matched A the first dual update vanishes."""
        m0 = random_model(N=20, K=3, seed=5)
        c = random_corpus(N=20, M=30, seed=6)
        comp1, _ = padd_infer(m0, c, PaddConfig(master_iters=1, **self.TIGHT))
        P = comp1.W @ comp1.W.T
        A_matched = (P + P.T) / (2.0 * comp1.M)
        return m0, c, comp1, TopicModel(B=m0.B, A=A_matched)

    def test_zero_gap_keeps_dual_at_zero_and_stops(self):
        m0, c, comp1, m = self._matched_instance()
        comp2, diag = padd_infer(m, c, PaddConfig(master_iters=6, **self.TIGHT))
        # round 1 re-derives the same solutions, so the dual update vanishes
        assert len(diag.rounds) == 1
        assert diag.constraint_gap[0] <= 1e-9
        assert diag.dual_norm[0] <= 1e-9
        npt.assert_allclose(comp2.W, comp1.W, atol=1e-9)
        # the smallest tau0 makes every dual move underflow to exactly zero
        # while the gap stays open, so that zero reaches round 3, whose
        # start prediction would divide by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp4, diag4 = padd_infer(m0, c, PaddConfig(
                master_iters=4, tau0=5e-324, **self.TIGHT))
        assert diag4.dual_norm == [0.0] * 4
        assert min(diag4.constraint_gap) > 0.1
        npt.assert_allclose(comp4.W, comp1.W, atol=1e-9)

    def test_met_constraint_stops_before_a_large_dual_step(self):
        # the gap is ~1e-14 of ||A||, so the master returns after round 1;
        # tau0 = 1e9 times that gap would still be a dual move large enough
        # to make round 3's Q indefinite
        _, c, comp1, m = self._matched_instance()
        comp, diag = padd_infer(m, c, PaddConfig(master_iters=6, tau0=1e9, **self.TIGHT))
        assert diag.rounds == [1]
        assert diag.constraint_gap[0] <= padd_module.GAP_STOP * np.linalg.norm(m.A)
        npt.assert_allclose(comp.W, comp1.W, atol=1e-9)

    def test_tiny_dual_step_does_not_stop_the_master(self):
        # the stop looks at the constraint, not at the size of the dual move
        m = random_model(N=20, K=3, seed=5)
        c = random_corpus(N=20, M=30, seed=6)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=4, tau0=1e-12))
        assert diag.rounds == [1, 2, 3, 4]
        assert min(diag.constraint_gap) > padd_module.GAP_STOP * np.linalg.norm(m.A)

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
        W0 = word_topic_posterior(m) @ Ht
        F = m.B.T @ Ht
        for j in range(c.M):
            w = solve_one_document(m.B.T @ m.B, F[:, j], W0[:, j],
                                   max_iters=cfg.slave_iters, tol=cfg.slave_tol)
            npt.assert_allclose(comp.W[:, j], w, atol=1e-9)

    def test_columns_on_simplex_and_diagnostics_finite(self):
        m = random_model(N=25, K=4, seed=10)
        c = random_corpus(N=25, M=50, seed=11)
        cfg = PaddConfig(master_iters=4)
        comp, diag = padd_infer(m, c, cfg)
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
        cfg = PaddConfig(master_iters=4, slave_iters=20)  # rounds 3-4 predict
        runs = [padd_infer(m, c, cfg, threads=n)[0].W.tobytes() for n in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_indefinite_prox_raises_without_warning(self):
        m = random_model(N=20, K=3, seed=1)
        c = random_corpus(N=20, M=40, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="positive definite"):
                padd_infer(m, c, PaddConfig(tau0=1e4, master_iters=6))

    def test_indefinite_slave_quadratic_raises_without_warning(self):
        # tau0 = 40 pushes lambda_min(Q) to about -0.07 at round 2, so Q + I
        # stays positive definite; a check on Q + I lets this run finish
        # silently with the gap rising from round 1
        m = random_model(N=20, K=3, seed=1)
        c = random_corpus(N=20, M=40, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="master round 2 is not positive "
                               r"definite .*: eigenvalues span \[") as err:
                padd_infer(m, c, PaddConfig(tau0=40.0, master_iters=6))
        lo, hi = (float(v) for v in str(err.value).split("[")[1].rstrip("]").split(", "))
        assert -1.0 < lo < 0.0 < hi

    @pytest.mark.parametrize("tau0", [0.5, 1.0, 1.2, 2.0, 5.0])
    def test_skew_that_the_model_accepts_does_not_stop_padd(self, tau0):
        # TopicModel accepts skew up to SYM_TOL; kept in A, it built up in
        # the dual until PADD stopped with "dual matrix lost symmetry"
        base = random_model(N=40, K=4, seed=3)
        A = base.A.copy()
        A[0, 1] += 4.5e-11
        A[1, 0] -= 4.5e-11
        m = TopicModel(B=base.B, A=A)
        comp, _ = padd_infer(m, random_corpus(N=40, M=200, seed=4), PaddConfig(tau0=tau0))
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-12)

    def test_iteration_budget_loss_and_round_one_eigenvalue(self, monkeypatch):
        m = random_model(N=200, K=10, seed=3)
        c = random_corpus(N=200, M=500, seed=4)
        calls, per_round = [], []
        project, solve = padd_module.project_simplex_columns, padd_module._solve_slaves

        def spy(V, **kwargs):
            calls.append(V.shape[1])
            return project(V, **kwargs)

        def counted(*args, **kwargs):
            before = len(calls)
            out = solve(*args, **kwargs)
            per_round.append(len(calls) - before)
            return out

        monkeypatch.setattr(padd_module, "project_simplex_columns", spy)
        monkeypatch.setattr(padd_module, "_solve_slaves", counted)
        comp, diag = padd_infer(m, c)
        # the spectral step with resumed Douglas-Rachford state and predicted
        # starts takes 173 projections over 15 rounds here; a unit step
        # (rho = 1) takes ~1,900
        assert len(diag.rounds) == 15
        assert len(calls) <= 450
        # rounds 3-15 take 170 of them when each starts from the previous
        # round's solutions, 138 from the secant prediction
        assert sum(per_round[2:]) <= 154
        npt.assert_allclose(diag.mean_loss[-1],
                            mean_reconstruction_loss(m.B, comp.W, c),
                            rtol=1e-10, atol=0.0)
        # round 1 prices nothing, so Q = B^T B
        assert diag.prox_min_eig[0] == np.linalg.eigvalsh(m.B.T @ m.B)[0]

    def test_unchanged_problem_resumes_in_place(self, monkeypatch):
        # a negligible dual step leaves every round's problem as it was, so
        # a round that resumes the Douglas-Rachford state stops at once
        m = random_model(N=200, K=10, seed=3)
        c = random_corpus(N=200, M=500, seed=4)
        cfg = dict(tau0=1e-12)
        W1 = padd_infer(m, c, PaddConfig(master_iters=1, **cfg))[0].W
        calls, per_round = [], []
        project, solve = padd_module.project_simplex_columns, padd_module._solve_slaves

        def spy(V, **kwargs):
            calls.append(V.shape[1])
            return project(V, **kwargs)

        def counted(*args, **kwargs):
            before = len(calls)
            out = solve(*args, **kwargs)
            per_round.append(len(calls) - before)
            return out

        monkeypatch.setattr(padd_module, "project_simplex_columns", spy)
        monkeypatch.setattr(padd_module, "_solve_slaves", counted)
        config = PaddConfig(master_iters=4, **cfg)
        comp, _ = padd_infer(m, c, config)
        assert len(per_round) == 4
        assert max(per_round[1:]) <= 2
        assert np.abs(comp.W - W1).max() <= 2 * config.slave_tol

    def test_sort_orders_carry_across_rounds(self, monkeypatch):
        # every round starts its projections from the sort orders the
        # previous round left, so only columns whose order changed are
        # sorted again; a round from a fresh order re-sorts about all 500
        m = random_model(N=200, K=10, seed=3)
        c = random_corpus(N=200, M=500, seed=4)
        resorted, per_round = [], []
        argsort, solve = np.argsort, padd_module._solve_slaves

        def spy(a, *args, **kwargs):
            resorted.append(a.shape[1])
            return argsort(a, *args, **kwargs)

        def counted(*args, **kwargs):
            before = sum(resorted)
            out = solve(*args, **kwargs)
            per_round.append(sum(resorted) - before)
            return out

        monkeypatch.setattr(simplex_module.np, "argsort", spy)
        monkeypatch.setattr(padd_module, "_solve_slaves", counted)
        _, diag = padd_infer(m, c)
        assert len(per_round) == len(diag.rounds) == 15
        assert per_round[0] > 0
        assert max(per_round[1:]) < 100

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
        for i, line in enumerate(lines[1:]):
            assert line == (
                f"{diag.rounds[i]}\t{diag.tau[i]:.17g}\t{diag.constraint_gap[i]:.17g}\t"
                f"{diag.mean_loss[i]:.17g}\t{diag.dual_norm[i]:.17g}\t"
                f"{diag.mean_final_step[i]:.17g}\t{diag.docs_converged[i]}\t"
                f"{diag.prox_min_eig[i]:.17g}")
