import dataclasses
import json
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
    TopicModel,
    padd_infer,
    project_simplex_columns,
    synthesize,
    normalize_corpus,
)
import topic_compose.padd as padd_module
import topic_compose.simplex as simplex_module
from topic_compose.padd import _prox_inverse, _symmetrize
from conftest import random_corpus, random_model
from oracles import (
    affine_minimizer,
    dirichlet_second_moment,
    grid_min_quadratic,
    mean_reconstruction_loss,
    solve_one_document,
)


def grid_truth_instance(K, M, seed, doc_len=10_000, grid=100, B=None):
    """Noiseless identifiable setup: B (default I, else square),
    compositions on the 1/grid lattice, documents sampled exactly
    proportional to B w*."""
    B = np.eye(K) if B is None else np.asarray(B)
    rng = np.random.default_rng(seed)
    Wstar = rng.multinomial(grid, rng.dirichlet(np.ones(K)), size=M).T / grid
    counts_full = (B @ Wstar * doc_len).round().astype(np.int64)  # exact by construction
    docs, words, counts = [], [], []
    for m in range(M):
        idx = np.nonzero(counts_full[:, m])[0]
        docs += [m] * idx.size
        words += idx.tolist()
        counts += counts_full[idx, m].tolist()
    corpus = Corpus(docs=docs, words=words, counts=counts, M=M, N=K)
    P = Wstar @ Wstar.T
    A = (P + P.T) / (2.0 * M)
    model = TopicModel(B=B, A=A)
    return model, corpus, Wstar


def ball_instance(distance):
    """random_model(N=200, K=10, seed=3) and a 500-document corpus, with A
    moved `distance` radii from round 1's moment toward the random A, so the
    constraint can be met; returns the model, the corpus and the radius."""
    m0 = random_model(N=200, K=10, seed=3)
    c = random_corpus(N=200, M=500, seed=4)
    comp1, diag1 = padd_infer(m0, c, PaddConfig(master_iters=1))
    moment = _symmetrize(comp1.W @ comp1.W.T) / c.M
    away = m0.A - moment
    A = moment + distance * diag1.radius * away / np.linalg.norm(away)
    return TopicModel(B=m0.B, A=A), c, diag1.radius


def drawn_instance(K, M, length):
    """M documents of `length` words drawn from a flat Dirichlet over
    random_model(N=60, K, seed=7, concentration=0.05)'s topics, with A that
    prior's second moment; returns the model, the corpus and the cap."""
    B = random_model(N=60, K=K, seed=7, concentration=0.05).B
    model = TopicModel(B=B, A=dirichlet_second_moment(np.ones(K)))
    corpus = synthesize(model, DirichletPrior.symmetric(K, float(K)), M, FixedLength(length),
                        seed=3).corpus
    return model, corpus, padd_module.PRICE_CAP * np.linalg.eigvalsh(B.T @ B)[0]


def near_boundary_instance(exact=40, noisy=200):
    """random_model(N=60, K=20, seed=20) with `noisy` three-word documents,
    none of them interior, and `exact` documents of 1e11 words whose word
    frequencies are B v for a v with one entry of -1e-8: the first solve's
    Douglas-Rachford start is within about 1e-8 of their solutions, so
    they pass the step test at the first iteration, while the noisy
    documents take dozens; returns the model and the corpus."""
    m = random_model(N=60, K=20, seed=20)
    rng = np.random.default_rng(21)
    V = rng.dirichlet(np.ones(20), size=exact).T
    V[rng.integers(20, size=exact), np.arange(exact)] = -1e-8
    V /= V.sum(axis=0)
    counts = np.rint(m.B @ V * 1e11).astype(np.int64)
    c = random_corpus(N=60, M=noisy, seed=21, mean_len=3)
    corpus = Corpus(docs=np.concatenate([c.docs, noisy + np.repeat(np.arange(exact), 60)]),
                    words=np.concatenate([c.words, np.tile(np.arange(60), exact)]),
                    counts=np.concatenate([c.counts, counts.T.ravel()]),
                    M=noisy + exact, N=60)
    return m, corpus


class TestDualStep:
    @pytest.mark.parametrize("K, M, length, first_step",
                             [(5, 3000, 100, 1.0), (4, 2000, 50, 16.0)])
    def test_backtracking_step(self, K, M, length, first_step, monkeypatch):
        # the first trial steps FIRST_STEP; a rejected trial halves the
        # step, and an accepted one doubles it unless it followed a
        # rejection or its price reached the cap
        m, c, cap = drawn_instance(K, M, length)
        monkeypatch.setattr(padd_module, "FIRST_STEP", first_step)
        _, diag = padd_infer(m, c)
        assert diag.tau[:2] == [0.0, first_step]
        assert diag.accepted[0] and not all(diag.accepted)
        rows = list(zip(diag.accepted, diag.tau, diag.dual_norm))
        assert len(rows) > 3
        for (ok_before, _, _), (ok, tau, norm), (_, tau_next, _) in zip(rows, rows[1:], rows[2:]):
            capped = norm >= cap * (1.0 - 1e-12)
            assert tau_next == (tau / 2.0 if not ok else tau if capped or not ok_before
                                else 2.0 * tau)

    @pytest.mark.parametrize("first_step, capped", [(0.01, False), (0.1, True)])
    def test_trial_price_is_shrunk_gradient_step(self, first_step, capped, monkeypatch):
        # the first trial price is the gradient step (moment - A) * s / 2 at
        # s = FIRST_STEP, moved toward 0 by s * radius / 2 in Frobenius
        # norm, with its norm then capped at PRICE_CAP * lambda_min(B^T B)
        m = random_model(N=20, K=3, seed=3)
        c = random_corpus(N=20, M=30, seed=4)
        W1 = padd_infer(m, c, PaddConfig(master_iters=1))[0].W
        cap = padd_module.PRICE_CAP * np.linalg.eigvalsh(m.B.T @ m.B)[0]
        prox, quadratics = padd_module._prox_inverse, []

        def spy(Q, what):
            quadratics.append(Q)
            return prox(Q, what)

        monkeypatch.setattr(padd_module, "_prox_inverse", spy)
        monkeypatch.setattr(padd_module, "FIRST_STEP", first_step)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=2))
        excess = _symmetrize(W1 @ W1.T) / c.M - m.A
        step = first_step / 2.0 * excess
        norm = np.linalg.norm(step)
        shrunk = norm - first_step / 2.0 * diag.radius
        assert (shrunk > cap) == capped
        want = step * (min(shrunk, cap) / norm)
        npt.assert_allclose(quadratics[1] - m.B.T @ m.B, want, rtol=0.0, atol=1e-15)
        assert diag.dual_norm == [0.0, pytest.approx(min(shrunk, cap), rel=1e-12)]

    def test_dual_residual_vanishes_only_at_the_dual_optimum(self):
        residual = padd_module._dual_residual
        u = np.diag([0.6, 0.8])
        v = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)  # orthogonal to u
        zero = np.zeros((2, 2))
        # at zero price, the gap beyond the radius
        assert residual(zero, False, 3.0 * u, 1.0) == pytest.approx(2.0)
        assert residual(zero, False, 0.5 * u, 1.0) == 0.0
        # inside the cap, the excess must be the radius along the price
        assert residual(2.0 * u, False, u, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert residual(2.0 * u, False, 3.0 * u, 1.0) == pytest.approx(2.0)
        # on the cap, an excess beyond the radius along the price is absorbed,
        # and what is left is the part across it
        assert residual(2.0 * u, True, 3.0 * u, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert residual(2.0 * u, True, 3.0 * u + 0.5 * v, 1.0) == pytest.approx(0.5)
        assert residual(2.0 * u, True, 0.5 * u, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("K, M, seed", [(3, 40, 1), (4, 200, 3), (10, 500, 3)])
    def test_dual_value_never_falls_between_accepted_rows(self, K, M, seed, monkeypatch):
        m = random_model(N=60, K=K, seed=seed)
        c = random_corpus(N=60, M=M, seed=seed + 1)
        monkeypatch.setattr(padd_module, "FIRST_STEP", 0.5)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=10))
        phi = [v for v, ok in zip(diag.dual_value, diag.accepted) if ok]
        assert len(phi) > 2
        assert all(b >= a for a, b in zip(phi, phi[1:]))
        # a rejected row is one whose value fell below the accepted one before it
        best = diag.dual_value[0]
        for value, ok in zip(diag.dual_value[1:], diag.accepted[1:]):
            assert ok == (value >= best)
            best = value if ok else best

    def test_dual_value_at_zero_price_is_half_the_loss(self):
        m = random_model(N=20, K=3, seed=3)
        c = random_corpus(N=20, M=30, seed=4)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=1))
        assert diag.dual_value == [diag.mean_loss[0] / 2.0]
        assert diag.dual_norm == [0.0] and diag.accepted == [True]


class TestPaddConfig:
    def test_defaults(self):
        cfg = PaddConfig()
        assert padd_module.RELAXATION == 1.9
        assert padd_module.FIRST_STEP == 1.0
        assert cfg.master_iters == 15 and cfg.slave_iters == 150
        assert cfg.slave_tol == 1e-7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"master_iters": 0},
            {"master_iters": -1},
            {"master_iters": 1.5},
            {"master_iters": math.nan},
            {"master_iters": math.inf},
            {"master_iters": "3"},
            {"master_iters": None},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PaddConfig(**kwargs)

    def test_slave_constants_are_not_settings(self):
        assert [f.name for f in dataclasses.fields(PaddConfig)] == ["master_iters"]
        with pytest.raises(TypeError):
            PaddConfig(slave_iters=5)


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


class TestClosedFormSettle:
    def test_settled_column_is_a_douglas_rachford_fixed_point(self):
        # one iteration from (X, X + nu / rho) moves nothing: the prox point
        # of 2X - q is X, and q projects back onto X
        m = random_model(N=200, K=10, seed=3)
        c = random_corpus(N=200, M=500, seed=4)
        Q = m.B.T @ m.B
        F = m.B.T @ normalize_corpus(c)
        X, nu = padd_module._affine_fit(Q, F)
        X_kkt, nu_kkt = affine_minimizer(Q, F)
        npt.assert_allclose(X, X_kkt, rtol=0.0, atol=1e-14)
        npt.assert_allclose(nu, nu_kkt, rtol=0.0, atol=1e-15)
        interior = (X > 0.0).all(axis=0)
        assert np.count_nonzero(interior) > 50
        G, rho, _ = _prox_inverse(Q, "Q")
        Xi = X[:, interior]
        W, converged, iters = padd_module._dr_block(rho * G, G @ F[:, interior], Xi,
                                                    Xi + nu[interior] / rho,
                                                    np.argsort(-Xi, axis=0),
                                                    1, PaddConfig.slave_tol)
        assert iters == 1
        assert converged == Xi.shape[1]
        assert np.abs(W - Xi).max() <= 1e-15

    def test_no_column_with_a_zero_or_negative_entry_is_settled(self):
        # at Q = I and F = X every column is a Douglas-Rachford fixed point
        # at q = X (nu = 0), but only the strictly positive first one is
        # settled; the others, with a zero and a negative entry, run
        # Douglas-Rachford to their projections onto the simplex
        X = np.array([[0.2, 0.6, 0.7], [0.3, 0.4, 0.4], [0.5, 0.0, -0.1]])
        G, rho, _ = _prox_inverse(np.eye(3), "Q")
        W0 = project_simplex_columns(X)
        order = np.repeat(np.arange(3)[:, None], 3, axis=1)
        W, Qaux, converged, iters, settled = padd_module._solve_slaves(
            rho * G, G @ X, X, np.zeros(3), W0, W0.copy(), order, PaddConfig(), 1)
        assert settled == 1 and iters > 0
        assert W[:, 0].tobytes() == X[:, 0].tobytes()
        assert Qaux[:, 0].tobytes() == X[:, 0].tobytes()
        npt.assert_allclose(W[:, 1:], [[0.6, 0.65], [0.4, 0.35], [0.0, 0.0]],
                            rtol=0.0, atol=PaddConfig.slave_tol)
        assert converged == 3

    @pytest.mark.parametrize("K, mean_len, fits", [(20, 3, 1), (10, 2, 3)])
    def test_affine_fit_skipped_once_a_solve_settles_nothing(self, K, mean_len, fits,
                                                             monkeypatch):
        # at K=20 no three-word document is interior, so only the first
        # solve forms X; at K=10 every solve settles a few documents
        fit = padd_module._affine_fit
        calls = []
        monkeypatch.setattr(padd_module, "_affine_fit",
                            lambda Q, F: calls.append(1) or fit(Q, F))
        m = random_model(60, K, seed=20)
        c = random_corpus(60, 300 if K == 20 else 200, seed=21, mean_len=mean_len)
        comp, diag = padd_infer(m, c, PaddConfig(master_iters=4))
        assert len(diag.rounds) > 1 and all(diag.accepted)
        assert (max(diag.closed_form) == 0) == (fits == 1)
        assert len(calls) == fits
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-12)


class TestDouglasRachfordBlock:
    @staticmethod
    def first_solve_block(m, c):
        """The first solve's Douglas-Rachford operands at Gamma = 0 and its
        start (project(X), X) for every column."""
        Q = m.B.T @ m.B
        F = m.B.T @ normalize_corpus(c)
        G, rho, _ = _prox_inverse(Q, "Q")
        X, _ = padd_module._affine_fit(Q, F)
        order = np.repeat(np.arange(m.K)[:, None], c.M, axis=1)
        return rho * G, G @ F, project_simplex_columns(X, order=order), X, order

    def test_block_returns_one_iterate_for_all_its_columns(self):
        # the near-exact documents pass the step test long before the noisy
        # ones; every column is returned at the block's last iterate, as a
        # run of that many iterations without the early stop returns it
        P, C, w, q, order = self.first_solve_block(*near_boundary_instance())
        _, early, _ = padd_module._dr_block(P, C, w, q.copy(), order.copy(), 1,
                                            PaddConfig.slave_tol)
        assert 0 < early < C.shape[1]
        q1, order1 = q.copy(), order.copy()
        w1, converged, iters = padd_module._dr_block(P, C, w, q1, order1,
                                                     PaddConfig.slave_iters, PaddConfig.slave_tol)
        assert 1 < iters < PaddConfig.slave_iters
        assert converged == C.shape[1]
        q2, order2 = q.copy(), order.copy()
        w2, _, iters2 = padd_module._dr_block(P, C, w, q2, order2, iters, -math.inf)
        assert iters2 == iters
        for got, want in ((w1, w2), (q1, q2), (order1, order2)):
            assert got.tobytes() == want.tobytes()

    def test_diagnostics_at_the_slave_cap_read_the_last_iterate(self, monkeypatch):
        # three iterations pass the near-exact documents but not the noisy
        # ones; the diagnostics count the documents that pass at the third
        monkeypatch.setattr(PaddConfig, "slave_iters", 3)
        m, c = near_boundary_instance()
        block, starts = padd_module._dr_block, []

        def spy(P, C, w, q, order, max_iters, tol):
            starts.append((P, C, w, q.copy(), order.copy()))
            return block(P, C, w, q, order, max_iters, tol)

        monkeypatch.setattr(padd_module, "_dr_block", spy)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=1))
        assert diag.closed_form == [0] and diag.dr_iters == [3] and len(starts) == 1
        _, passed, _ = block(*starts[0], 3, PaddConfig.slave_tol)
        assert 0 < passed < c.M
        assert diag.docs_converged == [passed]


class TestPaddInfer:
    def test_single_topic_short_circuit(self):
        m = TopicModel(B=np.ones((4, 1)) / 4, A=[[1.0]])
        c = random_corpus(N=4, M=9, seed=0)
        comp, diag = padd_infer(m, c)
        npt.assert_array_equal(comp.W, np.ones((1, 9)))
        assert diag.rounds == [1]
        assert diag.constraint_gap == [0.0]

    @pytest.fixture
    def tight(self, monkeypatch):
        monkeypatch.setattr(PaddConfig, "slave_iters", 5000)
        monkeypatch.setattr(PaddConfig, "slave_tol", 1e-13)

    def _matched_instance(self):
        """An unmatched model, its corpus, round 1's solutions under it and
        the same model with A matched to those solutions. Round 1 always
        starts from a zero dual, so its solutions depend only on B (the
        start point W0 does not move the unique minimizer); under the
        matched A the first dual update vanishes."""
        m0 = random_model(N=20, K=3, seed=5)
        c = random_corpus(N=20, M=30, seed=6)
        comp1, _ = padd_infer(m0, c, PaddConfig(master_iters=1))
        P = comp1.W @ comp1.W.T
        A_matched = (P + P.T) / (2.0 * comp1.M)
        return m0, c, comp1, TopicModel(B=m0.B, A=A_matched)

    def test_zero_gap_keeps_dual_at_zero_and_stops(self, tight, monkeypatch):
        m0, c, comp1, m = self._matched_instance()
        comp2, diag = padd_infer(m, c, PaddConfig(master_iters=6))
        # round 1 re-derives the same solutions, inside the radius
        assert len(diag.rounds) == 1
        assert diag.constraint_gap[0] <= 1e-9 < diag.radius
        assert diag.dual_norm == [0.0]
        npt.assert_allclose(comp2.W, comp1.W, atol=1e-9)
        # the smallest first step makes every trial price underflow to
        # exactly zero while the gap stays open, so the shrink meets a zero
        # matrix
        monkeypatch.setattr(padd_module, "FIRST_STEP", 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp4, diag4 = padd_infer(m0, c, PaddConfig(master_iters=4))
        assert diag4.dual_norm == [0.0] * 4
        assert min(diag4.constraint_gap) > 0.1
        npt.assert_allclose(comp4.W, comp1.W, atol=1e-9)

    def test_met_constraint_stops_before_a_large_dual_step(self, tight, monkeypatch):
        # the gap is ~1e-14 of ||A||, inside the radius, so the master
        # returns after round 1 without trying a step of 1e9
        _, c, comp1, m = self._matched_instance()
        monkeypatch.setattr(padd_module, "FIRST_STEP", 1e9)
        comp, diag = padd_infer(m, c, PaddConfig(master_iters=6))
        assert diag.rounds == [1]
        assert diag.constraint_gap[0] <= diag.radius
        npt.assert_allclose(comp.W, comp1.W, atol=1e-9)

    def test_tiny_dual_step_does_not_stop_the_master(self, monkeypatch):
        # the stop looks at the constraint, not at the size of the dual move
        m = random_model(N=20, K=3, seed=5)
        c = random_corpus(N=20, M=30, seed=6)
        monkeypatch.setattr(padd_module, "FIRST_STEP", 1e-12)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=4))
        assert diag.rounds == [1, 2, 3, 4]
        assert min(diag.constraint_gap) > diag.radius

    def test_gap_inside_radius_returns_after_one_solve(self):
        m, c, radius = ball_instance(0.5)
        comp1, diag1 = padd_infer(m, c, PaddConfig(master_iters=1))
        comp, diag = padd_infer(m, c)
        assert diag.rounds == [1] and diag.radius == pytest.approx(radius, rel=1e-6)
        assert diag.constraint_gap[0] <= diag.radius
        assert comp.W.tobytes() == comp1.W.tobytes()
        assert json.dumps(vars(diag)) == json.dumps(vars(diag1))

    def test_gap_outside_radius_takes_a_step(self):
        m, c, _ = ball_instance(1.5)
        _, diag = padd_infer(m, c)
        assert diag.constraint_gap[0] > diag.radius
        assert len(diag.rounds) > 1
        assert min(diag.constraint_gap) < diag.constraint_gap[0]

    def test_single_document_has_no_radius(self):
        # one document's moment has no sampling error, so the ball is the
        # equality (its radius is rounding error); the master runs to its
        # cap, with no floor on the gap
        m = random_model(N=20, K=3, seed=5)
        c = random_corpus(N=20, M=1, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp, diag = padd_infer(m, c, PaddConfig(master_iters=5))
        assert diag.radius < 1e-7
        assert diag.rounds == [1, 2, 3, 4, 5]
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-12)

    def test_price_cap_bounds_the_pull_of_a_misspecified_A(self):
        # A's diagonal is about 0.14, twice the corpus's 0.065, farther than
        # any price within the cap can pull: the price stops on the cap,
        # every Q keeps nine tenths of B^T B's smallest eigenvalue, and the
        # solutions move only a little toward A
        B = random_model(N=100, K=5, seed=17, concentration=0.05).B
        A = random_model(N=100, K=5, seed=17).A
        synth = synthesize(TopicModel(B=B, A=A), DirichletPrior.symmetric(5, 5.0), 500,
                           FixedLength(60), seed=1)
        m = TopicModel(B=B, A=A)
        lo = np.linalg.eigvalsh(B.T @ B)[0]
        cap = padd_module.PRICE_CAP * lo
        comp1, _ = padd_infer(m, synth.corpus, PaddConfig(master_iters=1))
        comp, diag = padd_infer(m, synth.corpus)
        assert len(diag.rounds) < PaddConfig().master_iters
        assert diag.accepted[-1] and diag.dual_norm[-1] == pytest.approx(cap, rel=1e-12)
        assert max(diag.dual_norm) <= cap * (1.0 + 1e-12)
        assert min(diag.prox_min_eig) >= (lo - cap) * (1.0 - 1e-12)
        assert diag.radius < diag.constraint_gap[-1] < diag.constraint_gap[0]
        l1 = [np.abs(W - synth.Wstar.W).sum(axis=0).mean() for W in (comp1.W, comp.W)]
        assert l1[1] < 1.05 * l1[0]

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

    def test_noiseless_overlapping_topics_recovered_by_the_first_start(self):
        # every h_m is exactly B w*_m with B square and invertible, so the
        # least-squares start is w* itself: one Douglas-Rachford iteration
        # confirms it and the moment is A, so the master stops at once
        B = [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
        model, corpus, Wstar = grid_truth_instance(K=3, M=30, seed=7, doc_len=500, grid=10,
                                                   B=B)
        comp, diag = padd_infer(model, corpus)
        assert diag.rounds == [1] and diag.dr_iters == [1]
        assert np.abs(comp.W - Wstar).max() <= 1e-12

    @pytest.mark.parametrize("eps", [1e-5, 3e-6])
    def test_ill_conditioned_topics_give_finite_compositions(self, eps):
        # column 2 is nearly column 0, so B^T B passes the condition check
        # (3.4e10 and 3.7e11) and the least-squares start is far off the
        # simplex before its projection
        b = random_model(N=20, K=4, seed=1).B.T
        B = np.column_stack([b[0], b[1], (1.0 - eps) * b[0] + eps * b[3]])
        m = TopicModel(B=B, A=np.full((3, 3), 1.0 / 9))
        c = random_corpus(N=20, M=40, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp, _ = padd_infer(m, c)
        assert np.isfinite(comp.W).all()
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-12)

    def test_matches_single_document_solver_when_dual_is_zero(self):
        # a strictly positive affine minimizer X is settled as it is (all 12
        # columns at K=3, 5 at K=4), where one iteration from q = X + nu / rho
        # leaves it; every other column runs Douglas-Rachford from w, its
        # projection, at q = X, in one block that stops only once all of them
        # pass, so each matches a run of that block's iteration count
        cfg = PaddConfig(master_iters=1)
        for K in (3, 4):
            m = random_model(N=15, K=K, seed=8)
            c = random_corpus(N=15, M=12, seed=9)
            comp, diag = padd_infer(m, c, cfg)
            Q = m.B.T @ m.B
            F = m.B.T @ normalize_corpus(c)
            X, nu = affine_minimizer(Q, F)
            rho = _prox_inverse(Q, "Q")[1]
            interior = (X > 0.0).all(axis=0)
            assert diag.closed_form == [np.count_nonzero(interior)] and interior.any()
            for j in range(c.M):
                if interior[j]:
                    w = solve_one_document(Q, F[:, j], X[:, j], q0=X[:, j] + nu[j] / rho,
                                           max_iters=1)
                    npt.assert_allclose(w, X[:, j], rtol=0.0, atol=1e-15)
                else:
                    w = solve_one_document(Q, F[:, j], X[:, j], q0=X[:, j],
                                           max_iters=diag.dr_iters[0], tol=-math.inf)
                npt.assert_allclose(comp.W[:, j], w, atol=1e-9)

    def test_columns_on_simplex_and_diagnostics_finite(self):
        m = random_model(N=25, K=4, seed=10)
        c = random_corpus(N=25, M=50, seed=11)
        cfg = PaddConfig(master_iters=4)
        comp, diag = padd_infer(m, c, cfg)
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-6)
        assert comp.W.min() >= 0.0
        assert len(diag.rounds) <= 4
        for field in (diag.tau, diag.constraint_gap, diag.mean_loss, diag.dual_value,
                      diag.dual_norm, diag.prox_min_eig):
            assert np.isfinite(field).all()
        assert diag.tau[:2] == [0.0, padd_module.FIRST_STEP]
        assert diag.accepted[0] is True
        assert 0 < min(diag.dr_iters) and max(diag.dr_iters) <= cfg.slave_iters
        assert 0.0 < diag.radius < diag.constraint_gap[0]
        assert min(diag.prox_min_eig) > 0.0

    def test_constraint_gap_not_worse_than_round_one(self):
        rng = np.random.default_rng(12)
        B = rng.dirichlet(np.full(60, 0.1), size=5).T
        model0 = TopicModel(B=B, A=np.eye(5) / 5)
        synth = synthesize(model0, DirichletPrior.symmetric(5, 5.0), 600, FixedLength(80),
                           seed=13)
        model = TopicModel(B=B, A=synth.Astar)
        _, diag = padd_infer(model, synth.corpus, PaddConfig(master_iters=8))
        assert diag.constraint_gap[-1] <= diag.constraint_gap[0] + 1e-12

    @pytest.mark.parametrize("K, M, mean_len, blocks", [
        pytest.param(10, 5200, 40, 2, id="10-5200"),
        pytest.param(7, 7400, 40, 2, id="7-7400"),
        pytest.param(4, 6500, 40, 1, id="4-6500"),
        pytest.param(4, 13800, 2, 2, id="4-13800-short"),
        pytest.param(20, 3000, 3, 3, id="20-3000-none"),
    ])
    def test_thread_count_does_not_change_result_across_blocks(self, K, M, mean_len, blocks,
                                                                monkeypatch):
        # the first solve's boundary columns span two slave blocks, the last
        # one partial, in every case but 4-6500 and 20-3000: 4-6500 settles
        # most of that corpus in closed form and runs Douglas-Rachford on
        # one block of the rest. The 4-13800 corpus's two-word documents
        # leave the simplex's interior more often, so its rest spans two
        # blocks. At K=20 no three-word document is interior, so the first
        # solve settles none and runs all 3,000 columns in place, in three
        # blocks of at most 1,280
        m = random_model(60, K, seed=20)
        c = random_corpus(60, M, seed=21, mean_len=mean_len)
        monkeypatch.setattr(PaddConfig, "slave_iters", 20)
        cfg = PaddConfig(master_iters=4)
        runs = []
        for n in (1, 2, 3):
            comp, diag = padd_infer(m, c, cfg, threads=n)
            runs.append((comp.W.tobytes(), json.dumps(vars(diag))))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        results = json.loads(runs[0][1])
        boundary = M - results["closed_form"][0]
        assert (boundary == M) == (K == 20)
        assert -(-boundary // (padd_module.SLAVE_ENTRIES // K)) == blocks
        # rows past the first price the constraint; their dual value is
        # summed from every block
        assert len(results["dual_value"]) > 1

    @pytest.mark.parametrize("K, mean_len", [(20, 3), (10, 3)])
    def test_every_document_converges_when_no_block_hits_the_cap(self, K, mean_len):
        # 3,000 (K=20) or 6,000 (K=10) documents span three slave blocks;
        # at K=20 none is settled and the blocks run in place, at K=10 a
        # few are settled and the rest gathered. Every block stops before
        # slave_iters, so every settled and every block's document counts
        m = random_model(60, K, seed=20)
        c = random_corpus(60, 3000 if K == 20 else 6000, seed=21, mean_len=mean_len)
        _, diag = padd_infer(m, c, PaddConfig(master_iters=4), threads=2)
        assert (max(diag.closed_form) > 0) == (K == 10)
        assert 0 < min(diag.dr_iters) and max(diag.dr_iters) < PaddConfig.slave_iters
        assert diag.docs_converged == [c.M] * len(diag.rounds)

    @pytest.mark.parametrize("first_step", [1.0, 2.0, 500.0, 1.7e308])
    def test_large_step_is_capped_without_warning(self, first_step, monkeypatch):
        # these steps on the per-document price are 20, 40 and 10,000 on the
        # old scale of the summed price (s * M / 2 at M = 40), where an
        # uncapped step made Q indefinite at round 2; the cap keeps every Q
        # positive definite, and a capped step is not lengthened
        m = random_model(N=20, K=3, seed=1)
        c = random_corpus(N=20, M=40, seed=2)
        lo = np.linalg.eigvalsh(m.B.T @ m.B)[0]
        cap = padd_module.PRICE_CAP * lo
        monkeypatch.setattr(padd_module, "FIRST_STEP", first_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            comp, diag = padd_infer(m, c, PaddConfig(master_iters=6))
        assert len(diag.rounds) > 2 and all(diag.accepted)
        assert diag.tau[1:] == [first_step] * (len(diag.rounds) - 1)
        assert diag.dual_norm[1:] == pytest.approx([cap] * (len(diag.rounds) - 1), rel=1e-12)
        assert min(diag.prox_min_eig) >= (lo - cap) * (1.0 - 1e-12)
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-12)

    def test_indefinite_prox_raises_without_warning(self):
        # with a repeated topic B^T B is singular; no step can mend the
        # zero price, so the first solve raises
        base = random_model(N=20, K=3, seed=1)
        B = np.column_stack([base.B, base.B[:, :1]])
        m = TopicModel(B=B, A=np.full((4, 4), 1.0 / 16))
        c = random_corpus(N=20, M=40, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match=r"Q = B\^T B is not positive "
                               r"definite .*: eigenvalues span \[") as err:
                padd_infer(m, c)
        lo, hi = (float(v) for v in str(err.value).split("[")[1].rstrip("]").split(", "))
        assert abs(lo) < 1e-12 < hi

    @pytest.mark.parametrize("first_step", [0.5, 1.0, 1.2, 2.0, 5.0])
    def test_skew_that_the_model_accepts_does_not_stop_padd(self, first_step, monkeypatch):
        # TopicModel accepts skew up to SYM_TOL; kept in A, it built up in
        # the dual round by round. It stores A as (A + A^T) / 2, so the dual
        # and every round's Q = B^T B + Lambda / M stay exactly symmetric.
        base = random_model(N=40, K=4, seed=3)
        A = base.A.copy()
        A[0, 1] += 4.5e-11
        A[1, 0] -= 4.5e-11
        m = TopicModel(B=base.B, A=A)
        prox, quadratics = padd_module._prox_inverse, []

        def spy(Q, what):
            quadratics.append(Q)
            return prox(Q, what)

        monkeypatch.setattr(padd_module, "_prox_inverse", spy)
        monkeypatch.setattr(padd_module, "FIRST_STEP", first_step)
        comp, diag = padd_infer(m, random_corpus(N=40, M=200, seed=4))
        npt.assert_allclose(comp.W.sum(axis=0), 1.0, atol=1e-12)
        assert len(quadratics) == len(diag.rounds) > 1
        for Q in quadratics:
            npt.assert_array_equal(Q, Q.T)

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
        # A here is farther than the capped price can pull, so the master
        # stops once the price stops moving: 44 projections over 3 solves.
        # Fifteen rounds of the version 0.8 schedule took 173, and an
        # uncapped price took 1,833 as Q neared singularity
        assert len(diag.rounds) < 15
        assert len(calls) <= 450
        # one block: each solve's largest iteration count is its projections
        assert diag.dr_iters == per_round
        accepted = [i for i, ok in enumerate(diag.accepted) if ok]
        npt.assert_allclose(diag.mean_loss[accepted[-1]],
                            mean_reconstruction_loss(m.B, comp.W, c),
                            rtol=1e-10, atol=0.0)
        # round 1 prices nothing, so Q = B^T B
        assert diag.prox_min_eig[0] == np.linalg.eigvalsh(m.B.T @ m.B)[0]

    def test_unchanged_problem_resumes_in_place(self, monkeypatch):
        # a negligible dual step leaves every round's problem as it was, so
        # a round that resumes the Douglas-Rachford state stops at once
        m = random_model(N=200, K=10, seed=3)
        c = random_corpus(N=200, M=500, seed=4)
        monkeypatch.setattr(padd_module, "FIRST_STEP", 1e-12)
        W1 = padd_infer(m, c, PaddConfig(master_iters=1))[0].W
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
        config = PaddConfig(master_iters=4)
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
        assert len(per_round) == len(diag.rounds) > 1
        assert per_round[0] > 0
        assert max(per_round[1:]) < 100
