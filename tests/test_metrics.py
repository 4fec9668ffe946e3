import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from topic_compose import (
    METRIC_ORDER,
    CompositionMatrix,
    evaluate_compositions,
    prior_distance,
    random_baseline,
    write_per_doc_tsv,
    write_report_tsv,
)
from oracles import (
    distribution_metrics,
    evaluate_loop_reference,
    hellinger,
    kl_reference,
    nonsupport_mass,
    per_doc_format_reference,
    prominent_prefix_oracle,
    prominent_topics,
    set_prf,
)
import topic_compose.metrics as metrics_module
from topic_compose.model import WRITE_BLOCK


def random_simplex_pair(rng, K):
    return rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))


class TestProminentTopics:
    def test_exact_cut(self):
        assert prominent_topics([0.5, 0.3, 0.15, 0.05], 0.8) == {0, 1}

    def test_point_mass(self):
        assert prominent_topics([1.0, 0.0, 0.0], 0.8) == {0}

    def test_uniform_tie_break_by_index(self):
        assert prominent_topics([0.25] * 4, 0.8) == {0, 1, 2, 3}

    def test_matches_prefix_oracle_small_K(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            K = int(rng.integers(1, 5))
            w = rng.dirichlet(np.full(K, 0.4))
            mass = float(rng.uniform(0.05, 1.0))
            assert prominent_topics(w, mass) == prominent_prefix_oracle(w, mass)

    def test_mass_one_with_rounding_never_overflows(self):
        w = np.array([0.3, 0.3, 0.4])
        w = w / w.sum()
        assert prominent_topics(w, 1.0) == {0, 1, 2}

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            prominent_topics([1.0], 0.0)


class TestSetPrf:
    def test_half_overlap(self):
        assert set_prf({0, 1}, {1, 2}) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        assert set_prf({3, 4}, {3, 4}) == (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        assert set_prf({0}, set()) == (0.0, 0.0, 0.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            set_prf(set(), {0})


class TestDistributionMetrics:
    def test_identical(self):
        w = np.array([0.4, 0.6])
        l1, linf, h, kl = distribution_metrics(w, w)
        assert l1 == 0.0 and linf == 0.0 and h == 0.0
        assert kl == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports(self):
        l1, linf, h, _ = distribution_metrics(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert l1 == 2.0 and linf == 1.0 and h == 1.0

    def test_hellinger_value(self):
        h = hellinger(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        assert h == pytest.approx(math.sqrt(1.0 - (math.sqrt(0.45) + math.sqrt(0.05))), abs=1e-15)
        assert h == pytest.approx(0.3249, abs=1e-4)

    def test_hellinger_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p, q = random_simplex_pair(rng, 6)
            assert hellinger(p, q) == pytest.approx(hellinger(q, p), abs=1e-12)

    def test_kl_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p, q = random_simplex_pair(rng, 5)
            _, _, _, kl = distribution_metrics(p, q)
            assert kl == pytest.approx(kl_reference(p, q), abs=1e-12)

    def test_kl_zero_truth_terms_drop_out(self):
        p = np.array([0.7, 0.3, 0.0])
        q = np.array([0.5, 0.2, 0.3])
        _, _, _, kl = distribution_metrics(p, q)
        assert math.isfinite(kl)
        assert kl == pytest.approx(kl_reference(p, q), abs=1e-14)

    def test_kl_finite_when_prediction_has_zeros(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        _, _, _, kl = distribution_metrics(p, q)
        assert math.isfinite(kl) and kl > 0.0

    def test_ranges_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            K = int(rng.integers(2, 9))
            p, q = random_simplex_pair(rng, K)
            l1, linf, h, kl = distribution_metrics(p, q)
            assert 0.0 <= l1 <= 2.0
            assert 0.0 <= linf <= 1.0
            assert 0.0 <= h <= 1.0
            assert kl >= -1e-12 and math.isfinite(kl)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        p, q = random_simplex_pair(rng, 7)
        perm = rng.permutation(7)
        npt.assert_allclose(distribution_metrics(p, q),
                            distribution_metrics(p[perm], q[perm]), atol=1e-14)
        assert prominent_topics(p, 0.8) == {
            int(perm[k]) for k in prominent_topics(p[perm], 0.8)
        }


class TestNonsupportMass:
    def test_exact_support_gives_zero(self):
        wt = np.array([0.5, 0.4, 0.1])
        wp = np.array([0.3, 0.7, 0.0])  # prominent(wt) = {0, 1}
        assert nonsupport_mass(wt, wp, 0.8) == 0.0

    def test_off_support_mass_counted(self):
        wt = np.array([0.9, 0.1])
        wp = np.array([0.6, 0.4])
        assert nonsupport_mass(wt, wp, 0.8) == pytest.approx(0.4, abs=1e-15)

    def test_uniform_prediction_identity(self):
        wt = np.array([0.85, 0.05, 0.05, 0.05])
        wp = np.full(4, 0.25)
        s = len(prominent_topics(wt, 0.8))
        assert nonsupport_mass(wt, wp, 0.8) == pytest.approx((4 - s) / 4, abs=1e-15)


class TestPriorDistance:
    def test_matched_moment_is_zero(self):
        W = CompositionMatrix(np.array([[0.2, 0.8], [0.8, 0.2]]))
        A0 = (W.W @ W.W.T) / 2.0
        assert prior_distance(A0, W) == 0.0

    def test_hand_computed_two_by_two(self):
        W = CompositionMatrix(np.array([[1.0], [0.0]]))
        A0 = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert prior_distance(A0, W) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_single_topic_always_zero(self):
        W = CompositionMatrix(np.ones((1, 5)))
        assert prior_distance(np.array([[1.0]]), W) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prior_raises(self, bad):
        W = CompositionMatrix(np.array([[0.2, 0.8], [0.8, 0.2]]))
        A0 = np.full((2, 2), 0.25)
        A0[0, 1] = bad
        error = "^prior must be a finite 2x2 matrix, got a non-finite entry$"
        with pytest.raises(ValueError, match=error):
            prior_distance(A0, W)
        with pytest.raises(ValueError, match=error):
            evaluate_compositions(W, W, prior=A0)


class TestRandomBaseline:
    def test_single_topic(self):
        npt.assert_array_equal(random_baseline(1, 4, seed=0).W, np.ones((1, 4)))

    def test_coordinate_mean(self):
        W = random_baseline(4, 100_000, seed=1).W
        npt.assert_allclose(W.mean(axis=1), 0.25, atol=0.01)

    def test_seeded_determinism(self):
        npt.assert_array_equal(random_baseline(3, 10, seed=7).W,
                               random_baseline(3, 10, seed=7).W)


class TestEvaluateCompositions:
    def test_self_comparison_is_perfect(self):
        rng = np.random.default_rng(6)
        W = CompositionMatrix(rng.dirichlet(np.ones(5), size=20).T)
        r = evaluate_compositions(W, W)
        for name in ("precision", "recall", "f1"):
            assert r.mean(name) == 1.0
        assert r.mean("l1_error") == 0.0
        assert r.mean("linf_error") == 0.0
        assert r.mean("hellinger") == pytest.approx(0.0, abs=1e-7)
        assert r.mean("kl") == pytest.approx(0.0, abs=1e-8)
        # even a perfect prediction carries whatever truth mass lies outside
        # the prominent set, which is below 1 - PROMINENT_MASS by definition
        assert 0.0 <= r.mean("nonsupp_mass") <= 0.2
        assert r.prior_dist is None

    def test_prior_passed_through(self):
        rng = np.random.default_rng(7)
        W = CompositionMatrix(rng.dirichlet(np.ones(3), size=10).T)
        A0 = (W.W @ W.W.T) / 10.0
        r = evaluate_compositions(W, W, prior=A0)
        assert r.prior_dist == pytest.approx(0.0, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        a = CompositionMatrix(np.ones((2, 3)) / 2)
        b = CompositionMatrix(np.ones((3, 3)) / 3)
        with pytest.raises(ValueError, match="truth"):
            evaluate_compositions(a, b)

    def test_any_two_compositions_are_scored(self):
        # columns may sum to 1 +- COMP_SUM_TOL, so a metric may pass its
        # nominal bound (1, or 2 for l1_error) by up to twice that
        r = evaluate_compositions(
            CompositionMatrix([[1.0, 0.2], [0.0, 0.8], [0.0, 0.0]]),
            CompositionMatrix([[0.0, 0.2], [0.5000003, 0.8], [0.5000003, 0.0]]))
        assert r.per_doc["nonsupp_mass"][0] == pytest.approx(1.0000006, abs=1e-15)
        assert r.per_doc["l1_error"][0] == pytest.approx(2.0000006, abs=1e-15)
        r = evaluate_compositions(CompositionMatrix([[0.0], [1.0]]),
                                  CompositionMatrix([[1.0 + 5e-7], [0.0]]))
        assert r.per_doc["linf_error"][0] == 1.0 + 5e-7

    def test_report_files(self, tmp_path):
        rng = np.random.default_rng(8)
        t = CompositionMatrix(rng.dirichlet(np.ones(4), size=12).T)
        p = CompositionMatrix(rng.dirichlet(np.ones(4), size=12).T)
        r = evaluate_compositions(t, p, prior=np.eye(4) / 4)
        report = tmp_path / "report.tsv"
        per_doc = tmp_path / "per_doc.tsv"
        write_report_tsv(r, report)
        write_per_doc_tsv(r, per_doc)
        lines = report.read_text().splitlines()
        assert lines[0] == "metric\tmean\tstd"
        assert [ln.split("\t")[0] for ln in lines[1:]] == list(METRIC_ORDER) + ["prior_dist"]
        doc_lines = per_doc.read_text().splitlines()
        assert doc_lines[0] == "doc\t" + "\t".join(METRIC_ORDER)
        assert len(doc_lines) == 13
        assert doc_lines[1].split("\t")[0] == "1"

    def test_mean_and_std_agree_with_numpy(self):
        rng = np.random.default_rng(9)
        t = CompositionMatrix(rng.dirichlet(np.ones(3), size=40).T)
        p = CompositionMatrix(rng.dirichlet(np.ones(3), size=40).T)
        r = evaluate_compositions(t, p)
        v = r.per_doc["hellinger"]
        assert r.mean("hellinger") == v.mean()
        assert r.std("hellinger") == v.std()


def _awkward_columns(rng, K, M, concentration):
    """Dirichlet columns, then some replaced by one-hot, uniform, tied and
    zero-padded columns (the cases where sort order and masks matter)."""
    W = rng.dirichlet(np.full(K, concentration), size=M).T
    W[:, 0::7] = np.eye(K)[:, rng.integers(0, K, size=W[:, 0::7].shape[1])]
    W[:, 1::7] = 1.0 / K
    ties = np.round(W[:, 2::7] * 4.0)
    ties[0] += 1.0
    W[:, 2::7] = ties / ties.sum(axis=0)
    W[: K // 2, 3::7] = 0.0
    W[-1, 3::7] += 1.0 - W[:, 3::7].sum(axis=0)
    return CompositionMatrix(W)


class TestBatchedMatchesLoop:
    """evaluate_compositions against the per-document loop it replaced,
    compared bit-for-bit on every per_doc column."""

    @pytest.mark.parametrize("K", [1, 2, 3, 8, 25, 60])
    @pytest.mark.parametrize("mass", [0.05, 0.8, 1.0, "random"])
    def test_every_column_identical(self, K, mass, monkeypatch):
        rng = np.random.default_rng(K * 1000 + (7 if mass == "random" else int(mass * 100)))
        if mass == "random":
            mass = float(rng.uniform(0.01, 1.0))
        monkeypatch.setattr(metrics_module, "PROMINENT_MASS", mass)
        M = 300
        cases = [
            (CompositionMatrix(rng.dirichlet(np.ones(K), size=M).T),
             CompositionMatrix(rng.dirichlet(np.ones(K), size=M).T)),
            (_awkward_columns(rng, K, M, 0.1), _awkward_columns(rng, K, M, 0.5)),
            (_awkward_columns(rng, K, M, 0.3), CompositionMatrix(rng.dirichlet(np.full(K, 0.05), size=M).T)),
        ]
        assert K == 1 or (cases[1][0].W == 0.0).any()  # KL drops zero truth terms
        for truth, pred in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = evaluate_compositions(truth, pred)
            ref = evaluate_loop_reference(truth.W, pred.W, mass)
            for name in METRIC_ORDER:
                assert report.per_doc[name].tobytes() == ref[name].tobytes(), name

    def test_per_doc_file_matches_row_writer(self, tmp_path):
        # more documents than one write block, with a partial last block
        rng = np.random.default_rng(13)
        M = WRITE_BLOCK + 123
        t = CompositionMatrix(rng.dirichlet(np.full(5, 0.3), size=M).T)
        p = CompositionMatrix(rng.dirichlet(np.full(5, 0.3), size=M).T)
        report = evaluate_compositions(t, p)
        write_per_doc_tsv(report, tmp_path / "new.tsv")
        per_doc_format_reference(report, tmp_path / "ref.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()
