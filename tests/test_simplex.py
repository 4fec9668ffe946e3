import numpy as np
import numpy.testing as npt
import pytest

from topic_compose import project_simplex, project_simplex_columns
from oracles import simplex_argsort_reference, simplex_qp_oracle


class TestKnownValues:
    @pytest.mark.parametrize(
        "v, expected",
        [
            ([0.5, 0.5], [0.5, 0.5]),
            ([2.0, 0.0], [1.0, 0.0]),
            ([0.6, 0.6], [0.5, 0.5]),
            ([1.2, 0.3, -0.1], [0.95, 0.05, 0.0]),
        ],
    )
    def test_examples(self, v, expected):
        npt.assert_allclose(project_simplex(v), expected, atol=1e-15)
        npt.assert_allclose(simplex_qp_oracle(v), expected, atol=1e-12)

    def test_single_component(self):
        npt.assert_array_equal(project_simplex([3.7]), [1.0])
        npt.assert_array_equal(project_simplex([-99.0]), [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_simplex([np.nan, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            project_simplex([np.inf, 0.0])


class TestProperties:
    def test_on_simplex_many_sizes(self):
        rng = np.random.default_rng(10)
        total = 0
        while total < 10_000:
            K = int(rng.integers(1, 51))
            V = rng.uniform(-10.0, 10.0, size=(K, 200))
            W = project_simplex_columns(V)
            npt.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
            assert W.min() >= 0.0
            total += 200

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        V = rng.uniform(-5.0, 5.0, size=(8, 500))
        W = project_simplex_columns(V)
        npt.assert_allclose(project_simplex_columns(W), W, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            K = int(rng.integers(1, 11))
            v = rng.uniform(-3.0, 3.0, size=K)
            npt.assert_allclose(project_simplex(v), simplex_qp_oracle(v), atol=1e-8)

    def test_order_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, size=12)
            w = project_simplex(v)
            iv = np.argsort(v, kind="stable")
            assert (np.diff(w[iv]) >= -1e-15).all()

    def test_translation_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, size=7)
            c = rng.uniform(-100.0, 100.0)
            npt.assert_allclose(project_simplex(v + c), project_simplex(v), atol=1e-10)

    def test_columns_match_vector_calls(self):
        rng = np.random.default_rng(15)
        V = rng.uniform(-4.0, 4.0, size=(6, 50))
        W = project_simplex_columns(V)
        for j in range(V.shape[1]):
            npt.assert_array_equal(W[:, j], project_simplex(V[:, j]))

    def test_ties_resolved_identically_for_equal_values(self):
        # equal entries must come out equal; stable ordering must not leak
        w = project_simplex([0.7, 0.7, 0.7])
        npt.assert_allclose(w, [1 / 3] * 3, atol=1e-15)


class TestMatchesArgsortReference:
    """The plain sort must give the same bytes as a stable argsort plus
    gather: tied entries are equal, so the sorted values are too."""

    @staticmethod
    def assert_same_bytes(V):
        assert project_simplex_columns(V).tobytes() == simplex_argsort_reference(V).tobytes()

    @pytest.mark.parametrize("K", [2, 10, 50, 200])
    def test_random(self, K):
        rng = np.random.default_rng(16 + K)
        self.assert_same_bytes(rng.uniform(-3.0, 3.0, size=(K, 300)))

    @pytest.mark.parametrize("K", [2, 10, 50, 200])
    def test_quarter_integer_ties(self, K):
        rng = np.random.default_rng(17 + K)
        V = rng.integers(-8, 9, size=(K, 300)) / 4.0
        assert (np.diff(np.sort(V, axis=0), axis=0) == 0).any()
        self.assert_same_bytes(V)

    @pytest.mark.parametrize("K", [2, 10, 50, 200])
    def test_all_equal_columns(self, K):
        V = np.tile(np.array([-1.5, -0.25, 0.0, 0.3, 7.0]), (K, 1))
        self.assert_same_bytes(V)

    @pytest.mark.parametrize("K", [2, 10, 50, 200])
    def test_signed_zeros(self, K):
        rng = np.random.default_rng(18 + K)
        V = np.where(rng.random((K, 40)) < 0.5, -0.0, 0.0)
        V[:, 0] = -0.0
        V[:, 1] = 0.0
        self.assert_same_bytes(V)
