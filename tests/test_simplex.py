import numpy as np
import numpy.testing as npt
import pytest

from topic_compose import project_simplex_columns
from oracles import simplex_argsort_reference, simplex_qp_oracle


def project_vector(v):
    """Project one vector, as a single column."""
    return project_simplex_columns(np.asarray(v, dtype=np.float64)[:, None])[:, 0]


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
        npt.assert_allclose(project_vector(v), expected, atol=1e-15)
        npt.assert_allclose(simplex_qp_oracle(v), expected, atol=1e-12)

    def test_single_component(self):
        npt.assert_array_equal(project_vector([3.7]), [1.0])
        npt.assert_array_equal(project_vector([-99.0]), [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_vector([np.nan, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            project_vector([np.inf, 0.0])

    @pytest.mark.parametrize("V, message", [
        (np.ones(3), "expected a matrix, got ndim=1"),
        (np.ones((2, 2, 2)), "expected a matrix, got ndim=3"),
        (np.ones((0, 4)), "vectors must have at least one component"),
    ], ids=["vector", "3-d", "no-components"])
    def test_invalid_shape_rejected(self, V, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            project_simplex_columns(V)


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
            npt.assert_allclose(project_vector(v), simplex_qp_oracle(v), atol=1e-8)

    def test_order_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, size=12)
            w = project_vector(v)
            iv = np.argsort(v, kind="stable")
            assert (np.diff(w[iv]) >= -1e-15).all()

    def test_translation_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, size=7)
            c = rng.uniform(-100.0, 100.0)
            npt.assert_allclose(project_vector(v + c), project_vector(v), atol=1e-10)

    def test_columns_match_vector_calls(self):
        rng = np.random.default_rng(15)
        V = rng.uniform(-4.0, 4.0, size=(6, 50))
        W = project_simplex_columns(V)
        for j in range(V.shape[1]):
            npt.assert_array_equal(W[:, j], project_vector(V[:, j]))

    def test_ties_resolved_identically_for_equal_values(self):
        # equal entries must come out equal; stable ordering must not leak
        w = project_vector([0.7, 0.7, 0.7])
        npt.assert_allclose(w, [1 / 3] * 3, atol=1e-15)


def stale_orders(V, seed=0):
    """Sort orders a caller may hand over: identity, reversed, a random
    permutation per column, and the exact descending order."""
    K, M = V.shape
    rng = np.random.default_rng(seed)
    rows = np.arange(K)[:, None]
    return {
        "identity": np.repeat(rows, M, axis=1),
        "reversed": np.repeat(rows[::-1], M, axis=1),
        "random": rng.permuted(np.repeat(rows, M, axis=1), axis=0),
        "exact": np.argsort(-V, axis=0, kind="stable"),
    }


def assert_descending_permutation(V, order):
    K = V.shape[0]
    assert (np.sort(order, axis=0) == np.arange(K)[:, None]).all()
    U = np.take_along_axis(V, order, axis=0)
    assert (U[:-1] >= U[1:]).all()


class TestMatchesArgsortReference:
    """A call without an order must give the same bytes as a stable
    argsort plus gather: tied entries are equal, so the sorted values are
    too. So must a call that starts from any stale sort order, and the
    order it leaves behind must sort every column descending."""

    @staticmethod
    def assert_same_bytes(V):
        ref = simplex_argsort_reference(V).tobytes()
        assert project_simplex_columns(V).tobytes() == ref
        for name, order in stale_orders(V).items():
            assert project_simplex_columns(V, order=order).tobytes() == ref, name
            assert_descending_permutation(V, order)

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


class TestOrderArgument:
    @pytest.mark.parametrize("K", [2, 10, 50])
    def test_column_slice_of_wider_order(self, K):
        # PADD hands each block its column slice of one request-wide order
        rng = np.random.default_rng(19 + K)
        V = rng.uniform(-3.0, 3.0, size=(K, 120))
        wide = stale_orders(rng.uniform(size=(K, 300)), seed=K)["random"]
        before = wide.copy()
        view = wide[:, 100:220]
        W = project_simplex_columns(V, order=view)
        assert W.tobytes() == simplex_argsort_reference(V).tobytes()
        assert_descending_permutation(V, wide[:, 100:220])
        npt.assert_array_equal(wide[:, :100], before[:, :100])
        npt.assert_array_equal(wide[:, 220:], before[:, 220:])

    def test_repeat_call_keeps_exact_order(self):
        rng = np.random.default_rng(20)
        V = rng.uniform(-3.0, 3.0, size=(10, 200))
        order = stale_orders(V)["reversed"]
        first = project_simplex_columns(V, order=order)
        kept = order.copy()
        assert project_simplex_columns(V, order=order).tobytes() == first.tobytes()
        npt.assert_array_equal(order, kept)

    def test_repeated_row_index_sorted_again(self):
        V = np.array([[5.0], [1.0]])
        order = np.array([[0], [0]])
        W = project_simplex_columns(V, order=order)
        assert W.tobytes() == simplex_argsort_reference(V).tobytes()
        assert_descending_permutation(V, order)

    def test_any_index_array_in_range_gives_reference_bytes(self):
        rng = np.random.default_rng(22)
        K, M = 6, 400
        V = rng.uniform(-3.0, 3.0, size=(K, M))
        order = rng.integers(-K, K, size=(K, M))  # repeats and negatives
        order[:, :50] = np.argsort(-V[:, :50], axis=0) - K  # exact, wrapped
        W = project_simplex_columns(V, order=order)
        assert W.tobytes() == simplex_argsort_reference(V).tobytes()
        assert_descending_permutation(V, order % K)

    @pytest.mark.parametrize("bad", [2, -3])
    def test_index_out_of_range_rejected(self, bad):
        V = np.array([[5.0, 2.0], [1.0, 3.0]])
        order = np.array([[0, 1], [1, bad]])
        with pytest.raises(IndexError):
            project_simplex_columns(V, order=order)

    @pytest.mark.parametrize("shape", [(4, 11), (3, 10), (4, 10, 1)])
    def test_wrong_shape_rejected(self, shape):
        V = np.random.default_rng(21).uniform(size=(4, 10))
        with pytest.raises(ValueError, match="order has shape"):
            project_simplex_columns(V, order=np.zeros(shape, dtype=np.intp))
