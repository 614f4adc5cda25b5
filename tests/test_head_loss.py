import numpy as np
import pytest

from tubalgcn.head_loss import head_scores, link_rows, loss, mae, params_l2_norm, predict, rmse


def time_major(h):
    """An (N, F, T) representation as ``head_scores``'s time-major (T, N, F) layout."""
    return h.transpose(2, 0, 1)


def predict_one(h, t, i, j, r):
    """The head's estimate for the single link (t, i, j), t one-based, on an (N, F, T) h."""
    scores = head_scores(time_major(h), np.asarray(r, dtype=np.float64))
    rows = link_rows(np.array([t]), np.array([i]), np.array([j]), h.shape[2], h.shape[0])
    return float(predict(scores, rows)[0])


class TestEstimateWeight:
    def test_selects_matching_head_entries(self):
        h = np.zeros((2, 2, 1))
        h[0, :, 0] = [1.0, 0.0]
        h[1, :, 0] = [0.0, 1.0]
        assert predict_one(h, 1, 0, 1, [1.0, 2.0, 3.0, 4.0]) == 5.0

    def test_zero_head_gives_zero(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 2, 4))
        for t, i, j in [(1, 0, 1), (4, 2, 0)]:
            assert predict_one(h, t, i, j, np.zeros(4)) == 0.0

    def test_matches_concatenate_then_dot_loop(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 3, 2))
        r = rng.normal(size=6)
        for t in [1, 2]:
            for i in range(4):
                for j in range(4):
                    expected = sum(
                        c * rv
                        for c, rv in zip(list(h[i, :, t - 1]) + list(h[j, :, t - 1]), r)
                    )
                    assert abs(predict_one(h, t, i, j, r) - expected) <= 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 3, 4))
        r = rng.normal(size=6)
        t = np.array([1, 3, 4])
        i = np.array([0, 2, 4])
        j = np.array([1, 1, 0])
        scores = head_scores(time_major(h), r)
        batch = predict(scores, link_rows(t, i, j, 4, 5))
        for k in range(3):
            assert abs(batch[k] - predict_one(h, t[k], i[k], j[k], r)) <= 1e-12
        # The slot-major score rows hold the same (node, slot) rows as indexing (N, F, T).
        s_rows = scores.reshape(2, 4 * 5)
        np.testing.assert_allclose(s_rows[0, (t - 1) * 5 + i], h[i, :, t - 1] @ r[:3], rtol=1e-12)
        np.testing.assert_allclose(s_rows[1, (t - 1) * 5 + j], h[j, :, t - 1] @ r[3:], rtol=1e-12)

    def test_out_of_range_rejected(self):
        h = np.zeros((2, 2, 2))
        for link in [(3, 0, 1), (0, 0, 1), (1, 0, 2), (1, -1, 0)]:
            with pytest.raises(IndexError, match="^link indices out of range for 2 slots and 2 nodes$"):
                predict_one(h, *link, np.zeros(4))
        with pytest.raises(ValueError, match="head length"):
            predict_one(h, 1, 0, 1, np.zeros(3))

    def test_linear_in_head_and_embeddings(self):
        rng = np.random.default_rng(3)
        h1 = rng.normal(size=(3, 2, 2))
        h2 = rng.normal(size=(3, 2, 2))
        r1 = rng.normal(size=4)
        r2 = rng.normal(size=4)
        link = (2, 0, 1)
        a, b = 0.7, -2.1
        lhs = predict_one(a * h1 + b * h2, *link, r1)
        rhs = a * predict_one(h1, *link, r1) + b * predict_one(h2, *link, r1)
        assert abs(lhs - rhs) <= 1e-12
        lhs = predict_one(h1, *link, a * r1 + b * r2)
        rhs = a * predict_one(h1, *link, r1) + b * predict_one(h1, *link, r2)
        assert abs(lhs - rhs) <= 1e-12


class TestLoss:
    def test_single_residual(self):
        assert loss([2.0], [1.0]) == 1.0

    def test_perfect_predictions(self):
        y = np.array([0.1, 0.5, 0.9])
        assert loss(y, y) == 0.0

    def test_with_regularizer(self):
        # residuals (1, -2), kappa 0.5, ||Theta||_2 = 2 -> 5 + 1
        params = [np.array([2.0])]
        assert loss([1.0, 0.0], [0.0, 2.0], params_l2_norm(params), kappa=0.5) == 6.0

    def test_kappa_zero_equals_count_times_mse(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=17)
        y_hat = rng.normal(size=17)
        assert abs(loss(y, y_hat) - 17 * np.mean((y - y_hat) ** 2)) <= 1e-12

    def test_norm_over_multiple_arrays(self):
        arrays = [np.array([3.0]), np.array([[4.0]])]
        assert params_l2_norm(arrays) == 5.0


class TestMetrics:
    def test_equal_residuals(self):
        y = np.array([1.0, 1.0])
        y_hat = np.array([0.5, 1.5])
        assert mae(y, y_hat) == 0.5
        assert rmse(y, y_hat) == 0.5

    def test_unequal_residuals(self):
        y = np.array([0.0, 2.0])
        y_hat = np.array([0.0, 0.0])
        assert mae(y, y_hat) == 1.0
        assert abs(rmse(y, y_hat) - np.sqrt(2)) <= 1e-12

    def test_perfect(self):
        y = np.array([0.3, 0.7])
        assert mae(y, y) == 0.0
        assert rmse(y, y) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])
        with pytest.raises(ValueError):
            rmse([], [])

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            y = rng.normal(size=n)
            y_hat = rng.normal(size=n)
            assert rmse(y, y_hat) >= mae(y, y_hat) - 1e-12
