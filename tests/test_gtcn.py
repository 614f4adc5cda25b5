import numpy as np
import pytest

from tubalgcn.gtcn import (
    AdjacencyTensor,
    EnsembleWeights,
    GtcnLayerParams,
    ensemble_combine,
    gtcn_forward,
    message_passing_oracle,
    preprocess_adjacency,
)
from tubalgcn.tensor3 import DimensionMismatchError
from tubalgcn.transforms import build_transform

ALL_KINDS = ["identity", "dft", "dct", "haar"]


def random_instance(rng, n, f_in, f_out, t, activation="sigmoid"):
    raw = rng.uniform(0.0, 1.0, size=(n, n, t))
    raw[np.arange(n), np.arange(n), :] = 0.0
    a = preprocess_adjacency(raw, "sym_normalized")
    x = rng.normal(size=(n, f_in, t))
    p = GtcnLayerParams(rng.normal(size=(f_in, f_out, t)), activation)
    return a, x, p


class TestPreprocessAdjacency:
    def test_single_node_gets_self_loop(self):
        raw = np.zeros((1, 1, 3))
        for mode in ["raw_self_loops", "sym_normalized"]:
            out = preprocess_adjacency(raw, mode)
            np.testing.assert_array_equal(out.a, np.ones((1, 1, 3)))

    def test_sym_normalized_two_nodes(self):
        raw = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1)
        out = preprocess_adjacency(raw, "sym_normalized")
        np.testing.assert_allclose(out.a[:, :, 0], np.full((2, 2), 0.5), atol=1e-12)

    def test_raw_mode_preserves_off_diagonal(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0, 1, size=(4, 4, 2))
        raw[np.arange(4), np.arange(4), :] = 0.0
        out = preprocess_adjacency(raw, "raw_self_loops")
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(out.a[off], raw[off])
        np.testing.assert_array_equal(out.a[np.arange(4), np.arange(4), :], np.ones((4, 2)))

    def test_negative_weights_rejected(self):
        raw = -np.ones((2, 2, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            preprocess_adjacency(raw)

    @pytest.mark.parametrize("mode", ["raw_self_loops", "sym_normalized"])
    def test_leaves_raw_unchanged_and_matches_out_of_place_form(self, mode):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 1, size=(6, 6, 4)) * (rng.random((6, 6, 4)) < 0.4)
        before = raw.copy()
        out = preprocess_adjacency(raw, mode)
        np.testing.assert_array_equal(raw, before)
        expected = raw + np.eye(6)[:, :, None]
        if mode == "sym_normalized":
            inv_sqrt = 1.0 / np.sqrt(expected.sum(axis=1))
            expected = expected * inv_sqrt[:, None, :] * inv_sqrt[None, :, :]
        np.testing.assert_array_equal(out.a, expected)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            preprocess_adjacency(np.zeros((2, 3, 1)))


class TestGtcnForward:
    def test_scalar_facewise_chain(self):
        t = 3
        a = AdjacencyTensor(np.ones((1, 1, t)), "raw_self_loops")
        c = np.array([1.0, 2.0, 3.0]).reshape(1, 1, t)
        d = np.array([4.0, 5.0, 6.0]).reshape(1, 1, t)
        p = GtcnLayerParams(d, "identity")
        out = gtcn_forward(a, c, p, build_transform("identity", t))
        np.testing.assert_allclose(out[0, 0], [4.0, 10.0, 18.0], atol=1e-12)

    def test_identity_transform_is_per_slice_convolution(self):
        rng = np.random.default_rng(1)
        a, x, p = random_instance(rng, 5, 3, 2, 4, activation="identity")
        out = gtcn_forward(a, x, p, build_transform("identity", 4))
        for t in range(4):
            expected = a.a[:, :, t] @ x[:, :, t] @ p.w[:, :, t]
            assert np.max(np.abs(out[:, :, t] - expected)) <= 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_oracle(self, kind):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f_in = int(rng.integers(1, 4))
            f_out = int(rng.integers(1, 4))
            t = int(rng.choice([2, 4]))
            a, x, p = random_instance(rng, n, f_in, f_out, t)
            tm = build_transform(kind, t)
            fwd = gtcn_forward(a, x, p, tm)
            oracle = message_passing_oracle(a, x, p, tm)
            assert np.max(np.abs(fwd - oracle)) <= 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n, t = 6, 4
        a, x, p = random_instance(rng, n, 3, 2, t)
        tm = build_transform("dct", t)
        perm = rng.permutation(n)
        a_p = AdjacencyTensor(a.a[perm][:, perm, :], a.preprocessing)
        out = gtcn_forward(a, x, p, tm)
        out_p = gtcn_forward(a_p, x[perm], p, tm)
        assert np.max(np.abs(out_p - out[perm])) <= 1e-10

    def test_dft_real_output(self):
        rng = np.random.default_rng(4)
        a, x, p = random_instance(rng, 4, 2, 2, 4)
        out = gtcn_forward(a, x, p, build_transform("dft", 4))
        assert not np.iscomplexobj(out)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a, x, p = random_instance(rng, 4, 2, 2, 4)
        with pytest.raises(DimensionMismatchError):
            gtcn_forward(a, x, p, build_transform("dct", 8))


class TestMessagePassingOracle:
    def test_identity_transform_literal_form(self):
        # With M = I the temporal mixing disappears and the oracle is the
        # plain per-slice neighborhood aggregation.
        rng = np.random.default_rng(6)
        a, x, p = random_instance(rng, 4, 2, 2, 3, activation="identity")
        tm = build_transform("identity", 3)
        out = message_passing_oracle(a, x, p, tm)
        for t in range(3):
            expected = (a.a[:, :, t] @ x[:, :, t]) @ p.w[:, :, t]
            assert np.max(np.abs(out[:, :, t] - expected)) <= 1e-10

    def test_single_node_graph(self):
        t = 2
        a = preprocess_adjacency(np.zeros((1, 1, t)), "raw_self_loops")
        x = np.array([0.5, -0.5]).reshape(1, 1, t)
        p = GtcnLayerParams(np.array([2.0, 3.0]).reshape(1, 1, t), "identity")
        tm = build_transform("identity", t)
        out = message_passing_oracle(a, x, p, tm)
        np.testing.assert_allclose(out[0, 0], [1.0, -1.5], atol=1e-12)

    def test_equivalence_100_seeded_instances(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            f_in = int(rng.integers(1, 4))
            f_out = int(rng.integers(1, 4))
            t = int(rng.choice([2, 4]))
            kind = ALL_KINDS[seed % 4]
            a, x, p = random_instance(rng, n, f_in, f_out, t)
            tm = build_transform(kind, t)
            diff = np.max(np.abs(gtcn_forward(a, x, p, tm) - message_passing_oracle(a, x, p, tm)))
            worst = max(worst, diff)
        assert worst <= 1e-9


class TestEnsemble:
    def test_identical_inputs_are_fixed_point(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(3, 2, 4))
        out = ensemble_combine(h, h, h, EnsembleWeights())
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_degenerate_weight_selects_branch(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(2, 2, 2))
        out = ensemble_combine(z, np.zeros_like(z), np.zeros_like(z), EnsembleWeights(1.0, 0.0, 0.0))
        np.testing.assert_array_equal(out, z)

    def test_elementwise_weighted_sum(self):
        rng = np.random.default_rng(9)
        hs = [rng.normal(size=(3, 2, 4)) for _ in range(3)]
        w = EnsembleWeights(0.2, 0.3, 0.5)
        out = ensemble_combine(*hs, w)
        expected = np.zeros_like(hs[0])
        for coeff, h in zip([0.2, 0.3, 0.5], hs):
            for idx in np.ndindex(*h.shape):
                expected[idx] += coeff * h[idx]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EnsembleWeights(0.5, 0.5, 0.5)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EnsembleWeights(1.2, -0.1, -0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ensemble_combine(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), EnsembleWeights())
