import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from tubalgcn.gtcn import (
    ACTIVATIONS,
    activation_grad,
    apply_activation,
    layer_backward,
    layer_forward,
    preprocess_adjacency,
    propagate,
    propagate_grad,
    transform_weight,
    transformed_blocks,
    weight_grad,
)
from tubalgcn.tensor3 import DimensionMismatchError, m_transform
from tubalgcn.transforms import build_transform, next_power_of_two

from oracle import dense_a_hat, message_passing_oracle, slot_stack, unstack

ALL_KINDS = ["identity", "dft", "dct", "haar"]

# A transform kind with a slot count it is built at: Haar needs a power of two.
KIND_AND_SLOTS = st.one_of(
    st.tuples(st.sampled_from(["identity", "dft", "dct"]), st.integers(1, 9)),
    st.tuples(st.just("haar"), st.sampled_from([1, 2, 4, 8])),
)


def random_instance(rng, n, f_in, f_out, t):
    raw = rng.uniform(0.0, 1.0, size=(n, n, t))
    raw[np.arange(n), np.arange(n), :] = 0.0
    a = dense_a_hat(raw, "sym_normalized")
    x = rng.normal(size=(n, f_in, t))
    w = rng.normal(size=(f_in, f_out, t))
    return a, x, w


def time_major(x):
    """An (N, F, T) tensor as the layer's time-major (T, N, F) layout."""
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def node_major(x):
    """A time-major (T, N, F) tensor as (N, F, T), the oracle's layout."""
    return x.transpose(1, 2, 0)


def run_layer(blocks, x, w, tm, activation):
    """The trainer's layer after the first on time-major ``x``: (H, cache)."""
    return layer_forward(propagate(blocks, x, tm), transform_weight(w, tm), tm, activation)


def layer_grads(blocks, g_h, cache, tm, activation):
    """(dL/dX, dL/dW) of ``run_layer`` from dL/dH."""
    g_q, g_wh = layer_backward(g_h, cache, tm, activation)
    return propagate_grad(blocks, g_q, tm), weight_grad(g_wh, tm)


def layer(a, x, w, tm, activation="sigmoid"):
    """The trainer's layer on blocks built from the dense adjacency ``a``, in
    the oracle's (N, F, T) layout."""
    (blocks,) = transformed_blocks(slot_stack(a), [tm])
    return node_major(run_layer(blocks, time_major(x), w, tm, activation)[0])


class TestActivation:
    def test_sigmoid_saturates_without_a_warning(self):
        s = np.array([-1000.0, -709.0, 0.0, 2.5, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_activation(s, "sigmoid")
        assert out[0] == 0.0 and out[2] == 0.5 and out[4] == 1.0
        np.testing.assert_array_equal(out[1:4], 1.0 / (1.0 + np.exp(-s[1:4])))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_into_a_buffer_gives_the_out_of_place_bits(self, activation):
        # The layer writes H over its own pre-activation.  Out of place, into
        # another buffer or in place, the bits are those of the textbook
        # form, saturated sigmoid (s <= -709) and signed zeros included.
        rng = np.random.default_rng(0)
        s = np.concatenate([[-1e308, -1000.0, -745.2, -709.8, -709.0, -0.0, 0.0, 1000.0], rng.normal(scale=8.0, size=64)])
        with np.errstate(over="ignore"):
            expected = {"sigmoid": 1.0 / (1.0 + np.exp(-s)), "relu": np.maximum(s, 0.0), "identity": s.copy()}[activation]
        buf, s_in = np.full_like(s, np.nan), s.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out_of_place = apply_activation(s, activation)
            into_buffer = apply_activation(s, activation, out=buf)
            in_place = apply_activation(s_in, activation, out=s_in)
        assert into_buffer is buf and in_place is s_in
        for got in (out_of_place, into_buffer, in_place):
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_derivative_is_a_new_array_with_the_textbook_bits(self, activation):
        # layer_backward multiplies the gradient into the derivative's array.
        h = apply_activation(np.random.default_rng(1).normal(scale=3.0, size=(4, 5, 3)), activation)
        kept = h.copy()
        expected = {"sigmoid": h * (1.0 - h), "relu": (h > 0).astype(np.float64), "identity": np.ones_like(h)}[activation]
        got = activation_grad(h, activation)
        assert not np.shares_memory(got, h)
        assert got.tobytes() == expected.tobytes() and h.tobytes() == kept.tobytes()


def gemm_reference(m, x):
    """``m`` times the (T, -1) reshape of ``x`` by ``np.matmul``, shaped back."""
    return np.matmul(m, x.reshape(len(x), -1)).reshape(len(m), *x.shape[1:])


def operands_with_negative_zeros(t):
    """A (t, 5, 4) tensor holding -0.0, its transposed-weight view and its (t, 20) reshape."""
    x = np.random.default_rng(t).normal(size=(t, 5, 4))
    x[0, 1, 2] = -0.0
    x[..., 3] = -0.0
    w = np.ascontiguousarray(x.transpose(1, 2, 0))
    return x, w.transpose(2, 0, 1), x.reshape(t, -1)


class TestMTransformIdentity:
    @pytest.mark.parametrize("t", [1, 3, 16])
    def test_identity_gives_the_gemm_bits_in_a_new_contiguous_array(self, t):
        # I x makes each -0.0 +0.0.  Every square slice or transpose of the
        # identity's matrices is I; a weight reaches the product as a
        # transposed view, which the result must not alias.
        tm = build_transform("identity", t)
        for operand in operands_with_negative_zeros(t):
            for m in (tm.m_kept, tm.m_kept.T, tm.m_inv_kept, tm.m_inv_kept[:t].T, np.eye(t)):
                out = m_transform(m, operand)
                assert out.tobytes() == gemm_reference(np.eye(t), operand).tobytes()
                assert out.flags.c_contiguous and not np.shares_memory(out, operand)

    @pytest.mark.parametrize("kind", ["dct", "haar"])
    def test_one_slot_real_transforms_are_i(self, kind):
        tm = build_transform(kind, 1)
        np.testing.assert_array_equal(tm.m, [[1.0]])
        for operand in operands_with_negative_zeros(1):
            for m in (tm.m_kept, tm.m_inv_kept.T):
                out = m_transform(m, operand)
                assert out.tobytes() == gemm_reference(np.eye(1), operand).tobytes()
                assert out.flags.c_contiguous and not np.shares_memory(out, operand)

    @pytest.mark.parametrize(
        "m",
        [np.eye(4)[[1, 0, 3, 2]], np.eye(4)[:, :3], build_transform("dft", 1).m_kept],
        ids=["permutation", "padding-slice", "dft-1"],
    )
    def test_other_matrices_run_the_gemm(self, m):
        # A real permutation, a non-square slice of I and the DFT's complex
        # [[1+0j]] are not I: each runs the product, whose result the skip
        # could not give (reordered slots, four slots from three, complex).
        x = np.random.default_rng(0).normal(size=(m.shape[1], 2, 2))
        out = m_transform(m, x)
        assert out.dtype == np.result_type(m, x) and out.shape == (len(m), 2, 2)
        np.testing.assert_array_equal(out, gemm_reference(m, x))


def preprocess(raw, mode):
    """``preprocess_adjacency`` on the slot stack of a dense (N, N, T) ``raw``, as a dense array."""
    return unstack(preprocess_adjacency(slot_stack(raw), mode))


class TestPreprocessAdjacency:
    def test_single_node_gets_self_loop(self):
        raw = np.zeros((1, 1, 3))
        for mode in ["raw_self_loops", "sym_normalized"]:
            out = preprocess(raw, mode)
            np.testing.assert_array_equal(out, np.ones((1, 1, 3)))

    def test_sym_normalized_two_nodes(self):
        raw = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1)
        out = preprocess(raw, "sym_normalized")
        np.testing.assert_allclose(out[:, :, 0], np.full((2, 2), 0.5), atol=1e-12)

    def test_raw_mode_preserves_off_diagonal(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0, 1, size=(4, 4, 2))
        raw[np.arange(4), np.arange(4), :] = 0.0
        out = preprocess(raw, "raw_self_loops")
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(out[off], raw[off])
        np.testing.assert_array_equal(out[np.arange(4), np.arange(4), :], np.ones((4, 2)))

    def test_negative_weights_rejected(self):
        raw = slot_stack(-np.ones((2, 2, 1)))
        with pytest.raises(ValueError, match="nonnegative"):
            preprocess_adjacency(raw)

    @pytest.mark.parametrize("mode", ["raw_self_loops", "sym_normalized"])
    def test_leaves_raw_unchanged_and_matches_out_of_place_form(self, mode):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 1, size=(6, 6, 4)) * (rng.random((6, 6, 4)) < 0.4)
        stack = slot_stack(raw)
        out = unstack(preprocess_adjacency(stack, mode))
        np.testing.assert_array_equal(unstack(stack), raw)
        np.testing.assert_array_equal(out, dense_a_hat(raw, mode))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            preprocess_adjacency(sparse.csr_array((2, 3)))


class TestGtcnForward:
    def test_scalar_facewise_chain(self):
        t = 3
        a = np.ones((1, 1, t))
        c = np.array([1.0, 2.0, 3.0]).reshape(1, 1, t)
        d = np.array([4.0, 5.0, 6.0]).reshape(1, 1, t)
        out = layer(a, c, d, build_transform("identity", t), "identity")
        np.testing.assert_allclose(out[0, 0], [4.0, 10.0, 18.0], atol=1e-12)

    def test_identity_transform_is_per_slice_convolution(self):
        rng = np.random.default_rng(1)
        a, x, w = random_instance(rng, 5, 3, 2, 4)
        out = layer(a, x, w, build_transform("identity", 4), "identity")
        for t in range(4):
            expected = a[:, :, t] @ x[:, :, t] @ w[:, :, t]
            assert np.max(np.abs(out[:, :, t] - expected)) <= 1e-10

    @pytest.mark.parametrize(
        "kind,slots",
        [pytest.param(kind, (2, 4), id=kind) for kind in ALL_KINDS]
        + [pytest.param(kind, (t,), id=f"{kind}-T{t}") for kind in ("identity", "dft", "dct") for t in (3, 5)]
        + [pytest.param("dft", (t,), id=f"dft-T{t}") for t in (1, 2, 6)],
    )
    def test_matches_oracle(self, kind, slots):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f_in = int(rng.integers(1, 4))
            f_out = int(rng.integers(1, 4))
            t = int(rng.choice(slots))
            a, x, w = random_instance(rng, n, f_in, f_out, t)
            tm = build_transform(kind, t)
            fwd = layer(a, x, w, tm)
            oracle = message_passing_oracle(a, x, w, tm)
            assert np.max(np.abs(fwd - oracle)) <= 1e-9

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        f_in=st.integers(1, 3),
        f_out=st.integers(1, 3),
        kind_t=KIND_AND_SLOTS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dft_half_spectrum_matches_oracle(self, n, f_in, f_out, kind_t, seed):
        # The DFT branch stores T//2 + 1 slices, the others all T; the oracle uses all T.
        kind, t = kind_t
        a, x, w = random_instance(np.random.default_rng(seed), n, f_in, f_out, t)
        tm = build_transform(kind, t)
        assert tm.kept == (t // 2 + 1 if kind == "dft" else t)
        assert np.max(np.abs(layer(a, x, w, tm) - message_passing_oracle(a, x, w, tm))) <= 1e-9

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        f_in=st.integers(1, 3),
        f_out=st.integers(1, 3),
        t=st.sampled_from([3, 5, 6, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_padded_haar_is_the_product_on_zero_padded_operands(self, n, f_in, f_out, t, seed):
        # The Haar branch runs at the next power of two with the extra slots
        # of Â and X zero; with the identity activation its layer is then
        # Â * X * W on the zero-padded operands.
        rng = np.random.default_rng(seed)
        a, x, _ = random_instance(rng, n, f_in, f_out, t)
        t_b = next_power_of_two(t)
        tm = build_transform("haar", t_b)
        w = rng.normal(size=(f_in, f_out, t_b))
        a_pad, x_pad = (np.concatenate([v, np.zeros(v.shape[:2] + (t_b - t,))], axis=2) for v in (a, x))
        (blocks,) = transformed_blocks(slot_stack(a), [tm])
        h, _ = run_layer(blocks, time_major(x_pad), w, tm, "identity")
        expected = message_passing_oracle(a_pad, x_pad, w, tm, "identity")
        assert np.max(np.abs(node_major(h) - expected)) <= 1e-9
        # The T-slot Â and X, transformed by the first T columns of M, give
        # the same blocks and layer as their zero-padded copies.
        (blocks_pad,) = transformed_blocks(slot_stack(a_pad), [tm])
        assert np.max(np.abs((blocks - blocks_pad).toarray())) <= 1e-12
        h_t, _ = run_layer(blocks, time_major(x), w, tm, "identity")
        assert h_t.shape == h.shape and np.max(np.abs(h_t - h)) <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n, t = 6, 4
        a, x, w = random_instance(rng, n, 3, 2, t)
        tm = build_transform("dct", t)
        perm = rng.permutation(n)
        out = layer(a, x, w, tm)
        out_p = layer(a[perm][:, perm, :], x[perm], w, tm)
        assert np.max(np.abs(out_p - out[perm])) <= 1e-10

    def test_dft_real_output(self):
        rng = np.random.default_rng(4)
        a, x, w = random_instance(rng, 4, 2, 2, 4)
        out = layer(a, x, w, build_transform("dft", 4))
        assert not np.iscomplexobj(out)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a, x, w = random_instance(rng, 4, 2, 2, 4)
        with pytest.raises(DimensionMismatchError):
            layer(a, x, w, build_transform("dct", 8))
        with pytest.raises(DimensionMismatchError):
            layer(a, x, w[:1], build_transform("dct", 4))

    def test_complex_weights_fail_the_residue_check(self):
        # The layer refuses a complex operand where it enters, by name.
        rng = np.random.default_rng(6)
        a, x, w = random_instance(rng, 4, 2, 2, 4)
        with pytest.raises(ValueError, match=r"^layer input w must be real, got complex128$"):
            layer(a, x, w + 1j * w, build_transform("dft", 4))
        with pytest.raises(ValueError, match=r"^layer input x must be real, got complex128$"):
            layer(a, x + 1j * x, w, build_transform("dft", 4))


class TestLayerAdjoint:
    @pytest.mark.parametrize("t", [3, 4, 5])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_backward_is_the_adjoint_of_the_linear_layer(self, kind, t):
        # With the identity activation H is linear in X and in W, so
        # <H, G> = <X, g_X> = <W, g_W>.  Haar at T = 3 and 5 runs on the
        # padded slot count, as the trainer's Haar branch does.
        rng = np.random.default_rng(t)
        n, f_in, f_out = 6, 3, 2
        t_b = next_power_of_two(t) if kind == "haar" else t
        a, _, _ = random_instance(rng, n, f_in, f_out, t)
        tm = build_transform(kind, t_b)
        (blocks,) = transformed_blocks(slot_stack(a), [tm])
        x = rng.normal(size=(n, f_in, t_b))
        w = rng.normal(size=(f_in, f_out, t_b))
        g = rng.normal(size=(n, f_out, t_b))
        h, cache = run_layer(blocks, time_major(x), w, tm, "identity")
        g_x, g_w = layer_grads(blocks, time_major(g), cache, tm, "identity")
        if t_b > t:
            # A gradient on H's first T slots only, as the trainer's cropped
            # output gives, equals the padded gradient with zero extra slots.
            g_pad = g.copy()
            g_pad[:, :, t:] = 0.0
            g_x_t, g_w_t = layer_grads(blocks, time_major(g)[:t], cache, tm, "identity")
            g_x_pad, g_w_pad = layer_grads(blocks, time_major(g_pad), cache, tm, "identity")
            assert np.max(np.abs(g_x_t - g_x_pad)) <= 1e-12 and np.max(np.abs(g_w_t - g_w_pad)) <= 1e-12
        h, g_x = node_major(h), node_major(g_x)
        assert g_x.dtype == g_w.dtype == np.float64
        np.testing.assert_allclose(np.vdot(x, g_x), np.vdot(h, g), rtol=1e-12)
        np.testing.assert_allclose(np.vdot(w, g_w), np.vdot(h, g), rtol=1e-12)


class TestMessagePassingOracle:
    def test_identity_transform_literal_form(self):
        # With M = I the temporal mixing disappears and the oracle is the
        # plain per-slice neighborhood aggregation.
        rng = np.random.default_rng(6)
        a, x, w = random_instance(rng, 4, 2, 2, 3)
        tm = build_transform("identity", 3)
        out = message_passing_oracle(a, x, w, tm, "identity")
        for t in range(3):
            expected = (a[:, :, t] @ x[:, :, t]) @ w[:, :, t]
            assert np.max(np.abs(out[:, :, t] - expected)) <= 1e-10

    def test_single_node_graph(self):
        t = 2
        a = dense_a_hat(np.zeros((1, 1, t)), "raw_self_loops")
        x = np.array([0.5, -0.5]).reshape(1, 1, t)
        w = np.array([2.0, 3.0]).reshape(1, 1, t)
        tm = build_transform("identity", t)
        out = message_passing_oracle(a, x, w, tm, "identity")
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
            a, x, w = random_instance(rng, n, f_in, f_out, t)
            tm = build_transform(kind, t)
            diff = np.max(np.abs(layer(a, x, w, tm) - message_passing_oracle(a, x, w, tm)))
            worst = max(worst, diff)
        assert worst <= 1e-9
