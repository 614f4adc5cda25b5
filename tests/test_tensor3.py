import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubalgcn.gtcn import layer_forward
from tubalgcn.tensor3 import DimensionMismatchError, m_transform
from tubalgcn.transforms import build_transform


def mode_n_loop(x, u, n):
    """Brute-force triple-loop evaluation of the mode-n product."""
    dims = list(x.shape)
    dims[n - 1] = u.shape[0]
    out = np.zeros(dims, dtype=np.result_type(x, u))
    for idx in np.ndindex(*dims):
        acc = 0.0
        for k in range(x.shape[n - 1]):
            src = list(idx)
            src[n - 1] = k
            acc += u[idx[n - 1], k] * x[tuple(src)]
        out[idx] = acc
    return out


# A transform kind with a slot count it is built at: Haar needs a power of two.
KIND_AND_SLOTS = st.one_of(
    st.tuples(st.sampled_from(["identity", "dft", "dct"]), st.integers(1, 9)),
    st.tuples(st.just("haar"), st.sampled_from([1, 2, 4, 8])),
)


def chain_product(x, y, tm):
    """X *_M Y of real time-major operands, computed by the layer chain on the kept slices."""
    return layer_forward(m_transform(tm.m_kept, x), m_transform(tm.m_kept, y), tm, "identity")[0]


def identity_tensor(n, tm):
    """The real (T, n, n) tensor whose every transform-domain slice is I_n."""
    eye_hat = np.broadcast_to(np.eye(n), (tm.size, n, n))
    return m_transform(tm.m_inv, eye_hat).real


def facewise_loop(x, y):
    t, i, j = x.shape
    k = y.shape[2]
    out = np.zeros((t, i, k), dtype=np.result_type(x, y))
    for s in range(t):
        out[s] = x[s] @ y[s]
    return out


class TestMTransform:
    def test_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 4)).transpose(2, 0, 1)
        np.testing.assert_array_equal(m_transform(np.eye(4), x), x)

    def test_permutation(self):
        x = np.array([1.0, 2.0]).reshape(2, 1, 1)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(m_transform(swap, x)[:, 0, 0], [2.0, 1.0])

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 4)], ids=["T", "T-F", "T-N-F"])
    def test_matches_loop_oracle(self, shape):
        # Time-major inputs of any trailing shape: the time axis drawn last
        # is moved to the front, where m_transform takes it.
        rng = np.random.default_rng(3)
        x = np.moveaxis(rng.normal(size=shape), -1, 0)
        m = rng.normal(size=(4, 4)) + np.eye(4)
        np.testing.assert_allclose(m_transform(m, x), mode_n_loop(x, m, 1), atol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            m_transform(np.eye(4), np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("t", [1, 2, 5, 6, 9])
    def test_kept_rows_match_complex_gemm(self, t):
        # A K x T matrix maps T slots to K; a complex matrix on a real tensor
        # runs as a real GEMM and must agree with the complex one.
        rng = np.random.default_rng(t)
        x = rng.normal(size=(3, 2, t)).transpose(2, 0, 1)
        m = build_transform("dft", t).m_kept
        expected = np.tensordot(m, x.astype(np.complex128), axes=([1], [0]))
        out = m_transform(m, x)
        assert out.shape == (t // 2 + 1, 3, 2) and out.dtype == np.complex128
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_complex_matrix_on_real_tensor_matches_complex_gemm(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 3, 6)).transpose(2, 0, 1)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        expected = np.tensordot(m, x.astype(np.complex128), axes=([1], [0]))
        assert np.max(np.abs(m_transform(m, x) - expected)) <= 1e-12
        np.testing.assert_allclose(m_transform(m, x), mode_n_loop(x, m, 1), atol=1e-12)

    def test_kept_matrix_column_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            m_transform(build_transform("dft", 6).m_kept, np.zeros((5, 2, 2)))


class TestInverseTransform:
    @pytest.mark.parametrize("kind", ["identity", "dft", "dct"])
    def test_round_trip(self, kind):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3, 4)).transpose(2, 0, 1)
        tm = build_transform(kind, 4)
        back = m_transform(tm.m_inv, m_transform(tm.m, x))
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_haar_round_trip_t8(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 8)).transpose(2, 0, 1)
        tm = build_transform("haar", 8)
        back = m_transform(tm.m_inv, m_transform(tm.m, x))
        assert np.max(np.abs(back - x)) <= 1e-10

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    @pytest.mark.parametrize("kind", ["identity", "dft", "dct", "haar"])
    def test_round_trip_all_sizes(self, kind, t):
        rng = np.random.default_rng(t)
        x = rng.normal(size=(2, 3, t)).transpose(2, 0, 1)
        tm = build_transform(kind, t)
        back = m_transform(tm.m_inv, m_transform(tm.m, x))
        assert np.max(np.abs(back - x)) <= 1e-10


class TestMProduct:
    def test_identity_m_equals_facewise(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4)).transpose(2, 0, 1)
        y = rng.normal(size=(3, 2, 4)).transpose(2, 0, 1)
        tm = build_transform("identity", 4)
        np.testing.assert_array_equal(chain_product(x, y, tm), np.matmul(x, y))

    def test_identity_m_matches_slice_loop(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4)).transpose(2, 0, 1)
        y = rng.normal(size=(3, 2, 4)).transpose(2, 0, 1)
        np.testing.assert_allclose(chain_product(x, y, build_transform("identity", 4)), facewise_loop(x, y), atol=1e-12)

    def test_dft_tube_example(self):
        x = np.array([1.0, 2.0]).reshape(2, 1, 1)
        y = np.array([3.0, 4.0]).reshape(2, 1, 1)
        out = chain_product(x, y, build_transform("dft", 2))
        np.testing.assert_allclose(out[:, 0, 0], np.array([11.0, 10.0]) / np.sqrt(2), atol=1e-12)

    def test_haar_matches_composition(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 2, 4)).transpose(2, 0, 1)
        y = rng.normal(size=(2, 2, 4)).transpose(2, 0, 1)
        tm = build_transform("haar", 4)
        expected = m_transform(
            tm.m_inv, np.matmul(m_transform(tm.m, x), m_transform(tm.m, y))
        )
        np.testing.assert_allclose(chain_product(x, y, tm), expected, atol=1e-12)

    def test_linear_in_first_operand(self):
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=(2, 3, 4)).transpose(2, 0, 1)
        x2 = rng.normal(size=(2, 3, 4)).transpose(2, 0, 1)
        y = rng.normal(size=(3, 2, 4)).transpose(2, 0, 1)
        tm = build_transform("dft", 4)
        a, b = 0.7, -1.3
        lhs = chain_product(a * x1 + b * x2, y, tm)
        rhs = a * chain_product(x1, y, tm) + b * chain_product(x2, y, tm)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 8])
    def test_dft_equals_scaled_circular_convolution(self, t):
        # The normalized DFT turns tube products into circular
        # convolution scaled by 1/sqrt(T).
        rng = np.random.default_rng(t)
        tm = build_transform("dft", t)
        for _ in range(50):
            u = rng.normal(size=t)
            v = rng.normal(size=t)
            conv = np.array([sum(u[k] * v[(s - k) % t] for k in range(t)) for s in range(t)])
            out = chain_product(u.reshape(t, 1, 1), v.reshape(t, 1, 1), tm)[:, 0, 0]
            assert np.max(np.abs(out - conv / np.sqrt(t))) <= 1e-10

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=4, max_size=4),
        kind_t=KIND_AND_SLOTS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_associative(self, dims, kind_t, seed):
        # (X * Y) * Z == X * (Y * Z) for real operands under every transform.
        kind, t = kind_t
        i, j, k, l = dims
        rng = np.random.default_rng(seed)
        x, y, z = (rng.uniform(-1.0, 1.0, size=shape).transpose(2, 0, 1) for shape in ((i, j, t), (j, k, t), (k, l, t)))
        tm = build_transform(kind, t)
        lhs = chain_product(chain_product(x, y, tm), z, tm)
        rhs = chain_product(x, chain_product(y, z, tm), tm)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=2),
        kind_t=KIND_AND_SLOTS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identity_tensor_is_neutral(self, dims, kind_t, seed):
        # I_M, the tensor whose transform-domain slices are all identities,
        # is a left and right identity: I_M * X == X == X * I_M.
        kind, t = kind_t
        i, j = dims
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(i, j, t)).transpose(2, 0, 1)
        tm = build_transform(kind, t)
        left, right = (identity_tensor(n, tm) for n in (i, j))
        assert np.max(np.abs(chain_product(left, x, tm) - x)) <= 1e-9
        assert np.max(np.abs(chain_product(x, right, tm) - x)) <= 1e-9

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=3, max_size=3),
        kind_t=st.one_of(
            st.tuples(st.just("dct"), st.integers(1, 9)),
            st.tuples(st.just("haar"), st.sampled_from([1, 2, 4, 8])),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transpose_reverses_the_product(self, dims, kind_t, seed):
        # Under a real M the transpose (every frontal slice transposed)
        # commutes with the transform, so (X * Y)^T == Y^T * X^T.
        kind, t = kind_t
        i, j, k = dims
        rng = np.random.default_rng(seed)
        x, y = (rng.uniform(-1.0, 1.0, size=shape).transpose(2, 0, 1) for shape in ((i, j, t), (j, k, t)))
        tm = build_transform(kind, t)
        lhs = chain_product(x, y, tm).transpose(0, 2, 1)
        rhs = chain_product(y.transpose(0, 2, 1), x.transpose(0, 2, 1), tm)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_real_inputs_give_real_output(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 2, 4)).transpose(2, 0, 1)
        y = rng.normal(size=(2, 2, 4)).transpose(2, 0, 1)
        out = chain_product(x, y, build_transform("dft", 4))
        assert not np.iscomplexobj(out)

    def test_all_kinds_match_naive_oracle(self):
        # Full compositional oracle across kinds and small random dims.
        rng = np.random.default_rng(13)
        for kind in ["identity", "dft", "dct", "haar"]:
            for _ in range(5):
                i, j, k = rng.integers(1, 5, size=3)
                t = int(rng.choice([2, 4, 8]))
                x = rng.normal(size=(i, j, t)).transpose(2, 0, 1)
                y = rng.normal(size=(j, k, t)).transpose(2, 0, 1)
                tm = build_transform(kind, t)
                xh = mode_n_loop(x, tm.m, 1)
                yh = mode_n_loop(y, tm.m, 1)
                expected = mode_n_loop(facewise_loop(xh, yh), tm.m_inv, 1)
                if np.iscomplexobj(expected):
                    expected = expected.real
                assert np.max(np.abs(chain_product(x, y, tm) - expected)) <= 1e-10
