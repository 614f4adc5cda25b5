import re

import numpy as np
import pytest
from reference_transforms import haar_matrix

from tubalgcn.transforms import TransformMatrix, build_transform, next_power_of_two

ALL_KINDS = ["identity", "dft", "dct", "haar"]

# Every kind at T = 1..9, haar at the powers of two among them.
KINDS_AND_SIZES = [(kind, t) for kind in ALL_KINDS for t in range(1, 10) if kind != "haar" or t == next_power_of_two(t)]


class TestDft:
    def test_t1(self):
        np.testing.assert_array_equal(build_transform("dft", 1).m, [[1.0]])

    def test_t2(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(build_transform("dft", 2).m, expected, atol=1e-12)

    def test_t4_row1(self):
        row = build_transform("dft", 4).m[1]
        np.testing.assert_allclose(row, 0.5 * np.array([1, -1j, -1, 1j]), atol=1e-12)

    def test_unitary(self):
        m = build_transform("dft", 8).m
        assert np.max(np.abs(m @ m.conj().T - np.eye(8))) <= 1e-12

    def test_inverse_is_conjugate_transpose(self):
        tm = build_transform("dft", 5)
        np.testing.assert_allclose(tm.m_inv, tm.m.conj().T, atol=1e-15)


class TestDct:
    def test_t1(self):
        np.testing.assert_array_equal(build_transform("dct", 1).m, [[1.0]])

    def test_t2(self):
        expected = np.array([[0.70711, 0.70711], [0.70711, -0.70711]])
        np.testing.assert_allclose(build_transform("dct", 2).m, expected, atol=1e-5)

    def test_t4_row0_constant(self):
        np.testing.assert_allclose(build_transform("dct", 4).m[0], [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_orthogonal(self):
        m = build_transform("dct", 7).m
        assert np.max(np.abs(m @ m.T - np.eye(7))) <= 1e-12


class TestHaar:
    def test_t1(self):
        np.testing.assert_array_equal(build_transform("haar", 1).m, [[1.0]])

    def test_t2(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(build_transform("haar", 2).m, expected, atol=1e-12)

    def test_t4_rows(self):
        s = 1 / np.sqrt(2)
        expected = np.array(
            [
                [0.5, 0.5, 0.5, 0.5],
                [0.5, 0.5, -0.5, -0.5],
                [s, -s, 0.0, 0.0],
                [0.0, 0.0, s, -s],
            ]
        )
        np.testing.assert_allclose(build_transform("haar", 4).m, expected, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        for t in [3, 5, 6, 7, 12]:
            with pytest.raises(ValueError, match="power of two"):
                build_transform("haar", t)

    def test_orthogonal(self):
        m = build_transform("haar", 16).m
        assert np.max(np.abs(m @ m.T - np.eye(16))) <= 1e-12

    @pytest.mark.parametrize("t", [1 << j for j in range(9)])
    def test_rows_equal_the_sampled_mother_wavelet(self, t):
        # Bit for bit, signs of zeros included.
        assert build_transform("haar", t).m.tobytes() == haar_matrix(t).tobytes()

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    def test_detail_rows_sum_to_zero(self, t):
        m = build_transform("haar", t).m
        sums = np.abs(m[1:].sum(axis=1))
        assert np.max(sums) <= 1e-15


class TestIdentity:
    def test_t3(self):
        np.testing.assert_array_equal(build_transform("identity", 3).m, np.eye(3))

    def test_self_inverse(self):
        tm = build_transform("identity", 5)
        np.testing.assert_array_equal(tm.m, tm.m_inv)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_only_the_identity_kind_is_flagged(self, kind):
        assert build_transform(kind, 4).is_identity == (kind == "identity")

    def test_i_of_another_kind_is_not_flagged(self):
        # It runs the general path, the reference the identity's skip is tested against.
        assert not TransformMatrix("explicit", np.eye(4)).is_identity

    def test_identity_kind_must_be_i(self):
        # A unitary M that is not I cannot pass as the identity, whose products are skipped.
        with pytest.raises(ValueError, match="identity transform's matrix is not I"):
            TransformMatrix("identity", build_transform("dct", 4).m)
        with pytest.raises(ValueError, match="identity transform's matrix is not I"):
            TransformMatrix("identity", np.eye(3)[[1, 0, 2]])


class TestInvariants:
    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inverse_quality(self, kind, t):
        tm = build_transform(kind, t)
        assert np.max(np.abs(tm.m @ tm.m_inv - np.eye(t))) <= 1e-12

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    def test_dct_and_dft_share_constant_row(self, t):
        dft_row = build_transform("dft", t).m[0]
        dct_row = build_transform("dct", t).m[0]
        np.testing.assert_allclose(np.abs(dft_row), np.full(t, 1 / np.sqrt(t)), atol=1e-12)
        np.testing.assert_allclose(np.abs(dct_row), np.full(t, 1 / np.sqrt(t)), atol=1e-12)

    @pytest.mark.parametrize("kind,t", KINDS_AND_SIZES)
    def test_kept_pair_inverts_real_tubes(self, kind, t):
        tm = build_transform(kind, t)
        assert tm.kept == (t // 2 + 1 if kind == "dft" else t)
        assert tm.m_kept.shape == (tm.kept, t) and tm.m_inv_kept.shape == (t, tm.kept)
        assert np.max(np.abs((tm.m_inv_kept @ tm.m_kept).real - np.eye(t))) <= 1e-12
        if kind != "dft":
            np.testing.assert_array_equal(tm.m_kept, tm.m)
            np.testing.assert_array_equal(tm.m_inv_kept, tm.m_inv)

    @pytest.mark.parametrize("kind,t", KINDS_AND_SIZES)
    def test_inverse_is_the_readonly_conjugate_transpose(self, kind, t):
        tm = build_transform(kind, t)
        assert tm.size == t
        np.testing.assert_array_equal(tm.m_inv, tm.m.conj().T)
        assert tm.m_inv.dtype == tm.m.dtype
        assert tm.m_inv.flags.c_contiguous and not tm.m_inv.flags.writeable

    def test_singular_matrix_rejected_at_construction(self):
        # A singular M, an invertible M that is not unitary, and a non-square M.
        with pytest.raises(ValueError, match="identity"):
            TransformMatrix("identity", np.ones((2, 2)))
        with pytest.raises(ValueError, match="identity"):
            TransformMatrix("identity", 2.0 * np.eye(2))
        with pytest.raises(ValueError, match="square"):
            TransformMatrix("identity", np.ones((2, 3)))

    @pytest.mark.parametrize(
        "kind,t,message",
        [("haar", 3, "haar size must be a power of two, got 3"), ("haar", 0, "haar size must be a power of two, got 0")]
        + [(kind, 0, "size must be >= 1, got 0") for kind in ALL_KINDS if kind != "haar"]
        + [
            (kind, t, f"size must be int, got {t!r}")
            for kind, t in [("dft", 2.5), ("identity", 2.0), ("haar", 4.0), ("dct", True), ("dft", 2.0), ("haar", "4")]
        ],
    )
    def test_bad_size_names_the_value(self, kind, t, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_transform(kind, t)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("t", [np.int64(4), np.uint8(4)])
    def test_numpy_int_size_builds_the_int_size(self, kind, t):
        assert build_transform(kind, t).m.tobytes() == build_transform(kind, 4).m.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            build_transform("fourier", 4)

    def test_matrices_are_readonly(self):
        tm = build_transform("dct", 4)
        with pytest.raises(ValueError):
            tm.m[0, 0] = 99.0


def test_next_power_of_two():
    assert [next_power_of_two(t) for t in [1, 2, 3, 4, 5, 8, 9, 16]] == [
        1, 2, 4, 4, 8, 8, 16, 16,
    ]
