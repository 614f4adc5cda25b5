"""The T x T temporal transform matrices, all made by ``build_transform``.

Four kinds: identity (no temporal mixing), the unitary DFT, the
orthonormal DCT-II, and the orthonormal Haar wavelet matrix.  All four are
unitary, so each inverse is the conjugate transpose.  Row and column
indices are zero-based throughout; the DFT/DCT rows are indexed by
frequency u = 0..T-1 so that row 0 is the constant row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

__all__ = [
    "TRANSFORM_KINDS",
    "TransformMatrix",
    "build_transform",
    "next_power_of_two",
]

TRANSFORM_KINDS = ("identity", "dft", "dct", "haar")

INVERSE_TOL = 1e-12


@dataclass(frozen=True)
class TransformMatrix:
    """A unitary T x T transform M; its inverse ``m_inv`` is M^H.

    ``m_kept`` (K x T) and ``m_inv_kept`` (T x K) are the pair the layer
    runs on.  A complex M whose rows k and T-k are conjugates (the DFT) maps
    a real tube to a Hermitian one, so only its leading K = T//2 + 1 slices
    carry information: ``m_kept`` is those rows of M, and ``m_inv_kept`` the
    leading K columns of M_inv with each column that has a conjugate partner
    doubled, so that Re(m_inv_kept @ m_kept @ x) = x for real x.  For a real M,
    K = T and the pair is ``m``/``m_inv`` itself.

    ``is_identity`` is set for the ``identity`` kind, whose M must be I: every
    product along time with a square slice of it is then the operand itself,
    and ``gtcn.time_product`` runs no GEMM for it.
    """

    kind: str
    m: np.ndarray
    m_inv: np.ndarray = field(init=False, repr=False)
    m_kept: np.ndarray = field(init=False, repr=False)
    m_inv_kept: np.ndarray = field(init=False, repr=False)
    is_identity: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.m.ndim != 2 or self.m.shape[0] != self.m.shape[1]:
            raise ValueError(f"transform matrix must be square, got shape {self.m.shape}")
        t = self.size
        object.__setattr__(self, "m", _readonly(self.m))
        object.__setattr__(self, "m_inv", _readonly(self.m.conj().T))
        err = np.max(np.abs(self.m @ self.m_inv - np.eye(t)))
        if err > INVERSE_TOL:
            raise ValueError(f"M @ M^H deviates from identity by {err:.3e} (> {INVERSE_TOL:.0e}): M is not unitary")
        object.__setattr__(self, "is_identity", self.kind == "identity")
        if self.is_identity and not np.array_equal(self.m, np.eye(t)):
            raise ValueError(f"the identity transform's matrix is not I: {self.m!r}")
        kept = t // 2 + 1 if self.is_complex else t
        k = np.arange(kept)
        paired = (k > 0) & (2 * k < t) & self.is_complex
        # Views of the read-only matrices where nothing is doubled.
        m_kept = self.m[:kept]
        m_inv_kept = self.m_inv[:, :kept]
        if paired.any():
            m_inv_kept = _readonly(m_inv_kept * np.where(paired, 2.0, 1.0))
        err = np.max(np.abs((m_inv_kept @ m_kept).real - np.eye(t)))
        if err > INVERSE_TOL:
            raise ValueError(
                f"Re(M_inv_kept @ M_kept) deviates from identity by {err:.3e} (> {INVERSE_TOL:.0e})"
            )
        object.__setattr__(self, "m_kept", m_kept)
        object.__setattr__(self, "m_inv_kept", m_inv_kept)

    @property
    def size(self) -> int:
        return self.m.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.m)

    @property
    def kept(self) -> int:
        """K, the number of transform-domain slices the layer stores."""
        return self.m_kept.shape[0]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


def build_transform(kind: str, t: int) -> TransformMatrix:
    """The T x T transform of ``kind``; the one builder of every kind.

    - identity: I.
    - dft: the normalized DFT, entry (u, v) = exp(-2i*pi*u*v/T) / sqrt(T).
    - dct: the orthonormal DCT-II, entry (u, v) = alpha(u) * cos(pi*u*(v+1/2)/T),
      with alpha(0) = sqrt(1/T) and alpha(u) = sqrt(2/T) for u > 0.
    - haar: the orthonormal Haar matrix; T must be a power of two.  Row 0 is
      the constant row 1/sqrt(T).  Then, level by level, the window width w
      runs T, T/2, ..., 2: of the level's n = T/w rows, row n + i is +1 on the
      first half of window i and -1 on its second half, over sqrt(w).
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}")
    if isinstance(t, bool) or not isinstance(t, Integral):  # numpy ints are Integral
        raise ValueError(f"size must be int, got {t!r}")
    t = int(t)  # a small numpy int would take haar's square roots in float16
    if kind == "haar" and (t < 1 or t & (t - 1)):
        raise ValueError(f"haar size must be a power of two, got {t}")
    if t < 1:
        raise ValueError(f"size must be >= 1, got {t}")
    u = np.arange(t)
    if kind == "identity":
        m = np.eye(t)
    elif kind == "dft":
        m = np.exp(-2j * np.pi * np.outer(u, u) / t) / np.sqrt(t)
    elif kind == "dct":
        m = np.cos(np.pi * u[:, None] * (u + 0.5) / t)
        m *= np.where(u == 0, np.sqrt(1.0 / t), np.sqrt(2.0 / t))[:, None]
    else:
        m = np.zeros((t, t))
        m[0] = 1.0 / np.sqrt(t)
        for j in range(int(t).bit_length() - 1):
            n, w = 1 << j, t >> j
            # Rows n .. 2n-1 as n windows each; filling zeros, not np.kron, keeps the zeros +0.0.
            m[n : 2 * n].reshape(n, n, w)[range(n), range(n)] = np.repeat([1.0, -1.0], w // 2) / np.sqrt(w)
    return TransformMatrix(kind, m)


def next_power_of_two(t: int) -> int:
    return 1 << (int(t) - 1).bit_length()
