"""Builders for the T x T temporal transform matrices.

Four kinds: identity (no temporal mixing), the unitary DFT, the
orthonormal DCT-II, and the orthonormal Haar wavelet matrix.  Row and
column indices are zero-based throughout; the DFT/DCT rows are indexed by
frequency u = 0..T-1 so that row 0 is the constant row and the matrix is
unitary/orthogonal with a cheap exact inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TRANSFORM_KINDS",
    "TransformMatrix",
    "build_identity",
    "build_dft",
    "build_dct",
    "build_haar",
    "build_transform",
    "next_power_of_two",
]

TRANSFORM_KINDS = ("identity", "dft", "dct", "haar")

INVERSE_TOL = 1e-12


@dataclass(frozen=True)
class TransformMatrix:
    """An invertible T x T transform with its precomputed inverse.

    ``m_kept`` (K x T) and ``m_inv_kept`` (T x K) are the pair the layer
    runs on.  A complex M whose rows k and T-k are conjugates (the DFT) maps
    a real tube to a Hermitian one, so only its leading K = T//2 + 1 slices
    carry information: ``m_kept`` is those rows of M, and ``m_inv_kept`` the
    leading K columns of M_inv with each column that has a conjugate partner
    doubled, so that Re(m_inv_kept @ m_kept @ x) = x for real x.  For a real M,
    K = T and the pair is ``m``/``m_inv`` itself.  ``real_slices`` are the
    kept slices that are real for real input: slice 0, and T/2 for even T,
    under the DFT; every slice under a real M.
    """

    kind: str
    size: int
    m: np.ndarray
    m_inv: np.ndarray
    m_kept: np.ndarray = field(init=False, repr=False)
    m_inv_kept: np.ndarray = field(init=False, repr=False)
    real_slices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        t = self.size
        if self.m.shape != (t, t) or self.m_inv.shape != (t, t):
            raise ValueError(f"transform matrices must be {t}x{t}")
        err = np.max(np.abs(self.m @ self.m_inv - np.eye(t)))
        if err > INVERSE_TOL:
            raise ValueError(
                f"M @ M_inv deviates from identity by {err:.3e} (> {INVERSE_TOL:.0e})"
            )
        object.__setattr__(self, "m", _readonly(self.m))
        object.__setattr__(self, "m_inv", _readonly(self.m_inv))
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
        object.__setattr__(self, "real_slices", tuple(int(s) for s in k[~paired]))

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


def build_identity(t: int) -> TransformMatrix:
    if t < 1:
        raise ValueError("size must be >= 1")
    eye = np.eye(t)
    return TransformMatrix("identity", t, eye, eye.copy())


def build_dft(t: int) -> TransformMatrix:
    """Normalized DFT: entry (u, v) = exp(-2i*pi*u*v/T) / sqrt(T)."""
    if t < 1:
        raise ValueError("size must be >= 1")
    u = np.arange(t)
    m = np.exp(-2j * np.pi * np.outer(u, u) / t) / np.sqrt(t)
    return TransformMatrix("dft", t, m, m.conj().T.copy())


def build_dct(t: int) -> TransformMatrix:
    """Orthonormal DCT-II: entry (u, v) = alpha(u) * cos(pi*u*(v+1/2)/T)."""
    if t < 1:
        raise ValueError("size must be >= 1")
    u = np.arange(t)[:, None]
    v = np.arange(t)[None, :]
    m = np.cos(np.pi * u * (v + 0.5) / t)
    alpha = np.full(t, np.sqrt(2.0 / t))
    alpha[0] = np.sqrt(1.0 / t)
    m *= alpha[:, None]
    return TransformMatrix("dct", t, m, m.T.copy())


def _haar_mother(z: np.ndarray) -> np.ndarray:
    """+1 on [0, 0.5), -1 on [0.5, 1), 0 elsewhere (half-open intervals)."""
    return np.where((z >= 0) & (z < 0.5), 1.0, np.where((z >= 0.5) & (z < 1.0), -1.0, 0.0))


def build_haar(t: int) -> TransformMatrix:
    """Orthonormal Haar matrix; requires T to be a power of two.

    Row 0 is the constant scaling row; row 2^j + i samples the mother
    wavelet scaled by 2^j and shifted by i at the points k/T, then is
    normalized to unit Euclidean norm.
    """
    if t < 1 or (t & (t - 1)) != 0:
        raise ValueError("size must be a power of two")
    m = np.zeros((t, t))
    m[0, :] = 1.0 / np.sqrt(t)
    z = np.arange(t) / t
    levels = int(np.log2(t))
    for j in range(levels):
        for i in range(2**j):
            row = _haar_mother(2**j * z - i)
            m[2**j + i, :] = row / np.linalg.norm(row)
    return TransformMatrix("haar", t, m, m.T.copy())


_BUILDERS = {
    "identity": build_identity,
    "dft": build_dft,
    "dct": build_dct,
    "haar": build_haar,
}


def build_transform(kind: str, t: int) -> TransformMatrix:
    if kind not in _BUILDERS:
        raise ValueError(f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}")
    return _BUILDERS[kind](t)


def next_power_of_two(t: int) -> int:
    p = 1
    while p < t:
        p *= 2
    return p
