"""The Haar matrix as an earlier release built it: the mother wavelet
sampled at the points k/T, level by level and shift by shift, each row then
normalized.  ``build_haar`` writes each level's rows directly; the
transform tests compare the two bit for bit."""

import numpy as np


def _haar_mother(z: np.ndarray) -> np.ndarray:
    """+1 on [0, 0.5), -1 on [0.5, 1), 0 elsewhere (half-open intervals)."""
    return np.where((z >= 0) & (z < 0.5), 1.0, np.where((z >= 0.5) & (z < 1.0), -1.0, 0.0))


def haar_matrix(t: int) -> np.ndarray:
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
    return m
