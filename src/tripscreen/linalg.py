"""Dense symmetric linear algebra: eigendecomposition and cone splits."""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

# Asymmetry above this (relative) is treated as a caller bug, not rounding noise.
_ASYM_REJECT = 1e-6


class EigDecomp(NamedTuple):
    values: np.ndarray   # eigenvalues, sorted descending
    vectors: np.ndarray  # orthonormal eigenvectors as columns, aligned with values


class PsdSplit(NamedTuple):
    plus: np.ndarray   # projection onto the PSD cone
    minus: np.ndarray  # the NSD remainder, plus + minus reconstructs the input


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate a dense symmetric matrix and return its exact symmetric average.

    Entries must be finite and the asymmetry at most 1e-6 relative to the
    largest magnitude entry.  Silently symmetrizing anything worse would hide
    bugs upstream, so larger asymmetry is rejected.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > _ASYM_REJECT * scale:
        raise ValueError(f"{name} is not symmetric within {_ASYM_REJECT:g} relative")
    return (a + a.T) / 2.0


def eig_sym(a) -> EigDecomp:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = check_symmetric(a)
    w, v = np.linalg.eigh(a)
    return EigDecomp(values=w[::-1], vectors=v[:, ::-1])


def split_eig(dec: EigDecomp) -> PsdSplit:
    """PSD projection and NSD remainder of the matrix ``dec`` decomposes."""
    # Summed in ascending eigenvalue order, as eigh returns them.
    w, v = dec.values[::-1], dec.vectors[:, ::-1]
    plus = (v * np.maximum(w, 0.0)) @ v.T
    minus = (v * np.minimum(w, 0.0)) @ v.T
    return PsdSplit(plus=(plus + plus.T) / 2.0, minus=(minus + minus.T) / 2.0)


def psd_split(a) -> PsdSplit:
    """Split a symmetric matrix into its PSD projection and NSD remainder."""
    return split_eig(eig_sym(a))


def cone_split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positive/negative split for either layout of the metric cone.

    Matrices are split against the PSD cone; 1-d vectors (diagonal-metric
    mode, where the cone is the nonnegative orthant) are clipped elementwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return np.maximum(a, 0.0), np.minimum(a, 0.0)
    s = psd_split(a)
    return s.plus, s.minus


def cone_project(a: np.ndarray) -> np.ndarray:
    return cone_split(a)[0]

