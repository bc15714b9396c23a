"""Dense matrix kernel over float64 and complex128.

Float64 input stays float64, so a real-valued problem is decomposed by
the real ``eigh``; any other input is computed in complex128.

``as_matrix`` checks its input for the public boundary (``Channel``,
``Isometry``, ``apply``, ``from_choi``).  ``inv_sqrt_psd``, the inner
step of every renormalization, trusts its caller.
"""

from __future__ import annotations

import numpy as np


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D float64 or complex128 array and reject non-finite entries."""
    a = np.asarray(m)
    if a.dtype != np.float64:
        a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def inv_sqrt_psd(m: np.ndarray, eps) -> np.ndarray:
    """Pseudo-inverse square root of each matrix of a PSD stack ``m`` [..., D, D].

    Eigenvalues at or below the floor ``eps`` (one for the stack, or one
    per matrix) map to 0.  Unchecked: ``m`` must be finite, Hermitian and
    PSD up to rounding, and ``eps`` positive.
    """
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    w, v = w[..., ::-1], v[..., ::-1]
    eps = np.asarray(eps)[..., None]
    f = np.where(w > eps, 1.0 / np.sqrt(np.maximum(w, eps)), 0.0)
    return (v * f[..., None, :]) @ v.conj().swapaxes(-1, -2)
