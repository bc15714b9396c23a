"""Dense matrix kernel over float64 and complex128.

Everything downstream (channels, fidelity operators, the optimizer) is
built on the handful of primitives here.  Float64 input stays float64,
so a real-valued problem is decomposed by the real ``eigh``; any other
input is computed in complex128.  Eigenvalues come in descending order.

``as_matrix`` and ``herm_eig`` check their input for the public boundary
(``Channel``, ``Isometry``, ``apply``, ``from_choi``).  ``inv_sqrt_psd``,
the inner step of every renormalization, trusts its caller.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

HERMITICITY_TOL = 1e-10


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


def herm_eig(m) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` and the
    columns of ``v`` orthonormal; ``v`` is float64 for float64 ``m``.
    Raises unless ``m`` is a finite matrix, Hermitian to HERMITICITY_TOL.
    """
    m = as_matrix(m)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} "
                         f"> {HERMITICITY_TOL:.0e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1], v[:, ::-1]


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
