"""Dense matrix kernel over float64 and complex128.

Float64 input stays float64, so a real-valued problem is decomposed by
the real ``eigh``; any other input is computed in complex128.

``as_matrix`` checks its input for the public boundary (``Channel``,
``Isometry``, ``apply``, ``from_choi``).  ``inv_sqrt_psd``, the inner
step of every renormalization, trusts its caller.
"""

from __future__ import annotations

import numpy as np
# The LAPACK gufunc behind np.linalg.eigh, called without that function's
# checks and casts (about 2 us a call on a 2-core x86_64 host, numpy 2.4).
# It has this name from numpy 1.24, the oldest pyproject.toml accepts, to
# 2.x; tests/test_kernel.py holds it to np.linalg.eigh bit for bit.
from numpy.linalg import _umath_linalg


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


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
    h = (m + m.conj().swapaxes(-1, -2)) / 2
    # np.linalg.eigh(h) for float64 or complex128 h: the same call, bit for
    # bit, and the same floating-point error handling.
    with np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        w, v = _umath_linalg.eigh_lo(h, signature="D->dD" if h.dtype.kind == "c" else "d->dd")
    w, v = w[..., ::-1], v[..., ::-1]
    eps = np.asarray(eps)[..., None]
    f = np.where(w > eps, 1.0 / np.sqrt(np.maximum(w, eps)), 0.0)
    return (v * f[..., None, :]) @ v.conj().swapaxes(-1, -2)
