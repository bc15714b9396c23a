"""Dense complex matrix kernel.

Everything downstream (channels, fidelity operators, the optimizer) is
built on the handful of primitives here.  Conventions that the rest of
the package depends on:

* ``vec`` is column-stacking, so ``<vec(A), vec(B)> = tr(A^dag B)``.
* ``herm_eig`` returns eigenvalues in descending order.
* ``partial_trace`` indexes tensor factors big-endian (factor 0 is the
  most significant index).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_NEG_TOL = 1e-8
DEFAULT_EIG_FLOOR = 1e-12


def as_matrices(m) -> np.ndarray:
    """Coerce to a complex matrix or stack of matrices [..., r, c] and reject
    non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    a = as_matrices(m)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor's indices most significant."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    out = None
    for m in mats:
        out = as_matrix(m) if out is None else np.kron(out, as_matrix(m))
    if out is None:
        raise ValueError("kron_all needs at least one factor")
    return out


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out the tensor factors of ``m`` not listed in ``keep``.

    ``dims`` are the subsystem dimensions of both the row and column
    index.  The output side is the product of the kept dimensions, with
    the kept factors in their original order.
    """
    m = as_matrix(m)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    side = int(np.prod(dims))
    if m.shape[0] != m.shape[1] or m.shape[0] != side:
        raise ValueError(f"matrix shape {m.shape} inconsistent with dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    t = m.reshape(dims + dims)
    traced = [i for i in range(len(dims)) if i not in keep]
    for i in sorted(traced, reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=i, axis2=i + half)
    out_side = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(out_side, out_side)


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def herm_check(m: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise unless every matrix of ``m`` [..., D, D] is Hermitian to ``tol``."""
    dev = np.max(np.abs(m - _dagger(m)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")


def herm_eig(m) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``m = v @ diag(w) @ v.conj().T`` and the
    columns of ``v`` orthonormal.  A stack ``m`` [..., D, D] is
    decomposed matrix by matrix in one call, each check covering the
    whole stack.
    """
    m = as_matrices(m)
    herm_check(m)
    w, v = np.linalg.eigh((m + _dagger(m)) / 2)
    return w[..., ::-1].real.copy(), v[..., ::-1].copy()


def inv_sqrt_psd(m, eps=DEFAULT_EIG_FLOOR) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian PSD matrix.

    Eigenvalues at or below ``eps`` are treated as numerical zeros and
    mapped to 0; eigenvalues below ``-PSD_NEG_TOL`` are an error.  For a
    stack ``m`` [..., D, D], ``eps`` may hold one floor per matrix.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError(f"eigenvalue floor must be positive, got {eps}")
    w, v = herm_eig(m)
    w_min = w[..., -1].min()
    if w_min < -PSD_NEG_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w_min:.3e}")
    eps = eps[..., None]
    f = np.where(w > eps, 1.0 / np.sqrt(np.maximum(w, eps)), 0.0)
    return (v * f[..., None, :]) @ _dagger(v)


def vec(m) -> np.ndarray:
    """Column-stacking vectorization: <vec(A), vec(B)> = tr(A^dag B)."""
    return as_matrix(m).reshape(-1, order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")
