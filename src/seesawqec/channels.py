"""Quantum channels in Kraus and Choi form, and the channel fidelity.

A :class:`Channel` is a completely positive trace-preserving map stored
as Kraus operators.  The Choi matrix uses the unnormalized convention
``C = sum_ij T(|i><j|) (x) |i><j|`` with the *output* factor first, so
``tr C = d_in`` and trace preservation reads "partial trace over the
output factor equals the identity".

With row-major flattening of a Kraus operator ``K`` (output index most
significant) the Choi matrix is simply ``sum_k ravel(K_k) ravel(K_k)^dag``,
which is what the constructors below use.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

COMPLETENESS_TOL = 1e-9
CHOI_TOL = 1e-9
HERMITICITY_TOL = 1e-10


def is_integer(value) -> bool:
    """Python and NumPy integers pass; ``bool`` and integral floats such as 3.0 do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Python and NumPy reals pass, NaN and infinities included; ``bool``, strings and
    complex numbers do not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map held as a read-only stack of Kraus operators [r, d_out, d_in].

    The stack is nonempty and satisfies the completeness relation
    ``sum_k K_k^dag K_k = I`` within ``COMPLETENESS_TOL`` (``ISOMETRY_TOL``
    for an ``Isometry``).  It is float64 when the input is, complex128
    otherwise (the rule of ``as_matrix``).  The constructor takes any
    array-like of that shape, such as a list of equal-shape matrices, and
    stores a read-only copy of it, so a later change to the caller's array
    cannot break completeness; channels compare and hash by identity.
    """

    kraus: np.ndarray
    _tol = COMPLETENESS_TOL  # not a field: a subclass may check tighter

    def __init__(self, kraus):
        try:
            ks = np.array(kraus)
        except ValueError:  # a ragged sequence
            shapes = [np.shape(k) for k in kraus]
            raise ValueError(f"Kraus shapes differ: {shapes}") from None
        if ks.shape[:1] == (0,):
            raise ValueError("a channel needs at least one Kraus operator")
        if ks.ndim != 3:
            raise ValueError(f"expected a [r, d_out, d_in] Kraus stack, got array "
                             f"of ndim {ks.ndim}")
        # Rows stacked: the completeness sum is flat^dag flat.
        flat = as_matrix(ks.reshape(-1, ks.shape[2]))
        dev = np.max(np.abs(flat.conj().T @ flat - np.eye(ks.shape[2])))
        if dev > self._tol:
            raise ValueError(f"Kraus completeness violated: sum K^dag K deviates from "
                             f"identity by {dev:.3e}")
        ks = flat.reshape(ks.shape)
        ks.flags.writeable = False
        object.__setattr__(self, "kraus", ks)

    @property
    def d_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus.shape[1]


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a channel, unnormalized (trace = d_in), output factor first."""

    matrix: np.ndarray
    d_in: int
    d_out: int


def identity_channel(d: int) -> Channel:
    return Channel(np.eye(d)[None])


def amplitude_damping(gamma: float) -> Channel:
    """Qubit damping channel with decay probability ``gamma``.

    Kraus operators: ``K0 = diag(1, sqrt(1-gamma))`` and ``K1`` with the
    single entry ``sqrt(gamma)`` at (0, 1).
    """
    if not (is_real(gamma) and 0.0 <= gamma <= 1.0):
        raise ValueError(f"damping parameter must lie in [0, 1], got {gamma!r}")
    ks = np.zeros((2, 2, 2), dtype=complex)
    ks[0, 0, 0], ks[0, 1, 1], ks[1, 0, 1] = 1.0, np.sqrt(1.0 - gamma), np.sqrt(gamma)
    return Channel(ks)


def compose(first: Channel, then: Channel) -> Channel:
    """Sequential composition: ``first`` is applied first.

    The Kraus set is all products ``B_j A_i`` at row-major index (i, j);
    nothing is pruned.
    """
    if first.d_out != then.d_in:
        raise ValueError(f"cannot compose: first output dim {first.d_out} "
                         f"!= then input dim {then.d_in}")
    return Channel((then.kraus[None] @ first.kraus[:, None])
                   .reshape(-1, then.d_out, first.d_in))


def tensor_power(c: Channel, n: int) -> Channel:
    """n-fold tensor product of a channel with itself.

    Kraus operators are all n-fold Kronecker products of ``c``'s Kraus
    set, enumerated lexicographically with the first factor most
    significant.  The stack is built by broadcasting one factor at a
    time, left to right, so every entry is the same product, in the same
    order, as ``np.kron`` chained over the factors.
    """
    if not is_integer(n):
        raise ValueError(f"tensor power needs an integer n, got {n!r}")
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    if n == 1:
        return c
    a = ops = c.kraus
    na, ro, ci = a.shape
    for _ in range(n - 1):
        # ops[i] (x) a[j] at row-major index (i, j): the first factor most significant.
        ops = (ops[:, None, :, None, :, None] * a[None, :, None, :, None, :]
               ).reshape(len(ops) * na, ops.shape[1] * ro, ops.shape[2] * ci)
    return Channel(ops)


def apply(c: Channel, rho) -> np.ndarray:
    """Act with the channel on a density matrix: sum_k K rho K^dag."""
    rho = as_matrix(rho)
    if rho.shape != (c.d_in, c.d_in):
        raise ValueError(f"state shape {rho.shape} does not match input dim {c.d_in}")
    return np.sum(c.kraus @ rho @ c.kraus.conj().swapaxes(1, 2), axis=0, dtype=complex)


def to_choi(c: Channel) -> ChoiMatrix:
    u = c.kraus.reshape(len(c.kraus), -1)
    return ChoiMatrix((u.T @ u.conj()).astype(complex, copy=False),
                      d_in=c.d_in, d_out=c.d_out)


def from_choi(x: ChoiMatrix) -> Channel:
    """Extract a Kraus decomposition from a Choi matrix, checking it.

    The dims must be positive integers, the side must match them, the
    entries must be finite, the matrix Hermitian (to ``HERMITICITY_TOL``)
    and PSD, and the Kraus set complete.  The Kraus operators are the
    scaled eigenvectors, weight descending; eigenvalues at or below
    ``1e-12`` times the leading one are dropped, so the roundtrip
    ``to_choi(from_choi(x))`` reproduces ``x`` within the dropped weight.
    """
    if not all(is_integer(d) and d > 0 for d in (x.d_out, x.d_in)):
        raise ValueError(f"Choi dims must be positive integers, got ({x.d_out!r}, {x.d_in!r})")
    side = x.d_in * x.d_out
    if np.shape(x.matrix) != (side, side):
        raise ValueError(f"Choi side {np.shape(x.matrix)} inconsistent with dims "
                         f"({x.d_out}, {x.d_in})")
    m = as_matrix(x.matrix)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} "
                         f"> {HERMITICITY_TOL:.0e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w, v = w[::-1], v[:, ::-1]
    if w[-1] < -CHOI_TOL:
        raise ValueError(f"Choi matrix not PSD: eigenvalue {w[-1]:.3e}")
    keep = w > 1e-12 * max(w[0], 0.0)
    if not keep.any():
        raise ValueError("Choi matrix has no eigenvalue above the rank tolerance")
    return Channel((np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, x.d_out, x.d_in))


def max_entangled_vector(d: int) -> np.ndarray:
    """Unit vector (1/sqrt(d)) sum_i |ii>."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def channel_fidelity(c: Channel) -> float:
    """Overlap of the channel with the identity.

    Equals ``<Omega| (T (x) id)(|Omega><Omega|) |Omega>`` for a unit-norm
    maximally entangled ``Omega``; computed through the equivalent Kraus
    form ``(1/d^2) sum_k |tr K_k|^2``.
    """
    if c.d_in != c.d_out:
        raise ValueError(f"channel fidelity needs d_in == d_out, got "
                         f"{c.d_in} and {c.d_out}")
    d = c.d_in
    total = np.sum(np.abs(np.trace(c.kraus, axis1=1, axis2=2)) ** 2)
    return float(total) / (d * d)
