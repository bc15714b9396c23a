"""Encoders and hand-built recoveries.

Qubit ordering is big-endian throughout: in ``|b1 b2 b3 b4>`` the first
qubit is the most significant bit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import as_matrix, inv_sqrt_psd

ISOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class Isometry:
    """A single-Kraus encoder ``V`` with ``V^dag V = I`` on the input space."""

    v: np.ndarray

    def __init__(self, v):
        v = as_matrix(v)
        if v.shape[0] < v.shape[1]:
            raise ValueError(f"isometry needs d_out >= d_in, got shape {v.shape}")
        dev = np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])))
        if dev > ISOMETRY_TOL:
            raise ValueError(f"V^dag V deviates from identity by {dev:.3e}")
        object.__setattr__(self, "v", v)

    @property
    def d_in(self) -> int:
        return self.v.shape[1]

    @property
    def d_out(self) -> int:
        return self.v.shape[0]

    def as_channel(self) -> Channel:
        return Channel([self.v])


def leung_encoder() -> Isometry:
    """The 4-qubit code for amplitude damping.

    Logical states ``(|0000> + |1111>)/sqrt(2)`` and
    ``(|0011> + |1100>)/sqrt(2)``.
    """
    v = np.zeros((16, 2), dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    v[0, 0] = v[15, 0] = r
    v[3, 1] = v[12, 1] = r
    return Isometry(v)


def trivial_embedding(n: int) -> Isometry:
    """No-coding embedding |b> -> |b> (x) |0>^(n-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    v = np.zeros((2 ** n, 2), dtype=complex)
    v[0, 0] = 1.0
    v[2 ** (n - 1), 1] = 1.0
    return Isometry(v)


def random_isometry(d_in: int, d_out: int, seed: int) -> Isometry:
    """Polar factor of a seeded complex Gaussian matrix; deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    return Isometry(g @ inv_sqrt_psd(g.conj().T @ g, 1e-12))


def reversal_recovery(iso: Isometry) -> Channel:
    """A recovery that inverts ``iso`` on its range.

    Kraus set: ``V^dag`` plus one operator per orthogonal complement
    direction, each dumping that direction onto the first logical basis
    state.  On the noiseless channel this recovers the encoding exactly.
    """
    v = iso.v
    d_out, d_in = v.shape
    # Complement basis from the full unitary extension of V.
    q, _ = np.linalg.qr(np.hstack([v, np.eye(d_out, dtype=complex)]), mode="reduced")
    comp = q[:, d_in:d_out]
    ops = [v.conj().T]
    e0 = np.zeros((d_in, 1), dtype=complex)
    e0[0, 0] = 1.0
    for j in range(comp.shape[1]):
        ops.append(e0 @ comp[:, j : j + 1].conj().T)
    return Channel(ops)


def partial_trace_recovery(n: int) -> Channel:
    """Recovery that keeps the first qubit and traces out the other n-1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rest = 2 ** (n - 1)
    ops = []
    for b in range(rest):
        bra = np.zeros((1, rest), dtype=complex)
        bra[0, b] = 1.0
        ops.append(np.kron(np.eye(2, dtype=complex), bra))
    return Channel(ops)
