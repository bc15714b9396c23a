"""Encoders and hand-built recoveries.

Qubit ordering is big-endian throughout: in ``|b1 b2 b3 b4>`` the first
qubit is the most significant bit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import as_matrix

ISOMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Isometry(Channel):
    """An encoder: a :class:`Channel` whose one Kraus operator ``V`` has
    ``V^dag V = I`` on the input space, within ``ISOMETRY_TOL``."""

    _tol = ISOMETRY_TOL

    def __init__(self, v):
        v = as_matrix(v)
        if v.shape[0] < v.shape[1]:
            raise ValueError(f"isometry needs d_out >= d_in, got shape {v.shape}")
        super().__init__(v[None])

    @property
    def v(self) -> np.ndarray:
        return self.kraus[0]


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


def partial_trace_recovery(n: int) -> Channel:
    """Recovery that keeps the first qubit and traces out the other n-1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rest = 2 ** (n - 1)
    # Operator b is I (x) <b|: row i is the basis row of index (i, b).
    ops = np.eye(2 * rest, dtype=complex).reshape(2, rest, 2 * rest).swapaxes(0, 1)
    return Channel(ops)
