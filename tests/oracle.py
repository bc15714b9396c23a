"""Independent oracle for the half-problem optimum.

A slower projected-ascent solver over Choi matrices that cross-checks the
power-step kernel's half-problem optima.  It shares no code with the
library's solvers.
"""

from typing import Tuple

import numpy as np


def _tr_out(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """Partial trace over the output (most significant) factor of m [d_out d_in, d_out d_in]."""
    return np.trace(m.reshape(d_out, d_in, d_out, d_in), axis1=0, axis2=2)


def _project_psd(m: np.ndarray) -> np.ndarray:
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def _project_tp(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """m - I_out (x) (Tr_out m - I) / d_out, subtracted from each diagonal block."""
    delta = (_tr_out(m, d_out, d_in) - np.eye(d_in)) / d_out
    out = m.copy()
    blocks = out.reshape(d_out, d_in, d_out, d_in)
    idx = np.arange(d_out)
    blocks[idx, :, idx, :] -= delta
    return out


def _project_cptp(m: np.ndarray, d_out: int, d_in: int,
                  max_sweeps: int = 200, tol: float = 1e-11) -> np.ndarray:
    """Dykstra-corrected alternating projections onto PSD and TP sets."""
    c = m
    corr = np.zeros_like(m)
    for _ in range(max_sweeps):
        y = _project_psd(c + corr)
        corr = c + corr - y
        c = _project_tp(y, d_out, d_in)
        if np.max(np.abs(c - y)) < tol:
            break
    return c


def oracle_optimize(x: np.ndarray, dims: Tuple[int, int], iters: int = 1500) -> float:
    """Best-effort global optimum of the half-problem via Choi ascent.

    ``x`` is the fidelity operator and ``dims`` the (d_out, d_in) shape
    of the free channel's Kraus operators.  Projected gradient ascent on
    the linear objective tr(conj(X) C) over the set of CPTP Choi matrices
    (PSD, partial trace over the output factor equal to the identity),
    step size 1 / ||X||.  Returns the best objective value attained at a
    feasible iterate.  The ascent runs in float64 when X is real-valued.
    """
    d_out, d_in = dims
    a = x.conj()
    if not np.any(a.imag):
        a = a.real
    side = d_out * d_in
    if a.shape != (side, side):
        raise ValueError(f"operator side {a.shape[0]} inconsistent with dims "
                         f"({d_out}, {d_in})")
    lam = float(np.linalg.eigvalsh((a + a.conj().T) / 2)[-1])
    if lam <= 0.0:
        return 0.0
    step = 1.0 / lam
    c = np.eye(side, dtype=a.dtype) / d_out
    best = -np.inf
    stall = 0
    for _ in range(iters):
        c = _project_cptp(c + step * a, d_out, d_in)
        val = float(np.real(np.sum(a * c.T)))
        w_min = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
        pt_dev = float(np.max(np.abs(_tr_out(c, d_out, d_in) - np.eye(d_in))))
        if w_min > -1e-9 and pt_dev < 1e-9:
            if val > best + 1e-10:
                best = val
                stall = 0
            else:
                stall += 1
                if stall > 100:
                    break
    return best
