"""Alternating optimization of encoding and recovery channels.

Each half of the problem (recovery with the encoding fixed, or encoding
with the recovery fixed) has a channel fidelity that is a quadratic form
in the vectorized Kraus operators of the free channel:

    F = sum_k <w_k| X |w_k>,   w_k = vec(K_k^dag),

with X a PSD "fidelity operator" assembled from the fixed parts.  The
half-problems are solved by a fixed-point power step (w <- X w followed
by trace-preserving renormalization), extrapolated along the previous
step with Nesterov momentum that restarts whenever an extrapolated step
would lower the fidelity, with a monotone-acceptance safeguard; the full
problem by alternating the two halves from a set of seeded restarts.  The
alternation is extrapolated one level up in the same way: each round's
recovery half sees the encoder pushed along its last change, and a round
that would end below its encoder half's value is redone without it.  It
is also inexact: a round solves its halves only to a fixed fraction
(``SEESAW_KAPPA``) of the restart's gain over its last round, and never
tighter than ``inner_tol``; a restart counts as converged only on a
round whose halves ran at ``inner_tol``.

One stacked kernel (:func:`_power_batch`) runs the power step for a
batch of half-problems at once: the starts of several multistarts (a
whole fixed-code curve, a bounded number of gamma points per batch), or
every live restart of a seesaw, in lockstep.  At a given padding width
of the Kraus stacks, each member's arithmetic is the same whatever else
is in the batch, so results do not depend on how the batch was composed.

The kernel's inputs are built once per batch.  The recovery half's
operators come from one stacked dense product over the batch's encoders
(:func:`_recovery_operators`).  The seesaw's encoding-half operators are
built qubit by qubit for every live restart at once: each recovery's
Choi matrix is pushed through the single-qubit transfer matrix of the
noise on one qubit at a time (:func:`_encoding_operators`), so the
2^n-operator tensor power is never multiplied out for that half.  A
multistart reuses the previous problem's starts when it shares their
encoder, seed and extra starts, as every gamma of a fixed-code curve
does.

A recovery multistart whose operator and fixed starts have zero
imaginary part (the 4-qubit code or the trivial embedding under a real
noise channel, so every fixed-code gamma) draws real random starts and
runs in float64, where a power step's ``eigh`` and matmuls are cheaper;
any other runs in complex128.  The data sets the field: the kernel works
in the result type of its inputs, and a multistart batch ends where the
field changes.

A slower projected-ascent solver over Choi matrices
(:func:`oracle_optimize`) provides an independent cross-check of the
half-problem optima, in float64 for a real-valued operator; it is used by
the test suite, not the seesaw loop.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import COMPLETENESS_TOL, Channel, channel_fidelity, tensor_power
from .codes import (ISOMETRY_TOL, Isometry, leung_encoder, partial_trace_recovery,
                    random_isometry, reversal_recovery, trivial_embedding)
from .linalg import inv_sqrt_psd, partial_trace

# w = vec(K^dag) coincides with conj(K.ravel()) under the column-stacking
# convention; the helpers below rely on that identity.


@dataclass(frozen=True)
class FidelityOperator:
    """PSD matrix X with F = sum_k <vec(K_k^dag)| X |vec(K_k^dag)>.

    ``free_shape`` is the (d_out, d_in) shape of the free channel's
    Kraus operators.
    """

    x: np.ndarray
    free_shape: Tuple[int, int]


def require_integers(obj, names: Sequence[str]) -> None:
    """Raise ValueError unless each named field of ``obj`` is an integer.

    NumPy integers pass; ``bool`` and integral floats such as 3.0 do not.
    """
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SolveOptions:
    """Limits, tolerances and seeds of the solvers.

    ``max_inner_iters``: power steps per half-problem.  ``inner_tol``: a
    half-problem stops when one accepted step changes the fidelity by
    less than this, and a step may lower it by at most this much.  In a
    seesaw round it is the floor of the halves' stop tolerance, which is
    looser while the restart still gains (see :func:`seesaw`).
    ``max_outer_rounds``: seesaw rounds per restart.  ``outer_tol``: a
    seesaw restart has converged when a round at the floor tolerance
    gains less than this.  ``restarts``: seeded seesaw restarts besides
    warm starts.  ``kraus_rank_recovery``: Kraus rank of the random
    recovery starts.  ``seed``: base of every seed the solvers derive.
    """

    max_inner_iters: int = 2000
    inner_tol: float = 1e-10
    max_outer_rounds: int = 200
    outer_tol: float = 1e-9
    restarts: int = 8
    kraus_rank_recovery: int = 16
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ("max_inner_iters", "max_outer_rounds", "restarts",
                                "kraus_rank_recovery", "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Written so that NaN fails too.
        if not (self.inner_tol > 0 and self.outer_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_inner_iters < 1 or self.max_outer_rounds < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.restarts < 1 or self.kraus_rank_recovery < 1:
            raise ValueError("restarts and Kraus ranks must be >= 1")


@dataclass
class HalfResult:
    channel: Channel
    fidelity: float
    iterations: int
    converged: bool


@dataclass
class SeesawResult:
    encoder: Channel
    recovery: Channel
    fidelity: float
    fidelity_trace: List[float]
    restarts_used: int
    converged: bool
    best_restart_seed: int
    encoder_isometry: Isometry
    inner_iterations_total: int = 0
    outer_rounds: int = 0
    # accepted-fidelity trace of every restart, best one included
    restart_traces: Optional[List[List[float]]] = None


def _kraus_vectors(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Stack vec(K^dag) for each Kraus operator as columns."""
    ks = np.stack([np.asarray(k) for k in ops])
    return ks.reshape(len(ops), -1).conj().T


def quadratic_fidelity(x: FidelityOperator, c: Channel) -> float:
    w = _kraus_vectors(c.kraus)
    return float(np.real(np.sum(w.conj() * (x.x @ w))))


def _scaled_hermitian(x: np.ndarray, d_logical: int) -> np.ndarray:
    """(y + y^dag) / 2 with y = x / d^2, for each matrix of x [..., D, D], in place.

    Working in place keeps a stack's temporaries few; the bits are those
    of the out-of-place expression.
    """
    x /= d_logical * d_logical
    x += x.conj().swapaxes(-1, -2)
    x /= 2
    return x


def _operator(u: np.ndarray, d_logical: int) -> np.ndarray:
    """X = (1/d^2) sum_p u_p u_p^dag from rows u_p = vec(C_p) of the fixed-part products.

    ``u`` is [..., P, D]; a stack gives one X per member.
    """
    return _scaled_hermitian(u.swapaxes(-1, -2) @ u.conj(), d_logical)


def _recovery_operators(e: np.ndarray, nks: np.ndarray) -> np.ndarray:
    """Recovery-half X of each encoder stack e [B, I, c, d], with noise stack nks [J, m, c]."""
    (nb, ni, c, d), (nj, m, _) = e.shape, nks.shape
    # prods[b, (j, a), (i, q)] = (N_j E_bi)[a, q]
    prods = nks.reshape(nj * m, c) @ e.transpose(0, 2, 1, 3).reshape(nb, c, ni * d)
    u = prods.reshape(nb, nj, m, ni, d).transpose(0, 1, 3, 4, 2).reshape(nb, nj * ni, d * m)
    return _operator(u, d)


def _encoding_operators(r: np.ndarray, a1: np.ndarray, n: int) -> np.ndarray:
    """Encoding-half X of each recovery stack r [B, K, d, 2^n] for the noise a1^(x n).

    ``a1`` [S, 2, 2] is the single-qubit Kraus set.  With
    C = sum_k vec(R_k) vec(R_k)^dag (row-major vec, output index first),
    X[(b, a), (b', a')] = (1/d^2) sum_{mu, nu} C[(a, mu), (a', nu)]
    T[(mu, nu), (b, b')], where T = sum_j N_j (x) conj(N_j) over the
    Kraus operators of a1^(x n) is the single-qubit transfer matrix
    M = sum_s A_s (x) conj(A_s) on every qubit pair (mu_q, nu_q).  So M is
    applied one qubit at a time instead of forming the 4^n Kraus
    products.  Zero-padded Kraus rows of ``r`` add nothing.
    """
    nb, nk, d, m = r.shape
    v = r.reshape(nb, nk, d * m)
    c = (v.swapaxes(1, 2) @ v.conj()).reshape((nb, d) + (2,) * n + (d,) + (2,) * n)
    # [B, a, a', mu_1, nu_1, ..., mu_n, nu_n]
    pairs = [ax for q in range(n) for ax in (2 + q, 3 + n + q)]
    t = c.transpose((0, 1, 2 + n) + tuple(pairs)).reshape((nb * d * d,) + (4,) * n)
    mt = np.einsum("smb,snc->mnbc", a1, a1.conj()).reshape(4, 4)
    # Contracting the leading qubit pair appends (b_q, b'_q) last, so after
    # n contractions the qubits are back in order.
    for _ in range(n):
        t = np.tensordot(t, mt, axes=([1], [0]))
    # [B, a, a', b_1, b'_1, ..., b_n, b'_n] -> [B, (b, a), (b', a')]
    t = t.reshape((nb, d, d) + (2,) * (2 * n))
    order = ((0,) + tuple(3 + 2 * q for q in range(n)) + (1,)
             + tuple(4 + 2 * q for q in range(n)) + (2,))
    return _scaled_hermitian(t.transpose(order).reshape(nb, m * d, m * d), d)


def fidelity_operator_recovery(encoder: Channel, noise: Channel) -> FidelityOperator:
    """Fidelity operator for optimizing the recovery with E and N fixed.

    Built from the products ``N_j E_i``; the free channel maps the noise
    output back to the logical space.
    """
    if encoder.d_out != noise.d_in:
        raise ValueError(f"encoder output dim {encoder.d_out} does not match "
                         f"noise input dim {noise.d_in}")
    x = _recovery_operators(np.stack(encoder.kraus)[None], np.stack(noise.kraus))[0]
    return FidelityOperator(x, (encoder.d_in, noise.d_out))


def fidelity_operator_encoding(recovery: Channel, noise: Channel) -> FidelityOperator:
    """Fidelity operator for optimizing the encoding with N and R fixed.

    Built from the products ``R_k N_j`` of any noise channel; the free
    channel maps the logical space into the noise input.  The seesaw
    builds the same operator qubit by qubit (:func:`_encoding_operators`).
    """
    if noise.d_out != recovery.d_in:
        raise ValueError(f"noise output dim {noise.d_out} does not match "
                         f"recovery input dim {recovery.d_in}")
    r, n = np.stack(recovery.kraus), np.stack(noise.kraus)
    (nk, d, m), (nj, _, c) = r.shape, n.shape
    # prods[(k, a), (j, b)] = (R_k N_j)[a, b]
    prods = r.reshape(nk * d, m) @ n.transpose(1, 0, 2).reshape(m, nj * c)
    u = prods.reshape(nk, d, nj, c).transpose(0, 2, 3, 1).reshape(nk * nj, c * d)
    return FidelityOperator(_operator(u, d), (noise.d_in, recovery.d_out))


def _lowdin(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c[b] @ S_b^(-1/2) with S_b = c[b]^dag c[b], plus S's scale and the completeness error.

    ``c`` is [B, M, i]: the Kraus operators of member b stacked row-wise.
    Eigenvalues at or below 1e-14 of S_b's largest entry are dropped from
    the inverse root.
    """
    s = c.conj().swapaxes(1, 2) @ c
    scale = np.abs(s).max(axis=(1, 2))
    # A zero S fails the completeness check; a unit scale keeps its floor positive.
    out = c @ inv_sqrt_psd(s, 1e-14 * np.where(scale > 0.0, scale, 1.0))
    gram = out.conj().swapaxes(1, 2) @ out
    return out, scale, np.abs(gram - np.eye(c.shape[2])).max(axis=(1, 2))


def _renormalize(c: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Make each member of the stack c [B, M, i] trace preserving.

    Returns ``(out, ok)``; ``ok[b]`` is False when S_b is zero or ``out[b]``
    misses completeness by more than ``tol``.
    """
    out, scale, dev = _lowdin(c)
    # S squares the condition number of c, so a nearly rank-deficient
    # stack can miss completeness by rounding alone (2e-9 at gamma=0.02 on
    # the 4-qubit code).  The result's own S is close to the identity, and
    # renormalizing once more restores completeness to rounding.
    redo = np.flatnonzero((scale > 0.0) & (dev > tol))
    if redo.size:
        out[redo], _, dev[redo] = _lowdin(out[redo])
    return out, (scale > 0.0) & (dev <= tol)


def _fidelities(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-member sum_k conj(v_k) . p_k over stacks [B, r, D]."""
    return (v.conj() * p).reshape(len(v), -1).sum(axis=1).real


def _power_batch(x: np.ndarray, ks: np.ndarray, opts: SolveOptions, tol: float,
                 stop_tol: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the power step on a batch of half-problems until every member stops.

    ``x`` is [B, D, D], one fidelity operator per member; ``ks`` is
    [B, r, o, i], the starting Kraus operators, zero-padded to a common
    count r (a zero Kraus operator stays exactly zero).  Each member
    iterates K <- renormalize(X-step of Y) on its own, where
    Y = K_t + beta_k (K_t - K_{t-1}) extrapolates along its last step
    with beta_k = k / (k + 3) and k counts its consecutive accepted steps
    (Nesterov momentum with adaptive restart: O'Donoghue & Candes,
    "Adaptive restart for accelerated gradient schemes", 2015).  An
    extrapolated candidate (k > 0) is kept only if it is complete and
    does not lower the fidelity; otherwise the member redoes the plain
    step from K_t (the k = 0 case, Y = K_t) and k restarts from 0.  A
    plain candidate is accepted unless its fidelity drops by more than
    ``opts.inner_tol``; the member stops on a drop, on a renormalization
    that fails (completeness off by more than ``tol``), when the accepted
    step changes the fidelity by less than its stop tolerance
    (converged), or after ``opts.max_inner_iters`` steps.  The stop
    tolerance is ``stop_tol[b]`` per member, ``opts.inner_tol`` for all
    when it is None; it enters only that test.  A step is a
    few stacked matmuls and one stacked eigh over the members still
    running, plus one more over the members that fall back; stopped
    members leave the live arrays.

    The batch runs in the field of its inputs: float64 when ``x`` and
    ``ks`` are both float64, complex128 otherwise.

    Returns ``(best_ks, best_f, iterations, converged)`` per member, where
    ``best_ks`` is the best accepted iterate (the start if none beat it).
    """
    b, r, o, i = ks.shape
    # One working dtype for every array, so that a complex candidate is
    # never stored into a real start's slot.
    dtype = np.result_type(x, ks)
    x = x.astype(dtype, copy=False)
    # Row j of v is ravel(K_j) = conj(w_j), so the rows of v @ X are the
    # power step conj(X w_j), and the fidelity is sum_j conj(v_j) . (v X)_j.
    # The step is linear, so Y X = p_t + beta (p_t - p_{t-1}) with p = K X.
    v = ks.astype(dtype, copy=False).reshape(b, r, o * i)
    p = v @ x
    p_prev = p
    f = _fidelities(v, p)
    best, best_f = v.copy(), f.copy()
    iterations = np.full(b, opts.max_inner_iters)
    converged = np.zeros(b, dtype=bool)
    live = np.arange(b)
    k = np.zeros(b)
    if stop_tol is None:
        stop_tol = np.full(b, opts.inner_tol)
    for step in range(1, opts.max_inner_iters + 1):
        # beta = 0 leaves p exactly as it is: the plain step.
        y = p + (k / (k + 3))[:, None, None] * (p - p_prev)
        cand, ok = _renormalize(y.reshape(len(live), r * o, i), tol)
        cand = cand.reshape(len(live), r, o * i)
        p_new = cand @ x
        f_new = _fidelities(cand, p_new)
        redo = (k > 0) & ~(ok & (f_new >= f))
        if redo.any():
            c, ok[redo] = _renormalize(p[redo].reshape(-1, r * o, i), tol)
            c = c.reshape(-1, r, o * i)
            cand[redo], p_new[redo] = c, c @ x[redo]
            f_new[redo] = _fidelities(c, p_new[redo])
            k[redo] = 0
        accept = ok & (f_new >= f - opts.inner_tol)
        up = accept & (f_new > best_f[live])
        best[live[up]] = cand[up]
        best_f[live[up]] = f_new[up]
        done = accept & (np.abs(f_new - f) < stop_tol[live])
        converged[live[done]] = True
        p_prev, p, f, k = p, p_new, f_new, k + 1
        stop = done | ~accept
        if stop.any():
            iterations[live[stop]] = step
            keep = ~stop
            live, x, p, p_prev, f, k = (live[keep], x[keep], p[keep], p_prev[keep],
                                        f[keep], k[keep])
            if not live.size:
                break
    return best.reshape(ks.shape), best_f, iterations, converged


def optimize_half(x: FidelityOperator, initial: Channel,
                  opts: SolveOptions) -> HalfResult:
    """Maximize the quadratic-form fidelity over CPTP maps of fixed Kraus rank.

    Iterates the power step w <- X w followed by trace-preserving
    renormalization, from a point extrapolated along the previous step
    (see :func:`_power_batch`).  An iterate is accepted only if the
    fidelity does not drop by more than ``inner_tol``; on a larger drop
    the previous iterate is kept and the iteration stops.  The best
    iterate seen is returned, so the result never falls below the
    starting fidelity.
    """
    if (initial.d_out, initial.d_in) != x.free_shape:
        raise ValueError(f"initial channel shape ({initial.d_out}, {initial.d_in}) "
                         f"does not match operator free shape {x.free_shape}")
    best, f, iters, conv = _power_batch(x.x[None], np.stack(initial.kraus)[None],
                                        opts, COMPLETENESS_TOL)
    return HalfResult(Channel(list(best[0])), float(f[0]), int(iters[0]), bool(conv[0]))


def optimize_encoding_isometric(y: FidelityOperator, initial: Isometry,
                                opts: SolveOptions) -> Tuple[Isometry, float, int, bool]:
    """Same power step restricted to a single Kraus operator.

    Renormalization projects back to isometries via V (V^dag V)^(-1/2).
    Returns (isometry, fidelity, iterations, converged).
    """
    if (initial.d_out, initial.d_in) != y.free_shape:
        raise ValueError(f"initial isometry shape ({initial.d_out}, {initial.d_in}) "
                         f"does not match operator free shape {y.free_shape}")
    best, f, iters, conv = _power_batch(y.x[None], initial.v[None, None], opts,
                                        ISOMETRY_TOL)
    return Isometry(best[0, 0]), float(f[0]), int(iters[0]), bool(conv[0])


def random_cptp(d_in: int, d_out: int, rank: int, rng: np.random.Generator,
                real: bool = False) -> Channel:
    """Random channel with the given Kraus rank (needs rank * d_out >= d_in).

    The Kraus operators are drawn complex Gaussian, or real Gaussian (and
    kept float64) when ``real`` is set.
    """
    if rank * d_out < d_in:
        raise ValueError(f"rank {rank} too small for a TP map {d_in} -> {d_out}")
    g = rng.standard_normal((rank, d_out, d_in))
    if not real:
        g = g + 1j * rng.standard_normal((rank, d_out, d_in))
    ks, ok = _renormalize(g.reshape(1, rank * d_out, d_in), COMPLETENESS_TOL)
    if not ok[0]:
        raise ValueError("random Kraus draw was rank deficient")
    return Channel(list(ks.reshape(rank, d_out, d_in)))


# ---------------------------------------------------------------------------
# Independent oracle for the half-problem (tests only)
# ---------------------------------------------------------------------------

def _project_psd(m: np.ndarray) -> np.ndarray:
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def _project_tp(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    pt = partial_trace(m, (d_out, d_in), keep=(1,))
    return m - np.kron(np.eye(d_out), (pt - np.eye(d_in)) / d_out)


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


def oracle_optimize(x: FidelityOperator, dims: Optional[Tuple[int, int]] = None,
                    iters: int = 1500) -> float:
    """Best-effort global optimum of the half-problem via Choi ascent.

    Projected gradient ascent on the linear objective tr(conj(X) C) over
    the set of CPTP Choi matrices (PSD, partial trace over the output
    factor equal to the identity), step size 1 / ||X||.  Returns the best
    objective value attained at a feasible iterate.  The ascent runs in
    float64 when X is real-valued.
    """
    d_out, d_in = dims if dims is not None else x.free_shape
    a = x.x.conj()
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
        pt_dev = float(np.max(np.abs(
            partial_trace(c, (d_out, d_in), keep=(1,)) - np.eye(d_in))))
        if w_min > -1e-9 and pt_dev < 1e-9:
            if val > best + 1e-10:
                best = val
                stall = 0
            else:
                stall += 1
                if stall > 100:
                    break
    return best


# ---------------------------------------------------------------------------
# Seesaw driver
# ---------------------------------------------------------------------------

def _seed_isometries(n: int, d_code: int, opts: SolveOptions,
                     extra: Sequence[Isometry]) -> List[Tuple[str, Isometry]]:
    # Trivial embedding first: at the fully-damped endpoint every recovery
    # ties to machine precision and the lowest restart index wins, so the
    # exact-arithmetic no-coding restart must come first.
    seeds: List[Tuple[str, Isometry]] = [("trivial", trivial_embedding(n))]
    if n == 4 and d_code == 16:
        seeds.append(("leung", leung_encoder()))
    for j, iso in enumerate(extra):
        seeds.append((f"warm{j}", iso))
    j = 0
    while len(seeds) < opts.restarts + len(extra):
        seeds.append((f"random{j}", random_isometry(2, d_code, opts.seed + 1000 + j)))
        j += 1
    return seeds


# Restart index of the 4-qubit-code seed inside seesaw(); the sweep's
# fixed-code mode reuses it so both paths optimize from identical starts.
LEUNG_RESTART_INDEX = 1


def _pad(stacks: Sequence[np.ndarray], width: int = 0) -> Tuple[np.ndarray, List[int]]:
    """Stack Kraus stacks of different counts, zero-padded to the widest or to ``width``.

    The stack is float64 when every input is, complex128 otherwise.
    """
    counts = [len(s) for s in stacks]
    out = np.zeros((len(stacks), max(counts + [width])) + stacks[0].shape[1:],
                   dtype=np.result_type(*{s.dtype for s in stacks}))
    for b, s in enumerate(stacks):
        out[b, :len(s)] = s
    return out, counts


def _first_best(f: Sequence[float]) -> int:
    """Index of the best value; a later one must win by more than 1e-12."""
    best = 0
    for j in range(1, len(f)):
        if f[j] > f[best] + 1e-12:
            best = j
    return best


# Most problems that optimize_recovery_multistarts puts in one kernel
# batch, so that peak memory does not grow with the grid.  A batch holds
# every member's operator and working arrays until its slowest member
# stops.  On the 21-point fixed-code curve, one batch of all 20 problems
# raised peak RSS from 39.5 to 44.8 MiB; ten (30 members) give 42.8 MiB
# at the same speed, since the step count is set by the slowest member
# either way, and five give 40.7 MiB but take 13% longer.  A batch also
# ends where the problems' field changes.  Bit-identical results across
# batchings need both the same field and the same padding width.
MULTISTART_BATCH = 10


# What the starts of a recovery multistart depend on, and the Kraus stacks
# of those starts: (encoder, rng_seed, extra_starts, noise.d_out, whether
# X is real-valued, starts).
_Starts = Tuple[Isometry, int, Sequence[Channel], int, bool, List[np.ndarray]]


def _multistart_members(encoder: Isometry, noise: Channel, opts: SolveOptions,
                        rng_seed: int, extra_starts: Sequence[Channel],
                        last: Optional[_Starts] = None
                        ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The recovery operator of one problem and the Kraus stacks of its starts.

    A problem is real when its operator X and its fixed starts (the
    reversal recovery and the extra starts) have zero imaginary part.  Its
    random starts are then drawn real, and X and every start stack are
    returned as float64; otherwise all are complex128.  The starts depend
    on the problem only through its encoder, seed, extra starts,
    ``noise.d_out`` and whether X is real-valued.  When ``last`` holds the
    previous problem's, and this one repeats all five (the same encoder
    and extra-start objects), its start stacks are reused, not built again.
    """
    x = fidelity_operator_recovery(encoder.as_channel(), noise).x
    x_real = not np.any(x.imag)
    for c in extra_starts:
        if (c.d_out, c.d_in) != (encoder.d_in, noise.d_out):
            raise ValueError(f"start channel shape ({c.d_out}, {c.d_in}) does not match "
                             f"recovery shape ({encoder.d_in}, {noise.d_out})")
    if (last is not None and encoder is last[0] and rng_seed == last[1]
            and len(extra_starts) == len(last[2])
            and all(a is b for a, b in zip(extra_starts, last[2]))
            and noise.d_out == last[3] and x_real == last[4]):
        starts = last[5]
    else:
        fixed = [np.stack(c.kraus) for c in (reversal_recovery(encoder), *extra_starts)]
        real = x_real and not any(np.any(s.imag) for s in fixed)
        rng = np.random.default_rng(rng_seed)
        starts = [s.real if real else s for s in fixed]
        starts += [np.stack(random_cptp(noise.d_out, encoder.d_in, opts.kraus_rank_recovery,
                                        rng, real).kraus)
                   for _ in range(2)]
    return (x.real if starts[0].dtype == np.float64 else x), starts


def optimize_recovery_multistarts(
        problems: Iterable[Tuple[Isometry, Channel, int, Sequence[Channel]]],
        opts: SolveOptions) -> List[HalfResult]:
    """Best recovery of each ``(encoder, noise, rng_seed, extra_starts)`` problem.

    Each problem's starts are :func:`optimize_recovery_multistart`'s.  A
    real problem (:func:`_multistart_members`) runs in float64, any other
    in complex128.  The starts of up to ``MULTISTART_BATCH`` consecutive
    problems of one field run as one kernel batch, and each problem's
    noise channel is dropped once its operator is built, so ``problems``
    may be a generator that builds each noise channel on demand.  A
    problem that repeats the previous problem's encoder, seed, extra
    starts, ``noise.d_out`` and field (every gamma of a fixed-code curve)
    reuses its start stacks.  Members are zero-padded to the widest start
    in their batch, and the width can change the last bits, so a result
    is bit-identical to its one-problem call when it runs in the same
    field and every problem's widest start has the same number of Kraus
    operators (as on a fixed-code curve, and for the seesaw's trivial and
    4-qubit-code restarts, which share a real batch).
    """
    out: List[HalfResult] = []
    batch: List[Tuple[np.ndarray, List[np.ndarray]]] = []
    last: Optional[_Starts] = None
    for encoder, noise, rng_seed, extra_starts in problems:
        x, starts = _multistart_members(encoder, noise, opts, rng_seed, extra_starts, last)
        last = (encoder, rng_seed, extra_starts, noise.d_out, not np.any(x.imag), starts)
        if batch and (len(batch) == MULTISTART_BATCH or x.dtype != batch[0][0].dtype):
            out += _multistart_batch(batch, opts)
            batch = []
        batch.append((x, starts))
    if batch:
        out += _multistart_batch(batch, opts)
    return out


def _multistart_batch(batch: Sequence[Tuple[np.ndarray, List[np.ndarray]]],
                      opts: SolveOptions) -> List[HalfResult]:
    """Run the starts of every ``(x, starts)`` problem as one kernel batch."""
    xs: List[np.ndarray] = []
    stacks: List[np.ndarray] = []
    spans: List[Tuple[int, int]] = []
    for x, starts in batch:
        spans.append((len(stacks), len(stacks) + len(starts)))
        xs += [x] * len(starts)
        stacks += starts
    ks, counts = _pad(stacks)
    best, f, iters, conv = _power_batch(np.stack(xs), ks, opts, COMPLETENESS_TOL)
    out = []
    for lo, hi in spans:
        j = lo + _first_best(f[lo:hi])
        out.append(HalfResult(Channel(list(best[j, :counts[j]])), float(f[j]),
                              int(iters[lo:hi].sum()), bool(conv[j])))
    return out


def optimize_recovery_multistart(encoder: Isometry, noise: Channel,
                                 opts: SolveOptions, rng_seed: int,
                                 extra_starts: Sequence[Channel] = ()
                                 ) -> HalfResult:
    """Best recovery for a fixed encoder over a deterministic set of starts.

    Starts: the encoder-reversal recovery, any caller-supplied channels,
    and two random channels drawn from a generator seeded with
    ``rng_seed`` (real ones for a real-valued problem, which then runs in
    float64), run as one batch; ties go to the earliest start.  Also
    the exact routine behind the "optimized decoding with the fixed
    4-qubit code" sweep mode (through :func:`optimize_recovery_multistarts`,
    of which this is the one-problem call) and the seesaw's initial
    recoveries, so the seesaw's seeded restarts dominate that curve by
    construction.  ``iterations`` counts the steps of all starts.
    """
    return optimize_recovery_multistarts([(encoder, noise, rng_seed, extra_starts)],
                                         opts)[0]


# Inexact alternation: a seesaw round stops each half once one accepted
# step changes the fidelity by less than SEESAW_KAPPA times the restart's
# gain over its last round (never less than inner_tol), so a half is
# solved only as tightly as the alternation's progress needs.  Scanned on
# the full figure (seed 7; seesaw_sweep solve-time ratio, then the worst
# per-gamma drop against the exact halves): 0.001 1.44x, -2.5e-6;
# 0.003 1.53x, -2.3e-6; 0.01 1.74x, -1.7e-8; 0.1 1.9x, -3.2e-6 with
# gamma = 0.5 at the round cap; 1 about 1.85x, -9.1e-6 with two points
# at the cap.
SEESAW_KAPPA = 0.01


def _noiseless(noise_single: Channel) -> bool:
    return (noise_single.d_in == noise_single.d_out
            and channel_fidelity(noise_single) >= 1.0 - 1e-15)


def seesaw(noise_single: Channel, n: int, opts: SolveOptions,
           extra_seed_encoders: Sequence[Isometry] = ()) -> SeesawResult:
    """Alternating optimization of encoder and recovery over n channel uses.

    Restart seeds: the 4-qubit damping code (when n = 4), the trivial
    embedding, any warm-start encoders, and random isometries up to
    ``opts.restarts``.  Within each restart, recovery and encoding are
    optimized in turn until a round at the floor tolerance (below) gains
    less than ``outer_tol`` (converged) or ``max_outer_rounds`` is
    reached.  The best restart wins; ties go to the lowest index.

    The halves are solved inexactly.  In each round, every half of a
    restart (encoder, recovery and a fallback recovery) stops once an
    accepted power step changes the fidelity by less than
    max(inner_tol, SEESAW_KAPPA * g), where g is the restart's gain over
    its previous round (0 in its first round).  A round that gains less
    than ``outer_tol`` ends the restart as converged only if it ran at
    the floor, SEESAW_KAPPA * g <= inner_tol; otherwise the restart runs
    one more round, which is then at the floor.

    A round extrapolates the encoder the way the power step extrapolates
    its iterate (adaptive-restart momentum, O'Donoghue & Candes 2015).
    The encoder half returns E' at value f_e; the recovery half is then
    solved at E_y = polar(E' + beta_k (E' - E'_prev)), beta_k = k/(k+3),
    where E'_prev is the previous round's E' and k counts the rounds
    since the restart's last fallback (E_y = E' when k = 0 or the polar
    step fails).  If the round's value falls below f_e, its recovery half
    is redone at E' from the same start and k is set to 0, so every
    restart stays monotone.  The round records f_e and the recovery
    half's value, and (E_y, recovery) is both the next round's start and
    the pair whose fidelity is recorded.

    The restarts run in lockstep: after the restarts' initial recovery
    multistarts (:func:`optimize_recovery_multistarts`, one call for
    all; real-valued restarts, such as the trivial and 4-qubit-code
    ones, run in their own float64 batch, the latter from the fixed-code
    curve's starts), each round
    runs one encoder-half batch and one recovery-half batch over the
    restarts still going, plus one more recovery-half batch over those
    that fall back.

    Each warm-start encoder must be a 2 -> 2^n :class:`Isometry`.
    """
    if noise_single.d_in != 2 or noise_single.d_out != 2:
        raise ValueError("seesaw expects a single-qubit noise channel")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for j, iso in enumerate(extra_seed_encoders):
        if not isinstance(iso, Isometry) or iso.v.shape != (2 ** n, 2):
            shape = iso.v.shape if isinstance(iso, Isometry) else type(iso).__name__
            raise ValueError(f"warm-start encoder {j} must be a 2 -> {2 ** n} isometry "
                             f"for n = {n}, got {shape}")

    if _noiseless(noise_single):
        iso = trivial_embedding(n)
        return SeesawResult(
            encoder=iso.as_channel(), recovery=reversal_recovery(iso),
            fidelity=1.0, fidelity_trace=[1.0], restarts_used=0,
            converged=True, best_restart_seed=opts.seed,
            encoder_isometry=iso, inner_iterations_total=0, outer_rounds=0,
            restart_traces=[[1.0]])

    noise = tensor_power(noise_single, n)
    nks, a1 = np.stack(noise.kraus), np.stack(noise_single.kraus)
    seeds = _seed_isometries(n, noise.d_in, opts, extra_seed_encoders)

    # Every restart's widest start has the same count (see _pad below), so
    # one batched call gives each restart its one-problem result.
    results = optimize_recovery_multistarts(
        ((iso, noise, opts.seed + idx,
          [partial_trace_recovery(n)] if name == "trivial" else [])
         for idx, (name, iso) in enumerate(seeds)), opts)
    starts = [np.stack(res.channel.kraus) for res in results]
    traces = [[res.fidelity] for res in results]
    total_iters = sum(res.iterations for res in results)
    # Pad every recovery to the widest start a multistart can have (the
    # reversal's d_code - 1 operators or the random rank), so the batch
    # shape does not depend on which restarts exist.  Arrays are never
    # written once a round has stored them, so the state and the best
    # snapshots can hold views into them.
    padded, rec_count = _pad(starts, max(noise.d_out - 1, opts.kraus_rank_recovery))
    rec = list(padded)
    enc = [iso.v[None] for _, iso in seeds]
    snaps = [(enc[i], rec[i], traces[i][0]) for i in range(len(seeds))]
    f_round = [t[0] for t in traces]
    rounds = [0] * len(seeds)
    converged = [False] * len(seeds)

    # Per restart: the encoder half's last output E' and the number k of
    # rounds since the last fallback, which set the extrapolation below,
    # and its gain over its last round, which sets its halves' stop
    # tolerance max(inner_tol, SEESAW_KAPPA * gain).
    e_half = list(enc)
    k = np.zeros(len(seeds))
    gain = np.zeros(len(seeds))
    live = list(range(len(seeds)))
    while live:
        stop_tol = np.maximum(opts.inner_tol, SEESAW_KAPPA * gain[live])
        rec_start = np.stack([rec[i] for i in live])
        enc_new, f_e, it_e, _ = _power_batch(_encoding_operators(rec_start, a1, n),
                                             np.stack([enc[i] for i in live]),
                                             opts, ISOMETRY_TOL, stop_tol)
        # E_y = polar(E' + beta_k (E' - E'_prev)); k = 0 or a failed polar step keeps E'.
        kl = k[live]
        y = enc_new + (kl / (kl + 3))[:, None, None, None] * (
            enc_new - np.stack([e_half[i] for i in live]))
        e_y, ok = _renormalize(y.reshape(len(live), *enc_new.shape[2:]), ISOMETRY_TOL)
        ext = ok & (kl > 0)
        e_y = np.where(ext[:, None, None, None], e_y.reshape(enc_new.shape), enc_new)
        rec_new, f_r, it_r, _ = _power_batch(_recovery_operators(e_y, nks), rec_start, opts,
                                             COMPLETENESS_TOL, stop_tol)
        total_iters += int(it_e.sum() + it_r.sum())
        # A round that ends below f_e redoes its recovery half at E'.
        back = ext & (f_r < f_e)
        if back.any():
            rec_new[back], f_r[back], it_b, _ = _power_batch(
                _recovery_operators(enc_new[back], nks), rec_start[back], opts,
                COMPLETENESS_TOL, stop_tol[back])
            e_y[back] = enc_new[back]
            total_iters += int(it_b.sum())
        k[live] = np.where(back, 0, kl + 1)
        still = []
        for pos, i in enumerate(live):
            e_half[i] = enc_new[pos]
            enc[i], rec[i] = e_y[pos], rec_new[pos]
            trace = traces[i]
            trace.append(max(float(f_e[pos]), trace[-1]))
            trace.append(max(float(f_r[pos]), trace[-1]))
            rounds[i] += 1
            if trace[-1] > snaps[i][2]:
                snaps[i] = (enc[i], rec[i], trace[-1])
            # A small gain counts only from a round whose halves ran at the
            # floor inner_tol; after a looser round, one more round decides.
            g = trace[-1] - f_round[i]
            if g < opts.outer_tol and stop_tol[pos] == opts.inner_tol:
                converged[i] = True
            elif rounds[i] < opts.max_outer_rounds:
                f_round[i], gain[i] = trace[-1], g
                still.append(i)
        live = still

    win = _first_best([s[2] for s in snaps])
    enc_b, rec_b, f_b = snaps[win]
    return SeesawResult(
        encoder=Channel([enc_b[0]]), recovery=Channel(list(rec_b[:rec_count[win]])),
        fidelity=f_b, fidelity_trace=traces[win], restarts_used=len(seeds),
        converged=converged[win], best_restart_seed=opts.seed + win,
        encoder_isometry=Isometry(enc_b[0]),
        inner_iterations_total=total_iters, outer_rounds=rounds[win],
        restart_traces=traces)
