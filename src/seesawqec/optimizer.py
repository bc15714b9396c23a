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
tighter than ``INNER_TOL``; a restart counts as converged only on a
round whose halves ran at ``INNER_TOL``.

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
recovery multistart takes one encoder and a sequence of noise channels
and builds its start set once, so every gamma of a fixed-code curve runs
from the same starts.

A recovery multistart whose operator and fixed starts have zero
imaginary part (the 4-qubit code or the trivial embedding under a real
noise channel, so every fixed-code gamma) draws real random starts and
runs in float64, where a power step's ``eigh`` and matmuls are cheaper;
any other runs in complex128.  The data sets the field: the kernel works
in the result type of its inputs, and a multistart batch ends where the
field changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import COMPLETENESS_TOL, Channel, is_integer, tensor_power
from .codes import (ISOMETRY_TOL, Isometry, leung_encoder, partial_trace_recovery,
                    reversal_recovery, trivial_embedding)
from .linalg import inv_sqrt_psd

# w = vec(K^dag) coincides with conj(K.ravel()) under the column-stacking
# convention; the helpers below rely on that identity.


# A half-problem stops when one accepted power step changes the fidelity
# by less than INNER_TOL, or after MAX_INNER_ITERS steps, and a step may
# lower the fidelity by at most INNER_TOL.  In a seesaw round INNER_TOL is
# only the floor of the halves' stop tolerance (see SEESAW_KAPPA).
INNER_TOL = 1e-10
MAX_INNER_ITERS = 2000

# Inexact alternation: a seesaw round stops each half once one accepted
# step changes the fidelity by less than SEESAW_KAPPA times the restart's
# gain over its last round (never less than INNER_TOL), so a half is
# solved only as tightly as the alternation's progress needs.  Scanned on
# the full figure (seed 7; seesaw_sweep solve-time ratio, then the worst
# per-gamma drop against the exact halves): 0.001 1.44x, -2.5e-6;
# 0.003 1.53x, -2.3e-6; 0.01 1.74x, -1.7e-8; 0.1 1.9x, -3.2e-6 with
# gamma = 0.5 at the round cap; 1 about 1.85x, -9.1e-6 with two points
# at the cap.
SEESAW_KAPPA = 0.01

# Most problems that _multistarts puts in one kernel batch, so that peak
# memory does not grow with the grid.  A batch holds every member's
# operator and working arrays until its slowest member stops.  On the
# 21-point fixed-code curve, one batch of all 20 problems raised peak RSS
# from 39.5 to 44.8 MiB; ten (30 members) give 42.8 MiB at the same
# speed, since the step count is set by the slowest member either way,
# and five give 40.7 MiB but take 13% longer.  A batch also ends where
# the problems' field changes.  Bit-identical results across batchings
# need both the same field and the same padding width.
MULTISTART_BATCH = 10


@dataclass(frozen=True)
class SolveOptions:
    """Limits, tolerance and seed of the seesaw.

    ``max_outer_rounds``: seesaw rounds per restart.  ``outer_tol``: a
    seesaw restart has converged when a round at the floor tolerance
    ``INNER_TOL`` gains less than this.  ``restarts``: seesaw restarts
    besides warm starts.  The fixed ones (the trivial embedding, and the
    4-qubit code when n = 4) always run, and seeded random isometries
    fill up to this count, so n = 4 runs 2 restarts even when it is 1.
    ``seed``: base of every seed the solvers derive.
    """

    max_outer_rounds: int = 200
    outer_tol: float = 1e-9
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("max_outer_rounds", "restarts", "seed"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Written so that NaN fails too.
        if not 0 < self.outer_tol < np.inf:
            raise ValueError(f"outer_tol must be positive and finite, got {self.outer_tol!r}")
        if self.max_outer_rounds < 1:
            raise ValueError("max_outer_rounds must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(eq=False)
class HalfResult:
    """Best start of one half-problem's multistart: that start's best
    iterate ``channel``, its ``fidelity`` and whether it ``converged`` (stopped
    on its tolerance, not on the step cap, a drop or a failed renormalization),
    and the power steps of every start, summed (``iterations``)."""

    channel: Channel
    fidelity: float
    iterations: int
    converged: bool


@dataclass(eq=False)
class SeesawResult:
    """The winning restart of :func:`seesaw`: its best pair, ``encoder``
    and ``recovery``, their ``fidelity``, whether it ``converged`` on
    ``outer_tol`` before ``max_outer_rounds``, its ``outer_rounds``, and
    ``best_restart_seed``, ``opts.seed`` plus its index.  ``restart_traces``
    holds each restart's start value, then each round's encoder-half and
    recovery-half values; the winner's is
    ``restart_traces[best_restart_seed - opts.seed]``.
    ``inner_iterations_total`` counts the power steps of every restart and
    ``restarts_used`` the restarts run, the warm start included."""

    recovery: Channel
    fidelity: float
    restarts_used: int
    converged: bool
    best_restart_seed: int
    encoder: Isometry
    inner_iterations_total: int
    outer_rounds: int
    restart_traces: List[List[float]]


def _scaled_hermitian(x: np.ndarray, d_logical: int) -> np.ndarray:
    """(y + y^dag) / 2 with y = x / d^2, for each matrix of x [..., D, D], in place.

    Working in place keeps a stack's temporaries few; the bits are those
    of the out-of-place expression.
    """
    x /= d_logical * d_logical
    x += x.conj().swapaxes(-1, -2)
    x /= 2
    return x


def _recovery_operators(e: np.ndarray, nks: np.ndarray) -> np.ndarray:
    """Recovery-half X of each encoder stack e [B, I, c, d], with noise stack nks [J, m, c].

    X = (1/d^2) sum_p u_p u_p^dag over the rows u_p = vec(N_j E_i).
    """
    (nb, ni, c, d), (nj, m, _) = e.shape, nks.shape
    # prods[b, (j, a), (i, q)] = (N_j E_bi)[a, q]
    prods = nks.reshape(nj * m, c) @ e.transpose(0, 2, 1, 3).reshape(nb, c, ni * d)
    u = prods.reshape(nb, nj, m, ni, d).transpose(0, 1, 3, 4, 2).reshape(nb, nj * ni, d * m)
    return _scaled_hermitian(u.swapaxes(1, 2) @ u.conj(), d)


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


def fidelity_operator_recovery(encoder: Channel, noise: Channel) -> np.ndarray:
    """Fidelity operator X [D, D] for optimizing the recovery with E and N fixed.

    Built from the products ``N_j E_i``; the free channel maps the noise
    output back to the logical space.
    """
    if encoder.d_out != noise.d_in:
        raise ValueError(f"encoder output dim {encoder.d_out} does not match "
                         f"noise input dim {noise.d_in}")
    return _recovery_operators(encoder.kraus[None], noise.kraus)[0]


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


def _power_batch(x: np.ndarray, ks: np.ndarray, tol: float,
                 stop_tol: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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
    ``INNER_TOL``; the member stops on a drop, on a renormalization that
    fails (completeness off by more than ``tol``), when the accepted step
    changes the fidelity by less than its stop tolerance ``stop_tol[b]``
    (converged), or after ``MAX_INNER_ITERS`` steps; ``stop_tol`` enters
    only that test.  A step is a few stacked matmuls and one stacked eigh
    over the members still running, plus one more over the members that
    fall back; stopped members leave the live arrays.

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
    iterations = np.full(b, MAX_INNER_ITERS)
    converged = np.zeros(b, dtype=bool)
    live = np.arange(b)
    k = np.zeros(b)
    for step in range(1, MAX_INNER_ITERS + 1):
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
        accept = ok & (f_new >= f - INNER_TOL)
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


def random_cptp(d_in: int, d_out: int, rank: int, rng: np.random.Generator,
                real: bool = False) -> Channel:
    """Random channel with the given Kraus rank (needs rank * d_out >= d_in).

    The Kraus operators are drawn complex Gaussian, or real Gaussian (and
    kept float64) when ``real`` is set.
    """
    if rank * d_out < d_in:
        raise ValueError(f"a TP map {d_in} -> {d_out} of Kraus rank {rank} needs "
                         f"rank * d_out >= d_in")
    g = rng.standard_normal((rank, d_out, d_in))
    if not real:
        g = g + 1j * rng.standard_normal((rank, d_out, d_in))
    # A rank-deficient draw fails the Channel's completeness check.
    ks, _ = _renormalize(g.reshape(1, rank * d_out, d_in), COMPLETENESS_TOL)
    return Channel(ks.reshape(rank, d_out, d_in))


# ---------------------------------------------------------------------------
# Seesaw driver
# ---------------------------------------------------------------------------

def random_isometry(d_in: int, d_out: int, seed: int) -> Isometry:
    """Polar factor of a seeded complex Gaussian matrix: a rank-1 :func:`random_cptp`."""
    return Isometry(random_cptp(d_in, d_out, 1, np.random.default_rng(seed)).kraus[0])


def _seed_isometries(n: int, opts: SolveOptions, warm: Optional[Isometry]) -> List[Isometry]:
    # Trivial embedding first: at the fully-damped endpoint every recovery
    # ties to machine precision and the lowest restart index wins, so the
    # exact-arithmetic no-coding restart must be index 0.
    fixed = [trivial_embedding(n)] + ([leung_encoder()] if n == 4 else [])
    return fixed + ([] if warm is None else [warm]) + [
        random_isometry(2, 2 ** n, opts.seed + 1000 + j)
        for j in range(opts.restarts - len(fixed))]


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


# Kraus rank of the random starts of a recovery multistart.
KRAUS_RANK_RECOVERY = 16


def _starts(encoder: Isometry, noise: Channel, rng_seed: int,
            extra_starts: Sequence[Channel]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The recovery operator of one problem and the Kraus stacks of its starts.

    The starts are the encoder-reversal recovery, the extra starts (the
    seesaw's trivial restart adds the partial-trace recovery), and two
    random channels drawn from a generator seeded with ``rng_seed``.
    A problem is real when its operator X and its fixed starts (the
    reversal recovery and the extra starts) have zero imaginary part.  Its
    random starts are then drawn real, and X and every start stack are
    returned as float64; otherwise all are complex128.
    """
    x = fidelity_operator_recovery(encoder, noise)
    fixed = [c.kraus for c in (reversal_recovery(encoder), *extra_starts)]
    real = not np.any(x.imag) and not any(np.any(s.imag) for s in fixed)
    rng = np.random.default_rng(rng_seed)
    starts = [s.real if real else s for s in fixed]
    starts += [random_cptp(noise.d_out, encoder.d_in, KRAUS_RANK_RECOVERY, rng, real).kraus
               for _ in range(2)]
    return (x.real if real else x), starts


def optimize_recovery_multistarts(encoder: Isometry, noises: Iterable[Channel],
                                  rng_seed: int) -> List[HalfResult]:
    """Best recovery of ``encoder`` under each channel of ``noises``.

    Every noise channel runs from one start set, built once from the
    first (:func:`_starts`): the encoder-reversal recovery and two random
    channels drawn from a generator seeded with ``rng_seed`` (real ones
    when the first problem is real-valued).  Each start stops at
    ``INNER_TOL``, ties go to the earliest start, and ``iterations``
    counts the steps of all starts.  This is the routine behind the
    "optimized decoding with the fixed 4-qubit code" sweep mode and the
    seesaw's initial recoveries, so the seesaw's seeded restarts dominate
    that curve by construction.

    Every noise channel must have the first's output dimension.  A
    problem runs in float64 when its operator and the starts are
    real-valued, in complex128 otherwise.  Each noise channel is dropped
    once its operator is built, so ``noises`` may be a generator that
    builds each one on demand.  A result is bit-identical to that of a
    call with its noise channel alone when both run in the same field, as
    every gamma of a fixed-code curve does.
    """
    if not isinstance(encoder, Isometry):
        raise ValueError(f"encoder must be an Isometry, got {type(encoder).__name__}")

    def problems():
        starts = None
        for noise in noises:
            if not isinstance(noise, Channel):
                raise ValueError(f"noise must be a Channel, got {type(noise).__name__}")
            if starts is None:
                x, starts = _starts(encoder, noise, rng_seed, ())
            elif noise.d_out != starts[0].shape[2]:
                raise ValueError(f"noise output dim {noise.d_out} differs from the "
                                 f"first noise channel's {starts[0].shape[2]}")
            else:
                x = fidelity_operator_recovery(encoder, noise)
                if starts[0].dtype == np.float64 and not np.any(x.imag):
                    x = x.real
            # Not held while the generator waits for a full batch to run.
            del noise
            yield x, starts

    return _multistarts(problems())


def _multistarts(problems: Iterable[Tuple[np.ndarray, List[np.ndarray]]]) -> List[HalfResult]:
    """Best start of each ``(x, starts)`` problem, ties going to the earliest.

    The starts of up to ``MULTISTART_BATCH`` consecutive problems of one
    field run as one kernel batch, each stopping at ``INNER_TOL``.
    Members are zero-padded to the widest start in their batch, and the
    width can change the last bits, so a result is bit-identical to that
    of the problem passed alone when every problem's widest start has the
    same number of Kraus operators (as on a fixed-code curve, and for the
    seesaw's trivial and 4-qubit-code restarts, which share a real batch).
    """
    out: List[HalfResult] = []
    for _, same_field in itertools.groupby(problems, key=lambda p: p[0].dtype):
        while batch := list(itertools.islice(same_field, MULTISTART_BATCH)):
            xs, stacks, spans = [], [], []
            for x, starts in batch:
                spans.append((len(stacks), len(stacks) + len(starts)))
                xs += [x] * len(starts)
                stacks += starts
            ks, counts = _pad(stacks)
            best, f, iters, conv = _power_batch(np.stack(xs), ks, COMPLETENESS_TOL,
                                                np.full(len(stacks), INNER_TOL))
            for lo, hi in spans:
                j = lo + _first_best(f[lo:hi])
                out.append(HalfResult(Channel(best[j, :counts[j]]), float(f[j]),
                                      int(iters[lo:hi].sum()), bool(conv[j])))
    return out


def seesaw(noise_single: Channel, n: int, opts: SolveOptions,
           warm: Optional[Isometry] = None) -> SeesawResult:
    """Alternating optimization of encoder and recovery over n channel uses.

    Restart seeds, in restart order: the trivial embedding (restart 0,
    which also starts from the partial-trace recovery), the 4-qubit
    damping code (when n = 4), the warm start ``warm`` if one is given
    (one 2 -> 2^n :class:`Isometry`, such as the previous grid point's
    winner), and seeded random isometries until there are
    ``opts.restarts`` restarts besides the warm start.  The fixed seeds
    always run, so ``restarts_used`` is max(opts.restarts, 2 if n = 4
    else 1), plus 1 with a warm start.  Within each restart, recovery and
    encoding are optimized in turn until a round at the floor tolerance
    (below) gains less than ``outer_tol`` (converged) or
    ``max_outer_rounds`` is reached.  The best restart wins; ties go to
    the lowest index.

    The halves are solved inexactly.  In each round, every half of a
    restart (encoder, recovery and a fallback recovery) stops once an
    accepted power step changes the fidelity by less than
    max(INNER_TOL, SEESAW_KAPPA * g), where g is the restart's gain over
    its previous round (0 in its first round).  A round that gains less
    than ``outer_tol`` ends the restart as converged only if it ran at
    the floor, SEESAW_KAPPA * g <= INNER_TOL; otherwise the restart runs
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
    multistarts (one :func:`_starts` per restart, all run by one
    :func:`_multistarts` call; real-valued restarts, such as the trivial
    and 4-qubit-code ones, run in their own float64 batch, the latter
    from the fixed-code curve's starts), each round runs one
    encoder-half batch and one recovery-half batch over the restarts
    still going, plus one more recovery-half batch over those that fall
    back.  Restart i's state (encoder, recovery, last E', k, gain and
    best pair so far) is row i of stacked arrays; a round reads and
    writes the rows of the restarts still going, and only the traces
    are per-restart lists.
    """
    if not isinstance(noise_single, Channel):
        raise ValueError(f"noise_single must be a Channel, got {type(noise_single).__name__}")
    if not isinstance(opts, SolveOptions):
        raise ValueError(f"opts must be a SolveOptions, got {type(opts).__name__}")
    if noise_single.d_in != 2 or noise_single.d_out != 2:
        raise ValueError("seesaw expects a single-qubit noise channel")
    if warm is not None and (not isinstance(warm, Isometry) or warm.v.shape != (2 ** n, 2)):
        shape = warm.v.shape if isinstance(warm, Isometry) else type(warm).__name__
        raise ValueError(f"warm start must be a 2 -> {2 ** n} isometry for n = {n}, "
                         f"got {shape}")

    noise = tensor_power(noise_single, n)
    nks, a1 = noise.kraus, noise_single.kraus
    seeds = _seed_isometries(n, opts, warm)

    # Every restart's widest start has the same count (see _pad below), so
    # one batched call gives each restart its one-problem result.
    results = _multistarts(
        (_starts(iso, noise, opts.seed + idx, [partial_trace_recovery(n)] if idx == 0 else [])
         for idx, iso in enumerate(seeds)))
    traces = [[res.fidelity] for res in results]
    total_iters = sum(res.iterations for res in results)
    # Restart i is row i of every stacked array.  Recoveries are padded to
    # the widest start a multistart can have (the reversal's d_code - 1
    # operators or the random rank), so the batch shape does not depend on
    # which restarts exist, and made complex, since a round's recovery half
    # runs at a complex encoder even where every start is real.
    rec, rec_count = _pad([res.channel.kraus for res in results],
                          max(noise.d_out - 1, KRAUS_RANK_RECOVERY))
    rec = rec.astype(complex, copy=False)
    del results     # their Kraus operators are views into the multistart's stacks
    enc = np.stack([iso.kraus for iso in seeds])
    best_enc, best_rec, best_f = enc.copy(), rec.copy(), np.array([t[0] for t in traces])

    # Per restart: the encoder half's last output E' and the number k of
    # rounds since the last fallback, which set the extrapolation below,
    # and its gain over its last round, which sets its halves' stop
    # tolerance max(INNER_TOL, SEESAW_KAPPA * gain).  The live restarts
    # have all run the same number of rounds.
    e_half = enc.copy()
    k = np.zeros(len(seeds))
    gain = np.zeros(len(seeds))
    converged = np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(seeds))
    for _ in range(opts.max_outer_rounds):
        stop_tol = np.maximum(INNER_TOL, SEESAW_KAPPA * gain[live])
        rec_start = rec[live]
        enc_new, f_e, it_e, _ = _power_batch(_encoding_operators(rec_start, a1, n), enc[live],
                                             ISOMETRY_TOL, stop_tol)
        # E_y = polar(E' + beta_k (E' - E'_prev)); k = 0 or a failed polar step keeps E'.
        kl = k[live]
        y = enc_new + (kl / (kl + 3))[:, None, None, None] * (enc_new - e_half[live])
        e_y, ok = _renormalize(y.reshape(len(live), *enc_new.shape[2:]), ISOMETRY_TOL)
        ext = ok & (kl > 0)
        e_y = np.where(ext[:, None, None, None], e_y.reshape(enc_new.shape), enc_new)
        rec_new, f_r, it_r, _ = _power_batch(_recovery_operators(e_y, nks), rec_start,
                                             COMPLETENESS_TOL, stop_tol)
        total_iters += int(it_e.sum() + it_r.sum())
        # A round that ends below f_e redoes its recovery half at E'.
        back = ext & (f_r < f_e)
        if back.any():
            rec_new[back], f_r[back], it_b, _ = _power_batch(
                _recovery_operators(enc_new[back], nks), rec_start[back],
                COMPLETENESS_TOL, stop_tol[back])
            e_y[back] = enc_new[back]
            total_iters += int(it_b.sum())
        k[live] = np.where(back, 0, kl + 1)
        e_half[live], enc[live], rec[live] = enc_new, e_y, rec_new
        # Each trace records the round's two values, never below its last.
        last = np.array([traces[i][-1] for i in live])
        f_e = np.maximum(f_e, last)
        f_r = np.maximum(f_r, f_e)
        for i, pair in zip(live, np.column_stack((f_e, f_r)).tolist()):
            traces[i] += pair
        up = f_r > best_f[live]
        best_enc[live[up]], best_rec[live[up]], best_f[live[up]] = e_y[up], rec_new[up], f_r[up]
        # A small gain counts only from a round whose halves ran at the
        # floor INNER_TOL; after a looser round, one more round decides.
        gain[live] = g = f_r - last
        done = (g < opts.outer_tol) & (stop_tol == INNER_TOL)
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break

    win = _first_best(best_f)
    # A copy, so that the result does not hold every restart's recovery.
    recovery = Channel(best_rec[win, :rec_count[win]].copy())
    return SeesawResult(
        recovery=recovery, fidelity=float(best_f[win]), restarts_used=len(seeds),
        converged=bool(converged[win]), best_restart_seed=opts.seed + win,
        encoder=Isometry(best_enc[win, 0]),
        inner_iterations_total=total_iters, outer_rounds=len(traces[win]) // 2,
        restart_traces=traces)
