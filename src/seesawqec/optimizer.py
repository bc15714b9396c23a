"""Alternating optimization of encoding and recovery channels.

Each half of the problem (recovery with the encoding fixed, or encoding
with the recovery fixed) has a channel fidelity that is a quadratic form
in the vectorized Kraus operators of the free channel:

    F = sum_k <w_k| X |w_k>,   w_k = vec(K_k^dag),

with X a PSD "fidelity operator" assembled from the fixed parts.  The
half-problems are solved by a fixed-point power step (w <- X w followed
by trace-preserving renormalization) with a monotone-acceptance
safeguard, and the full problem by alternating the two halves from a
set of seeded restarts.

One stacked kernel (:func:`_power_batch`) runs the power step for a
batch of half-problems at once: the starts of a multistart, or every
live restart of a seesaw, in lockstep.  Each member's arithmetic is the
same whatever else is in the batch, so results do not depend on how
the batch was composed.

A slower projected-ascent solver over Choi matrices
(:func:`oracle_optimize`) provides an independent cross-check of the
half-problem optima; it is used by the test suite, not the seesaw loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class SolveOptions:
    max_inner_iters: int = 2000
    inner_tol: float = 1e-10
    max_outer_rounds: int = 200
    outer_tol: float = 1e-9
    restarts: int = 8
    kraus_rank_recovery: int = 16
    isometric_encoding: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.inner_tol <= 0 or self.outer_tol <= 0:
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
    encoder_isometry: Optional[Isometry] = None
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


def _operator(u: np.ndarray, d_logical: int) -> np.ndarray:
    """X = (1/d^2) sum_p u_p u_p^dag from rows u_p = vec(C_p) of the fixed-part products."""
    x = (u.T @ u.conj()) / (d_logical * d_logical)
    return (x + x.conj().T) / 2


def _recovery_operator(e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Recovery-half X from encoder Kraus stack e [I, c, d] and noise stack n [J, m, c]."""
    (ni, c, d), (nj, m, _) = e.shape, n.shape
    # prods[(j, a), (i, b)] = (N_j E_i)[a, b]
    prods = n.reshape(nj * m, c) @ e.transpose(1, 0, 2).reshape(c, ni * d)
    u = prods.reshape(nj, m, ni, d).transpose(0, 2, 3, 1).reshape(nj * ni, d * m)
    return _operator(u, d)


def _encoding_operator(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Encoding-half X from recovery Kraus stack r [K, d, m] and noise stack n [J, m, c]."""
    (nk, d, m), (nj, _, c) = r.shape, n.shape
    # prods[(k, a), (j, b)] = (R_k N_j)[a, b]
    prods = r.reshape(nk * d, m) @ n.transpose(1, 0, 2).reshape(m, nj * c)
    u = prods.reshape(nk, d, nj, c).transpose(0, 2, 3, 1).reshape(nk * nj, c * d)
    return _operator(u, d)


def fidelity_operator_recovery(encoder: Channel, noise: Channel) -> FidelityOperator:
    """Fidelity operator for optimizing the recovery with E and N fixed.

    Built from the products ``N_j E_i``; the free channel maps the noise
    output back to the logical space.
    """
    if encoder.d_out != noise.d_in:
        raise ValueError(f"encoder output dim {encoder.d_out} does not match "
                         f"noise input dim {noise.d_in}")
    x = _recovery_operator(np.stack(encoder.kraus), np.stack(noise.kraus))
    return FidelityOperator(x, (encoder.d_in, noise.d_out))


def fidelity_operator_encoding(recovery: Channel, noise: Channel) -> FidelityOperator:
    """Fidelity operator for optimizing the encoding with N and R fixed.

    Built from the products ``R_k N_j``; the free channel maps the
    logical space into the noise input.
    """
    if noise.d_out != recovery.d_in:
        raise ValueError(f"noise output dim {noise.d_out} does not match "
                         f"recovery input dim {recovery.d_in}")
    y = _encoding_operator(np.stack(recovery.kraus), np.stack(noise.kraus))
    return FidelityOperator(y, (noise.d_in, recovery.d_out))


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


def _power_batch(x: np.ndarray, ks: np.ndarray, opts: SolveOptions, tol: float
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the power step on a batch of half-problems until every member stops.

    ``x`` is [B, D, D], one fidelity operator per member; ``ks`` is
    [B, r, o, i], the starting Kraus operators, zero-padded to a common
    count r (a zero Kraus operator stays exactly zero).  Each member
    iterates K <- renormalize(X-step of K) on its own: a candidate is
    accepted unless its fidelity drops by more than ``opts.inner_tol``;
    the member stops on a drop, on a renormalization that fails
    (completeness off by more than ``tol``), when the accepted step
    changes the fidelity by less than ``opts.inner_tol`` (converged), or
    after ``opts.max_inner_iters`` steps.  A step is a few stacked
    matmuls and one stacked eigh over the members still running; stopped
    members leave the live arrays.

    Returns ``(best_ks, best_f, iterations, converged)`` per member, where
    ``best_ks`` is the best accepted iterate (the start if none beat it).
    """
    b, r, o, i = ks.shape
    # Row k of v is ravel(K_k) = conj(w_k), so the rows of v @ X are the
    # power step conj(X w_k), and the fidelity is sum_k conj(v_k) . (v X)_k.
    v = ks.reshape(b, r, o * i)
    p = v @ x
    f = _fidelities(v, p)
    best, best_f = v.copy(), f.copy()
    iterations = np.full(b, opts.max_inner_iters)
    converged = np.zeros(b, dtype=bool)
    live = np.arange(b)
    for step in range(1, opts.max_inner_iters + 1):
        cand, ok = _renormalize(p.reshape(len(live), r * o, i), tol)
        cand = cand.reshape(len(live), r, o * i)
        p = cand @ x
        f_new = _fidelities(cand, p)
        accept = ok & (f_new >= f - opts.inner_tol)
        up = accept & (f_new > best_f[live])
        best[live[up]] = cand[up]
        best_f[live[up]] = f_new[up]
        done = accept & (np.abs(f_new - f) < opts.inner_tol)
        converged[live[done]] = True
        f = f_new
        stop = done | ~accept
        if stop.any():
            iterations[live[stop]] = step
            keep = ~stop
            live, x, p, f = live[keep], x[keep], p[keep], f[keep]
            if not live.size:
                break
    return best.reshape(ks.shape), best_f, iterations, converged


def optimize_half(x: FidelityOperator, initial: Channel,
                  opts: SolveOptions) -> HalfResult:
    """Maximize the quadratic-form fidelity over CPTP maps of fixed Kraus rank.

    Iterates the power step w <- X w followed by trace-preserving
    renormalization.  An iterate is accepted only if the fidelity does
    not drop by more than ``inner_tol``; on a larger drop the previous
    iterate is kept and the iteration stops.  The best iterate seen is
    returned, so the result never falls below the starting fidelity.
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


def random_cptp(d_in: int, d_out: int, rank: int, rng: np.random.Generator) -> Channel:
    """Random channel with the given Kraus rank (needs rank * d_out >= d_in)."""
    if rank * d_out < d_in:
        raise ValueError(f"rank {rank} too small for a TP map {d_in} -> {d_out}")
    g = (rng.standard_normal((rank, d_out, d_in))
         + 1j * rng.standard_normal((rank, d_out, d_in)))
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
    objective value attained at a feasible iterate.
    """
    d_out, d_in = dims if dims is not None else x.free_shape
    a = x.x.conj()
    side = d_out * d_in
    if a.shape != (side, side):
        raise ValueError(f"operator side {a.shape[0]} inconsistent with dims "
                         f"({d_out}, {d_in})")
    lam = float(np.linalg.eigvalsh((a + a.conj().T) / 2)[-1])
    if lam <= 0.0:
        return 0.0
    step = 1.0 / lam
    c = np.eye(side, dtype=complex) / d_out
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
    """Stack Kraus stacks of different counts, zero-padded to the widest or to ``width``."""
    counts = [len(s) for s in stacks]
    out = np.zeros((len(stacks), max(counts + [width])) + stacks[0].shape[1:], dtype=complex)
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


def optimize_recovery_multistart(encoder: Isometry, noise: Channel,
                                 opts: SolveOptions, rng_seed: int,
                                 extra_starts: Sequence[Channel] = ()
                                 ) -> HalfResult:
    """Best recovery for a fixed encoder over a deterministic set of starts.

    Starts: the encoder-reversal recovery, any caller-supplied channels,
    and two random channels drawn from a generator seeded with
    ``rng_seed``, run as one batch; ties go to the earliest start.  Also
    the exact routine behind the "optimized decoding with the fixed
    4-qubit code" sweep mode and the seesaw's initial recoveries, so the
    seesaw's seeded restarts dominate that curve by construction.
    ``iterations`` counts the steps of all starts.
    """
    x = fidelity_operator_recovery(encoder.as_channel(), noise).x
    for c in extra_starts:
        if (c.d_out, c.d_in) != (encoder.d_in, noise.d_out):
            raise ValueError(f"start channel shape ({c.d_out}, {c.d_in}) does not match "
                             f"recovery shape ({encoder.d_in}, {noise.d_out})")
    rng = np.random.default_rng(rng_seed)
    starts = [reversal_recovery(encoder), *extra_starts]
    starts += [random_cptp(noise.d_out, encoder.d_in, opts.kraus_rank_recovery, rng)
               for _ in range(2)]
    ks, counts = _pad([np.stack(c.kraus) for c in starts])
    best, f, iters, conv = _power_batch(np.broadcast_to(x, (len(ks),) + x.shape),
                                        ks, opts, COMPLETENESS_TOL)
    j = _first_best(f)
    return HalfResult(Channel(list(best[j, :counts[j]])), float(f[j]), int(iters.sum()),
                      bool(conv[j]))


def _noiseless(noise_single: Channel) -> bool:
    return (noise_single.d_in == noise_single.d_out
            and channel_fidelity(noise_single) >= 1.0 - 1e-15)


def seesaw(noise_single: Channel, n: int, opts: SolveOptions,
           extra_seed_encoders: Sequence[Isometry] = ()) -> SeesawResult:
    """Alternating optimization of encoder and recovery over n channel uses.

    Restart seeds: the 4-qubit damping code (when n = 4), the trivial
    embedding, any warm-start encoders, and random isometries up to
    ``opts.restarts``.  Within each restart, recovery and encoding are
    optimized in turn until the per-round fidelity gain falls below
    ``outer_tol``.  The best restart wins; ties go to the lowest index.

    The restarts run in lockstep: after each restart's multistart
    (:func:`optimize_recovery_multistart`, one batch per restart), each
    round runs one encoder-half batch and one recovery-half batch over
    the restarts still going.
    """
    if noise_single.d_in != 2 or noise_single.d_out != 2:
        raise ValueError("seesaw expects a single-qubit noise channel")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    if _noiseless(noise_single):
        iso = trivial_embedding(n)
        return SeesawResult(
            encoder=iso.as_channel(), recovery=reversal_recovery(iso),
            fidelity=1.0, fidelity_trace=[1.0], restarts_used=0,
            converged=True, best_restart_seed=opts.seed,
            encoder_isometry=iso, inner_iterations_total=0, outer_rounds=0,
            restart_traces=[[1.0]])

    noise = tensor_power(noise_single, n)
    nks = np.stack(noise.kraus)
    seeds = _seed_isometries(n, noise.d_in, opts, extra_seed_encoders)
    enc_tol = ISOMETRY_TOL if opts.isometric_encoding else COMPLETENESS_TOL

    traces, starts = [], []
    total_iters = 0
    for idx, (name, iso) in enumerate(seeds):
        extra = [partial_trace_recovery(n)] if name == "trivial" else []
        res = optimize_recovery_multistart(iso, noise, opts, opts.seed + idx, extra)
        starts.append(np.stack(res.channel.kraus))
        traces.append([res.fidelity])
        total_iters += res.iterations
    # Pad every recovery to the widest start a multistart can have (the
    # reversal's d_code - 1 operators or the random rank), so the batch
    # shape does not depend on which restarts exist.  Arrays returned by
    # the kernel are never written again, so the state and the best
    # snapshots can hold views into them.
    padded, rec_count = _pad(starts, max(noise.d_out - 1, opts.kraus_rank_recovery))
    rec = list(padded)
    enc = [iso.v[None] for _, iso in seeds]
    snaps = [(enc[i], rec[i], traces[i][0]) for i in range(len(seeds))]
    f_round = [t[0] for t in traces]
    rounds = [0] * len(seeds)
    converged = [False] * len(seeds)

    live = list(range(len(seeds)))
    while live:
        ys = np.stack([_encoding_operator(rec[i][:rec_count[i]], nks) for i in live])
        enc_new, f_e, it_e, _ = _power_batch(ys, np.stack([enc[i] for i in live]),
                                             opts, enc_tol)
        xs_live = np.stack([_recovery_operator(e, nks) for e in enc_new])
        rec_new, f_r, it_r, _ = _power_batch(xs_live, np.stack([rec[i] for i in live]),
                                             opts, COMPLETENESS_TOL)
        total_iters += int(it_e.sum() + it_r.sum())
        still = []
        for pos, i in enumerate(live):
            enc[i], rec[i] = enc_new[pos], rec_new[pos]
            trace = traces[i]
            trace.append(max(float(f_e[pos]), trace[-1]))
            trace.append(max(float(f_r[pos]), trace[-1]))
            rounds[i] += 1
            if trace[-1] > snaps[i][2]:
                snaps[i] = (enc[i], rec[i], trace[-1])
            if trace[-1] - f_round[i] < opts.outer_tol:
                converged[i] = True
            elif rounds[i] < opts.max_outer_rounds:
                f_round[i] = trace[-1]
                still.append(i)
        live = still

    win = _first_best([s[2] for s in snaps])
    enc_b, rec_b, f_b = snaps[win]
    return SeesawResult(
        encoder=Channel([enc_b[0]]), recovery=Channel(list(rec_b[:rec_count[win]])),
        fidelity=f_b, fidelity_trace=traces[win], restarts_used=len(seeds),
        converged=converged[win], best_restart_seed=opts.seed + win,
        encoder_isometry=Isometry(enc_b[0]) if opts.isometric_encoding else None,
        inner_iterations_total=total_iters, outer_rounds=rounds[win],
        restart_traces=traces)
