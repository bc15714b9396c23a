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
problem by alternating the two halves from a set of restarts.  The
alternation is extrapolated one level up in the same way: each round's
recovery half sees the encoder pushed along its last change, and a round
that would end below its encoder half's value is redone without it.  It
is also inexact: a round solves its halves only to a fixed fraction
(``SEESAW_KAPPA``) of the restart's gain over its last round, and never
tighter than ``INNER_TOL``; a restart counts as converged only on a
round whose halves ran at ``INNER_TOL``.

One stacked kernel (:func:`_power_batch`) runs the power step for a
batch of half-problems at once: the recovery problems of several gamma
points (a whole fixed-code curve, a bounded number of points per batch)
or of a seesaw point's restarts, or the live restarts of one lockstep
pass over several seesaw points (below), in lockstep.  At a given
padding width of the Kraus stacks, each member's arithmetic is the same
whatever else is in the batch, so results do not depend on how the
batch was composed.  The kernel holds only its live members' state
(iterate, last step, value, best value, stop tolerance and momentum
count), compacted as members stop (but not once the last ones stop),
and writes a member's best iterate back only when it improves and its
stop record only when it stops; the seesaw's round loop
(:func:`_rounds`) compacts its live restarts' state the same way.  So a seesaw round, which is bound by the interpreter
rather than by BLAS and LAPACK, makes few numpy calls that do no
floating-point work, and each float operation and its order are those
of gathering every member's state at every step.

The kernel's inputs are built once per batch, for the rows of each
gamma point in it at once (:func:`_per_gamma`).  The recovery half's
operators come from one stacked dense product over those rows' encoders
(:func:`_recovery_operators`).  The seesaw's encoding-half operators are
built qubit by qubit for those rows' restarts at once: each recovery's
Choi matrix is pushed through the single-qubit transfer matrix of the
noise on one qubit at a time (:func:`_encoding_operators`), so the
2^n-operator tensor power is never multiplied out for that half.

Every recovery problem runs from one deterministic start
(:func:`_recovery_problem`).  Each gamma of the fixed-code curve, and
every seesaw restart but the trivial one, starts from the transpose
recovery of its noisy code (:func:`_transpose_problem`); the trivial
restart starts from the partial-trace recovery, which gives the
no-coding value to rounding.  A problem whose operator and start have
zero imaginary part (the 4-qubit code or the trivial embedding under a
real noise channel, so every fixed-code gamma) runs in float64, where a
power step's ``eigh`` and matmuls are cheaper; any other runs in
complex128.
The data sets the field: the kernel works in the result type of its
inputs, and a multistart batch ends where the field changes.

A seesaw's restarts never read each other's state, and all but the
warm start read nothing from another gamma point.  So the rounds of
those cold restarts run for several gamma points at once, in one shard
of restarts per CPU of the process's affinity mask, in this process and
in forked workers (:mod:`seesawqec.grid`, :func:`seesawqec.workers.map_rows`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import COMPLETENESS_TOL, Channel, is_integer, is_real
from .codes import ISOMETRY_TOL, Isometry
from .linalg import inv_sqrt_psd

if TYPE_CHECKING:
    from .grid import ColdRestarts

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
# operator and working arrays until its slowest member stops.  Measured
# when each problem still ran three starts (three members): one batch of
# all 20 points of the fixed-code curve raised peak RSS from 39.5 to
# 44.8 MiB; ten gave 42.8 MiB at the same speed, since the step count is
# set by the slowest member either way, and five gave 40.7 MiB but took
# 13% longer.  A batch also ends where the problems' field changes.
# Bit-identical results across batchings need both the same field and
# the same padding width.
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
        if not (is_real(self.outer_tol) and 0 < self.outer_tol < np.inf):
            raise ValueError(f"outer_tol must be positive and finite, got {self.outer_tol!r}")
        if self.max_outer_rounds < 1:
            raise ValueError("max_outer_rounds must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(eq=False)
class HalfResult:
    """One recovery problem solved from its start: the best iterate
    ``channel`` (without all-zero Kraus operators), its ``fidelity``, the
    power steps run (``iterations``) and whether it ``converged`` (stopped
    on its tolerance, not on the step cap, a drop or a failed
    renormalization)."""

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
    # [B, a, a', mu_1, nu_1, ..., mu_n, nu_n].  The axes are lists or
    # unpacked ranges, never tuple(generator): CPython resizes such a tuple,
    # and each one freed then stays in its tuple free list (up to 2,000 per
    # length), which cost 0.3-0.5 MiB of peak RSS on seesaw_sweep (BENCH_23.json).
    pairs = [ax for q in range(n) for ax in (2 + q, 3 + n + q)]
    t = c.transpose(0, 1, 2 + n, *pairs).reshape(nb * d * d, 4, -1)
    mt = np.einsum("smb,snc->mnbc", a1, a1.conj()).reshape(4, 4)
    # Contracting the leading qubit pair appends (b_q, b'_q) last, so after
    # n contractions the qubits are back in order.  Each contraction is the
    # copy and the matrix product that np.tensordot(t, mt, ([1], [0])) makes.
    for _ in range(n):
        t = np.dot(t.swapaxes(1, 2).reshape(-1, 4), mt).reshape(t.shape)
    # [B, a, a', b_1, b'_1, ..., b_n, b'_n] -> [B, (b, a), (b', a')]
    t = t.reshape((nb, d, d) + (2,) * (2 * n))
    order = (0, *range(3, 3 + 2 * n, 2), 1, *range(4, 4 + 2 * n, 2), 2)
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
    # gram - I, with the identity subtracted from the diagonal in place.
    gram = out.conj().swapaxes(1, 2) @ out
    gram.reshape(len(c), -1)[:, ::c.shape[2] + 1] -= 1
    return out, scale, np.abs(gram).max(axis=(1, 2))


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
    ok = scale > 0.0
    if (dev > tol).any():
        redo = np.flatnonzero(ok & (dev > tol))
        if redo.size:
            out[redo], _, dev[redo] = _lowdin(out[redo])
    return out, ok & (dev <= tol)


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
    # The live members' best values and stop tolerances, compacted as x, p and f are.
    f_best, tol_live = f, stop_tol
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
        up = accept & (f_new > f_best)
        if up.any():
            best[live[up]] = cand[up]
            f_best = np.where(up, f_new, f_best)
        done = accept & (np.abs(f_new - f) < tol_live)
        p_prev, p, f, k = p, p_new, f_new, k + 1
        stop = done | ~accept
        if stop.any():
            out = live[stop]
            iterations[out], converged[out], best_f[out] = step, done[stop], f_best[stop]
            if stop.all():
                break
            keep = ~stop
            live, x, p, p_prev, f, k, f_best, tol_live = (
                a[keep] for a in (live, x, p, p_prev, f, k, f_best, tol_live))
    else:
        # The members still live at MAX_INNER_ITERS steps.
        best_f[live] = f_best
    return best.reshape(ks.shape), best_f, iterations, converged


def random_cptp(d_in: int, d_out: int, rank: int, rng: np.random.Generator) -> Channel:
    """Random channel with the given Kraus rank (needs rank * d_out >= d_in), its
    Kraus operators drawn complex Gaussian."""
    if rank * d_out < d_in:
        raise ValueError(f"a TP map {d_in} -> {d_out} of Kraus rank {rank} needs "
                         f"rank * d_out >= d_in")
    g = rng.standard_normal((rank, d_out, d_in)) + 1j * rng.standard_normal((rank, d_out, d_in))
    # A rank-deficient draw fails the Channel's completeness check.
    ks, _ = _renormalize(g.reshape(1, rank * d_out, d_in), COMPLETENESS_TOL)
    return Channel(ks.reshape(rank, d_out, d_in))


# ---------------------------------------------------------------------------
# Seesaw driver
# ---------------------------------------------------------------------------

def random_isometry(d_in: int, d_out: int, seed: int) -> Isometry:
    """Polar factor of a seeded complex Gaussian matrix: a rank-1 :func:`random_cptp`."""
    return Isometry(random_cptp(d_in, d_out, 1, np.random.default_rng(seed)).kraus[0])


def _pad(stacks: Sequence[np.ndarray], width: int = 0) -> np.ndarray:
    """Stack Kraus stacks of different counts, zero-padded to the widest or to ``width``.

    The stack is float64 when every input is, complex128 otherwise.
    """
    out = np.zeros((len(stacks), max([width] + [len(s) for s in stacks])) + stacks[0].shape[1:],
                   dtype=np.result_type(*{s.dtype for s in stacks}))
    for b, s in enumerate(stacks):
        out[b, :len(s)] = s
    return out


def _nonzero(ks: np.ndarray) -> Channel:
    """The channel of the Kraus stack ks without its all-zero operators."""
    return Channel(ks[np.any(ks, axis=(1, 2))])


def _first_best(f: Sequence[float]) -> int:
    """Index of the best value; a later one must win by more than 1e-12."""
    best = 0
    for j in range(1, len(f)):
        if f[j] > f[best] + 1e-12:
            best = j
    return best


def _recovery_problem(encoder: Isometry, noise: Channel,
                      start: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The recovery operator X of ``encoder`` under ``noise`` and the Kraus stack ``start``.

    The start is zero-padded to the noise channel's Kraus count (it stays
    wider if it has more operators).  X and the start are float64 when
    both are real-valued, complex128 otherwise.
    """
    x = fidelity_operator_recovery(encoder, noise)
    if not np.any(x.imag) and not np.any(start.imag):
        x, start = x.real, start.real
    return x, _pad([start], len(noise.kraus))[0]


def _transpose_problem(encoder: Isometry, noise: Channel) -> Tuple[np.ndarray, np.ndarray]:
    """The :func:`_recovery_problem` whose start is the transpose recovery of the noisy code.

    The transpose (Petz) recovery of the noisy code (Barnum & Knill,
    quant-ph/0004088) has the operators R_j = V^dag N_j^dag sigma^(-1/2),
    sigma = sum_j N_j V V^dag N_j^dag: the Löwdin step of the adjoint
    stack {V^dag N_j^dag}, whose Gram matrix is sigma.  All-zero adjoints
    are dropped.  Where sigma is singular, the stack is completed on its
    kernel: each added operator sends up to d kernel directions to the d
    logical basis states, one to each.  The step runs in float64 when the
    adjoints are real-valued, and so are the products N_j V that X is
    built from.
    """
    v, nks = encoder.v, noise.kraus
    d_code, d = v.shape
    adj = v.conj().T @ nks.conj().swapaxes(1, 2)
    adj = adj[np.any(adj, axis=(1, 2))]
    if not np.any(adj.imag):
        adj = adj.real
    ks = _renormalize(adj.reshape(1, -1, d_code), COMPLETENESS_TOL)[0].reshape(-1, d, d_code)
    # What the Löwdin step leaves out of completeness is the projector onto ker sigma.
    w, u = np.linalg.eigh(np.eye(d_code) - np.einsum("kai,kaj->ij", ks.conj(), ks))
    ker = u[:, w > 0.5].conj().T
    fill = -len(ker) % d
    ker = np.concatenate([ker, np.zeros((fill, d_code), ker.dtype)]).reshape(-1, d, d_code)
    return _recovery_problem(encoder, noise, np.concatenate([ks, ker]))


def optimize_recovery_multistarts(encoder: Isometry,
                                  noises: Iterable[Channel]) -> List[HalfResult]:
    """Best recovery of ``encoder`` under each channel of ``noises``.

    Each noise channel runs from one deterministic start, the transpose
    recovery of the noisy code (:func:`_transpose_problem`), which stops
    at ``INNER_TOL``; ``iterations`` counts its power steps.  This is the
    routine behind the "optimized decoding with the fixed 4-qubit code"
    sweep mode.  The seesaw's 4-qubit-code restart starts from the same
    recovery and its rounds never lower a value, so the seesaw dominates
    that curve by construction.

    Every noise channel must have the first's output dimension.  A
    problem runs in float64 when its operator and start are real-valued,
    in complex128 otherwise.  Each noise channel is dropped once its
    problem is built, so ``noises`` may be a generator that builds each
    one on demand.  A result is bit-identical to that of a call with its
    noise channel alone when every start of the call has the same Kraus
    count and both run in the same field, as every gamma of a fixed-code
    curve does.  A returned channel has no all-zero Kraus operator.
    """
    if not isinstance(encoder, Isometry):
        raise ValueError(f"encoder must be an Isometry, got {type(encoder).__name__}")

    def problems():
        d_out = None
        for noise in noises:
            if not isinstance(noise, Channel):
                raise ValueError(f"noise must be a Channel, got {type(noise).__name__}")
            if d_out is None:
                d_out = noise.d_out
            elif noise.d_out != d_out:
                raise ValueError(f"noise output dim {noise.d_out} differs from the "
                                 f"first noise channel's {d_out}")
            problem = _transpose_problem(encoder, noise)
            # Not held while the generator waits for a full batch to run.
            del noise
            yield problem

    return _multistarts(problems())


def _multistarts(problems: Iterable[Tuple[np.ndarray, np.ndarray]]) -> List[HalfResult]:
    """The power step of each ``(x, start)`` problem, stopped at ``INNER_TOL``.

    Up to ``MULTISTART_BATCH`` consecutive problems of one field run as
    one kernel batch.  Starts are zero-padded to the widest in their
    batch, and the width can change the last bits, so a result is
    bit-identical to that of the problem passed alone when every start
    has the same number of Kraus operators (as on a fixed-code curve, and
    for a seesaw's restarts below full damping).
    """
    out: List[HalfResult] = []
    for _, same_field in itertools.groupby(problems, key=lambda p: p[0].dtype):
        while batch := list(itertools.islice(same_field, MULTISTART_BATCH)):
            xs, starts = zip(*batch)
            best, f, iters, conv = _power_batch(np.stack(xs), _pad(starts), COMPLETENESS_TOL,
                                                np.full(len(batch), INNER_TOL))
            out += [HalfResult(_nonzero(best[j]), float(f[j]), int(iters[j]), bool(conv[j]))
                    for j in range(len(batch))]
    return out


def _per_gamma(build, stack: np.ndarray, g: np.ndarray, per: Sequence, *args) -> np.ndarray:
    """``build(rows, per[j], *args)`` over the rows of ``stack`` whose gamma
    index in the sorted ``g`` is j, for each j, stacked in row order."""
    if g[0] == g[-1]:
        return build(stack, per[g[0]], *args)
    cut = [0, *np.flatnonzero(g[1:] != g[:-1]) + 1, len(g)]
    return np.concatenate([build(stack[a:z], per[g[a]], *args) for a, z in zip(cut, cut[1:])])


def _rounds(enc: np.ndarray, rec: np.ndarray, f0: np.ndarray, g: np.ndarray,
            nks: Sequence[np.ndarray], a1: Sequence[np.ndarray], n: int, opts: SolveOptions):
    """The lockstep seesaw rounds of restarts with encoders enc [B, 1, 2^n, 2],
    recoveries rec [B, K, 2, 2^n], start values f0 [B] and sorted gamma
    indices g [B] (see :func:`seesaw`).  Gamma j has the noise Kraus stack
    ``nks[j]`` and the single-qubit one ``a1[j]``; each round builds every
    operator per gamma and runs each half over all live restarts at once.

    Returns one ``(best_enc, best_rec, best_f, converged, trace,
    iterations)`` per restart: its best pair, their value, whether it
    converged, its trace and its power steps.
    """
    traces = [[f] for f in f0.tolist()]
    best_enc, best_rec, best_f = enc.copy(), rec.copy(), f0.copy()
    iters = np.zeros(len(enc), dtype=int)
    converged = np.zeros(len(enc), dtype=bool)
    # Per live restart, compacted as restarts stop: its encoder, recovery
    # and gamma index, the encoder half's last output E' and the number k
    # of rounds since the last fallback, which set the extrapolation below,
    # its gain over its last round, which sets its halves' stop tolerance
    # max(INNER_TOL, SEESAW_KAPPA * gain), and its trace and last recorded
    # value.  The live restarts have all run the same number of rounds.
    live = np.arange(len(enc))
    e_half, k, gain, trace, last = enc, np.zeros(len(enc)), np.zeros(len(enc)), traces, f0
    for _ in range(opts.max_outer_rounds):
        stop_tol = np.maximum(INNER_TOL, SEESAW_KAPPA * gain)
        enc_new, f_e, it_e, _ = _power_batch(_per_gamma(_encoding_operators, rec, g, a1, n),
                                             enc, ISOMETRY_TOL, stop_tol)
        # E_y = polar(E' + beta_k (E' - E'_prev)); k = 0 or a failed polar step keeps E'.
        y = enc_new + (k / (k + 3))[:, None, None, None] * (enc_new - e_half)
        e_y, ok = _renormalize(y.reshape(len(live), *enc_new.shape[2:]), ISOMETRY_TOL)
        ext = ok & (k > 0)
        e_y = np.where(ext[:, None, None, None], e_y.reshape(enc_new.shape), enc_new)
        rec_new, f_r, it_r, _ = _power_batch(_per_gamma(_recovery_operators, e_y, g, nks),
                                             rec, COMPLETENESS_TOL, stop_tol)
        iters[live] += it_e + it_r
        # A round that ends below f_e redoes its recovery half at E'.
        back = ext & (f_r < f_e)
        if back.any():
            rec_new[back], f_r[back], it_b, _ = _power_batch(
                _per_gamma(_recovery_operators, enc_new[back], g[back], nks), rec[back],
                COMPLETENESS_TOL, stop_tol[back])
            e_y[back] = enc_new[back]
            iters[live[back]] += it_b
        k = np.where(back, 0, k + 1)
        e_half, enc, rec = enc_new, e_y, rec_new
        # Each trace records the round's two values, never below its last.
        f_e = np.maximum(f_e, last)
        f_r = np.maximum(f_r, f_e)
        for t, a, z in zip(trace, f_e.tolist(), f_r.tolist()):
            t += a, z
        up = f_r > best_f[live]
        i = live[up]
        best_enc[i], best_rec[i], best_f[i] = e_y[up], rec_new[up], f_r[up]
        # A small gain counts only from a round whose halves ran at the
        # floor INNER_TOL; after a looser round, one more round decides.
        gain, last = f_r - last, f_r
        done = (gain < opts.outer_tol) & (stop_tol == INNER_TOL)
        if done.any():
            converged[live[done]] = True
            if done.all():
                break
            keep = ~done
            live, enc, rec, g, e_half, k, gain, last = (
                a[keep] for a in (live, enc, rec, g, e_half, k, gain, last))
            trace = [t for t, d in zip(trace, done.tolist()) if not d]
    return list(zip(best_enc, best_rec, best_f.tolist(), converged.tolist(), traces,
                    iters.tolist()))


def seesaw(noise_single: Channel, n: int, opts: SolveOptions,
           warm: Optional[Isometry] = None, cold: Optional[ColdRestarts] = None) -> SeesawResult:
    """Alternating optimization of encoder and recovery over n channel uses.

    Restart seeds, in restart order: the trivial embedding (restart 0),
    the 4-qubit damping code (when n = 4), the warm start ``warm`` if one
    is given (one 2 -> 2^n :class:`Isometry`, such as the previous grid
    point's winner), and seeded random isometries until there are
    ``opts.restarts`` restarts besides the warm start.  The fixed seeds
    always run, so ``restarts_used`` is max(opts.restarts, 2 if n = 4
    else 1), plus 1 with a warm start.  Within each restart, recovery and
    encoding are optimized in turn until a round at the floor tolerance
    (below) gains less than ``outer_tol`` (converged) or
    ``max_outer_rounds`` is reached.  The best restart wins; ties go to
    the lowest index.

    Every restart but the warm one is a cold restart: it reads nothing
    from another grid point.  ``cold`` is this point's entry of
    :func:`seesawqec.grid.cold_restarts` for the same ``noise_single``,
    ``n`` and ``opts``, whose cold restarts have already run to the end;
    the call then runs only the warm restart and picks the winner.
    Without ``cold``, the call runs its cold restarts through that
    function first, so both ways give the same bits.

    Each restart solves its first recovery half from one start.  Restart
    0 starts from the partial-trace recovery, which gives the no-coding
    value to rounding; every other restart from the transpose recovery
    of its code (:func:`_transpose_problem`), so the 4-qubit-code restart
    starts at the fixed-code curve's value.  No round lowers a restart's value,
    so the result dominates both curves by construction.  The returned
    recovery has no all-zero Kraus operator.

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

    The cold restarts' rounds run in lockstep passes over one or more
    grid points (:func:`seesawqec.grid.cold_restarts`), each split into
    s shards (:func:`seesawqec.workers.map_rows`): s is the number of
    CPUs in the process's affinity mask, at most the pass's number of
    restarts, and 1 where ``os.fork`` does not exist or the process runs
    another Python thread.  Restart i of a pass goes to shard i mod s;
    this process runs shard 0 and a forked worker each other one.  No
    worker outlives the pass, and a worker's exception raises
    :class:`seesawqec.workers.WorkerError`.  The warm restart runs its
    first recovery half and its rounds (:func:`_rounds`) alone in this
    process, padded to the Kraus count of the cold restarts' rounds or
    wider where it needs more.  A restart's state (encoder, recovery,
    last E', k, gain and best pair so far) is a row of stacked arrays,
    and only the traces are per-restart lists.  At a given padding width
    a member's arithmetic does not depend on its batch, so the result
    does not depend on how the restarts were batched or sharded.
    """
    if warm is not None and (not isinstance(warm, Isometry) or warm.v.shape != (2 ** n, 2)):
        shape = warm.v.shape if isinstance(warm, Isometry) else type(warm).__name__
        raise ValueError(f"warm start must be a 2 -> {2 ** n} isometry for n = {n}, "
                         f"got {shape}")
    # Imported here: seesawqec.grid imports this module.
    from .grid import _restart_rows
    rows = _restart_rows(noise_single, n, opts, warm, cold)
    best_enc, best_rec, best_f, converged, traces, iters = zip(*rows)

    win = _first_best(best_f)
    return SeesawResult(
        recovery=_nonzero(best_rec[win]), fidelity=best_f[win],
        restarts_used=len(rows), converged=converged[win],
        best_restart_seed=opts.seed + win,
        encoder=Isometry(best_enc[win][0]),
        inner_iterations_total=sum(iters), outer_rounds=len(traces[win]) // 2,
        restart_traces=list(traces))
