"""The seesaw's cold restarts over a whole damping grid, run together.

A seesaw point's restarts are the trivial embedding, the 4-qubit code
(n = 4), a warm start from the previous point's winner and seeded random
codes (:func:`seesawqec.optimizer.seesaw`).  Every restart but the warm
one is cold: it reads nothing from another grid point.
:func:`cold_restarts` runs the cold restarts of consecutive grid points
together: each point's first recovery halves in one multistart call,
then the rounds of several points' restarts in one lockstep pass, split
over one worker process per CPU (:func:`seesawqec.workers.map_rows`), so
a point no longer waits on its own slowest shard.  Each round builds
every operator per point and runs each half over the live restarts of
all of them at once.  At a given padding width a member's arithmetic
does not depend on its batch, and a pass never mixes widths, so a
point's restarts end exactly as in a pass of their own.  Each warm
restart then runs alone, in a one-restart pass, in its point's
:func:`seesaw` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .channels import Channel, tensor_power
from .codes import Isometry, leung_encoder, partial_trace_recovery, trivial_embedding
from .optimizer import (SolveOptions, _multistarts, _pad, _recovery_problem, _rounds,
                        _transpose_problem, random_isometry)
from .workers import map_rows

# Most restarts in one pass of cold_restarts; a pass takes whole grid
# points, at least one.  A pass holds the working arrays of all its live
# restarts, and its entries until the caller is done with them, so the
# bound sets peak memory; a larger pass waits less on its slowest restart.
# Measured on the seed-7 figure (8 cold restarts per point, 2 CPUs, one
# BLAS thread), seconds and peak RSS of the whole figure in one sitting:
# 8 (one point) 5.41-5.49 s, 38.8 MiB; 16 (two points) 4.77-5.29 s,
# 39.0-39.3 MiB; 24: 4.54-4.60 s, 39.8-40.0 MiB; 32: 4.18-4.37 s,
# 40.4 MiB; 160 (all 20 points below full damping): 3.13-3.40 s, 48.2 MiB;
# the per-point layout before this module: 4.90-4.99 s, 38.9-39.0 MiB.
# 16 is the largest bound that stays within 1 MiB of that layout.
COLD_PASS_ROWS = 16


@dataclass(eq=False)
class ColdRestarts:
    """The cold restarts of one seesaw point, run to the end by
    :func:`cold_restarts` under the single-qubit channel ``noise`` with
    ``n`` and ``opts``.  ``rows`` holds, in restart order, one (best
    encoder [1, 2^n, 2], best recovery [K, 2, 2^n], value, converged,
    trace, power steps) per restart; their rounds ran at ``width`` = K
    Kraus operators."""

    noise: Channel
    n: int
    opts: SolveOptions
    rows: List[tuple]
    width: int


def _check_problem(noise_single: Channel, opts: SolveOptions) -> None:
    """Raise ValueError unless ``noise_single`` is a single-qubit Channel and
    ``opts`` a SolveOptions."""
    if not isinstance(noise_single, Channel):
        raise ValueError(f"noise_single must be a Channel, got {type(noise_single).__name__}")
    if not isinstance(opts, SolveOptions):
        raise ValueError(f"opts must be a SolveOptions, got {type(opts).__name__}")
    if noise_single.d_in != 2 or noise_single.d_out != 2:
        raise ValueError("seesaw expects a single-qubit noise channel")


def _seed_isometries(n: int, opts: SolveOptions) -> List[Isometry]:
    """The encoders of the cold restarts, in restart order."""
    # Trivial embedding first: at the fully-damped endpoint every recovery
    # ties to machine precision and the lowest restart index wins, so the
    # exact-arithmetic no-coding restart must be index 0.
    fixed = [trivial_embedding(n)] + ([leung_encoder()] if n == 4 else [])
    return fixed + [random_isometry(2, 2 ** n, opts.seed + 1000 + j)
                    for j in range(opts.restarts - len(fixed))]


def _cold_starts(seeds: Sequence[Isometry], noise: Channel,
                 n: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """The first recovery halves of the cold restarts with encoders
    ``seeds`` under ``noise``, in one :func:`_multistarts` call: the
    trivial restart from the partial-trace recovery, every other one from
    its transpose recovery (see :func:`seesawqec.optimizer.seesaw`).

    Returns their recoveries [B, K, 2, 2^n], complex and zero-padded to the
    noise's Kraus count or the widest, their values [B] and their power
    steps.  The half results are not held past the call.
    """
    results = _multistarts(
        _recovery_problem(iso, noise, partial_trace_recovery(n).kraus) if idx == 0
        else _transpose_problem(iso, noise) for idx, iso in enumerate(seeds))
    # A round's recovery half runs at a complex encoder even where every
    # start is real.
    rec = _pad([res.channel.kraus for res in results], len(noise.kraus))
    return (rec.astype(complex, copy=False), np.array([res.fidelity for res in results]),
            [res.iterations for res in results])


def _lockstep(singles: Sequence[Channel], powers: Sequence[Channel], arrays: list,
              n: int, opts: SolveOptions) -> List[tuple]:
    """The rounds of restarts with encoders enc [B, 1, 2^n, 2], recoveries
    rec [B, K, 2, 2^n] (complex) and start values f0 [B], given as
    ``arrays`` = [enc, rec, f0], the first B / P of them under the first
    of the P single-qubit channels ``singles`` (n-fold tensor powers
    ``powers``), the next B / P under the second, and so on, in one pass
    split over worker processes.

    Returns one row per restart, as in :class:`ColdRestarts` but without
    the first recovery half's power steps.  ``arrays`` is emptied: each
    process keeps only its own shard's rows.
    """
    count = len(arrays[2])
    g = np.repeat(np.arange(len(singles)), count // len(singles))
    nks = [noise.kraus for noise in powers]
    a1 = [noise.kraus for noise in singles]

    def run(rows):
        # map_rows forks every worker before this process runs its own
        # shard, so here the other shards' rows can go.
        enc, rec, f0 = [a[rows].copy() for a in arrays]
        arrays.clear()
        return _rounds(enc, rec, f0, g[rows], nks, a1, n, opts)

    # Restart i goes to shard i mod s, so each shard holds restarts of
    # every point.
    return map_rows(run, count)


def cold_restarts(noises: Iterable[Channel], n: int, opts: SolveOptions) -> Iterator[ColdRestarts]:
    """The cold restarts of a seesaw point for each single-qubit channel of
    ``noises``, run to the end, one entry per channel, in order.

    Pass each entry to :func:`seesawqec.optimizer.seesaw` with the same
    channel object, ``n`` and ``opts`` (and the previous point's winner as
    its warm start) to run the warm restart and pick the winner.  The
    result is bit-identical to a :func:`seesaw` call without the entry,
    which runs its cold restarts through this function alone.

    The channels are checked here; the work runs as the entries are
    asked for.  Each channel's first recovery halves run in one
    multistart call.  Consecutive points whose recoveries have one Kraus
    count (16 at n = 4 below full damping, 24 at gamma = 1, where a random
    code's transpose start needs more) then share one lockstep pass of at
    most ``COLD_PASS_ROWS`` restarts, or one point's.  A pass runs when
    its first entry is asked for, so a caller that drops each entry once
    used holds one pass's entries at a time, whatever the grid's size.
    """
    noises = list(noises)
    for noise_single in noises:
        _check_problem(noise_single, opts)
    return _passes(noises, n, opts)


def _passes(noises: List[Channel], n: int, opts: SolveOptions) -> Iterator[ColdRestarts]:
    """The entries of :func:`cold_restarts` for checked ``noises``, one pass at a time."""
    seeds = _seed_isometries(n, opts)
    enc = np.stack([iso.kraus for iso in seeds])
    # Per point waiting for its pass: (channel, its tensor power, first
    # halves' recoveries, values and power steps).
    pending: list = []

    def run() -> List[ColdRestarts]:
        singles, powers, recs, f0s, steps = zip(*pending)
        pending.clear()
        width = recs[0].shape[1]
        arrays = [np.concatenate([enc] * len(singles)), np.concatenate(recs), np.concatenate(f0s)]
        del recs    # not held through the rounds
        rows = _lockstep(singles, powers, arrays, n, opts)
        out = []
        for j, single in enumerate(singles):
            mine = zip(rows[j * len(seeds):(j + 1) * len(seeds)], steps[j])
            # A restart's power steps count its first recovery half's.
            out.append(ColdRestarts(single, n, opts, [row[:5] + (row[5] + it,) for row, it in mine],
                                    width))
        return out

    for noise_single in noises:
        noise = tensor_power(noise_single, n)
        point = (noise_single, noise, *_cold_starts(seeds, noise, n))
        # point[2] holds the recoveries [B, K, 2, 2^n]; a pass has one K.
        if pending and (point[2].shape[1] != pending[0][2].shape[1]
                        or (len(pending) + 1) * len(seeds) > COLD_PASS_ROWS):
            yield from run()
        pending.append(point)
        del point   # held by pending alone, so that its pass can free its arrays
    if pending:
        yield from run()


def _warm_row(warm: Isometry, noise_single: Channel, n: int, opts: SolveOptions,
              width: int) -> tuple:
    """The row of the warm restart from encoder ``warm`` (as in
    :class:`ColdRestarts`), run alone: its first recovery half from the
    transpose start, then its rounds at the cold restarts' Kraus count
    ``width``, or wider where its recovery needs more operators."""
    noise = tensor_power(noise_single, n)
    (half,) = _multistarts([_transpose_problem(warm, noise)])
    rec = _pad([half.channel.kraus], width).astype(complex, copy=False)
    f0, steps = np.array([half.fidelity]), half.iterations
    del half    # not held through the rounds
    (row,) = _lockstep([noise_single], [noise], [warm.kraus[None], rec, f0], n, opts)
    return row[:5] + (row[5] + steps,)


def _restart_rows(noise_single: Channel, n: int, opts: SolveOptions,
                  warm: Optional[Isometry], cold: Optional[ColdRestarts]) -> List[tuple]:
    """Every restart's row (as in :class:`ColdRestarts`), in restart order, of
    the :func:`seesawqec.optimizer.seesaw` call with these arguments.

    ``cold`` must be the :func:`cold_restarts` entry of ``noise_single``,
    ``n`` and ``opts``; if it is None, that entry is computed here.  The
    warm restart runs last and its row goes right after the fixed seeds
    of :func:`_seed_isometries`.
    """
    if cold is None:
        cold = next(cold_restarts([noise_single], n, opts))
    elif not (isinstance(cold, ColdRestarts) and cold.noise is noise_single
              and cold.n == n and cold.opts == opts):
        raise ValueError("cold must be the cold_restarts entry of this noise_single, n and opts")
    rows = list(cold.rows)
    if warm is not None:
        rows.insert(2 if n == 4 else 1, _warm_row(warm, noise_single, n, opts, cold.width))
    return rows
