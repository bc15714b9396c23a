"""The stacked power-step kernel against a single-member loop of the same
rule, its speed-up over the plain power step, the lockstep seesaw against
a one-restart loop of its extrapolated round, the independence of the
lockstep multistart and seesaw from how their batches are composed, and
the stacked operator builds and starts that feed them."""

import os
import threading
import weakref

import numpy as np
import pytest

import seesawqec as q
from seesawqec import cli, grid, workers
from dense import fidelity_operator_encoding, real_channel
from seesawqec.channels import COMPLETENESS_TOL
from seesawqec.cli import SweepConfig, run_sweep
from seesawqec.codes import ISOMETRY_TOL
from seesawqec.grid import _seed_isometries
from seesawqec.linalg import inv_sqrt_psd
from seesawqec.optimizer import (INNER_TOL, MULTISTART_BATCH, SEESAW_KAPPA,
                                 _encoding_operators, _lowdin, _multistarts, _pad,
                                 _power_batch, _recovery_operators, _recovery_problem,
                                 _renormalize, _transpose_problem)


def reference_renormalize(ks, tol):
    """Right-multiply by S^(-1/2); None if completeness cannot be restored."""
    s = np.einsum("koi,koj->ij", ks.conj(), ks)
    scale = float(np.max(np.abs(s)))
    if scale == 0.0:
        return None
    out = ks @ inv_sqrt_psd(s, eps=1e-14 * scale)
    s_new = np.einsum("koi,koj->ij", out.conj(), out)
    if np.max(np.abs(s_new - np.eye(ks.shape[2]))) > tol:
        return None
    return out


def reference_fidelity(x, ks):
    w = ks.reshape(ks.shape[0], -1).conj().T
    return float(np.real(np.sum(w.conj() * (x @ w))))


def plain_reference_half(x, ks, tol=1e-9):
    """One half-problem at a time, plain power step: the loop the kernel replaced.

    Returns (best Kraus stack, best fidelity, iterations, converged).
    """
    f_prev = reference_fidelity(x, ks)
    best_ks, best_f = ks, f_prev
    converged = False
    iters = 0
    for _ in range(q.optimizer.MAX_INNER_ITERS):
        w = x @ ks.reshape(ks.shape[0], -1).conj().T
        cand = reference_renormalize(w.conj().T.reshape(ks.shape), tol)
        iters += 1
        if cand is None:
            break
        f_new = reference_fidelity(x, cand)
        if f_new < f_prev - INNER_TOL:
            break
        ks = cand
        if f_new > best_f:
            best_ks, best_f = cand, f_new
        if abs(f_new - f_prev) < INNER_TOL:
            converged = True
            break
        f_prev = f_new
    return best_ks, best_f, iters, converged


def reference_step(x, ks, tol):
    """Power step from ks and renormalization: (candidate or None, its fidelity)."""
    w = x @ ks.reshape(ks.shape[0], -1).conj().T
    cand = reference_renormalize(w.conj().T.reshape(ks.shape), tol)
    return cand, (None if cand is None else reference_fidelity(x, cand))


def reference_half(x, ks, tol=1e-9, fallbacks=None, stop_tol=INNER_TOL):
    """One half-problem at a time with the kernel's rule: the power step from
    Y = K_t + k/(k+3) (K_t - K_{t-1}), kept if complete and not lower,
    else the plain step from K_t with k reset to 0.  It stops when an
    accepted step changes the fidelity by less than ``stop_tol``, or
    after ``MAX_INNER_ITERS`` steps (read at call time, so a test can
    lower it).

    Returns (best Kraus stack, best fidelity, iterations, converged); the
    steps that fell back are appended to ``fallbacks`` if given.
    """
    f_prev = reference_fidelity(x, ks)
    best_ks, best_f = ks, f_prev
    ks_prev = ks
    converged = False
    iters = 0
    k = 0
    for _ in range(q.optimizer.MAX_INNER_ITERS):
        iters += 1
        cand, f_new = reference_step(x, ks + k / (k + 3) * (ks - ks_prev), tol)
        if k > 0 and (cand is None or f_new < f_prev):
            if fallbacks is not None:
                fallbacks.append(iters)
            cand, f_new = reference_step(x, ks, tol)
            k = 0
        if cand is None or f_new < f_prev - INNER_TOL:
            break
        ks_prev, ks, k = ks, cand, k + 1
        if f_new > best_f:
            best_ks, best_f = cand, f_new
        if abs(f_new - f_prev) < stop_tol:
            converged = True
            break
        f_prev = f_new
    return best_ks, best_f, iters, converged


def floor(b=1):
    """The stop tolerance ``INNER_TOL`` for each of b members."""
    return np.full(b, INNER_TOL)


def one_member(x, ks, tol):
    """The kernel on a batch of one: (best Kraus stack, fidelity, iterations, converged)."""
    best, f, iters, conv = _power_batch(x[None], ks[None], tol, floor())
    return best[0], float(f[0]), int(iters[0]), bool(conv[0])


def restart_problem(idx, iso, noise, n):
    """The first recovery problem (X, start) of seesaw restart ``idx``: the
    partial-trace start for the trivial restart 0, the transpose start for
    any other."""
    if idx == 0:
        return _recovery_problem(iso, noise, q.partial_trace_recovery(n).kraus)
    return _transpose_problem(iso, noise)


def one_problem(problem):
    """The result of one recovery problem, passed alone."""
    return _multistarts([problem])[0]


def real_starts(d_in, count, seed):
    """``count`` random real recovery starts d_in -> 2 of Kraus rank 16, stacked."""
    rng = np.random.default_rng(seed)
    return [real_channel(d_in, 2, 16, rng).kraus for _ in range(count)]


def identity_objective(d):
    v = np.eye(d, dtype=complex).ravel().conj()
    x = np.outer(v.conj(), v) / d ** 2
    return (x + x.conj().T) / 2


def assert_complete(ks, tol=1e-9):
    s = sum(k.conj().T @ k for k in ks)
    np.testing.assert_allclose(s, np.eye(ks.shape[2]), atol=tol)


class TestKernelAgainstReference:
    """One mixed batch of single-qubit recovery problems (free shape 2x2)."""

    CAP = 6

    @pytest.fixture(scope="class")
    def batch(self):
        # At gamma=0.9 this start needs 13 steps, falling back on step 5.
        damping = q.fidelity_operator_recovery(q.identity_channel(2),
                                               q.amplitude_damping(0.9))
        ident = identity_objective(2)
        # "normal" goes last, so it stops at a batch position other than its index.
        members = [
            ("zero", ident, np.zeros((2, 2, 2), dtype=complex)),
            ("fixed_point", ident, np.stack(q.identity_channel(2).kraus)),
            ("capped", damping, np.stack(q.random_cptp(2, 2, 2,
                                                       np.random.default_rng(1)).kraus)),
            ("normal", ident, np.stack(q.random_isometry(2, 2, 77).kraus)),
        ]
        ks = _pad([m[2] for m in members])
        counts = [len(m[2]) for m in members]
        fallbacks = {name: [] for name, _, _ in members}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(q.optimizer, "MAX_INNER_ITERS", self.CAP)
            out = _power_batch(np.stack([m[1] for m in members]), ks, 1e-9,
                               floor(len(members)))
            refs = [reference_half(x, k, fallbacks=fallbacks[name])
                    for name, x, k in members]
        return members, counts, out, refs, fallbacks

    def test_fidelity_and_stop_match_reference(self, batch):
        members, _, (_, f, iters, conv), refs, _ = batch
        for b, (name, _, _) in enumerate(members):
            _, f_ref, it_ref, conv_ref = refs[b]
            assert abs(f[b] - f_ref) < 1e-10, name
            assert (iters[b], conv[b]) == (it_ref, conv_ref), name

    def test_each_member_stops_as_designed(self, batch):
        members, _, (_, _, iters, conv), _, fallbacks = batch
        stops = {name: (int(iters[b]), bool(conv[b]))
                 for b, (name, _, _) in enumerate(members)}
        assert stops["zero"] == (1, False)          # renormalization fails
        assert stops["fixed_point"] == (1, True)
        assert stops["capped"] == (self.CAP, False)
        assert stops["normal"][1] and stops["normal"][0] < self.CAP
        # The capped member rejects an extrapolated step and redoes the plain one.
        assert fallbacks["capped"] and fallbacks["capped"][-1] < self.CAP

    def test_outputs_are_cptp_and_padding_stays_zero(self, batch):
        members, counts, (best, f, _, _), _, _ = batch
        for b, (name, _, _) in enumerate(members):
            assert not best[b, counts[b]:].any(), name
            if name == "zero":
                assert f[b] == 0.0 and not best[b].any()
            else:
                assert_complete(best[b, :counts[b]])


class TestAcceleration:
    """The extrapolated step against the plain power step on the fixed code,
    from random real starts."""

    @pytest.mark.parametrize("gamma", [0.3, 0.5])
    def test_fewer_steps_to_at_least_the_plain_optimum(self, gamma):
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        x = q.fidelity_operator_recovery(q.leung_encoder(), noise).real
        starts = real_starts(16, 2, 8)
        res = _multistarts([(x, ks) for ks in starts])
        plain = [plain_reference_half(x, ks) for ks in starts]
        assert max(r.fidelity for r in res) >= max(p[1] for p in plain) - 1e-12
        assert 5 * sum(r.iterations for r in res) <= sum(p[2] for p in plain)


class TestStopTolerance:
    """Per-member stop tolerances in one batch against one member at a time."""

    TOLS = [1e-4, 1e-10, 1e-6, 1e-8]

    @pytest.fixture(scope="class")
    def members(self):
        problems = []
        for gamma in (0.2, 0.5):
            noise = q.tensor_power(q.amplitude_damping(gamma), 4)
            xg = q.fidelity_operator_recovery(q.leung_encoder(), noise).real
            problems += [(xg, ks) for ks in real_starts(16, 2, 8)]
        xs, starts = zip(*problems)
        return np.stack(xs), _pad(starts), problems

    def test_mixed_batch_equals_one_member_calls(self, members):
        x, ks, _ = members
        tols = np.array(self.TOLS)
        best, f, iters, conv = _power_batch(x, ks, 1e-9, tols)
        for b, tol in enumerate(tols):
            best1, f1, it1, conv1 = _power_batch(x[b:b + 1], ks[b:b + 1], 1e-9,
                                                 tols[b:b + 1])
            assert f[b] == f1[0] and (iters[b], conv[b]) == (it1[0], conv1[0]), tol
            np.testing.assert_array_equal(best[b], best1[0])
            ref = reference_half(x[b], ks[b], stop_tol=tol)
            assert abs(f[b] - ref[1]) < 1e-10 and (iters[b], conv[b]) == ref[2:], tol

    def test_looser_tolerance_stops_sooner_and_the_default_is_inner_tol(self, members):
        # The multistart, the kernel's one caller without tolerances of
        # its own, stops every member at INNER_TOL.
        x, ks, problems = members
        _, f, iters, _ = _power_batch(x, ks, 1e-9, np.array(self.TOLS))
        at_floor = _power_batch(x, ks, 1e-9, floor(len(x)))
        for p, res in enumerate(_multistarts(problems)):
            assert (res.fidelity, res.iterations) == (at_floor[1][p], at_floor[2][p])
        assert iters[0] < at_floor[2][0] and iters[2] < at_floor[2][2]
        assert iters[1] == at_floor[2][1] and f[1] == at_floor[1][1]


def conditioned_stack(cond, seed=0):
    """16 Kraus operators 2x2, stacked [32, 2], with singular values 1 and 1/cond."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    return (u * np.array([1.0, 1.0 / cond])) @ vh


class TestRenormalizeRedo:
    """S = c^dag c squares the condition number of c, so one Lowdin step on a
    nearly rank-deficient stack misses completeness by rounding alone; the
    kernel redoes such a step once before it rejects it."""

    def test_ill_conditioned_stack_is_restored_by_the_redo(self):
        c = conditioned_stack(1e5)[None]
        _, _, dev = _lowdin(c)
        assert dev[0] > 1e-9                 # the first step alone fails
        out, ok = _renormalize(c, 1e-9)
        assert ok[0]
        assert_complete(out[0].reshape(16, 2, 2), tol=1e-12)

    @pytest.mark.parametrize("cond", [1e9, np.inf])
    def test_rank_deficient_stack_is_still_rejected(self, cond):
        _, ok = _renormalize(conditioned_stack(cond)[None], 1e-9)
        assert not ok[0]

    def test_kernel_steps_where_the_single_step_loop_stalled(self):
        # With X = I the power step returns the start, so step 1 is the
        # renormalization of the start itself.
        ks = conditioned_stack(1e5).reshape(16, 2, 2)
        x = np.eye(4, dtype=complex)
        assert reference_half(x, ks)[1:] == (reference_fidelity(x, ks), 1, False)
        best, f, iters, conv = _power_batch(x[None], ks[None], 1e-9, floor())
        assert abs(f[0] - 2.0) < 1e-12 and conv[0] and iters[0] == 2
        assert_complete(best[0])


def reference_polar(y):
    """Polar factor y (y^dag y)^(-1/2), or None if it is not an isometry."""
    p = y @ inv_sqrt_psd(y.conj().T @ y, 1e-12)
    if np.max(np.abs(p.conj().T @ p - np.eye(y.shape[1]))) > ISOMETRY_TOL:
        return None
    return p


def reference_restart(noise, iso, rec, f0, opts, fallbacks):
    """One seesaw restart at a time with the extrapolated round and inexact halves.

    Each round solves the encoder half (E', f_e), then the recovery half
    at E_y = polar(E' + k/(k+3) (E' - E'_prev)) (E' itself when k = 0 or
    the polar step fails); if that ends below f_e, the recovery half is
    redone at E' and k is reset to 0.  Every half of a round stops at
    max(INNER_TOL, SEESAW_KAPPA * g), with g the restart's gain over its
    previous round (0 in the first round), and a round that gains less
    than ``outer_tol`` ends the restart as converged only if it ran at
    INNER_TOL.  The halves are :func:`reference_half` on the unpadded
    stacks.  Returns (trace, converged); the rounds that fell back are
    appended to ``fallbacks``.
    """
    trace = [f0]
    enc, e_prev, k, gain = iso.v, None, 0, 0.0
    rec = np.stack(rec.kraus)
    while True:
        tol = max(INNER_TOL, SEESAW_KAPPA * gain)
        y = fidelity_operator_encoding(q.Channel(list(rec)), noise)
        e_ks, f_e, _, _ = reference_half(y, enc[None], ISOMETRY_TOL, stop_tol=tol)
        e = e_y = e_ks[0]
        if k > 0:
            p = reference_polar(e + k / (k + 3) * (e - e_prev))
            if p is not None:
                e_y = p
        x = q.fidelity_operator_recovery(q.Channel([e_y]), noise)
        rec_new, f_r, _, _ = reference_half(x, rec, stop_tol=tol)
        if e_y is not e and f_r < f_e:
            fallbacks.append(len(trace) // 2 + 1)
            x = q.fidelity_operator_recovery(q.Channel([e]), noise)
            rec_new, f_r, _, _ = reference_half(x, rec, stop_tol=tol)
            e_y, k = e, 0
        else:
            k += 1
        trace.append(max(f_e, trace[-1]))
        trace.append(max(f_r, trace[-1]))
        enc, e_prev, rec = e_y, e, rec_new
        gain = trace[-1] - trace[-3]
        if gain < opts.outer_tol and tol == INNER_TOL:
            return trace, True
        if len(trace) // 2 == opts.max_outer_rounds:
            return trace, False


def exact_reference_restart(noise, iso, rec, f0, opts):
    """:func:`reference_restart` with every half solved to ``INNER_TOL``.

    The halves are the kernel on one member, and a round that gains less
    than ``outer_tol`` ends the restart.  Returns (trace, converged, inner
    iterations).
    """
    trace = [f0]
    enc, e_prev, k, iters = iso.v, None, 0, 0
    rec = np.stack(rec.kraus)
    while True:
        y = fidelity_operator_encoding(q.Channel(list(rec)), noise)
        e_ks, f_e, it, _ = one_member(y, enc[None], ISOMETRY_TOL)
        iters += it
        e = e_y = e_ks[0]
        if k > 0:
            p = reference_polar(e + k / (k + 3) * (e - e_prev))
            if p is not None:
                e_y = p
        x = q.fidelity_operator_recovery(q.Channel([e_y]), noise)
        rec_new, f_r, it, _ = one_member(x, rec, COMPLETENESS_TOL)
        iters += it
        if e_y is not e and f_r < f_e:
            x = q.fidelity_operator_recovery(q.Channel([e]), noise)
            rec_new, f_r, it, _ = one_member(x, rec, COMPLETENESS_TOL)
            iters += it
            e_y, k = e, 0
        else:
            k += 1
        trace.append(max(f_e, trace[-1]))
        trace.append(max(f_r, trace[-1]))
        enc, e_prev, rec = e_y, e, rec_new
        if trace[-1] - trace[-3] < opts.outer_tol:
            return trace, True, iters
        if len(trace) // 2 == opts.max_outer_rounds:
            return trace, False, iters


def seesaw_starts(noise, n, opts):
    """(seed isometry, first recovery half) of each restart of seesaw(n)."""
    return [(iso, one_problem(restart_problem(idx, iso, noise, n)))
            for idx, iso in enumerate(_seed_isometries(n, opts))]


class TestExtrapolatedSeesaw:
    """The lockstep seesaw against one restart at a time of its round rule."""

    # n = 4 with 2 restarts runs the trivial and 4-qubit-code restarts
    # alone, so every start is real.
    @pytest.mark.parametrize("n, restarts, gamma, rounds", [
        pytest.param(3, 4, 0.3, 200, id="0.3-200"), pytest.param(3, 4, 0.2, 40, id="0.2-40"),
        pytest.param(4, 2, 0.3, 40, id="n4-real-0.3-40")])
    def test_restarts_match_the_one_restart_reference(self, n, restarts, gamma, rounds):
        opts = q.SolveOptions(seed=7, restarts=restarts, max_outer_rounds=rounds)
        res = q.seesaw(q.amplitude_damping(gamma), n, opts)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        fallbacks = []
        refs = [reference_restart(noise, iso, start.channel, start.fidelity, opts, fallbacks)
                for iso, start in seesaw_starts(noise, n, opts)]
        assert len(res.restart_traces) == len(refs)
        for got, (trace, _) in zip(res.restart_traces, refs):
            assert len(got) == len(trace)
            assert max(abs(a - b) for a, b in zip(got, trace)) < 1e-10
        win = res.best_restart_seed - opts.seed
        assert (res.outer_rounds, res.converged) == (len(refs[win][0]) // 2, refs[win][1])
        assert fallbacks
        # The returned pair is the one whose fidelity was recorded.
        f = q.channel_fidelity(q.compose(q.compose(res.encoder, noise), res.recovery))
        assert abs(f - res.fidelity) < 1e-9

    @pytest.mark.parametrize("gamma", [0.2, 0.3])
    def test_inexact_halves_reach_the_exact_value_in_half_the_steps(self, gamma):
        n = 3
        opts = q.SolveOptions(seed=7, restarts=4)
        res = q.seesaw(q.amplitude_damping(gamma), n, opts)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        exact = [(start.iterations,
                  exact_reference_restart(noise, iso, start.channel, start.fidelity, opts))
                 for iso, start in seesaw_starts(noise, n, opts)]
        assert res.fidelity >= max(ref[0][-1] for _, ref in exact) - 1e-8
        assert 2 * res.inner_iterations_total <= sum(it + ref[2] for it, ref in exact)

    @pytest.mark.parametrize("gamma", [0.2, 0.55])
    def test_no_restart_stops_after_a_loose_round(self, gamma):
        # Each restart that stops before the cap stops on a round that
        # gained less than outer_tol and ran at the floor INNER_TOL, that
        # is, after a round that gained at most INNER_TOL / SEESAW_KAPPA.
        opts = q.SolveOptions(seed=7)
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        stopped = [t for t in res.restart_traces
                   if len(t) // 2 < opts.max_outer_rounds]
        assert len(stopped) > 1
        for trace in stopped:
            gains = [0.0] + [b - a for a, b in zip(trace[:-2:2], trace[2::2])]
            assert gains[-1] < opts.outer_tol
            assert SEESAW_KAPPA * gains[-2] <= INNER_TOL

    def test_cold_start_converges_above_the_plain_capped_value(self):
        # The plain alternation stopped every non-trivial restart at the
        # 200-round cap here, at 0.9893459142428619.
        opts = q.SolveOptions(seed=7, restarts=3)
        res = q.seesaw(q.amplitude_damping(0.1), 4, opts)
        assert res.converged and res.outer_rounds < opts.max_outer_rounds
        assert res.fidelity >= 0.9893459142428619


class TestLockstepSeesaw:
    def test_restarts_do_not_depend_on_batch_size(self):
        noise = q.amplitude_damping(0.3)
        small = q.seesaw(noise, 4, q.SolveOptions(seed=7, restarts=3))
        opts = q.SolveOptions(seed=7, restarts=8)
        big = q.seesaw(noise, 4, opts)
        assert small.restart_traces == big.restart_traces[:3]
        # The 4-qubit-code restart (index 1) starts at its problem's one-problem result.
        alone = one_problem(restart_problem(1, q.leung_encoder(), q.tensor_power(noise, 4), 4))
        assert big.restart_traces[1][0] == alone.fidelity

    @pytest.mark.parametrize("n, gamma", [(2, 0.3), (5, 0.4), (4, 1.0)])
    def test_padded_starts_return_unpadded_cptp_channels(self, n, gamma):
        # Starts are padded to the noise's 2^n operators: the partial trace
        # has 2^(n-1), a transpose start at most 2^n below full damping.  At
        # gamma = 1 a random code's transpose start needs 16 + 8 operators.
        opts = q.SolveOptions(seed=7, restarts=3, max_outer_rounds=2)
        res = q.seesaw(q.amplitude_damping(gamma), n, opts)
        for c in (res.encoder, res.recovery):
            assert_complete(np.stack(c.kraus))
            assert all(np.any(k) for k in c.kraus)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        f = q.channel_fidelity(q.compose(q.compose(res.encoder, noise), res.recovery))
        assert abs(f - res.fidelity) < 1e-9

    def test_initial_multistart_results_are_released_before_the_rounds(self, monkeypatch):
        refs, alive = [], []

        def multistarts(problems, _original=q.optimizer._multistarts):
            out = _original(problems)
            refs.extend(weakref.ref(res) for res in out)
            return out

        def kernel(*args, _original=q.optimizer._power_batch):
            if refs:    # a round's kernel call, after the initial multistart
                alive.append(sum(ref() is not None for ref in refs))
            return _original(*args)

        # The cold restarts' first halves run in seesawqec.grid.
        monkeypatch.setattr(q.grid, "_multistarts", multistarts)
        monkeypatch.setattr(q.optimizer, "_power_batch", kernel)
        # One shard, so that every round runs in this process.
        monkeypatch.setattr(workers, "cpu_count", lambda: 1)
        opts = q.SolveOptions(seed=7, restarts=3, max_outer_rounds=3)
        q.seesaw(q.amplitude_damping(0.3), 3, opts)
        # Each round's encoder half and recovery half; no fallback here.
        assert len(refs) == 3 and alive == [0] * 6


def pin_workers(monkeypatch, k):
    """Make the seesaw see k CPUs, and return the pids of the workers it forks."""
    pids = []

    def fork(_original=os.fork):
        pid = _original()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(workers, "cpu_count", lambda: k)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def assert_same_result(res, ref):
    """Every field of two SeesawResults is equal, bit for bit."""
    assert res.restart_traces == ref.restart_traces
    for name in ("fidelity", "best_restart_seed", "converged", "outer_rounds",
                 "inner_iterations_total", "restarts_used"):
        assert getattr(res, name) == getattr(ref, name), name
    np.testing.assert_array_equal(res.encoder.v, ref.encoder.v)
    np.testing.assert_array_equal(res.recovery.kraus, ref.recovery.kraus)


class TestShardedRounds:
    """The seesaw's rounds split over forked workers, restart i in shard i mod k."""

    @pytest.mark.parametrize("n, gamma, restarts, warm", [
        (4, 0.3, 4, True), (2, 0.3, 3, False),
        # A random code's transpose start pads every row to 16 + 8 operators.
        (4, 1.0, 3, False)], ids=["n4-0.3-warm", "n2-0.3", "n4-1.0"])
    def test_any_shard_count_gives_the_same_result(self, monkeypatch, n, gamma, restarts, warm):
        opts = q.SolveOptions(seed=7, restarts=restarts, max_outer_rounds=40)
        start = None
        if warm:
            start = q.seesaw(q.amplitude_damping(0.25), n, opts).encoder
        results = []
        for k in (1, 2, 3):
            pids = pin_workers(monkeypatch, k)
            results.append(q.seesaw(q.amplitude_damping(gamma), n, opts, start))
            # Three shards of four or five restarts are uneven.
            assert len(pids) == k - 1
            assert_reaped(pids)
        for res in results[1:]:
            assert_same_result(res, results[0])

    def test_a_failure_inside_a_worker_is_named_and_every_worker_is_reaped(self, monkeypatch):
        pids = pin_workers(monkeypatch, 3)
        parent = os.getpid()

        def kernel(*args, _original=q.optimizer._power_batch):
            if os.getpid() != parent:
                raise FloatingPointError("injected in a worker")
            return _original(*args)

        monkeypatch.setattr(q.optimizer, "_power_batch", kernel)
        opts = q.SolveOptions(seed=7, restarts=3, max_outer_rounds=3)
        with pytest.raises(q.WorkerError, match="FloatingPointError: injected in a worker"):
            q.seesaw(q.amplitude_damping(0.3), 3, opts)
        assert len(pids) == 2
        assert_reaped(pids)

    def test_workers_are_killed_when_the_caller_is_interrupted(self, monkeypatch):
        pids = pin_workers(monkeypatch, 2)
        parent = os.getpid()

        def kernel(*args, _original=q.optimizer._power_batch):
            if os.getpid() == parent and pids:     # the caller's shard, after the fork
                raise KeyboardInterrupt
            return _original(*args)

        monkeypatch.setattr(q.optimizer, "_power_batch", kernel)
        with pytest.raises(KeyboardInterrupt):
            q.seesaw(q.amplitude_damping(0.3), 3, q.SolveOptions(seed=7, restarts=3))
        assert len(pids) == 1
        assert_reaped(pids)

    def test_one_cpu_runs_without_a_worker(self, monkeypatch):
        pids = pin_workers(monkeypatch, 1)
        opts = q.SolveOptions(seed=7, restarts=3, max_outer_rounds=3)
        q.seesaw(q.amplitude_damping(0.3), 3, opts)
        assert pids == []

    def test_a_second_python_thread_runs_without_a_worker(self, monkeypatch):
        pids = pin_workers(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            q.seesaw(q.amplitude_damping(0.3), 3,
                     q.SolveOptions(seed=7, restarts=3, max_outer_rounds=3))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and pids == []

    def test_no_fork_runs_without_a_worker(self, monkeypatch):
        monkeypatch.setattr(workers, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        res = q.seesaw(q.amplitude_damping(0.3), 3,
                       q.SolveOptions(seed=7, restarts=3, max_outer_rounds=3))
        assert res.restarts_used == 3

    def test_cpu_count_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert workers.cpu_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert workers.cpu_count() == 5


class TestColdRestarts:
    """The cold restarts of consecutive grid points in one lockstep pass."""

    def test_sweep_equals_a_chain_of_one_point_calls(self, monkeypatch):
        # Three cold restarts per point, so COLD_PASS_ROWS // 3 points share
        # a pass below full damping; gamma = 1 runs in a pass of its own,
        # since a random code's transpose start there needs 16 + 8 operators.
        opts = q.SolveOptions(seed=7, restarts=3, max_outer_rounds=12)
        config = SweepConfig(gamma_min=0.0, gamma_max=1.0, steps=21, copies=4,
                             modes=("seesaw",), options=opts)
        gammas = [float(g) for g in np.linspace(0.0, 1.0, 21)]
        pin_workers(monkeypatch, 1)
        chain, warm = [], None
        for g in gammas:
            chain.append(q.seesaw(q.amplitude_damping(g), 4, opts, warm))
            warm = chain[-1].encoder
        passes = -(-20 // (grid.COLD_PASS_ROWS // 3)) + 1
        original = cli.seesaw
        for k in (1, 2, 3):
            pids = pin_workers(monkeypatch, k)
            results, widths = [], []

            def keep(*args, **kwargs):
                widths.append(args[4].width)
                results.append(original(*args, **kwargs))
                return results[-1]

            monkeypatch.setattr(cli, "seesaw", keep)
            records = run_sweep(config)
            # Each pass forks k - 1 workers; a warm restart runs alone, unforked.
            assert len(pids) == passes * (k - 1)
            assert_reaped(pids)
            assert widths == [16] * 20 + [24]
            assert [r.gamma for r in records] == gammas
            for r, res, ref in zip(records, results, chain):
                assert_same_result(res, ref)
                assert (r.fidelity, r.inner_iterations_total, r.outer_rounds, r.restarts_used,
                        r.converged) == (ref.fidelity, ref.inner_iterations_total,
                                         ref.outer_rounds, ref.restarts_used, ref.converged)
        assert chain[0].fidelity == 1.0 and chain[-1].fidelity == 0.25


class TestBatchedMultistart:
    """Several recovery multistarts in one call against one call each."""

    @pytest.fixture(scope="class")
    def problems(self):
        leung = q.leung_encoder()

        def noise(gamma):
            return q.tensor_power(q.amplitude_damping(gamma), 4)

        # At gamma=1 the renormalization fails on step 1.
        gammas = [0.05, 0.3, 1.0] + [0.1 * k for k in range(1, MULTISTART_BATCH)]
        problems = [(1, leung, noise(g)) for g in gammas]
        # The seesaw's trivial restart: another encoder and the partial-trace start.
        problems.insert(3, (0, q.trivial_embedding(4), noise(0.3)))
        # A complex problem between real ones ends their batch.
        problems.insert(5, (1, q.random_isometry(2, 16, 5), noise(0.3)))
        assert len(problems) > MULTISTART_BATCH
        return [restart_problem(idx, enc, noise, 4) for idx, enc, noise in problems]

    def test_each_result_equals_its_one_problem_call(self, problems):
        batched = _multistarts(iter(problems))
        assert len(batched) == len(problems)
        for problem, res in zip(problems, batched):
            alone = one_problem(problem)
            assert res.fidelity == alone.fidelity
            assert (res.iterations, res.converged) == (alone.iterations, alone.converged)
            assert len(res.channel.kraus) == len(alone.channel.kraus)
            for a, b in zip(res.channel.kraus, alone.channel.kraus):
                np.testing.assert_array_equal(a, b)

    def test_fixed_code_sweep_equals_a_loop_of_one_problem_calls(self):
        opts = q.SolveOptions(seed=7)
        config = SweepConfig(gamma_min=0.0, gamma_max=1.0, steps=MULTISTART_BATCH + 2,
                             modes=("leung_optrec",), options=opts)
        records = run_sweep(config)
        assert len(records) == config.steps
        for r in records:
            if r.gamma == 0.0:
                expect = (1.0, 0, 0, 1, True)
            else:
                res = q.optimize_recovery_multistarts(
                    q.leung_encoder(), [q.tensor_power(q.amplitude_damping(r.gamma), 4)])[0]
                expect = (res.fidelity, res.iterations, 1, 1, res.converged)
            assert (r.fidelity, r.inner_iterations_total, r.outer_rounds,
                    r.restarts_used, r.converged) == expect, r.gamma


def reference_recovery_operator(e, n):
    """Recovery-half X of one encoder stack e [I, c, d] by the dense product of
    one member: the build that the stacked one replaced."""
    (ni, c, d), (nj, m, _) = e.shape, n.shape
    prods = n.reshape(nj * m, c) @ e.transpose(1, 0, 2).reshape(c, ni * d)
    u = prods.reshape(nj, m, ni, d).transpose(0, 2, 3, 1).reshape(nj * ni, d * m)
    x = (u.T @ u.conj()) / (d * d)
    return (x + x.conj().T) / 2


class TestStackedBuilds:
    """The seesaw's stacked operator builds against one-member dense builds."""

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("single", [q.amplitude_damping(0.3),
                                        q.random_cptp(2, 2, 3, np.random.default_rng(5))],
                             ids=["damping", "rank3"])
    def test_encoding_operators_match_the_dense_build(self, n, single):
        noise = q.tensor_power(single, n)
        m = 2 ** n
        recs = [q.random_cptp(m, 2, rank, np.random.default_rng(10 * n + rank))
                for rank in (max(1, m // 2), m // 2 + 1, m)]
        # Zero-padded past the widest recovery.
        r = _pad([np.stack(c.kraus) for c in recs], m + 2)
        x = _encoding_operators(r, np.stack(single.kraus), n)
        for b, c in enumerate(recs):
            ref = fidelity_operator_encoding(c, noise)
            assert np.abs(x[b] - ref).max() <= 1e-14 * np.abs(ref).max(), b

    @pytest.mark.parametrize("rank", [1, 3])
    def test_recovery_operators_do_not_depend_on_the_batch(self, rank):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        nks = np.stack(noise.kraus)
        encs = np.stack([np.stack(q.random_cptp(2, 16, rank, np.random.default_rng(s)).kraus)
                         for s in range(6)])
        whole = _recovery_operators(encs, nks)
        for b in range(len(encs)):
            alone = _recovery_operators(encs[b:b + 1], nks)[0]
            np.testing.assert_array_equal(alone, reference_recovery_operator(encs[b], nks))
            np.testing.assert_array_equal(whole[b], alone)
            np.testing.assert_array_equal(_recovery_operators(encs[[3, b]], nks)[1], alone)
            public = q.fidelity_operator_recovery(q.Channel(list(encs[b])), noise)
            np.testing.assert_array_equal(public, alone)


def count_start_builds(monkeypatch):
    """Count the calls of the transpose start and of random draws, by name, in
    the optimizer and in seesawqec.grid (the seesaw's cold restarts)."""
    calls = {"random_cptp": 0, "_transpose_problem": 0}
    for module, name in [(q.optimizer, "random_cptp"), (q.optimizer, "_transpose_problem"),
                         (q.grid, "_transpose_problem")]:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedStarts:
    """What one recovery multistart call builds: one deterministic start per
    noise channel, and no seeded ones."""

    def test_fixed_code_curve_builds_its_starts_once(self, monkeypatch):
        calls = count_start_builds(monkeypatch)
        config = SweepConfig(gamma_min=0.0, gamma_max=1.0, steps=MULTISTART_BATCH + 2,
                             modes=("leung_optrec",), options=q.SolveOptions(seed=7))
        assert len(run_sweep(config)) == config.steps
        # One transpose start per gamma > 0, and no random start.
        assert calls == {"random_cptp": 0, "_transpose_problem": config.steps - 1}

    def test_each_call_builds_its_own_starts(self, monkeypatch):
        calls = count_start_builds(monkeypatch)
        leung = q.leung_encoder()
        noises = [q.tensor_power(q.amplitude_damping(g), 4) for g in (0.3, 0.5)]
        first = q.optimize_recovery_multistarts(leung, noises)
        again = q.optimize_recovery_multistarts(leung, noises)
        assert calls == {"random_cptp": 0, "_transpose_problem": 4}
        assert [(r.fidelity, r.iterations) for r in first] == \
            [(r.fidelity, r.iterations) for r in again]
        alone = q.optimize_recovery_multistarts(leung, noises[1:])[0]
        assert (alone.fidelity, alone.iterations) == (first[1].fidelity, first[1].iterations)

    @pytest.mark.parametrize("restarts", [2, 4])
    def test_seesaw_builds_one_transpose_start_per_nontrivial_restart(self, monkeypatch,
                                                                      restarts):
        # The only random draws are the seeded isometries past the two fixed seeds.
        calls = count_start_builds(monkeypatch)
        opts = q.SolveOptions(seed=7, restarts=restarts, max_outer_rounds=1)
        res = q.seesaw(q.amplitude_damping(0.3), 4, opts)
        assert calls == {"random_cptp": restarts - 2,
                         "_transpose_problem": res.restarts_used - 1}

    def test_each_noise_channel_runs_from_its_own_start(self):
        # A complex noise channel after a real one runs in complex128 from
        # its own start; the real one stays in float64.
        enc = q.trivial_embedding(2)
        real = q.tensor_power(q.amplitude_damping(0.3), 2)
        cplx = q.random_cptp(4, 4, 2, np.random.default_rng(3))
        out = q.optimize_recovery_multistarts(enc, iter([real, cplx]))
        assert out[0].channel.kraus.dtype == np.float64
        assert out[1].channel.kraus.dtype == np.complex128
        for noise, res in zip((real, cplx), out):
            x, start = _transpose_problem(enc, noise)
            ref = _multistarts([(x, start)])[0]
            assert (res.fidelity, res.iterations) == (ref.fidelity, ref.iterations)

    def test_no_noise_channel_is_held_while_its_batch_runs(self, monkeypatch):
        refs, alive = [], []

        def noise(g):
            channel = q.tensor_power(q.amplitude_damping(g), 2)
            refs.append(weakref.ref(channel))
            return channel

        def kernel(*args, _original=q.optimizer._power_batch):
            alive.append(sum(ref() is not None for ref in refs))
            return _original(*args)

        monkeypatch.setattr(q.optimizer, "_power_batch", kernel)
        gammas = np.linspace(0.05, 0.6, MULTISTART_BATCH + 2)
        q.optimize_recovery_multistarts(q.trivial_embedding(2), map(noise, gammas))
        # One full batch, then the last two channels.
        assert len(refs) == len(gammas) and alive == [0, 0]

    def test_rejects_noise_channels_of_another_output_dim(self):
        noises = [q.tensor_power(q.amplitude_damping(0.3), 2),
                  q.random_cptp(4, 2, 2, np.random.default_rng(3))]
        with pytest.raises(ValueError, match="differs from the first"):
            q.optimize_recovery_multistarts(q.trivial_embedding(2), noises)


class TestTransposeStart:
    """The fixed-code curve's start: the transpose recovery of the noisy code."""

    def test_is_v_dag_n_dag_sigma_to_the_minus_half_where_sigma_is_invertible(self):
        enc, noise = q.leung_encoder(), q.tensor_power(q.amplitude_damping(0.3), 4)
        x, start = _transpose_problem(enc, noise)
        assert (x.dtype, start.dtype, start.shape) == (np.float64, np.float64, (16, 2, 16))
        adj = enc.v.conj().T @ noise.kraus.conj().swapaxes(1, 2)
        sigma = sum(n @ enc.v @ enc.v.conj().T @ n.conj().T for n in noise.kraus)
        w, u = np.linalg.eigh(sigma)
        np.testing.assert_allclose(start, adj @ (u / np.sqrt(w)) @ u.conj().T, atol=1e-12)
        np.testing.assert_array_equal(x, q.fidelity_operator_recovery(enc, noise).real)

    @pytest.mark.parametrize("gamma, used, fidelity", [(0.0, 1 + 7, 1.0), (1.0, 4 + 8, 0.25)])
    def test_is_completed_on_ker_sigma_where_sigma_is_singular(self, gamma, used, fidelity):
        # gamma = 0: one nonzero adjoint, sigma = V V^dag of rank 2.  gamma = 1:
        # the 4 adjoints V^dag |j><0000| with V|j> != 0, sigma of rank 1.  The
        # kernel takes (16 - rank) / 2 operators, rounded up, and zero
        # operators pad the stack to the noise's 16.
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        x, start = _transpose_problem(q.leung_encoder(), noise)
        assert start.shape == (16, 2, 16)
        assert np.any(start[:used], axis=(1, 2)).all() and not start[used:].any()
        assert_complete(start, tol=1e-14)
        res = _multistarts([(x, start)])[0]
        assert abs(res.fidelity - fidelity) < 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inverts_the_code_on_the_noiseless_channel(self, seed):
        # sigma = V V^dag: the start is V^dag plus operators on the code's complement.
        iso = q.random_isometry(2, 8, seed)
        _, start = _transpose_problem(iso, q.identity_channel(8))
        total = q.compose(iso, q.Channel(start))
        assert abs(q.channel_fidelity(total) - 1.0) < 1e-12

    def test_needs_more_operators_than_the_noise_for_a_random_code_at_full_damping(self):
        # Every adjoint of a random code is nonzero, and sigma has rank 1.
        x, start = _transpose_problem(q.random_isometry(2, 16, 3),
                                      q.tensor_power(q.amplitude_damping(1.0), 4))
        assert (x.dtype, start.dtype, start.shape) == (np.complex128, np.complex128,
                                                       (16 + 8, 2, 16))
        assert_complete(start, tol=1e-12)


class TestRealField:
    """Real-valued recovery problems run in float64, complex ones in complex128."""

    def test_fixed_code_starts_are_real_and_random_encoder_starts_complex(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        for idx, enc in enumerate([q.trivial_embedding(4), q.leung_encoder()]):
            x, start = restart_problem(idx, enc, noise, 4)
            assert (x.dtype, start.dtype) == (np.float64, np.float64)
        x, start = restart_problem(1, q.random_isometry(2, 16, 3), noise, 4)
        assert (x.dtype, start.dtype) == (np.complex128, np.complex128)
        assert np.any(x.imag) and np.any(start.imag)

    def test_real_batch_agrees_with_the_same_batch_in_complex128(self):
        xs, stacks = [], []
        for gamma in (0.1, 0.2, 0.3, 0.6):
            noise = q.tensor_power(q.amplitude_damping(gamma), 4)
            x, start = _transpose_problem(q.leung_encoder(), noise)
            starts = [start] + real_starts(16, 2, 8)
            xs += [x] * len(starts)
            stacks += starts
        x, ks = np.stack(xs), _pad(stacks)
        real = _power_batch(x, ks, 1e-9, floor(len(x)))
        cplx = _power_batch(x.astype(complex), ks.astype(complex), 1e-9, floor(len(x)))
        assert (real[0].dtype, cplx[0].dtype) == (np.float64, np.complex128)
        np.testing.assert_allclose(real[1], cplx[1], rtol=0, atol=1e-9)
        for a, b in zip(real[2:], cplx[2:]):
            np.testing.assert_array_equal(a, b)

    def test_a_real_start_meets_a_complex_operator(self):
        # The kernel works in the operator's field, so no complex iterate is
        # truncated into the real start's array.
        noise = q.tensor_power(q.amplitude_damping(0.3), 2)
        x = q.fidelity_operator_recovery(q.random_isometry(2, 4, 5), noise)
        start = real_channel(4, 2, 4, np.random.default_rng(1))
        ks = np.stack(start.kraus)
        assert ks.dtype == np.float64 and np.any(x.imag)
        res = one_member(x, ks, COMPLETENESS_TOL)
        ref = one_member(x, ks.astype(complex), COMPLETENESS_TOL)
        assert res[0].dtype == np.complex128
        assert res[1:3] == ref[1:3]
        np.testing.assert_array_equal(res[0], ref[0])


# Every binding of a boundary checker: the input coercion, and from_choi,
# which owns the Hermiticity check.
BOUNDARY_CHECKS = [(q.linalg, "as_matrix"), (q.channels, "as_matrix"), (q.codes, "as_matrix"),
                   (q.channels, "from_choi"), (q, "from_choi")]


def without_boundary_checks(fn, *args):
    """fn(*args) with every binding in BOUNDARY_CHECKS made to raise."""
    def refuse(*_):
        raise AssertionError("a boundary check ran inside the power step")

    with pytest.MonkeyPatch.context() as mp:
        for module, name in BOUNDARY_CHECKS:
            mp.setattr(module, name, refuse)
        return fn(*args)


class TestInnerLoopTrustsItsInputs:
    """The power step checks nothing: its Gram matrices c^dag c are Hermitian
    and PSD by construction, so inputs are checked once, at the public API."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex128", "float64"])
    def test_recovery_batch(self, real):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        x, start = _transpose_problem(q.leung_encoder(), noise)
        ks = _pad([start] + real_starts(16, 2, 8))
        if not real:
            x, ks = x.astype(complex), ks.astype(complex)
        best, f, _, _ = without_boundary_checks(_power_batch, np.stack([x] * len(ks)), ks,
                                                COMPLETENESS_TOL, floor(len(ks)))
        _, ok = without_boundary_checks(_renormalize, best.reshape(len(ks), -1, 16),
                                        COMPLETENESS_TOL)
        assert best.dtype == x.dtype and ok.all() and np.all(f > 0.88)

    def test_encoder_batch(self):
        y = np.stack([identity_objective(2)] * 2)
        # Rotations by two angles; one step takes each to the identity.
        ks = np.array([[[0.8, -0.6], [0.6, 0.8]], [[0.6, -0.8], [0.8, 0.6]]], dtype=complex)
        best, f, _, _ = without_boundary_checks(_power_batch, y, ks[:, None], ISOMETRY_TOL,
                                                floor(2))
        _, ok = without_boundary_checks(_renormalize, best.reshape(2, 2, 2), ISOMETRY_TOL)
        assert ok.all() and np.allclose(f, 1.0)
