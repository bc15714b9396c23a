"""The stacked power-step kernel against a single-member loop of the same
rule, its speed-up over the plain power step, the lockstep seesaw against
a one-restart loop of its extrapolated round, the independence of the
lockstep multistart and seesaw from how their batches are composed, and
the stacked operator builds and shared starts that feed them."""

import weakref

import numpy as np
import pytest

import seesawqec as q
from dense import fidelity_operator_encoding
from seesawqec.channels import COMPLETENESS_TOL
from seesawqec.cli import SweepConfig, run_sweep
from seesawqec.codes import ISOMETRY_TOL
from seesawqec.linalg import inv_sqrt_psd
from seesawqec.optimizer import (INNER_TOL, LEUNG_RESTART_INDEX, MULTISTART_BATCH,
                                 SEESAW_KAPPA, _encoding_operators, _lowdin, _multistarts,
                                 _pad, _power_batch, _recovery_operators, _renormalize,
                                 _seed_isometries, _starts)


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


def one_problem(encoder, noise, rng_seed, extra_starts=()):
    """The recovery multistart of one problem, passed alone."""
    return _multistarts([_starts(encoder, noise, rng_seed, extra_starts)])[0]


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
        ks, counts = _pad([m[2] for m in members])
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
    """The extrapolated step against the plain power step on the fixed code."""

    @pytest.mark.parametrize("gamma", [0.3, 0.5])
    def test_fewer_steps_to_at_least_the_plain_optimum(self, gamma):
        seed = 7 + LEUNG_RESTART_INDEX
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        res = q.optimize_recovery_multistarts(q.leung_encoder(), [noise], seed)[0]
        x, starts = _starts(q.leung_encoder(), noise, seed, ())
        assert len(starts) == 3
        plain = [plain_reference_half(x, ks) for ks in starts]
        assert res.fidelity >= max(p[1] for p in plain) - 1e-12
        assert 5 * res.iterations <= sum(p[2] for p in plain)


class TestStopTolerance:
    """Per-member stop tolerances in one batch against one member at a time."""

    TOLS = [1e-4, 1e-10, 1e-6, 1e-8]

    @pytest.fixture(scope="class")
    def members(self):
        problems = []
        for gamma in (0.2, 0.5):
            noise = q.tensor_power(q.amplitude_damping(gamma), 4)
            xg, sg = _starts(q.leung_encoder(), noise, 8, ())
            problems.append((xg, sg[1:]))
        ks, _ = _pad([s for _, sg in problems for s in sg])
        return np.stack([xg for xg, sg in problems for _ in sg]), ks, problems

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
            fp = at_floor[1][2 * p:2 * p + 2]
            assert res.fidelity == fp[int(fp[1] > fp[0] + 1e-12)]
            assert res.iterations == at_floor[2][2 * p:2 * p + 2].sum()
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
    """(seed isometry, initial recovery multistart) of each restart of seesaw(n)."""
    out = []
    for idx, iso in enumerate(_seed_isometries(n, opts, None)):
        extra = [q.partial_trace_recovery(n)] if idx == 0 else []
        out.append((iso, one_problem(iso, noise, opts.seed + idx, extra)))
    return out


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
        # Seeded dominance of the fixed-code curve rests on this equality.
        alone = one_problem(q.leung_encoder(), q.tensor_power(noise, 4),
                            opts.seed + LEUNG_RESTART_INDEX)
        assert big.restart_traces[LEUNG_RESTART_INDEX][0] == alone.fidelity

    @pytest.mark.parametrize("n, gamma", [(2, 0.3), (5, 0.4)])
    def test_padded_starts_return_unpadded_cptp_channels(self, n, gamma):
        # Start widths: reversal 2^n - 1, partial trace 2^(n-1), random 16.
        opts = q.SolveOptions(seed=7, restarts=2, max_outer_rounds=2)
        res = q.seesaw(q.amplitude_damping(gamma), n, opts)
        for c in (res.encoder, res.recovery):
            assert_complete(np.stack(c.kraus))
            assert all(np.any(k) for k in c.kraus)
        assert len(res.recovery.kraus) in (2 ** n - 1, 2 ** (n - 1), 16)
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

        monkeypatch.setattr(q.optimizer, "_multistarts", multistarts)
        monkeypatch.setattr(q.optimizer, "_power_batch", kernel)
        opts = q.SolveOptions(seed=7, restarts=3, max_outer_rounds=3)
        q.seesaw(q.amplitude_damping(0.3), 3, opts)
        # Each round's encoder half and recovery half; no fallback here.
        assert len(refs) == 3 and alive == [0] * 6


class TestBatchedMultistart:
    """Several recovery multistarts in one call against one call each."""

    @pytest.fixture(scope="class")
    def problems(self):
        leung = q.leung_encoder()

        def noise(gamma):
            return q.tensor_power(q.amplitude_damping(gamma), 4)

        # At gamma=1 the renormalization fails on step 1.
        gammas = [0.05, 0.3, 1.0] + [0.1 * k for k in range(1, MULTISTART_BATCH)]
        problems = [(leung, noise(g), 8, ()) for g in gammas]
        # Seesaw-style: another encoder, an extra start and another seed.
        problems.insert(3, (q.trivial_embedding(4), noise(0.3), 7,
                            [q.partial_trace_recovery(4)]))
        # A complex problem between real ones ends their batch.
        problems.insert(5, (q.random_isometry(2, 16, 5), noise(0.3), 9, ()))
        assert len(problems) > MULTISTART_BATCH
        return problems

    def test_each_result_equals_its_one_problem_call(self, problems):
        batched = _multistarts(_starts(enc, noise, seed, extra)
                               for enc, noise, seed, extra in problems)
        assert len(batched) == len(problems)
        for (enc, noise, seed, extra), res in zip(problems, batched):
            alone = one_problem(enc, noise, seed, extra)
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
                res = one_problem(
                    q.leung_encoder(), q.tensor_power(q.amplitude_damping(r.gamma), 4),
                    opts.seed + LEUNG_RESTART_INDEX)
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
        r, _ = _pad([np.stack(c.kraus) for c in recs], m + 2)
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
    """Count the optimizer's calls of the two start builders, by name."""
    calls = {"random_cptp": 0, "reversal_recovery": 0}
    for name in calls:
        def counted(*args, _original=getattr(q.optimizer, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(q.optimizer, name, counted)
    return calls


class TestSharedStarts:
    """One multistart call builds one start set for all its noise channels."""

    def test_fixed_code_curve_builds_its_starts_once(self, monkeypatch):
        calls = count_start_builds(monkeypatch)
        config = SweepConfig(gamma_min=0.0, gamma_max=1.0, steps=MULTISTART_BATCH + 2,
                             modes=("leung_optrec",), options=q.SolveOptions(seed=7))
        assert len(run_sweep(config)) == config.steps
        # One problem per gamma > 0 drew 2 random starts and built 1 reversal.
        assert calls == {"random_cptp": 2, "reversal_recovery": 1}

    def test_each_call_builds_its_own_starts(self, monkeypatch):
        calls = count_start_builds(monkeypatch)
        leung = q.leung_encoder()
        noises = [q.tensor_power(q.amplitude_damping(g), 4) for g in (0.3, 0.5)]
        first = q.optimize_recovery_multistarts(leung, noises, 8)
        again = q.optimize_recovery_multistarts(leung, noises, 8)
        assert calls == {"random_cptp": 4, "reversal_recovery": 2}
        assert [(r.fidelity, r.iterations) for r in first] == \
            [(r.fidelity, r.iterations) for r in again]
        other = q.optimize_recovery_multistarts(leung, noises[:1], 9)[0]
        assert calls == {"random_cptp": 6, "reversal_recovery": 3}
        alone = one_problem(leung, noises[0], 9)
        assert (other.fidelity, other.iterations) == (alone.fidelity, alone.iterations)

    def test_later_noise_channels_run_from_the_first_ones_starts(self):
        # A complex noise channel after a real one keeps the real start set
        # and runs in complex128.
        enc = q.trivial_embedding(2)
        real = q.tensor_power(q.amplitude_damping(0.3), 2)
        cplx = q.random_cptp(4, 4, 2, np.random.default_rng(3))
        out = q.optimize_recovery_multistarts(enc, iter([real, cplx]), 8)
        x, starts = _starts(enc, real, 8, ())
        assert x.dtype == np.float64
        assert out[0].channel.kraus[0].dtype == np.float64
        assert out[1].channel.kraus[0].dtype == np.complex128
        x2 = q.fidelity_operator_recovery(enc, cplx)
        ref = _multistarts([(x2, starts)])[0]
        assert (out[1].fidelity, out[1].iterations) == (ref.fidelity, ref.iterations)

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
        q.optimize_recovery_multistarts(q.trivial_embedding(2), map(noise, gammas), 8)
        # One full batch, then the last two channels.
        assert len(refs) == len(gammas) and alive == [0, 0]

    def test_rejects_noise_channels_of_another_output_dim(self):
        noises = [q.tensor_power(q.amplitude_damping(0.3), 2),
                  q.random_cptp(4, 2, 2, np.random.default_rng(3))]
        with pytest.raises(ValueError, match="differs from the first"):
            q.optimize_recovery_multistarts(q.trivial_embedding(2), noises, 8)


class TestRealField:
    """Real-valued recovery problems run in float64, complex ones in complex128."""

    def test_fixed_code_starts_are_real_and_random_encoder_starts_complex(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        for enc, extra in [(q.leung_encoder(), ()),
                           (q.trivial_embedding(4), [q.partial_trace_recovery(4)])]:
            x, starts = _starts(enc, noise, 8, extra)
            assert [a.dtype for a in (x, *starts)] == [np.float64] * (1 + len(starts))
        x, starts = _starts(q.random_isometry(2, 16, 3), noise, 8, ())
        assert [a.dtype for a in (x, *starts)] == [np.complex128] * (1 + len(starts))
        assert all(np.any(a.imag) for a in (x, *starts))

    def test_real_batch_agrees_with_the_same_batch_in_complex128(self):
        xs, stacks = [], []
        for gamma in (0.1, 0.2, 0.3, 0.6):
            noise = q.tensor_power(q.amplitude_damping(gamma), 4)
            x, starts = _starts(q.leung_encoder(), noise, 8, ())
            xs += [x] * len(starts)
            stacks += starts
        x, (ks, _) = np.stack(xs), _pad(stacks)
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
        start = q.random_cptp(4, 2, 4, np.random.default_rng(1), real=True)
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
        x, starts = _starts(q.leung_encoder(), noise, 8, ())
        ks, _ = _pad(starts)
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
