"""The stacked power-step kernel against the single-member loop it replaced,
and the lockstep seesaw's independence from how its batches are composed."""

import numpy as np
import pytest

import seesawqec as q
from seesawqec.linalg import inv_sqrt_psd
from seesawqec.optimizer import _lowdin, _pad, _power_batch, _renormalize


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


def reference_half(x, ks, opts, tol=1e-9):
    """One half-problem at a time: the loop the kernel replaced.

    Returns (best Kraus stack, best fidelity, iterations, converged).
    """
    f_prev = reference_fidelity(x, ks)
    best_ks, best_f = ks, f_prev
    converged = False
    iters = 0
    for _ in range(opts.max_inner_iters):
        w = x @ ks.reshape(ks.shape[0], -1).conj().T
        cand = reference_renormalize(w.conj().T.reshape(ks.shape), tol)
        iters += 1
        if cand is None:
            break
        f_new = reference_fidelity(x, cand)
        if f_new < f_prev - opts.inner_tol:
            break
        ks = cand
        if f_new > best_f:
            best_ks, best_f = cand, f_new
        if abs(f_new - f_prev) < opts.inner_tol:
            converged = True
            break
        f_prev = f_new
    return best_ks, best_f, iters, converged


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
        damping = q.fidelity_operator_recovery(q.identity_channel(2),
                                               q.amplitude_damping(0.3)).x
        ident = identity_objective(2)
        # "normal" goes last, so it stops at a batch position other than its index.
        members = [
            ("zero", ident, np.zeros((2, 2, 2), dtype=complex)),
            ("fixed_point", ident, np.stack(q.identity_channel(2).kraus)),
            ("capped", damping, np.stack(q.random_cptp(2, 2, 2,
                                                       np.random.default_rng(5)).kraus)),
            ("normal", ident, np.stack(q.random_isometry(2, 2, 77).as_channel().kraus)),
        ]
        opts = q.SolveOptions(max_inner_iters=self.CAP)
        ks, counts = _pad([m[2] for m in members])
        out = _power_batch(np.stack([m[1] for m in members]), ks, opts, 1e-9)
        refs = [reference_half(x, k, opts) for _, x, k in members]
        return members, counts, out, refs

    def test_fidelity_and_stop_match_reference(self, batch):
        members, _, (_, f, iters, conv), refs = batch
        for b, (name, _, _) in enumerate(members):
            _, f_ref, it_ref, conv_ref = refs[b]
            assert abs(f[b] - f_ref) < 1e-10, name
            assert (iters[b], conv[b]) == (it_ref, conv_ref), name

    def test_each_member_stops_as_designed(self, batch):
        members, _, (_, _, iters, conv), _ = batch
        stops = {name: (int(iters[b]), bool(conv[b]))
                 for b, (name, _, _) in enumerate(members)}
        assert stops["zero"] == (1, False)          # renormalization fails
        assert stops["fixed_point"] == (1, True)
        assert stops["capped"] == (self.CAP, False)
        assert stops["normal"][1] and stops["normal"][0] < self.CAP

    def test_outputs_are_cptp_and_padding_stays_zero(self, batch):
        members, counts, (best, f, _, _), _ = batch
        for b, (name, _, _) in enumerate(members):
            assert not best[b, counts[b]:].any(), name
            if name == "zero":
                assert f[b] == 0.0 and not best[b].any()
            else:
                assert_complete(best[b, :counts[b]])


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
        opts = q.SolveOptions()
        assert reference_half(x, ks, opts)[1:] == (reference_fidelity(x, ks), 1, False)
        best, f, iters, conv = _power_batch(x[None], ks[None], opts, 1e-9)
        assert abs(f[0] - 2.0) < 1e-12 and conv[0] and iters[0] == 2
        assert_complete(best[0])


class TestLockstepSeesaw:
    def test_restarts_do_not_depend_on_batch_size(self):
        noise = q.amplitude_damping(0.3)
        small = q.seesaw(noise, 4, q.SolveOptions(seed=7, restarts=3))
        opts = q.SolveOptions(seed=7, restarts=8)
        big = q.seesaw(noise, 4, opts)
        assert small.restart_traces == big.restart_traces[:3]
        # Seeded dominance of the fixed-code curve rests on this equality.
        alone = q.optimize_recovery_multistart(
            q.leung_encoder(), q.tensor_power(noise, 4), opts,
            rng_seed=opts.seed + q.optimizer.LEUNG_RESTART_INDEX)
        assert big.restart_traces[q.optimizer.LEUNG_RESTART_INDEX][0] == alone.fidelity

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

    def test_multistart_rejects_a_start_of_the_wrong_shape(self):
        noise = q.tensor_power(q.amplitude_damping(0.2), 4)
        with pytest.raises(ValueError, match="does not match"):
            q.optimize_recovery_multistart(q.leung_encoder(), noise, q.SolveOptions(), 1,
                                           extra_starts=[q.identity_channel(2)])
