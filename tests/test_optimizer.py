"""Fidelity operators, the power-step kernel on one half-problem, the
oracle, the fixed-code curve's dual certificate, and the seesaw driver."""

import copy

import numpy as np
import pytest

import seesawqec as q
from dense import fidelity_operator_encoding
from oracle import oracle_optimize
from seesawqec.channels import COMPLETENESS_TOL
from seesawqec.codes import ISOMETRY_TOL
from seesawqec.optimizer import (INNER_TOL, _fidelities, _multistarts, _power_batch,
                                 _transpose_problem)


def random_channel(d_in, d_out, rank, seed):
    return q.random_cptp(d_in, d_out, rank, np.random.default_rng(seed))


def composed_fidelity(enc, noise, rec):
    return q.channel_fidelity(q.compose(q.compose(enc, noise), rec))


def quadratic_fidelity(x, c):
    """The kernel's fidelity of channel c under the operator x."""
    v = np.stack(c.kraus).reshape(1, len(c.kraus), -1)
    return float(_fidelities(v, v @ x)[0])


def optimize_half(x, initial):
    """The kernel on one recovery-style member: (channel, fidelity, iterations, converged)."""
    best, f, iters, conv = _power_batch(x[None], np.stack(initial.kraus)[None],
                                        COMPLETENESS_TOL, np.array([INNER_TOL]))
    return q.Channel(list(best[0])), float(f[0]), int(iters[0]), bool(conv[0])


def optimize_isometry(y, initial):
    """The kernel on one encoder member of a single Kraus operator."""
    best, f, iters, conv = _power_batch(y[None], initial.v[None, None], ISOMETRY_TOL,
                                        np.array([INNER_TOL]))
    return q.Isometry(best[0, 0]), float(f[0]), int(iters[0]), bool(conv[0])


def fixed_code_recovery(noise):
    """The fixed-code curve's multistart at one noise channel."""
    return q.optimize_recovery_multistarts(q.leung_encoder(), [noise])[0]


def recovery_gap(x, ks):
    """Dual bound minus value of the recovery ks [r, d_out, d_in] under the operator x.

    The recovery half is max tr(X̄C) over Choi matrices C ⪰ 0 with
    Tr_out C = I.  Any Hermitian Y gives the bound tr Y + d_in·λ_max(X̄ − I ⊗ Y)
    (weak duality); Y = herm(Tr_out(X̄C)) at C = Σ_k ravel(K_k) ravel(K_k)^dag
    is the KKT multiplier at an optimum, where the gap closes.
    """
    r, d_out, d_in = ks.shape
    v = ks.reshape(r, -1)
    c, xb = v.T @ v.conj(), x.conj()
    y = np.trace((xb @ c).reshape(d_out, d_in, d_out, d_in), axis1=0, axis2=2)
    y = (y + y.conj().T) / 2
    lam = np.linalg.eigvalsh(xb - np.kron(np.eye(d_out), y))[-1]
    return float(np.trace(y).real + d_in * lam - np.sum(xb * c.T).real)


class TestFidelityOperators:
    @pytest.mark.parametrize("seed", range(20))
    def test_recovery_form_matches_direct_fidelity(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 1 if seed % 2 else 2
        d_code = 2 ** n
        gamma = rng.uniform(0.05, 0.95)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        enc = q.random_isometry(2, d_code, 500 + seed)
        rec = q.random_cptp(d_code, 2, 4, rng)
        x = q.fidelity_operator_recovery(enc, noise)
        f_quad = quadratic_fidelity(x, rec)
        assert abs(f_quad - composed_fidelity(enc, noise, rec)) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_encoding_form_matches_direct_fidelity(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = 1 if seed % 2 else 2
        d_code = 2 ** n
        gamma = rng.uniform(0.05, 0.95)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        enc = q.random_isometry(2, d_code, 700 + seed)
        rec = q.random_cptp(d_code, 2, 4, rng)
        y = fidelity_operator_encoding(rec, noise)
        f_quad = quadratic_fidelity(y, enc)
        assert abs(f_quad - composed_fidelity(enc, noise, rec)) < 1e-10

    def test_operator_is_psd_with_expected_trace(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 2)
        rec = random_channel(4, 2, 3, 801)
        y = fidelity_operator_encoding(rec, noise)
        w = np.linalg.eigvalsh(y)
        assert w[0] > -1e-9
        expect = sum(np.linalg.norm(r @ n) ** 2
                     for r in rec.kraus for n in noise.kraus) / 4
        assert abs(np.trace(y).real - expect) < 1e-10

    def test_perfect_correction_through_noiseless_operator(self):
        # The transpose start under no noise inverts the code.
        iso = q.random_isometry(2, 8, 42)
        noise = q.identity_channel(8)
        x = q.fidelity_operator_recovery(iso, noise)
        f = quadratic_fidelity(x, q.Channel(_transpose_problem(iso, noise)[1]))
        assert abs(f - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            q.fidelity_operator_recovery(q.identity_channel(2),
                                         q.identity_channel(4))


def identity_objective(d):
    v = np.eye(d, dtype=complex).ravel().conj()
    x = np.outer(v.conj(), v) / d ** 2
    return (x + x.conj().T) / 2


class TestOptimizeHalf:
    def test_identity_objective_reaches_unitary(self):
        d = 3
        x = identity_objective(d)
        initial = q.random_isometry(d, d, 77)
        channel, f, _, _ = optimize_half(x, initial)
        assert abs(f - 1.0) < 1e-9
        u = channel.kraus[0]
        assert abs(abs(np.trace(u)) - d) < 1e-6

    def test_fixed_point_unchanged(self):
        d = 2
        x = identity_objective(d)
        _, f, _, _ = optimize_half(x, q.identity_channel(d))
        assert abs(f - 1.0) < INNER_TOL

    def test_never_below_start(self):
        noise = q.tensor_power(q.amplitude_damping(0.25), 2)
        enc = q.random_isometry(2, 4, 9)
        x = q.fidelity_operator_recovery(enc, noise)
        start = random_channel(4, 2, 4, 10)
        f0 = quadratic_fidelity(x, start)
        _, f, _, _ = optimize_half(x, start)
        assert f >= f0

    def test_output_is_cptp(self):
        noise = q.tensor_power(q.amplitude_damping(0.4), 2)
        enc = q.random_isometry(2, 4, 11)
        x = q.fidelity_operator_recovery(enc, noise)
        channel, _, _, _ = optimize_half(x, random_channel(4, 2, 4, 12))
        s = sum(k.conj().T @ k for k in channel.kraus)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-8)


class TestOptimizeEncodingIsometric:
    def test_noiseless_stays_optimal(self):
        noise = q.identity_channel(8)
        iso = q.random_isometry(2, 8, 13)
        rec = q.Channel(_transpose_problem(iso, noise)[1])
        y = fidelity_operator_encoding(rec, noise)
        out, f, _, _ = optimize_isometry(y, iso)
        assert f >= 1.0 - 1e-10
        dev = np.max(np.abs(out.v.conj().T @ out.v - np.eye(2)))
        assert dev < 1e-10

    def test_reoptimizing_does_not_decrease(self):
        gamma = 0.2
        opts = q.SolveOptions(seed=3, restarts=3, max_outer_rounds=20)
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        y = fidelity_operator_encoding(res.recovery, noise)
        assert res.encoder is not None
        _, f, _, _ = optimize_isometry(y, res.encoder)
        assert f >= res.fidelity - INNER_TOL


class TestOracle:
    def test_identity_objective(self):
        f = oracle_optimize(identity_objective(2), (2, 2), iters=400)
        assert abs(f - 1.0) < 1e-6

    def test_agrees_with_power_step_on_fixed_code_recovery(self):
        gamma = 0.2
        enc = q.leung_encoder()
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        res = fixed_code_recovery(noise)
        x = q.fidelity_operator_recovery(enc, noise)
        orc = oracle_optimize(x, (2, 16), iters=800)
        assert abs(res.fidelity - orc) < 1e-6

    def test_real_and_complex_ascents_agree(self):
        # A phase on the output factor maps CPTP Choi matrices onto CPTP
        # Choi matrices, so it leaves the optimum in place but makes X
        # complex: the float64 ascent against the complex128 one.
        x = q.fidelity_operator_recovery(q.identity_channel(2), q.amplitude_damping(0.3))
        w = np.kron(np.diag(np.exp(1j * np.array([0.4, 1.3]))), np.eye(2))
        xc = w @ x @ w.conj().T
        assert not np.any(x.imag) and np.any(xc.imag)
        assert abs(oracle_optimize(x, (2, 2), iters=20)
                   - oracle_optimize(xc, (2, 2), iters=20)) < 1e-12

    def test_single_qubit_recovery_vs_unitary_brute_force(self):
        gamma = 0.3
        noise = q.amplitude_damping(gamma)
        x = q.fidelity_operator_recovery(q.identity_channel(2), noise)
        orc = oracle_optimize(x, (2, 2), iters=800)
        k0, k1 = noise.kraus
        best = 0.0
        for t in np.linspace(0, np.pi / 2, 40):
            c, s = np.cos(t), np.sin(t)
            for a in np.linspace(0, 2 * np.pi, 80, endpoint=False):
                for b in np.linspace(0, 2 * np.pi, 80, endpoint=False):
                    u = np.array([[c * np.exp(1j * a), s * np.exp(1j * b)],
                                  [-s * np.exp(-1j * b), c * np.exp(-1j * a)]])
                    f = (abs(np.trace(u @ k0)) ** 2
                         + abs(np.trace(u @ k1)) ** 2) / 4
                    best = max(best, f)
        assert orc >= best - 1e-9
        assert abs(orc - best) < 1e-4


class TestCertificate:
    def test_fixed_code_curve_is_within_1e_6_of_its_dual_bound(self):
        # At every gamma > 0 of the 21-point curve.  The shared seeded
        # starts it replaced stopped up to 3.1e-6 below the bound (gamma = 0.2).
        enc = q.leung_encoder()
        gammas = np.linspace(0.0, 1.0, 21)[1:]
        noises = [q.tensor_power(q.amplitude_damping(g), 4) for g in gammas]
        results = q.optimize_recovery_multistarts(enc, noises)
        gaps = [recovery_gap(q.fidelity_operator_recovery(enc, noise), res.channel.kraus)
                for noise, res in zip(noises, results)]
        assert max(gaps) <= 1e-6, dict(zip(gammas.round(2).tolist(), gaps))

    def test_gap_is_large_at_a_poor_recovery(self):
        # Keeping the first qubit is far from the optimal recovery of the
        # 4-qubit code at gamma = 0.2.
        enc = q.leung_encoder()
        x = q.fidelity_operator_recovery(enc, q.tensor_power(q.amplitude_damping(0.2), 4))
        assert recovery_gap(x, q.partial_trace_recovery(4).kraus) > 1e-3


class TestSeesaw:
    def test_noiseless_general_path_is_exact(self):
        # No gamma = 0 special case: the trivial restart wins with exactly 1.0
        # and its encoder untouched, so the next grid point's warm start is
        # the trivial embedding itself.
        for n in range(1, 6):
            res = q.seesaw(q.amplitude_damping(0.0), n, q.SolveOptions())
            assert res.fidelity == 1.0 and res.converged, n
            np.testing.assert_array_equal(res.encoder.v, q.trivial_embedding(n).v)

    @pytest.mark.parametrize("gamma", [0.05, 0.55, 0.95, 1.0])
    def test_dominance_by_construction(self, gamma):
        # The 4-qubit-code restart starts at the fixed-code curve's value,
        # bit for bit, and the trivial restart at the no-coding value.  The
        # kernel's quadratic form ends one ulp below the closed form at 0.95.
        opts = q.SolveOptions(seed=7, restarts=2, max_outer_rounds=1)
        traces = q.seesaw(q.amplitude_damping(gamma), 4, opts).restart_traces
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        assert traces[1][0] == fixed_code_recovery(noise).fidelity
        assert traces[0][0] >= (1 + np.sqrt(1 - gamma)) ** 2 / 4 - 1e-16

    @pytest.mark.parametrize("gamma", [0.2, 0.3])
    def test_two_copies_reach_no_coding(self, gamma):
        # The benchmark smoke test's small seesaw.  With every restart on a
        # transpose start, the trivial code's start stalled below no coding
        # at gamma = 0.2 (0.8972101644 < 0.8972135955).
        opts = q.SolveOptions(seed=0, restarts=2, max_outer_rounds=20)
        res = q.seesaw(q.amplitude_damping(gamma), 2, opts)
        assert res.fidelity >= q.channel_fidelity(q.amplitude_damping(gamma))

    def test_full_damping_endpoint(self):
        res = q.seesaw(q.amplitude_damping(1.0), 4, q.SolveOptions(seed=7))
        assert res.fidelity >= 0.25

    def test_strict_improvement_over_fixed_code(self):
        gamma = 0.2
        opts = q.SolveOptions(seed=7)
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        leung = fixed_code_recovery(noise)
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        # margin recorded at build time: ~6e-3 for this seed
        assert res.fidelity > leung.fidelity + 10 * opts.outer_tol

    def test_seeded_dominance(self):
        gamma = 0.35
        opts = q.SolveOptions(seed=5, restarts=3, max_outer_rounds=40)
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        leung = fixed_code_recovery(noise).fidelity
        bare = q.channel_fidelity(q.amplitude_damping(gamma))
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        assert res.fidelity >= max(bare, leung) - 1e-9

    def test_monotone_traces_all_restarts(self):
        opts = q.SolveOptions(seed=2, restarts=3, max_outer_rounds=25)
        res = q.seesaw(q.amplitude_damping(0.3), 4, opts)
        assert len(res.restart_traces) == res.restarts_used
        for trace in res.restart_traces:
            assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert res.fidelity == res.restart_traces[res.best_restart_seed - opts.seed][-1]

    def test_deterministic(self):
        opts = q.SolveOptions(seed=11, restarts=3, max_outer_rounds=20)
        a = q.seesaw(q.amplitude_damping(0.4), 4, opts)
        b = q.seesaw(q.amplitude_damping(0.4), 4, opts)
        assert a.fidelity == b.fidelity
        assert a.restart_traces == b.restart_traces
        assert a.best_restart_seed == b.best_restart_seed

    def test_returned_channels_are_cptp(self):
        res = q.seesaw(q.amplitude_damping(0.3), 2,
                       q.SolveOptions(seed=1, restarts=2, max_outer_rounds=20))
        for c in (res.encoder, res.recovery):
            s = sum(k.conj().T @ k for k in c.kraus)
            np.testing.assert_allclose(s, np.eye(c.d_in), atol=1e-8)

    def test_result_encoder_is_an_isometry_and_warm_starts(self):
        opts = q.SolveOptions(seed=3, restarts=2, max_outer_rounds=5)
        first = q.seesaw(q.amplitude_damping(0.3), 2, opts)
        assert isinstance(first.encoder, q.Isometry)
        assert first.encoder.kraus.shape == (1, 4, 2)
        warm = q.seesaw(q.amplitude_damping(0.35), 2, opts, warm=first.encoder)
        assert warm.restarts_used == opts.restarts + 1

    def test_warm_start_seed_is_used(self):
        opts = q.SolveOptions(seed=4, restarts=2, max_outer_rounds=15)
        first = q.seesaw(q.amplitude_damping(0.3), 4, opts)
        assert first.encoder is not None
        warm = q.seesaw(q.amplitude_damping(0.35), 4, opts, warm=first.encoder)
        assert warm.restarts_used == opts.restarts + 1
        # The warm start is the restart after the two fixed seeds.
        noise = q.tensor_power(q.amplitude_damping(0.35), 4)
        start = _multistarts([_transpose_problem(first.encoder, noise)])[0]
        assert abs(warm.restart_traces[2][0] - start.fidelity) < 1e-12

    @pytest.mark.parametrize("n, restarts, warm, used", [(4, 1, 0, 2), (3, 1, 0, 1),
                                                          (4, 2, 1, 3)])
    def test_fixed_seeds_run_whatever_the_restart_count(self, n, restarts, warm, used):
        # The trivial embedding, and the 4-qubit code at n = 4, always run.
        opts = q.SolveOptions(seed=4, restarts=restarts, max_outer_rounds=2)
        res = q.seesaw(q.amplitude_damping(0.3), n, opts,
                       warm=q.random_isometry(2, 2 ** n, 50) if warm else None)
        assert res.restarts_used == len(res.restart_traces) == used

    @pytest.mark.parametrize("warm, got", [
        (q.random_isometry(3, 8, 1), r"\(8, 3\)"), (q.random_isometry(2, 16, 1), r"\(16, 2\)"),
        (np.eye(8, 2), "ndarray"), ([q.random_isometry(2, 8, 1)], "list")],
        ids=["warm0", "warm1", "warm2", "list"])
    def test_rejects_a_warm_start_that_is_not_a_2_to_2n_isometry(self, warm, got):
        # One Isometry, not a sequence of them: a list is refused too.
        with pytest.raises(ValueError, match=f"warm start must be a 2 -> 8 isometry "
                                             f"for n = 3, got {got}"):
            q.seesaw(q.amplitude_damping(0.3), 3, q.SolveOptions(restarts=2), warm=warm)

    def test_rejects_non_qubit_noise(self):
        with pytest.raises(ValueError, match="single-qubit"):
            q.seesaw(q.identity_channel(4), 2, q.SolveOptions())

    def test_rejects_noise_that_is_not_a_channel(self):
        kraus = q.amplitude_damping(0.3).kraus
        with pytest.raises(ValueError, match="noise_single must be a Channel, got ndarray"):
            q.seesaw(kraus, 2, q.SolveOptions())

    def test_rejects_options_that_are_not_solve_options(self):
        # Used to fail deep inside with "'NoneType' object has no attribute 'restarts'".
        with pytest.raises(ValueError, match="opts must be a SolveOptions, got NoneType"):
            q.seesaw(q.amplitude_damping(0.3), 4, None)

    def test_rejects_cold_restarts_of_another_problem(self):
        opts = q.SolveOptions(seed=7, restarts=2, max_outer_rounds=2)
        noise = q.amplitude_damping(0.3)
        cold = next(q.cold_restarts([noise], 2, opts))
        assert q.seesaw(noise, 2, opts, cold=cold).restarts_used == 2
        for args in [(q.amplitude_damping(0.3), 2, opts), (noise, 3, opts),
                     (noise, 2, q.SolveOptions(seed=8, restarts=2, max_outer_rounds=2))]:
            with pytest.raises(ValueError, match="cold must be the cold_restarts entry"):
                q.seesaw(*args, cold=cold)
        with pytest.raises(ValueError, match="cold must be the cold_restarts entry"):
            q.seesaw(noise, 2, opts, cold=[cold])

    def test_cold_restarts_checks_every_channel_before_it_runs(self):
        # The entries are computed as they are asked for; the inputs are
        # checked at the call.
        noises = [q.amplitude_damping(0.3), q.identity_channel(4)]
        with pytest.raises(ValueError, match="single-qubit"):
            q.cold_restarts(noises, 2, q.SolveOptions())
        with pytest.raises(ValueError, match="opts must be a SolveOptions, got NoneType"):
            q.cold_restarts(noises[:1], 2, None)


class TestIdentity:
    def test_channels_and_results_compare_and_hash_by_identity(self):
        # Comparing two channels used to raise "truth value ... ambiguous",
        # and hashing one "unhashable type".
        a, b = q.amplitude_damping(0.3), q.amplitude_damping(0.3)
        noise = q.tensor_power(a, 2)
        half = q.optimize_recovery_multistarts(q.trivial_embedding(2), [noise])[0]
        res = q.seesaw(a, 2, q.SolveOptions(restarts=1, max_outer_rounds=2))
        for obj, twin in [(a, b), (q.leung_encoder(), q.leung_encoder()),
                          (q.to_choi(a), q.to_choi(b)), (half, copy.copy(half)),
                          (res, copy.copy(res))]:
            assert obj == obj and obj != twin
            assert {obj: 1}[obj] == 1 and hash(obj) != hash(twin)


class TestRecoveryMultistartsArguments:
    def test_rejects_an_encoder_that_is_not_an_isometry(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        with pytest.raises(ValueError, match="encoder must be an Isometry, got Channel"):
            q.optimize_recovery_multistarts(q.Channel(q.leung_encoder().kraus), [noise])

    def test_rejects_noise_that_is_not_a_channel(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        with pytest.raises(ValueError, match="noise must be a Channel, got ndarray"):
            q.optimize_recovery_multistarts(q.leung_encoder(), [noise, noise.kraus[0]])


class TestSolveOptions:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError, match="positive"):
            q.SolveOptions(outer_tol=0.0)

    @pytest.mark.parametrize("field", ["outer_tol"])
    def test_rejects_nan_tolerances(self, field):
        with pytest.raises(ValueError, match="positive"):
            q.SolveOptions(**{field: float("nan")})

    def test_rejects_a_string_tolerance(self):
        # Used to raise a bare TypeError from the range comparison.
        with pytest.raises(ValueError, match="outer_tol must be positive and finite, got '1e-9'"):
            q.SolveOptions(outer_tol="1e-9")

    def test_rejects_an_infinite_tolerance(self):
        # With outer_tol = inf every restart "converged" on its first floor round.
        with pytest.raises(ValueError, match="outer_tol must be positive and finite"):
            q.SolveOptions(outer_tol=float("inf"))

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            q.SolveOptions(restarts=0)

    @pytest.mark.parametrize("field, value", [
        ("max_outer_rounds", 1.5), ("restarts", 2.5), ("seed", 7.0), ("restarts", True),
        ("max_outer_rounds", "10")])
    def test_rejects_non_integer_limits(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            q.SolveOptions(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            q.SolveOptions(seed=-1)

    def test_accepts_numpy_integers(self):
        opts = q.SolveOptions(restarts=np.int64(3), seed=np.int32(7))
        assert (opts.restarts, opts.seed) == (3, 7)


class TestRandomCptp:
    def test_completeness(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = q.random_cptp(16, 2, 16, rng)
            s = sum(k.conj().T @ k for k in c.kraus)
            np.testing.assert_allclose(s, np.eye(16), atol=1e-9)

    def test_rejects_insufficient_rank(self):
        with pytest.raises(ValueError, match="rank"):
            q.random_cptp(16, 2, 4, np.random.default_rng(0))
