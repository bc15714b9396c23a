"""Fidelity operators, the half-problem solvers, and the seesaw driver."""

import numpy as np
import pytest

import seesawqec as q
from seesawqec.optimizer import LEUNG_RESTART_INDEX


def random_channel(d_in, d_out, rank, seed):
    return q.random_cptp(d_in, d_out, rank, np.random.default_rng(seed))


def composed_fidelity(enc, noise, rec):
    return q.channel_fidelity(q.compose(q.compose(enc, noise), rec))


class TestFidelityOperators:
    @pytest.mark.parametrize("seed", range(20))
    def test_recovery_form_matches_direct_fidelity(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 1 if seed % 2 else 2
        d_code = 2 ** n
        gamma = rng.uniform(0.05, 0.95)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        enc = q.random_isometry(2, d_code, 500 + seed).as_channel()
        rec = q.random_cptp(d_code, 2, 4, rng)
        x = q.fidelity_operator_recovery(enc, noise)
        f_quad = q.quadratic_fidelity(x, rec)
        assert abs(f_quad - composed_fidelity(enc, noise, rec)) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_encoding_form_matches_direct_fidelity(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = 1 if seed % 2 else 2
        d_code = 2 ** n
        gamma = rng.uniform(0.05, 0.95)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        enc = q.random_isometry(2, d_code, 700 + seed).as_channel()
        rec = q.random_cptp(d_code, 2, 4, rng)
        y = q.fidelity_operator_encoding(rec, noise)
        f_quad = q.quadratic_fidelity(y, enc)
        assert abs(f_quad - composed_fidelity(enc, noise, rec)) < 1e-10

    def test_operator_is_psd_with_expected_trace(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 2)
        rec = random_channel(4, 2, 3, 801)
        y = q.fidelity_operator_encoding(rec, noise)
        w = np.linalg.eigvalsh(y.x)
        assert w[0] > -1e-9
        expect = sum(np.linalg.norm(r @ n) ** 2
                     for r in rec.kraus for n in noise.kraus) / 4
        assert abs(np.trace(y.x).real - expect) < 1e-10

    def test_perfect_correction_through_noiseless_operator(self):
        iso = q.random_isometry(2, 8, 42)
        noise = q.identity_channel(8)
        x = q.fidelity_operator_recovery(iso.as_channel(), noise)
        f = q.quadratic_fidelity(x, q.reversal_recovery(iso))
        assert abs(f - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            q.fidelity_operator_recovery(q.identity_channel(2),
                                         q.identity_channel(4))


def identity_objective(d):
    v = np.eye(d, dtype=complex).ravel().conj()
    x = np.outer(v.conj(), v) / d ** 2
    return q.FidelityOperator((x + x.conj().T) / 2, (d, d))


class TestOptimizeHalf:
    def test_identity_objective_reaches_unitary(self):
        d = 3
        x = identity_objective(d)
        initial = q.random_isometry(d, d, 77).as_channel()
        res = q.optimize_half(x, initial, q.SolveOptions())
        assert abs(res.fidelity - 1.0) < 1e-9
        u = res.channel.kraus[0]
        assert abs(abs(np.trace(u)) - d) < 1e-6

    def test_fixed_point_unchanged(self):
        d = 2
        x = identity_objective(d)
        opts = q.SolveOptions()
        res = q.optimize_half(x, q.identity_channel(d), opts)
        assert abs(res.fidelity - 1.0) < opts.inner_tol

    def test_never_below_start(self):
        noise = q.tensor_power(q.amplitude_damping(0.25), 2)
        enc = q.random_isometry(2, 4, 9).as_channel()
        x = q.fidelity_operator_recovery(enc, noise)
        start = random_channel(4, 2, 4, 10)
        f0 = q.quadratic_fidelity(x, start)
        res = q.optimize_half(x, start, q.SolveOptions())
        assert res.fidelity >= f0

    def test_output_is_cptp(self):
        noise = q.tensor_power(q.amplitude_damping(0.4), 2)
        enc = q.random_isometry(2, 4, 11).as_channel()
        x = q.fidelity_operator_recovery(enc, noise)
        res = q.optimize_half(x, random_channel(4, 2, 4, 12), q.SolveOptions())
        s = sum(k.conj().T @ k for k in res.channel.kraus)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-8)

    def test_shape_mismatch(self):
        x = identity_objective(2)
        with pytest.raises(ValueError, match="free shape"):
            q.optimize_half(x, q.identity_channel(3), q.SolveOptions())


class TestOptimizeEncodingIsometric:
    def test_noiseless_stays_optimal(self):
        noise = q.identity_channel(8)
        iso = q.random_isometry(2, 8, 13)
        rec = q.reversal_recovery(iso)
        y = q.fidelity_operator_encoding(rec, noise)
        out, f, _, _ = q.optimize_encoding_isometric(y, iso, q.SolveOptions())
        assert f >= 1.0 - 1e-10
        dev = np.max(np.abs(out.v.conj().T @ out.v - np.eye(2)))
        assert dev < 1e-10

    def test_reoptimizing_does_not_decrease(self):
        gamma = 0.2
        opts = q.SolveOptions(seed=3, restarts=3, max_outer_rounds=20)
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        y = q.fidelity_operator_encoding(res.recovery, noise)
        assert res.encoder_isometry is not None
        _, f, _, _ = q.optimize_encoding_isometric(y, res.encoder_isometry, opts)
        assert f >= res.fidelity - opts.inner_tol


class TestOracle:
    def test_identity_objective(self):
        f = q.oracle_optimize(identity_objective(2), iters=400)
        assert abs(f - 1.0) < 1e-6

    def test_agrees_with_power_step_on_fixed_code_recovery(self):
        gamma = 0.2
        opts = q.SolveOptions()
        enc = q.leung_encoder()
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        res = q.optimize_recovery_multistart(enc, noise, opts, rng_seed=0)
        x = q.fidelity_operator_recovery(enc.as_channel(), noise)
        orc = q.oracle_optimize(x, iters=800)
        assert abs(res.fidelity - orc) < 1e-6

    def test_real_and_complex_ascents_agree(self):
        # A phase on the output factor maps CPTP Choi matrices onto CPTP
        # Choi matrices, so it leaves the optimum in place but makes X
        # complex: the float64 ascent against the complex128 one.
        x = q.fidelity_operator_recovery(q.identity_channel(2), q.amplitude_damping(0.3))
        w = np.kron(np.diag(np.exp(1j * np.array([0.4, 1.3]))), np.eye(2))
        xc = q.optimizer.FidelityOperator(w @ x.x @ w.conj().T, x.free_shape)
        assert not np.any(x.x.imag) and np.any(xc.x.imag)
        assert abs(q.oracle_optimize(x, iters=20) - q.oracle_optimize(xc, iters=20)) < 1e-12

    def test_single_qubit_recovery_vs_unitary_brute_force(self):
        gamma = 0.3
        noise = q.amplitude_damping(gamma)
        x = q.fidelity_operator_recovery(q.identity_channel(2), noise)
        orc = q.oracle_optimize(x, iters=800)
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


class TestSeesaw:
    def test_noiseless_short_circuit(self):
        res = q.seesaw(q.amplitude_damping(0.0), 4, q.SolveOptions())
        assert res.fidelity == 1.0
        assert res.converged

    def test_full_damping_endpoint(self):
        res = q.seesaw(q.amplitude_damping(1.0), 4, q.SolveOptions(seed=7))
        assert res.fidelity >= 0.25

    def test_strict_improvement_over_fixed_code(self):
        gamma = 0.2
        opts = q.SolveOptions(seed=7)
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        leung = q.optimize_recovery_multistart(
            q.leung_encoder(), noise, opts,
            rng_seed=opts.seed + LEUNG_RESTART_INDEX)
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        # margin recorded at build time: ~6e-3 for this seed
        assert res.fidelity > leung.fidelity + 10 * opts.outer_tol

    def test_seeded_dominance(self):
        gamma = 0.35
        opts = q.SolveOptions(seed=5, restarts=3, max_outer_rounds=40)
        noise = q.tensor_power(q.amplitude_damping(gamma), 4)
        leung = q.optimize_recovery_multistart(
            q.leung_encoder(), noise, opts,
            rng_seed=opts.seed + LEUNG_RESTART_INDEX).fidelity
        bare = q.channel_fidelity(q.amplitude_damping(gamma))
        res = q.seesaw(q.amplitude_damping(gamma), 4, opts)
        assert res.fidelity >= max(bare, leung) - 1e-9

    def test_monotone_traces_all_restarts(self):
        opts = q.SolveOptions(seed=2, restarts=3, max_outer_rounds=25)
        res = q.seesaw(q.amplitude_damping(0.3), 4, opts)
        assert res.restart_traces is not None
        for trace in res.restart_traces:
            assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert res.fidelity == res.fidelity_trace[-1]

    def test_deterministic(self):
        opts = q.SolveOptions(seed=11, restarts=3, max_outer_rounds=20)
        a = q.seesaw(q.amplitude_damping(0.4), 4, opts)
        b = q.seesaw(q.amplitude_damping(0.4), 4, opts)
        assert a.fidelity == b.fidelity
        assert a.fidelity_trace == b.fidelity_trace
        assert a.best_restart_seed == b.best_restart_seed

    def test_returned_channels_are_cptp(self):
        res = q.seesaw(q.amplitude_damping(0.3), 2,
                       q.SolveOptions(seed=1, restarts=2, max_outer_rounds=20))
        for c in (res.encoder, res.recovery):
            s = sum(k.conj().T @ k for k in c.kraus)
            np.testing.assert_allclose(s, np.eye(c.d_in), atol=1e-8)

    def test_warm_start_seed_is_used(self):
        opts = q.SolveOptions(seed=4, restarts=2, max_outer_rounds=15)
        first = q.seesaw(q.amplitude_damping(0.3), 4, opts)
        assert first.encoder_isometry is not None
        warm = q.seesaw(q.amplitude_damping(0.35), 4, opts,
                        extra_seed_encoders=[first.encoder_isometry])
        assert warm.restarts_used == opts.restarts + 1

    @pytest.mark.parametrize("warm", [q.random_isometry(3, 8, 1), q.random_isometry(2, 16, 1),
                                      np.eye(8, 2)])
    def test_rejects_a_warm_start_that_is_not_a_2_to_2n_isometry(self, warm):
        with pytest.raises(ValueError, match="warm-start encoder 0 must be a 2 -> 8 isometry"):
            q.seesaw(q.amplitude_damping(0.3), 3, q.SolveOptions(restarts=2),
                     extra_seed_encoders=[warm])

    def test_rejects_non_qubit_noise(self):
        with pytest.raises(ValueError, match="single-qubit"):
            q.seesaw(q.identity_channel(4), 2, q.SolveOptions())


class TestSolveOptions:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError, match="positive"):
            q.SolveOptions(inner_tol=0.0)

    @pytest.mark.parametrize("field", ["inner_tol", "outer_tol"])
    def test_rejects_nan_tolerances(self, field):
        with pytest.raises(ValueError, match="positive"):
            q.SolveOptions(**{field: float("nan")})

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError, match=">= 1"):
            q.SolveOptions(kraus_rank_recovery=0)

    @pytest.mark.parametrize("field, value", [
        ("max_inner_iters", 2.5), ("max_outer_rounds", 1.5), ("restarts", 2.5),
        ("kraus_rank_recovery", 2.5), ("seed", 7.0), ("restarts", True),
        ("max_inner_iters", "10")])
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

    def test_real_draw_is_float64_and_complete(self):
        c = q.random_cptp(16, 2, 16, np.random.default_rng(0), real=True)
        assert all(k.dtype == np.float64 for k in c.kraus)
        np.testing.assert_allclose(sum(k.T @ k for k in c.kraus), np.eye(16), atol=1e-9)

    def test_rejects_insufficient_rank(self):
        with pytest.raises(ValueError, match="rank"):
            q.random_cptp(16, 2, 4, np.random.default_rng(0))
