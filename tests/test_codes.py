"""Encoder constructors and hand-built recoveries."""

import numpy as np
import pytest

import seesawqec as q


class TestLeungEncoder:
    def test_logical_zero(self):
        v = q.leung_encoder().v
        col = v[:, 0]
        nz = np.flatnonzero(np.abs(col) > 0)
        np.testing.assert_array_equal(nz, [0, 15])
        np.testing.assert_allclose(col[nz], 1 / np.sqrt(2))

    def test_logical_one(self):
        col = q.leung_encoder().v[:, 1]
        nz = np.flatnonzero(np.abs(col) > 0)
        np.testing.assert_array_equal(nz, [3, 12])
        np.testing.assert_allclose(col[nz], 1 / np.sqrt(2))

    def test_isometry_exact(self):
        v = q.leung_encoder().v
        gram = v.conj().T @ v
        assert abs(gram[0, 0] - 1.0) < 1e-15
        assert abs(gram[1, 1] - 1.0) < 1e-15
        assert abs(gram[0, 1]) == 0.0


class TestTrivialEmbedding:
    def test_single_qubit(self):
        np.testing.assert_array_equal(q.trivial_embedding(1).v, np.eye(2))

    def test_four_qubits(self):
        v = q.trivial_embedding(4).v
        np.testing.assert_array_equal(np.flatnonzero(v[:, 0]), [0])
        np.testing.assert_array_equal(np.flatnonzero(v[:, 1]), [8])

    def test_partial_trace_recovery_reproduces_bare_fidelity(self):
        gamma = 0.33
        n = 4
        enc = q.trivial_embedding(n)
        noise = q.tensor_power(q.amplitude_damping(gamma), n)
        rec = q.partial_trace_recovery(n)
        total = q.compose(q.compose(enc, noise), rec)
        bare = q.channel_fidelity(q.amplitude_damping(gamma))
        assert abs(q.channel_fidelity(total) - bare) < 1e-12


class TestRandomIsometry:
    @pytest.mark.parametrize("seed", range(100))
    def test_isometry_property(self, seed):
        iso = q.random_isometry(2, 16, seed)
        dev = np.max(np.abs(iso.v.conj().T @ iso.v - np.eye(2)))
        assert dev < 1e-10

    def test_deterministic(self):
        a = q.random_isometry(3, 7, 99)
        b = q.random_isometry(3, 7, 99)
        np.testing.assert_array_equal(a.v, b.v)

    def test_square_gives_unitary(self):
        u = q.random_isometry(4, 4, 5).v
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError, match="d_out >= d_in"):
            q.random_isometry(4, 2, 0)


class TestIsometryType:
    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError, match="deviates"):
            q.Isometry(np.ones((4, 2)))

    def test_channel_from_isometry_is_complete(self):
        c = q.leung_encoder()
        s = sum(k.conj().T @ k for k in c.kraus)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-9)

    def test_is_a_channel_of_one_kraus_operator(self):
        enc = q.leung_encoder()
        assert isinstance(enc, q.Channel)
        assert enc.kraus.shape == (1, 16, 2)
        np.testing.assert_array_equal(enc.v, enc.kraus[0])

    def test_composes_as_it_is(self):
        noise = q.tensor_power(q.amplitude_damping(0.3), 4)
        c = q.compose(q.leung_encoder(), noise)
        assert (len(c.kraus), c.d_out, c.d_in) == (16, 16, 2)

    def test_copies_the_input(self):
        v = q.leung_encoder().v.copy()
        enc = q.Isometry(v)
        v *= 2
        np.testing.assert_allclose(enc.v.conj().T @ enc.v, np.eye(2), atol=1e-12)

    def test_v_is_read_only(self):
        enc = q.leung_encoder()
        with pytest.raises(ValueError, match="read-only"):
            enc.v[0, 0] = 1.0

    def test_checks_completeness_tighter_than_a_channel(self):
        # V^dag V misses I by 5e-10: between ISOMETRY_TOL and COMPLETENESS_TOL.
        # The Channel constructor runs the one check, at the Isometry's tolerance.
        v = q.leung_encoder().v.copy()
        v[0, 0] *= 1 + 5e-10
        with pytest.raises(ValueError, match=r"completeness violated: .* by 5\.0"):
            q.Isometry(v)
        assert q.Channel(v[None]).kraus.shape == (1, 16, 2)
