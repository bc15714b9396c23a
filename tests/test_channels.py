"""Channel representations and the channel fidelity.

The state-based fidelity oracle here builds (T (x) id)(|Omega><Omega|)
explicitly and never touches the Kraus-trace production formula.
"""

import itertools
from functools import reduce

import numpy as np
import pytest

import seesawqec as q


def random_channel(d_in, d_out, rank, seed):
    return q.random_cptp(d_in, d_out, rank, np.random.default_rng(seed))


def fidelity_state_oracle(c):
    """F via explicit construction of (T (x) id)(|Omega><Omega|)."""
    d = c.d_in
    omega = q.max_entangled_vector(d)
    rho = np.outer(omega, omega.conj())
    ext = q.Channel([np.kron(k, np.eye(d)) for k in c.kraus])
    out = q.apply(ext, rho)
    return float(np.real(omega.conj() @ out @ omega))


def choi_oracle(c):
    """Choi matrix from the definition, input basis element by element."""
    side = c.d_in * c.d_out
    m = np.zeros((side, side), dtype=complex)
    for i in range(c.d_in):
        for j in range(c.d_in):
            e = np.zeros((c.d_in, c.d_in), dtype=complex)
            e[i, j] = 1.0
            m += np.kron(sum(k @ e @ k.conj().T for k in c.kraus), e)
    return m


def compose_reference(first, then):
    """The products B_j A_i one operator pair at a time, at row-major index (i, j)."""
    return np.array([b @ a for a in first.kraus for b in then.kraus])


def apply_reference(c, rho):
    """sum_k K rho K^dag, one Kraus operator at a time."""
    return sum(k @ rho @ k.conj().T for k in c.kraus)


def choi_sum_reference(c):
    """sum_k ravel(K) ravel(K)^dag, one Kraus operator at a time."""
    return sum(np.outer(k.ravel(), k.ravel().conj()) for k in c.kraus)


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestKrausStack:
    @pytest.mark.parametrize("ops, dtype", [
        ([np.eye(2)], np.float64),
        ([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0])], np.complex128),
        (np.eye(3, 2)[None], np.float64),
        (np.eye(2, dtype=int)[None], np.complex128),
        (np.eye(2, dtype=np.float32)[None], np.complex128),
    ], ids=["float64-list", "mixed-list", "float64-stack", "int-stack", "float32-stack"])
    def test_is_one_stack_in_the_field_of_its_input(self, ops, dtype):
        c = q.Channel(ops)
        assert isinstance(c.kraus, np.ndarray) and c.kraus.dtype == dtype
        assert c.kraus.shape == (len(ops), c.d_out, c.d_in)
        np.testing.assert_array_equal(c.kraus, np.asarray(ops))

    def test_is_read_only_and_leaves_the_input_writeable(self):
        ops = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        c = q.Channel(ops)
        with pytest.raises(ValueError, match="read-only"):
            c.kraus[0, 0, 0] = 0.5
        assert ops.flags.writeable
        ops[1, 1, 1] = 1.0

    @pytest.mark.parametrize("real", [False, True], ids=["complex128", "float64"])
    @pytest.mark.parametrize("seed", range(3))
    def test_compose_apply_and_choi_equal_per_operator_sums(self, seed, real):
        rng = np.random.default_rng(40 + seed)
        first = q.random_cptp(2, 3, 2, rng, real)
        then = q.random_cptp(3, 2, 3, rng, real)
        both = q.compose(first, then)
        assert both.kraus.shape == (6, 2, 2)
        np.testing.assert_allclose(both.kraus, compose_reference(first, then), atol=1e-14)
        for c in (first, then, both):
            rho = random_state(c.d_in, seed)
            np.testing.assert_allclose(q.apply(c, rho), apply_reference(c, rho), atol=1e-14)
            np.testing.assert_allclose(q.to_choi(c).matrix, choi_sum_reference(c),
                                       atol=1e-14)


class TestAmplitudeDamping:
    def test_gamma_zero(self):
        c = q.amplitude_damping(0.0)
        np.testing.assert_array_equal(c.kraus[0], np.eye(2))
        np.testing.assert_array_equal(c.kraus[1], np.zeros((2, 2)))

    def test_gamma_one(self):
        c = q.amplitude_damping(1.0)
        np.testing.assert_array_equal(c.kraus[0], np.diag([1.0, 0.0]))
        expect = np.zeros((2, 2))
        expect[0, 1] = 1.0
        np.testing.assert_array_equal(c.kraus[1], expect)

    def test_gamma_036(self):
        c = q.amplitude_damping(0.36)
        np.testing.assert_allclose(c.kraus[0], np.diag([1.0, 0.8]), atol=1e-15)
        assert abs(c.kraus[1][0, 1] - 0.6) < 1e-15

    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_out_of_range(self, gamma):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            q.amplitude_damping(gamma)


class TestCompose:
    def test_with_identity(self):
        c = random_channel(2, 2, 2, 21)
        out = q.compose(c, q.identity_channel(2))
        np.testing.assert_allclose(q.to_choi(out).matrix, q.to_choi(c).matrix,
                                   atol=1e-12)

    def test_damping_parameter_law(self):
        # composing dampings multiplies the survival probabilities
        a = q.compose(q.amplitude_damping(0.5), q.amplitude_damping(0.4))
        b = q.amplitude_damping(1.0 - 0.5 * 0.6)
        np.testing.assert_allclose(q.to_choi(a).matrix, q.to_choi(b).matrix,
                                   atol=1e-12)

    def test_associativity_at_choi_level(self):
        c1 = random_channel(2, 3, 2, 22)
        c2 = random_channel(3, 2, 2, 23)
        c3 = random_channel(2, 2, 3, 24)
        left = q.compose(q.compose(c1, c2), c3)
        right = q.compose(c1, q.compose(c2, c3))
        np.testing.assert_allclose(q.to_choi(left).matrix,
                                   q.to_choi(right).matrix, atol=1e-12)

    def test_kraus_count_is_product(self):
        out = q.compose(q.amplitude_damping(0.2), q.amplitude_damping(0.3))
        assert len(out.kraus) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="compose"):
            q.compose(random_channel(2, 3, 2, 25), q.identity_channel(2))


class TestTensorPower:
    def test_single_power(self):
        c = q.amplitude_damping(0.3)
        assert q.tensor_power(c, 1) is c

    def test_noiseless_fourth_power(self):
        c = q.tensor_power(q.amplitude_damping(0.0), 4)
        assert len(c.kraus) == 16
        assert c.kraus[0].shape == (16, 16)
        np.testing.assert_allclose(q.to_choi(c).matrix,
                                   q.to_choi(q.identity_channel(16)).matrix,
                                   atol=1e-12)

    def test_double_excited_population(self):
        gamma = 0.3
        c = q.tensor_power(q.amplitude_damping(gamma), 2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0  # |11><11|
        out = q.apply(c, rho)
        assert abs(out[0, 0] - gamma ** 2) < 1e-12

    def test_choi_trace(self):
        c = q.tensor_power(q.amplitude_damping(0.25), 3)
        assert abs(np.trace(q.to_choi(c).matrix) - 8.0) < 1e-9

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("channel", [
        q.amplitude_damping(0.0), q.amplitude_damping(0.3), q.amplitude_damping(1.0),
        random_channel(2, 2, 3, 40)], ids=["gamma0", "gamma0.3", "gamma1", "rank3"])
    def test_kraus_set_equals_the_kron_enumeration(self, n, channel):
        ops = q.tensor_power(channel, n).kraus
        ref = [reduce(np.kron, combo) for combo in itertools.product(channel.kraus, repeat=n)]
        assert len(ops) == len(ref)
        for a, b in zip(ops, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "2"])
    def test_rejects_non_integer_n(self, n):
        # True used to return the channel itself; 2.0 failed inside itertools.
        with pytest.raises(ValueError, match="integer"):
            q.tensor_power(q.amplitude_damping(0.3), n)

    def test_accepts_numpy_integer_n(self):
        assert len(q.tensor_power(q.amplitude_damping(0.3), np.int64(2)).kraus) == 4


class TestChoi:
    def test_identity_channel_choi(self):
        choi = q.to_choi(q.identity_channel(2))
        omega = q.max_entangled_vector(2)
        np.testing.assert_allclose(choi.matrix, 2 * np.outer(omega, omega.conj()),
                                   atol=1e-14)

    def test_full_damping_structure(self):
        c = q.amplitude_damping(1.0)
        choi = q.to_choi(c)
        np.testing.assert_allclose(choi.matrix, choi_oracle(c), atol=1e-12)
        assert abs(np.trace(choi.matrix) - 2.0) < 1e-12
        q.from_choi(choi)

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        c = random_channel(3, 2, 3, 100 + seed)
        back = q.from_choi(q.to_choi(c))
        np.testing.assert_allclose(q.to_choi(back).matrix, q.to_choi(c).matrix,
                                   atol=1e-10)
        # from_choi output is always a valid channel (completeness <= 1e-9)
        s = sum(k.conj().T @ k for k in back.kraus)
        np.testing.assert_allclose(s, np.eye(3), atol=1e-9)

    def test_from_choi_rejects_non_psd(self):
        bad = q.ChoiMatrix(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), 2, 2)
        with pytest.raises(ValueError, match="PSD"):
            q.from_choi(bad)

    @pytest.mark.parametrize("matrix, match", [
        (np.diag([2.0, 0.0, 0.0, 0.0]), "completeness"),
        (np.eye(4) / 2 + 1e-6 * np.eye(4, k=1), "Hermitian"),
        (np.eye(6) / 3, "inconsistent"),
        (np.zeros((4, 4)), "rank tolerance"),
    ], ids=["non-TP", "non-Hermitian", "wrong-side", "zero"])
    def test_from_choi_rejects_what_is_not_a_channel(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            q.from_choi(q.ChoiMatrix(matrix.astype(complex), 2, 2))

    @pytest.mark.parametrize("field", ["d_in", "d_out"])
    @pytest.mark.parametrize("dim", [2.0, True, 0, -2])
    def test_from_choi_rejects_dims_that_are_not_positive_integers(self, field, dim):
        # These used to fail inside, on a TypeError or NumPy's own reshape errors.
        dims = {"d_in": 2, "d_out": 2, field: dim}
        with pytest.raises(ValueError, match="Choi dims must be positive integers"):
            q.from_choi(q.ChoiMatrix(np.eye(4, dtype=complex), **dims))


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(31)
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(q.apply(q.identity_channel(2), rho), rho)

    def test_full_damping_contracts(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = q.apply(q.amplitude_damping(1.0), rho)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_maximally_mixed(self):
        gamma = 0.42
        out = q.apply(q.amplitude_damping(gamma), np.eye(2) / 2)
        np.testing.assert_allclose(
            out, np.diag([(1 + gamma) / 2, (1 - gamma) / 2]), atol=1e-12)

    def test_trace_preserved(self):
        c = random_channel(3, 3, 2, 32)
        rng = np.random.default_rng(33)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        assert abs(np.trace(q.apply(c, rho)) - np.trace(rho)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="input dim"):
            q.apply(q.amplitude_damping(0.1), np.eye(3))


class TestChannelFidelity:
    def test_identity_is_one(self):
        assert q.channel_fidelity(q.identity_channel(4)) == 1.0

    def test_damping_closed_form(self):
        for gamma in [0.0, 0.36, 0.7, 1.0]:
            c = q.amplitude_damping(gamma)
            expect = (1 + np.sqrt(1 - gamma)) ** 2 / 4
            assert abs(q.channel_fidelity(c) - expect) < 1e-12
            assert abs(fidelity_state_oracle(c) - expect) < 1e-12

    def test_depolarizing(self):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        c = q.Channel([p / 2 for p in paulis])
        assert abs(q.channel_fidelity(c) - 0.25) < 1e-15
        assert abs(fidelity_state_oracle(c) - 0.25) < 1e-12

    def test_requires_square(self):
        with pytest.raises(ValueError, match="d_in == d_out"):
            q.channel_fidelity(random_channel(2, 4, 2, 41))

    @pytest.mark.parametrize("seed", range(10))
    def test_triple_equivalence(self, seed):
        d = 2 if seed % 2 else 3
        c = random_channel(d, d, 2 + seed % 3, 200 + seed)
        f_kraus = q.channel_fidelity(c)
        f_state = fidelity_state_oracle(c)
        choi = q.to_choi(c).matrix
        omega = q.max_entangled_vector(d)
        f_choi = float(np.real(omega.conj() @ choi @ omega)) / d
        assert abs(f_kraus - f_state) < 1e-10
        assert abs(f_kraus - f_choi) < 1e-10

    def test_linearity_in_the_channel(self):
        d = 2
        c1 = random_channel(d, d, 2, 51)
        c2 = random_channel(d, d, 3, 52)
        for lam in [0.0, 0.3, 0.8, 1.0]:
            mix = q.ChoiMatrix(lam * q.to_choi(c1).matrix
                               + (1 - lam) * q.to_choi(c2).matrix, d, d)
            f_mix = q.channel_fidelity(q.from_choi(mix))
            expect = (lam * q.channel_fidelity(c1)
                      + (1 - lam) * q.channel_fidelity(c2))
            assert abs(f_mix - expect) < 1e-10

    def test_value_in_unit_interval(self):
        for seed in range(5):
            f = q.channel_fidelity(random_channel(2, 2, 4, 300 + seed))
            assert -1e-12 <= f <= 1.0 + 1e-12


class TestSemigroupGrid:
    def test_composition_parameter_law_grid(self):
        grid = np.linspace(0.1, 0.9, 5)
        for g in grid:
            for e in grid:
                a = q.compose(q.amplitude_damping(g), q.amplitude_damping(e))
                b = q.amplitude_damping(1.0 - (1.0 - g) * (1.0 - e))
                dev = np.max(np.abs(q.to_choi(a).matrix - q.to_choi(b).matrix))
                assert dev < 1e-12


class TestChannelValidation:
    def test_rejects_incomplete_kraus(self):
        with pytest.raises(ValueError, match="completeness"):
            q.Channel([np.diag([1.0, 0.5])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            q.Channel([])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="shapes differ"):
            q.Channel([np.eye(2), np.zeros((3, 2))])
