"""Kernel primitives checked against closed forms and identities."""

import numpy as np
import pytest

from seesawqec import linalg
from seesawqec.channels import amplitude_damping


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestMatmul:
    def test_damping_kraus_products(self):
        # independent scalar arithmetic: K1 K0 has the single entry
        # sqrt(0.36) * sqrt(0.64) = 0.6 * 0.8 = 0.48 at (0, 1),
        # while K0 K1 has 1 * 0.6 = 0.6 there.
        k0, k1 = amplitude_damping(0.36).kraus
        p = k1 @ k0
        assert abs(p[0, 1] - 0.48) < 1e-15
        p[0, 1] = 0.0
        assert np.max(np.abs(p)) == 0.0
        assert abs((k0 @ k1)[0, 1] - 0.6) < 1e-15


class TestHermEig:
    def test_diagonal(self):
        w, v = linalg.herm_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        w, _ = linalg.herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        g = rand_complex(rng, n, n)
        h = g + g.conj().T
        w, v = linalg.herm_eig(h)
        assert np.all(np.diff(w) <= 0)
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestInvSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(linalg.inv_sqrt_psd(np.eye(3), 1e-12), np.eye(3),
                                   atol=1e-14)

    def test_diagonal(self):
        out = linalg.inv_sqrt_psd(np.diag([4.0, 9.0]), 1e-12)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_full_rank_inverse_property(self):
        rng = np.random.default_rng(9)
        g = rand_complex(rng, 6, 6)
        m = g @ g.conj().T + 0.1 * np.eye(6)
        r = linalg.inv_sqrt_psd(m, 1e-12)
        np.testing.assert_allclose(r @ m @ r, np.eye(6), atol=1e-9)
        # Hermitian and commutes with m
        np.testing.assert_allclose(r, r.conj().T, atol=1e-10)
        np.testing.assert_allclose(r @ m, m @ r, atol=1e-9)

    def test_rank_deficient_support(self):
        m = np.diag([4.0, 0.0])
        out = linalg.inv_sqrt_psd(m, 1e-12)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(4)
        g = rand_complex(rng, 6, 6).reshape(3, 2, 6)
        ms = g @ g.conj().swapaxes(1, 2)
        ms[2] = np.diag([4.0, 1e-9])        # the second eigenvalue is under its floor
        eps = np.array([1e-12, 1e-12, 1e-6])
        out = linalg.inv_sqrt_psd(ms, eps)
        for m, e, r in zip(ms, eps, out):
            np.testing.assert_allclose(r, linalg.inv_sqrt_psd(m, e), atol=1e-12)
        np.testing.assert_allclose(out[2], np.diag([0.5, 0.0]), atol=1e-14)


class TestRealInput:
    """Float64 input stays float64, and every check still fires on it.

    The Hermiticity check on float64 input is tested above.
    """

    def test_results_are_float64_and_match_the_complex_path(self):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((6, 6))
        m = g @ g.T + 0.1 * np.eye(6)
        w, v = linalg.herm_eig(m)
        r = linalg.inv_sqrt_psd(m, 1e-12)
        assert [a.dtype for a in (w, v, r)] == [np.float64] * 3
        np.testing.assert_allclose((v * w) @ v.T, m, atol=1e-12)
        np.testing.assert_allclose(r, linalg.inv_sqrt_psd(m.astype(complex), 1e-12),
                                   atol=1e-12)

    @pytest.mark.parametrize("entry, match", [(np.nan, "NaN"), (np.inf, "Inf")])
    def test_rejects_non_finite_entries(self, entry, match):
        m = np.eye(4)
        m[0, 1] = entry
        with pytest.raises(ValueError, match=match):
            linalg.herm_eig(m)

