"""Kernel primitives checked against closed forms and identities, and the
Hermitian eigendecomposition that ``from_choi`` does at the boundary."""

import numpy as np
import pytest

from dense import real_channel
from seesawqec import linalg
from seesawqec.channels import ChoiMatrix, amplitude_damping, from_choi, to_choi
from seesawqec.optimizer import random_cptp


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
    """The Hermitian eigendecomposition inside ``from_choi``: the Kraus
    operators are the eigenvectors scaled by the roots of their eigenvalues,
    weight descending."""

    def test_diagonal(self):
        ks = from_choi(ChoiMatrix(np.diag([0.75, 0.25]), d_in=1, d_out=2)).kraus
        np.testing.assert_allclose(np.abs(np.hstack(ks)), np.diag([np.sqrt(0.75), 0.5]),
                                   atol=1e-14)

    def test_pauli_x(self):
        # Eigenvalues 1 and -1: the smallest is found and refused.
        with pytest.raises(ValueError, match=r"not PSD: eigenvalue -1\.000e\+00"):
            from_choi(ChoiMatrix(np.array([[0, 1], [1, 0]], dtype=complex), 1, 2))

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_reconstruction(self, n):
        d_in = {2: 1, 8: 2, 64: 8}[n]
        c = to_choi(random_cptp(d_in, n // d_in, n, np.random.default_rng(n)))
        u = np.stack([k.ravel() for k in from_choi(c).kraus])
        w = np.sum(np.abs(u) ** 2, axis=1)
        assert len(u) == n and np.all(np.diff(w) <= 0)
        np.testing.assert_allclose(u.T @ u.conj(), c.matrix, atol=1e-10)
        np.testing.assert_allclose(u.conj() @ u.T, np.diag(w), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            from_choi(ChoiMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2))


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
        r = linalg.inv_sqrt_psd(m, 1e-12)
        assert r.dtype == np.float64
        np.testing.assert_allclose(r, linalg.inv_sqrt_psd(m.astype(complex), 1e-12),
                                   atol=1e-12)
        u = np.stack([k.ravel() for k in real_channel(2, 3, 6, rng).kraus])
        ks = from_choi(ChoiMatrix(u.T @ u, 2, 3)).kraus
        v = np.stack([k.ravel() for k in ks])
        assert v.dtype == np.float64
        np.testing.assert_allclose(v.T @ v, u.T @ u, atol=1e-12)

    @pytest.mark.parametrize("entry, match", [(np.nan, "NaN"), (np.inf, "Inf")])
    def test_rejects_non_finite_entries(self, entry, match):
        m = np.eye(4)
        m[0, 1] = entry
        with pytest.raises(ValueError, match=match):
            from_choi(ChoiMatrix(m, 2, 2))
