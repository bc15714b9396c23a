"""Kernel primitives checked against direct-summation oracles."""

import numpy as np
import pytest

from seesawqec import linalg
from seesawqec.channels import amplitude_damping


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestMatmul:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.matmul(np.eye(2), np.eye(2)), np.eye(2))

    def test_diagonal(self):
        d = np.diag([1.0, np.sqrt(0.75)])
        np.testing.assert_allclose(linalg.matmul(d, d), np.diag([1.0, 0.75]),
                                   atol=1e-15)

    def test_damping_kraus_products(self):
        # independent scalar arithmetic: K1 K0 has the single entry
        # sqrt(0.36) * sqrt(0.64) = 0.6 * 0.8 = 0.48 at (0, 1),
        # while K0 K1 has 1 * 0.6 = 0.6 there.
        k0, k1 = amplitude_damping(0.36).kraus
        p = linalg.matmul(k1, k0)
        assert abs(p[0, 1] - 0.48) < 1e-15
        p[0, 1] = 0.0
        assert np.max(np.abs(p)) == 0.0
        assert abs(linalg.matmul(k0, k1)[0, 1] - 0.6) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 3\)"):
            linalg.matmul(np.eye(2), np.eye(3))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = linalg.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_damping_k1_square(self):
        gamma = 0.37
        k1 = amplitude_damping(gamma).kraus[1]
        out = linalg.kron(k1, k1)
        nz = np.argwhere(np.abs(out) > 0)
        assert nz.shape[0] == 1
        # index enumeration: (0*2+0, 1*2+1)
        assert tuple(nz[0]) == (0, 3)
        assert abs(out[0, 3] - gamma) < 1e-15

    def test_associativity_exact_on_integer_entries(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.integers(-5, 5, (2, 3)).astype(complex),
                   rng.integers(-5, 5, (2, 2)).astype(complex),
                   rng.integers(-5, 5, (3, 2)).astype(complex))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        np.testing.assert_array_equal(left, right)

    def test_associativity_generic(self):
        # complex multiplication rounds, so generic entries agree to 1 ulp
        rng = np.random.default_rng(12)
        a, b, c = (rand_complex(rng, 2, 3), rand_complex(rng, 2, 2),
                   rand_complex(rng, 3, 2))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        np.testing.assert_allclose(left, right, rtol=1e-15, atol=0)


def partial_trace_oracle(m, dims, keep):
    """Direct index summation, independent of the reshape-based path."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    out_side = int(np.prod(kept_dims)) if keep else 1
    out = np.zeros((out_side, out_side), dtype=complex)

    def unpack(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def pack(idx, ds):
        flat = 0
        for i, d in zip(idx, ds):
            flat = flat * d + i
        return flat

    side = int(np.prod(dims))
    for r in range(side):
        for c in range(side):
            ri, ci = unpack(r), unpack(c)
            if any(ri[t] != ci[t] for t in traced):
                continue
            out[pack([ri[i] for i in keep], kept_dims),
                pack([ci[i] for i in keep], kept_dims)] += m[r, c]
    return out


class TestPartialTrace:
    def test_identity(self):
        out = linalg.partial_trace(np.eye(4), (2, 2), keep={0})
        np.testing.assert_allclose(out, 2 * np.eye(2))

    def test_product_state(self):
        rng = np.random.default_rng(3)
        rho = rand_complex(rng, 3, 3)
        sigma = rand_complex(rng, 2, 2)
        out = linalg.partial_trace(np.kron(rho, sigma), (3, 2), keep={0})
        np.testing.assert_allclose(out, np.trace(sigma) * rho, atol=1e-12)

    def test_full_trace(self):
        rng = np.random.default_rng(4)
        m = rand_complex(rng, 6, 6)
        out = linalg.partial_trace(m, (2, 3), keep=set())
        assert out.shape == (1, 1)
        np.testing.assert_allclose(out[0, 0], np.trace(m), atol=1e-12)

    @pytest.mark.parametrize("dims,keep", [((2, 2), (0,)), ((2, 3), (1,)),
                                           ((2, 2, 2), (0, 2)), ((3, 2, 2), (1,))])
    def test_against_summation_oracle(self, dims, keep):
        rng = np.random.default_rng(hash((dims, keep)) % 2**31)
        side = int(np.prod(dims))
        m = rand_complex(rng, side, side)
        np.testing.assert_allclose(linalg.partial_trace(m, dims, keep),
                                   partial_trace_oracle(m, dims, keep), atol=1e-12)

    def test_linearity_and_trace_preservation(self):
        rng = np.random.default_rng(5)
        a = rand_complex(rng, 8, 8)
        b = rand_complex(rng, 8, 8)
        pa = linalg.partial_trace(a, (2, 2, 2), (1,))
        pb = linalg.partial_trace(b, (2, 2, 2), (1,))
        pab = linalg.partial_trace(0.3 * a + 0.7 * b, (2, 2, 2), (1,))
        np.testing.assert_allclose(pab, 0.3 * pa + 0.7 * pb, atol=1e-12)
        np.testing.assert_allclose(np.trace(pa), np.trace(a), atol=1e-12)

    def test_inconsistent_dims(self):
        with pytest.raises(ValueError, match="inconsistent"):
            linalg.partial_trace(np.eye(4), (2, 3), keep={0})


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
        np.testing.assert_allclose(linalg.inv_sqrt_psd(np.eye(3)), np.eye(3),
                                   atol=1e-14)

    def test_diagonal(self):
        out = linalg.inv_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_full_rank_inverse_property(self):
        rng = np.random.default_rng(9)
        g = rand_complex(rng, 6, 6)
        m = g @ g.conj().T + 0.1 * np.eye(6)
        r = linalg.inv_sqrt_psd(m)
        np.testing.assert_allclose(r @ m @ r, np.eye(6), atol=1e-9)
        # Hermitian and commutes with m
        np.testing.assert_allclose(r, r.conj().T, atol=1e-10)
        np.testing.assert_allclose(r @ m, m @ r, atol=1e-9)

    def test_rank_deficient_support(self):
        m = np.diag([4.0, 0.0])
        out = linalg.inv_sqrt_psd(m)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            linalg.inv_sqrt_psd(np.diag([1.0, -1e-3]))

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

    def test_stack_checks_every_matrix(self):
        ms = np.stack([np.eye(2), np.diag([1.0, -1e-3])])
        with pytest.raises(ValueError, match="not PSD"):
            linalg.inv_sqrt_psd(ms)
        ms[1] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.inv_sqrt_psd(ms)
        ms[1] = [[np.nan, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="NaN"):
            linalg.inv_sqrt_psd(ms)
        with pytest.raises(ValueError, match="positive"):
            linalg.inv_sqrt_psd(np.stack([np.eye(2)] * 2), np.array([1e-12, 0.0]))


class TestVec:
    def test_identity_entries(self):
        np.testing.assert_array_equal(linalg.vec(np.eye(2)), [1, 0, 0, 1])

    def test_inner_product_is_trace(self):
        rng = np.random.default_rng(13)
        for rows, cols in [(2, 2), (3, 5), (4, 1)]:
            a = rand_complex(rng, rows, cols)
            b = rand_complex(rng, rows, cols)
            ip = np.vdot(linalg.vec(a), linalg.vec(b))
            np.testing.assert_allclose(ip, np.trace(a.conj().T @ b), atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(14)
        a = rand_complex(rng, 3, 4)
        np.testing.assert_array_equal(linalg.unvec(linalg.vec(a), 3, 4), a)

    def test_unvec_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            linalg.unvec(np.zeros(5), 2, 2)
