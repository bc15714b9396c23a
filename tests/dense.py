"""Dense reference build of the encoding half's fidelity operator, and
random channels with real Kraus operators.

The library builds this operator qubit by qubit
(``seesawqec.optimizer._encoding_operators``); the dense product over
every Kraus operator of the noise channel here is what the tests check it
against.
"""

import numpy as np

import seesawqec as q


def real_channel(d_in, d_out, rank, rng):
    """Random channel with ``rank`` real Kraus operators (needs rank * d_out >= d_in).

    The operators are the blocks of the Q factor of a real Gaussian
    [rank * d_out, d_in] matrix, whose orthonormal columns make them
    complete; the channel is float64.
    """
    qf, _ = np.linalg.qr(rng.standard_normal((rank * d_out, d_in)))
    return q.Channel(qf.reshape(rank, d_out, d_in))


def fidelity_operator_encoding(recovery, noise):
    """Fidelity operator X [D, D] for optimizing the encoding with N and R fixed.

    Built from the products ``R_k N_j`` of any noise channel; the free
    channel maps the logical space into the noise input.
    """
    if noise.d_out != recovery.d_in:
        raise ValueError(f"noise output dim {noise.d_out} does not match "
                         f"recovery input dim {recovery.d_in}")
    r, n = np.stack(recovery.kraus), np.stack(noise.kraus)
    (nk, d, m), (nj, _, c) = r.shape, n.shape
    # prods[(k, a), (j, b)] = (R_k N_j)[a, b]
    prods = r.reshape(nk * d, m) @ n.transpose(1, 0, 2).reshape(m, nj * c)
    u = prods.reshape(nk, d, nj, c).transpose(0, 2, 3, 1).reshape(nk * nj, c * d)
    x = (u.T @ u.conj()) / (d * d)
    return (x + x.conj().T) / 2
