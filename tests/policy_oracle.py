"""The block oracle of a CDG policy, shared by the tests that check the
pipeline's vector and stacked-matrix arithmetic against it, the reading
of a round's cost from its Gram matrix, and the Gram matrix of a memory
reward given by its coefficients."""

import numpy as np

from motrbench.online import MemoryQuadratic


def policy_sum(blocks, past):
    """sum_i blocks[i] @ past[i]: the disturbance of the (H, d_w, d_u)
    policy blocks on its past controls, most recent first.  A history
    shorter than H sums the controls it has."""
    w = np.zeros(blocks.shape[1])
    for block, u in zip(blocks, past):
        w = w + block @ u
    return w


def gram_cost(G, v):
    """[v; 1]' G [v; 1], read from the blocks of the rollout cost's Gram
    matrix G as v'Pv + 2q'v + c, in the generator round's order."""
    return float(v @ (G[:-1, :-1] @ v + 2.0 * G[:-1, -1]) + G[-1, -1])


def memory_quadratic(P, p, const, d, H):
    """The MemoryQuadratic of the reward z'Pz + p'z + const over the stacked
    plays z: the Gram matrix [[P, p/2], [p'/2, const]]."""
    n = d * H
    G = np.empty((n + 1, n + 1))
    G[:-1, :-1] = P
    G[:-1, -1] = G[-1, :-1] = 0.5 * np.asarray(p, dtype=float)
    G[-1, -1] = const
    return MemoryQuadratic(G, d, H)
