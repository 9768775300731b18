"""The block oracle of a CDG policy, shared by the tests that check the
pipeline's vector and stacked-matrix arithmetic against it."""

import numpy as np


def policy_sum(blocks, past):
    """sum_i blocks[i] @ past[i]: the disturbance of the (H, d_w, d_u)
    policy blocks on its past controls, most recent first.  A history
    shorter than H sums the controls it has."""
    w = np.zeros(blocks.shape[1])
    for block, u in zip(blocks, past):
        w = w + block @ u
    return w
