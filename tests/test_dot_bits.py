"""a.dot(b) and a @ b give the same bits on every layout the per-round code
multiplies.

The plant step, the controllers' act, the generators' emit and observe, the
rollout quadratic, the trust-region solve and the Riccati and game
iterations write their products as a.dot(b), which skips the ufunc
dispatch of @ and reaches the same BLAS routine.  runs.jsonl and both score
tables are pinned byte for byte, so a numpy release that routed the two
forms to different kernels (or summed in a different order) would silently
move every record; this test fails first.  The layouts are the ones those
sites use: C-contiguous and transposed matrices times a vector, a sliced
block G[:-1, :-1] times a vector, a vector times a matrix, a dot product,
and matrix products of C-contiguous, transposed and column-sliced operands,
including A.dot(A.T); at sizes 1 to 65 and on the 76 x 520 unroll map of
the adversary-n64 workload (d_x 8, d_u 4, d_w 4, H 4, with a state gain).

Not every layout agrees.  A transposed operand that is not one memory
segment, such as M[:, :-1].T, is copied by dot, while matmul hands BLAS the
strided transpose, and with numpy 2.4 the bits differ at some sizes
(17 x 17, and 2 x 64 times 64 x 2, among others).  No converted site
multiplies such an operand; GPC's overlapping window view, which matmul
reads with its own strided loop, keeps @ for the same reason.
"""

import numpy as np

from motrbench.cdg import unroll_map
from motrbench.lds import CostWeights, random_system

SIZES = range(1, 66)


def _same_bits(a, b):
    left, right = a.dot(b), a @ b
    return left.shape == right.shape and np.asarray(left).tobytes() == np.asarray(right).tobytes()


def _layouts(rng, n, m):
    """Operand pairs (a, b) with the layouts of the converted products."""
    A = rng.standard_normal((n, m))
    G = rng.standard_normal((n + 1, m + 1))
    Bt = rng.standard_normal((m, n)).T  # transposed, (n, m)
    Ct = rng.standard_normal((n, m)).T  # transposed, (m, n)
    x, y = rng.standard_normal(m), rng.standard_normal(n)
    M = rng.standard_normal((m, n))
    Mwide = rng.standard_normal((m, n + 1))
    return [
        (A, x),                    # C-contiguous matrix times vector
        (Bt, x),                   # transposed matrix times vector
        (G[:-1, :-1], x),          # sliced block times vector
        (y, A),                    # vector times matrix
        (x, x),                    # dot product
        (A, M),                    # C times C
        (Bt, M),                   # transposed times C
        (A, Ct),                   # C times transposed
        (A, Mwide[:, :-1]),        # C times a column-sliced C
        (M.T, Mwide[:, :-1]),      # transposed times a column-sliced C
        (A, A.T),                  # A A': the symmetric rank-k update
        (A.T, A),                  # A'A
    ]


def test_dot_matches_matmul_bit_for_bit_at_sizes_1_to_65():
    rng = np.random.default_rng(20240)
    cases = mismatches = 0
    for n in SIZES:
        for m in sorted({1, 2, 3, 4, 5, 8, 64, 65, n}):
            for a, b in _layouts(rng, n, m):
                cases += 1
                mismatches += not _same_bits(a, b)
    assert cases > 4000
    assert mismatches == 0


def test_dot_matches_matmul_on_the_rollout_quadratic_of_the_n64_unroll_map():
    sys = random_system(8, 4, 4, seed=3, target_radius=0.9)
    rng = np.random.default_rng(7)
    unroll = unroll_map(sys, 4, rng.standard_normal((4, 8)))
    assert unroll.E.shape == (76, 520)
    root = rng.standard_normal((8, 8))
    Q = CostWeights(root @ root.T + np.eye(8), np.eye(4)).Q
    q_root = np.linalg.cholesky(Q).T
    for _ in range(20):
        history = rng.standard_normal(76)
        assert _same_bits(history, unroll.E)
        Tb = history.dot(unroll.E).reshape(8, -1)
        assert _same_bits(Q, Tb)
        assert _same_bits(Tb.T, Q.dot(Tb))
        assert _same_bits(q_root, Tb[:, :-1])
        G = Tb.T.dot(Q.dot(Tb))
        v = rng.standard_normal(64)
        assert _same_bits(G[:-1, :-1], v)
        assert _same_bits(v, G[:-1, :-1].dot(v))
