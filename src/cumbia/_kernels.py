"""The pairwise K-smallest kernel.

The single expensive operation in the whole pipeline is, for every pair of
rows (i, j) of an n x m matrix R, averaging the K smallest values of
{R[i, k] + R[j, k] : k < m}. For n in the thousands this is the dominant
cost.

The K smallest values are summed in ascending order and divided by K last,
so every entry is a fixed sequence of floating-point operations and the
result does not depend on how the selection is carried out.
"""

import numpy as np

from .errors import ParameterError


def backend_name():
    """Name of the kernel implementation; the benchmark records it."""
    return "numpy"


def pair_mean_k_smallest(R, K):
    """Symmetric n x n matrix of K-smallest-sum averages over row pairs.

    Entry (i, j) is the mean of the K smallest values of R[i] + R[j]
    (elementwise sums over the m columns); the diagonal is zero. K must
    already be clamped to at most m by the caller.
    """
    R = np.ascontiguousarray(R, dtype=np.float64)
    n, m = R.shape
    if not 1 <= K <= m:
        raise ParameterError(f"K={K} outside [1, {m}]")
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        sums = R[i] + R[i + 1:]
        if K < m:
            part = np.partition(sums, K - 1, axis=1)[:, :K]
        else:
            part = sums
        part = np.sort(part, axis=1)
        acc = part[:, 0].copy()
        for t in range(1, K):
            acc += part[:, t]
        acc /= K
        out[i, i + 1:] = acc
        out[i + 1:, i] = acc
    return out
