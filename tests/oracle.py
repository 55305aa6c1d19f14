"""Brute-force references for cumbia.joint_matrix and
cumbia.dissimilarity.identical_index_groups, used by the tests.

    from oracle import bytes_index_groups, graph_oracle
"""

import numpy as np

from cumbia import JointDissimilarity, ParameterError, sample_variable_diss
from cumbia.dissimilarity import _clamp

ORACLE_SIZE_LIMIT = 50


def bytes_index_groups(M):
    """Reference for identical_index_groups: every row keyed by its bytes,
    groups of two or more in the order of their first members."""
    seen = {}
    for i in range(M.shape[0]):
        seen.setdefault(M[i].tobytes(), []).append(i)
    return [g for g in seen.values() if len(g) > 1]


def graph_oracle(X_s, lambda1, K):
    """Brute-force reference for joint_matrix, for small inputs only.

    Builds the complete bipartite graph explicitly, enumerates every
    two-edge path per same-kind pair as (length, intermediary) tuples,
    sorts them, and averages the K smallest. Two objects of a kind whose
    edge weights in w are bitwise identical are duplicates at distance 0.
    Matches joint_matrix exactly, including the floating-point operation
    order.
    """
    X_s = np.asarray(X_s, dtype=np.float64)
    N, p = X_s.shape
    if N > ORACLE_SIZE_LIMIT or p > ORACLE_SIZE_LIMIT:
        raise ParameterError(
            f"graph oracle limited to {ORACLE_SIZE_LIMIT} objects per kind, "
            f"got {N}x{p}"
        )
    if K < 1:
        raise ParameterError(f"K={K} must be >= 1")
    w = sample_variable_diss(X_s, lambda1)
    n = N + p
    values = np.zeros((n, n), dtype=np.float64)
    values[:N, N:] = w
    values[N:, :N] = w.T

    def k_smallest_mean(paths, K):
        paths.sort()
        total = 0.0
        for t in range(K):
            total += paths[t][0]
        return total / K

    Ks = _clamp(K, p, "K", "available intermediaries for samples pairs")
    for i in range(N):
        for j in range(i + 1, N):
            paths = [(w[i, k] + w[j, k], k) for k in range(p)]
            values[i, j] = values[j, i] = k_smallest_mean(paths, Ks)
    Kv = _clamp(K, N, "K", "available intermediaries for variables pairs")
    for a in range(p):
        for b in range(a + 1, p):
            paths = [(w[k, a] + w[k, b], k) for k in range(N)]
            va, vb = N + a, N + b
            values[va, vb] = values[vb, va] = k_smallest_mean(paths, Kv)

    for group in bytes_index_groups(w):
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                values[group[x], group[y]] = 0.0
                values[group[y], group[x]] = 0.0
    for group in bytes_index_groups(w.T):
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                values[N + group[x], N + group[y]] = 0.0
                values[N + group[y], N + group[x]] = 0.0

    kinds = ["sample"] * N + ["variable"] * p
    labels = [f"s{i + 1}" for i in range(N)] + [f"v{j + 1}" for j in range(p)]
    return JointDissimilarity(values=values, object_kinds=kinds,
                              object_labels=labels)
