"""Joint sample-variable dissimilarities.

A matrix X_s with largest singular value lambda_1 induces the
sample-variable dissimilarity d(s_i, w_j) = sqrt(lambda_1 - (X_s)_ij),
which is the edge weight of a complete bipartite graph over samples and
variables. Distances between objects of the same kind are read off that
graph: every sample pair is connected by p two-edge paths (one per
variable) and every variable pair by N two-edge paths (one per sample),
and the distance is the mean of the K smallest path lengths.

joint_matrix assembles all four blocks into one symmetric
(N + p) x (N + p) matrix; graph_oracle is a deliberately naive
reimplementation used to cross-check it, and the two agree bit for bit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import pair_mean_k_smallest
from .errors import CumbiaWarning, InvariantViolation, ParameterError
from .matrix_core import DataMatrix, truncate

RADICAND_CLAMP = 1e-12


@dataclass
class CumbiaConfig:
    """Tuning knobs: truncation rank and path-averaging depths.

    s=None means full rank. k_variables=None inherits k_samples.
    """

    s: int | None = None
    k_samples: int = 3
    k_variables: int | None = None

    def resolved_k_variables(self):
        return self.k_samples if self.k_variables is None else self.k_variables

    def validate(self):
        if self.s is not None and self.s < 1:
            raise ParameterError(f"truncation rank s={self.s} must be >= 1")
        if self.k_samples < 1:
            raise ParameterError(f"k_samples={self.k_samples} must be >= 1")
        kv = self.resolved_k_variables()
        if kv < 1:
            raise ParameterError(f"k_variables={kv} must be >= 1")


@dataclass
class JointDissimilarity:
    """Symmetric nonnegative (N+p) x (N+p) dissimilarities over typed objects."""

    values: np.ndarray
    object_kinds: list
    object_labels: list

    def __post_init__(self):
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise ParameterError("dissimilarity matrix must be square")
        if len(self.object_kinds) != n or len(self.object_labels) != n:
            raise ParameterError("kind and label lists must match matrix size")

    @property
    def n_objects(self):
        return self.values.shape[0]


def sample_variable_diss(X_s, lambda1):
    """Entrywise sqrt(lambda1 - X_s).

    lambda1 bounds every entry of X_s, so radicands are nonnegative up to
    rounding; values in [-1e-12 * lambda1, 0) are clamped to zero and
    anything lower is treated as an internal inconsistency.
    """
    if not lambda1 > 0:
        raise ParameterError(f"lambda1 must be positive, got {lambda1}")
    rad = lambda1 - np.asarray(X_s, dtype=np.float64)
    low = rad.min()
    if low < -RADICAND_CLAMP * lambda1:
        raise InvariantViolation(
            f"radicand {low} below clamp band; lambda1={lambda1} does not "
            "bound the matrix entries"
        )
    np.maximum(rad, 0.0, out=rad)
    return np.sqrt(rad)


def identical_index_groups(M, axis=0):
    """Groups (size >= 2) of row indices (axis=0) or column indices (axis=1)
    whose profiles are bitwise identical."""
    A = M if axis == 0 else M.T
    seen = {}
    for i in range(A.shape[0]):
        seen.setdefault(A[i].tobytes(), []).append(i)
    return [g for g in seen.values() if len(g) > 1]


def _clamp_k(K, available, context, notes=None):
    """min(K, available), warning on a clamp; with a notes set, only once
    per context for the life of that set."""
    if K <= available:
        return K
    if notes is None or context not in notes:
        warnings.warn(
            f"K={K} exceeds the {available} available intermediaries for "
            f"{context}; clamped to {available}",
            CumbiaWarning,
            stacklevel=3,
        )
    if notes is not None:
        notes.add(context)
    return available


def within_kind_diss(D_sv, K, kind, duplicate_groups=None):
    """Square distance matrix among samples or among variables.

    Entry (i, j) is the mean of the K smallest two-edge paths through the
    other kind; the diagonal is zero, and pairs listed in duplicate_groups
    (objects with identical profiles) are forced to zero afterwards.
    """
    D_sv = np.asarray(D_sv, dtype=np.float64)
    if kind == "samples":
        R = D_sv
    elif kind == "variables":
        R = D_sv.T
    else:
        raise ParameterError(f"kind must be samples or variables, not {kind!r}")
    if K < 1:
        raise ParameterError(f"K={K} must be >= 1")
    K = _clamp_k(K, R.shape[1], f"{kind} pairs")
    out = pair_mean_k_smallest(R, K)
    for group in duplicate_groups or []:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                out[group[a], group[b]] = 0.0
                out[group[b], group[a]] = 0.0
    return out


def _blocks(values, f, s, cfg, notes=None):
    """Sample-variable block and both same-kind blocks at truncation rank s.

    values is the matrix f factors, and 1 <= s <= f.r. lambda1 is always
    the top singular value. K clamps warn through _clamp_k with notes.
    """
    # rank-r truncation of X is X itself; reconstructing it through the
    # factors would only add rounding noise and break bitwise duplicate
    # detection for identical rows or columns of X
    X_s = values if s == f.r else truncate(f, s)
    N, p = X_s.shape
    D_sv = sample_variable_diss(X_s, float(f.singular_values[0]))
    Ks = _clamp_k(cfg.k_samples, p, "samples pairs", notes)
    Kv = _clamp_k(cfg.resolved_k_variables(), N, "variables pairs", notes)
    SS = within_kind_diss(D_sv, Ks, "samples",
                          identical_index_groups(X_s, axis=0))
    VV = within_kind_diss(D_sv, Kv, "variables",
                          identical_index_groups(X_s, axis=1))
    return D_sv, SS, VV


def joint_matrix(X, f, cfg):
    """Assemble the full (N+p) x (N+p) dissimilarity matrix.

    Blocks: sample-sample and variable-variable from within_kind_diss on
    the rank-s reconstruction, off-diagonal blocks directly from
    sample_variable_diss. lambda1 is always the top singular value of X.
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    cfg.validate()
    s = f.r if cfg.s is None else cfg.s
    if not 1 <= s <= f.r:
        raise ParameterError(f"truncation rank s={s} outside [1, {f.r}]")
    D_sv, SS, VV = _blocks(X.values, f, s, cfg)
    N, p = D_sv.shape
    values = np.zeros((N + p, N + p), dtype=np.float64)
    values[:N, :N] = SS
    values[N:, N:] = VV
    values[:N, N:] = D_sv
    values[N:, :N] = D_sv.T
    kinds = ["sample"] * N + ["variable"] * p
    labels = list(X.sample_labels) + list(X.variable_labels)
    return JointDissimilarity(values=values, object_kinds=kinds,
                              object_labels=labels)


ORACLE_SIZE_LIMIT = 50


def graph_oracle(X_s, lambda1, K):
    """Brute-force reference for joint_matrix, for small inputs only.

    Builds the complete bipartite graph explicitly, enumerates every
    two-edge path per same-kind pair as (length, intermediary) tuples,
    sorts them, and averages the K smallest. Matches joint_matrix exactly,
    including the floating-point operation order.
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

    Ks = _clamp_k(K, p, "samples pairs")
    for i in range(N):
        for j in range(i + 1, N):
            paths = [(w[i, k] + w[j, k], k) for k in range(p)]
            values[i, j] = values[j, i] = k_smallest_mean(paths, Ks)
    Kv = _clamp_k(K, N, "variables pairs")
    for a in range(p):
        for b in range(a + 1, p):
            paths = [(w[k, a] + w[k, b], k) for k in range(N)]
            va, vb = N + a, N + b
            values[va, vb] = values[vb, va] = k_smallest_mean(paths, Kv)

    for group in identical_index_groups(X_s, axis=0):
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                values[group[x], group[y]] = 0.0
                values[group[y], group[x]] = 0.0
    for group in identical_index_groups(X_s, axis=1):
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                values[N + group[x], N + group[y]] = 0.0
                values[N + group[y], N + group[x]] = 0.0

    kinds = ["sample"] * N + ["variable"] * p
    labels = [f"s{i + 1}" for i in range(N)] + [f"v{j + 1}" for j in range(p)]
    return JointDissimilarity(values=values, object_kinds=kinds,
                              object_labels=labels)


def write_dissimilarity(D, path, delimiter=","):
    """Export the full symmetric matrix as delimited text.

    The header row holds object labels prefixed with "s:" or "v:" by kind;
    each body row repeats the prefixed label in the first column.
    """
    tagged = [
        ("s:" if kind == "sample" else "v:") + label
        for kind, label in zip(D.object_kinds, D.object_labels)
    ]
    lines = [delimiter.join(["object"] + tagged)]
    for i, tag in enumerate(tagged):
        row = [tag] + [repr(float(v)) for v in D.values[i]]
        lines.append(delimiter.join(row))
    from ._fsio import atomic_write_text

    atomic_write_text(path, "\n".join(lines) + "\n")
