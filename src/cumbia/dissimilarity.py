"""Joint sample-variable dissimilarities.

A matrix X_s with largest singular value lambda_1 induces the
sample-variable dissimilarity d(s_i, w_j) = sqrt(lambda_1 - (X_s)_ij),
which is the edge weight of a complete bipartite graph over samples and
variables. Distances between objects of the same kind are read off that
graph: every sample pair is connected by p two-edge paths (one per
variable) and every variable pair by N two-edge paths (one per sample),
and the distance is the mean of the K smallest path lengths. Objects of
a kind with bitwise identical edges coincide: the kernel zeroes their pairs.

joint_matrix assembles all four blocks in one bitwise symmetric
(N + p) x (N + p) buffer: sample_variable_diss writes D_sv straight into
an off-diagonal block, and the kernel reads its rows from there and writes
the two same-kind blocks straight into the diagonal blocks, so no block is
built apart and copied in. _rank_s refuses a lambda_1 above LAMBDA1_LIMIT
before any of that work, here and in shave's steps, so every entry is finite.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# re-exported for perfbench/tracer.py, its last reader of the name here
from ._kernels import identical_index_groups, pair_mean_k_smallest  # noqa: F401
from .errors import (CumbiaWarning, InputError, InvariantViolation,
                     ParameterError)
from .matrix_core import DataMatrix, _truncation_rank, svd, truncate

RADICAND_CLAMP = 1e-12
# the largest lambda_1 the joint path accepts, sqrt(float64 max), about
# 1.34e154. Every edge, kernel entry, squared dissimilarity and Gram entry
# stays below 16 lambda_1, but the double-centring's row sums and the
# Gram's eigenvalues reach about 8 (N + p) lambda_1, so the exact limit
# falls as N + p grows: a 20 x 10 input at float64 max / 64 overflows in
# those sums and then fails in dsterf. One bound for every shape leaves
# N + p a factor of 1e153; it also refuses small inputs above it that
# would not have overflowed
LAMBDA1_LIMIT = float(np.sqrt(np.finfo(np.float64).max))


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


def sample_variable_diss(X_s, lambda1, out=None):
    """Entrywise sqrt(lambda1 - X_s).

    lambda1 bounds every entry of X_s, so radicands are nonnegative up to
    rounding; values in [-1e-12 * lambda1, 0) are clamped to zero and
    anything lower is treated as an internal inconsistency. With out, a
    float64 array or view of X_s's shape, the result is written there and
    out is returned.
    """
    if not lambda1 > 0:
        raise ParameterError(f"lambda1 must be positive, got {lambda1}")
    rad = np.subtract(lambda1, np.asarray(X_s, dtype=np.float64), out=out)
    low = rad.min()
    if low < -RADICAND_CLAMP * lambda1:
        raise InvariantViolation(
            f"radicand {low} below clamp band; lambda1={lambda1} does not "
            "bound the matrix entries"
        )
    np.maximum(rad, 0.0, out=rad)
    return np.sqrt(rad, out=rad)


def _clamp(value, available, name, description, notes=None):
    """min(value, available), warning on a clamp; with a notes set, only
    once per (name, description) for the life of that set."""
    if value <= available:
        return value
    if notes is None or (name, description) not in notes:
        warnings.warn(
            f"{name}={value} exceeds the {available} {description}; "
            f"clamped to {available}",
            CumbiaWarning,
            stacklevel=3,
        )
    if notes is not None:
        notes.add((name, description))
    return available


def within_kind_diss(D_sv, K, kind, out=None):
    """Square distance matrix among samples or among variables.

    Entry (i, j) is the mean of the K smallest two-edge paths through the
    other kind; the diagonal is zero, and so are the pairs of duplicates,
    objects whose edges (rows of D_sv, or columns for variables) are
    bitwise identical (the kernel finds them). K is clamped to the other
    kind's count with a warning. With out, a square float64 array or view
    of the result's size, the matrix is written there and out is returned.
    """
    D_sv = np.asarray(D_sv, dtype=np.float64)
    if kind == "samples":
        R = D_sv
    elif kind == "variables":
        R = D_sv.T
    else:
        raise ParameterError(f"kind must be samples or variables, not {kind!r}")
    K = _clamp(K, R.shape[1], "K",
               f"available intermediaries for {kind} pairs")
    return pair_mean_k_smallest(R, K, out=out)


def _rank_s(values, f, s):
    """lambda_1 and the rank-s truncation X_s of values, which f factors;
    1 <= s <= f.r. Raises InputError if lambda_1 exceeds LAMBDA1_LIMIT."""
    lambda1 = float(f.singular_values[0])
    if lambda1 > LAMBDA1_LIMIT:
        raise InputError(
            f"largest singular value {lambda1!r} is above "
            f"{LAMBDA1_LIMIT:.3g}, where the joint dissimilarities may "
            "overflow; rescale the input")
    # rank-r truncation of X is X itself; reconstructing it through the
    # factors would only add rounding noise and break bitwise duplicate
    # detection for identical rows or columns of X
    X_s = values if s == f.r else truncate(f, s)
    return lambda1, X_s


def joint_matrix(X, cfg):
    """Assemble the full (N+p) x (N+p) dissimilarity matrix of X, its
    objects in X.objects() order (samples, then variables).

    Blocks: sample-sample and variable-variable from within_kind_diss on
    the rank-s reconstruction, written in place into the joint buffer;
    off-diagonal blocks directly from sample_variable_diss. lambda1 is
    always the top singular value of X. The SVD of X is taken here, and
    only lambda1 and X_s outlive it, so no factor is alive beside the
    joint buffer.
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    cfg.validate()
    f = svd(X)
    s = _truncation_rank(cfg.s, f.r, "truncation rank s=")
    lambda1, X_s = _rank_s(X.values, f, s)
    del f
    N, p = X.values.shape
    values = np.empty((N + p, N + p), dtype=np.float64)
    # D_sv is written straight into its block and mirrored
    D_sv = sample_variable_diss(X_s, lambda1, out=values[:N, N:])
    del X_s
    values[N:, :N] = D_sv.T
    within_kind_diss(D_sv, cfg.k_samples, "samples", out=values[:N, :N])
    within_kind_diss(D_sv, cfg.resolved_k_variables(), "variables",
                     out=values[N:, N:])
    return values
