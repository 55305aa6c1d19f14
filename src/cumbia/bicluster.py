"""Backward-elimination biclustering driven by the joint dissimilarities.

Each round recomputes the within-kind dissimilarities on the surviving
submatrix, scores every object by the mean of its K0 smallest distances to
objects of the same kind (small score = tightly embedded), and removes the
worst-scoring fraction of each kind. The full trace of nested
sample-variable sets is returned; no single step is picked as the winner.

No same-kind block is built: each kernel worker merges its rows, in its
idle scratch, into running lists of every object's K0 smallest
distances, K0 entries per object, and the scores come from those lists,
byte for byte what scoring the stored blocks would give.
A step frees its SVD factors before D_sv is built and its submatrix once
D_sv is, and scores the variables from D_sv's contiguous transpose, which
replaces D_sv; the kernel finds duplicates on the rows it reads, and each
kind's scoring clamps its own K and K0.
The peak is a few N x p float64 arrays plus, per kernel worker, its fixed
scratch, a panel and the lists (_peak_buffers).
"""

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from . import _kernels
from ._kernels import PANEL_ROWS, pair_mean_k0_smallest
from .dissimilarity import (CumbiaConfig, _clamp, _rank_s,
                            sample_variable_diss)
from .errors import ParameterError
from .matrix_core import (DataMatrix, _require_memory_for, require_finite,
                          svd)

# _peak_buffers' fixed part, fitted at 60 x 6000 (README "Memory")
FIXED_PEAK_BUFFERS = 2.0
# its part per kernel worker, fitted to the same runs
THREAD_PEAK_BUFFERS = 2.3
# its part that does not grow with N x p, fitted at 60 x 1500
FIXED_PEAK_BYTES = 2.5 * 2**20


@dataclass
class ShaveStep:
    """Survivors (original indices) and their scores at one elimination round."""

    sample_indices: np.ndarray
    variable_indices: np.ndarray
    sample_scores: np.ndarray
    variable_scores: np.ndarray


@dataclass
class ShaveTrace:
    steps: list = field(default_factory=list)


def _kind_scores(R, K, kind, k0, notes):
    """Per row of R, an object of kind, the mean of its k0 smallest
    same-kind distances over K paths, K and k0 clamped through _clamp with
    notes; objects with bitwise identical rows are at 0."""
    K = _clamp(K, R.shape[1], "K",
               f"available intermediaries for {kind} pairs", notes)
    k = _clamp(k0, R.shape[0] - 1, "K0", f"other {kind}", notes)
    return pair_mean_k0_smallest(R, K, k)


def _step_scores(X_values, rows, cols, cfg, k0, notes):
    """Sample and variable scores of the submatrix X_values[rows, cols];
    the SVD factors are freed before D_sv is built, and the submatrix
    once D_sv is."""
    values = X_values[np.ix_(rows, cols)]
    f = svd(values)
    s = f.r if cfg.s is None else _clamp(
        cfg.s, f.r, "s", "nonzero singular values of the submatrix", notes)
    lambda1, X_s = _rank_s(values, f, s)
    del values, f
    D_sv = sample_variable_diss(X_s, lambda1)
    del X_s
    s_scores = _kind_scores(D_sv, cfg.k_samples, "samples", k0, notes)
    D_sv = np.ascontiguousarray(D_sv.T)
    return s_scores, _kind_scores(D_sv, cfg.resolved_k_variables(),
                                  "variables", k0, notes)


def _peak_buffers(shape, k0):
    """shave()'s estimated resident peak in N x p float64 buffers: the
    measured parts, FIXED_PEAK_BYTES among them, plus, per object of the
    larger kind, the entries of each thread's running lists and panel
    (K0 + PANEL_ROWS, counted with PANEL_ROWS more as headroom) and of
    their final merge (K0 per thread, and 2 K0 for the shared own lists
    and their copy)."""
    threads = _kernels._worker_count()
    lists = (threads * (2 * k0 + 2 * PANEL_ROWS) + 2 * k0) / min(shape)
    return (FIXED_PEAK_BUFFERS + threads * THREAD_PEAK_BUFFERS + lists
            + FIXED_PEAK_BYTES / (8 * shape[0] * shape[1]))


def _worst(scores, count):
    # ties broken by index ascending: lexsort's last key dominates
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[:count]


def shave(X, cfg=None, k0=3, drop_fraction=0.1, min_objects=2):
    """Iteratively shave both kinds down to min_objects; return the trace.

    Every recorded step holds the surviving original indices plus the
    scores computed on that submatrix. Removal per round is
    ceil(drop_fraction * count) of each kind, clamped so neither kind
    falls below min_objects; the loop stops once either kind reaches it.
    Raises ParameterError before any SVD if X has fewer than 2 samples or
    2 variables, or if the estimated resident peak, _peak_buffers N x p
    float64 buffers, exceeds physical memory, and InputError before any
    kernel work if lambda_1 > dissimilarity.LAMBDA1_LIMIT (no submatrix's
    lambda_1 is larger than X's).
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    require_finite(X.values)
    if cfg is None:
        cfg = CumbiaConfig()
    cfg.validate()
    if k0 < 1:
        raise ParameterError(f"K0={k0} must be >= 1")
    if not 0.0 < drop_fraction < 1.0:
        raise ParameterError(
            f"drop_fraction={drop_fraction} outside the open interval (0, 1)"
        )
    if min_objects < 2:
        raise ParameterError(f"min_objects={min_objects} must be >= 2")
    if min(X.values.shape) < 2:
        raise ParameterError(
            "shave needs at least 2 samples and 2 variables, "
            f"got {X.n_samples} x {X.n_variables}"
        )
    _require_memory_for(f"shaving {X.n_samples} x {X.n_variables}",
                        _peak_buffers(X.values.shape, k0), X.values.shape)

    sample_idx = np.arange(X.n_samples)
    variable_idx = np.arange(X.n_variables)
    trace = ShaveTrace()
    notes = set()  # clamps already warned about in this run
    while True:
        s_scores, v_scores = _step_scores(
            X.values, sample_idx, variable_idx, cfg, k0, notes)
        trace.steps.append(ShaveStep(
            sample_indices=sample_idx,
            variable_indices=variable_idx,
            sample_scores=s_scores,
            variable_scores=v_scores,
        ))
        if sample_idx.size <= min_objects or variable_idx.size <= min_objects:
            break
        drop_s = min(ceil(drop_fraction * sample_idx.size),
                     sample_idx.size - min_objects)
        drop_v = min(ceil(drop_fraction * variable_idx.size),
                     variable_idx.size - min_objects)
        sample_idx = np.delete(sample_idx, _worst(s_scores, drop_s))
        variable_idx = np.delete(variable_idx, _worst(v_scores, drop_v))
    return trace
