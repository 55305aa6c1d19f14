"""Backward-elimination biclustering driven by the joint dissimilarities.

Each round recomputes the within-kind dissimilarities on the surviving
submatrix, scores every object by the mean of its K0 smallest distances to
objects of the same kind (small score = tightly embedded), and removes the
worst-scoring fraction of each kind. The full trace of nested
sample-variable sets is returned; no single step is picked as the winner.

No same-kind block is built: the kernel hands each of its rows to
running lists of every object's K0 smallest distances, and the scores come
from those lists, byte for byte what scoring the stored blocks would give.
The peak is a few N x p float64 arrays plus, per kernel thread, a row
buffer and the lists (_peak_buffers).
"""

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from . import _kernels
from ._kernels import PANEL_ROWS, pair_mean_k0_smallest
from .dissimilarity import CumbiaConfig, _clamp, _kind_inputs
from .embedding import _require_memory_for
from .errors import ParameterError
from .matrix_core import DataMatrix, require_finite, svd

# _peak_buffers' measured parts, fixed and per kernel thread (a row buffer
# and what the thread's allocator keeps), from the resident peak at K0 = 3
# with 1 and 2 threads, lists apart: 2.8 + 4.5 per thread at 60 x 6000 and
# 2.5 + 4.2 at 60 x 20,000 (BENCH_12.json), 1.2 + 5.3 in a 6000 repeat
FIXED_PEAK_BUFFERS = 2.5
THREAD_PEAK_BUFFERS = 5.5


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
    k0: int = 3
    drop_fraction: float = 0.1


def _kind_scores(D_sv, K, kind, groups, k0, notes):
    """Per object of kind, mean of its k0 smallest same-kind distances."""
    R = D_sv if kind == "samples" else D_sv.T
    k = _clamp(k0, R.shape[0] - 1, "K0", f"other {kind}", notes)
    return pair_mean_k0_smallest(R, K, k, groups)


def _step_scores(values, cfg, k0, notes):
    """Sample and variable scores of one step."""
    f = svd(values)
    s = f.r if cfg.s is None else _clamp(
        cfg.s, f.r, "s", "nonzero singular values of the submatrix", notes)
    D_sv, sides = _kind_inputs(values, f, s, cfg, notes)
    return tuple(_kind_scores(D_sv, K, kind, groups, k0, notes)
                 for kind, K, groups in sides)


def _peak_buffers(shape, k0):
    """shave()'s estimated resident peak in N x p float64 buffers: the
    measured parts plus, per object of the larger kind, the entries of the
    running lists (K0 + 2 PANEL_ROWS per thread) and of their final merge
    (K0 per thread, and 2 K0 for the shared own lists and their copy)."""
    threads = _kernels._worker_count()
    lists = (threads * (2 * k0 + 2 * PANEL_ROWS) + 2 * k0) / min(shape)
    return FIXED_PEAK_BUFFERS + threads * THREAD_PEAK_BUFFERS + lists


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
    float64 buffers, exceeds physical memory.
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
    trace = ShaveTrace(steps=[], k0=k0, drop_fraction=drop_fraction)
    notes = set()  # clamps already warned about in this run
    while True:
        sub = X.values[np.ix_(sample_idx, variable_idx)]
        s_scores, v_scores = _step_scores(sub, cfg, k0, notes)
        trace.steps.append(ShaveStep(
            sample_indices=sample_idx.copy(),
            variable_indices=variable_idx.copy(),
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
