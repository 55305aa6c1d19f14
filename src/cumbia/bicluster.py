"""Backward-elimination biclustering driven by the joint dissimilarities.

Each round recomputes the within-kind dissimilarities on the surviving
submatrix, scores every object by the mean of its K0 smallest distances to
objects of the same kind (small score = tightly embedded), and removes the
worst-scoring fraction of each kind. The full trace of nested
sample-variable sets is returned; no single step is picked as the winner.
"""

import warnings
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .dissimilarity import CumbiaConfig, _blocks
from .errors import CumbiaWarning, ParameterError
from .matrix_core import DataMatrix, require_finite, svd


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


def _mean_k0_smallest(M, k0, kind, clamp_note):
    """Per object, mean of its k0 smallest off-diagonal same-kind distances.

    Works in place on M, which the caller must not need afterwards.
    """
    n = M.shape[0]
    if n == 1:
        return np.zeros(1)
    k = min(k0, n - 1)
    if k < k0 and kind not in clamp_note:
        clamp_note.add(kind)
        warnings.warn(
            f"K0={k0} exceeds the {n - 1} other {kind}; clamped to {k}",
            CumbiaWarning,
            stacklevel=3,
        )
    # the diagonal can never be among the k <= n - 1 smallest; the k picked
    # values are summed in ascending order, as in the kernel
    np.fill_diagonal(M, np.inf)
    M.partition(k - 1, axis=1)
    smallest = M[:, :k]
    smallest.sort(axis=1)
    scores = smallest[:, 0].copy()
    for t in range(1, k):
        scores += smallest[:, t]
    scores /= k
    return scores


def _within_blocks(values, cfg, clamp_note):
    f = svd(values)
    s = f.r if cfg.s is None else min(cfg.s, f.r)
    if cfg.s is not None and cfg.s > f.r and "s" not in clamp_note:
        clamp_note.add("s")
        warnings.warn(
            f"s={cfg.s} exceeds submatrix rank {f.r}; clamped",
            CumbiaWarning,
            stacklevel=3,
        )
    return _blocks(values, f, s, cfg, clamp_note)[1:]


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

    sample_idx = np.arange(X.n_samples)
    variable_idx = np.arange(X.n_variables)
    trace = ShaveTrace(steps=[], k0=k0, drop_fraction=drop_fraction)
    clamp_note = set()
    while True:
        sub = X.values[np.ix_(sample_idx, variable_idx)]
        SS, VV = _within_blocks(sub, cfg, clamp_note)
        s_scores = _mean_k0_smallest(SS, k0, "samples", clamp_note)
        v_scores = _mean_k0_smallest(VV, k0, "variables", clamp_note)
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
