import warnings

import numpy as np
import pytest

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    ParameterError,
    shave,
    synth_block,
)
from cumbia.bicluster import _mean_k0_smallest


def test_trace_is_strictly_nested():
    X, _ = synth_block(N=15, p=30, n_planted=3, p_planted=5, seed=1)
    trace = shave(X, CumbiaConfig(), k0=2, drop_fraction=0.2)
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert set(cur.sample_indices) < set(prev.sample_indices)
        assert set(cur.variable_indices) < set(prev.variable_indices)
    assert trace.steps[-1].sample_indices.size >= 2
    assert trace.steps[-1].variable_indices.size >= 2


def test_identical_inputs_identical_traces():
    X, _ = synth_block(N=12, p=20, n_planted=3, p_planted=4, seed=3)
    t1 = shave(X, CumbiaConfig(), k0=3, drop_fraction=0.15)
    t2 = shave(X, CumbiaConfig(), k0=3, drop_fraction=0.15)
    assert len(t1.steps) == len(t2.steps)
    for a, b in zip(t1.steps, t2.steps):
        assert a.sample_indices.tolist() == b.sample_indices.tolist()
        assert a.variable_indices.tolist() == b.variable_indices.tolist()
        assert a.sample_scores.tobytes() == b.sample_scores.tobytes()
        assert a.variable_scores.tobytes() == b.variable_scores.tobytes()


def test_tiny_drop_fraction_removes_one_per_step():
    X, _ = synth_block(N=8, p=10, n_planted=2, p_planted=3, seed=5)
    trace = shave(X, CumbiaConfig(k_samples=2), k0=2, drop_fraction=0.01)
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert prev.sample_indices.size - cur.sample_indices.size == 1
        assert prev.variable_indices.size - cur.variable_indices.size == 1


def test_identical_samples_degenerate_but_nested():
    # all sample rows equal: within-kind distances among duplicates are
    # forced to zero, scores tie, and elimination still yields a strictly
    # nested deterministic trace
    row = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    X = DataMatrix(np.tile(row, (6, 1)))
    trace = shave(X, CumbiaConfig(k_samples=1), k0=1, drop_fraction=0.2)
    assert np.sum(trace.steps[0].sample_scores == 0.0) >= 5
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert set(cur.sample_indices) < set(prev.sample_indices)
    again = shave(X, CumbiaConfig(k_samples=1), k0=1, drop_fraction=0.2)
    for a, b in zip(trace.steps, again.steps):
        assert a.sample_indices.tolist() == b.sample_indices.tolist()


def test_equal_scores_tie_break_is_index_ascending():
    from cumbia.bicluster import _worst

    scores = np.array([0.5, 0.5, 0.5, 0.5])
    assert _worst(scores, 2).tolist() == [0, 1]
    mixed = np.array([0.1, 0.9, 0.9, 0.2])
    assert _worst(mixed, 3).tolist() == [1, 2, 3]


def test_min_objects_respected():
    X, _ = synth_block(N=10, p=12, n_planted=2, p_planted=3, seed=7)
    trace = shave(X, CumbiaConfig(), k0=2, drop_fraction=0.5, min_objects=3)
    last = trace.steps[-1]
    assert last.sample_indices.size >= 3
    assert last.variable_indices.size >= 3
    assert (last.sample_indices.size == 3) or (last.variable_indices.size == 3)


def test_k0_clamped_with_warning():
    X, _ = synth_block(N=4, p=6, n_planted=2, p_planted=2, seed=9)
    with pytest.warns(CumbiaWarning, match="K0"):
        shave(X, CumbiaConfig(k_samples=2), k0=10, drop_fraction=0.3)


def _k0_row_loop(M, k0):
    # reference: one row at a time, diagonal removed with np.delete
    n = M.shape[0]
    k = min(k0, n - 1)
    scores = np.empty(n)
    for i in range(n):
        smallest = np.sort(np.partition(np.delete(M[i], i), k - 1)[:k])
        acc = smallest[0]
        for t in range(1, k):
            acc = acc + smallest[t]
        scores[i] = acc / k
    return scores


@pytest.mark.parametrize("k0", [1, 2, 3, 8, 20, 29, 40])
def test_mean_k0_smallest_matches_row_loop(k0):
    n = 30
    rng = np.random.default_rng(k0)
    # few distinct values, so ties are everywhere and summation order shows
    levels = np.array([1.0, 0.1, 0.2, 0.3, 0.7, 3e-17])
    M = levels[rng.integers(0, levels.size, size=(n, n))]
    M = M + M.T
    np.fill_diagonal(M, 0.0)
    # objects 0, 3 and 5 are duplicates: zero distance among them
    for a, b in ((0, 3), (0, 5), (3, 5)):
        M[a, b] = M[b, a] = 0.0
    expect = _k0_row_loop(M, k0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _mean_k0_smallest(M.copy(), k0, "samples", set())
    assert got.tobytes() == expect.tobytes()
    assert len(caught) == (1 if k0 >= n else 0)


def test_k_clamp_warns_once_per_run():
    X, _ = synth_block(N=8, p=10, n_planted=2, p_planted=3, seed=4)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # later rounds keep fewer than 6 variables and fewer than 6 samples
            shave(X, CumbiaConfig(k_samples=6), k0=2, drop_fraction=0.3)
        messages = [str(w.message) for w in caught]
        assert sum("samples pairs" in m for m in messages) == 1
        assert sum("variables pairs" in m for m in messages) == 1


def test_scores_align_with_survivors():
    X, _ = synth_block(N=10, p=14, n_planted=2, p_planted=3, seed=11)
    trace = shave(X, CumbiaConfig(), k0=2, drop_fraction=0.25)
    for step in trace.steps:
        assert step.sample_scores.shape == step.sample_indices.shape
        assert step.variable_scores.shape == step.variable_indices.shape
        assert np.all(step.sample_scores >= 0)
        assert np.all(step.variable_scores >= 0)


def test_parameter_validation():
    X, _ = synth_block(N=6, p=8, n_planted=2, p_planted=2, seed=0)
    with pytest.raises(ParameterError):
        shave(X, CumbiaConfig(), k0=0)
    with pytest.raises(ParameterError):
        shave(X, CumbiaConfig(), drop_fraction=0.0)
    with pytest.raises(ParameterError):
        shave(X, CumbiaConfig(), drop_fraction=1.0)
    with pytest.raises(ParameterError):
        shave(X, CumbiaConfig(), min_objects=1)


def test_planted_block_recovered_on_small_instance():
    X, _ = synth_block(N=20, p=60, n_planted=5, p_planted=12, shift=3.0, seed=2)
    trace = shave(X, CumbiaConfig(), k0=3, drop_fraction=0.1)
    # find the first step at or below twice the planted sizes
    hit = None
    for step in trace.steps:
        if step.sample_indices.size < 10 and step.variable_indices.size < 24:
            hit = step
            break
    assert hit is not None
    planted = (np.sum(hit.sample_indices < 5) + np.sum(hit.variable_indices < 12))
    assert planted / 17 >= 0.8