import warnings

import numpy as np
import pytest
from measure import traced_peak
from oracle import k0_oracle, pair_oracle

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    ParameterError,
    bicluster,
    matrix_core,
    sample_variable_diss,
    shave,
    svd,
    synth_block,
    within_kind_diss,
)
from cumbia import _kernels
from cumbia._kernels import pair_mean_k0_smallest
from cumbia.bicluster import _kind_scores

# the last steps of shave on these small inputs keep 2 samples, fewer than
# K=3 intermediaries for variable pairs and than K0 other samples: those
# clamps are expected, and any other warning still shows
CLAMPS_AT_TWO_SAMPLES = pytest.mark.filterwarnings(
    "ignore:K=3 exceeds the 2 available intermediaries for variables pairs"
    ":cumbia.CumbiaWarning",
    "ignore:K0=[23] exceeds the [12] other samples:cumbia.CumbiaWarning",
)


@CLAMPS_AT_TWO_SAMPLES
def test_trace_is_strictly_nested():
    X, _ = synth_block(N=15, p=30, n_planted=3, p_planted=5, seed=1)
    trace = shave(X, CumbiaConfig(), k0=2, drop_fraction=0.2)
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert set(cur.sample_indices) < set(prev.sample_indices)
        assert set(cur.variable_indices) < set(prev.variable_indices)
    assert trace.steps[-1].sample_indices.size >= 2
    assert trace.steps[-1].variable_indices.size >= 2


@CLAMPS_AT_TWO_SAMPLES
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


def _rows_for(M):
    # R whose K=1 pair values are exactly M off the diagonal: one column
    # per pair (a, b) holding M[a, b] / 2 in rows a and b and 10 elsewhere,
    # above every level, so min_k R[a, k] + R[b, k] = M[a, b]
    n = M.shape[0]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    R = np.full((n, len(pairs)), 10.0)
    for col, (a, b) in enumerate(pairs):
        R[a, col] = R[b, col] = M[a, b] / 2
    return R


@pytest.mark.parametrize("k0", [1, 2, 3, 8, 20, 29, 40])
def test_mean_k0_smallest_matches_row_loop(k0):
    n = 30
    rng = np.random.default_rng(k0)
    # few distinct values, so ties are everywhere and summation order shows
    levels = np.array([1.0, 0.1, 0.2, 0.3, 0.7, 3e-17])
    M = levels[rng.integers(0, levels.size, size=(n, n))]
    M = M + M.T
    np.fill_diagonal(M, 0.0)
    R = _rows_for(M)
    assert within_kind_diss(R, 1, "samples").tobytes() == M.tobytes()
    # objects 3 and 5 become duplicates of 0: they take 0's distances to
    # every other object, and zero distance among the three
    R[[3, 5]] = R[0]
    group = [0, 3, 5]
    M[[3, 5]] = M[0]
    M[:, [3, 5]] = M[:, [0]]
    M[np.ix_(group, group)] = 0.0
    assert within_kind_diss(R, 1, "samples").tobytes() == M.tobytes()
    expect = k0_oracle(M, k0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _kind_scores(R, 1, "samples", k0, set())
    assert got.tobytes() == expect.tobytes()
    assert len(caught) == (1 if k0 >= n else 0)


def test_k0_scores_with_rows_longer_than_sort_columns():
    # n - 1 > SORT_COLUMNS: each panel row is partitioned, while the
    # merged running lists, k0 + PANEL_ROWS entries, are sorted whole
    n = _kernels.SORT_COLUMNS + 44
    assert _kernels.PANEL_ROWS + 3 <= _kernels.SORT_COLUMNS
    rng = np.random.default_rng(19)
    R = np.array([0.0, 0.25, 0.5, 1.0])[rng.integers(0, 4, size=(n, 5))]
    R[200] = R[7]
    for K in (1, 3):
        M = pair_oracle(R, K)
        for k0 in (1, 3):
            got = pair_mean_k0_smallest(R, K, k0)
            assert got.tobytes() == k0_oracle(M, k0).tobytes()


def test_k0_out_of_range_rejected():
    R = np.ones((5, 3))
    for k0 in (0, 5):
        with pytest.raises(ParameterError, match="K0"):
            pair_mean_k0_smallest(R, 2, k0)
    with pytest.raises(ParameterError, match="K="):
        pair_mean_k0_smallest(R, 4, 2)


def test_k_clamp_warns_once_per_run():
    X, _ = synth_block(N=8, p=10, n_planted=2, p_planted=3, seed=4)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # rounds keep 8, 5, 3, 2 samples and 10, 7, 4, 2 variables: K=6
            # clamps from round 2 on, s=6 above the rank from round 2 on,
            # K0=4 among 3 or fewer others of each kind from round 3 on
            trace = shave(X, CumbiaConfig(k_samples=6, s=6), k0=4,
                          drop_fraction=0.3)
        assert [step.sample_indices.size for step in trace.steps] \
            == [8, 5, 3, 2]
        messages = [str(w.message) for w in caught]
        assert sum("samples pairs" in m for m in messages) == 1
        assert sum("variables pairs" in m for m in messages) == 1
        assert sum(m.startswith("s=6 ") for m in messages) == 1
        assert sum("K0=4" in m and "other samples" in m for m in messages) == 1
        assert sum("K0=4" in m and "other variables" in m
                   for m in messages) == 1
        assert len(messages) == 5


@CLAMPS_AT_TWO_SAMPLES
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


@pytest.mark.parametrize("shape", [(1, 10), (10, 1)])
def test_too_few_samples_or_variables_rejected(shape):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match=(
                "shave needs at least 2 samples and 2 variables, "
                f"got {shape[0]} x {shape[1]}")):
            shave(np.arange(1.0, 11.0).reshape(shape))
    assert caught == []


@CLAMPS_AT_TWO_SAMPLES
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


def test_scores_match_public_functions_on_each_step():
    X, _ = synth_block(N=12, p=30, n_planted=3, p_planted=6, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CumbiaWarning)
        trace = shave(X, CumbiaConfig(), k0=3, drop_fraction=0.2)
        for step in trace.steps:
            sub = X.values[np.ix_(step.sample_indices, step.variable_indices)]
            D_sv = sample_variable_diss(sub, float(svd(sub).singular_values[0]))
            for kind, got in (("samples", step.sample_scores),
                              ("variables", step.variable_scores)):
                M = within_kind_diss(D_sv, 3, kind)
                expect = k0_oracle(M, 3)
                assert got.tobytes() == expect.tobytes(), kind


@CLAMPS_AT_TWO_SAMPLES
def test_peak_holds_one_step_of_blocks(monkeypatch):
    # no p x p block: the peak is a few N x p arrays plus, per kernel
    # thread, a row buffer and running lists. Storing the step-0 variables
    # block alone would be p / N = 30 such buffers
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
    X, _ = synth_block(N=20, p=600, seed=0)
    Np = X.n_samples * X.n_variables
    _, peak = traced_peak(lambda: shave(X))
    assert peak <= 13 * Np * 8, f"peak {peak / (Np * 8):.2f} N x p buffers"


@CLAMPS_AT_TWO_SAMPLES
@pytest.mark.parametrize("workers, bound", [(1, 3.5), (2, 5.6)])
def test_step_keeps_only_live_arrays(monkeypatch, workers, bound):
    # a step frees its SVD factors before D_sv is built and its submatrix
    # once D_sv is, scores the variables from D_sv's transpose alone, and
    # the kernel keeps K0 entries per object, merging in its idle scratch:
    # 3.26 and 5.16 N x p buffers here, against 3.78 and 6.23 with
    # PANEL_ROWS more entries per object in each worker's lists, 4.88 and
    # 6.21 with the factors alive beside D_sv, and 6.75 and 9.25 when the
    # submatrix, V, D_sv and its transpose were all alive during the
    # variables kernel
    monkeypatch.setattr(_kernels, "_worker_count", lambda: workers)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    X, _ = synth_block(N=30, p=800, seed=0)
    buffer = X.n_samples * X.n_variables * 8
    peak = traced_peak(lambda: shave(X))[1] / buffer
    assert peak <= bound, (
        f"peak {peak:.2f} N x p buffers with {workers} kernel workers, "
        f"bound {bound}")


class TestMemoryGuard:
    def test_too_large_for_memory_raises_before_any_svd(self, monkeypatch):
        # 60 x 20,000 needs about 75 MiB with two kernel threads
        monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: 64 * 2**20)
        monkeypatch.setattr(bicluster, "svd", None)
        with pytest.raises(ParameterError, match=r"75 MiB.*64 MiB"):
            shave(np.zeros((60, 20000)))

    @CLAMPS_AT_TWO_SAMPLES
    def test_estimate_counts_the_n_by_p_buffers(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
        X, _ = synth_block(N=6, p=8, n_planted=2, p_planted=2, seed=0)
        need = bicluster._peak_buffers((6, 8), 3) * 6 * 8 * 8
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(need) - 1)
        with pytest.raises(ParameterError, match="physical memory"):
            shave(X)
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(need) + 1)
        assert len(shave(X).steps) > 1

    @pytest.mark.parametrize("small, large", [((1, 3), (2, 3)),
                                              ((2, 3), (3, 3)),
                                              ((2, 3), (2, 200))])
    def test_estimate_grows_with_threads_and_k0(self, monkeypatch, small,
                                                large):
        # physical memory between the (threads, K0) estimates: the larger
        # one is refused before any SVD, the smaller one reaches the SVD
        X = np.zeros((60, 20000))

        def use_threads(threads):
            monkeypatch.setattr(_kernels, "_worker_count", lambda: threads)

        def need(threads, k0):
            use_threads(threads)
            return bicluster._peak_buffers(X.shape, k0) * X.size * 8

        have = (need(*small) + need(*large)) / 2
        assert need(*small) < have < need(*large)
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(have))
        monkeypatch.setattr(bicluster, "svd", None)
        use_threads(large[0])
        with pytest.raises(ParameterError, match="physical memory"):
            shave(X, k0=large[1])
        use_threads(small[0])
        with pytest.raises(TypeError, match="not callable"):
            shave(X, k0=small[1])
