import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from measure import traced_peak
from oracle import k0_oracle, pair_oracle

from cumbia import _kernels, bicluster, cumbia, embedding, shave, svd
from cumbia._kernels import pair_mean_k0_smallest, pair_mean_k_smallest
from cumbia.errors import ParameterError


def test_matches_sorted_reference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 12))
        R = np.abs(rng.standard_normal((n, m)))
        for K in range(1, m + 1):
            got = pair_mean_k_smallest(R, K)
            assert got.tobytes() == pair_oracle(R, K).tobytes()


def test_ties_at_selection_boundary():
    # row sums tie exactly; both selections must produce the same mean
    R = np.array([
        [1.0, 1.0, 1.0, 2.0],
        [1.0, 1.0, 1.0, 3.0],
        [0.5, 0.5, 0.5, 0.5],
    ])
    out = pair_mean_k_smallest(R, 2)
    assert out[0, 1] == 2.0
    assert out[0, 2] == 1.5
    assert out.tobytes() == pair_oracle(R, 2).tobytes()


def test_k_equals_m_averages_everything():
    rng = np.random.default_rng(2)
    R = np.abs(rng.standard_normal((4, 5)))
    out = pair_mean_k_smallest(R, 5)
    i, j = 1, 3
    expect = np.sort(R[i] + R[j])
    acc = expect[0]
    for t in range(1, 5):
        acc = acc + expect[t]
    assert out[i, j] == acc / 5


def test_k_out_of_range():
    with pytest.raises(ParameterError):
        pair_mean_k_smallest(np.ones((3, 4)), 5)
    with pytest.raises(ParameterError):
        pair_mean_k_smallest(np.ones((3, 4)), 0)


def test_numpy_path_handles_single_row():
    out = pair_mean_k_smallest(np.ones((1, 4)), 2)
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0


def sweep_inputs():
    """(R, duplicate groups, Ks, k0s) of each input the sweep checks."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 9, 17):
        for m in (1, 2, 5):
            R = np.abs(rng.standard_normal((n, m)))
            R[:, -1] = R[:, 0]  # ties at the selection boundary
            yield R, [], range(1, m + 1), (1, n - 1)[:n - 1]  # k0: 1, n - 1
    rng = np.random.default_rng(10)
    for m in (5, _kernels.SORT_COLUMNS + 3):
        R = np.abs(rng.standard_normal((19, m)))
        yield R, [[1, 6, 17], [9, 12]], (3,), (4,)
    R = np.abs(np.random.default_rng(7).standard_normal((23, 5)))
    yield R, [[0, 7, 13, 22], [4, 5], [20, 9]], (1, 3, 5), (1, 22)
    R = np.random.default_rng(17).choice([0.0, 0.25, 0.5, 1.0], (70, 6))
    yield R, [[2, 9, 40]], (1, 2, 6), (1, 2, 3, 8, 69)
    R = np.abs(np.random.default_rng(6).standard_normal((40, 30)))
    R[:, 7] = R[:, 3]
    yield R, [[2, 11]], (1, 3, 30), (1, 3, 39)


@pytest.fixture(scope="module")
def expected():
    """Each input, its groups planted, and its oracle bytes per K and k0."""
    cases = []
    for R, groups, Ks, k0s in sweep_inputs():
        for group in groups:
            R[group[1:]] = R[group[0]]
        pairs, scores = {}, {}
        for K in Ks:
            M = pair_oracle(R, K)
            assert all(not M[np.ix_(g, g)].any() for g in groups), R.shape
            pairs[K] = M.tobytes()
            scores.update({(K, k0): k0_oracle(M, k0).tobytes() for k0 in k0s})
        cases.append((R, pairs, scores))
    return cases


@pytest.mark.parametrize("workers, panel_rows, chunk_rows, sort_columns", [
    (1, _kernels.PANEL_ROWS, 1, _kernels.SORT_COLUMNS), (2, 4, 3, 0),
    (3, 4, 18, 10**9), (8, 2, None, _kernels.SORT_COLUMNS),
    (2, _kernels.PANEL_ROWS, None, 0), (3, 2, 3, 10**9)])
def test_speed_only_constants_keep_the_oracle_bytes(
        monkeypatch, expected, workers, panel_rows, chunk_rows, sort_columns):
    # chunk_rows is SCRATCH_VALUES in rows of m sums, None its default;
    # threads switch as often as they can, so a lost write would show
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    monkeypatch.setattr(_kernels, "_worker_count", lambda: workers)
    monkeypatch.setattr(_kernels, "PANEL_ROWS", panel_rows)
    monkeypatch.setattr(_kernels, "SORT_COLUMNS", sort_columns)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for R, pairs, scores in expected:
            if chunk_rows is not None:
                monkeypatch.setattr(_kernels, "SCRATCH_VALUES",
                                    chunk_rows * R.shape[1])
            got = [pair_mean_k_smallest(R, K).tobytes() for K in pairs]
            assert got == list(pairs.values()), (R.shape, list(pairs))
            got = [pair_mean_k0_smallest(R, *key).tobytes() for key in scores]
            assert got == list(scores.values()), (R.shape, list(scores))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n, m, K, k0, chunked, partitioned", [
    (1200, 60, 3, 3, True, False), (60, 6000, 3, 20, True, True),
    (400, 300, 7, 7, True, True)])
def test_permuting_rows_and_columns_permutes_the_bytes(
        monkeypatch, n, m, K, k0, chunked, partitioned):
    # at sizes the oracle cannot reach: two workers, rows walked in chunks
    # of SCRATCH_VALUES sums, rows longer than SORT_COLUMNS partitioned. An
    # entry sums the same K values in ascending order whatever the order of
    # rows and columns, so the bytes permute exactly
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
    assert _kernels._workers_for(n, m) == 2
    assert (n - 1 > _kernels.SCRATCH_VALUES // m) == chunked
    assert (m > _kernels.SORT_COLUMNS) == partitioned
    rng = np.random.default_rng(n + m)
    R = np.abs(rng.standard_normal((n, m)))
    R[n // 2] = R[3]  # a duplicate pair, at 0 in both orders
    p, q = rng.permutation(n), rng.permutation(m)
    P = R[np.ix_(p, q)]
    M = pair_mean_k_smallest(R, K)
    assert M[3, n // 2] == 0.0
    assert pair_mean_k_smallest(P, K).tobytes() == M[np.ix_(p, p)].tobytes()
    scores = pair_mean_k0_smallest(R, K, k0)
    assert pair_mean_k0_smallest(P, K, k0).tobytes() == scores[p].tobytes()


def no_thread(*args, **kwargs):
    raise AssertionError("thread started")


def test_bad_k_raises_before_any_thread(monkeypatch):
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 8)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    monkeypatch.setattr(_kernels, "threading",
                        SimpleNamespace(Thread=no_thread))
    with pytest.raises(ParameterError):
        pair_mean_k_smallest(np.ones((20, 4)), 5)
    with pytest.raises(ParameterError):
        pair_mean_k_smallest(np.ones((20, 4)), 0)


def test_small_input_runs_on_the_caller_thread(monkeypatch):
    # too few pair sums to share: no thread is started
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 8)
    monkeypatch.setattr(_kernels, "threading",
                        SimpleNamespace(Thread=no_thread))
    R = np.abs(np.random.default_rng(4).standard_normal((12, 120)))
    assert pair_mean_k_smallest(R, 3).tobytes() == pair_oracle(R, 3).tobytes()


def test_worker_exception_reraised_on_caller(monkeypatch):
    fill_rows = _kernels._fill_rows

    def failing(R, K, consume, first, step, zero, buf, panel):
        if first == 1:
            raise MemoryError("worker 1")
        fill_rows(R, K, consume, first, step, zero, buf, panel)

    monkeypatch.setattr(_kernels, "_worker_count", lambda: 3)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    monkeypatch.setattr(_kernels, "_fill_rows", failing)
    with pytest.raises(MemoryError, match="worker 1"):
        pair_mean_k_smallest(np.ones((10, 4)), 2)


class StopKernel(Exception):
    pass


def test_worker_scratch_stays_within_the_budget(monkeypatch):
    # each worker's pair sums fit SCRATCH_VALUES at 3000 x 100, where an
    # (n - 1) x m row buffer held 299,900; the walk stops after the first
    # row, whose 2999 entries take five chunks
    seen = []

    def first_row(R, K, consume, first, step, zero, buf, panel):
        seen.append(buf.size)

        def stop(w, rows, panel):
            raise StopKernel

        fill_rows(R, K, stop, first, R.shape[0], zero, buf, panel)

    fill_rows = _kernels._fill_rows
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
    monkeypatch.setattr(_kernels, "_fill_rows", first_row)
    R = np.abs(np.random.default_rng(9).standard_normal((3000, 100)))
    with pytest.raises(StopKernel):
        pair_mean_k0_smallest(R, 3, 3)
    assert len(seen) == 2
    assert max(seen) <= _kernels.SCRATCH_VALUES


@pytest.mark.parametrize("workers", [1, 2])
def test_out_view_gets_the_allocating_bytes(monkeypatch, workers):
    # out is an off-diagonal block of a larger NaN-filled buffer: a strided
    # view whose diagonal is not the buffer's; every entry of it is written
    # and nothing outside it
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    monkeypatch.setattr(_kernels, "_worker_count", lambda: workers)
    R = np.abs(np.random.default_rng(5).standard_normal((9, 6)))
    for K in (1, 3, 6):
        big = np.full((15, 17), np.nan)
        view = big[2:11, 5:14]
        got = pair_mean_k_smallest(R, K, out=view)
        assert got is view
        assert view.tobytes() == pair_mean_k_smallest(R, K).tobytes()
        outside = np.ones(big.shape, dtype=bool)
        outside[2:11, 5:14] = False
        assert np.isnan(big[outside]).all()


def test_out_of_the_wrong_shape_is_rejected():
    R = np.ones((4, 3))
    with pytest.raises(ParameterError, match="4 x 4"):
        pair_mean_k_smallest(R, 2, out=np.empty((4, 5)))
    with pytest.raises(ParameterError, match="float64"):
        pair_mean_k_smallest(R, 2, out=np.empty((4, 4), dtype=np.float32))


@pytest.mark.parametrize("m", [_kernels.SORT_COLUMNS,
                               _kernels.SORT_COLUMNS + 1])
def test_both_selection_branches_match_reference(m):
    # rows of SORT_COLUMNS sums are sorted whole, one more is partitioned;
    # four levels make exact ties at every selection boundary, and distinct
    # values make the summation order show
    rng = np.random.default_rng(m)
    ties = np.array([0.1, 0.25, 0.5, 3e-17])[rng.integers(0, 4, size=(5, m))]
    for R in (ties, rng.random((5, m))):
        for K in (1, 3, m // 2, m):
            got = pair_mean_k_smallest(R, K)
            assert got.tobytes() == pair_oracle(R, K).tobytes()


def test_identical_rows_are_zeroed_without_being_named():
    # the kernel finds duplicates itself, here on a transposed R like the
    # one within_kind_diss passes for variables. Rows 2 and 5 differ only in
    # the sign of a zero: equal values, other bytes, so not duplicates
    D = np.abs(np.random.default_rng(11).standard_normal((6, 9)))
    D[:, [4, 7]] = D[:, [1, 1]]
    D[:, 5] = D[:, 2]
    D[0, 2], D[0, 5] = 0.0, -0.0
    R = D.T
    assert not R.flags.c_contiguous
    for K in (2, 6):
        expected = pair_oracle(R, K)
        assert expected[2, 5] > 0.0
        assert not expected[np.ix_([1, 4, 7], [1, 4, 7])].any()
        k0 = k0_oracle(expected, 3)
        assert pair_mean_k_smallest(R, K).tobytes() == expected.tobytes()
        assert pair_mean_k0_smallest(R, K, 3).tobytes() == k0.tobytes()


class CountingThreads:
    """Stands in for the threading module and keeps every thread made."""

    active_count = staticmethod(threading.active_count)

    def __init__(self):
        self.made = []

    def Thread(self, *args, **kwargs):
        thread = threading.Thread(*args, **kwargs)
        self.made.append(thread)
        return thread


def test_the_caller_is_worker_zero(monkeypatch):
    # three workers: the calling thread and two threads of their own
    counting = CountingThreads()
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 3)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    monkeypatch.setattr(_kernels, "threading", counting)
    R = np.abs(np.random.default_rng(8).standard_normal((10, 4)))
    assert pair_mean_k_smallest(R, 2).tobytes() == pair_oracle(R, 2).tobytes()
    assert len(counting.made) == 2
    assert pair_mean_k0_smallest(R, 2, 3).shape == (10,)
    assert len(counting.made) == 4


def test_caller_exception_reraised_after_the_threads_end(monkeypatch):
    fill_rows = _kernels._fill_rows
    counting = CountingThreads()

    def failing(R, K, consume, first, step, zero, buf, panel):
        if first == 0:
            raise MemoryError("worker 0")
        fill_rows(R, K, consume, first, step, zero, buf, panel)

    monkeypatch.setattr(_kernels, "_worker_count", lambda: 3)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    monkeypatch.setattr(_kernels, "_fill_rows", failing)
    monkeypatch.setattr(_kernels, "threading", counting)
    with pytest.raises(MemoryError, match="worker 0"):
        pair_mean_k_smallest(np.ones((150, 300)), 2)
    assert len(counting.made) == 2
    assert not any(thread.is_alive() for thread in counting.made)


class ParkRecorder:
    """Stands in for the threading module and for the bundled OpenBLAS, and
    logs every thread start and every pool shutdown in order."""

    active_count = staticmethod(threading.active_count)

    def __init__(self):
        self.events = []

    def Thread(self, *args, **kwargs):
        thread = threading.Thread(*args, **kwargs)
        start = thread.start

        def logged():
            self.events.append("start")
            start()

        thread.start = logged
        return thread

    def blas_thread_shutdown_(self):
        self.events.append("park")


@pytest.fixture
def recorder(monkeypatch):
    recorder = ParkRecorder()
    monkeypatch.setattr(_kernels, "threading", recorder)
    monkeypatch.setattr(_kernels, "_openblas", lambda: recorder)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    return recorder


def test_openblas_parked_once_before_the_threads_start(monkeypatch,
                                                       recorder):
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 3)
    R = np.abs(np.random.default_rng(10).standard_normal((10, 4)))
    assert pair_mean_k_smallest(R, 2).tobytes() == pair_oracle(R, 2).tobytes()
    assert recorder.events == ["park", "start", "start"]
    pair_mean_k0_smallest(R, 2, 3)
    assert recorder.events == ["park", "start", "start"] * 2


def test_no_park_on_a_one_worker_call(monkeypatch, recorder):
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 1)
    R = np.abs(np.random.default_rng(11).standard_normal((10, 4)))
    pair_mean_k_smallest(R, 2)
    pair_mean_k0_smallest(R, 2, 3)
    assert recorder.events == []


def test_no_park_while_another_python_thread_is_alive(monkeypatch,
                                                      recorder):
    # that thread might be inside a BLAS call the shutdown would break
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 3)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        R = np.abs(np.random.default_rng(12).standard_normal((10, 4)))
        got = pair_mean_k_smallest(R, 2)
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()
    assert got.tobytes() == pair_oracle(R, 2).tobytes()
    assert recorder.events == ["start", "start"]


@pytest.mark.parametrize("library", [None, SimpleNamespace()],
                         ids=["no-openblas", "no-shutdown-symbol"])
def test_no_park_without_the_bundled_openblas(monkeypatch, library):
    # without the library, _lapack() is None and the eigh fallback runs; a
    # library without the symbol parks nothing and raises nothing
    counting = CountingThreads()
    monkeypatch.setattr(_kernels, "threading", counting)
    monkeypatch.setattr(_kernels, "_openblas", lambda: library)
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 3)
    monkeypatch.setattr(_kernels, "MIN_SUMS_PER_WORKER", 1)
    if library is None:
        assert _kernels._lapack.__wrapped__() is None
    R = np.abs(np.random.default_rng(13).standard_normal((10, 4)))
    assert pair_mean_k_smallest(R, 2).tobytes() == pair_oracle(R, 2).tobytes()
    assert len(counting.made) == 2


def test_a_real_park_keeps_the_svd_bytes():
    lib = _kernels._openblas()
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    if shutdown is None:
        pytest.skip("numpy's BLAS does not export blas_thread_shutdown_")
    X = np.random.default_rng(14).standard_normal((400, 300))
    threads = lib.scipy_openblas_get_num_threads64_()
    before = svd(X)
    shutdown()
    after = svd(X)
    assert lib.scipy_openblas_get_num_threads64_() == threads
    for name in ("U", "singular_values", "V"):
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes()


# shave's last steps keep 2 samples
@pytest.mark.filterwarnings(
    "ignore:K=3 exceeds the 2 available intermediaries for variables pairs"
    ":cumbia.CumbiaWarning",
    "ignore:K0=3 exceeds the 2 other samples:cumbia.CumbiaWarning")
def test_guards_hold_on_duplicate_heavy_input(monkeypatch):
    # every column but the first N is one column: a group of p - N
    # duplicate variables. Held as one label per object it costs n labels;
    # as the later members of each member, g(g - 1)/2 indices, it read
    # 1.57 (N+p)^2 buffers in cumbia() and 30.9 N x p buffers in shave(),
    # against their memory guards' 1.15 and 9.3
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
    N, p = 30, 1500
    rng = np.random.default_rng(0)
    X = np.repeat(rng.standard_normal((N, 1)), p, axis=1)
    X[:, :N] = rng.standard_normal((N, N))
    peak = traced_peak(lambda: cumbia(X, dims=3))[1] / (8 * (N + p) ** 2)
    bound = embedding._resident_peak_buffers()
    assert peak <= bound, f"cumbia() peak {peak:.2f} (N+p)^2 buffers, {bound}"
    peak = traced_peak(lambda: shave(X))[1] / (8 * N * p)
    bound = bicluster._peak_buffers((N, p), 3)
    assert peak <= bound, f"shave() peak {peak:.2f} N x p buffers, {bound:.2f}"
