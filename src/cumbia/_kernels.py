"""The pairwise K-smallest kernel.

The single expensive operation in the whole pipeline is, for every pair of
rows (i, j) of an n x m matrix R, averaging the K smallest values of
{R[i, k] + R[j, k] : k < m}. For n in the thousands this is the dominant
cost.

The K smallest values are summed in ascending order and divided by K last,
so every entry is a fixed sequence of floating-point operations and the
result does not depend on how the selection is carried out.

Rows are split over one thread per CPU the process may run on, as long as
each thread gets at least MIN_SUMS_PER_WORKER pair sums; smaller inputs run
on the calling thread. Worker w of T handles the rows i with i % T == w,
which interleaves long and short rows of the upper triangle so the workers
get similar shares. The calling thread zeroes the diagonal first; row i
fills out[i, i+1:] and out[i+1:, i] and nothing else, so no two workers
write the same entry, and each entry is computed by the same arithmetic
whichever worker computes it: the output bytes do not depend on the thread
count. The threads overlap because np.add, np.partition and np.sort
release the interpreter lock. They are started and joined inside each
call, so no pool outlives a call, survives a fork or is shared by
concurrent callers.
"""

import os
import threading

import numpy as np

from .errors import ParameterError

# pair sums a thread must get before it is worth starting: below this,
# starting threads and handing the interpreter lock between them costs
# more than the work they share
MIN_SUMS_PER_WORKER = 1_000_000


def backend_name():
    """Name of the kernel implementation; the benchmark records it."""
    return "numpy"


def _worker_count():
    """CPUs this process may run on, the most threads a call starts."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mean_k_smallest(rows, K):
    """Per row of a 2-D array, the mean of its K smallest values.

    Partitions each row in place; the K values are summed in ascending
    order and divided by K last.
    """
    if K < rows.shape[1]:
        rows.partition(K - 1, axis=1)
    part = rows[:, :K]
    part.sort(axis=1)
    acc = part[:, 0].copy()
    for t in range(1, K):
        acc += part[:, t]
    acc /= K
    return acc


def _fill_rows(R, K, out, first, step):
    """Rows first, first + step, ... of the upper triangle and their mirror.

    One (n - 1) x m buffer holds each row's pair sums and is partitioned in
    place, so a worker allocates it once instead of twice per row.
    """
    n, m = R.shape
    buf = np.empty((max(n - 1, 0), m), dtype=np.float64)
    for i in range(first, n - 1, step):
        sums = buf[:n - 1 - i]
        np.add(R[i], R[i + 1:], out=sums)
        acc = _mean_k_smallest(sums, K)
        out[i, i + 1:] = acc
        out[i + 1:, i] = acc


def pair_mean_k_smallest(R, K, out=None):
    """Symmetric n x n matrix of K-smallest-sum averages over row pairs.

    Entry (i, j) is the mean of the K smallest values of R[i] + R[j]
    (elementwise sums over the m columns); the diagonal is zero. K must
    already be clamped to at most m by the caller. With out, an n x n
    float64 array that may be a strided view into a larger buffer, every
    entry of out is written and out is returned; its prior contents do
    not matter.
    """
    R = np.ascontiguousarray(R, dtype=np.float64)
    n, m = R.shape
    if not 1 <= K <= m:
        raise ParameterError(f"K={K} outside [1, {m}]")
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    elif out.shape != (n, n) or out.dtype != np.float64:
        raise ParameterError(
            f"out must be a {n} x {n} float64 array, got {out.shape} "
            f"{out.dtype}")
    np.fill_diagonal(out, 0.0)
    pair_sums = n * (n - 1) // 2 * m
    workers = max(1, min(_worker_count(), n - 1,
                         pair_sums // MIN_SUMS_PER_WORKER))
    if workers == 1:
        _fill_rows(R, K, out, 0, 1)
        return out
    errors = []

    def work(first):
        try:
            _fill_rows(R, K, out, first, workers)
        except BaseException as exc:  # re-raised on the caller below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out
