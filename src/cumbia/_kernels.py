"""The pairwise K-smallest kernel.

The single expensive operation in the whole pipeline is, for every pair of
rows (i, j) of an n x m matrix R, averaging the K smallest values of
{R[i, k] + R[j, k] : k < m}. For n in the thousands this is the dominant
cost.

The K smallest values are summed in ascending order and divided by K last,
so every entry is a fixed sequence of floating-point operations and the
result does not depend on how the selection is carried out. Short rows
are sorted whole, longer ones partitioned first (_smallest_first).

Each finished row of the upper triangle, i and the entries (i, j) for
j > i, goes to a consumer. pair_mean_k_smallest's consumer writes the row
and its mirror into the n x n result. pair_mean_k0_smallest's consumer
keeps only each object's running k0 smallest entries, so the n x n matrix
is never stored.

Rows are split over one thread per CPU the process may run on, as long as
each thread gets at least MIN_SUMS_PER_WORKER pair sums; smaller inputs run
on the calling thread. Worker w of T handles the rows i with i % T == w,
which interleaves long and short rows of the upper triangle so the workers
get similar shares. Each entry is computed by the same arithmetic whichever
worker computes it. The writer's workers write disjoint entries; the
running lists are per worker and merged as a multiset at the end. So for
either consumer the output bytes do not depend on the thread count. The
threads overlap because np.add, np.partition and np.sort release the
interpreter lock. They are started and joined inside each call, so no pool
outlives a call, survives a fork or is shared by concurrent callers.
"""

import os
import threading

import numpy as np

from .errors import ParameterError

# pair sums a thread must get before it is worth starting: below this,
# starting threads and handing the interpreter lock between them costs
# more than the work they share
MIN_SUMS_PER_WORKER = 1_000_000
# rows a running-lists consumer buffers before merging them into its lists
# with one selection
PANEL_ROWS = 16
# longest row _smallest_first sorts whole; speed only, never bytes. Sort
# / partition time, K = 3, numpy 2.4.6, AVX-512: 0.73-0.80 up to 256
# entries, 0.90-1.21 from 288 on, 2-2.5 at 1500-3000
SORT_COLUMNS = 256


def backend_name():
    """Name of the kernel implementation; the benchmark records it."""
    return "numpy"


def _worker_count():
    """CPUs this process may run on, the most threads a call starts."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _smallest_first(rows, k):
    """Reorder each row of a 2-D array in place so that its first k
    entries are its k smallest values, in ascending order."""
    if rows.shape[1] > SORT_COLUMNS and k < rows.shape[1]:
        rows.partition(k - 1, axis=1)
        rows = rows[:, :k]
    rows.sort(axis=1)


def _mean_k_smallest(rows, K):
    """Per row of a 2-D array, the mean of its K smallest values, summed
    in ascending order and divided by K last; reorders each row in place."""
    _smallest_first(rows, K)
    acc = rows[:, 0].copy()
    for t in range(1, K):
        acc += rows[:, t]
    acc /= K
    return acc


def _fill_rows(R, K, consume, first, step):
    """Hand rows first, first + step, ... of the upper triangle to consume.

    consume(i, acc) gets acc[j - i - 1] = entry (i, j) for j > i. One
    (n - 1) x m buffer holds each row's pair sums and is reordered in
    place, so a worker allocates it once instead of twice per row.
    """
    n, m = R.shape
    buf = np.empty((max(n - 1, 0), m), dtype=np.float64)
    for i in range(first, n - 1, step):
        sums = buf[:n - 1 - i]
        np.add(R[i], R[i + 1:], out=sums)
        consume(i, _mean_k_smallest(sums, K))


def _run_rows(R, K, make_consumer):
    """Compute every row of the upper triangle of R; return the consumers.

    Starts one thread per CPU, as long as each gets MIN_SUMS_PER_WORKER
    pair sums, and at least one. Consumer w of T, made by make_consumer(),
    gets the rows i with i % T == w, on a thread of its own when T > 1.
    """
    R = np.ascontiguousarray(R, dtype=np.float64)
    n, m = R.shape
    if not 1 <= K <= m:
        raise ParameterError(f"K={K} outside [1, {m}]")
    pair_sums = n * (n - 1) // 2 * m
    workers = max(1, min(_worker_count(), n - 1,
                         pair_sums // MIN_SUMS_PER_WORKER))
    consumers = [make_consumer() for _ in range(workers)]
    if workers == 1:
        _fill_rows(R, K, consumers[0], 0, 1)
        return consumers
    errors = []

    def work(first):
        try:
            _fill_rows(R, K, consumers[first], first, workers)
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
    return consumers


def pair_mean_k_smallest(R, K, out=None):
    """Symmetric n x n matrix of K-smallest-sum averages over row pairs.

    Entry (i, j) is the mean of the K smallest values of R[i] + R[j]
    (elementwise sums over the m columns); the diagonal is zero. K must
    already be clamped to at most m by the caller. With out, an n x n
    float64 array that may be a strided view into a larger buffer, every
    entry of out is written and out is returned; its prior contents do
    not matter.
    """
    n = len(R)
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    elif out.shape != (n, n) or out.dtype != np.float64:
        raise ParameterError(
            f"out must be a {n} x {n} float64 array, got {out.shape} "
            f"{out.dtype}")
    np.fill_diagonal(out, 0.0)

    def write(i, acc):
        out[i, i + 1:] = acc
        out[i + 1:, i] = acc

    _run_rows(R, K, lambda: write)
    return out


class _RunningSmallest:
    """One worker's running k0 smallest entries per object.

    Rows are buffered in a PANEL_ROWS x n panel, inf where j <= i and 0
    on the duplicate pairs that zero lists. A full panel is merged with
    one _smallest_first: its transpose joins the running lists of the later
    objects j. Each panel row's own k0 smallest go to row i of own, which
    the workers share and write at disjoint rows.
    """

    def __init__(self, n, k0, zero, own):
        self.k0 = k0
        self.zero = zero
        self.own = own
        self.lists = np.full((n, k0 + PANEL_ROWS), np.inf)
        self.panel = np.full((PANEL_ROWS, n), np.inf)
        self.rows = []

    def __call__(self, i, acc):
        row = self.panel[len(self.rows)]
        row[i + 1:] = acc
        later = self.zero.get(i)
        if later is not None:
            row[later] = 0.0
        self.rows.append(i)
        if len(self.rows) == PANEL_ROWS:
            self.flush()

    def flush(self):
        k0, b = self.k0, len(self.rows)
        panel = self.panel[:b]
        merged = self.lists[:, :k0 + b]
        merged[:, k0:] = panel.T
        _smallest_first(merged, k0)
        _smallest_first(panel, k0)
        self.own[self.rows] = panel[:, :k0]
        panel.fill(np.inf)
        self.rows = []


def pair_mean_k0_smallest(R, K, k0, zero_groups=()):
    """Per row i of R, the mean of its k0 smallest pair entries.

    The entries are those of pair_mean_k_smallest(R, K) off the diagonal,
    with the pairs inside each group of zero_groups set to 0. Equal to
    _mean_k_smallest of that matrix with an inf diagonal, byte for byte,
    without storing it: each object keeps a running list of its k0
    smallest entries, and the k0 smallest of a multiset union of lists
    are the k0 smallest of the whole row. Needs 1 <= k0 <= n - 1.
    """
    n = len(R)
    if not 1 <= k0 <= n - 1:
        raise ParameterError(f"K0={k0} outside [1, {n - 1}]")
    zero = {}
    for group in zero_groups:
        group = sorted(group)
        for t, i in enumerate(group[:-1]):
            zero[i] = np.array(group[t + 1:])
    own = np.full((n, k0), np.inf)
    consumers = _run_rows(R, K, lambda: _RunningSmallest(n, k0, zero, own))
    for c in consumers:
        c.flush()
    return _mean_k_smallest(
        np.concatenate([own] + [c.lists[:, :k0] for c in consumers], axis=1),
        k0)
