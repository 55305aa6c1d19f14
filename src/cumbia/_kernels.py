"""The pairwise K-smallest kernel.

The single expensive operation in the whole pipeline is, for every pair of
rows (i, j) of an n x m matrix R, averaging the K smallest values of
{R[i, k] + R[j, k] : k < m}. For n in the thousands this is the dominant
cost.

The K smallest values are summed in ascending order and divided by K last,
so every entry is a fixed sequence of floating-point operations and the
result does not depend on how the selection is carried out. Short rows
are sorted whole, longer ones partitioned first (_smallest_first).

One producer (_fill_rows) makes the rows of the upper triangle, i and
the entries (i, j) for j > i, and hands them to a consumer a panel of up
to PANEL_ROWS rows at a time. It computes a row's pair sums a chunk of
columns j at a time, at most SCRATCH_VALUES sums, so a worker's scratch
does not grow with n. It also zeroes, in the panel, the pairs inside
the caller's duplicate groups, held as one label per row.
pair_mean_k_smallest's consumer copies each panel row and its mirror
into the n x n result; pair_mean_k0_smallest's merges each panel into
running lists of every object's k0 smallest entries, so the n x n matrix
is never stored.

Rows are split over one worker per CPU the process may run on, as long as
each gets at least MIN_SUMS_PER_WORKER pair sums (_workers_for). Worker w
of T handles the rows i with i % T == w, which interleaves long and short
rows so the workers get similar shares. Worker 0 is the calling thread,
so a call starts T - 1 threads, none for small inputs. Each entry is
computed by the same arithmetic whichever worker computes it; the
writer's workers write disjoint entries, and the running lists are per
worker and merged as a multiset at the end, so the output bytes do not
depend on the worker count. The threads overlap because np.add,
np.partition and np.sort release the interpreter lock. They are started
and joined inside each call, so no pool outlives a call, survives a fork
or is shared by concurrent callers. The calling thread allocates every
worker's scratch and panel before any thread starts, so the threads
allocate nothing large and their allocators keep no freed buffers.

After a BLAS call, the threads of the OpenBLAS that numpy's wheels bundle
spin-wait on the cores the workers need: on 2 cores, shave at 60 x 1500
took 0.70 s per call with them spinning and 0.46 s with them parked. So
a call that starts threads first parks that pool (_park_openblas):
OpenBLAS stops its threads, and its next call starts them again with the
same thread count, so no byte changes.
It parks only when the calling thread is the process's only Python
thread, as another one might be inside a BLAS call.
"""

import ctypes
import functools
import os
import threading

import numpy as np

from .errors import ParameterError

# pair sums a thread must get before it is worth starting: below this,
# starting threads and handing the interpreter lock between them costs
# more than the work they share
MIN_SUMS_PER_WORKER = 1_000_000
# rows a worker hands its consumer at once; the running lists merge a
# panel with one selection
PANEL_ROWS = 16
# pair sums a worker holds at once (a row i is walked over chunks of j),
# unless one chunk row of m sums is longer; speed only, never bytes. The
# variables-side kernel at 100 x 3000 took +90% at 2^13, +15% at 2^14,
# and the same time at 2^15 and 2^16; shave at 60 x 1500 took +4% at
# 2^15 and the same at 2^16
SCRATCH_VALUES = 2**16
# longest row _smallest_first sorts whole; speed only, never bytes. Sort
# / partition time, K = 3, numpy 2.4.6, AVX-512: 0.73-0.80 up to 256
# entries, 0.90-1.21 from 288 on, 2-2.5 at 1500-3000
SORT_COLUMNS = 256


def backend_name():
    """Name of the kernel implementation; the benchmark records it."""
    return "numpy"


def _worker_count():
    """CPUs this process may run on, the most workers a call uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """The 64-bit-integer OpenBLAS that numpy's wheels bundle, loaded on
    the first call, or None where numpy links another BLAS. It is looked
    up through numpy's linalg extension, which resolves symbols in the
    libraries it links (Linux, macOS), then in the wheel's numpy.libs
    folder (Windows)."""
    from numpy.linalg import _umath_linalg

    def paths():
        yield _umath_linalg.__file__
        import glob  # not imported where the extension resolves them

        yield from glob.glob(os.path.join(
            os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
            "libscipy_openblas64_*"))

    for path in paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


def _park_openblas():
    """Stop the bundled OpenBLAS's idle threads, if the calling thread is
    the only Python thread and the library exports the call."""
    shutdown = getattr(_openblas(), "blas_thread_shutdown_", None)
    if shutdown is not None and threading.active_count() == 1:
        shutdown()


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


def _workers_for(n, m):
    """Workers for an n x m R: one per CPU, as long as each gets
    MIN_SUMS_PER_WORKER pair sums, and at least one."""
    pair_sums = n * (n - 1) // 2 * m
    return max(1, min(_worker_count(), n - 1,
                      pair_sums // MIN_SUMS_PER_WORKER))


def _fill_rows(R, K, consume, first, step, group, buf, panel):
    """Hand rows first, first + step, ... of the upper triangle to consume,
    a panel at a time.

    Panel row t holds row i = rows[t]: entry (i, j) at column j > i, 0 at
    each later j with group[j] == group[i] >= 0 (group, one label per row,
    is None without duplicates) and inf elsewhere.
    consume(first, rows, panel) gets every PANEL_ROWS rows and the rest at
    the end; it may reorder the panel, which is inf-filled again after.
    buf, a c x m array, holds the pair sums of c columns j of a row at a
    time and is reordered in place; panel is an inf-filled PANEL_ROWS x n
    array.
    """
    n = R.shape[0]
    chunk = buf.shape[0]
    rows = []
    for i in range(first, n - 1, step):
        row = panel[len(rows)]
        for j in range(i + 1, n, chunk):
            sums = buf[:min(chunk, n - j)]
            np.add(R[i], R[j:j + chunk], out=sums)
            row[j:j + chunk] = _mean_k_smallest(sums, K)
        if group is not None and group[i] >= 0:
            row[i + 1:][group[i + 1:] == group[i]] = 0.0
        rows.append(i)
        if len(rows) == PANEL_ROWS or i + step >= n - 1:
            consume(first, rows, panel[:len(rows)])
            panel.fill(np.inf)
            rows = []


def _run_rows(R, K, consume, workers, zero_groups):
    """Compute every row of the upper triangle of R and hand it to consume.

    Worker w of workers gets the rows i with i % workers == w (_fill_rows).
    Worker 0 is the calling thread, every other worker a thread of its own
    with scratch the calling thread allocated, started once OpenBLAS's pool
    is parked. The pairs inside each group of zero_groups are 0. An
    exception in any worker is re-raised on the caller once every thread
    is joined.
    """
    R = np.ascontiguousarray(R, dtype=np.float64)
    n, m = R.shape
    if not 1 <= K <= m:
        raise ParameterError(f"K={K} outside [1, {m}]")
    group = np.full(n, -1) if zero_groups else None
    for label, members in enumerate(zero_groups):
        group[members] = label
    chunk = min(max(n - 1, 0), max(1, SCRATCH_VALUES // m))
    scratch = [(np.empty((chunk, m)), np.full((PANEL_ROWS, n), np.inf))
               for _ in range(workers)]
    errors = []

    def work(first):
        try:
            _fill_rows(R, K, consume, first, workers, group, *scratch[first])
        except BaseException as exc:  # re-raised on the caller below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, workers)]
    if threads:
        _park_openblas()
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def pair_mean_k_smallest(R, K, out=None, zero_groups=()):
    """Symmetric n x n matrix of K-smallest-sum averages over row pairs.

    Entry (i, j) is the mean of the K smallest values of R[i] + R[j]
    (elementwise sums over the m columns); the diagonal and the pairs
    inside each group of zero_groups are zero. K must already be clamped
    to at most m by the caller. With out, an n x n float64 array that may
    be a strided view into a larger buffer, every entry of out is written
    and out is returned; its prior contents do not matter.
    """
    n, m = np.shape(R)
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    elif out.shape != (n, n) or out.dtype != np.float64:
        raise ParameterError(
            f"out must be a {n} x {n} float64 array, got {out.shape} "
            f"{out.dtype}")
    np.fill_diagonal(out, 0.0)

    def write(w, rows, panel):
        for i, row in zip(rows, panel):
            out[i, i + 1:] = row[i + 1:]
            out[i + 1:, i] = row[i + 1:]

    _run_rows(R, K, write, _workers_for(n, m), zero_groups)
    return out


def pair_mean_k0_smallest(R, K, k0, zero_groups=()):
    """Per row i of R, the mean of its k0 smallest pair entries.

    The entries are those of pair_mean_k_smallest(R, K, zero_groups=
    zero_groups) off the diagonal. Equal to _mean_k_smallest of that
    matrix with an inf diagonal, byte for byte, without storing it: each
    worker keeps per object a running list of its k0 smallest entries,
    and the k0 smallest of a multiset union of lists are the k0 smallest
    of the whole row. Needs 1 <= k0 <= n - 1.
    """
    n, m = np.shape(R)
    if not 1 <= k0 <= n - 1:
        raise ParameterError(f"K0={k0} outside [1, {n - 1}]")
    workers = _workers_for(n, m)
    own = np.full((n, k0), np.inf)
    lists = np.full((workers, n, k0 + PANEL_ROWS), np.inf)

    def merge(w, rows, panel):
        # the panel's transpose joins the lists of the later objects j; each
        # panel row's own k0 smallest go to its row of own, which the
        # workers write at disjoint rows. Every panel row is inf at columns
        # j <= rows[0], so only the lists after it can change
        later = rows[0] + 1
        merged = lists[w, later:, :k0 + len(rows)]
        merged[:, k0:] = panel[:, later:].T
        _smallest_first(merged, k0)
        _smallest_first(panel, k0)
        own[rows] = panel[:, :k0]

    _run_rows(R, K, merge, workers, zero_groups)
    return _mean_k_smallest(np.concatenate([own, *lists[:, :, :k0]], axis=1),
                            k0)
