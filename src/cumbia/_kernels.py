"""The pairwise K-smallest kernel and the in-place MDS eigensolver.

The kernel's operation is, for every pair of rows (i, j) of an n x m
matrix R, averaging the K smallest values of {R[i, k] + R[j, k] : k < m}.
For n in the thousands it and the eigensolve are the dominant costs.

The K smallest values are summed in ascending order and divided by K last,
so every entry is a fixed sequence of floating-point operations and the
result does not depend on how the selection is carried out. Short rows
are sorted whole, longer ones partitioned first (_smallest_first).

One producer (_fill_rows) makes the rows of the upper triangle, i and
the entries (i, j) for j > i, and hands them to a consumer a panel of up
to PANEL_ROWS rows at a time. It computes a row's pair sums a chunk of
columns j at a time, at most SCRATCH_VALUES sums, so a worker's scratch
does not grow with n. It also zeroes, in the panel, the pairs of
duplicates, bitwise identical rows of R (identical_index_groups), held
as one label per row.
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
spin-wait on the cores the workers need (README "Install" has timings),
so a call that starts threads first parks that pool (_park_openblas):
OpenBLAS stops its threads, and its next call starts them again with the
same thread count, so no byte changes.
It parks only when the calling thread is the process's only Python
thread, as another one might be inside a BLAS call.

The MDS eigensolver (_eigen_in_place) binds LAPACK routines from that
same OpenBLAS through ctypes and runs them in the Gram matrix's own
buffer: it reduces the matrix to tridiagonal form in place, takes the
whole spectrum from that and computes only the eigenvectors the
coordinates use. Where numpy links another LAPACK, one np.linalg.eigh
call gives both instead.
"""

import ctypes
import functools
import os
import threading

import numpy as np

from .errors import InvariantViolation, ParameterError

# pair sums a thread must get before it is worth starting: below this,
# starting threads and handing the interpreter lock between them costs
# more than the work they share
MIN_SUMS_PER_WORKER = 1_000_000
# rows a worker hands its consumer at once; the running lists merge a
# panel with one selection
PANEL_ROWS = 16
# pair sums a worker holds at once; speed only (timed in README "Memory")
SCRATCH_VALUES = 2**16
# longest row _smallest_first sorts whole; speed only (README "Memory")
SORT_COLUMNS = 256
# eigenvalues at most this fraction of the largest get no MDS coordinate
POSITIVE_EIGENVALUE_CUTOFF = 1e-10
# the bound LAPACK routines: (one-letter flags, arguments), every argument
# a pointer as Fortran takes it, followed by one hidden length per flag
LAPACK_ROUTINES = {"dsytrd": (1, 10), "dsterf": (0, 4), "dstemr": (2, 21),
                   "dormtr": (3, 13)}


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


@functools.cache
def _lapack():
    """LAPACK_ROUTINES from the OpenBLAS that numpy's wheels bundle
    (_openblas), bound on the first call, or None where numpy links
    another LAPACK."""
    lib = _openblas()
    try:
        routines = {name: getattr(lib, f"scipy_{name}_64_")
                    for name in LAPACK_ROUTINES}
    except AttributeError:  # no such library, or one without the routines
        return None
    for name, (flags, count) in LAPACK_ROUTINES.items():
        routines[name].argtypes = ([ctypes.c_void_p] * count
                                   + [ctypes.c_size_t] * flags)
        routines[name].restype = None
    return routines


def _int(value):
    return ctypes.byref(ctypes.c_int64(value))


def _lapack_call(lapack, name, flags, *args, work=()):
    """Call name with its one-letter flags, args, one (WORK, LWORK) pair
    per dtype in work, INFO and the flags' hidden lengths; raise
    InvariantViolation unless INFO comes back 0. Workspaces are sized by a
    query first: the minimum sizes force dsytrd's slower unblocked
    reduction."""
    info = ctypes.c_int64()

    def call(buffers, size):
        lapack[name](*(f.encode() for f in flags), *args,
                     *(x for b in buffers for x in (b.ctypes, _int(size(b)))),
                     ctypes.byref(info), *(1 for _ in flags))
        if info.value != 0:
            raise InvariantViolation(f"LAPACK {name} returned "
                                     f"info={info.value}")

    buffers = [np.zeros(1, dtype) for dtype in work]
    if work:
        call(buffers, lambda b: -1)
        buffers = [np.empty(max(1, int(b[0])), b.dtype) for b in buffers]
    call(buffers, len)


def _used_dims(eigenvalues, dims):
    """min(dims, the count of eigenvalues above the positive cutoff)."""
    cutoff = POSITIVE_EIGENVALUE_CUTOFF * abs(eigenvalues[0])
    return min(dims, int(np.sum(eigenvalues > cutoff)))


def _eigen_in_place(C, dims):
    """The whole spectrum of the symmetric C, descending, and the n x d
    eigenvectors of its top d = min(dims, positive count) eigenvalues.

    C, a C-ordered float64 matrix its caller allocated, is consumed:
    dsytrd reduces it in place to tridiagonal T = Q^T C Q, keeping Q's
    reflectors in it. dsterf gives T's spectrum (eigvalsh runs
    the same two routines, so the bytes are eigvalsh's), dstemr the d
    eigenvectors of T and dormtr maps them back through Q. Where numpy's
    LAPACK lacks these, one np.linalg.eigh call gives both.
    """
    lapack = _lapack()
    if lapack is None:
        values, vectors = np.linalg.eigh(C)
        eigenvalues = values[::-1].copy()
        return eigenvalues, vectors[:, ::-1][:, :_used_dims(eigenvalues, dims)]
    n = C.shape[0]
    diag, off, tau = np.empty(n), np.zeros(n), np.empty(max(1, n - 1))
    _lapack_call(lapack, "dsytrd", "L", _int(n), C.ctypes, _int(n),
                 diag.ctypes, off.ctypes, tau.ctypes, work=[np.float64])
    spectrum = diag.copy()
    _lapack_call(lapack, "dsterf", "", _int(n), spectrum.ctypes,
                 off.copy().ctypes)
    eigenvalues = spectrum[::-1].copy()
    d = _used_dims(eigenvalues, dims)
    Z = np.empty((d, n))  # Fortran's n x d matrix, eigenvalues ascending
    if d:
        found, bound = ctypes.c_int64(), ctypes.byref(ctypes.c_double())
        _lapack_call(lapack, "dstemr", "VI", _int(n), diag.ctypes,
                     off.ctypes, bound, bound, _int(n - d + 1), _int(n),
                     ctypes.byref(found), np.empty(n).ctypes, Z.ctypes,
                     _int(n), _int(d), np.empty(2 * d, np.int64).ctypes,
                     _int(0), work=[np.float64, np.int64])
        if found.value != d:
            raise InvariantViolation(
                f"LAPACK dstemr found {found.value} of {d} eigenvectors")
        _lapack_call(lapack, "dormtr", "LLN", _int(n), _int(d), C.ctypes,
                     _int(n), tau.ctypes, Z.ctypes, _int(n),
                     work=[np.float64])
    return eigenvalues, Z[::-1].T


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


def identical_index_groups(M):
    """Groups (size >= 2) of the indices of bitwise identical rows of the
    float64 matrix M, in the order of their first members.

    Each row is keyed by the wrapping sum of its entries read as int64,
    which identical rows share, and bytes are compared only among rows
    whose key is shared: 8 bytes per row are kept, a sorted copy of the
    keys is made, and a row with a key of its own is never copied.
    """
    keys = M.view(np.int64).sum(axis=1)
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    del ordered
    same = {}
    for i in np.flatnonzero(np.isin(keys, repeated)).tolist():
        same.setdefault(M[i].tobytes(), []).append(i)
    return sorted(g for g in same.values() if len(g) > 1)


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


def _run_rows(R, K, consume, workers):
    """Compute every row of the upper triangle of R and hand it to consume.

    Worker w of workers gets the rows i with i % workers == w (_fill_rows).
    Worker 0 is the calling thread, every other worker a thread of its own
    with scratch the calling thread allocated, started once OpenBLAS's pool
    is parked. The pairs of bitwise identical rows of R are 0. An
    exception in any worker is re-raised on the caller once every thread
    is joined.
    """
    R = np.ascontiguousarray(R, dtype=np.float64)
    n, m = R.shape
    if not 1 <= K <= m:
        raise ParameterError(f"K={K} outside [1, {m}]")
    groups = identical_index_groups(R)
    group = np.full(n, -1) if groups else None
    for label, members in enumerate(groups):
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


def pair_mean_k_smallest(R, K, out=None):
    """Symmetric n x n matrix of K-smallest-sum averages over row pairs.

    Entry (i, j) is the mean of the K smallest values of R[i] + R[j]
    (elementwise sums over the m columns); the diagonal and the pairs of
    bitwise identical rows of R are zero. K must already be clamped
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

    _run_rows(R, K, write, _workers_for(n, m))
    return out


def pair_mean_k0_smallest(R, K, k0):
    """Per row i of R, the mean of its k0 smallest pair entries.

    The entries are those of pair_mean_k_smallest(R, K) off the diagonal.
    Equal to _mean_k_smallest of that matrix with an inf diagonal, byte
    for byte, without storing it: each worker keeps per object a running
    list of its k0 smallest entries, and the k0 smallest of a multiset
    union of lists are the k0 smallest of the whole row. Needs
    1 <= k0 <= n - 1.
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

    _run_rows(R, K, merge, workers)
    return _mean_k_smallest(np.concatenate([own, *lists[:, :, :k0]], axis=1),
                            k0)
