"""Classical MDS, the PCA/SVD biplot, scree spectra, and the full pipeline.

classical_mds embeds objects from a dissimilarity matrix through the
double-centered squared dissimilarities. One LAPACK pass in the Gram
matrix's own buffer gives their whole signed spectrum and only the
eigenvectors the coordinates use, those of the top dims positive
eigenvalues. Negative eigenvalues are never used for coordinates but stay
in the reported spectrum, because their presence (and sign pattern) is
informative for joint sample-variable matrices. cumbia() chains SVD,
truncation, the joint dissimilarity, and MDS into the end-to-end method.

double_center and classical_mds leave their argument as it is and put the
Gram matrix in a new buffer. cumbia() owns its joint matrix, so it squares
and double-centers that buffer in place with the same routine and hands
it to the same eigensolver step, which reduces it in place. No SVD factor
outlives the joint buffer's allocation, and the kernel reads D_sv from
its blocks, so at N+p = 3100 the tracemalloc peak is 1.06 (N+p)^2
float64 buffers and the resident peak 1.11, both set while the kernel
runs beside one contiguous copy of D_sv.
"""

import ctypes
import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dissimilarity import CumbiaConfig, JointDissimilarity, joint_matrix
from .errors import (CumbiaWarning, InputError, InvariantViolation,
                     ParameterError)
from .matrix_core import (DataMatrix, _fix_column_signs, _truncation_rank,
                          require_finite, svd)

POSITIVE_EIGENVALUE_CUTOFF = 1e-10
# resident peak of cumbia() in (N+p)^2 float64 buffers: the joint matrix,
# later the Gram matrix that dsytrd reduces in place, plus one contiguous
# copy of D_sv and the kernel's fixed scratch; measured 1.11 above the
# pre-call RSS at N+p = 3100 and 1.05 at N+p = 6200 (BENCH_19.json)
RESIDENT_PEAK_BUFFERS = 1.15
# the same where the np.linalg.eigh fallback runs: the Gram matrix, eigh's
# copy of it, its eigenvectors and dsyevd's 2 (N+p)^2 workspace; measured
# 5.33 at N+p = 3100 and 5.15 at N+p = 6200
EIGH_RESIDENT_PEAK_BUFFERS = 5.4
# the bound LAPACK routines: (one-letter flags, arguments), every argument
# a pointer as Fortran takes it, followed by one hidden length per flag
LAPACK_ROUTINES = {"dsytrd": (1, 10), "dsterf": (0, 4), "dstemr": (2, 21),
                   "dormtr": (3, 13)}
# edge of the square tiles double_center checks and symmetrizes in place
SYMMETRY_TILE = 256
# the memory limit of the cgroup mounted at /sys/fs/cgroup, a container's
# own: cgroup v2, then v1; only read
CGROUP_MEMORY_LIMITS = ("/sys/fs/cgroup/memory.max",
                        "/sys/fs/cgroup/memory/memory.limit_in_bytes")


@dataclass
class Embedding:
    """MDS coordinates plus the full signed eigenvalue spectrum."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    object_kinds: list
    object_labels: list
    dims_used: int
    shortfall: bool = False
    config: CumbiaConfig | None = None


@dataclass
class BiplotCoordinates:
    """alpha-split biplot: samples as U_s L^alpha, variables as V_s L^(1-alpha)."""

    sample_coords: np.ndarray
    variable_coords: np.ndarray
    alpha: float
    s: int
    object_kinds: list
    object_labels: list


def _square_values(D):
    if isinstance(D, JointDissimilarity):
        return D.values, D.object_kinds, D.object_labels
    V = np.asarray(D, dtype=np.float64)
    n = V.shape[0]
    return V, ["object"] * n, [f"o{i + 1}" for i in range(n)]


def _tile_pairs(n):
    """(rows, cols) slice pairs covering the upper triangle of an n x n
    matrix in SYMMETRY_TILE blocks, diagonal blocks included."""
    for a in range(0, n, SYMMETRY_TILE):
        for b in range(a, n, SYMMETRY_TILE):
            yield (slice(a, a + SYMMETRY_TILE), slice(b, b + SYMMETRY_TILE))


def _require_symmetric(V):
    """Raise InputError unless V is square, finite and symmetric within
    1e-12, checked tile by tile (a NaN or inf entry makes its tile's
    difference NaN or inf, which fails the comparison; numpy's warning
    for inf - inf is silenced, since the error says it)."""
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InputError("dissimilarity matrix must be square")
    with np.errstate(invalid="ignore", over="ignore"):
        for rows, cols in _tile_pairs(V.shape[0]):
            if not np.max(np.abs(V[rows, cols] - V[cols, rows].T)) <= 1e-12:
                raise InputError("dissimilarity matrix is not finite and "
                                 "symmetric within 1e-12")


def _double_center_in_place(C):
    """Overwrite the squared dissimilarities in C with their Gram matrix.

    Subtracts the row and column means, adds the grand mean, scales by
    -1/2 and symmetrizes against rounding, all in C's own buffer: the
    symmetrization goes tile by tile, so no transpose of the whole matrix
    is allocated. Returns C.
    """
    row_means = C.mean(axis=1)
    grand_mean = row_means.mean()
    C -= row_means[:, None]
    C -= row_means[None, :]
    C += grand_mean
    C *= -0.5
    # (C + C.T) / 2, one tile pair at a time
    for rows, cols in _tile_pairs(C.shape[0]):
        upper = C[rows, cols]
        lower = C[cols, rows]
        if rows == cols:
            upper[...] = (upper + lower.T) / 2.0
        else:
            upper += lower.T
            upper /= 2.0
            lower[...] = upper.T
    return C


def double_center(D):
    """Gram matrix C = -1/2 J (D o D) J with J = I - (1/n) 11^T.

    Expanded directly from row means, column means, and the grand mean of
    the squared dissimilarities, then symmetrized against rounding. D is
    left as it is; C is one new n x n buffer.
    """
    V, _, _ = _square_values(D)
    _require_symmetric(V)
    # C order whatever V's layout: the eigensolver reads C's buffer as is
    return _double_center_in_place(np.multiply(V, V, order="C"))


@functools.cache
def _lapack():
    """LAPACK_ROUTINES from the OpenBLAS that numpy's wheels bundle
    (_kernels._openblas), bound on the first call, or None where numpy
    links another LAPACK."""
    lib = _kernels._openblas()
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


def _require_dims(dims):
    if dims < 1:
        raise ParameterError(f"dims={dims} must be >= 1")


def _embed_gram(C, dims, kinds, labels):
    """Embedding from the Gram matrix C, which the eigensolver consumes."""
    eigenvalues, vectors = _eigen_in_place(C, dims)
    d = vectors.shape[1]
    coords = _fix_column_signs(vectors * np.sqrt(eigenvalues[:d]))
    shortfall = d < dims
    if shortfall:
        warnings.warn(
            f"only {d} positive eigenvalues for {dims} requested dimensions",
            CumbiaWarning,
            stacklevel=3,
        )
    return Embedding(
        coordinates=coords,
        eigenvalues=eigenvalues,
        object_kinds=list(kinds),
        object_labels=list(labels),
        dims_used=d,
        shortfall=shortfall,
    )


def classical_mds(D, dims):
    """Embed a dissimilarity matrix in at most dims dimensions.

    The whole signed spectrum of the double-centered matrix is kept,
    descending, in the eigenvalues field (eigvalsh's bytes, unless the
    eigh fallback runs). Coordinates use only eigenvalues above
    1e-10 * |largest eigenvalue|; _eigen_in_place computes only the d used
    eigenvectors, and each is scaled by the square root of its
    eigenvalue. If fewer than dims eigenvalues qualify, all available are
    returned and the shortfall flag is set. D is left as it is: the Gram
    matrix goes into a new buffer, which the eigensolver consumes.
    """
    _require_dims(dims)
    V, kinds, labels = _square_values(D)
    return _embed_gram(double_center(V), dims, kinds, labels)


def pca_biplot(X, s=None, alpha=1.0):
    """Classical biplot coordinates from the SVD of X.

    alpha=1 puts all scale on the samples (conventional PCA scores);
    alpha=0 puts it on the variables. For any alpha the coordinate product
    reconstructs the rank-s matrix X_s.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha={alpha} outside [0, 1]")
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    f = svd(X)
    s = _truncation_rank(s, f.r, "s=")
    lam = f.singular_values[:s]
    sample_coords = f.U[:, :s] * lam**alpha
    # scaled in place in svd's V, which no other caller holds; s < r
    # columns are copied first, so V^T is not kept alive for them
    variable_coords = f.V if s == f.r else f.V[:, :s].copy()
    variable_coords *= lam ** (1.0 - alpha)
    return BiplotCoordinates(sample_coords, variable_coords, float(alpha),
                             int(s), *X.objects())


def scree(spectrum, mode):
    """Fractions of spectrum mass per component.

    mode="singular-values": fractions lambda_k^2 / sum(lambda^2), second
    element of the result is an empty list. mode="eigenvalues": fractions
    over the positive eigenvalues only, plus the negative eigenvalues as a
    separate signed list. Input order is preserved in both outputs.
    """
    arr = np.asarray(spectrum, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ParameterError("spectrum is empty")
    require_finite(arr[None, :], "spectrum")
    if mode == "singular-values":
        if np.any(arr < 0):
            raise ParameterError("singular values cannot be negative")
        sq = arr * arr
        total = sq.sum()
        if total == 0:
            raise ParameterError("spectrum is all zero")
        return list(sq / total), []
    if mode == "eigenvalues":
        positive = arr[arr > 0]
        negatives = [float(v) for v in arr[arr < 0]]
        if positive.size == 0:
            return [], negatives
        return list(positive / positive.sum()), negatives
    raise ParameterError(
        f"mode must be singular-values or eigenvalues, not {mode!r}"
    )


def _first_line(path):
    """The stripped first line of the text file at path, or None."""
    try:
        with open(path, encoding="ascii") as handle:
            return handle.readline().strip()
    except (OSError, ValueError):
        return None


def _physical_memory_bytes():
    """The smaller of installed memory and the process's cgroup memory
    limit, or None where neither is known."""
    limits = [int(text) for text in map(_first_line, CGROUP_MEMORY_LIMITS)
              if text and text.isdigit()]  # cgroup v2 writes "max" for none
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    return min(limits, default=None)


def _require_memory_for(what, buffers, shape):
    """Raise ParameterError if what, whose measured resident peak is
    buffers float64 arrays of the given shape, cannot fit in physical
    memory."""
    need = buffers * math.prod(shape) * 8
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ParameterError(
            f"{what} needs about {_size(need)} ({buffers:.3g} x "
            f"{' x '.join(map(str, shape))} float64), more than the "
            f"{_size(have)} of physical memory the process may use"
        )


def _resident_peak_buffers():
    """The measured resident peak of cumbia() with the eigensolver that runs."""
    fallback = _lapack() is None
    return EIGH_RESIDENT_PEAK_BUFFERS if fallback else RESIDENT_PEAK_BUFFERS


def _size(nbytes):
    if nbytes < 2**30:
        return f"{nbytes / 2**20:.0f} MiB"
    return f"{nbytes / 2**30:.1f} GiB"


def cumbia(X, cfg=None, dims=3):
    """End-to-end joint embedding of samples and variables.

    SVD, rank-s truncation, joint two-edge-path dissimilarities, classical
    MDS. Returns the Embedding with the configuration recorded. The joint
    matrix is the one (N+p)^2 buffer the call allocates: it is squared
    and double-centered in place into the Gram matrix, which the
    eigensolver then reduces in place, so classical_mds's copy is not
    made. Raises ParameterError before any work if the estimated resident
    peak, RESIDENT_PEAK_BUFFERS (N+p)^2 float64 buffers
    (EIGH_RESIDENT_PEAK_BUFFERS where the np.linalg.eigh fallback runs),
    exceeds physical memory (installed memory or, if lower, the cgroup's
    limit; not the memory free at the time of the call).
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    require_finite(X.values)
    _require_dims(dims)
    n = sum(X.values.shape)
    _require_memory_for(f"embedding {n} objects", _resident_peak_buffers(),
                        (n, n))
    if cfg is None:
        cfg = CumbiaConfig()
    D = joint_matrix(X, cfg)
    C = D.values
    _require_symmetric(C)
    np.multiply(C, C, out=C)
    emb = _embed_gram(_double_center_in_place(C), dims, D.object_kinds,
                      D.object_labels)
    emb.config = cfg
    return emb
