"""Classical MDS, the PCA/SVD biplot, scree spectra, and the full pipeline.

classical_mds embeds objects from a dissimilarity matrix through the
double-centered squared dissimilarities. The eigensolver
(_kernels._eigen_in_place) gives their whole signed spectrum and only
the eigenvectors the coordinates use, those of the top dims positive
eigenvalues. Negative eigenvalues are never used for coordinates but stay
in the reported spectrum, because their presence (and sign pattern) is
informative for joint sample-variable matrices. cumbia() chains SVD,
truncation, the joint dissimilarity, and MDS into the end-to-end method.

double_center and classical_mds check the matrix they are given and put
the Gram matrix in a new buffer. cumbia() squares and double-centers the
joint matrix it builds, finite and bitwise symmetric, in place, and the
eigensolver reduces it in place: the joint matrix is the one (N+p)^2
buffer of the call (README "Memory" gives its measured peaks).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dissimilarity import CumbiaConfig, joint_matrix
from .errors import CumbiaWarning, InputError, ParameterError
from .matrix_core import (DataMatrix, _fix_column_signs, _require_memory_for,
                          _truncation_rank, require_finite, svd)

# resident peak of cumbia() in (N+p)^2 float64 buffers above the pre-call
# RSS, with the LAPACK eigensolver (BENCH_19.json, README "Memory")
RESIDENT_PEAK_BUFFERS = 1.15
# the same where the np.linalg.eigh fallback runs (README "Memory")
EIGH_RESIDENT_PEAK_BUFFERS = 5.4
# edge of the square tiles double_center checks and symmetrizes in place
SYMMETRY_TILE = 256


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
    # (C + C.T) / 2 per tile pair; numpy copies lower.T where it overlaps upper
    for rows, cols in _tile_pairs(C.shape[0]):
        upper = C[rows, cols]
        lower = C[cols, rows]
        upper += lower.T
        upper /= 2.0
        lower[...] = upper.T
    return C


def double_center(D):
    """Gram matrix C = -1/2 J (D o D) J with J = I - (1/n) 11^T.

    Expanded directly from row means, column means, and the grand mean of
    the squared dissimilarities, then symmetrized against rounding. D,
    checked square, finite and symmetric, is left as it is; C is new.
    """
    V = np.asarray(D, dtype=np.float64)
    _require_symmetric(V)
    # C order whatever V's layout: the eigensolver reads C's buffer as is
    return _double_center_in_place(np.multiply(V, V, order="C"))


def _require_dims(dims):
    if dims < 1:
        raise ParameterError(f"dims={dims} must be >= 1")


def _embed_gram(C, dims, kinds, labels):
    """Embedding from the Gram matrix C, which the eigensolver consumes."""
    eigenvalues, vectors = _kernels._eigen_in_place(C, dims)
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
    1e-10 * |largest eigenvalue|; the eigensolver computes only the d used
    eigenvectors, and each is scaled by the square root of its
    eigenvalue. If fewer than dims eigenvalues qualify, all available are
    returned and the shortfall flag is set. D is left as it is: the Gram
    matrix goes into a new buffer, which the eigensolver consumes. The
    objects are of kind "object", labelled o1, o2, ...
    """
    _require_dims(dims)
    C = double_center(D)
    n = C.shape[0]
    return _embed_gram(C, dims, ["object"] * n, [f"o{i + 1}" for i in range(n)])


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
        with np.errstate(over="ignore"):  # an overflow is refused below
            parts, negatives, name = arr * arr, [], "squared spectrum"
    elif mode == "eigenvalues":
        parts, name = arr[arr > 0], "sum of the positive eigenvalues"
        negatives = [float(v) for v in arr[arr < 0]]
        if parts.size == 0:
            return [], negatives
    else:
        raise ParameterError(
            f"mode must be singular-values or eigenvalues, not {mode!r}")
    with np.errstate(over="ignore"):
        total = parts.sum()
    if not 0 < total < np.inf:
        raise ParameterError("spectrum is all zero" if total == 0 else
                             f"the {name} overflows float64; rescale the "
                             "input")
    return list(parts / total), negatives


def _resident_peak_buffers():
    """The measured resident peak of cumbia() with the eigensolver that runs."""
    fallback = _kernels._lapack() is None
    return EIGH_RESIDENT_PEAK_BUFFERS if fallback else RESIDENT_PEAK_BUFFERS


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
    limit; not the memory free at the time of the call), and InputError
    before the joint matrix exists if lambda_1 > dissimilarity.LAMBDA1_LIMIT.
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
    emb = _embed_gram(_double_center_in_place(np.multiply(D, D, out=D)),
                      dims, *X.objects())
    emb.config = cfg
    return emb
