"""Classical MDS, the PCA/SVD biplot, scree spectra, and the full pipeline.

classical_mds embeds objects from a dissimilarity matrix through the
double-centered squared dissimilarities: eigvalsh gives their whole
signed spectrum, and a Lanczos solver with full reorthogonalization gives
only the eigenvectors the coordinates use, those of the top dims positive
eigenvalues. Negative eigenvalues are never used for coordinates but stay
in the reported spectrum, because their presence (and sign pattern) is
informative for joint sample-variable matrices. cumbia() chains SVD,
truncation, the joint dissimilarity, and MDS into the end-to-end method.

double_center and classical_mds leave their argument as it is and put the
Gram matrix in a new buffer. cumbia() owns its joint matrix, so it squares
and double-centers that buffer in place with the same routine and hands
it to the same eigensolver step: at N+p = 3100 its tracemalloc peak is
1.16 (N+p)^2 float64 buffers and its resident peak 2.28, the second
buffer being eigvalsh's internal copy of the Gram matrix.
"""

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .dissimilarity import CumbiaConfig, JointDissimilarity, joint_matrix
from .errors import CumbiaWarning, InputError, ParameterError
from .matrix_core import DataMatrix, _fix_column_signs, require_finite, svd

POSITIVE_EIGENVALUE_CUTOFF = 1e-10
# Lanczos stops once every wanted Ritz residual is below RITZ_RESIDUAL_TOL
# and every wanted Ritz value is within RITZ_VALUE_TOL of eigvalsh's, both
# relative to the largest |eigenvalue|
RITZ_RESIDUAL_TOL = 1e-12
RITZ_VALUE_TOL = 1e-9
# rows the Lanczos basis starts with; it doubles when full
LANCZOS_CHUNK = 64
# after a failed convergence check at Lanczos step k the next one comes at
# step k + 1 + k // RITZ_CHECK_SPACING: at most 1/16 more steps, and the
# k x k eigh calls of the checks cost O(k^3) in all instead of O(k^4)
RITZ_CHECK_SPACING = 16
# resident peak of cumbia() in (N+p)^2 float64 buffers: the joint matrix,
# centered in place into the Gram matrix, and eigvalsh's internal copy of
# it, plus its workspace; measured 2.28 above the pre-call RSS at
# N+p = 3100 and 2.13 at N+p = 6200 (tools/wide_run.py --shape)
RESIDENT_PEAK_BUFFERS = 2.3
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
    return _double_center_in_place(V * V)


def _orthogonalize(w, basis):
    """Remove from w its components along the rows of basis, in two
    classical Gram-Schmidt passes (one pass leaves rounding-level
    components that grow over many Lanczos steps)."""
    for _ in range(2):
        w -= (basis @ w) @ basis
    return w


def _top_eigenvectors(C, top, scale):
    """Eigenvectors of the symmetric C for its top len(top) eigenvalues.

    top holds those eigenvalues, descending, as eigvalsh computed them;
    scale is the largest |eigenvalue|. Lanczos from a fixed seeded start
    vector with full reorthogonalization; the basis is kept as rows that
    grow in chunks. On breakdown (the Krylov space is invariant) the
    iteration restarts from a fresh random vector orthogonal to the basis,
    so every copy of a repeated eigenvalue is found. It stops when each
    wanted Ritz pair has residual |beta_k s_k| <= RITZ_RESIDUAL_TOL * scale
    and the wanted Ritz values match top within RITZ_VALUE_TOL * scale
    (a missed copy of a repeated eigenvalue fails the second test), or
    when the basis spans the whole space. Returns an n x len(top) array.
    """
    n = C.shape[0]
    d = top.size
    rng = np.random.default_rng(0)
    basis = np.empty((min(n, LANCZOS_CHUNK), n))
    alphas, betas = [], []
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    k, next_check = 0, d
    while True:
        if k == basis.shape[0]:
            grown = np.empty((min(n, 2 * k), n))
            grown[:k] = basis
            basis = grown
        basis[k] = q
        w = C @ q
        alphas.append(float(q @ w))
        k += 1
        w = _orthogonalize(w, basis[:k])
        beta = float(np.linalg.norm(w))
        if k >= next_check or k == n:
            next_check = k + 1 + k // RITZ_CHECK_SPACING
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta, S = np.linalg.eigh(T)
            theta, S = theta[::-1][:d], S[:, ::-1][:, :d]
            if k == n or (
                    np.all(np.abs(beta * S[-1]) <= RITZ_RESIDUAL_TOL * scale)
                    and np.all(np.abs(theta - top) <= RITZ_VALUE_TOL * scale)):
                return basis[:k].T @ S
        if beta <= RITZ_RESIDUAL_TOL * scale:
            # invariant subspace: restart orthogonal to it, uncoupled in T
            w = _orthogonalize(rng.standard_normal(n), basis[:k])
            beta = 0.0
        q = w / np.linalg.norm(w)
        betas.append(beta)


def _require_dims(dims):
    if dims < 1:
        raise ParameterError(f"dims={dims} must be >= 1")


def _embed_gram(C, dims, kinds, labels):
    """Embedding from the Gram matrix C, which is read, never written."""
    eigenvalues = np.linalg.eigvalsh(C)[::-1].copy()
    scale = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    cutoff = POSITIVE_EIGENVALUE_CUTOFF * abs(eigenvalues[0])
    n_positive = int(np.sum(eigenvalues > cutoff))
    d = min(dims, n_positive)
    vectors = _top_eigenvectors(C, eigenvalues[:d], scale)
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

    The whole signed spectrum of the double-centered matrix comes from
    eigvalsh and is kept, descending, in the eigenvalues field.
    Coordinates use only eigenvalues above 1e-10 * |largest eigenvalue|;
    their eigenvectors come from a Lanczos solver (_top_eigenvectors), so
    only the d used ones are computed, and each is scaled by the square
    root of its eigvalsh eigenvalue. If fewer than dims eigenvalues
    qualify, all available are returned and the shortfall flag is set.
    D is left as it is: the Gram matrix goes into a new buffer.
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
    if s is None:
        s = f.r
    if not 1 <= s <= f.r:
        raise ParameterError(f"s={s} outside [1, {f.r}]")
    lam = f.singular_values[:s]
    sample_coords = f.U[:, :s] * lam**alpha
    variable_coords = f.V[:, :s] * lam ** (1.0 - alpha)
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


def _physical_memory_bytes():
    """Installed physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


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
            f"{_size(have)} of physical memory"
        )


def _size(nbytes):
    if nbytes < 2**30:
        return f"{nbytes / 2**20:.0f} MiB"
    return f"{nbytes / 2**30:.1f} GiB"


def cumbia(X, cfg=None, dims=3):
    """End-to-end joint embedding of samples and variables.

    SVD, rank-s truncation, joint two-edge-path dissimilarities, classical
    MDS. Returns the Embedding with the configuration recorded. The joint
    matrix is the one (N+p)^2 buffer the call allocates: it is squared
    and double-centered in place into the Gram matrix that eigvalsh and
    the Lanczos solver read, so classical_mds's copy is not made. Raises
    ParameterError before any work if the estimated resident peak,
    RESIDENT_PEAK_BUFFERS (N+p)^2 float64 buffers, exceeds physical memory
    (installed memory, not the memory free at the time of the call).
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    require_finite(X.values)
    _require_dims(dims)
    n = sum(X.values.shape)
    _require_memory_for(f"embedding {n} objects", RESIDENT_PEAK_BUFFERS,
                        (n, n))
    if cfg is None:
        cfg = CumbiaConfig()
    f = svd(X)
    D = joint_matrix(X, f, cfg)
    C = D.values
    _require_symmetric(C)
    np.multiply(C, C, out=C)
    emb = _embed_gram(_double_center_in_place(C), dims, D.object_kinds,
                      D.object_labels)
    emb.config = cfg
    return emb
