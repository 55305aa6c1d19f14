"""Classical MDS, the PCA/SVD biplot, scree spectra, and the full pipeline.

classical_mds embeds objects from a dissimilarity matrix by
eigendecomposing the double-centered squared dissimilarities and keeping
eigenvectors with positive eigenvalues; negative eigenvalues are never
used for coordinates but stay in the reported spectrum, because their
presence (and sign pattern) is informative for joint sample-variable
matrices. cumbia() chains SVD, truncation, the joint dissimilarity, and
MDS into the end-to-end method.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dissimilarity import CumbiaConfig, JointDissimilarity, joint_matrix
from .errors import CumbiaWarning, InputError, ParameterError
from .matrix_core import DataMatrix, require_finite, svd

POSITIVE_EIGENVALUE_CUTOFF = 1e-10


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


def _square_values(D):
    if isinstance(D, JointDissimilarity):
        return D.values, D.object_kinds, D.object_labels
    V = np.asarray(D, dtype=np.float64)
    n = V.shape[0]
    return V, ["object"] * n, [f"o{i + 1}" for i in range(n)]


def double_center(D):
    """Gram matrix C = -1/2 J (D o D) J with J = I - (1/n) 11^T.

    Expanded directly from row means, column means, and the grand mean of
    the squared dissimilarities, then symmetrized against rounding.
    """
    V, _, _ = _square_values(D)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InputError("dissimilarity matrix must be square")
    if np.max(np.abs(V - V.T)) > 1e-12:
        raise InputError("dissimilarity matrix is not symmetric within 1e-12")
    S = V * V
    row_means = S.mean(axis=1)
    grand_mean = row_means.mean()
    C = -0.5 * (S - row_means[:, None] - row_means[None, :] + grand_mean)
    return (C + C.T) / 2.0


def _fix_column_signs(M):
    for k in range(M.shape[1]):
        i = int(np.argmax(np.abs(M[:, k])))
        if M[i, k] < 0:
            M[:, k] = -M[:, k]
    return M


def classical_mds(D, dims):
    """Embed a dissimilarity matrix in at most dims dimensions.

    Coordinates use only eigenvalues above 1e-10 * |largest eigenvalue|;
    if fewer than dims qualify, all available are returned and the
    shortfall flag is set. The eigenvalues field keeps the whole signed
    spectrum, descending.
    """
    if dims < 1:
        raise ParameterError(f"dims={dims} must be >= 1")
    V, kinds, labels = _square_values(D)
    C = double_center(V)
    eigenvalues, eigenvectors = np.linalg.eigh(C)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    cutoff = POSITIVE_EIGENVALUE_CUTOFF * abs(eigenvalues[0])
    n_positive = int(np.sum(eigenvalues > cutoff))
    d = min(dims, n_positive)
    coords = eigenvectors[:, :d] * np.sqrt(eigenvalues[:d])
    coords = _fix_column_signs(coords)
    shortfall = d < dims
    if shortfall:
        warnings.warn(
            f"only {d} positive eigenvalues for {dims} requested dimensions",
            CumbiaWarning,
            stacklevel=2,
        )
    return Embedding(
        coordinates=coords,
        eigenvalues=eigenvalues,
        object_kinds=list(kinds),
        object_labels=list(labels),
        dims_used=d,
        shortfall=shortfall,
    )


def pca_biplot(X, s=None, alpha=1.0):
    """Classical biplot coordinates from the SVD of X.

    alpha=1 puts all scale on the samples (conventional PCA scores);
    alpha=0 puts it on the variables. For any alpha the coordinate product
    reconstructs the rank-s matrix X_s.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha={alpha} outside [0, 1]")
    f = svd(X)
    if s is None:
        s = f.r
    if not 1 <= s <= f.r:
        raise ParameterError(f"s={s} outside [1, {f.r}]")
    lam = f.singular_values[:s]
    sample_coords = f.U[:, :s] * lam**alpha
    variable_coords = f.V[:, :s] * lam ** (1.0 - alpha)
    return BiplotCoordinates(
        sample_coords=sample_coords,
        variable_coords=variable_coords,
        alpha=float(alpha),
        s=int(s),
    )


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


def cumbia(X, cfg=None, dims=3):
    """End-to-end joint embedding of samples and variables.

    SVD, rank-s truncation, joint two-edge-path dissimilarities, classical
    MDS. Returns the Embedding with the configuration recorded.
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(X)
    require_finite(X.values)
    if cfg is None:
        cfg = CumbiaConfig()
    f = svd(X)
    D = joint_matrix(X, f, cfg)
    emb = classical_mds(D, dims)
    emb.config = cfg
    return emb
