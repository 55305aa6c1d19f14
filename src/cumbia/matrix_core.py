"""Dense matrix container, thin SVD, rank truncation, and norm helpers.

Everything downstream (dissimilarities, embeddings, biclustering) consumes
the two types defined here: DataMatrix for labeled data and SvdFactors for
its decomposition.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError


def _as_float_matrix(X):
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise InputError(f"expected a 2-dimensional matrix, got {A.ndim} dimensions")
    return A


def require_finite(A, what="matrix"):
    """Raise InputError naming the first non-finite entry, if any."""
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        i, j = bad[0]
        raise InputError(f"{what} has a non-finite entry at row {i}, column {j}")


@dataclass
class DataMatrix:
    """An N x p matrix of real values with sample and variable labels.

    Rows are samples, columns are variables. Missing cells are represented
    as NaN so that loaders can hand them to the filtering step; numeric
    routines reject non-finite input at their own entry points.
    """

    values: np.ndarray
    sample_labels: list = field(default_factory=list)
    variable_labels: list = field(default_factory=list)

    def __post_init__(self):
        self.values = _as_float_matrix(self.values)
        n, p = self.values.shape
        if n < 1 or p < 1:
            raise InputError("matrix must have at least one row and one column")
        if not self.sample_labels:
            self.sample_labels = [f"s{i + 1}" for i in range(n)]
        if not self.variable_labels:
            self.variable_labels = [f"v{j + 1}" for j in range(p)]
        self.sample_labels = [str(x) for x in self.sample_labels]
        self.variable_labels = [str(x) for x in self.variable_labels]
        if len(self.sample_labels) != n:
            raise InputError(
                f"{len(self.sample_labels)} sample labels for {n} rows"
            )
        if len(self.variable_labels) != p:
            raise InputError(
                f"{len(self.variable_labels)} variable labels for {p} columns"
            )
        for kind, labels in (("sample", self.sample_labels),
                             ("variable", self.variable_labels)):
            seen = set()
            for lab in labels:
                if lab in seen:
                    raise InputError(f"duplicate {kind} label {lab!r}")
                seen.add(lab)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_variables(self):
        return self.values.shape[1]


@dataclass
class SvdFactors:
    """Thin SVD X = U diag(singular_values) V^T truncated to rank r."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    r: int


def svd(X, rank_tolerance=1e-12):
    """Decompose X into SvdFactors.

    The numerical rank r counts singular values above
    rank_tolerance * (largest singular value); factors are sliced to r
    columns. Each singular-vector pair is sign-fixed so that the
    largest-magnitude entry of the U column is positive, which makes the
    output deterministic.
    """
    A = X.values if isinstance(X, DataMatrix) else _as_float_matrix(X)
    require_finite(A)
    if rank_tolerance < 0:
        raise ParameterError("rank_tolerance must be nonnegative")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0:
        raise InputError("rank zero, no decomposition")
    r = int(np.sum(s > rank_tolerance * s[0]))
    U = U[:, :r].copy()
    s = s[:r].copy()
    V = Vt[:r].T.copy()
    for k in range(r):
        i = int(np.argmax(np.abs(U[:, k])))
        if U[i, k] < 0:
            U[:, k] = -U[:, k]
            V[:, k] = -V[:, k]
    return SvdFactors(U=U, singular_values=s, V=V, r=r)


def truncate(f, s):
    """Rank-s reconstruction X_s = U_s diag(lambda_1..lambda_s) V_s^T."""
    if not 1 <= s <= f.r:
        raise ParameterError(f"truncation rank {s} outside [1, {f.r}]")
    return (f.U[:, :s] * f.singular_values[:s]) @ f.V[:, :s].T
