"""Dense matrix container, thin SVD, rank truncation and input guards.

Everything downstream (dissimilarities, embeddings, biclustering) consumes
the two types defined here: DataMatrix for labeled data and SvdFactors for
its decomposition. require_finite and _require_memory_for are the checks
the numeric entry points make before any work.
"""

import itertools
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError

# svd's numerical rank counts singular values above this fraction of the largest
RANK_TOLERANCE = 1e-12
# the memory limit of the cgroup mounted at /sys/fs/cgroup, a container's
# own: cgroup v2, then v1; only read
CGROUP_MEMORY_LIMITS = ("/sys/fs/cgroup/memory.max",
                        "/sys/fs/cgroup/memory/memory.limit_in_bytes")


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


def _size(nbytes):
    if nbytes < 2**30:
        return f"{nbytes / 2**20:.0f} MiB"
    return f"{nbytes / 2**30:.1f} GiB"


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
        # listed before the emptiness test: a label array has no truth value
        self.sample_labels = ([str(x) for x in self.sample_labels]
                              or [f"s{i + 1}" for i in range(n)])
        self.variable_labels = ([str(x) for x in self.variable_labels]
                                or [f"v{j + 1}" for j in range(p)])
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
            # equal labels are neighbours once sorted, and the sorted list
            # holds 8 bytes per label where a set holds about 65; the set
            # is built only to name the first label that repeats
            ordered = sorted(labels)
            if any(map(operator.eq, ordered, itertools.islice(ordered, 1, None))):
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

    def objects(self):
        """Kinds and labels of the mapped objects: samples, then variables."""
        return (["sample"] * self.n_samples + ["variable"] * self.n_variables,
                [*self.sample_labels, *self.variable_labels])


@dataclass
class SvdFactors:
    """Thin SVD X = U diag(singular_values) V^T truncated to rank r.

    V is the transposed view of LAPACK's V^T, so it is F-ordered: its
    columns are contiguous and no second p x r array is made.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    r: int


def _fix_column_signs(M, *others):
    """Flip each column of M whose largest-magnitude entry is negative, and
    the same column of each array in others; return M."""
    for k in range(M.shape[1]):
        i = int(np.argmax(np.abs(M[:, k])))
        if M[i, k] < 0:
            for A in (M, *others):
                A[:, k] = -A[:, k]
    return M


def svd(X):
    """Decompose X into SvdFactors.

    Raises InputError if the largest singular value is zero or not
    finite. The numerical rank r counts singular values above
    RANK_TOLERANCE * (largest singular value); factors are sliced to r
    columns. Each singular-vector pair is sign-fixed so that the
    largest-magnitude entry of the U column is positive, which makes the
    output deterministic. V is an F-ordered view of the first r rows of
    LAPACK's V^T (see SvdFactors); X itself is never written.
    """
    A = X.values if isinstance(X, DataMatrix) else _as_float_matrix(X)
    require_finite(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if not 0.0 < s[0] < np.inf:
        raise InputError("rank zero, no decomposition" if s[0] == 0.0 else
                         f"largest singular value {s[0]} is not finite; "
                         "rescale the input")
    r = int(np.sum(s > RANK_TOLERANCE * s[0]))
    U = np.ascontiguousarray(U[:, :r])
    s = s[:r].copy()
    V = Vt[:r].T
    _fix_column_signs(U, V)
    return SvdFactors(U=U, singular_values=s, V=V, r=r)


def _truncation_rank(s, r, label):
    """s, or r when s is None, checked within [1, r]; label precedes s in
    the error."""
    s = r if s is None else s
    if not 1 <= s <= r:
        raise ParameterError(f"{label}{s} outside [1, {r}]")
    return s


def truncate(f, s):
    """Rank-s reconstruction X_s = U_s diag(lambda_1..lambda_s) V_s^T.

    V_s is copied (p x s) into C order first: the product's bytes depend
    on its operands' layout, and multiplying svd's F-ordered view directly
    moves some entries by up to 1.1e-16 (54 of 90,000 at 60 x 1500, s = 2).
    """
    _truncation_rank(s, f.r, "truncation rank ")
    V_s = np.ascontiguousarray(f.V[:, :s])
    return (f.U[:, :s] * f.singular_values[:s]) @ V_s.T
