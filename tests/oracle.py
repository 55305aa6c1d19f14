"""Brute-force references for the two-edge-path kernel, for
cumbia.joint_matrix, cumbia._kernels.identical_index_groups and
cumbia.load_table, used by the tests. The kernel references call no
cumbia function and select with sorted(), so a bug in the kernel cannot
reach the expectation it is checked against.
"""

import csv
import math

import numpy as np

from cumbia import DataMatrix, InputError, ParameterError


def bytes_index_groups(M):
    """Reference for identical_index_groups: every row keyed by its bytes,
    groups of two or more in the order of their first members."""
    seen = {}
    for i in range(M.shape[0]):
        seen.setdefault(M[i].tobytes(), []).append(i)
    return [g for g in seen.values() if len(g) > 1]


def k_smallest_mean(values, K):
    """The K smallest of values, summed in ascending order from the
    smallest, divided by K last."""
    smallest = sorted(values)[:K]
    total = smallest[0]
    for value in smallest[1:]:
        total += value
    return total / K


def pair_oracle(R, K):
    """Reference for pair_mean_k_smallest: entry (i, j) is the mean of the
    K smallest of R[i] + R[j]. The diagonal is 0, and so is every pair of
    rows with the same bytes (bytes_index_groups)."""
    R = np.asarray(R, dtype=np.float64)
    rows, n = R.tolist(), R.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sums = [a + b for a, b in zip(rows[i], rows[j])]
            out[i, j] = out[j, i] = k_smallest_mean(sums, K)
    for group in bytes_index_groups(R):
        out[np.ix_(group, group)] = 0.0
    return out


def k0_oracle(M, k0):
    """Reference for shave's scores (pair_mean_k0_smallest): per row of the
    pair matrix M, the mean of its min(k0, n - 1) smallest off-diagonal
    entries."""
    rows = np.asarray(M, dtype=np.float64).tolist()
    k = min(k0, len(rows) - 1)
    return np.array([k_smallest_mean(row[:i] + row[i + 1:], k)
                     for i, row in enumerate(rows)], dtype=np.float64)


def graph_oracle(X_s, lambda1, K):
    """Reference for joint_matrix, for small inputs.

    The complete bipartite graph: sample i and variable j are joined by
    an edge of weight sqrt(max(lambda1 - X_s[i, j], 0)). A same-kind pair
    is at the mean of its K smallest two-edge path lengths (pair_oracle),
    with K at most the other kind's count; objects whose edges have the
    same bytes are at distance 0. joint_matrix must give the same bytes.
    """
    X_s = np.asarray(X_s, dtype=np.float64)
    N, p = X_s.shape
    if K < 1:
        raise ParameterError(f"K={K} must be >= 1")
    w = np.array([[math.sqrt(max(lambda1 - x, 0.0)) for x in row]
                  for row in X_s.tolist()])
    values = np.empty((N + p, N + p))
    values[:N, :N] = pair_oracle(w, min(K, p))
    values[:N, N:] = w
    values[N:, :N] = w.T
    values[N:, N:] = pair_oracle(w.T, min(K, N))
    return values


def csv_load_table(path, delimiter=",", orientation="samples-rows",
                   missing_token="NA"):
    """Reference for load_table: every record csv.reader yields, empty ones
    dropped, and every cell parsed on its own (missing token or empty:
    NaN, else float of the stripped cell). Returns the same DataMatrix, or
    raises InputError with the same message."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = [row for row in csv.reader(handle, delimiter=delimiter) if row]
    header = [cell.strip() for cell in rows[0]] if rows else []
    width = len(header)
    row_labels, cells = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if width < 2:
            raise InputError(
                f"{path}: need a label column and at least one value column")
        if len(row) != width:
            raise InputError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        row_labels.append(row[0].strip())
        for col in range(1, width):
            cell = row[col].strip()
            if cell in (missing_token, ""):
                cells.append(math.nan)
                continue
            try:
                cells.append(float(cell))
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}, column {header[col]!r}: "
                    f"cell {cell!r} is not numeric") from None
    if not row_labels:
        raise InputError(f"{path}: need a header row and at least one data row")
    values = np.array(cells, dtype=np.float64).reshape(len(row_labels), -1)
    column_labels = header[1:]
    if orientation == "variables-rows":
        values = values.T.copy()
        row_labels, column_labels = column_labels, row_labels
    return DataMatrix(values=values, sample_labels=row_labels,
                      variable_labels=column_labels)
