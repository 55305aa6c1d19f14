"""Loading, preprocessing, and the synthetic benchmark.

The preprocessing mirrors a common expression-data pipeline: drop variables
with missing values, drop variables with nonpositive values, log2-transform
what remains, then z-score each variable across samples. synth_block
generates the seeded planted-block benchmark used throughout the tests.
"""

import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from ._fsio import records
from .errors import CumbiaWarning, InputError, ParameterError
from .matrix_core import DataMatrix, require_finite

# variables in synth_block's planted block: the first PLANTED_VARIABLES
PLANTED_VARIABLES = 25


@dataclass
class PreprocessReport:
    dropped_missing: int = 0
    dropped_negative: int = 0


def load_table(path, delimiter=",", orientation="samples-rows",
               missing_token="NA"):
    """Read a labeled delimited table into a DataMatrix.

    Expected layout: header row of variable labels, label column of sample
    labels (roles swap under orientation="variables-rows", after which the
    matrix is transposed into rows-are-samples form). Cells equal to the
    missing token, or empty, become NaN for downstream filtering.
    """
    if orientation not in ("samples-rows", "variables-rows"):
        raise ParameterError(
            f"orientation must be samples-rows or variables-rows, "
            f"not {orientation!r}"
        )
    # float() strips whitespace as the per-cell loop does, so a row it parses
    # whole reads the same, unless the missing token is a number (say -999)
    try:
        float(missing_token)
        whole_rows = False
    except (TypeError, ValueError):
        whole_rows = True
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        # one row of text at a time, its values appended to one float64 buffer
        rows = records(handle, delimiter)
        header = [cell.strip() for cell in next(rows, [])]
        width = len(header)
        column_labels = header[1:]
        row_labels, cells = [], array("d")
        for lineno, row in enumerate(rows, start=2):
            # checked once a data row exists: a lone header reports that first
            if width < 2:
                raise InputError(
                    f"{path}: need a label column and at least one value column")
            if len(row) != width:
                raise InputError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
                )
            row_labels.append(row[0].strip())
            if whole_rows:
                # the row's floats are made before any is appended, so a
                # row that fails leaves nothing to roll back
                try:
                    cells.fromlist(list(map(float, row[1:])))
                    continue
                except ValueError:
                    pass  # a missing or bad cell: parse this row cell by cell
            for col, cell in enumerate(row[1:], start=1):
                cell = cell.strip()
                try:
                    cells.append(
                        math.nan if cell in (missing_token, "") else float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}: line {lineno}, column {header[col]!r}: "
                        f"cell {cell!r} is not numeric"
                    ) from None
    if not row_labels:
        raise InputError(f"{path}: need a header row and at least one data row")
    # copied either way and the buffer freed before DataMatrix checks the
    # labels, so its growth slack (about 6%) does not stay with the matrix:
    # `cli-wide` peaks 0.24 MB lower than with the buffer itself kept
    values = np.frombuffer(cells).reshape(len(row_labels), width - 1)
    if orientation == "variables-rows":
        values = values.T.copy()
        row_labels, column_labels = column_labels, row_labels
    else:
        values = values.copy()
    del cells
    return DataMatrix(values=values, sample_labels=row_labels,
                      variable_labels=column_labels)


def filter_and_log2(X):
    """Drop variables with missing values, then with values <= 0; log2 the rest.

    A variable both missing and nonpositive counts as missing only. The
    kept columns are copied once and log2'd in place in that copy.
    """
    values = X.values
    missing = np.isnan(values).any(axis=0)
    # NaN <= 0 is False and raises no warning; a column holding both a NaN
    # and a value <= 0 counts as missing only
    nonpositive = (values <= 0).any(axis=0) & ~missing
    keep = ~(missing | nonpositive)
    if not keep.any():
        raise InputError("no variables survive filtering")
    report = PreprocessReport(
        dropped_missing=int(missing.sum()),
        dropped_negative=int(nonpositive.sum()),
    )
    final = values[:, keep]
    np.log2(final, out=final)
    labels = [l for l, k in zip(X.variable_labels, keep) if k]
    out = DataMatrix(values=final, sample_labels=list(X.sample_labels),
                     variable_labels=labels)
    return out, report


def zscore_variables(X, zero_variance_policy="error"):
    """Standardize every variable to mean 0, standard deviation 1 (ddof=1)."""
    if zero_variance_policy not in ("error", "drop"):
        raise ParameterError(
            f"zero_variance_policy must be error or drop, "
            f"not {zero_variance_policy!r}"
        )
    if X.n_samples < 2:
        raise ParameterError("z-scoring needs at least 2 samples")
    require_finite(X.values)
    means = X.values.mean(axis=0)
    sds = X.values.std(axis=0, ddof=1)
    constant = sds == 0.0
    if constant.any():
        names = [l for l, c in zip(X.variable_labels, constant) if c]
        if zero_variance_policy == "error":
            raise InputError(
                f"zero-variance variable(s): {', '.join(names[:5])}"
                + ("..." if len(names) > 5 else "")
            )
        warnings.warn(
            f"dropped {len(names)} zero-variance variable(s)",
            CumbiaWarning,
            stacklevel=2,
        )
    keep = ~constant
    if not keep.any():
        raise InputError("no variables survive zero-variance filtering")
    # the one masked copy, centred and scaled in place: the same IEEE
    # operations as (values - means) / sds, with no second matrix
    values = X.values[:, keep]
    values -= means[keep]
    values /= sds[keep]
    labels = [l for l, k in zip(X.variable_labels, keep) if k]
    return DataMatrix(values=values, sample_labels=list(X.sample_labels),
                      variable_labels=labels)


def synth_block(N=60, p=1500, n_planted=6, p_planted=PLANTED_VARIABLES,
                shift=2.0, seed=0):
    """Seeded Gaussian matrix with a mean-shifted top-left block.

    Entries are Normal(0, 1) except the n_planted x p_planted corner, which
    is Normal(shift, 1). Returns the matrix and a list of per-sample group
    labels ("planted" / "background").
    """
    if N < 1 or p < 1:
        raise ParameterError("matrix dimensions must be positive")
    if not 0 <= n_planted <= N or not 0 <= p_planted <= p:
        raise ParameterError(
            f"planted block {n_planted}x{p_planted} exceeds matrix {N}x{p}"
        )
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((N, p))
    values[:n_planted, :p_planted] += shift
    groups = ["planted"] * n_planted + ["background"] * (N - n_planted)
    return DataMatrix(values=values), groups
