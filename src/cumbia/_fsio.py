"""Atomic file writing, table text and digests for reproducible outputs."""

import csv
import hashlib
import itertools
import os
import tempfile

import numpy as np

from .errors import InputError


def atomic_write_text(path, text):
    atomic_write([(path, (text,))])


def atomic_write(outputs):
    """Write each (path, lines) pair of outputs to a temp file beside its
    path, then rename them all: a failure, or a folder at a path, replaces
    no file before the renames and leaves no temp file."""
    temps, path = [], None
    try:
        for path, lines in outputs:
            if os.path.isdir(path):
                raise InputError(f"cannot write {path}: Is a directory")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".tmp-cumbia-")
            temps.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(lines)
            os.chmod(tmp, 0o644)
        for tmp, path in temps:
            os.replace(tmp, path)
    except OSError as exc:  # a missing folder, a full disk
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:  # the temp files not renamed
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _quote(cell, delim):
    """cell as csv.reader reads it back: in double quotes, inner ones
    doubled, when it holds the delimiter, a double quote, CR or LF."""
    if delim in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def table_lines(header, first_cells, blocks, delim, missing="nan"):
    """Yield a header line, then per row its leading cells and its values.

    blocks is a sequence of 2-D arrays with one column count, whose rows
    follow one another; first_cells holds a tuple of leading text cells
    per row. Header and leading cells are quoted by _quote. A value is
    written as repr of its Python float, the shortest text that reads back
    as the same double; NaN is written as `missing`. Lines are made as
    they are asked for, so one row of text is held at a time.
    """
    yield delim.join([_quote(cell, delim) for cell in header]) + "\n"
    # zip takes a block's rows before the leading cells, so the end of a
    # block consumes none of the next block's cells
    first_cells = iter(first_cells)
    for values in blocks:
        values = np.asarray(values, dtype=np.float64)
        for row, nan, first in zip(values, np.isnan(values).any(axis=1),
                                   first_cells):
            row = row.tolist()
            text = ([missing if v != v else repr(v) for v in row] if nan
                    else map(repr, row))
            yield delim.join([*(_quote(cell, delim) for cell in first),
                              *text]) + "\n"


def records(handle, delim):
    """Yield the cells of each record of a text handle opened with
    newline="", as csv.reader(handle, delimiter=delim) would, without its
    empty records.

    A line holding no double quote is split with str.split once its line
    ending is stripped, and a blank one yields nothing. A line holding one
    is chained with the lines after it and handed to csv.reader for one
    record, so quoted cells holding the delimiter, doubled quotes or line
    breaks read as csv reads them. Only csv's limit on a cell's length
    (csv.field_size_limit) is not applied to unquoted lines.
    """
    lines = iter(handle)
    for line in lines:
        if '"' in line:
            yield next(csv.reader(itertools.chain((line,), lines),
                                  delimiter=delim))
        elif line := line.rstrip("\r\n"):
            yield line.split(delim)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
