"""Atomic file writing, table text and digests for reproducible outputs."""

import csv
import hashlib
import itertools
import os
import tempfile

import numpy as np

from .errors import InputError


def atomic_write_text(path, text):
    atomic_write(path, (text,))


def atomic_write(path, chunks):
    """Write text chunks to a temp file beside path, then rename it over path."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cumbia-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
            os.chmod(tmp, 0o644)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # a missing folder, a folder at path, a full disk
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_table(path, header, first_cells, blocks, delim, missing="nan"):
    """Write a header line, then per row its leading cells and its values.

    blocks is a sequence of 2-D arrays with one column count, whose rows
    follow one another; first_cells holds a tuple of leading text cells
    per row. Header and leading cells are quoted by _quote. A value is
    written as repr of its Python float, the shortest text that reads back
    as the same double; NaN is written as `missing`. Each line goes to the
    file as it is made, so one row of text is held at a time.
    """
    atomic_write(path, _table_lines(header, first_cells, blocks, delim, missing))


def _quote(cell, delim):
    """cell as csv.reader reads it back: in double quotes, inner ones
    doubled, when it holds the delimiter, a double quote, CR or LF."""
    if delim in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _table_lines(header, first_cells, blocks, delim, missing):
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
