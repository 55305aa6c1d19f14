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


def _write_temp(path, lines, temps):
    """Write lines to a new temp file beside path, noted in temps."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-cumbia-")
    temps.append((tmp, path))
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)
    os.chmod(tmp, 0o644)


def atomic_write(outputs, manifest=None):
    """Write each (path, lines) pair of outputs to a temp file beside its
    path, then rename them all: a failure, a folder at a path or two paths
    naming one file replaces no file and leaves no temp file.

    manifest, if given, is a (path, describe) pair: describe takes the
    sha256 hex digests of the outputs' temp files, keyed by path, and
    returns the lines of one more file, written after the outputs and
    renamed with them.
    """
    last = [] if manifest is None else [manifest]
    paths = [path for path, _ in [*outputs, *last]]
    real = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(paths):
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: Is a directory")
        if real[i] in real[:i]:
            raise InputError(f"cannot write {path}: outputs "
                             f"{paths[real.index(real[i])]} and {path} are "
                             "one file")
    temps = []
    try:
        for path, lines in outputs:
            _write_temp(path, lines, temps)
        for path, describe in last:
            _write_temp(path, describe({p: sha256_file(tmp)
                                        for tmp, p in temps}), temps)
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
