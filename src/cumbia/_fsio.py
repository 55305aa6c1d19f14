"""Atomic file writing, table text and digests for reproducible outputs."""

import hashlib
import os
import tempfile

import numpy as np


def atomic_write_text(path, text):
    atomic_write(path, (text,))


def atomic_write(path, chunks):
    """Write text chunks to a temp file beside path, then rename it over path."""
    directory = os.path.dirname(os.path.abspath(path))
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


def write_table(path, header, first_cells, values, delim, missing="nan"):
    """Write a header line, then per row its leading cells and its values.

    first_cells holds a tuple of leading text cells per row. Header and
    leading cells are quoted by _quote. A value is written as repr of its
    Python float, the shortest text that reads back as the same double;
    NaN is written as `missing`. Each line goes to the file as it is made,
    so one row of text is held at a time.
    """
    atomic_write(path, _table_lines(header, first_cells, values, delim, missing))


def _quote(cell, delim):
    """cell as csv.reader reads it back: in double quotes, inner ones
    doubled, when it holds the delimiter, a double quote, CR or LF."""
    if delim in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _table_lines(header, first_cells, values, delim, missing):
    values = np.asarray(values, dtype=np.float64)
    yield delim.join([_quote(cell, delim) for cell in header]) + "\n"
    for first, row, nan in zip(first_cells, values, np.isnan(values).any(axis=1)):
        row = row.tolist()
        text = [missing if v != v else repr(v) for v in row] if nan else map(repr, row)
        yield delim.join([*(_quote(cell, delim) for cell in first), *text]) + "\n"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
