"""Atomic file writing, table text and digests for reproducible outputs."""

import hashlib
import os
import tempfile

import numpy as np


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data):
    """Write to a temp file in the target directory, then rename over path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cumbia-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path, header, first_cells, values, delim, missing="nan"):
    """Write a header line, then per row its first cell and its values.

    A value is written as repr of its Python float, the shortest text that
    reads back as the same double; NaN is written as `missing`.
    """
    values = np.asarray(values, dtype=np.float64)
    lines = [delim.join(header)]
    for first, row, nan in zip(first_cells, values, np.isnan(values).any(axis=1)):
        row = row.tolist()
        text = [missing if v != v else repr(v) for v in row] if nan else map(repr, row)
        lines.append(delim.join([first, *text]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
