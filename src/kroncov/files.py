"""The package's three file formats.  A CSV has one header row, then float64
rows as wide as the header: numbers may be quoted, blank lines are skipped,
no character starts a comment, and floats are written with %.17g.  JSON has
sorted keys, indent 2 and a trailing newline, so equal documents give equal bytes.
covariance.bin holds two little-endian uint64 (rows, cols), then row-major float64 LE."""
from __future__ import annotations

import json
import struct
import warnings

import numpy as np


def read_csv(path, what: str):
    """(header fields, float64 rows) of a CSV; a ValueError naming path
    when the file holds no rows of `what`, or naming path, the 1-based line
    and the header width when a row breaks the rule."""
    with open(path) as fh:
        header = fh.readline()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # checked below
            try:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None)
            except ValueError:  # a short row or a word where a number belongs
                rows = None
    fields = [f.strip().strip('"') for f in header.split(",")]
    if rows is not None and not rows.shape[0]:
        raise ValueError(f"{path}: holds no {what}")
    if rows is None or rows.shape[1] != len(fields):
        raise ValueError(f"{path}: {_first_misfit(path, len(fields))}")
    return fields, rows


def _first_misfit(path, width: int) -> str:
    """Where the first row after the header stops being `width` numbers."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if lineno == 1 or not line:
                continue
            cells = line.split(",")
            if len(cells) != width:
                return f"line {lineno} has {_fields(len(cells))} where the header has {width}"
            for j, cell in enumerate(cells, 1):
                try:
                    float(cell.strip().strip('"'))
                except ValueError:
                    return (f"line {lineno} field {j} is {cell!r}, not a number "
                            f"(the header has {_fields(width)})")
    return f"a row is not {width} numbers, the header width"


def _fields(k: int) -> str:
    return f"{k} field" if k == 1 else f"{k} fields"


def write_csv(path, header, rows) -> None:
    """The header fields, then one line per row (a float array or tuples) by one % format,
    as np.savetxt does, from the first row's cells: %.17g for a float, %s for a str or int."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fmt = None
        for row in rows:
            fmt = fmt or ",".join("%.17g" if isinstance(c, float) else "%s" for c in row) + "\n"
            fh.write(fmt % tuple(row))


def write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_matrix_binary(path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.writelines((struct.pack("<QQ", *matrix.shape), matrix.tobytes()))


def read_matrix_binary(path) -> np.ndarray:
    """A ValueError naming path when the file is shorter or longer than its header says."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated matrix header")
        rows, cols = struct.unpack("<QQ", header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {data.size}")
    return data.reshape(rows, cols).astype(float)
