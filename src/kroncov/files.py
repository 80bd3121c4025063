"""The package's two file formats.  A CSV has one header row, then float64
rows as wide as the header: numbers may be quoted, blank lines are skipped,
no character starts a comment, and rows are written with %.17g.  JSON has
sorted keys, indent 2 and a trailing newline, so equal documents give equal bytes."""
from __future__ import annotations

import json
import warnings

import numpy as np


def read_csv(path, what: str):
    """(header fields, float64 rows) of a CSV; a ValueError naming path
    when the file holds no rows of `what` or a row is not as wide as the header."""
    with open(path) as fh:
        header = fh.readline()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # checked below
            try:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None)
            except ValueError as exc:  # a short row or a word where a number belongs
                raise ValueError(f"{path}: {exc}") from exc
    if not rows.shape[0]:
        raise ValueError(f"{path}: holds no {what}")
    fields = [f.strip().strip('"') for f in header.split(",")]
    if rows.shape[1] != len(fields):
        raise ValueError(f"{path}: rows do not match the header width")
    return fields, rows


def write_csv(path, header, rows) -> None:
    """The header fields, then one line per row of rows."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
