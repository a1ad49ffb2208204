"""The features-CSV parser that `load_features` replaced, kept as a test oracle.

It reads every cell with `csv.reader` and Python's `float()`, one cell at a
time. `load_features` must return the same ids and bitwise-equal values on
every file this parser accepts, and raise the same error on every file it
rejects, except for two intended differences: `load_features` skips blank
lines, and it rejects digit separators such as '1_0', which `float()` reads.
"""

import csv

import numpy as np

from popgcn.dataset import FeatureMatrix
from popgcn.errors import FormatError, IntegrityError, ParseError


def load_features_reference(path) -> FeatureMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, header row required") from None
        if not header or header[0] != "acquisition_id":
            raise FormatError(f"{path}: first header column must be 'acquisition_id'")
        n_cols = len(header)
        if n_cols < 2:
            raise FormatError(f"{path}: at least one feature column required")

        ids: list[str] = []
        rows: list[list[float]] = []
        for r, cells in enumerate(reader):
            if len(cells) != n_cols:
                raise FormatError(
                    f"{path}: ragged row {r}: expected {n_cols} cells, got {len(cells)}"
                )
            ids.append(cells[0])
            values = []
            for c, cell in enumerate(cells[1:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric value {cell!r} at row {r}, column {c}",
                        row=r,
                        col=c,
                    ) from None
            rows.append(values)

    if len(rows) < 2:
        raise IntegrityError(f"{path}: N >= 2 required, got {len(rows)} data rows")
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise IntegrityError(f"{path}: duplicate acquisition_id {dup!r}")
    return FeatureMatrix(ids=ids, values=np.array(rows, dtype=np.float64))
