"""Deterministic file emission: atomic writes, stable CSV/JSON formatting.

All floats are rendered with 6 significant digits; bytes, slots, and counts
stay exact integers. Files are written to a temporary sibling and renamed, so
readers never observe a partial file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

from .errors import IoError


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temporary sibling file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def fmt_cell(value) -> str:
    """Render one CSV cell: exact ints, 6-significant-digit floats."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return format(value, ".6g")
    return str(value)


def fmt_floats(values: np.ndarray) -> list[str]:
    """`fmt_cell` of every float of a column."""
    cells = list(map("{:.6g}".format, values.tolist()))
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e15)
    for i in np.flatnonzero(integral).tolist():
        cells[i] = str(int(values[i]))
    return cells


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_cell(v) for v in row])
    return buf.getvalue()


def json_ready(value):
    """Map values to strict-JSON equivalents (non-finite floats to None)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value


def json_text(obj) -> str:
    return json.dumps(json_ready(obj), indent=2) + "\n"


def table_text(header: list[str], rows: list[list], fmt: str = "csv") -> str:
    """Tabular data as CSV, or as a JSON array of objects that mirror the
    CSV rows under the same column names."""
    if fmt == "csv":
        return csv_text(header, rows)
    if fmt == "json":
        return json_text([dict(zip(header, row)) for row in rows])
    raise ValueError(f"unknown format {fmt!r}")


def emit(path: str, header: list[str], rows: list[list], fmt: str = "csv") -> None:
    """Write `table_text` to path."""
    write_text_atomic(path, table_text(header, rows, fmt))
