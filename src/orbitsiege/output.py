"""Deterministic file emission: atomic writes, stable CSV/JSON formatting.

All floats are rendered with 6 significant digits; bytes, slots, and counts
stay exact integers. Files are written to a temporary sibling and renamed, so
readers never observe a partial file; a large text is written chunk by
chunk, so it is never whole in memory.

Large columns are rendered as rows of uint64 words, whose bytes are each
cell's UTF-8 followed by FILL bytes; FILL is in no UTF-8 text, so dropping
it leaves the cells. `float_words` renders in numpy the floats in the
fixed-point grammar of `format(x, ".6g")`: 1e-4 <= |x| < 1e6, rounded to 6
significant digits and written `-?D+(.D+)?` without trailing zeros, as
`fmt_cell` writes them. For x's decimal exponent e, x * 10**(5 - e)
is one rounded product below 2**20, so within 2**-34 of its exact value;
rounded to an integer it gives the six digits `format` gives, unless its
fraction is within TIE_MARGIN of a half. Every other cell is rendered alone
by `fmt_cell`: 0.0, -0.0, |x| < 1e-4 or >= 1e6, inf, a value whose rounding
carries into the next decade, and one near such a half.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Iterable

import numpy as np

from .errors import IoError


def write_chunks_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks of a text to path, one after another, via a temporary
    sibling file and rename. The file gets the mode a plain open() gives,
    0o666 less the umask; an error names path and the OS's reason only."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            umask = os.umask(0)  # the one portable way to read it; set back at once
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temporary sibling file and rename."""
    write_chunks_atomic(path, (text,))


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


FILL = 0xFF
TIE_MARGIN = 1e-7  # far above the product's rounding error of at most 2**-34
_TENS = np.array([10.0 ** k for k in range(10)])  # each exact
_BYTE = [np.uint64(8 * k) for k in range(8)]  # the shift to each byte of a word
_PLACES = np.array([100, 10, 1])
_UP_TO_999 = np.arange(1000)[:, None]


def _triples(kept) -> np.ndarray:
    """For each integer below 1000, its three ASCII digits as a uint64,
    the first digit its lowest byte, with the digits not `kept` as FILL."""
    cells = np.where(kept, _UP_TO_999 // _PLACES % 10 + ord("0"), FILL)
    return (cells << np.array([0, 8, 16])).sum(axis=1).astype(np.uint64)


_DIGITS = _triples(True)
# the lead of an integer part
_LEADING = _triples(_UP_TO_999 >= _PLACES)
# the last three digits of an integer part: without leading zeros but the
# last (index t), or all three (index 1000 + t) after a lead
_LOW = np.concatenate([_triples((_UP_TO_999 >= _PLACES) | (_PLACES == 1)), _DIGITS])
# three digits of a fraction: without trailing zeros (index t), or all
# three (index 1000 + t) before a digit that is not zero
_FRACTION = np.concatenate([_triples(_UP_TO_999 % (10 * _PLACES) != 0), _DIGITS])


def cell_words(cells: list[str], words: int = 1) -> np.ndarray:
    """Each cell's UTF-8, then FILL, as one row of uint64 words: `words` of
    them, or as many as the longest cell needs."""
    encoded = [cell.encode("utf-8") for cell in cells]
    width = 8 * max(words, -(-max(map(len, encoded), default=0) // 8))
    table = b"".join(cell.ljust(width, bytes([FILL])) for cell in encoded)
    # words are little-endian: a cell's first byte is its first word's lowest
    return np.frombuffer(table, dtype="<u8").astype(np.uint64).reshape(len(cells), width // 8)


def float_words(values: np.ndarray, suffix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """`fmt_cell` of each float followed by `suffix` (ASCII, at most 7
    bytes), as rows of uint64 words; and the mask of the cells that
    `fmt_cell` rendered alone, being outside the grammar the module states.

    A cell in the grammar is three words: a sign byte, the six digits of
    the integer part, the point, the nine of the fraction, then `suffix`;
    leading zeros of the integer part but its last, trailing zeros of the
    fraction, and the point of a value with no fraction are FILL.
    """
    x = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(x)
    fits = (magnitude >= 1e-4) & (magnitude < 1e6)  # no NaN or infinity
    magnitude = np.where(fits, magnitude, 1.0)
    # the decimal exponent; where log10 rounds across a power of ten, the
    # mantissa leaves [1e5, 1e6) and the cell is rendered alone
    exponent = np.clip(np.floor(np.log10(magnitude)).astype(np.int64), -4, 5)
    scaled = magnitude * _TENS[5 - exponent]
    mantissa = np.rint(scaled)
    fits &= ((mantissa >= 1e5) & (mantissa < 1e6)
             & (np.abs(scaled - np.floor(scaled) - 0.5) > TIE_MARGIN))
    # the value in units of 1e-9, below 1e15: six digits before the point, nine after
    units = np.where(fits, mantissa, 1e5).astype(np.int64) * 10 ** (exponent + 4)
    whole, fraction = np.divmod(units, 10 ** 9)
    high, low = np.divmod(whole, 1000)
    first, rest = np.divmod(fraction, 10 ** 6)
    second, third = np.divmod(rest, 1000)
    sign = np.where(np.signbit(x), np.uint64(ord("-")), np.uint64(FILL))
    point = np.where(fraction > 0, np.uint64(ord(".")), np.uint64(FILL))
    low = _LOW[low + 1000 * (high > 0)]
    first = _FRACTION[first + 1000 * (rest > 0)]
    second = _FRACTION[second + 1000 * (third > 0)]
    third = _FRACTION[third]
    tail = int.from_bytes(suffix.encode("ascii").ljust(7, bytes([FILL])), "little")
    words = np.empty((len(x), 3), dtype=np.uint64)
    words[:, 0] = sign | _LEADING[high] << _BYTE[1] | low << _BYTE[4] | point << _BYTE[7]
    words[:, 1] = first | second << _BYTE[3] | third << _BYTE[6]
    words[:, 2] = third >> _BYTE[2] | np.uint64(tail) << _BYTE[1]
    alone = np.flatnonzero(~fits)
    if len(alone):  # fmt_cell of a float has at most 16 bytes, so three words hold it
        words[alone] = cell_words([fmt_cell(value) + suffix for value in x[alone].tolist()], 3)
    return words, ~fits


def unfilled(words: np.ndarray) -> bytes:
    """The bytes of rows of words, row after row, without FILL."""
    return words.astype("<u8", copy=False).tobytes().translate(None, bytes([FILL]))


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
