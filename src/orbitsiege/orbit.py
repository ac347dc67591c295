"""Circular two-body propagation and per-slot contact windows.

The propagation model is deliberately simple: near-circular orbits advance at
their mean motion in a fixed orbital plane, and Earth rotation enters through
the Greenwich sidereal angle. Contact decisions depend only on which slots a
satellite is visible, so meter-level fidelity is out of scope; tests bound the
approximation against a dense-time scan.

`propagate` is the one geometry path: it gives a satellite's Earth-fixed
position at every slot midpoint as one array. Contact windows take their
elevations from it, and the scheduler its slant ranges. It also states the
one rule of geometry, that it needs orbit elements: a satellite without
them is refused there, and every error it raises names the satellite.

Elevations are computed only where a station can see the satellite: the
(slot, station) pairs below the station's horizon plane are culled first,
with a plane test of one matrix product. That is exact because every
station's `min_elevation_deg` is at least 0, so a culled pair could not
pass; the test is offset by HORIZON_MARGIN_M so that rounding cannot cull
a pair at the horizon itself.

Contact windows are one `ContactWindows` value of parallel columns, built,
written, read and grouped by slot without a Python object per window. Its
ids are in id order, so an index is an id's rank, and its rows are in
strict (slot, satellite id, station id) order, each contact once; the
value refuses anything else. They are computed slot-major: every
satellite's positions, propagated in id order, go into one (slot,
satellite) array, and each block of slots is culled in one matrix product
over its (slot, satellite, station) pairs, whose C order is that row
order, so the kept rows need no sort and no check.

The windows CSV is written as byte columns, CHUNK_ROWS rows at a time, and
streamed to its file or to standard output chunk by chunk, so the text is
never whole in memory. Each distinct slot of a chunk (one per run of the
slot-ordered rows) and each id is rendered once, with its
comma; each elevation is rendered in numpy (`output.float_words`) where it
is in the fixed-point grammar of 6 significant digits: 1e-4 <= |x| < 1e6,
written `-?D+(.D+)?` without trailing zeros, at most 12 bytes. Any other
elevation, such as 0.0, -0.0, 1e-07, 1e+06, or one whose rounding is
within a hair of a tie or carries into the next decade, is rendered alone
by `output.fmt_cell`. So the file is byte for byte what `csv_text` writes
row by row. Ids are written as they are, so the writer, like a scenario,
refuses one holding `,`, `"`, CR or LF.

The windows CSV is read in that one grammar, as byte columns, in bounded
memory, in two passes over one block shape. The first reads BLOCK_BYTES at
a time, checks that the file is UTF-8 and counts its lines, so the columns
are allocated once and a UTF-8 error is reported, at its position in the
file, before any row error; it also notes where each read's last line end
falls, which cuts the file into blocks of whole lines. The second reads
each block once, splits it into one chunk of rows, checks them and places
them straight into those columns. So every file is read twice, and a pipe,
which cannot be, is held whole. A row is a line, ended by LF or CRLF; a
cell lies between commas, and a quote or a lone CR is a byte in it. Commas
and line ends are found in one scan, and the split is accepted at once
when they run three commas, then a line end, row after row. A slot is
`-?D{1,18}`, read once per run of byte-identical slot cells, as slot order
makes them; an id is matched in full as uint64 words, found through a
table of buckets; an elevation of the form `-?D*(.D*)?`, at most 17 bytes,
whose digits read at most 2**53, is one division of the digits by a power
of ten, which is exact (Clinger's fast path). Any other elevation, such as
1e-07, which the writer renders alone, is read alone by `float()`. A slot
or id cell outside the grammar, such as `+3`, ` 7` or `"obs-1"`, is
refused, with its line number, and so is a row that is not after the row
before it in the order the writer writes, a repeated row included.
"""

from __future__ import annotations

import codecs
import functools
import io
import itertools
import math
import sys
from dataclasses import InitVar, dataclass
from datetime import datetime, timezone
from typing import Iterator, Sequence

import numpy as np

from .errors import IoError, OutOfHorizon, ParseError, StaleElements, ValidationError
from .output import cell_words, float_words, table_text, unfilled, write_chunks_atomic
from .scenario import (ConstellationScenario, GroundStationSpec, SatelliteSpec, TimeGrid,
                       TleElements, _check_id)

MU_EARTH_M3_S2 = 3.986004418e14
EARTH_RADIUS_M = 6_371_000.0
# GMST linear model, degrees, measured from J2000 (2000-01-01 12:00:00 UTC)
J2000 = datetime(2000, 1, 1, 12, tzinfo=timezone.utc)
GMST_AT_J2000_DEG = 280.46061837
GMST_RATE_DEG_PER_DAY = 360.98564736629
MAX_ELEMENT_AGE_DAYS = 31
LEO_RADIUS_MIN_M = 6_400_000.0
LEO_RADIUS_MAX_M = 9_000_000.0
# how far below a station's horizon plane a satellite may lie and still have
# its elevation computed; rounding in the plane test is nanometres at LEO radii
HORIZON_MARGIN_M = 1_000.0
CULL_PAIRS = 1 << 16  # (slot, satellite, station) pairs culled at once, in whole slots


def _out_of_order(slot: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Whether each row after the first is not after the row before it in
    (slot, key) order, where key = satellite * len(station_ids) + station:
    with ids in id order, the rows that break strict (slot, satellite id,
    station id) order, a repeated contact included."""
    step = np.diff(slot)
    return (step < 0) | ((step == 0) & (np.diff(key) <= 0))


@dataclass(frozen=True, eq=False)
class ContactWindows:
    """Contact windows as parallel columns, one row per satellite, station
    and slot in contact, in strict (slot, satellite id, station id) order:
    each contact once, as the windows CSV holds them.

    `satellite` and `station` index into `satellite_ids` and `station_ids`,
    which the value carries, distinct and in id order, so an index is an
    id's rank: a scenario that keeps only some satellites (the n_high sweep
    axis) still reads the right ids. Ids out of order, repeated ids and
    rows out of order are refused with ValidationError, unless
    `rows_checked` says the caller has checked the rows already.
    """

    satellite_ids: tuple[str, ...]
    station_ids: tuple[str, ...]
    slot: np.ndarray  # int64
    satellite: np.ndarray  # intp
    station: np.ndarray  # intp
    elevation_deg: np.ndarray  # float64
    rows_checked: InitVar[bool] = False

    def __post_init__(self, rows_checked: bool) -> None:
        for kind, ids in (("satellite", self.satellite_ids), ("station", self.station_ids)):
            if any(a >= b for a, b in zip(ids, ids[1:])):
                raise ValidationError(f"{kind} ids must be distinct and in id order")
        if not rows_checked and _out_of_order(
                self.slot, self.satellite * len(self.station_ids) + self.station).any():
            raise ValidationError("rows must be in strict (slot, satellite id, station id) "
                                  "order")

    def __len__(self) -> int:
        return len(self.slot)

    def of_satellite(self, satellite_id: str) -> np.ndarray:
        """Mask of the rows of one satellite (none if the id is not carried)."""
        if satellite_id not in self.satellite_ids:
            return np.zeros(len(self), dtype=bool)
        return self.satellite == self.satellite_ids.index(satellite_id)

    def rows(self) -> list[tuple[int, str, str, float]]:
        """(slot, satellite id, station id, elevation) per row, as WINDOW_HEADER."""
        return list(zip(self.slot.tolist(),
                        map(self.satellite_ids.__getitem__, self.satellite.tolist()),
                        map(self.station_ids.__getitem__, self.station.tolist()),
                        self.elevation_deg.tolist()))


def semi_major_axis_m(elements: TleElements) -> float:
    n_rad_s = elements.mean_motion_rev_per_day * 2.0 * math.pi / 86400.0
    return (MU_EARTH_M3_S2 / (n_rad_s * n_rad_s)) ** (1.0 / 3.0)


def station_ecef_m(station: GroundStationSpec) -> tuple[float, float, float]:
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    r = EARTH_RADIUS_M + station.altitude_m
    return (r * math.cos(lat) * math.cos(lon),
            r * math.cos(lat) * math.sin(lon),
            r * math.sin(lat))


@functools.lru_cache(maxsize=1)
def _earth_rotation(grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of the Greenwich sidereal angle at each slot midpoint
    of the grid, read-only, as every satellite on the grid shares them."""
    seconds = ((grid.epoch - J2000).total_seconds()
               + (np.arange(grid.horizon_slots) + 0.5) * grid.slot_seconds)
    theta = np.radians(GMST_AT_J2000_DEG + GMST_RATE_DEG_PER_DAY * seconds / 86400.0)
    rotation = np.cos(theta), np.sin(theta)
    for part in rotation:
        part.flags.writeable = False
    return rotation


def propagate(sat: SatelliteSpec, grid: TimeGrid, slots: np.ndarray | None = None) -> np.ndarray:
    """The satellite's ECEF positions at every slot midpoint of the grid,
    shape (horizon, 3), or at those of `slots` only, shape (len(slots), 3):
    each position is the same to the bit either way.

    Every error names the satellite. Raises OutOfHorizon when a slot is
    outside [0, horizon), ValidationError when it has no orbit elements or
    its orbit leaves the LEO band, and StaleElements when the grid reaches
    further than 31 days from the element epoch.
    """
    if slots is None:
        slots = np.arange(grid.horizon_slots)
    else:
        slots = np.asarray(slots)
        outside = slots[(slots < 0) | (slots >= grid.horizon_slots)]
        if len(outside):
            raise OutOfHorizon(f"satellite {sat.id}: slot {outside[0]} outside horizon")
    elements = sat.orbit
    if elements is None:
        raise ValidationError(f"satellite {sat.id}: orbit elements required")
    a = semi_major_axis_m(elements)
    n_rad_s = elements.mean_motion_rev_per_day * 2.0 * math.pi / 86400.0
    for at in (grid.slot_midpoint(0), grid.slot_midpoint(grid.last_slot)):
        age_s = abs((at - elements.epoch).total_seconds())
        if age_s > MAX_ELEMENT_AGE_DAYS * 86400.0:
            raise StaleElements(
                f"satellite {sat.id}: elements are {age_s / 86400.0:.1f} days from epoch")
    # the model's orbits are circles of radius a, so the band check needs no
    # positions, and a mean motion far out of band never reaches the trig
    if not LEO_RADIUS_MIN_M <= a <= LEO_RADIUS_MAX_M:
        raise ValidationError(f"satellite {sat.id}: orbit radius outside the LEO band")

    offset = (grid.epoch - elements.epoch).total_seconds()
    dt = offset + (slots + 0.5) * grid.slot_seconds
    u = (math.radians(elements.arg_perigee_deg + elements.mean_anomaly_deg)
         + n_rad_s * dt)
    inc = math.radians(elements.inclination_deg)
    raan = math.radians(elements.raan_deg)
    # Rz(raan) * Rx(inc) applied to the in-plane position (a cos u, a sin u, 0)
    xp = a * np.cos(u)
    yp = a * np.sin(u)
    xi = xp * math.cos(raan) - yp * math.cos(inc) * math.sin(raan)
    yi = xp * math.sin(raan) + yp * math.cos(inc) * math.cos(raan)
    zi = yp * math.sin(inc)

    # rotate inertial into Earth-fixed by the Greenwich sidereal angle: Rz(-theta)
    cos_t, sin_t = (part[slots] for part in _earth_rotation(grid))
    return np.stack([xi * cos_t + yi * sin_t, -xi * sin_t + yi * cos_t, zi], axis=1)


def compute_contact_windows(scenario: ConstellationScenario) -> ContactWindows:
    """Per-slot visibility for every satellite/station pair, at slot midpoints.

    Satellites and stations are taken in id order, so their indices are
    their ranks; each satellite is propagated once, in id order, so an
    error names the first satellite that cannot be propagated. Then, for
    each block of whole slots of about CULL_PAIRS (slot, satellite,
    station) pairs, pairs below the station's horizon plane are culled: a
    pair is kept when the satellite's position, projected on the station's
    zenith, exceeds the station's radius less HORIZON_MARGIN_M. Every
    station's `min_elevation_deg` is at least 0, so no culled pair could
    pass its threshold; the margin keeps a pair at the horizon itself that
    rounding in the projection would put just below. The kept pairs'
    elevations are computed element by element as for the full grid, so
    the windows are the same to the bit.

    The block's pairs are in C order, so its kept rows come out in strict
    (slot, satellite id, station id) order, behind the blocks before it,
    and `ContactWindows` need not check them. Each block keeps its rows
    narrow (the narrowest unsigned types that hold a position row and a
    station) until the columns are built, one at a time. With no stations
    nothing is propagated.
    """
    satellites = sorted(scenario.satellites, key=lambda sat: sat.id)
    stations = sorted(scenario.stations, key=lambda st: st.id)
    ids = tuple(sat.id for sat in satellites), tuple(st.id for st in stations)
    if not stations or not satellites:
        return ContactWindows(*ids, np.empty(0, np.int64), np.empty(0, np.intp),
                              np.empty(0, np.intp), np.empty(0), rows_checked=True)
    pos = np.empty((scenario.time.horizon_slots, len(satellites), 3))
    for index, sat in enumerate(satellites):
        pos[:, index] = propagate(sat, scenario.time)
    pos = pos.reshape(-1, 3)  # row slot * len(satellites) + satellite
    station_pos = np.array([station_ecef_m(st) for st in stations])
    station_norm = np.linalg.norm(station_pos, axis=1, keepdims=True)
    zenith = station_pos / station_norm
    horizon = station_norm[:, 0] - HORIZON_MARGIN_M
    thresholds = np.array([st.min_elevation_deg for st in stations])
    row_type, station_type = np.min_scalar_type(len(pos)), np.min_scalar_type(len(stations))
    step = len(satellites) * max(1, CULL_PAIRS // (len(satellites) * len(stations)))
    row_parts, station_parts, elevation_parts = [], [], []  # per block, its contacts
    for start in range(0, len(pos), step):
        row, station = np.divmod(np.flatnonzero(pos[start:start + step] @ zenith.T > horizon),
                                 len(stations))
        row += start
        los = pos[row] - station_pos[station]
        sin_elev = np.einsum("pk,pk->p", los, zenith[station]) / np.linalg.norm(los, axis=1)
        elev = np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))
        seen = elev >= thresholds[station]
        row_parts.append(row[seen].astype(row_type))
        station_parts.append(station[seen].astype(station_type))
        elevation_parts.append(elev[seen])
    del pos
    elevation = np.concatenate(elevation_parts)
    del elevation_parts
    station = np.concatenate(station_parts, dtype=np.intp)
    del station_parts
    slot = np.concatenate(row_parts, dtype=np.int64)  # position rows, until divided below
    del row_parts
    satellite = (slot % len(satellites)).astype(np.intp, copy=False)
    slot //= len(satellites)
    return ContactWindows(*ids, slot, satellite, station, elevation, rows_checked=True)


WINDOW_HEADER = ["slot", "satellite_id", "station_id", "elevation_deg"]
HEADER_LINE = ",".join(WINDOW_HEADER)
CHUNK_ROWS = 1 << 13  # rows the writer renders at once
# bytes the reader reads at once; a block runs to the last line end of a read
BLOCK_BYTES = 3 << 16
SLOT_DIGITS = 18  # any 18 digits fit int64
ELEVATION_BYTES = 17  # a minus, 15 digits and a point; the digits are checked against 2**53
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so folding words keeps their bits mixed
_PAD = b"\xff" * 8  # past the data, so that a word can be read at any cell's start
# OR'd onto a word holding n bytes of a cell, it sets the rest to 0xFF
_PADS = np.array([int.from_bytes(bytes(n) + b"\xff" * (8 - n), sys.byteorder)
                  for n in range(9)], dtype=np.uint64)
_TENS = np.array([float(10 ** k) for k in range(ELEVATION_BYTES)])
# a block's rows as the reader checks them: bytes ending in _PAD, and per
# column the start and end offsets of each row's cell in them
_Chunk = tuple[bytes, Sequence[np.ndarray], Sequence[np.ndarray]]


def windows_csv_chunks(windows: ContactWindows) -> Iterator[str]:
    """The windows CSV, byte for byte what `csv_text` writes for `rows()`,
    as the header line and then text chunks of CHUNK_ROWS rows, each built
    in numpy when it is asked for. The ids are checked at the call, before
    any chunk.

    Each distinct slot of a chunk, found as a run of the slot-ordered rows,
    and each id is rendered once, with its comma, as a row of words
    (`output.cell_words`); ids as they are, so one holding a character
    csv.writer quotes is refused. Each elevation is rendered by
    `output.float_words`: in numpy when 1e-4 <= |x| < 1e6, as `-?D+(.D+)?`
    of 6 significant digits without trailing zeros, and alone by `fmt_cell`
    when it is outside that grammar or its rounding is within a hair of a
    tie or carries into the next decade. A chunk's rows are those words
    side by side, and its text their bytes without the fill between cells.
    """
    for kind, ids in (("satellite", windows.satellite_ids), ("station", windows.station_ids)):
        for sid in ids:
            _check_id(kind, sid)
    satellites = cell_words([sid + "," for sid in windows.satellite_ids])
    stations = cell_words([sid + "," for sid in windows.station_ids])

    def chunk(first: int) -> str:
        rows = slice(first, first + CHUNK_ROWS)
        slot = windows.slot[rows]
        # rows are in slot order, so each run of equal slots is one distinct slot
        new_slot = np.diff(slot, prepend=slot[:1] - 1) != 0
        slot_cells = cell_words([f"{value}," for value in slot[new_slot].tolist()])
        return unfilled(np.hstack([
            np.take(slot_cells, np.cumsum(new_slot) - 1, axis=0),
            np.take(satellites, windows.satellite[rows], axis=0),
            np.take(stations, windows.station[rows], axis=0),
            float_words(windows.elevation_deg[rows], "\n")[0]])).decode("utf-8")

    return itertools.chain([HEADER_LINE + "\n"], map(chunk, range(0, len(windows), CHUNK_ROWS)))


def windows_csv_text(windows: ContactWindows) -> str:
    """The windows CSV as one text: `windows_csv_chunks` joined."""
    return "".join(windows_csv_chunks(windows))


def windows_chunks(windows: ContactWindows, fmt: str = "csv") -> Iterator[str]:
    """The windows table as CSV chunks (`windows_csv_chunks`), or as one
    JSON text."""
    if fmt == "csv":
        return windows_csv_chunks(windows)
    return iter([table_text(WINDOW_HEADER, windows.rows(), fmt)])


def save_contact_windows(path: str, windows: ContactWindows, fmt: str = "csv") -> None:
    """Write the windows table to path chunk by chunk, atomically."""
    write_chunks_atomic(path, windows_chunks(windows, fmt))


def _header_error(path: str, lead: str) -> ParseError:
    """The error for a file whose first line is not the header; `lead` is
    its first character that is not whitespace."""
    if lead == "[":
        return ParseError(f"{path}: this is a JSON windows file; --windows reads only "
                          f"the CSV form (windows --format csv)")
    return ParseError(f"{path}: expected header {HEADER_LINE}")


def _not_utf8(path: str, exc: UnicodeDecodeError, offset: int) -> ParseError:
    """The error for bytes that are not UTF-8, found by decoding the bytes
    from file position `offset` on: it gives their position in the file,
    as decoding the whole file would."""
    start, end = exc.start + offset, exc.end + offset
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
             if exc.end == exc.start + 1 and exc.start < len(exc.object)
             else f"bytes in position {start}-{end - 1}")
    return ParseError(f"{path}: not UTF-8 text: '{exc.encoding}' codec can't decode "
                      f"{where}: {exc.reason}")


def _utf8_lines(path: str, fh) -> tuple[list[int], int, str]:
    """Read the file once, BLOCK_BYTES at a time, and refuse it unless it
    is UTF-8 text. Returns the file positions that cut it into blocks of
    whole lines (just after the last line end of each read that holds one,
    and at the end of the file, in strictly increasing order), its count
    of lines, a last one without a line end included, and its first
    character that is not whitespace ("" when it has none)."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    cuts, lines, lead, position = [], 0, "", 0
    while block := fh.read(BLOCK_BYTES):
        held = len(decoder.getstate()[0])  # bytes of a character the last read cut
        try:
            text = decoder.decode(block)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, position - held) from exc
        lead = lead or text.lstrip()[:1]
        lines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
        if end := block.rfind(b"\n") + 1:
            cuts.append(position + end)
        position += len(block)
    held = len(decoder.getstate()[0])
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, position - held) from exc
    if position > (cuts[-1] if cuts else 0):  # a last line without a line end
        cuts.append(position)
        lines += 1
    return cuts, lines, lead


def _split(path: str, raw: bytes, start: int, line: int) -> tuple[_Chunk, ParseError | None]:
    """The rows of `raw`, a block of whole lines, from offset `start` on
    (past the header in the first block), the first of them line `line` of
    the file, as one chunk, up to the first row that has not four cells;
    and that row's error, to be raised after the rows before it are checked
    (None when every row has four). `raw` holds a row past `start`.

    A row is a line, ended by LF or by CRLF, whose CR is dropped; a cell
    lies between commas. These are single bytes that no multi-byte UTF-8
    character holds, so the cells are found on the bytes, in one scan for
    both. Every row holds exactly three commas when the separators run
    comma, comma, comma, line end from the first row to the last, which
    two counts check; only otherwise are the commas counted row by row,
    to find the first row that has not three.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    seps = seps[np.searchsorted(seps, start):]
    comma = data[seps] == ord(",")
    if raw[-1] != ord("\n"):  # the last row ends at the end of the file
        seps, comma = np.append(seps, len(raw)), np.append(comma, False)
    good, short = len(seps) // 4, None
    if len(seps) == 4 * good and not comma[3::4].any() and np.count_nonzero(comma) == 3 * good:
        commas, ends = seps.reshape(good, 4).T[:3], seps[3::4]
    else:  # some row has not three commas
        ends, commas = seps[~comma], seps[comma]
        good = int(np.flatnonzero(np.diff(np.searchsorted(commas, ends), prepend=0) != 3)[0])
        # each good row holds three of the commas, in order
        commas, ends = commas[:3 * good].reshape(good, 3).T, ends[:good]
        short = ParseError(f"{path}:{line + good}: expected 4 columns")
    begins = np.append(start, ends + 1)[:-1]
    if b"\r" in raw:  # a row's last cell ends before the CR of its CRLF
        ends = ends - ((data[ends - 1] == ord("\r")) & (ends < len(raw)))
    return (raw + _PAD, (begins, *(commas + 1)), (*commas, ends)), short


def _words(data: bytes, start: np.ndarray, length: np.ndarray, words: int) -> np.ndarray:
    """The first 8 * `words` bytes of each cell, 0xFF past its end, as
    uint64 words, shape (cells, words). 0xFF is in no UTF-8 text, so two
    cells that fit are equal when their words are. `data` ends in _PAD."""
    at = np.ndarray((len(data) - 7,), np.uint64, data, strides=(1,))  # a word at each byte
    packed = np.empty((len(start), words), dtype=np.uint64)
    # every cell starts within the data, so its first word needs no clamps
    np.bitwise_or(at[start], _PADS[np.minimum(length, 8)], out=packed[:, 0])
    for k in range(1, words):
        # a word wholly past a cell's end is all fill, whatever it reads
        np.bitwise_or(at[np.minimum(start + 8 * k, len(at) - 1)],
                      _PADS[np.minimum(np.maximum(length - 8 * k, 0), 8)], out=packed[:, k])
    return packed


def _decimals(data: bytes, start: np.ndarray, end: np.ndarray,
              width: int) -> tuple[np.ndarray, ...]:
    """Each cell read on the bytes as `-?D*(.D*)?` of at most `width` bytes:
    its digits as an int64 mantissa, the count of digits after its point
    (-1 without one), whether it has the minus, and the mask of the cells
    of that form with at least one digit."""
    length = end - start
    width = int(min(length.max(initial=1), width))
    cells = np.ascontiguousarray(
        _words(data, start, length, -(-width // 8)).view(np.uint8)[:, :width].T)
    digit = cells - np.uint8(ord("0"))
    is_digit = digit < 10
    point = cells == ord(".")
    mantissa = np.zeros(len(start), dtype=np.int64)
    after = np.zeros(len(start), dtype=np.int64)
    pointed = np.zeros(len(start), dtype=bool)
    for column, ok, dot in zip(digit, is_digit, point):  # Horner, a byte column at a time
        mantissa = np.where(ok, mantissa * 10 + column, mantissa)
        pointed |= dot
        after += pointed & ok
    points = point.sum(axis=0)
    minus = cells[0] == ord("-")
    fits = is_digit.any(axis=0) & (points <= 1) & (is_digit.sum(axis=0) + points + minus == length)
    return mantissa, np.where(pointed, after, -1), minus, fits


def _slots(data: bytes, start: np.ndarray, end: np.ndarray,
           last_slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell `-?D{1,SLOT_DIGITS}` as an integer clipped to
    [-1, last_slot + 1], as int64; and the mask of the other cells.

    A file's rows are in slot order, so its slot cells come in runs of
    byte-identical cells, and each run is read once. Two neighbours are
    the same cell when their words are equal: the words hold every cell,
    or at least SLOT_DIGITS + 2 bytes, and two cells that agree there but
    not after are both longer than the grammar allows."""
    length = end - start
    words = _words(data, start, length, -(-min(length.max(initial=1), SLOT_DIGITS + 1) // 8))
    new_run = np.ones(len(start), dtype=bool)
    new_run[1:] = (words[1:] != words[:-1]).any(axis=1)
    first = np.flatnonzero(new_run)
    runs = np.diff(first, append=len(start))
    mantissa, after, minus, fits = _decimals(data, start[first], end[first], SLOT_DIGITS + 1)
    fits &= (after < 0) & (length[first] - minus <= SLOT_DIGITS)
    slot = np.where(minus & (mantissa > 0), -1, np.minimum(mantissa, last_slot + 1))
    return np.repeat(slot, runs), np.repeat(~fits, runs)


def _elevations(data: bytes, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`float()` of each cell, or NaN where it raises ValueError; and the
    mask of those cells. Cells `-?D*(.D*)?` whose digits read at most 2**53
    are read on the bytes, as mantissa / 10**digits after the point: both
    are doubles exactly, so the one rounding of the division gives the
    value `float()` rounds to (Clinger's fast path). Any other cell, such as
    one the writer renders alone (`output.float_words`), is read alone."""
    mantissa, after, minus, fits = _decimals(data, start, end, ELEVATION_BYTES)
    quotient = mantissa / _TENS[np.maximum(after, 0)]
    elevation = np.where(minus, -quotient, quotient)
    bad = np.zeros(len(elevation), dtype=bool)
    rows = np.flatnonzero(~fits | (mantissa > 2 ** 53))
    for row, s, e in zip(rows.tolist(), start[rows].tolist(), end[rows].tolist()):
        try:
            elevation[row] = float(data[s:e].decode("utf-8"))
        except ValueError:
            elevation[row], bad[row] = math.nan, True
    return elevation, bad


def _folded(words: np.ndarray) -> np.ndarray:
    """One uint64 per row of uint64 words; equal rows fold equal."""
    folded = words[:, 0]
    for k in range(1, words.shape[1]):
        folded = folded * _MIX + words[:, k]  # modulo 2**64
    return folded


@functools.lru_cache(maxsize=2)  # a file's satellite ids and its station ids
def _id_table(ids: tuple[str, ...]) -> tuple:
    """The lookup table of `_indices` for ids, built once per id list and
    shared by every block of a file, read-only: the count of words an id
    takes, the bucket shift, each bucket's first id, per word a column of
    the ids' words in bucket order, each of their indices, and the size of
    the fullest bucket."""
    encoded = [sid.encode("utf-8") for sid in ids]
    words = max(1, -(-max(map(len, encoded), default=0) // 8))
    key_length = np.fromiter(map(len, encoded), np.int64, len(encoded))
    key_words = _words(b"".join(encoded) + _PAD, np.cumsum(key_length) - key_length,
                       key_length, words)
    shift = np.uint64(60 - len(ids).bit_length())
    bucket = (_folded(key_words) * _MIX >> shift).astype(np.intp)
    order = np.argsort(bucket, kind="stable")
    first_in = np.searchsorted(bucket[order], np.arange(1 << (64 - int(shift))))
    # a last zero word, at index -1, for cells past the last id
    key_columns = np.append(key_words[order], np.zeros((1, words), np.uint64), axis=0).T.copy()
    at = np.append(order, -1)
    for table in (first_in, key_columns, at):
        table.flags.writeable = False
    return words, shift, first_in, key_columns, at, int(np.bincount(bucket).max(initial=0))


def _indices(data: bytes, start: np.ndarray, end: np.ndarray,
             ids: tuple[str, ...]) -> np.ndarray:
    """Each cell's index in `ids`, -1 where it is none of them. Ids and
    cells are packed into as many uint64 words as the longest id needs, so
    a longer cell is none of them. A cell is looked up in a table of 16 to
    32 buckets per id, numbered by the top bits of the fold of its words
    times _MIX, and checked word for word against each id from the first
    of its bucket on, as many as the fullest bucket holds."""
    words, shift, first_in, key_columns, at, depth = _id_table(ids)
    length = end - start
    cells = _words(data, start, length, words)
    near = first_in[(_folded(cells) * _MIX >> shift).astype(np.intp)]
    found = np.full(len(start), -1, dtype=np.intp)
    for k in range(depth):
        candidate = np.minimum(near + k, len(ids))
        match = key_columns[0][candidate] == cells[:, 0]
        for column, cell in zip(key_columns[1:], cells.T[1:]):
            match &= column[candidate] == cell
        found = np.where(match, at[candidate], found)
    return np.where(length <= 8 * words, found, -1)


def _checked(path: str, chunk: _Chunk, first_line: int, last_slot: int,
             satellite_ids: tuple[str, ...], stations: list[GroundStationSpec],
             before: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Slot, satellite index, station index and elevation columns of the
    rows of a chunk, whose first line is `first_line`, under ids in id
    order; `before` is the (slot, order key) of the row before the chunk's
    first, as `_out_of_order` keys it. Raises the error a row-by-row reader
    raises at the first bad row."""
    data, start, end = chunk

    def cell(column: int, row: int) -> str:
        return data[start[column][row]:end[column][row]].decode("utf-8")

    slot, bad_slot = _slots(data, start[0], end[0], last_slot)
    satellite = _indices(data, start[1], end[1], satellite_ids)
    station = _indices(data, start[2], end[2], tuple(st.id for st in stations))
    elevation, bad_elev = _elevations(data, start[3], end[3])
    # index -1, an unknown station, reads a threshold no elevation is below
    thresholds = np.array([st.min_elevation_deg for st in stations] + [-math.inf])
    key = satellite * len(stations) + station

    checks = (  # in the order a row-by-row reader applies them
        (bad_slot | bad_elev, ParseError, lambda row: "slot or elevation is not a number"),
        (~np.isfinite(elevation), ParseError, lambda row: "elevation is not finite"),
        ((slot < 0) | (slot > last_slot), OutOfHorizon,
         lambda row: f"slot {int(cell(0, row))} outside horizon"),
        (satellite < 0, ValidationError, lambda row: f"unknown satellite {cell(1, row)}"),
        (station < 0, ValidationError, lambda row: f"unknown station {cell(2, row)}"),
        (elevation < thresholds[station], ValidationError,
         lambda row: "elevation below station threshold"),
        (elevation > 90.0, ValidationError, lambda row: "elevation above 90 degrees"),
        (_out_of_order(np.append(before[0], slot), np.append(before[1], key)), ParseError,
         lambda row: "row not after the row before it"),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        row = int(np.argmax(bad))
        _, error, message = next(check for check in checks if check[0][row])
        raise error(f"{path}:{first_line + row}: {message(row)}")
    return slot, satellite, station, elevation


def load_contact_windows(path: str, scenario: ConstellationScenario) -> ContactWindows:
    """Read a window CSV, validating ids and horizon against the scenario.

    The file is read in the one grammar `windows_csv_text` writes (see the
    module docstring), in two passes. The first reads it BLOCK_BYTES at a
    time, checks that it is UTF-8, counts its lines and cuts it after the
    last line end of each read. The second reads each block cut so, of
    whole lines, once: the header is checked and skipped by offset, and the
    rest of the block is split into rows at LF or CRLF and into cells at
    commas on the bytes, as one chunk. A block whose separators run three
    commas and a line end, row after row, is split without counting each
    row's commas; any other has its first row of not four cells reported,
    after the rows before it. The rows are checked as columns and placed in
    columns allocated for every line but the header; the first bad row is
    reported with its line number and the error a row-by-row reader of that
    grammar would raise there. Slots (1 to SLOT_DIGITS ASCII digits, after
    an optional minus) and ids are read on the bytes only, a slot once per
    run of byte-identical neighbouring cells, so once per slot of a file in
    slot order; an elevation is read on the bytes when it is `-?D*(.D*)?`
    of at most ELEVATION_BYTES bytes whose digits read at most 2**53, and
    alone by `float()` otherwise. A row whose cells pass but that is not
    after the row before it in (slot, satellite id, station id) order, a
    repeated row included, is a ParseError.
    """
    satellite_ids = tuple(sorted(s.id for s in scenario.satellites))
    stations = sorted(scenario.stations, key=lambda st: st.id)
    header = HEADER_LINE.encode()
    try:
        with open(path, "rb") as opened:
            # a pipe cannot be read twice, so it is held whole
            fh = opened if opened.seekable() else io.BytesIO(opened.read())
            cuts, lines, lead = _utf8_lines(path, fh)
            fh.seek(0)
            blocks = (fh.read(end - begin) for begin, end in zip([0, *cuts], cuts))
            block = next(blocks, b"")
            if block != header and not block.startswith((header + b"\n", header + b"\r\n")):
                raise _header_error(path, lead)
            # every line but the header is a row, or the file is refused
            columns = tuple(np.empty(lines - 1, dtype)
                            for dtype in (np.int64, np.intp, np.intp, np.float64))
            rows, before = 0, (-1, 0)  # a slot before every slot
            start = block.find(b"\n") + 1 or len(block)  # past the header
            for block in itertools.chain([block], blocks):
                if start < len(block):  # not a first block of the header alone
                    chunk, short = _split(path, block, start, 2 + rows)
                    part = _checked(path, chunk, 2 + rows, scenario.time.last_slot,
                                    satellite_ids, stations, before)
                    if short is not None:
                        raise short
                    for column, values in zip(columns, part):
                        column[rows:rows + len(values)] = values
                    rows += len(part[0])
                    before = part[0][-1], part[1][-1] * len(stations) + part[2][-1]
                start = 0
    except OSError as exc:
        raise IoError(f"cannot read windows {path}: {exc}") from exc
    return ContactWindows(satellite_ids, tuple(st.id for st in stations), *columns,
                          rows_checked=True)
