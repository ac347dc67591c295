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
written, read and grouped by slot without a Python object per window. They
are computed satellite by satellite in id order, each one's rows already in
slot and station id order, so one stable sort by slot orders them.

The windows CSV is written as byte columns. Each distinct slot and each id
is rendered once, with its comma; each elevation is rendered in numpy
(`output.float_words`) where it is in the fixed-point grammar of 6
significant digits: 1e-4 <= |x| < 1e6, written `-?D+(.D+)?` without
trailing zeros, at most 12 bytes. Any other elevation, such as 0.0, -0.0,
1e-07, 1e+06, or one whose rounding is within a hair of a tie or carries
into the next decade, is rendered alone by `output.fmt_cell`. So the file
is byte for byte what `csv_text` writes row by row. Ids are written as they
are, so the writer, like a scenario, refuses one holding `,`, `"`, CR or LF.

The windows CSV is read in that one grammar, as byte columns. A row is a
line, ended by LF or CRLF; a cell lies between commas, and a quote or a
lone CR is a byte in it. A slot is `-?D{1,18}`; an id is matched in full
as uint64 words; an elevation of the form `-?D*(.D*)?`, at most 17 bytes,
whose digits read at most 2**53, is one division of the digits by a power
of ten, which is exact (Clinger's fast path). Any other elevation, such
as 1e-07, which the writer renders alone, is read alone by `float()`. A
slot or id cell outside the grammar, such as `+3`, ` 7` or `"obs-1"`, is
refused, with its line number.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterator, Sequence

import numpy as np

from .errors import IoError, OutOfHorizon, ParseError, StaleElements, ValidationError
from .output import cell_words, float_words, table_text, unfilled, write_text_atomic
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


def _id_order(ids: Sequence[str]) -> np.ndarray:
    """The indices of the ids in id order."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's place in sorted order, so integer order is string order."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[_id_order(ids)] = np.arange(len(ids))
    return ranks


def _non_decreasing(keys: tuple[np.ndarray, ...]) -> bool:
    """Whether the rows of these key columns, most significant first, are
    in lexicographic order, ties allowed."""
    before = np.zeros(max(len(keys[0]) - 1, 0), dtype=bool)
    tied = np.ones_like(before)
    for key in keys:
        before |= tied & (key[:-1] < key[1:])
        tied &= key[:-1] == key[1:]
    return bool((before | tied).all())


@dataclass(frozen=True, eq=False)
class ContactWindows:
    """Contact windows as parallel columns, one row per satellite, station
    and slot in contact, sorted by slot, then satellite id, then station id.

    `satellite` and `station` index into `satellite_ids` and `station_ids`,
    which the value carries: a scenario that keeps only some satellites
    (the n_high sweep axis) still reads the right ids.
    """

    satellite_ids: tuple[str, ...]
    station_ids: tuple[str, ...]
    slot: np.ndarray  # int64
    satellite: np.ndarray  # intp
    station: np.ndarray  # intp
    elevation_deg: np.ndarray  # float64

    @classmethod
    def sorted(cls, satellite_ids, station_ids, slot, satellite, station,
               elevation_deg) -> ContactWindows:
        """Columns in any order, stably sorted by (slot, satellite id, station id);
        columns already in that order are taken as they are."""
        satellite_ids, station_ids = tuple(satellite_ids), tuple(station_ids)
        slot = np.asarray(slot, dtype=np.int64)
        satellite = np.asarray(satellite, dtype=np.intp)
        station = np.asarray(station, dtype=np.intp)
        elevation_deg = np.asarray(elevation_deg, dtype=float)
        keys = (slot, _ranks(satellite_ids)[satellite], _ranks(station_ids)[station])
        if _non_decreasing(keys):  # as a file this module wrote reads back
            return cls(satellite_ids, station_ids, slot, satellite, station, elevation_deg)
        order = np.lexsort(keys[::-1])
        return cls(satellite_ids, station_ids, slot[order], satellite[order], station[order],
                   elevation_deg[order])

    def __len__(self) -> int:
        return len(self.slot)

    def __getitem__(self, rows) -> ContactWindows:
        """The rows a slice, mask or index array selects, under the same ids."""
        return ContactWindows(self.satellite_ids, self.station_ids, self.slot[rows],
                              self.satellite[rows], self.station[rows],
                              self.elevation_deg[rows])

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

    Every error names the satellite. Raises ValidationError when it has no
    orbit elements or its orbit leaves the LEO band, and StaleElements when
    the grid reaches further than 31 days from the element epoch.
    """
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

    slots = np.arange(grid.horizon_slots) if slots is None else np.asarray(slots)
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

    Pairs below the station's horizon plane are culled first: a pair is
    kept when the satellite's position, projected on the station's zenith,
    exceeds the station's radius less HORIZON_MARGIN_M. Every station's
    `min_elevation_deg` is at least 0, so no culled pair could pass its
    threshold; the margin keeps a pair at the horizon itself that rounding
    in the projection would put just below. The kept pairs' elevations are
    computed element by element as for the full grid, so the windows are
    the same to the bit.

    Satellites are taken in id order, and each one's pairs come out of the
    cull in slot order and, with the stations' columns in id order, in
    station id order; so one stable sort by slot puts the rows in the
    order `ContactWindows` keeps.
    """
    satellite_ids = [s.id for s in scenario.satellites]
    station_ids = [st.id for st in scenario.stations]
    # slot, satellite, station, elevation: each starts with an empty part,
    # so a world without contacts concatenates too
    columns: tuple[list, ...] = ([np.empty(0, np.intp)], [np.empty(0, np.intp)],
                                 [np.empty(0, np.intp)], [np.empty(0)])
    if scenario.stations:
        by_id = _id_order(station_ids)
        station_pos = np.array([station_ecef_m(scenario.stations[i]) for i in by_id.tolist()])
        station_norm = np.linalg.norm(station_pos, axis=1, keepdims=True)
        zenith = station_pos / station_norm
        horizon = station_norm[:, 0] - HORIZON_MARGIN_M
        thresholds = np.array([scenario.stations[i].min_elevation_deg for i in by_id.tolist()])
        for index in _id_order(satellite_ids).tolist():
            pos = propagate(scenario.satellites[index], scenario.time)
            # the kept pairs in slot order, then station id order
            slot_idx, column = np.divmod(np.flatnonzero(pos @ zenith.T > horizon), len(by_id))
            los = pos[slot_idx] - station_pos[column]
            los_norm = np.linalg.norm(los, axis=1)
            sin_elev = np.einsum("pk,pk->p", los, zenith[column]) / los_norm
            elev = np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))
            seen = elev >= thresholds[column]
            slot_idx, column = slot_idx[seen], column[seen]
            for parts, part in zip(columns, (slot_idx, np.full(len(slot_idx), index),
                                             by_id[column], elev[seen])):
                parts.append(part)
    slot, satellite, station, elevation = map(np.concatenate, columns)
    # slots as the narrowest unsigned type that holds them, which numpy
    # radix-sorts when it is 16 bits or less
    order = np.argsort(slot.astype(np.min_scalar_type(scenario.time.last_slot)), kind="stable")
    return ContactWindows(tuple(satellite_ids), tuple(station_ids),
                          slot[order].astype(np.int64, copy=False), satellite[order],
                          station[order], elevation[order])


WINDOW_HEADER = ["slot", "satellite_id", "station_id", "elevation_deg"]
HEADER_LINE = ",".join(WINDOW_HEADER)
CHUNK_ROWS = 1 << 15
SLOT_DIGITS = 18  # any 18 digits fit int64
ELEVATION_BYTES = 17  # a minus, 15 digits and a point; the digits are checked against 2**53
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so folding words keeps their bits mixed
_PAD = b"\xff" * 8  # past the data, so that a word can be read at any cell's start
# OR'd onto a word holding n bytes of a cell, it sets the rest to 0xFF
_PADS = np.array([int.from_bytes(bytes(n) + b"\xff" * (8 - n), sys.byteorder)
                  for n in range(9)], dtype=np.uint64)
_TENS = np.array([float(10 ** k) for k in range(ELEVATION_BYTES)])
# a chunk of rows as the reader checks them: bytes ending in _PAD, and per
# column the start and end offsets of each row's cell in them
_Chunk = tuple[bytes, Sequence[np.ndarray], Sequence[np.ndarray]]


def windows_csv_text(windows: ContactWindows) -> str:
    """The windows CSV, byte for byte what `csv_text` writes for `rows()`,
    built CHUNK_ROWS rows at a time in numpy.

    Each distinct slot and each id is rendered once, with its comma, as a
    row of words (`output.cell_words`); ids as they are, so one holding a
    character csv.writer quotes is refused. Each elevation is rendered by
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
    slots, slot_of_row = np.unique(windows.slot, return_inverse=True)
    slot_cells = cell_words([f"{slot}," for slot in slots.tolist()])
    pieces = [HEADER_LINE + "\n"]
    for first in range(0, len(windows), CHUNK_ROWS):
        part = windows[first:first + CHUNK_ROWS]
        pieces.append(unfilled(np.hstack([
            np.take(slot_cells, slot_of_row[first:first + CHUNK_ROWS], axis=0),
            np.take(satellites, part.satellite, axis=0),
            np.take(stations, part.station, axis=0),
            float_words(part.elevation_deg, "\n")[0]])).decode("utf-8"))
    return "".join(pieces)


def windows_text(windows: ContactWindows, fmt: str = "csv") -> str:
    """The windows table as CSV (`windows_csv_text`) or JSON."""
    if fmt == "csv":
        return windows_csv_text(windows)
    return table_text(WINDOW_HEADER, windows.rows(), fmt)


def save_contact_windows(path: str, windows: ContactWindows, fmt: str = "csv") -> None:
    write_text_atomic(path, windows_text(windows, fmt))


def _header_error(path: str, text: str) -> ParseError:
    if text.lstrip().startswith("["):
        return ParseError(f"{path}: this is a JSON windows file; --windows reads only "
                          f"the CSV form (windows --format csv)")
    return ParseError(f"{path}: expected header {HEADER_LINE}")


def _chunks_by_line(path: str, raw: bytes) -> Iterator[_Chunk]:
    """The rows as chunks of CHUNK_ROWS rows, up to the first row that has
    not four cells, whose error is raised after.

    A row is a line, ended by LF or by CRLF, whose CR is dropped; a cell
    lies between commas. These are single bytes that no multi-byte UTF-8
    character holds, so the cells are found on the bytes.
    """
    header = HEADER_LINE.encode()
    if raw != header and not raw.startswith((header + b"\n", header + b"\r\n")):
        raise _header_error(path, raw.decode("utf-8"))
    start = raw.find(b"\n") + 1 or len(raw)
    if start >= len(raw):
        return
    data = np.frombuffer(raw, dtype=np.uint8)[start:]
    data = data[:-1] if data[-1] == ord("\n") else data
    ends = np.append(np.flatnonzero(data == ord("\n")), len(data)) + start
    commas = np.flatnonzero(data == ord(",")) + start
    per_row = np.searchsorted(commas, ends)
    short = np.flatnonzero(np.diff(per_row, prepend=0) != 3)
    good = int(short[0]) if len(short) else len(ends)
    del data, per_row
    # each good row holds three of the commas, in order
    begins = np.append(start, ends[:-1] + 1)
    commas = commas[:3 * good].reshape(good, 3).T
    if b"\r" in raw:  # a row's last cell ends before the CR of its CRLF
        crlf = np.frombuffer(raw, dtype=np.uint8)[ends - 1] == ord("\r")
        ends = ends - (crlf & (ends < len(raw)))
    raw += _PAD  # one copy of the file, shared by every chunk
    for first in range(0, good, CHUNK_ROWS):
        rows = slice(first, min(first + CHUNK_ROWS, good))
        yield (raw, (begins[rows], *(commas[:, rows] + 1)),
               (*commas[:, rows], ends[rows]))
    if len(short):
        raise ParseError(f"{path}:{good + 2}: expected 4 columns")


def _words(data: bytes, start: np.ndarray, length: np.ndarray, words: int) -> np.ndarray:
    """The first 8 * `words` bytes of each cell, 0xFF past its end, as
    uint64 words, shape (cells, words). 0xFF is in no UTF-8 text, so two
    cells that fit are equal when their words are. `data` ends in _PAD."""
    at = np.ndarray((len(data) - 7,), np.uint64, data, strides=(1,))  # a word at each byte
    packed = np.empty((len(start), words), dtype=np.uint64)
    for k in range(words):
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
    [-1, last_slot + 1], as int64; and the mask of the other cells."""
    mantissa, after, minus, fits = _decimals(data, start, end, SLOT_DIGITS + 1)
    fits &= (after < 0) & (end - start - minus <= SLOT_DIGITS)
    return np.where(minus & (mantissa > 0), -1, np.minimum(mantissa, last_slot + 1)), ~fits


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


def _indices(data: bytes, start: np.ndarray, end: np.ndarray, ids: list[str]) -> np.ndarray:
    """Each cell's index in `ids`, -1 where it is none of them. Ids and
    cells are packed into as many uint64 words as the longest id needs, so
    a longer cell is none of them. A cell is found by the fold of its words
    and checked word for word against each id of that fold."""
    encoded = [sid.encode("utf-8") for sid in ids]
    words = max(1, -(-max(map(len, encoded), default=0) // 8))
    key_length = np.fromiter(map(len, encoded), np.int64, len(encoded))
    key_words = _words(b"".join(encoded) + _PAD, np.cumsum(key_length) - key_length,
                       key_length, words)
    folds = _folded(key_words)
    order = np.argsort(folds)
    folds = folds[order]
    # a last row of zero words, index -1, for cells past every fold
    key_words = np.vstack([key_words[order], np.zeros((1, words), dtype=np.uint64)])
    at = np.append(order, -1)
    length = end - start
    cells = _words(data, start, length, words)
    near = np.searchsorted(folds, _folded(cells))
    found = np.full(len(start), -1, dtype=np.intp)
    # the ids of one fold lie side by side from `near`, one unless folds collide
    for k in range(np.unique(folds, return_counts=True)[1].max(initial=0)):
        candidate = np.minimum(near + k, len(folds))
        found = np.where((key_words[candidate] == cells).all(axis=1), at[candidate], found)
    return np.where(length <= 8 * words, found, -1)


def _checked(path: str, scenario: ConstellationScenario, chunk: _Chunk,
             first_line: int) -> tuple[np.ndarray, ...]:
    """Slot, satellite index, station index and elevation columns of the
    rows of a chunk, whose first line is `first_line`. Raises the error a
    row-by-row reader raises at the first bad row."""
    data, start, end = chunk

    def cell(column: int, row: int) -> str:
        return data[start[column][row]:end[column][row]].decode("utf-8")

    last_slot = scenario.time.last_slot
    slot, bad_slot = _slots(data, start[0], end[0], last_slot)
    satellite = _indices(data, start[1], end[1], [s.id for s in scenario.satellites])
    station = _indices(data, start[2], end[2], [st.id for st in scenario.stations])
    elevation, bad_elev = _elevations(data, start[3], end[3])
    # index -1, an unknown station, reads a threshold no elevation is below
    thresholds = np.array([st.min_elevation_deg for st in scenario.stations] + [-math.inf])

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
    module docstring), split into rows at LF or CRLF on the bytes. The rows
    are checked as columns, a chunk of rows at a time; the first bad row is
    reported with its line number and the error a row-by-row reader of that
    grammar would raise there. Slots (1 to SLOT_DIGITS ASCII digits, after
    an optional minus) and ids are read on the bytes only; an elevation is
    read on the bytes when it is `-?D*(.D*)?` of at most ELEVATION_BYTES
    bytes whose digits read at most 2**53, and alone by `float()` otherwise.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read windows {path}: {exc}") from exc
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    # an empty part first, so a file without rows concatenates too
    parts = [(np.empty(0, np.int64), np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    rows = 0
    for chunk in _chunks_by_line(path, raw):
        parts.append(_checked(path, scenario, chunk, 2 + rows))
        rows += len(chunk[1][0])
        del chunk
    return ContactWindows.sorted([s.id for s in scenario.satellites],
                                 [st.id for st in scenario.stations],
                                 *map(np.concatenate, zip(*parts)))
