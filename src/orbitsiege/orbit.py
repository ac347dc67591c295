"""Circular two-body propagation and per-slot contact windows.

The propagation model is deliberately simple: near-circular orbits advance at
their mean motion in a fixed orbital plane, and Earth rotation enters through
the Greenwich sidereal angle. Contact decisions depend only on which slots a
satellite is visible, so meter-level fidelity is out of scope; tests bound the
approximation against a dense-time scan.

`propagate` is the one geometry path: it gives a satellite's Earth-fixed
position at every slot midpoint as one array. Contact windows take their
elevations from it, and the scheduler its slant ranges.

Contact windows are one `ContactWindows` value of parallel columns, built,
written, read and grouped by slot without a Python object per window.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat
from typing import Iterator

import numpy as np

from .errors import IoError, OutOfHorizon, ParseError, StaleElements, ValidationError
from .output import emit, fmt_floats, write_text_atomic
from .scenario import ConstellationScenario, GroundStationSpec, TimeGrid, TleElements

MU_EARTH_M3_S2 = 3.986004418e14
EARTH_RADIUS_M = 6_371_000.0
# GMST linear model, degrees, measured from J2000 (2000-01-01 12:00:00 UTC)
J2000 = datetime(2000, 1, 1, 12, tzinfo=timezone.utc)
GMST_AT_J2000_DEG = 280.46061837
GMST_RATE_DEG_PER_DAY = 360.98564736629
MAX_ELEMENT_AGE_DAYS = 31
LEO_RADIUS_MIN_M = 6_400_000.0
LEO_RADIUS_MAX_M = 9_000_000.0


def _ranks(ids: tuple[str, ...]) -> np.ndarray:
    """Each id's place in sorted order, so integer order is string order."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


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
        """Columns in any order, stably sorted by (slot, satellite id, station id)."""
        satellite_ids, station_ids = tuple(satellite_ids), tuple(station_ids)
        slot = np.asarray(slot, dtype=np.int64)
        satellite = np.asarray(satellite, dtype=np.intp)
        station = np.asarray(station, dtype=np.intp)
        order = np.lexsort((_ranks(station_ids)[station], _ranks(satellite_ids)[satellite],
                            slot))
        return cls(satellite_ids, station_ids, slot[order], satellite[order], station[order],
                   np.asarray(elevation_deg, dtype=float)[order])

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


def _check_staleness(elements: TleElements, at: datetime) -> None:
    dt = (at - elements.epoch).total_seconds()
    if abs(dt) > MAX_ELEMENT_AGE_DAYS * 86400.0:
        raise StaleElements(f"elements are {abs(dt) / 86400.0:.1f} days from epoch")


def station_ecef_m(station: GroundStationSpec) -> tuple[float, float, float]:
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    r = EARTH_RADIUS_M + station.altitude_m
    return (r * math.cos(lat) * math.cos(lon),
            r * math.cos(lat) * math.sin(lon),
            r * math.sin(lat))


def propagate(elements: TleElements, grid: TimeGrid) -> np.ndarray:
    """ECEF positions at every slot midpoint of the grid, shape (horizon, 3).

    Raises StaleElements when the grid reaches further than 31 days from the
    element epoch, and ValidationError when the orbit leaves the LEO band.
    """
    a = semi_major_axis_m(elements)
    n_rad_s = elements.mean_motion_rev_per_day * 2.0 * math.pi / 86400.0
    _check_staleness(elements, grid.slot_midpoint(0))
    _check_staleness(elements, grid.slot_midpoint(grid.last_slot))

    slots = np.arange(grid.horizon_slots)
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
    j2000_offset = (grid.epoch - J2000).total_seconds()
    theta = np.radians(
        GMST_AT_J2000_DEG
        + GMST_RATE_DEG_PER_DAY * (j2000_offset + (slots + 0.5) * grid.slot_seconds) / 86400.0)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    pos = np.stack([xi * cos_t + yi * sin_t, -xi * sin_t + yi * cos_t, zi], axis=1)
    radii = np.linalg.norm(pos, axis=1)
    if ((radii < LEO_RADIUS_MIN_M) | (radii > LEO_RADIUS_MAX_M)).any():
        raise ValidationError("orbit radius outside the LEO band")
    return pos


def compute_contact_windows(scenario: ConstellationScenario) -> ContactWindows:
    """Per-slot visibility for every satellite/station pair, at slot midpoints."""
    # slot, satellite, station, elevation: each starts with an empty part,
    # so a world without contacts concatenates too
    columns: tuple[list, ...] = ([np.empty(0, np.intp)], [np.empty(0, np.intp)],
                                 [np.empty(0, np.intp)], [np.empty(0)])
    if scenario.stations:
        station_pos = np.array([station_ecef_m(st) for st in scenario.stations])
        zenith = station_pos / np.linalg.norm(station_pos, axis=1, keepdims=True)
        thresholds = np.array([st.min_elevation_deg for st in scenario.stations])
        for index, sat in enumerate(scenario.satellites):
            if sat.orbit is None:
                raise ValidationError(
                    f"satellite {sat.id}: orbit elements required for windows")
            try:
                pos = propagate(sat.orbit, scenario.time)
            except ValidationError as exc:
                raise ValidationError(f"satellite {sat.id}: {exc}") from exc
            los = pos[:, None, :] - station_pos[None, :, :]
            los_norm = np.linalg.norm(los, axis=2)
            sin_elev = np.einsum("tsk,sk->ts", los, zenith) / los_norm
            elev = np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))
            slot_idx, st_idx = np.nonzero(elev >= thresholds[None, :])
            for column, part in zip(columns, (slot_idx, np.full(len(slot_idx), index),
                                              st_idx, elev[slot_idx, st_idx])):
                column.append(part)
    return ContactWindows.sorted(
        [s.id for s in scenario.satellites], [st.id for st in scenario.stations],
        *(np.concatenate(column) for column in columns))


WINDOW_HEADER = ["slot", "satellite_id", "station_id", "elevation_deg"]
HEADER_LINE = ",".join(WINDOW_HEADER)
CHUNK_ROWS = 1 << 15


def _csv_cell(text: str) -> str:
    """One string as csv.writer renders it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def windows_csv_text(windows: ContactWindows) -> str:
    """The windows CSV, byte for byte what `csv_text` writes for `rows()`,
    built CHUNK_ROWS rows at a time."""
    satellites = [_csv_cell(sid) for sid in windows.satellite_ids]
    stations = [_csv_cell(sid) for sid in windows.station_ids]
    pieces = [HEADER_LINE + "\n"]
    for first in range(0, len(windows), CHUNK_ROWS):
        part = windows[first:first + CHUNK_ROWS]
        pieces.append("\n".join(map(",".join, zip(
            map(str, part.slot.tolist()),
            map(satellites.__getitem__, part.satellite.tolist()),
            map(stations.__getitem__, part.station.tolist()),
            fmt_floats(part.elevation_deg)))) + "\n")
    return "".join(pieces)


def save_contact_windows(path: str, windows: ContactWindows, fmt: str = "csv") -> None:
    if fmt == "csv":
        write_text_atomic(path, windows_csv_text(windows))
    else:
        emit(path, WINDOW_HEADER, windows.rows(), fmt)


def _header_error(path: str, text: str) -> ParseError:
    if text.lstrip().startswith("["):
        return ParseError(f"{path}: this is a JSON windows file; --windows reads only "
                          f"the CSV form (windows --format csv)")
    return ParseError(f"{path}: expected header {HEADER_LINE}")


def _four_columns(lines: str) -> list[list[str]]:
    """The cells of lines of four comma-separated cells, column by column."""
    cells = lines.replace("\n", ",").split(",")
    return [cells[k::4] for k in range(4)]


def _chunks_by_line(path: str, raw: bytes) -> Iterator[list[list[str]]]:
    """The four cell columns of the rows, CHUNK_ROWS rows at a time, up to
    the first row that has not four cells, whose error is raised after.

    `raw` is UTF-8 without a quote or carriage return, so a row is a line
    and a cell lies between commas; both are single bytes that no
    multi-byte character holds, so they are found on the bytes.
    """
    if raw != HEADER_LINE.encode() and not raw.startswith(HEADER_LINE.encode() + b"\n"):
        raise _header_error(path, raw.decode("utf-8"))
    start = len(HEADER_LINE) + 1
    if start >= len(raw):
        return
    data = np.frombuffer(raw, dtype=np.uint8)[start:]
    data = data[:-1] if data[-1] == ord("\n") else data
    ends = np.append(np.flatnonzero(data == ord("\n")), len(data)) + start
    commas = np.searchsorted(np.flatnonzero(data == ord(",")) + start, ends)
    short = np.flatnonzero(np.diff(commas, prepend=0) != 3)
    good = int(short[0]) if len(short) else len(ends)
    del data, commas
    for first in range(0, good, CHUNK_ROWS):
        last = min(first + CHUNK_ROWS, good) - 1
        text = raw[start if first == 0 else int(ends[first - 1]) + 1:int(ends[last])]
        yield _four_columns(text.decode("utf-8"))
    if len(short):
        raise ParseError(f"{path}:{good + 2}: expected 4 columns")


def _chunks_by_csv(path: str, text: str) -> Iterator[list[list[str]]]:
    """`_chunks_by_line` for any text, through csv.reader."""
    reader = csv.reader(io.StringIO(text, newline=""))
    columns: list[list[str]] = [[], [], [], []]
    line_no = 0  # of the last row read
    try:
        if next(reader, None) != WINDOW_HEADER:
            raise _header_error(path, text)
        line_no = 1
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                yield columns
                raise ParseError(f"{path}:{line_no}: expected 4 columns")
            for column, cell in zip(columns, row):
                column.append(cell)
            if len(columns[0]) == CHUNK_ROWS:
                yield columns
                columns = [[], [], [], []]
    except csv.Error as exc:  # such as a cell past csv.field_size_limit()
        yield columns
        raise ParseError(f"{path}:{line_no + 1}: {exc}") from exc
    yield columns


def _each(convert, cells: list[str], dtype, fill) -> tuple[np.ndarray, np.ndarray]:
    """`convert` of every cell, `fill` where it raises ValueError, and the
    mask of those cells."""
    values, bad = [], np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        try:
            values.append(convert(cell))
        except ValueError:
            values.append(fill)
            bad[i] = True
    return np.array(values, dtype=dtype), bad


def _checked(path: str, scenario: ConstellationScenario, cells: list[list[str]],
             first_line: int) -> tuple[np.ndarray, ...]:
    """Slot, satellite index, station index and elevation columns of rows
    whose cells are `cells` and whose first line is `first_line`. Raises
    the error a row-by-row reader raises at the first bad row."""
    slot_cells, sat_cells, station_cells, elev_cells = cells
    n = len(slot_cells)
    last_slot = scenario.time.last_slot
    try:
        slot, bad_slot = np.fromiter(map(int, slot_cells), np.int64, n), np.zeros(n, bool)
    except (ValueError, OverflowError):  # not integers, or past int64 (outside the horizon)
        slot, bad_slot = _each(lambda cell: min(max(int(cell), -1), last_slot + 1),
                               slot_cells, np.int64, 0)
    try:
        elevation, bad_elev = np.fromiter(map(float, elev_cells), float, n), np.zeros(n, bool)
    except ValueError:
        elevation, bad_elev = _each(float, elev_cells, float, math.nan)
    satellite = np.fromiter(map({s.id: i for i, s in enumerate(scenario.satellites)}.get,
                                sat_cells, repeat(-1)), np.intp, n)
    station = np.fromiter(map({st.id: i for i, st in enumerate(scenario.stations)}.get,
                              station_cells, repeat(-1)), np.intp, n)
    # index -1, an unknown station, reads a threshold no elevation is below
    thresholds = np.array([st.min_elevation_deg for st in scenario.stations] + [-math.inf])

    checks = (  # in the order a row-by-row reader applies them
        (bad_slot | bad_elev, ParseError, lambda row: "slot or elevation is not a number"),
        (~np.isfinite(elevation), ParseError, lambda row: "elevation is not finite"),
        ((slot < 0) | (slot > last_slot), OutOfHorizon,
         lambda row: f"slot {int(slot_cells[row])} outside horizon"),
        (satellite < 0, ValidationError, lambda row: f"unknown satellite {sat_cells[row]}"),
        (station < 0, ValidationError, lambda row: f"unknown station {station_cells[row]}"),
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

    The rows are checked as columns, a chunk of rows at a time; the first
    bad row is reported with its line number and the error a row-by-row
    reader would raise there.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read windows {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if '"' in text or "\r" in text:
        del raw
        chunks = _chunks_by_csv(path, text)
    else:
        del text  # the rows are decoded again a chunk at a time
        chunks = _chunks_by_line(path, raw)
    # an empty part first, so a file without rows concatenates too
    parts = [(np.empty(0, np.int64), np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    rows = 0
    for cells in chunks:
        parts.append(_checked(path, scenario, cells, 2 + rows))
        rows += len(cells[0])
        del cells
    return ContactWindows.sorted([s.id for s in scenario.satellites],
                                 [st.id for st in scenario.stations],
                                 *map(np.concatenate, zip(*parts)))
