"""Two-line element parsing, circular two-body propagation and per-slot
contact windows.

The propagation model is deliberately simple: near-circular orbits advance at
their mean motion in a fixed orbital plane, and Earth rotation enters through
the Greenwich sidereal angle. Contact decisions depend only on which slots a
satellite is visible, so meter-level fidelity is out of scope; tests bound the
approximation against a dense-time scan.

`propagate` is the one geometry path: it gives a satellite's Earth-fixed
position at every slot midpoint as one array. Contact windows take their
elevations from it, and the scheduler its slant ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import BadChecksum, BadLayout, OutOfHorizon, StaleElements, ValidationError
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


@dataclass(frozen=True)
class ContactWindow:
    satellite_id: str
    station_id: str
    slot: int
    elevation_deg: float


def _tle_checksum(line: str) -> int:
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def parse_tle(text: str) -> TleElements:
    """Parse a two-line element set (optional name line allowed)."""
    lines = [ln.rstrip("\r\n") for ln in text.strip().splitlines()]
    if len(lines) == 3:
        lines = lines[1:]
    if len(lines) != 2:
        raise BadLayout("expected two element lines")
    l1, l2 = lines
    if len(l1) != 69 or len(l2) != 69:
        raise BadLayout("element lines must be 69 characters")
    if l1[0] != "1" or l2[0] != "2":
        raise BadLayout("line numbers must be 1 and 2")
    for ln in (l1, l2):
        if not ln[68].isdigit() or int(ln[68]) != _tle_checksum(ln):
            raise BadChecksum(f"checksum mismatch on line {ln[0]}")
    try:
        year = int(l1[18:20])
        year += 2000 if year < 57 else 1900
        day_of_year = float(l1[20:32])
        epoch = (datetime(year, 1, 1, tzinfo=timezone.utc)
                 + timedelta(days=day_of_year - 1.0))
        return TleElements(
            inclination_deg=float(l2[8:16]),
            raan_deg=float(l2[17:25]),
            eccentricity=float("0." + l2[26:33].strip()),
            arg_perigee_deg=float(l2[34:42]),
            mean_anomaly_deg=float(l2[43:51]),
            mean_motion_rev_per_day=float(l2[52:63]),
            epoch=epoch,
        )
    except ValueError as exc:
        raise BadLayout(f"unparseable element field: {exc}") from exc


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


def compute_contact_windows(scenario: ConstellationScenario) -> list[ContactWindow]:
    """Per-slot visibility for every satellite/station pair, at slot midpoints."""
    windows: list[ContactWindow] = []
    if not scenario.stations:
        return windows
    station_pos = np.array([station_ecef_m(st) for st in scenario.stations])
    zenith = station_pos / np.linalg.norm(station_pos, axis=1, keepdims=True)
    thresholds = np.array([st.min_elevation_deg for st in scenario.stations])

    for sat in scenario.satellites:
        if sat.orbit is None:
            raise ValidationError(f"satellite {sat.id}: orbit elements required for windows")
        try:
            pos = propagate(sat.orbit, scenario.time)
        except ValidationError as exc:
            raise ValidationError(f"satellite {sat.id}: {exc}") from exc
        los = pos[:, None, :] - station_pos[None, :, :]
        los_norm = np.linalg.norm(los, axis=2)
        sin_elev = np.einsum("tsk,sk->ts", los, zenith) / los_norm
        elev = np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))
        slot_idx, st_idx = np.nonzero(elev >= thresholds[None, :])
        for t, s in zip(slot_idx.tolist(), st_idx.tolist()):
            windows.append(ContactWindow(
                sat.id, scenario.stations[s].id, t, float(elev[t, s])))

    windows.sort(key=lambda w: (w.slot, w.satellite_id, w.station_id))
    return windows


WINDOW_HEADER = ["slot", "satellite_id", "station_id", "elevation_deg"]


def window_rows(windows: list[ContactWindow]) -> list[list]:
    return [[w.slot, w.satellite_id, w.station_id, w.elevation_deg] for w in windows]


def save_contact_windows(path: str, windows: list[ContactWindow], fmt: str = "csv") -> None:
    from .output import emit

    emit(path, WINDOW_HEADER, window_rows(windows), fmt)


def load_contact_windows(path: str, scenario: ConstellationScenario) -> list[ContactWindow]:
    """Read a window CSV, validating ids and horizon against the scenario."""
    import csv as _csv

    from .errors import IoError, ParseError

    sat_ids = {s.id for s in scenario.satellites}
    station_min = {st.id: st.min_elevation_deg for st in scenario.stations}
    windows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            if header != WINDOW_HEADER:
                raise ParseError(f"{path}: expected header {','.join(WINDOW_HEADER)}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise ParseError(f"{path}:{line_no}: expected 4 columns")
                try:
                    slot = int(row[0])
                    elev = float(row[3])
                except ValueError:
                    raise ParseError(f"{path}:{line_no}: slot or elevation is not a number")
                if not math.isfinite(elev):
                    raise ParseError(f"{path}:{line_no}: elevation is not finite")
                if not 0 <= slot <= scenario.time.last_slot:
                    raise OutOfHorizon(f"{path}:{line_no}: slot {slot} outside horizon")
                if row[1] not in sat_ids:
                    raise ValidationError(f"{path}:{line_no}: unknown satellite {row[1]}")
                if row[2] not in station_min:
                    raise ValidationError(f"{path}:{line_no}: unknown station {row[2]}")
                if elev < station_min[row[2]]:
                    raise ValidationError(
                        f"{path}:{line_no}: elevation below station threshold")
                if elev > 90.0:
                    raise ValidationError(f"{path}:{line_no}: elevation above 90 degrees")
                windows.append(ContactWindow(row[1], row[2], slot, elev))
    except OSError as exc:
        raise IoError(f"cannot read windows {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    windows.sort(key=lambda w: (w.slot, w.satellite_id, w.station_id))
    return windows
