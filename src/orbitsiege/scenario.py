"""Shared domain types, scenario loading, validation, and time discretization.

A scenario file is a JSON object with top-level keys `time`, `satellites`,
`stations`, `trace`, `target`, `costs`, `seed`, and optionally `attackability`
(per-slot transmissibility and attack costs given directly, bypassing orbit
propagation and antenna scheduling). The capture trace may be inline or a path
to a CSV with header `unit_id,satellite_id,capture_iso8601,size_bytes`, whose
sizes are ASCII decimal integers.

A scenario is read in one typed pass. A trace row, an initial queue, a
satellite, its orbit elements or a station whose fields all hold their
plain JSON types (a `str` id, an `int` below 2**1023 in magnitude, a finite
`float`) is built straight from them. Anything else goes through the field
helpers (`_obj`, `_require`, `_int`, `_float`, `_str`, `_parse_utc`), which
take the wider grammar (an integral float such as `3.0` where an integer
belongs, an int where a float belongs, a `capture_iso8601` row) and alone
raise the parse errors, naming the field. Every parse error comes before
every validation error of `_validate`, which walks the trace once.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from .errors import IoError, OutOfHorizon, ParseError, ValidationError
from .output import write_text_atomic

DEFAULT_SLOT_SECONDS = 60
DEFAULT_DOWNLINK_RATE_BPS = 160_000_000
DEFAULT_CAPACITY_BYTES = 2_000_000_000_000
DEFAULT_ANTENNA_COUNT = 4
DEFAULT_MIN_ELEVATION_DEG = 5.0
DEFAULT_UNIT_TASK_PRICE = 1

# the longest grid a scenario may hold: the sweep's largest per-slot array,
# one batch of 2 x 1024 int64 trial rows, then takes at most 512 MiB
MAX_HORIZON_SLOTS = 32_768
# the assignment matrix holds one column per antenna; no real ground
# station comes near this many
MAX_ANTENNA_COUNT = 1024
# the most units an initial_queue may hold, as a count or a list: a sweep
# batch of 1024 trials then draws at most 512 MiB of int64 unit sizes
MAX_QUEUE_UNITS = 65_536
# a ground station stands between the deepest ocean floor and the highest
# summit; far outside, its position overflows in the elevation geometry
STATION_ALTITUDE_RANGE_M = (-11_000.0, 9_000.0)

# an int below this in magnitude is finite as a float, so `_int` takes it as
# it is
_FLOAT_SAFE = 2**1023
# a trace CSV size cell: an ASCII decimal integer, as `int()` alone would
# also take padded, signed, underscored and non-ASCII digits
_CSV_INT = re.compile(r"-?[0-9]+")


def _check_id(kind: str, sid: str) -> None:
    """The windows CSV writes ids as they are, so an id holds none of its
    separators, and no quote."""
    if "," in sid or '"' in sid or "\r" in sid or "\n" in sid:
        raise ValidationError(f"{kind} {sid!r}: id must not hold a comma, quote, CR or LF")


def _parse_utc(text: str, where: str) -> datetime:
    """Parse an ISO 8601 timestamp; naive values are taken as UTC."""
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        # an offset can carry a date such as 0001-01-01 out of range in UTC
        return ts.astimezone(timezone.utc)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{where}: bad timestamp {text!r}") from exc


def _iso(ts: datetime) -> str:
    """A UTC timestamp with a four-digit year, and its microseconds only when
    it has some."""
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"


@dataclass(frozen=True)
class TimeGrid:
    """Discrete slot grid. Slot t covers [epoch + t*slot_seconds, next)."""

    epoch: datetime
    slot_seconds: int
    horizon_slots: int

    def __post_init__(self) -> None:
        if self.epoch.tzinfo is None:
            raise ValidationError("time.epoch: timezone required")
        if self.slot_seconds <= 0:
            raise ValidationError("time.slot_seconds: must be positive")
        if self.horizon_slots < 1:
            raise ValidationError("time.horizon_slots: must be >= 1")
        if self.horizon_slots > MAX_HORIZON_SLOTS:
            raise ValidationError(f"time.horizon_slots: must be <= {MAX_HORIZON_SLOTS}")
        try:
            self.epoch + timedelta(seconds=self.horizon_slots * self.slot_seconds)
        except OverflowError:
            raise ValidationError("time.slot_seconds: the grid ends past the last "
                                  "UTC datetime") from None

    @property
    def last_slot(self) -> int:
        return self.horizon_slots - 1

    def slot_of(self, timestamp: datetime) -> int:
        """Map a UTC timestamp to its slot index by floor division."""
        delta = (timestamp - self.epoch).total_seconds()
        if delta < 0 or delta >= self.horizon_slots * self.slot_seconds:
            raise OutOfHorizon(f"timestamp {_iso(timestamp)} outside grid")
        return int(delta // self.slot_seconds)

    def slot_midpoint(self, slot: int) -> datetime:
        return self.epoch + timedelta(seconds=(slot + 0.5) * self.slot_seconds)


@dataclass(frozen=True)
class TleElements:
    """Keplerian elements as carried by a two-line element set."""

    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_per_day: float
    epoch: datetime

    def __post_init__(self) -> None:
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValidationError("orbit.inclination_deg: outside [0, 180]")
        if self.mean_motion_rev_per_day <= 0:
            raise ValidationError("orbit.mean_motion_rev_per_day: must be positive")
        # model validity bound: near-circular orbits only
        if not 0.0 <= self.eccentricity <= 0.05:
            raise ValidationError("orbit.eccentricity: outside [0, 0.05]")


@dataclass(frozen=True)
class SatelliteSpec:
    id: str
    priority: str
    orbit: TleElements | None
    capacity_bytes: int
    downlink_rate_bps: int

    def __post_init__(self) -> None:
        _check_id("satellite", self.id)
        if self.priority not in ("low", "high"):
            raise ValidationError(f"satellite {self.id}: priority must be low|high")
        if self.priority == "low" and self.capacity_bytes <= 0:
            raise ValidationError(f"satellite {self.id}: low priority needs capacity_bytes > 0")
        if self.priority == "high" and self.capacity_bytes != 0:
            raise ValidationError(f"satellite {self.id}: high priority carries capacity_bytes 0")
        if self.downlink_rate_bps <= 0:
            raise ValidationError(f"satellite {self.id}: downlink_rate_bps must be positive")


@dataclass(frozen=True)
class GroundStationSpec:
    id: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float
    antenna_count: int
    min_elevation_deg: float

    def __post_init__(self) -> None:
        _check_id("station", self.id)
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValidationError(f"station {self.id}: latitude outside [-90, 90]")
        if not math.isfinite(self.longitude_deg):
            raise ValidationError(f"station {self.id}: longitude must be finite")
        low, high = STATION_ALTITUDE_RANGE_M
        if not low <= self.altitude_m <= high:
            raise ValidationError(f"station {self.id}: altitude_m outside [{low:g}, {high:g}]")
        if not 1 <= self.antenna_count <= MAX_ANTENNA_COUNT:
            raise ValidationError(
                f"station {self.id}: antenna_count outside [1, {MAX_ANTENNA_COUNT}]")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValidationError(f"station {self.id}: min_elevation_deg outside [0, 90)")


@dataclass(frozen=True, slots=True)
class DataUnit:
    unit_id: str
    satellite_id: str
    capture_slot: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValidationError(f"unit {self.unit_id}: size_bytes must be positive")


@dataclass(frozen=True)
class TargetSpec:
    satellite_id: str
    target_unit_ids: tuple[str, ...]
    attack_start_slot: int
    target_downlink_slot: int | None = None
    cost_budget: float | None = None

    def __post_init__(self) -> None:
        if not self.target_unit_ids:
            raise ValidationError("target.target_unit_ids: must be non-empty")
        if len(set(self.target_unit_ids)) != len(self.target_unit_ids):
            raise ValidationError("target.target_unit_ids: duplicate unit")
        if self.cost_budget is not None and self.cost_budget < 0:
            raise ValidationError("target.cost_budget: must be >= 0")


@dataclass(frozen=True)
class CostModel:
    unit_task_price: float = DEFAULT_UNIT_TASK_PRICE

    def __post_init__(self) -> None:
        if self.unit_task_price < 0:
            raise ValidationError("costs.unit_task_price: must be >= 0")


@dataclass(frozen=True)
class AttackabilityRecord:
    """Per-slot downlink opportunity of the target satellite.

    `cost` is the price of occupying every antenna the satellite could use
    this slot; it is finite exactly when the slot is attackable.
    """

    slot: int
    transmissible: bool
    attackable: bool
    required_high_priority: int
    cost: float

    def __post_init__(self) -> None:
        if self.attackable and not self.transmissible:
            raise ValidationError(f"slot {self.slot}: attackable requires transmissible")
        if self.attackable and self.required_high_priority < 1:
            raise ValidationError(f"slot {self.slot}: attackable requires required_high >= 1")
        if not -2**63 <= self.required_high_priority < 2**63:
            raise ValidationError(f"slot {self.slot}: required_high outside 64 bits")
        if self.attackable != math.isfinite(self.cost):
            raise ValidationError(f"slot {self.slot}: cost must be finite iff attackable")
        if math.isfinite(self.cost) and self.cost < 0:
            raise ValidationError(f"slot {self.slot}: cost must be >= 0")


@dataclass(frozen=True)
class ConstellationScenario:
    """Immutable world description; all derived sets are computed elsewhere."""

    time: TimeGrid
    satellites: tuple[SatelliteSpec, ...]
    stations: tuple[GroundStationSpec, ...]
    trace: tuple[DataUnit, ...]
    target: TargetSpec
    costs: CostModel
    seed: int
    initial_queue: tuple[tuple[str, tuple[DataUnit, ...]], ...] = ()
    attackability: tuple[AttackabilityRecord, ...] | None = None

    def satellite(self, sat_id: str) -> SatelliteSpec:
        for sat in self.satellites:
            if sat.id == sat_id:
                return sat
        raise ValidationError(f"unknown satellite {sat_id}")

    @property
    def low_satellites(self) -> tuple[SatelliteSpec, ...]:
        return tuple(s for s in self.satellites if s.priority == "low")

    @property
    def high_satellites(self) -> tuple[SatelliteSpec, ...]:
        return tuple(s for s in self.satellites if s.priority == "high")

    @property
    def target_satellite(self) -> SatelliteSpec:
        return self.satellite(self.target.satellite_id)

    def initial_units(self, sat_id: str) -> tuple[DataUnit, ...]:
        for sid, units in self.initial_queue:
            if sid == sat_id:
                return units
        return ()

    def trace_for(self, sat_id: str) -> tuple[DataUnit, ...]:
        return tuple(u for u in self.trace if u.satellite_id == sat_id)

    def fifo_units(self, sat_id: str) -> tuple[DataUnit, ...]:
        """All units of one satellite in arrival order: initial queue, then trace."""
        return self.initial_units(sat_id) + self.trace_for(sat_id)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}.{key}: missing")
    return obj[key]


def _obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false, got {type(value).__name__}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {type(value).__name__}")
    return value


def _float(value, where: str) -> float:
    """A JSON number as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where}: must be finite")
    return number


def _int(value, where: str) -> int:
    """A JSON integer that is finite as a float; a float must have no fraction."""
    if type(value) is int:  # not a bool, which is an int subclass
        if value.bit_length() > 1023:  # from 2**1023 on, it may overflow a float
            _float(value, where)
        return value
    number = _float(value, where)
    if not number.is_integer():
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return int(number)


def _finite_floats(values) -> bool:
    """Whether every value is a finite float, which `_float` takes as it is."""
    return all(type(x) is float and -math.inf < x < math.inf for x in values)


def _plain_int(value) -> bool:
    """Whether `_int` takes value as it is: an int, not a bool, finite as a float."""
    return type(value) is int and -_FLOAT_SAFE < value < _FLOAT_SAFE


# the orbit's numbers in TleElements order, each with its default (None if required)
_ORBIT_NUMBERS = (("inclination_deg", None), ("raan_deg", None), ("eccentricity", 0.0),
                  ("arg_perigee_deg", 0.0), ("mean_anomaly_deg", None),
                  ("mean_motion_rev_per_day", None))


def _parse_orbit(obj: dict | None, where: str) -> TleElements | None:
    if obj is None:
        return None
    obj = _obj(obj, where)
    numbers = [obj.get(key, default) for key, default in _ORBIT_NUMBERS]
    if not _finite_floats(numbers):
        numbers = [_float(_require(obj, key, where) if default is None else obj.get(key, default),
                          f"{where}.{key}")
                   for key, default in _ORBIT_NUMBERS]
    return TleElements(*numbers, epoch=_parse_utc(_require(obj, "epoch", where), where))


def _parse_satellite(obj, i: int) -> tuple[SatelliteSpec, tuple[DataUnit, ...]]:
    """satellites[i] and its initial queue."""
    if type(obj) is dict:
        sat_id = obj.get("id")
        priority = obj.get("priority", "low")
        capacity = obj.get("capacity_bytes", DEFAULT_CAPACITY_BYTES if priority == "low" else 0)
        rate = obj.get("downlink_rate_bps", DEFAULT_DOWNLINK_RATE_BPS)
        if (type(sat_id) is str and type(priority) is str
                and _plain_int(capacity) and _plain_int(rate)):
            orbit = _parse_orbit(obj.get("orbit"), f"satellites[{i}].orbit")
            return (SatelliteSpec(sat_id, priority, orbit, capacity, rate),
                    _parse_initial_queue(obj.get("initial_queue"), sat_id))
    where = f"satellites[{i}]"
    obj = _obj(obj, where)
    sat_id = _str(_require(obj, "id", where), f"{where}.id")
    priority = _str(obj.get("priority", "low"), f"{where}.priority")
    default_capacity = DEFAULT_CAPACITY_BYTES if priority == "low" else 0
    satellite = SatelliteSpec(
        id=sat_id,
        priority=priority,
        orbit=_parse_orbit(obj.get("orbit"), f"{where}.orbit"),
        capacity_bytes=_int(obj.get("capacity_bytes", default_capacity),
                            f"{where}.capacity_bytes"),
        downlink_rate_bps=_int(obj.get("downlink_rate_bps", DEFAULT_DOWNLINK_RATE_BPS),
                               f"{where}.downlink_rate_bps"),
    )
    return satellite, _parse_initial_queue(obj.get("initial_queue"), sat_id)


def _parse_initial_queue(obj: dict | None, sat_id: str) -> tuple[DataUnit, ...]:
    if obj is None:
        return ()
    if type(obj) is dict:
        sizes = obj.get("unit_sizes")
        if (type(sizes) is list and len(sizes) <= MAX_QUEUE_UNITS
                and all(type(s) is int and 0 < s < _FLOAT_SAFE for s in sizes)):
            return tuple(DataUnit(f"init-{i:03d}", sat_id, 0, size)
                         for i, size in enumerate(sizes, start=1))
    where = f"satellite {sat_id}.initial_queue"
    obj = _obj(obj, where)
    if "unit_sizes" in obj:
        label = f"{where}.unit_sizes"
        cells = _list(obj["unit_sizes"], label)
        count = len(cells)
    else:
        label = f"{where}.count"
        count = _int(_require(obj, "count", where), label)
        size = _int(_require(obj, "unit_size_bytes", where), f"{where}.unit_size_bytes")
    if not 0 <= count <= MAX_QUEUE_UNITS:
        raise ValidationError(f"{label}: {count} units, outside [0, {MAX_QUEUE_UNITS}]")
    sizes = [_int(s, label) for s in cells] if "unit_sizes" in obj else [size] * count
    return tuple(
        DataUnit(f"init-{i:03d}", sat_id, 0, size)
        for i, size in enumerate(sizes, start=1)
    )


def _parse_station(obj, i: int) -> GroundStationSpec:
    """stations[i]."""
    if type(obj) is dict:
        st_id = obj.get("id")
        lat, lon = obj.get("latitude_deg"), obj.get("longitude_deg")
        alt = obj.get("altitude_m", 0.0)
        antennas = obj.get("antenna_count", DEFAULT_ANTENNA_COUNT)
        elevation = obj.get("min_elevation_deg", DEFAULT_MIN_ELEVATION_DEG)
        if (type(st_id) is str and _finite_floats((lat, lon, alt, elevation))
                and _plain_int(antennas)):
            return GroundStationSpec(st_id, lat, lon, alt, antennas, elevation)
    where = f"stations[{i}]"
    obj = _obj(obj, where)
    return GroundStationSpec(
        id=_str(_require(obj, "id", where), f"{where}.id"),
        latitude_deg=_float(_require(obj, "latitude_deg", where), f"{where}.latitude_deg"),
        longitude_deg=_float(_require(obj, "longitude_deg", where), f"{where}.longitude_deg"),
        altitude_m=_float(obj.get("altitude_m", 0.0), f"{where}.altitude_m"),
        antenna_count=_int(obj.get("antenna_count", DEFAULT_ANTENNA_COUNT),
                           f"{where}.antenna_count"),
        min_elevation_deg=_float(obj.get("min_elevation_deg", DEFAULT_MIN_ELEVATION_DEG),
                                 f"{where}.min_elevation_deg"),
    )


def _parse_trace_rows(rows: list, grid: TimeGrid) -> list[DataUnit]:
    """The inline trace. A row with an int capture_slot, a positive int
    size_bytes and str ids is built as it is; any other row goes through
    `_parse_trace_row`."""
    units = []
    for row in _list(rows, "trace"):
        if type(row) is dict:
            try:
                uid, sid = row["unit_id"], row["satellite_id"]
                slot, size = row["capture_slot"], row["size_bytes"]
            except KeyError:
                pass
            else:
                if (type(uid) is str and type(sid) is str and type(slot) is int
                        and type(size) is int and -_FLOAT_SAFE < slot < _FLOAT_SAFE
                        and 0 < size < _FLOAT_SAFE):
                    units.append(DataUnit(uid, sid, slot, size))
                    continue
        units.append(_parse_trace_row(row, len(units), grid))
    return units


def _parse_trace_row(row, i: int, grid: TimeGrid) -> DataUnit:
    """trace[i], field by field through the helpers."""
    where = f"trace[{i}]"
    row = _obj(row, where)
    if "capture_slot" in row:
        slot = _int(row["capture_slot"], where)
    else:
        slot = grid.slot_of(_parse_utc(_require(row, "capture_iso8601", where), where))
    return DataUnit(
        unit_id=_str(_require(row, "unit_id", where), f"{where}.unit_id"),
        satellite_id=_str(_require(row, "satellite_id", where), f"{where}.satellite_id"),
        capture_slot=slot,
        size_bytes=_int(_require(row, "size_bytes", where), where),
    )


def _csv_int(cell: str) -> int | None:
    """An ASCII decimal integer cell as an int, or None for any other cell."""
    if _CSV_INT.fullmatch(cell):
        try:
            return int(cell)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _load_trace_csv(path: str, grid: TimeGrid) -> list[DataUnit]:
    expected = ["unit_id", "satellite_id", "capture_iso8601", "size_bytes"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected:
                raise ParseError(f"{path}: expected header {','.join(expected)}")
            units = []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise ParseError(f"{path}:{line_no}: expected 4 columns")
                slot = grid.slot_of(_parse_utc(row[2], f"{path}:{line_no}"))
                size = _csv_int(row[3])
                if size is None:
                    raise ParseError(f"{path}:{line_no}: size_bytes is not an integer")
                units.append(DataUnit(row[0], row[1], slot, size))
    except OSError as exc:
        raise IoError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # such as a cell past csv.field_size_limit()
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return units


def _parse_attackability(rows: list | None) -> tuple[AttackabilityRecord, ...] | None:
    if rows is None:
        return None
    records = []
    for i, row in enumerate(_list(rows, "attackability")):
        where = f"attackability[{i}]"
        row = _obj(row, where)
        cost = row.get("cost")
        records.append(AttackabilityRecord(
            slot=_int(_require(row, "slot", where), f"{where}.slot"),
            transmissible=_bool(row.get("transmissible", False), f"{where}.transmissible"),
            attackable=_bool(row.get("attackable", False), f"{where}.attackable"),
            required_high_priority=_int(row.get("required_high", 0), f"{where}.required_high"),
            cost=_float(cost, f"{where}.cost") if cost is not None else math.inf,
        ))
    records.sort(key=lambda r: r.slot)
    return tuple(records)


def _validate(scenario: ConstellationScenario) -> None:
    grid = scenario.time
    ids = [s.id for s in scenario.satellites]
    if len(set(ids)) != len(ids):
        raise ValidationError("satellites: duplicate id")
    if len(set(st.id for st in scenario.stations)) != len(scenario.stations):
        raise ValidationError("stations: duplicate id")

    # one pass over the trace; per satellite, the unit ids seen and the
    # latest capture slot (slots are checked >= 0 before they are compared)
    target = scenario.target
    target_id = target.satellite_id
    last_slot = grid.last_slot
    seen: dict[str, set] = {sid: set() for sid in ids}
    latest = dict.fromkeys(ids, 0)
    target_trace = []
    for unit in scenario.trace:
        sid = unit.satellite_id
        unit_ids = seen.get(sid)
        if unit_ids is None:
            raise ValidationError(f"unit {unit.unit_id}: unknown satellite {sid}")
        slot = unit.capture_slot
        if not 0 <= slot <= last_slot:
            raise ValidationError(f"unit {unit.unit_id}: capture_slot outside horizon")
        if unit.unit_id in unit_ids:
            raise ValidationError(f"unit {unit.unit_id}: duplicate id on {sid}")
        unit_ids.add(unit.unit_id)
        if slot < latest[sid]:
            raise ValidationError(f"unit {unit.unit_id}: capture order regresses on {sid}")
        latest[sid] = slot
        if sid == target_id:
            target_trace.append(unit)

    # initial_queue holds only parsed satellites, whose ids are distinct
    for sid, units in scenario.initial_queue:
        for unit in units:
            if unit.unit_id in seen[sid]:
                raise ValidationError(f"unit {unit.unit_id}: clashes with trace id on {sid}")

    sat = scenario.satellite(target_id)
    if sat.priority != "low":
        raise ValidationError("target.satellite_id: must be a low-priority satellite")
    if not 0 <= target.attack_start_slot <= grid.last_slot:
        raise ValidationError("target.attack_start_slot: outside horizon")
    fifo = scenario.initial_units(target_id) + tuple(target_trace)
    order = {u.unit_id: i for i, u in enumerate(fifo)}
    for uid in target.target_unit_ids:
        if uid not in order:
            raise ValidationError(f"target unit {uid}: not in trace of {target_id}")
    # pre-start captures on the target satellite belong to the initial queue
    for unit in target_trace:
        if unit.capture_slot < target.attack_start_slot:
            raise ValidationError(
                f"unit {unit.unit_id}: captured before attack_start_slot on target satellite")
    positions = [order[uid] for uid in target.target_unit_ids]
    if positions != sorted(positions):
        raise ValidationError("target.target_unit_ids: not in capture order")
    if target.target_downlink_slot is not None:
        if not target.attack_start_slot < target.target_downlink_slot <= grid.last_slot:
            raise ValidationError("target.target_downlink_slot: outside (attack start, horizon]")

    if scenario.attackability is not None:
        seen_slots = set()
        for rec in scenario.attackability:
            if not 0 <= rec.slot <= grid.last_slot:
                raise ValidationError(f"attackability slot {rec.slot}: outside horizon")
            if rec.slot in seen_slots:
                raise ValidationError(f"attackability slot {rec.slot}: duplicate")
            seen_slots.add(rec.slot)


def scenario_from_dict(obj: dict, base_dir: str = ".") -> ConstellationScenario:
    """Build and validate a scenario from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ParseError("scenario: top level must be an object")
    time_obj = _obj(_require(obj, "time", "scenario"), "time")
    grid = TimeGrid(
        epoch=_parse_utc(_require(time_obj, "epoch", "time"), "time.epoch"),
        slot_seconds=_int(time_obj.get("slot_seconds", DEFAULT_SLOT_SECONDS),
                          "time.slot_seconds"),
        horizon_slots=_int(_require(time_obj, "horizon_slots", "time"), "time.horizon_slots"),
    )

    satellites = []
    initial_queue = []
    for i, sat_obj in enumerate(_list(_require(obj, "satellites", "scenario"), "satellites")):
        satellite, units = _parse_satellite(sat_obj, i)
        satellites.append(satellite)
        if units:
            initial_queue.append((satellite.id, units))

    stations = [_parse_station(st_obj, i)
                for i, st_obj in enumerate(_list(obj.get("stations", []), "stations"))]

    trace_obj = _require(obj, "trace", "scenario")
    if isinstance(trace_obj, str):
        trace = _load_trace_csv(os.path.join(base_dir, trace_obj), grid)
    else:
        trace = _parse_trace_rows(trace_obj, grid)

    target_obj = _obj(_require(obj, "target", "scenario"), "target")
    budget = target_obj.get("cost_budget")
    deadline = target_obj.get("target_downlink_slot")
    target = TargetSpec(
        satellite_id=_str(_require(target_obj, "satellite_id", "target"), "target.satellite_id"),
        target_unit_ids=tuple(_str(u, "target.target_unit_ids") for u in _list(
            _require(target_obj, "target_unit_ids", "target"), "target.target_unit_ids")),
        attack_start_slot=_int(target_obj.get("attack_start_slot", 0), "target.attack_start_slot"),
        target_downlink_slot=(_int(deadline, "target.target_downlink_slot")
                              if deadline is not None else None),
        cost_budget=_float(budget, "target.cost_budget") if budget is not None else None,
    )

    costs_obj = _obj(obj.get("costs", {}), "costs")
    costs = CostModel(unit_task_price=_float(
        costs_obj.get("unit_task_price", DEFAULT_UNIT_TASK_PRICE), "costs.unit_task_price"))

    scenario = ConstellationScenario(
        time=grid,
        satellites=tuple(satellites),
        stations=tuple(stations),
        trace=tuple(trace),
        target=target,
        costs=costs,
        seed=_int(obj.get("seed", 0), "seed"),
        initial_queue=tuple(initial_queue),
        attackability=_parse_attackability(obj.get("attackability")),
    )
    _validate(scenario)
    return scenario


def load_scenario(path: str) -> ConstellationScenario:
    """Load, parse, and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read scenario {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(obj, base_dir=os.path.dirname(path) or ".")


def scenario_to_dict(scenario: ConstellationScenario) -> dict:
    """Serialize to the canonical JSON structure (round-trips structurally)."""
    sats = []
    for sat in scenario.satellites:
        entry: dict = {"id": sat.id, "priority": sat.priority}
        if sat.orbit is not None:
            orbit = sat.orbit
            entry["orbit"] = {
                "inclination_deg": orbit.inclination_deg,
                "raan_deg": orbit.raan_deg,
                "eccentricity": orbit.eccentricity,
                "arg_perigee_deg": orbit.arg_perigee_deg,
                "mean_anomaly_deg": orbit.mean_anomaly_deg,
                "mean_motion_rev_per_day": orbit.mean_motion_rev_per_day,
                "epoch": _iso(orbit.epoch),
            }
        entry["capacity_bytes"] = sat.capacity_bytes
        entry["downlink_rate_bps"] = sat.downlink_rate_bps
        units = scenario.initial_units(sat.id)
        if units:
            entry["initial_queue"] = {"unit_sizes": [u.size_bytes for u in units]}
        sats.append(entry)

    obj: dict = {
        "time": {
            "epoch": _iso(scenario.time.epoch),
            "slot_seconds": scenario.time.slot_seconds,
            "horizon_slots": scenario.time.horizon_slots,
        },
        "satellites": sats,
        "stations": [
            {
                "id": st.id,
                "latitude_deg": st.latitude_deg,
                "longitude_deg": st.longitude_deg,
                "altitude_m": st.altitude_m,
                "antenna_count": st.antenna_count,
                "min_elevation_deg": st.min_elevation_deg,
            }
            for st in scenario.stations
        ],
        "trace": [
            {
                "unit_id": u.unit_id,
                "satellite_id": u.satellite_id,
                "capture_slot": u.capture_slot,
                "size_bytes": u.size_bytes,
            }
            for u in scenario.trace
        ],
        "target": {
            "satellite_id": scenario.target.satellite_id,
            "target_unit_ids": list(scenario.target.target_unit_ids),
            "attack_start_slot": scenario.target.attack_start_slot,
            "target_downlink_slot": scenario.target.target_downlink_slot,
            "cost_budget": scenario.target.cost_budget,
        },
        "costs": {"unit_task_price": scenario.costs.unit_task_price},
        "seed": scenario.seed,
    }
    if scenario.attackability is not None:
        obj["attackability"] = [
            {
                "slot": r.slot,
                "transmissible": r.transmissible,
                "attackable": r.attackable,
                "required_high": r.required_high_priority,
                "cost": r.cost if math.isfinite(r.cost) else None,
            }
            for r in scenario.attackability
        ]
    return obj


def save_scenario(scenario: ConstellationScenario, path: str) -> None:
    """Write the canonical JSON form atomically."""
    text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    write_text_atomic(path, text)
