"""Shared domain types, scenario loading, validation, and time discretization.

A scenario file is a JSON object with top-level keys `time`, `satellites`,
`stations`, `trace`, `target`, `costs`, `seed`, and optionally `attackability`
(per-slot transmissibility and attack costs given directly, bypassing orbit
propagation and antenna scheduling). The capture trace may be inline or a path
to a CSV with header `unit_id,satellite_id,capture_iso8601,size_bytes`.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from .errors import IoError, OutOfHorizon, ParseError, ValidationError

DEFAULT_SLOT_SECONDS = 60
DEFAULT_DOWNLINK_RATE_BPS = 160_000_000
DEFAULT_CAPACITY_BYTES = 2_000_000_000_000
DEFAULT_ANTENNA_COUNT = 4
DEFAULT_MIN_ELEVATION_DEG = 5.0
DEFAULT_UNIT_TASK_PRICE = 1


def _parse_utc(text: str, where: str) -> datetime:
    """Parse an ISO 8601 timestamp; naive values are taken as UTC."""
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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

    @property
    def last_slot(self) -> int:
        return self.horizon_slots - 1

    def slot_of(self, timestamp: datetime) -> int:
        """Map a UTC timestamp to its slot index by floor division."""
        delta = (timestamp - self.epoch).total_seconds()
        if delta < 0 or delta >= self.horizon_slots * self.slot_seconds:
            raise OutOfHorizon(f"timestamp {_iso(timestamp)} outside grid")
        return int(delta // self.slot_seconds)

    def slot_start(self, slot: int) -> datetime:
        return self.epoch + timedelta(seconds=slot * self.slot_seconds)

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

    @property
    def period_seconds(self) -> float:
        return 86400.0 / self.mean_motion_rev_per_day


@dataclass(frozen=True)
class SatelliteSpec:
    id: str
    priority: str
    orbit: TleElements | None
    capacity_bytes: int
    downlink_rate_bps: int

    def __post_init__(self) -> None:
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
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValidationError(f"station {self.id}: latitude outside [-90, 90]")
        if not math.isfinite(self.longitude_deg):
            raise ValidationError(f"station {self.id}: longitude must be finite")
        if self.antenna_count < 1:
            raise ValidationError(f"station {self.id}: antenna_count must be >= 1")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValidationError(f"station {self.id}: min_elevation_deg outside [0, 90)")


@dataclass(frozen=True)
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


def _parse_orbit(obj: dict | None, where: str) -> TleElements | None:
    if obj is None:
        return None
    return TleElements(
        inclination_deg=float(_require(obj, "inclination_deg", where)),
        raan_deg=float(_require(obj, "raan_deg", where)),
        eccentricity=float(obj.get("eccentricity", 0.0)),
        arg_perigee_deg=float(obj.get("arg_perigee_deg", 0.0)),
        mean_anomaly_deg=float(_require(obj, "mean_anomaly_deg", where)),
        mean_motion_rev_per_day=float(_require(obj, "mean_motion_rev_per_day", where)),
        epoch=_parse_utc(_require(obj, "epoch", where), where),
    )


def _parse_initial_queue(obj: dict | None, sat_id: str) -> tuple[DataUnit, ...]:
    if obj is None:
        return ()
    where = f"satellite {sat_id}.initial_queue"
    if "unit_sizes" in obj:
        sizes = [int(s) for s in obj["unit_sizes"]]
    else:
        count = int(_require(obj, "count", where))
        size = int(_require(obj, "unit_size_bytes", where))
        if count < 0:
            raise ValidationError(f"{where}.count: must be >= 0")
        sizes = [size] * count
    return tuple(
        DataUnit(f"init-{i:03d}", sat_id, 0, size)
        for i, size in enumerate(sizes, start=1)
    )


def _parse_trace_rows(rows: list, grid: TimeGrid) -> list[DataUnit]:
    units = []
    for i, row in enumerate(rows):
        where = f"trace[{i}]"
        if "capture_slot" in row:
            slot = int(row["capture_slot"])
        else:
            slot = grid.slot_of(_parse_utc(_require(row, "capture_iso8601", where), where))
        units.append(DataUnit(
            unit_id=str(_require(row, "unit_id", where)),
            satellite_id=str(_require(row, "satellite_id", where)),
            capture_slot=slot,
            size_bytes=int(_require(row, "size_bytes", where)),
        ))
    return units


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
                try:
                    size = int(row[3])
                except ValueError as exc:
                    raise ParseError(f"{path}:{line_no}: size_bytes is not an integer") from exc
                units.append(DataUnit(row[0], row[1], slot, size))
    except OSError as exc:
        raise IoError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return units


def _parse_attackability(rows: list | None) -> tuple[AttackabilityRecord, ...] | None:
    if rows is None:
        return None
    records = []
    for i, row in enumerate(rows):
        where = f"attackability[{i}]"
        cost = row.get("cost")
        records.append(AttackabilityRecord(
            slot=int(_require(row, "slot", where)),
            transmissible=bool(row.get("transmissible", False)),
            attackable=bool(row.get("attackable", False)),
            required_high_priority=int(row.get("required_high", 0)),
            cost=float(cost) if cost is not None else math.inf,
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

    known = set(ids)
    per_sat_last_slot: dict[str, int] = {}
    per_sat_seen: dict[str, set] = {}
    for unit in scenario.trace:
        if unit.satellite_id not in known:
            raise ValidationError(f"unit {unit.unit_id}: unknown satellite {unit.satellite_id}")
        if not 0 <= unit.capture_slot <= grid.last_slot:
            raise ValidationError(f"unit {unit.unit_id}: capture_slot outside horizon")
        seen = per_sat_seen.setdefault(unit.satellite_id, set())
        if unit.unit_id in seen:
            raise ValidationError(f"unit {unit.unit_id}: duplicate id on {unit.satellite_id}")
        seen.add(unit.unit_id)
        last = per_sat_last_slot.get(unit.satellite_id)
        if last is not None and unit.capture_slot < last:
            raise ValidationError(
                f"unit {unit.unit_id}: capture order regresses on {unit.satellite_id}")
        per_sat_last_slot[unit.satellite_id] = unit.capture_slot

    for sid, units in scenario.initial_queue:
        if sid not in known:
            raise ValidationError(f"initial_queue: unknown satellite {sid}")
        for unit in units:
            if unit.unit_id in per_sat_seen.get(sid, set()):
                raise ValidationError(f"unit {unit.unit_id}: clashes with trace id on {sid}")

    target = scenario.target
    sat = scenario.satellite(target.satellite_id)
    if sat.priority != "low":
        raise ValidationError("target.satellite_id: must be a low-priority satellite")
    if not 0 <= target.attack_start_slot <= grid.last_slot:
        raise ValidationError("target.attack_start_slot: outside horizon")
    aboard = {u.unit_id for u in scenario.fifo_units(target.satellite_id)}
    for uid in target.target_unit_ids:
        if uid not in aboard:
            raise ValidationError(f"target unit {uid}: not in trace of {target.satellite_id}")
    # pre-start captures on the target satellite belong to the initial queue
    for unit in scenario.trace_for(target.satellite_id):
        if unit.capture_slot < target.attack_start_slot:
            raise ValidationError(
                f"unit {unit.unit_id}: captured before attack_start_slot on target satellite")
    order = {u.unit_id: i for i, u in enumerate(scenario.fifo_units(target.satellite_id))}
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
    time_obj = _require(obj, "time", "scenario")
    grid = TimeGrid(
        epoch=_parse_utc(_require(time_obj, "epoch", "time"), "time.epoch"),
        slot_seconds=int(time_obj.get("slot_seconds", DEFAULT_SLOT_SECONDS)),
        horizon_slots=int(_require(time_obj, "horizon_slots", "time")),
    )

    satellites = []
    initial_queue = []
    for i, sat_obj in enumerate(_require(obj, "satellites", "scenario")):
        where = f"satellites[{i}]"
        sat_id = str(_require(sat_obj, "id", where))
        priority = str(sat_obj.get("priority", "low"))
        default_capacity = DEFAULT_CAPACITY_BYTES if priority == "low" else 0
        satellites.append(SatelliteSpec(
            id=sat_id,
            priority=priority,
            orbit=_parse_orbit(sat_obj.get("orbit"), f"{where}.orbit"),
            capacity_bytes=int(sat_obj.get("capacity_bytes", default_capacity)),
            downlink_rate_bps=int(sat_obj.get("downlink_rate_bps", DEFAULT_DOWNLINK_RATE_BPS)),
        ))
        units = _parse_initial_queue(sat_obj.get("initial_queue"), sat_id)
        if units:
            initial_queue.append((sat_id, units))

    stations = []
    for i, st_obj in enumerate(obj.get("stations", [])):
        where = f"stations[{i}]"
        stations.append(GroundStationSpec(
            id=str(_require(st_obj, "id", where)),
            latitude_deg=float(_require(st_obj, "latitude_deg", where)),
            longitude_deg=float(_require(st_obj, "longitude_deg", where)),
            altitude_m=float(st_obj.get("altitude_m", 0.0)),
            antenna_count=int(st_obj.get("antenna_count", DEFAULT_ANTENNA_COUNT)),
            min_elevation_deg=float(st_obj.get("min_elevation_deg", DEFAULT_MIN_ELEVATION_DEG)),
        ))

    trace_obj = _require(obj, "trace", "scenario")
    if isinstance(trace_obj, str):
        trace = _load_trace_csv(os.path.join(base_dir, trace_obj), grid)
    else:
        trace = _parse_trace_rows(trace_obj, grid)

    target_obj = _require(obj, "target", "scenario")
    budget = target_obj.get("cost_budget")
    target = TargetSpec(
        satellite_id=str(_require(target_obj, "satellite_id", "target")),
        target_unit_ids=tuple(str(u) for u in _require(target_obj, "target_unit_ids", "target")),
        attack_start_slot=int(target_obj.get("attack_start_slot", 0)),
        target_downlink_slot=(
            int(target_obj["target_downlink_slot"])
            if target_obj.get("target_downlink_slot") is not None else None),
        cost_budget=float(budget) if budget is not None else None,
    )

    costs_obj = obj.get("costs", {})
    costs = CostModel(unit_task_price=float(
        costs_obj.get("unit_task_price", DEFAULT_UNIT_TASK_PRICE)))

    scenario = ConstellationScenario(
        time=grid,
        satellites=tuple(satellites),
        stations=tuple(stations),
        trace=tuple(trace),
        target=target,
        costs=costs,
        seed=int(obj.get("seed", 0)),
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
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
    from .output import write_text_atomic

    text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    write_text_atomic(path, text)
