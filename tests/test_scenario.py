"""Scenario schema: parsing, validation, accessors, round trips."""

import json
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from bundled import bundled_path, load_bundled
from orbitsiege import OutOfHorizon, ParseError, ValidationError, load_scenario
from orbitsiege.scenario import (MAX_ANTENNA_COUNT, MAX_HORIZON_SLOTS, MAX_QUEUE_UNITS,
                                 AttackabilityRecord, ConstellationScenario,
                                 CostModel, DataUnit, GroundStationSpec,
                                 SatelliteSpec, TargetSpec, TimeGrid, TleElements,
                                 save_scenario, scenario_from_dict, scenario_to_dict)

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def desk_dict():
    """Minimal valid scenario object, mutated by the validation tests."""
    return {
        "time": {"epoch": "2026-01-01T00:00:00Z", "slot_seconds": 1,
                 "horizon_slots": 10},
        "satellites": [
            {"id": "obs-1", "priority": "low", "capacity_bytes": 10,
             "downlink_rate_bps": 16,
             "initial_queue": {"unit_sizes": [1, 1, 1]}},
            {"id": "rush-1", "priority": "high", "capacity_bytes": 0,
             "downlink_rate_bps": 16},
        ],
        "stations": [],
        "trace": [
            {"unit_id": "arr-001", "satellite_id": "obs-1",
             "capture_slot": 3, "size_bytes": 1},
            {"unit_id": "arr-002", "satellite_id": "obs-1",
             "capture_slot": 5, "size_bytes": 1},
        ],
        "target": {"satellite_id": "obs-1",
                   "target_unit_ids": ["init-002"],
                   "attack_start_slot": 0,
                   "target_downlink_slot": 6},
        "costs": {"unit_task_price": 1},
        "seed": 0,
        "attackability": [
            {"slot": t, "transmissible": True, "attackable": True,
             "required_high": 1, "cost": 1.0}
            for t in range(2, 10, 2)
        ],
    }


def test_time_grid_slots():
    grid = TimeGrid(epoch=EPOCH, slot_seconds=60, horizon_slots=5)
    assert grid.last_slot == 4
    assert grid.slot_of(EPOCH) == 0
    assert grid.slot_of(EPOCH + timedelta(seconds=59)) == 0
    assert grid.slot_of(EPOCH + timedelta(seconds=60)) == 1
    mid = grid.slot_midpoint(2)
    assert mid == EPOCH + timedelta(seconds=150)
    with pytest.raises(OutOfHorizon):
        grid.slot_of(EPOCH + timedelta(seconds=300))
    with pytest.raises(OutOfHorizon):
        grid.slot_of(EPOCH - timedelta(seconds=1))


def test_time_grid_validation():
    with pytest.raises(ValidationError, match="timezone"):
        TimeGrid(epoch=datetime(2026, 1, 1), slot_seconds=60, horizon_slots=5)
    with pytest.raises(ValidationError, match="slot_seconds"):
        TimeGrid(epoch=EPOCH, slot_seconds=0, horizon_slots=5)
    with pytest.raises(ValidationError, match="horizon"):
        TimeGrid(epoch=EPOCH, slot_seconds=60, horizon_slots=0)
    TimeGrid(epoch=EPOCH, slot_seconds=60, horizon_slots=MAX_HORIZON_SLOTS)
    with pytest.raises(ValidationError, match="horizon_slots: must be <="):
        TimeGrid(epoch=EPOCH, slot_seconds=60, horizon_slots=MAX_HORIZON_SLOTS + 1)
    # the grid's end must be a UTC datetime, however it gets out of range
    late = datetime(9999, 12, 31, tzinfo=timezone.utc)
    TimeGrid(epoch=late, slot_seconds=60, horizon_slots=1)
    for epoch, slot_seconds in ((late, 86_400), (EPOCH, 10**15), (EPOCH, 10**400)):
        with pytest.raises(ValidationError, match="past the last UTC datetime"):
            TimeGrid(epoch=epoch, slot_seconds=slot_seconds, horizon_slots=2)


def test_tle_elements_bounds():
    def make(**kw):
        base = dict(inclination_deg=97.6, raan_deg=0.0, eccentricity=0.0,
                    arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                    mean_motion_rev_per_day=14.9, epoch=EPOCH)
        base.update(kw)
        return TleElements(**base)

    make()
    with pytest.raises(ValidationError):
        make(inclination_deg=181.0)
    with pytest.raises(ValidationError):
        make(mean_motion_rev_per_day=0.0)
    with pytest.raises(ValidationError):
        make(eccentricity=0.06)
    with pytest.raises(ValidationError):
        make(eccentricity=-0.01)


def test_satellite_priority_rules():
    with pytest.raises(ValidationError, match="priority"):
        SatelliteSpec(id="x", priority="urgent", orbit=None,
                      capacity_bytes=1, downlink_rate_bps=1)
    # low needs storage, high must not carry any
    with pytest.raises(ValidationError):
        SatelliteSpec(id="x", priority="low", orbit=None,
                      capacity_bytes=0, downlink_rate_bps=1)
    with pytest.raises(ValidationError):
        SatelliteSpec(id="x", priority="high", orbit=None,
                      capacity_bytes=1, downlink_rate_bps=1)
    with pytest.raises(ValidationError):
        SatelliteSpec(id="x", priority="low", orbit=None,
                      capacity_bytes=1, downlink_rate_bps=0)


@pytest.mark.parametrize("sid", ["obs,1", 'obs"1', "obs\r1", "obs\n1"])
def test_ids_the_windows_csv_cannot_hold_are_refused(sid):
    # the windows CSV writes ids as they are, unquoted
    with pytest.raises(ValidationError, match=re.escape(f"satellite {sid!r}: id must not")):
        SatelliteSpec(id=sid, priority="high", orbit=None, capacity_bytes=0,
                      downlink_rate_bps=1)
    with pytest.raises(ValidationError, match=re.escape(f"station {sid!r}: id must not")):
        GroundStationSpec(id=sid, latitude_deg=0.0, longitude_deg=0.0,
                          altitude_m=0.0, antenna_count=1, min_elevation_deg=5.0)


def test_station_bounds():
    with pytest.raises(ValidationError):
        GroundStationSpec(id="g", latitude_deg=91.0, longitude_deg=0.0,
                          altitude_m=0.0, antenna_count=1, min_elevation_deg=5.0)
    for antennas in (0, MAX_ANTENNA_COUNT + 1):
        with pytest.raises(ValidationError, match="antenna_count"):
            GroundStationSpec(id="g", latitude_deg=0.0, longitude_deg=0.0,
                              altitude_m=0.0, antenna_count=antennas, min_elevation_deg=5.0)
    for altitude in (-11_001.0, 9_001.0, 1e308):
        with pytest.raises(ValidationError, match="altitude_m"):
            GroundStationSpec(id="g", latitude_deg=0.0, longitude_deg=0.0,
                              altitude_m=altitude, antenna_count=1, min_elevation_deg=5.0)
    with pytest.raises(ValidationError):
        GroundStationSpec(id="g", latitude_deg=0.0, longitude_deg=0.0,
                          altitude_m=0.0, antenna_count=1, min_elevation_deg=90.0)


def test_record_consistency():
    with pytest.raises(ValidationError, match="transmissible"):
        AttackabilityRecord(0, False, True, 1, 1.0)
    with pytest.raises(ValidationError, match="required_high"):
        AttackabilityRecord(0, True, True, 0, 1.0)
    with pytest.raises(ValidationError, match="finite"):
        AttackabilityRecord(0, True, True, 1, float("inf"))
    with pytest.raises(ValidationError, match="finite"):
        AttackabilityRecord(0, True, False, 0, 1.0)
    with pytest.raises(ValidationError):
        DataUnit("u", "s", 0, 0)
    with pytest.raises(ValidationError):
        TargetSpec(satellite_id="s", target_unit_ids=(), attack_start_slot=0)
    with pytest.raises(ValidationError, match="duplicate"):
        TargetSpec(satellite_id="s", target_unit_ids=("a", "a"),
                   attack_start_slot=0)
    with pytest.raises(ValidationError):
        CostModel(unit_task_price=-1.0)


def test_parse_minimal():
    scenario = scenario_from_dict(desk_dict())
    assert scenario.time.horizon_slots == 10
    assert [s.id for s in scenario.satellites] == ["obs-1", "rush-1"]
    assert scenario.target_satellite.id == "obs-1"
    units = scenario.initial_units("obs-1")
    assert [u.unit_id for u in units] == ["init-001", "init-002", "init-003"]
    assert all(u.capture_slot == 0 for u in units)
    assert [u.unit_id for u in scenario.fifo_units("obs-1")] == [
        "init-001", "init-002", "init-003", "arr-001", "arr-002"]
    assert scenario.trace_for("rush-1") == ()


def test_initial_queue_count_form():
    obj = desk_dict()
    obj["satellites"][0]["initial_queue"] = {"count": 4, "unit_size_bytes": 2}
    scenario = scenario_from_dict(obj)
    units = scenario.initial_units("obs-1")
    assert len(units) == 4
    assert all(u.size_bytes == 2 for u in units)

    for count in (-1, MAX_QUEUE_UNITS + 1):
        obj["satellites"][0]["initial_queue"] = {"count": count, "unit_size_bytes": 2}
        with pytest.raises(ValidationError, match="count"):
            scenario_from_dict(obj)
    # the list form is held to the same bound
    obj["satellites"][0]["initial_queue"] = {"unit_sizes": [1] * (MAX_QUEUE_UNITS + 1)}
    with pytest.raises(ValidationError, match=f"unit_sizes: {MAX_QUEUE_UNITS + 1} units"):
        scenario_from_dict(obj)


def test_accessors():
    scenario = scenario_from_dict(desk_dict())
    assert scenario.satellite("rush-1").priority == "high"
    with pytest.raises(ValidationError, match="unknown satellite"):
        scenario.satellite("nope")
    assert [s.id for s in scenario.low_satellites] == ["obs-1"]
    assert [s.id for s in scenario.high_satellites] == ["rush-1"]
    assert scenario.initial_units("rush-1") == ()


@pytest.mark.parametrize("mutate,message", [
    (lambda o: o["satellites"].append(dict(o["satellites"][0])), "duplicate id"),
    (lambda o: o["trace"].append(
        {"unit_id": "x", "satellite_id": "ghost", "capture_slot": 1,
         "size_bytes": 1}), "unknown satellite"),
    (lambda o: o["trace"].append(
        {"unit_id": "x", "satellite_id": "obs-1", "capture_slot": 10,
         "size_bytes": 1}), "outside horizon"),
    (lambda o: o["trace"].append(
        {"unit_id": "arr-001", "satellite_id": "obs-1", "capture_slot": 6,
         "size_bytes": 1}), "duplicate id"),
    (lambda o: o["trace"].append(
        {"unit_id": "early", "satellite_id": "obs-1", "capture_slot": 4,
         "size_bytes": 1}), "regresses"),
    (lambda o: o["satellites"][1].update(
        {"initial_queue": {"unit_sizes": [1]}, "priority": "low",
         "capacity_bytes": 4, "id": "obs-1"}), "duplicate id"),
    (lambda o: o["target"].update({"satellite_id": "rush-1",
                                   "target_unit_ids": ["x"]}),
     "low-priority"),
    (lambda o: o["target"].update({"attack_start_slot": 10}), "outside horizon"),
    (lambda o: o["target"].update({"target_unit_ids": ["ghost"]}), "not in trace"),
    (lambda o: o["target"].update({"attack_start_slot": 4}),
     "captured before attack_start_slot"),
    (lambda o: o["target"].update(
        {"target_unit_ids": ["arr-001", "init-002"]}), "capture order"),
    (lambda o: o["target"].update({"target_downlink_slot": 0}),
     r"outside \(attack start"),
    (lambda o: o["target"].update({"target_downlink_slot": 10}),
     r"outside \(attack start"),
    (lambda o: o["attackability"].append({"slot": 11, "transmissible": True}),
     "outside horizon"),
    (lambda o: o["attackability"].append(
        {"slot": 2, "transmissible": True, "attackable": True,
         "required_high": 1, "cost": 1.0}), "duplicate"),
])
def test_validation_rejects(mutate, message):
    obj = desk_dict()
    mutate(obj)
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(obj)


def test_initial_queue_clash_with_trace():
    obj = desk_dict()
    # trace id on the target satellite colliding with a generated init id
    obj["trace"].insert(0, {"unit_id": "init-001", "satellite_id": "obs-1",
                            "capture_slot": 1, "size_bytes": 1})
    with pytest.raises(ValidationError):
        scenario_from_dict(obj)


def test_missing_keys_and_bad_timestamp():
    obj = desk_dict()
    del obj["time"]
    with pytest.raises(ValidationError, match="scenario.time"):
        scenario_from_dict(obj)
    obj = desk_dict()
    obj["time"]["epoch"] = "yesterday"
    with pytest.raises(ParseError, match="bad timestamp"):
        scenario_from_dict(obj)
    with pytest.raises(ParseError, match="top level"):
        scenario_from_dict([1, 2])


def test_attackability_rows_sorted_and_defaulted():
    obj = desk_dict()
    obj["attackability"] = list(reversed(obj["attackability"]))
    obj["attackability"].append({"slot": 1})
    scenario = scenario_from_dict(obj)
    slots = [r.slot for r in scenario.attackability]
    assert slots == sorted(slots)
    quiet = scenario.attackability[0]
    assert quiet.slot == 1
    assert not quiet.transmissible and not quiet.attackable
    assert quiet.cost == float("inf")


def test_round_trip_structural(tmp_path):
    for name in ("s0", "s0_ovf"):
        scenario = load_bundled(name)
        # the bundled files are in canonical form
        with open(bundled_path(name), encoding="utf-8") as fh:
            assert scenario_to_dict(scenario) == json.load(fh)
        path = str(tmp_path / "scenario.json")
        save_scenario(scenario, path)
        again = load_scenario(path)
        assert again == scenario
        # canonical dict form is stable under a second pass
        assert scenario_to_dict(again) == scenario_to_dict(scenario)


def test_round_trip_with_orbits(tmp_path):
    from orbitsiege.synth import build_constellation

    scenario = build_constellation(n_low=2, n_high=2, n_stations=3, slot_seconds=3600)
    path = str(tmp_path / "constellation.json")
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert again == scenario


def test_trace_csv_form(tmp_path):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(
        "unit_id,satellite_id,capture_iso8601,size_bytes\n"
        "arr-001,obs-1,2026-01-01T00:00:03Z,1\n"
        "arr-002,obs-1,2026-01-01T00:00:05Z,1\n",
        encoding="utf-8")
    obj = desk_dict()
    obj["trace"] = "trace.csv"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    scenario = load_scenario(str(path))
    assert [u.capture_slot for u in scenario.trace] == [3, 5]

    trace_path.write_text("unit,sat\nx,y\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected header"):
        load_scenario(str(path))


def test_replace_keeps_validation_separate():
    """dataclasses.replace skips scenario-level checks; loaders are the gate."""
    scenario = load_bundled("s0")
    broken = replace(scenario, target=replace(scenario.target,
                                              target_unit_ids=("init-003",)))
    assert isinstance(broken, ConstellationScenario)
