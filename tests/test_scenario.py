"""Scenario schema: parsing, validation, accessors, round trips."""

import copy
import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
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


def bundled_dict(name):
    """A bundled scenario as parsed JSON."""
    with open(bundled_path(name), encoding="utf-8") as fh:
        return json.load(fh)


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
    # the ladder holds required_high in an int64 column
    AttackabilityRecord(0, True, False, 2**63 - 1, float("inf"))
    AttackabilityRecord(0, False, False, -2**63, float("inf"))
    for required in (2**63, -2**63 - 1):
        with pytest.raises(ValidationError, match="required_high outside 64 bits"):
            AttackabilityRecord(0, True, False, required, float("inf"))
    with pytest.raises(ValidationError):
        DataUnit("u", "s", 0, 0)
    with pytest.raises(ValidationError):
        TargetSpec(satellite_id="s", target_unit_ids=(), attack_start_slot=0)
    with pytest.raises(ValidationError, match="duplicate"):
        TargetSpec(satellite_id="s", target_unit_ids=("a", "a"),
                   attack_start_slot=0)
    with pytest.raises(ValidationError):
        CostModel(unit_task_price=-1.0)


def test_data_unit_is_a_frozen_value():
    unit = DataUnit("u", "s", 3, 5)
    assert unit == DataUnit("u", "s", 3, 5) and hash(unit) == hash(DataUnit("u", "s", 3, 5))
    assert replace(unit, size_bytes=7) == DataUnit("u", "s", 3, 7) != unit
    with pytest.raises(ValidationError, match="unit u: size_bytes must be positive"):
        replace(unit, size_bytes=0)
    with pytest.raises(FrozenInstanceError):
        unit.size_bytes = 7


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


def test_integer_of_five_thousand_digits_is_refused(tmp_path):
    """Past int()'s digit limit, json raises a bare ValueError; it is refused
    as any other malformed scenario (or, where int() has no such limit, as
    a number that is not finite)."""
    with open(bundled_path("s0"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "scenario.json"
    path.write_text(text.replace('"seed": 0', '"seed": ' + "1" * 5000), encoding="utf-8")
    with pytest.raises((ParseError, ValidationError), match="digits|seed: must be finite"):
        load_scenario(str(path))


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


def test_round_trip_keeps_sub_second_and_early_epochs(tmp_path):
    """A fractional time or orbit epoch is saved with its microseconds, and
    a year before 1000 with four digits, and both load back equal; a
    whole-second one is saved as before, without microseconds."""
    obj = bundled_dict("constellation_24h")
    obj["time"]["epoch"] = "2026-03-20T00:00:00.500000Z"
    obj["satellites"][1]["orbit"]["epoch"] = "2026-03-19T23:59:59.25+00:00"
    obj["satellites"][2]["orbit"]["epoch"] = "0999-12-31T23:00:00Z"
    scenario = scenario_from_dict(obj)
    path = str(tmp_path / "scenario.json")
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert again == scenario
    saved = scenario_to_dict(again)
    assert saved["time"]["epoch"] == "2026-03-20T00:00:00.500000Z"
    assert saved["satellites"][1]["orbit"]["epoch"] == "2026-03-19T23:59:59.250000Z"
    assert saved["satellites"][2]["orbit"]["epoch"] == "0999-12-31T23:00:00Z"
    assert saved["satellites"][0]["orbit"]["epoch"] == "2026-03-20T00:00:00Z"
    # the grid names a timestamp outside it with its fraction too
    with pytest.raises(OutOfHorizon, match=re.escape("timestamp 2026-03-20T00:00:00.250000Z ")):
        again.time.slot_of(again.time.epoch - timedelta(seconds=0.25))


def test_bundled_scenario_saves_byte_for_byte(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(load_bundled("constellation_24h"), str(path))
    with open(bundled_path("constellation_24h"), "rb") as fh:
        assert path.read_bytes() == fh.read()


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


def load_with_csv_size(tmp_path, cell):
    """The desk scenario with a one-row trace CSV whose size cell, quoted,
    is cell."""
    (tmp_path / "trace.csv").write_text(
        "unit_id,satellite_id,capture_iso8601,size_bytes\n"
        f'arr-001,obs-1,2026-01-01T00:00:03Z,"{cell}"\n', encoding="utf-8")
    obj = desk_dict()
    obj["trace"] = "trace.csv"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return load_scenario(str(path))


@pytest.mark.parametrize("cell", [" 7", "7 ", "+3", "1_000", "\u0663", "3.0", "1e3", "0x10",
                                  "", "-", "\u22121", "7\n", "1" * 5000],
                         ids=lambda cell: repr(cell[:8]))
def test_trace_csv_size_is_an_ascii_decimal_integer(tmp_path, cell):
    """A size cell is read in the grammar of JSON integers: padded, signed,
    underscored and non-ASCII digits are refused as not an integer."""
    message = f"{tmp_path / 'trace.csv'}:2: size_bytes is not an integer"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_with_csv_size(tmp_path, cell)


@pytest.mark.parametrize("cell", ["-1", "-0", "0"])
def test_trace_csv_size_must_be_positive(tmp_path, cell):
    with pytest.raises(ValidationError, match="unit arr-001: size_bytes must be positive"):
        load_with_csv_size(tmp_path, cell)


def test_replace_keeps_validation_separate():
    """dataclasses.replace skips scenario-level checks; loaders are the gate."""
    scenario = load_bundled("s0")
    broken = replace(scenario, target=replace(scenario.target,
                                              target_unit_ids=("init-003",)))
    assert isinstance(broken, ConstellationScenario)


# ---------------------------------------------------------------------------
# The one-pass parser against the helper-per-field reference parser


def orbital_dict():
    """The bundled 24 h scenario cut down to two low-priority satellites and a
    high-priority one, two stations, and a trace of three units on the
    target and one on the other low-priority satellite."""
    doc = bundled_dict("constellation_24h")
    doc["satellites"] = [doc["satellites"][i] for i in (0, 1, 4)]
    doc["stations"] = doc["stations"][:2]
    doc["trace"] = doc["trace"][:3] + [dict(doc["trace"][0], unit_id="other-1",
                                            satellite_id=doc["satellites"][1]["id"],
                                            capture_slot=2)]
    return doc


CROSS_CHECKED = {"desk": desk_dict(), "orbital": orbital_dict(),
                 "constellation_24h": bundled_dict("constellation_24h")}


def every_field(node, path=()):
    """The key and index paths of every field below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from every_field(child, (*path, key))


CROSS_CHECKED_FIELDS = {name: list(every_field(doc)) for name, doc in CROSS_CHECKED.items()}
REMOVED = object()  # the key or list member is taken out
# wrong types, integral and fractional floats, numbers at and past the edge
# of a float, zero, negative and non-finite numbers
FIELD_VALUES = [REMOVED, True, False, 3.0, 3.5, "7", None, 2**1023, -2**1023, 2**1024,
                0, -1, math.inf, math.nan, [], {}]


def iso_row(doc, row, offset):
    """A capture_slot row turned into a capture_iso8601 row, offset seconds
    past its slot's start."""
    time = CROSS_CHECKED[doc]["time"]
    epoch = datetime.fromisoformat(time["epoch"].replace("Z", "+00:00"))
    seconds = row["capture_slot"] * time["slot_seconds"] + offset
    row = {k: v for k, v in row.items() if k != "capture_slot"}
    row["capture_iso8601"] = (epoch + timedelta(seconds=seconds)).isoformat()
    return row


def added_unit(doc, satellite, unit_id, slot):
    """A trace row after the trace's last: on the first row's satellite or
    an unknown one, with a fresh id or the first row's, at the horizon's
    last slot, an earlier one than the first row's, past the horizon or
    before slot 0."""
    first = CROSS_CHECKED[doc]["trace"][0]
    horizon = CROSS_CHECKED[doc]["time"]["horizon_slots"]
    return {
        "unit_id": {"fresh": "added-1", "duplicate": first["unit_id"]}[unit_id],
        "satellite_id": {"known": first["satellite_id"], "unknown": "ghost"}[satellite],
        "capture_slot": {"last": horizon - 1, "regress": first["capture_slot"] - 1,
                         "past": horizon, "negative": -1}[slot],
        "size_bytes": 1,
    }


UNIT_EDITS = [(s, u, t) for s in ("known", "unknown") for u in ("fresh", "duplicate")
              for t in ("last", "regress", "past", "negative")]


def edited(doc, edits):
    """The cross-checked document with each edit applied in turn; an edit
    whose place an earlier edit took away is skipped.

    ("field", path, value) removes or replaces one field, ("iso", i, offset)
    turns trace row i into a capture_iso8601 row, ("unit", how) appends
    an added_unit row, ("queue", i, form, n, size) gives satellite i an
    initial queue of n units of that size as a count or a list, and
    ("target", i, start) targets trace row i's unit (or, if i is negative,
    initial unit -i) from slot start.
    """
    obj = copy.deepcopy(CROSS_CHECKED[doc])
    for kind, *args in edits:
        try:
            if kind == "field":
                path, value = args
                node = obj
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]]
                if value is REMOVED:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
            elif kind == "iso":
                i, offset = args
                obj["trace"][i] = iso_row(doc, CROSS_CHECKED[doc]["trace"][i], offset)
            elif kind == "unit":
                obj["trace"].append(added_unit(doc, *args[0]))
            elif kind == "queue":
                i, form, n, size = args
                obj["satellites"][i]["initial_queue"] = (
                    {"count": n, "unit_size_bytes": size} if form == "count"
                    else {"unit_sizes": [size] * n})
            else:
                i, start = args
                uid = f"init-{-i:03d}" if i < 0 else CROSS_CHECKED[doc]["trace"][i]["unit_id"]
                obj["target"].update(target_unit_ids=[uid], attack_start_slot=start)
        except (KeyError, IndexError, TypeError, AttributeError):
            continue
    return obj


def parsed(parse, obj):
    """The scenario's repr, which tells 3 from 3.0, or the error's class and
    message."""
    try:
        return repr(parse(obj))
    except Exception as exc:  # noqa: BLE001 -- any error must match the reference's
        return type(exc), str(exc)


def assert_parsers_agree(obj):
    assert parsed(scenario_from_dict, obj) == parsed(oracles.reference_scenario_from_dict, obj)


@pytest.mark.parametrize("doc,path", [(doc, path) for doc in ("desk", "orbital")
                                      for path in CROSS_CHECKED_FIELDS[doc]], ids=repr)
def test_each_field_edit_parses_as_the_reference_does(doc, path):
    """Every field of the desk and orbital scenarios, removed or replaced by
    each value in turn, gives the reference parser's scenario or its error."""
    for value in FIELD_VALUES:
        assert_parsers_agree(edited(doc, [("field", path, value)]))


@pytest.mark.parametrize("doc", sorted(CROSS_CHECKED))
@pytest.mark.parametrize("unit", UNIT_EDITS, ids="-".join)
def test_each_added_unit_is_refused_as_the_reference_refuses_it(doc, unit):
    """A unit on an unknown satellite, with a duplicate id, a regressing or
    out-of-horizon slot, in every combination: the first failed check in
    the reference's order names the error."""
    assert_parsers_agree(edited(doc, [("unit", unit)]))


def doc_edits(doc):
    trace = CROSS_CHECKED[doc]["trace"]
    time = CROSS_CHECKED[doc]["time"]
    rows = st.integers(0, len(trace) - 1)
    return st.one_of(
        st.tuples(st.just("field"), st.sampled_from(CROSS_CHECKED_FIELDS[doc]),
                  st.sampled_from(FIELD_VALUES)),
        st.tuples(st.just("iso"), rows,
                  st.sampled_from([0, 0.5, time["slot_seconds"] - 1, time["slot_seconds"], -1,
                                   -time["slot_seconds"] * 10**6])),
        st.tuples(st.just("unit"), st.sampled_from(UNIT_EDITS)),
        st.tuples(st.just("queue"), st.integers(0, len(CROSS_CHECKED[doc]["satellites"]) - 1),
                  st.sampled_from(["count", "unit_sizes"]), st.sampled_from([0, 1, 30]),
                  st.sampled_from([1, 0, -1, True, 3.0, 3.5, 2**1023, 2**1024])),
        st.tuples(st.just("target"), st.one_of(rows, st.sampled_from([-1, -3, -30])),
                  st.sampled_from([0, 1, 2, 3, time["horizon_slots"] - 1])),
    )


@st.composite
def edited_docs(draw):
    doc = draw(st.sampled_from(sorted(CROSS_CHECKED)))
    return doc, draw(st.lists(doc_edits(doc), min_size=1, max_size=3))


@settings(max_examples=400, deadline=None)
@given(case=edited_docs())
@example(case=("constellation_24h", [("field", ("trace", 40, "capture_slot"), True)]))
@example(case=("constellation_24h", [("unit", ("unknown", "fresh", "past"))]))
@example(case=("constellation_24h", [("iso", 3, 0.5), ("field", ("trace", 3, "size_bytes"), 0)]))
@example(case=("orbital", [("target", 2, 0)]))
@example(case=("orbital", [("target", 1, 3)]))
@example(case=("orbital", [("target", 3, 0)]))
def test_edited_scenarios_parse_as_the_reference_does(case):
    """Random edits of the desk, orbital and bundled 24 h scenarios: the
    one-pass parser returns the reference parser's scenario, or raises its
    error class with its message."""
    assert_parsers_agree(edited(*case))
