"""Two-body propagation and contact-window derivation, storage and loading."""

import functools
import math
import os
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RowError, load_window_rows, scan_contact_slots
from orbitsiege import (
    ConstellationScenario,
    ContactWindows,
    CostModel,
    DataUnit,
    GroundStationSpec,
    OrbitSiegeError,
    ParseError,
    SatelliteSpec,
    StaleElements,
    TargetSpec,
    TimeGrid,
    TleElements,
    ValidationError,
    compute_contact_windows,
    load_contact_windows,
    load_scenario,
    propagate,
    save_contact_windows,
)
from orbitsiege import orbit
from orbitsiege.orbit import EARTH_RADIUS_M, J2000, semi_major_axis_m, windows_csv_text
from orbitsiege.output import csv_text, fmt_cell, fmt_floats

EPOCH = datetime(2026, 3, 20, tzinfo=timezone.utc)


def random_elements(rng):
    # mean motion range keeps the radius inside the accepted LEO band
    return TleElements(
        inclination_deg=float(rng.uniform(0.0, 180.0)),
        raan_deg=float(rng.uniform(0.0, 360.0)),
        eccentricity=0.0,
        arg_perigee_deg=float(rng.uniform(0.0, 360.0)),
        mean_anomaly_deg=float(rng.uniform(0.0, 360.0)),
        mean_motion_rev_per_day=float(rng.uniform(11.5, 16.3)),
        epoch=EPOCH,
    )


def test_semi_major_axis_matches_kepler():
    elements = random_elements(np.random.default_rng(0))
    a = semi_major_axis_m(elements)
    n = elements.mean_motion_rev_per_day * 2 * math.pi / 86400.0
    assert n * n * a ** 3 == pytest.approx(3.986004418e14, rel=1e-12)


def position_at(elements, at):
    """ECEF position at one instant: a one-slot grid whose midpoint is `at`."""
    grid = TimeGrid(epoch=at - timedelta(seconds=30), slot_seconds=60, horizon_slots=1)
    return propagate(elements, grid)[0]


def undo_earth_rotation(position, seconds):
    """Rotate an ECEF position back by the sidereal angle swept in `seconds`."""
    theta = math.radians(360.98564736629 * seconds / 86400.0)
    x, y, z = position
    return np.array([x * math.cos(theta) - y * math.sin(theta),
                     x * math.sin(theta) + y * math.cos(theta), z])


def test_inertial_position_is_periodic():
    rng = np.random.default_rng(42)
    for _ in range(20):
        elements = random_elements(rng)
        later = EPOCH + timedelta(seconds=86400.0 / elements.mean_motion_rev_per_day)
        p0 = position_at(elements, EPOCH)
        p1 = undo_earth_rotation(position_at(elements, later),
                                 (later - EPOCH).total_seconds())
        assert np.linalg.norm(p1 - p0) < 1.0


def test_earth_fixed_rotates_under_the_orbit():
    """After one orbit the ECEF point moves by the Earth's rotation alone."""
    elements = random_elements(np.random.default_rng(7))
    period_s = 86400.0 / elements.mean_motion_rev_per_day
    s0 = position_at(elements, EPOCH)
    s1 = position_at(elements, EPOCH + timedelta(seconds=period_s))
    assert np.linalg.norm(s0) == pytest.approx(np.linalg.norm(s1), rel=1e-12)
    lon0, lon1 = (math.degrees(math.atan2(p[1], p[0])) for p in (s0, s1))
    lon_shift = (lon1 - lon0) % -360.0
    expected = -(360.98564736629 * period_s / 86400.0) % -360.0
    assert lon_shift == pytest.approx(expected, abs=1e-6)


def test_gmst_reference_value():
    # an equatorial orbit at u = 0 sits on the inertial x axis, so its ECEF
    # longitude is minus the sidereal angle; 15 whole revolutions later the
    # orbit is back there and the angle has grown by one sidereal-rate day
    elements = TleElements(inclination_deg=0.0, raan_deg=0.0, eccentricity=0.0,
                           arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                           mean_motion_rev_per_day=15.0, epoch=J2000)
    grid = TimeGrid(epoch=J2000 - timedelta(seconds=30), slot_seconds=60,
                    horizon_slots=1441)
    pos = propagate(elements, grid)
    for slot, theta in ((0, 280.46061837), (1440, 280.46061837 + 360.98564736629)):
        lon = math.degrees(math.atan2(pos[slot, 1], pos[slot, 0]))
        assert (lon + theta + 180.0) % 360.0 - 180.0 == pytest.approx(0.0, abs=1e-6)


def test_stale_elements_rejected():
    elements = random_elements(np.random.default_rng(1))
    # the first midpoint is fresh; the grid ends 32 days after epoch
    month = TimeGrid(epoch=EPOCH, slot_seconds=3600, horizon_slots=32 * 24)
    with pytest.raises(StaleElements):
        propagate(elements, month)
    # within the window both directions are fine
    position_at(elements, EPOCH - timedelta(days=30))


def test_leo_band_enforced():
    deep = TleElements(inclination_deg=0.0, raan_deg=0.0, eccentricity=0.0,
                       arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                       mean_motion_rev_per_day=2.0, epoch=EPOCH)
    with pytest.raises(ValidationError, match="LEO band"):
        position_at(deep, EPOCH)
    station = random_station(np.random.default_rng(2), 1)
    with pytest.raises(ValidationError, match="obs-1: orbit radius outside the LEO band"):
        compute_contact_windows(windows_scenario([deep], [station]))


def test_elevation_at_zenith_and_horizon():
    equatorial = TleElements(inclination_deg=0.0, raan_deg=0.0, eccentricity=0.0,
                             arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                             mean_motion_rev_per_day=15.0, epoch=EPOCH)
    scenario = windows_scenario([equatorial], [], horizon=2, slot_seconds=60)
    x, y, _ = propagate(equatorial, scenario.time)[0]
    below = math.degrees(math.atan2(y, x))

    def station(i, longitude_deg):
        return GroundStationSpec(id=f"gs-{i}", latitude_deg=0.0,
                                 longitude_deg=longitude_deg, altitude_m=0.0,
                                 antenna_count=1, min_elevation_deg=0.0)

    # one station right under the satellite, one 10 degrees of arc along the
    # equator, where the elevation follows from the triangle Earth centre,
    # station, satellite
    stations = [station(1, below), station(2, below + 10.0)]
    windows = compute_contact_windows(replace(scenario, stations=tuple(stations)))
    elevation = {st: e for slot, _, st, e in windows.rows() if slot == 0}
    assert elevation["gs-1"] == pytest.approx(90.0, abs=1e-5)
    ratio = EARTH_RADIUS_M / math.hypot(x, y)
    gamma = math.radians(10.0)
    expected = math.degrees(math.atan2(math.cos(gamma) - ratio, math.sin(gamma)))
    assert elevation["gs-2"] == pytest.approx(expected, abs=1e-9)
    assert 0.0 < elevation["gs-2"] < 45.0


def windows_scenario(satellites, stations, horizon=288, slot_seconds=300):
    sat_specs = tuple(
        SatelliteSpec(id=f"obs-{i + 1}", priority="low", orbit=el,
                      capacity_bytes=10, downlink_rate_bps=16)
        for i, el in enumerate(satellites))
    return ConstellationScenario(
        time=TimeGrid(epoch=EPOCH, slot_seconds=slot_seconds,
                      horizon_slots=horizon),
        satellites=sat_specs,
        stations=tuple(stations),
        trace=(DataUnit("u-001", "obs-1", 1, 1),),
        target=TargetSpec(satellite_id="obs-1", target_unit_ids=("u-001",),
                          attack_start_slot=0),
        costs=CostModel(),
        seed=0,
    )


def random_station(rng, i):
    return GroundStationSpec(
        id=f"gs-{i:02d}",
        latitude_deg=float(rng.uniform(-70.0, 70.0)),
        longitude_deg=float(rng.uniform(-180.0, 180.0)),
        altitude_m=float(rng.uniform(0.0, 2000.0)),
        antenna_count=1,
        min_elevation_deg=float(rng.uniform(0.0, 15.0)),
    )


def test_windows_match_scalar_scan():
    """Vectorized midpoint scan equals the slot-by-slot scalar scan."""
    rng = np.random.default_rng(3)
    epoch_to_j2000 = (EPOCH - J2000).total_seconds()
    for _ in range(4):
        elements = random_elements(rng)
        station = random_station(rng, 1)
        scenario = windows_scenario([elements], [station])
        windows = compute_contact_windows(scenario)
        expected = scan_contact_slots(
            elements.inclination_deg, elements.raan_deg,
            elements.arg_perigee_deg, elements.mean_anomaly_deg,
            elements.mean_motion_rev_per_day, epoch_to_j2000,
            station.latitude_deg, station.longitude_deg, station.altitude_m,
            300, 288, station.min_elevation_deg)
        assert set(windows.slot.tolist()) == set(expected)
        for slot, _, _, elevation in windows.rows():
            assert elevation == pytest.approx(expected[slot], abs=1e-6)


def test_windows_sorted_and_thresholded():
    rng = np.random.default_rng(9)
    sats = [random_elements(rng) for _ in range(3)]
    stations = [random_station(rng, i) for i in range(3)]
    scenario = windows_scenario(sats, stations)
    windows = compute_contact_windows(scenario)
    assert len(windows), "random day produced no contacts at all"
    keys = [row[:3] for row in windows.rows()]
    assert keys == sorted(keys)
    threshold = {st.id: st.min_elevation_deg for st in stations}
    assert all(e >= threshold[st] for _, _, st, e in windows.rows())


def test_raising_threshold_only_removes_slots():
    rng = np.random.default_rng(11)
    elements = random_elements(rng)
    low = random_station(rng, 1)
    lifted = GroundStationSpec(
        id=low.id, latitude_deg=low.latitude_deg,
        longitude_deg=low.longitude_deg, altitude_m=low.altitude_m,
        antenna_count=1, min_elevation_deg=low.min_elevation_deg + 10.0)
    loose = compute_contact_windows(windows_scenario([elements], [low]))
    strict = compute_contact_windows(windows_scenario([elements], [lifted]))
    assert set(strict.slot.tolist()) <= set(loose.slot.tolist())


def test_windows_need_orbits():
    scenario = windows_scenario([random_elements(np.random.default_rng(5))],
                                [random_station(np.random.default_rng(5), 1)])
    satellites = (
        SatelliteSpec(id="obs-1", priority="low", orbit=None,
                      capacity_bytes=10, downlink_rate_bps=16),)
    bare = replace(scenario, satellites=satellites)
    with pytest.raises(ValidationError, match="orbit elements required"):
        compute_contact_windows(bare)
    assert len(compute_contact_windows(replace(scenario, stations=()))) == 0


def test_window_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    scenario = windows_scenario([random_elements(rng) for _ in range(3)],
                                [random_station(rng, i) for i in range(3)])
    windows = compute_contact_windows(scenario)
    assert len(windows), "the world must have contacts to round-trip"
    path = tmp_path / "windows.csv"
    save_contact_windows(str(path), windows)
    again = load_contact_windows(str(path), scenario)
    assert len(again) == len(windows)
    for a, b in zip(again.rows(), windows.rows()):
        assert a[:3] == b[:3]
        # the file holds six significant digits
        assert a[3] == float(format(b[3], ".6g"))
    second = tmp_path / "again.csv"
    save_contact_windows(str(second), again)
    assert second.read_bytes() == path.read_bytes()


def test_fmt_floats_is_fmt_cell():
    rng = np.random.default_rng(19)
    values = np.concatenate([
        rng.uniform(-90.0, 90.0, 200), np.round(rng.uniform(-90.0, 90.0, 50)),
        [0.0, -0.0, 90.0, 1e-7, 123456.5, 1e15 - 1.0, 1e15, -1e16, 2.5e20,
         math.inf, -math.inf]])
    assert fmt_floats(values) == [fmt_cell(v) for v in values.tolist()]


def test_windows_csv_text_is_csv_text():
    # ids that csv.writer must quote, and more rows than one chunk
    windows = ContactWindows.sorted(
        ["obs,1", 'rush "2"', "plain"], ["gs-01", "gs\n02"],
        [3, 1, 2, 1, 0] * 3, [0, 1, 2, 0, 1] * 3, [1, 0, 1, 1, 0] * 3,
        [45.0, 12.345678, -0.0, 90.0, 7.25] * 3)
    with mock.patch.object(orbit, "CHUNK_ROWS", 4):
        text = windows_csv_text(windows)
    assert text == csv_text(orbit.WINDOW_HEADER, windows.rows())


def test_window_load_validates(tmp_path):
    scenario = windows_scenario(
        [random_elements(np.random.default_rng(17))],
        [random_station(np.random.default_rng(17), 1)])
    path = tmp_path / "windows.csv"

    path.write_text("slot,satellite_id,station_id,elevation_deg\n"
                    "1,ghost,gs-01,45.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown satellite"):
        load_contact_windows(str(path), scenario)

    path.write_text("slot,satellite_id,station_id,elevation_deg\n"
                    "1,obs-1,gs-01,-3.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="below station threshold"):
        load_contact_windows(str(path), scenario)

    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected header"):
        load_contact_windows(str(path), scenario)


@pytest.mark.parametrize("row, error, message", [
    ("x,obs-1,gs-01,45.0", ParseError, "not a number"),
    ("1.5,obs-1,gs-01,45.0", ParseError, "not a number"),
    ("1,obs-1,gs-01,high", ParseError, "not a number"),
    ("1,obs-1,gs-01,nan", ParseError, "not finite"),
    ("1,obs-1,gs-01,inf", ParseError, "not finite"),
    ("1,obs-1,gs-01,400", ValidationError, "above 90"),
])
def test_window_load_rejects_bad_numbers(tmp_path, row, error, message):
    scenario = windows_scenario(
        [random_elements(np.random.default_rng(17))],
        [random_station(np.random.default_rng(17), 1)])
    path = tmp_path / "windows.csv"
    path.write_text(f"slot,satellite_id,station_id,elevation_deg\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(error, match=message):
        load_contact_windows(str(path), scenario)


def test_window_load_names_a_json_file(tmp_path):
    rng = np.random.default_rng(13)
    scenario = windows_scenario([random_elements(rng) for _ in range(3)],
                                [random_station(rng, i) for i in range(3)])
    path = tmp_path / "windows.json"
    save_contact_windows(str(path), compute_contact_windows(scenario), "json")
    with pytest.raises(ParseError, match="--windows reads only the CSV form"):
        load_contact_windows(str(path), scenario)


@functools.cache
def bundled_windows():
    """The bundled 24 h scenario and its window file as header and row lines."""
    scenario = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir,
                                          "scenarios", "constellation_24h.json"))
    lines = windows_csv_text(compute_contact_windows(scenario)).splitlines()
    return scenario, lines[0], tuple(lines[1:])


def cell_values(scenario):
    """Per column, cells that break one check or pass in an unusual form."""
    last = scenario.time.last_slot
    threshold = scenario.stations[0].min_elevation_deg
    return (
        ["x", "1.5", "", " 7", "+3", "-1", str(last), str(last + 1), "1_0", "\u0663",
         "1e3", "99999999999999999999999"],
        ["ghost", "", " obs-1", scenario.satellites[0].id, scenario.satellites[-1].id],
        ["gs-99", "", scenario.stations[0].id, scenario.stations[-1].id],
        ["nan", "inf", "-inf", "1e400", "95", "90", "90.0000001", "0", "high", "",
         " 45 ", "4_5.5", repr(threshold - 0.5), repr(threshold), "45"],
    )


@st.composite
def mutated_window_files(draw):
    scenario, header, rows = bundled_windows()
    rows = list(rows)
    values = cell_values(scenario)
    edits = ["cell"] * 4 + ["row"] * 2 + ["short", "long", "blank", "quote", "duplicate"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        cells = rows[i].split(",")
        if edit == "cell":
            column = draw(st.integers(0, min(len(cells), 4) - 1))
            cells[column] = draw(st.sampled_from(values[column]))
            rows[i] = ",".join(cells)
        elif edit == "row":
            rows[i] = ",".join(draw(st.sampled_from(pool)) for pool in values)
        elif edit == "short":
            rows[i] = ",".join(cells[:3])
        elif edit == "long":
            rows[i] = ",".join(cells + ["x"])
        elif edit == "blank":
            rows.insert(i, "")
        elif edit == "quote":
            column = draw(st.integers(0, len(cells) - 1))
            cells[column] = '"' + draw(st.sampled_from([cells[column], "a,b"])) + '"'
            rows[i] = ",".join(cells)
        else:
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        rng.shuffle(rows)
    endings = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]]))
    text = "".join(line + rng.choice(endings) for line in [header, *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def assert_loaders_agree(path, text, chunk_rows=orbit.CHUNK_ROWS):
    """The loader, reading `chunk_rows` rows at a time, and the row-by-row
    reference give the same windows, or the same error type and message,
    on this file text."""
    scenario, _, _ = bundled_windows()
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = ("windows", load_window_rows(
            str(path), {s.id for s in scenario.satellites},
            {st.id: st.min_elevation_deg for st in scenario.stations},
            scenario.time.last_slot))
    except RowError as exc:
        expected = (exc.kind, str(exc))
    try:
        with mock.patch.object(orbit, "CHUNK_ROWS", chunk_rows):
            got = ("windows", load_contact_windows(str(path), scenario).rows())
    except OrbitSiegeError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(text=mutated_window_files(), chunk_rows=st.sampled_from([7, 1000, orbit.CHUNK_ROWS]))
def test_window_loader_matches_row_by_row_reference(tmp_path_factory, text, chunk_rows):
    """Bad cells, short, long, blank, quoted, duplicate and shuffled rows,
    CR, LF and CRLF line ends, with and without a final newline, read in
    chunks of several sizes."""
    assert_loaders_agree(tmp_path_factory.mktemp("windows") / "windows.csv", text,
                         chunk_rows)


@pytest.mark.parametrize("column, value", [
    (0, "0"), (0, "last"), (0, "past"), (3, "90"), (3, "90.0"), (3, "threshold"),
    (3, "below"), (3, "-0.0"),
])
def test_window_loader_matches_reference_at_the_bounds(tmp_path, column, value):
    scenario, header, rows = bundled_windows()
    cells = rows[7].split(",")
    threshold = next(st.min_elevation_deg for st in scenario.stations if st.id == cells[2])
    cells[column] = {
        "last": str(scenario.time.last_slot),
        "past": str(scenario.time.last_slot + 1),
        "threshold": repr(threshold),
        "below": repr(threshold - 1e-9),
    }.get(value, value)
    text = "\n".join([header, *rows[:7], ",".join(cells), *rows[8:]]) + "\n"
    assert_loaders_agree(tmp_path / "windows.csv", text)
