"""Two-body propagation and contact-window derivation, storage and loading."""

import functools
import math
import os
import random
import re
import struct
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RowError, dense_contact_windows, load_window_rows, scan_contact_slots
from orbitsiege import (
    ContactWindows,
    OrbitSiegeError,
    ParseError,
    StaleElements,
    ValidationError,
    attackability_for,
    compute_contact_windows,
    load_contact_windows,
    load_scenario,
)
from orbitsiege import orbit
from orbitsiege.orbit import (EARTH_RADIUS_M, J2000, LEO_RADIUS_MAX_M, LEO_RADIUS_MIN_M,
                              MU_EARTH_M3_S2, propagate, save_contact_windows,
                              semi_major_axis_m, windows_csv_text)
from orbitsiege.scenario import (STATION_ALTITUDE_RANGE_M, ConstellationScenario,
                                 CostModel, DataUnit, GroundStationSpec, SatelliteSpec, TargetSpec,
                                 TimeGrid, TleElements)
from orbitsiege.output import csv_text, fmt_cell, float_words, unfilled

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


def satellite(elements):
    """A low-priority satellite on these elements, as `propagate` takes it."""
    return SatelliteSpec(id="obs-1", priority="low", orbit=elements, capacity_bytes=10,
                         downlink_rate_bps=16)


def position_at(elements, at):
    """ECEF position at one instant: a one-slot grid whose midpoint is `at`."""
    grid = TimeGrid(epoch=at - timedelta(seconds=30), slot_seconds=60, horizon_slots=1)
    return propagate(satellite(elements), grid)[0]


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
    pos = propagate(satellite(elements), grid)
    for slot, theta in ((0, 280.46061837), (1440, 280.46061837 + 360.98564736629)):
        lon = math.degrees(math.atan2(pos[slot, 1], pos[slot, 0]))
        assert (lon + theta + 180.0) % 360.0 - 180.0 == pytest.approx(0.0, abs=1e-6)


def test_propagate_at_some_slots_is_the_track_there():
    rng = np.random.default_rng(3)
    grid = TimeGrid(epoch=EPOCH, slot_seconds=60, horizon_slots=1440)
    sat = satellite(random_elements(rng))
    slots = np.unique(rng.integers(0, grid.horizon_slots, 300))
    track = propagate(sat, grid)
    assert track.shape == (grid.horizon_slots, 3)
    assert propagate(sat, grid, slots).tobytes() == track[slots].tobytes()


def test_stale_elements_rejected():
    elements = random_elements(np.random.default_rng(1))
    # the first midpoint is fresh; the grid ends 32 days after epoch
    month = TimeGrid(epoch=EPOCH, slot_seconds=3600, horizon_slots=32 * 24)
    with pytest.raises(StaleElements, match="satellite obs-1: elements are 32.0 days"):
        propagate(satellite(elements), month)
    # within the window both directions are fine
    position_at(elements, EPOCH - timedelta(days=30))


def test_leo_band_enforced():
    deep = TleElements(inclination_deg=0.0, raan_deg=0.0, eccentricity=0.0,
                       arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                       mean_motion_rev_per_day=2.0, epoch=EPOCH)
    runaway = replace(deep, mean_motion_rev_per_day=1e308)
    for elements in (deep, runaway):
        with pytest.raises(ValidationError, match="LEO band"):
            position_at(elements, EPOCH)
    station = random_station(np.random.default_rng(2), 1)
    scenario = windows_scenario([deep], [station])
    with pytest.raises(ValidationError, match="obs-1: orbit radius outside the LEO band"):
        compute_contact_windows(scenario)
    # windows read from a file skip that computation, but the schedule still
    # propagates the satellites it costs, and names the one at fault
    hand_written = ContactWindows.sorted(["obs-1"], [station.id], [0], [0], [0], [45.0])
    with pytest.raises(ValidationError, match="obs-1: orbit radius outside the LEO band"):
        attackability_for(scenario, hand_written)


def test_elevation_at_zenith_and_horizon():
    equatorial = TleElements(inclination_deg=0.0, raan_deg=0.0, eccentricity=0.0,
                             arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                             mean_motion_rev_per_day=15.0, epoch=EPOCH)
    scenario = windows_scenario([equatorial], [], horizon=2, slot_seconds=60)
    x, y, _ = propagate(satellite(equatorial), scenario.time)[0]
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


def mean_motion_at(radius_m):
    """The mean motion in rev/day of a circular orbit of this radius."""
    return math.sqrt(MU_EARTH_M3_S2 / radius_m ** 3) * 86400.0 / (2.0 * math.pi)


@st.composite
def culled_worlds(draw):
    """Small worlds whose pairs sit near the cull's edges: stations at the
    altitude bounds, at the poles and on the equator, thresholds of 0, and
    orbits just inside either edge of the LEO band. Satellites and stations
    are listed out of id order (gs-10 sorts before gs-9)."""
    angle = st.floats(0.0, 360.0)
    radius = st.one_of(st.sampled_from([LEO_RADIUS_MIN_M + 1.0, LEO_RADIUS_MAX_M - 1.0]),
                       st.floats(LEO_RADIUS_MIN_M + 1.0, LEO_RADIUS_MAX_M - 1.0))
    satellites = [TleElements(
        inclination_deg=draw(st.floats(0.0, 180.0)), raan_deg=draw(angle), eccentricity=0.0,
        arg_perigee_deg=draw(angle), mean_anomaly_deg=draw(angle),
        mean_motion_rev_per_day=mean_motion_at(draw(radius)), epoch=EPOCH)
        for _ in range(draw(st.integers(1, 3)))]
    satellite_ids = draw(st.permutations(["obs-1", "obs-10", "obs-9"]))
    station_ids = draw(st.permutations(["gs-9", "gs-10", "gs-1", "gs-100"]))
    stations = [GroundStationSpec(
        id=station_ids[i],
        latitude_deg=draw(st.one_of(st.sampled_from([-90.0, 0.0, 90.0]),
                                    st.floats(-90.0, 90.0))),
        longitude_deg=draw(st.floats(-180.0, 180.0)),
        altitude_m=draw(st.one_of(st.sampled_from(STATION_ALTITUDE_RANGE_M),
                                  st.floats(*STATION_ALTITUDE_RANGE_M))),
        antenna_count=1,
        min_elevation_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0))))
        for i in range(draw(st.integers(1, 4)))]
    scenario = windows_scenario(satellites, stations, horizon=draw(st.integers(1, 200)),
                                slot_seconds=draw(st.sampled_from([20, 60, 300])))
    return replace(scenario, satellites=tuple(
        replace(sat, id=sid) for sat, sid in zip(scenario.satellites, satellite_ids)))


@settings(max_examples=150, deadline=None)
@given(scenario=culled_worlds())
def test_culled_windows_equal_the_dense_grid(scenario):
    """The horizon cull drops no window and changes no bit of an elevation,
    and the rows come out in slot, satellite id and station id order."""
    windows = compute_contact_windows(scenario)
    slot, satellite, station, elevation = dense_contact_windows(scenario)
    assert np.array_equal(windows.slot, slot)
    assert np.array_equal(windows.satellite, satellite)
    assert np.array_equal(windows.station, station)
    assert np.array_equal(windows.elevation_deg.view(np.int64), elevation.view(np.int64))


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


def float_cells(values):
    """`float_words` of floats, each row's bytes without fill as text, and
    the mask of the cells `fmt_cell` rendered alone."""
    words, alone = float_words(np.asarray(values, dtype=float))
    return [unfilled(row).decode("ascii") for row in words], alone.tolist()


def test_float_words_is_fmt_cell():
    rng = np.random.default_rng(19)
    values = np.concatenate([
        rng.uniform(-90.0, 90.0, 200), np.round(rng.uniform(-90.0, 90.0, 50)),
        [0.0, -0.0, 90.0, 1e-7, 123456.5, 1e15 - 1.0, 1e15, -1e16, 2.5e20,
         math.inf, -math.inf]])
    cells, alone = float_cells(values)
    assert cells == [fmt_cell(v) for v in values.tolist()]
    assert any(alone) and not all(alone)


def ulps_away(x, steps):
    """The float `steps` representable values above x (below, if negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


ULPS = st.integers(-3, 3)
# the grammar's edges: a 7th significant digit of 5 (a tie of the 6-digit
# rounding) at every fixed-point exponent and either side, among them the
# decade carries 9.999995 and 99.99995; powers of ten, 1e-4 among them;
# each a few ulps either way
TIES = st.builds(lambda digits, exponent, steps: ulps_away(float(f"{digits}5e{exponent}"), steps),
                 st.one_of(st.integers(10 ** 5, 10 ** 6 - 1), st.sampled_from([99999, 999999])),
                 st.integers(-11, 0), ULPS)
POWERS = st.builds(lambda exponent, steps: ulps_away(10.0 ** exponent, steps),
                   st.integers(-8, 16), ULPS)
# values whose 6-digit rounding carries into the next decade
CARRIES = st.builds(lambda exponent, short: 10.0 ** exponent * (1.0 - short),
                    st.integers(-5, 7), st.floats(0.0, 5e-7))
EDGE_FLOATS = st.one_of(
    TIES, POWERS, CARRIES,
    st.integers(-10 ** 16, 10 ** 16).map(float),  # integral values
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                     9.999995, 99.99995, 0.0999999995, 999999.9, 1e-4, 1e15, 1e6]),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
    st.floats(1e15, 1.7e308),
    st.floats(-90.0, 90.0),
    st.floats(allow_nan=False),
)


def test_float_words_equal_fmt_cell_at_the_grammar_edges():
    """`float_words` renders each float as `fmt_cell` does, at the edges of
    its grammar, on either sign; a cell it renders in numpy lies in the
    grammar, and some cells take the per-cell path."""
    alone_seen = []

    @settings(max_examples=600, deadline=None)
    @given(values=st.lists(st.builds(math.copysign, EDGE_FLOATS, st.sampled_from([1.0, -1.0])),
                           min_size=1, max_size=8))
    def check(values):
        cells, alone = float_cells(values)
        assert cells == [fmt_cell(v) for v in values]
        for value, cell, by_cell in zip(values, cells, alone):
            if not by_cell:
                assert 1e-4 <= abs(value) < 1e6
                assert re.fullmatch(r"-?[0-9]+(\.[0-9]*[1-9])?", cell)
        alone_seen.extend(alone)

    check()
    assert any(alone_seen) and not all(alone_seen)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2, 3), st.integers(0, 2), st.integers(0, 2),
                               st.sampled_from([0.0, 5.5, 45.0])), max_size=12),
       presort=st.sampled_from(["none", "slot", "index", "ids"]))
def test_sorted_orders_rows_by_slot_and_ids(rows, presort):
    """Rows already in order, in slot order only, in index order (which is
    not id order here) or in no order all come out stably sorted by
    (slot, satellite id, station id)."""
    satellite_ids, station_ids = ("obs-b", "obs-c", "obs-a"), ("gs-2", "gs-1", "gs-3")

    def ids(row):
        return row[0], satellite_ids[row[1]], station_ids[row[2]]

    key = {"none": None, "slot": lambda row: row[0], "index": lambda row: row[:3],
           "ids": ids}[presort]
    if key is not None:
        rows = sorted(rows, key=key)
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    windows = ContactWindows.sorted(satellite_ids, station_ids, *columns)
    expected = [(*ids(row), row[3]) for row in sorted(rows, key=ids)]
    assert windows.rows() == expected
    assert (windows.slot.dtype, windows.satellite.dtype, windows.station.dtype,
            windows.elevation_deg.dtype) == (np.int64, np.intp, np.intp, np.float64)


def test_windows_csv_text_is_csv_text():
    # plain and non-ASCII ids (no scenario id holds a character csv.writer
    # quotes), more rows than one chunk, a negative slot, the last slot a
    # grid may hold, and slots 0 and 1 repeated across chunk boundaries; the
    # rows reversed are out of slot order
    windows = ContactWindows.sorted(
        ["obs-1", "s\u00e4tellite 2", "plain"], ["gs-01", "esta\u00e7\u00e3o"],
        [3, 1, 2, 1, 0] * 3 + [-7, 32_767, 32_767, -7],
        [0, 1, 2, 0, 1] * 3 + [2, 0, 1, 1], [1, 0, 1, 1, 0] * 3 + [0, 1, 0, 1],
        [45.0, 12.345678, -0.0, 90.0, 7.25] * 3 + [3.5, 0.0, 89.999999, 1e-7])
    for rows in (windows, windows[::-1]):
        with mock.patch.object(orbit, "CHUNK_ROWS", 4):
            text = windows_csv_text(rows)
        assert text == csv_text(orbit.WINDOW_HEADER, rows.rows())


@pytest.mark.parametrize("satellite_ids, station_ids, named", [
    (["obs,1", "plain"], ["gs-01"], "satellite 'obs,1'"),
    (["obs-1", 'rush "2"'], ["gs-01"], "satellite 'rush \"2\"'"),
    (["obs-1", "plain"], ["gs-01", "gs\n02"], "station 'gs\\n02'"),
    (["obs-1", "plain"], ["gs\r01"], "station 'gs\\r01'"),
], ids=["comma", "quote", "line-feed", "carriage-return"])
def test_windows_csv_text_refuses_ids_it_cannot_write(satellite_ids, station_ids, named):
    # windows built in code may carry any id; the writer writes ids as they
    # are, so one that would not read back is refused, naming it, even on a
    # row-less value
    for rows in ([0], []):
        windows = ContactWindows.sorted(satellite_ids, station_ids, rows, rows, rows,
                                        [45.0] * len(rows))
        with pytest.raises(ValidationError, match=f"^{re.escape(named)}: id must not hold"):
            windows_csv_text(windows)


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


def bits(rows):
    """Window rows with each elevation as its IEEE bytes, so that -0.0 and
    0.0, or two doubles an ulp apart, differ."""
    return [(slot, sat, station, struct.pack("<d", elevation))
            for slot, sat, station, elevation in rows]


def assert_loaders_agree(path, text, chunk_rows=orbit.CHUNK_ROWS, scenario=None):
    """The loader, reading `chunk_rows` rows at a time, and the row-by-row
    reference give the same windows, to the bit, or the same error type and
    message, on this file text. Returns what both gave."""
    scenario = scenario or bundled_windows()[0]
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = ("windows", bits(load_window_rows(
            str(path), {s.id for s in scenario.satellites},
            {st.id: st.min_elevation_deg for st in scenario.stations},
            scenario.time.last_slot)))
    except RowError as exc:
        expected = (exc.kind, str(exc))
    try:
        with mock.patch.object(orbit, "CHUNK_ROWS", chunk_rows):
            got = ("windows", bits(load_contact_windows(str(path), scenario).rows()))
    except OrbitSiegeError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == expected
    return got


@settings(max_examples=300, deadline=None)
@given(text=mutated_window_files(), chunk_rows=st.sampled_from([7, 1000, orbit.CHUNK_ROWS]))
def test_window_loader_matches_row_by_row_reference(tmp_path_factory, text, chunk_rows):
    """Bad cells, short, long, blank, quoted, duplicate and shuffled rows,
    CR, LF and CRLF line ends, with and without a final newline, read in
    chunks of several sizes."""
    assert_loaders_agree(tmp_path_factory.mktemp("windows") / "windows.csv", text,
                         chunk_rows)


def test_crlf_file_reads_as_its_lf_copy(tmp_path):
    """A CRLF copy of a windows file is split into the same cells, without
    the CRs, and read to the same columns, to the bit; a bad cell or a short
    row in it is reported at the same line, in chunks of any size."""
    scenario, header, rows = bundled_windows()
    bad_cell, short = list(rows), list(rows)
    bad_cell[100] = "x" + bad_cell[100]
    short[30] = short[30].rsplit(",", 1)[0]
    columns = ("slot", "satellite", "station", "elevation_deg")

    def load(path):
        try:
            windows = load_contact_windows(str(path), scenario)
        except OrbitSiegeError as exc:
            return type(exc).__name__, str(exc).replace(str(path), "windows.csv")
        return [getattr(windows, column).tobytes() for column in columns]

    def cells(raw):
        return [data[s:e] for data, start, end in orbit._chunks_by_line("windows.csv", raw)
                for column in range(4)
                for s, e in zip(start[column].tolist(), end[column].tolist())]

    for end in (True, False):
        assert len({tuple(cells((newline.join([header, *rows]) + newline * end).encode()))
                    for newline in ("\n", "\r\n")}) == 1

    for lines, chunk_rows, end in ((rows, orbit.CHUNK_ROWS, True), (rows, 7, False),
                                   (bad_cell, 7, True), (short, 1000, False)):
        got = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / f"{len(newline)}.csv"
            path.write_bytes((newline.join([header, *lines]) + newline * end).encode())
            with mock.patch.object(orbit, "CHUNK_ROWS", chunk_rows):
                got.append(load(path))
        assert got[0] == got[1]
        assert isinstance(got[0], list) == (lines is rows)
    assert got[0] == ("ParseError", "windows.csv:32: expected 4 columns")


@pytest.mark.parametrize("column, value", [
    (0, "0"), (0, "last"), (0, "past"), (3, "90"), (3, "90.0"), (3, "threshold"),
    (3, "below"), (3, "-0.0"),
])
def test_window_loader_matches_reference_at_the_bounds(tmp_path, column, value):
    scenario, header, rows = bundled_windows()
    if value == "-0.0":  # stations that take it, so the loaded sign is compared
        scenario = replace(scenario, stations=tuple(
            replace(station, min_elevation_deg=0.0) for station in scenario.stations))
    cells = rows[7].split(",")
    threshold = next(st.min_elevation_deg for st in scenario.stations if st.id == cells[2])
    cells[column] = {
        "last": str(scenario.time.last_slot),
        "past": str(scenario.time.last_slot + 1),
        "threshold": repr(threshold),
        "below": repr(threshold - 1e-9),
    }.get(value, value)
    text = "\n".join([header, *rows[:7], ",".join(cells), *rows[8:]]) + "\n"
    got = assert_loaders_agree(tmp_path / "windows.csv", text, scenario=scenario)
    if value == "-0.0":
        assert struct.pack("<d", -0.0) in {row[3] for row in got[1]}


def converted(cells, last_slot):
    """`orbit._slots` and `orbit._elevations` of cells, each read as the
    first and last cell of a row of a windows file, and the `_decimals` fit
    mask of each."""
    raw = "".join(f"\n{cell},a,b,{cell}" for cell in cells)
    (data, start, end), = orbit._chunks_by_line("windows.csv", (orbit.HEADER_LINE + raw).encode())
    slots = orbit._slots(data, start[0], end[0], last_slot)
    elevations = orbit._elevations(data, start[3], end[3])
    return slots, elevations, orbit._decimals(data, start[3], end[3], orbit.ELEVATION_BYTES)[3]


def python_slot(cell, last_slot):
    """A slot cell of the written grammar as `int()` reads it, clipped to
    [-1, last_slot + 1], or None for any other cell."""
    if re.fullmatch("-?[0-9]{1,18}", cell) is None:
        return None
    return min(max(int(cell), -1), last_slot + 1)


def python_float(cell):
    try:
        return float(cell), False
    except ValueError:
        return math.nan, True


def point_at(digits, after, negative):
    """The digits of an integer with a point before the last `after`."""
    text = str(digits)
    cut = len(text) - min(after, len(text))
    return ("-" if negative else "") + text[:cut] + "." + text[cut:]


DIGITS = st.text("0123456789", max_size=20)
# cells that each stay one cell of a row, also as its last, whose CR before
# the LF would be dropped
NUMBER_CELLS = st.one_of(
    # the grammar, its near misses and its digit-count boundaries
    st.builds("".join, st.tuples(st.sampled_from(["", "-", "+", "--", " "]), DIGITS,
                                 st.sampled_from(["", ".", ".."]), DIGITS)),
    # 15 to 17 digits, a point among them: past 2**53 the digits are not a
    # double exactly, and one division rounds twice
    st.builds(point_at, st.integers(10 ** 14, 10 ** 17 - 1), st.integers(0, 17), st.booleans()),
    st.integers(0, 10 ** 19).map(str),
    st.integers(0, 10 ** 19).map(lambda n: "000" + str(n)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".6g")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0", ".5", "5.", "-.5", "-", ".", "-.", "--1", "1.2.3", "+3", " 7",
                     "7 ", "1_0", "1e3", "1E3", "\u0663", "nan", "-nan", "inf", "-inf", "",
                     "9" * 18, "9" * 19, "1" + "0" * 17, "0" * 18 + "1", "9007199254740993",
                     "9007199254740992", "900719925474099.3", "9039.117252045955", "90.0000001"]),
    # a non-ASCII character, a quote or a CR inside a number
    st.builds("".join, st.tuples(DIGITS, st.sampled_from(["\u00e9", "\u0663", "\u00a0", '"',
                                                          "\r"]), DIGITS)),
    st.text(max_size=6),
).filter(lambda cell: "," not in cell and "\n" not in cell and not cell.endswith("\r"))


@settings(max_examples=500, deadline=None)
@given(cells=st.lists(NUMBER_CELLS, min_size=1, max_size=12),
       last_slot=st.sampled_from([0, 287, 10 ** 17]))
def test_byte_converters_equal_int_and_float(cells, last_slot):
    """The slot converter reads the cells `-?D{1,18}` as `int()` does and
    refuses every other; the elevation converter gives `float()` of each
    cell, to the bit, and the same cells fail; elevations in the written
    grammar are read on the bytes."""
    (slots, bad_slots), (elevations, bad_elevations), fits = converted(cells, last_slot)
    assert [None if bad else slot for slot, bad in zip(slots.tolist(), bad_slots.tolist())] == [
        python_slot(cell, last_slot) for cell in cells]
    assert bad_elevations.tolist() == [python_float(cell)[1] for cell in cells]
    assert [struct.pack("<d", x) for x in elevations.tolist()] == [
        struct.pack("<d", python_float(cell)[0]) for cell in cells]
    written = [re.fullmatch(r"-?[0-9]*\.?[0-9]*", cell) is not None
               and re.search("[0-9]", cell) is not None
               and len(cell) <= orbit.ELEVATION_BYTES for cell in cells]
    assert fits.tolist() == written


FOUR_WORDS = "obs-1-and-more-than-eight-bytes!"  # 32 bytes of UTF-8
AWKWARD_SATELLITES = ("obs-1", "plain line", "\u00e7", "s\u00e4tellite", "\u536b\u661f-7",
                      "obs-10", FOUR_WORDS, FOUR_WORDS + "1", "obs-" + "0123456789" * 9 + "-long!")
AWKWARD_STATIONS = ("gs-1", "gs-10", "gs-100", "gs-10000", "gs-100000", "gs 02",
                    "station-north-0001-and-more-0001", "esta\u00e7\u00e3o")


def round_trip(path, satellite_ids, station_ids, n=400):
    """Windows over these ids, saved and loaded back to the same columns,
    to the bit. Returns the scenario they load under and the columns."""
    rng = np.random.default_rng(29)
    stations = [replace(random_station(rng, i), id=sid, min_elevation_deg=0.0)
                for i, sid in enumerate(station_ids)]
    scenario = windows_scenario([random_elements(rng) for _ in satellite_ids], stations)
    scenario = replace(scenario, satellites=tuple(
        replace(sat, id=sid) for sat, sid in zip(scenario.satellites, satellite_ids)))
    elevation = np.round(rng.uniform(0.0, 90.0, n), 3)
    elevation[:2] = 0.0, 90.0
    columns = (rng.integers(0, scenario.time.horizon_slots, n),
               rng.integers(0, len(satellite_ids), n), rng.integers(0, len(station_ids), n),
               elevation)
    windows = ContactWindows.sorted(satellite_ids, station_ids, *columns)
    save_contact_windows(path, windows)
    again = load_contact_windows(path, scenario)
    assert (again.satellite_ids, again.station_ids) == (satellite_ids, station_ids)
    for column in ("slot", "satellite", "station", "elevation_deg"):
        assert getattr(again, column).tobytes() == getattr(windows, column).tobytes()
    return scenario, columns


def test_awkward_ids_round_trip(tmp_path):
    """Ids with spaces, non-ASCII ids, ids of 32, 33 and 100 bytes, and ids
    that are prefixes of one another load back as the columns saved; an id
    one byte off, a quoted id and an id with a byte more are refused by
    name."""
    assert [len(sid.encode()) for sid in AWKWARD_SATELLITES[-3:]] == [32, 33, 100]
    path = str(tmp_path / "windows.csv")
    scenario, columns = round_trip(path, AWKWARD_SATELLITES, AWKWARD_STATIONS)
    # the widest read of the packed ids, at a short id at the end of the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{orbit.HEADER_LINE}\n0,obs-1,gs-1,5")
    assert load_contact_windows(path, scenario).rows() == [(0, "obs-1", "gs-1", 5.0)]
    # a quoted id, and cells that start with the longest id, one of them
    # past every id's words
    long_station = max(AWKWARD_STATIONS, key=len)
    assert len(long_station.encode()) == 32
    for row, kind, cell in (('0,"obs-1",gs-1,5', "satellite", '"obs-1"'),
                            (f"0,{AWKWARD_SATELLITES[-1]}!,gs-1,5", "satellite",
                             AWKWARD_SATELLITES[-1] + "!"),
                            (f"0,obs-1,{long_station}x,5", "station", long_station + "x")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{orbit.HEADER_LINE}\n0,obs-1,gs-1,5\n{row}")
        with pytest.raises(ValidationError) as error:
            load_contact_windows(path, scenario)
        assert str(error.value) == f"{path}:3: unknown {kind} {cell}"
    for ids, kind in ((AWKWARD_SATELLITES, "satellite"), (AWKWARD_STATIONS, "station")):
        for k, sid in enumerate(ids):
            off = sid[:-1] + chr(ord(sid[-1]) ^ 1)
            assert off not in ids and len(off.encode()) == len(sid.encode())
            renamed = dict(satellite_ids=AWKWARD_SATELLITES, station_ids=AWKWARD_STATIONS)
            renamed[f"{kind}_ids"] = ids[:k] + (off,) + ids[k + 1:]
            save_contact_windows(path, ContactWindows.sorted(
                renamed["satellite_ids"], renamed["station_ids"], *columns))
            with pytest.raises(ValidationError) as error:
                load_contact_windows(path, scenario)
            assert str(error.value).endswith(f": unknown {kind} {off}")


def test_ids_whose_folds_collide_round_trip(tmp_path):
    """With a fold that keeps only each id's last word, ids that share it
    are told apart by their words, and still load back; a cell of that
    fold that is none of them is refused by name."""
    path = str(tmp_path / "windows.csv")
    with mock.patch.object(orbit, "_MIX", np.uint64(0)):
        scenario, _ = round_trip(path, ("obs-1", "AAAAAAAAgs-1", "BBBBBBBBgs-1", "CCCCCCCCgs-1"),
                                 ("gs-1", "EEEEEEEEst-1", "FFFFFFFFst-1"))
        for row, kind, cell in (("0,ZZZZZZZZgs-1,gs-1,5", "satellite", "ZZZZZZZZgs-1"),
                                ("0,obs-1,GGGGGGGGst-1,5", "station", "GGGGGGGGst-1")):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{orbit.HEADER_LINE}\n0,BBBBBBBBgs-1,FFFFFFFFst-1,5\n{row}\n")
            with pytest.raises(ValidationError) as error:
                load_contact_windows(path, scenario)
            assert str(error.value) == f"{path}:3: unknown {kind} {cell}"
