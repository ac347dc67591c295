"""Two-body propagation, element parsing, and contact-window derivation."""

import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from oracles import scan_contact_slots
from orbitsiege import (
    BadChecksum,
    BadLayout,
    ConstellationScenario,
    CostModel,
    DataUnit,
    GroundStationSpec,
    ParseError,
    SatelliteSpec,
    StaleElements,
    TargetSpec,
    TimeGrid,
    TleElements,
    ValidationError,
    compute_contact_windows,
    load_contact_windows,
    parse_tle,
    propagate,
    save_contact_windows,
)
from orbitsiege.orbit import EARTH_RADIUS_M, J2000, semi_major_axis_m

EPOCH = datetime(2026, 3, 20, tzinfo=timezone.utc)


def checksummed(line68: str) -> str:
    total = sum(int(c) for c in line68 if c.isdigit()) + line68.count("-")
    return line68 + str(total % 10)


def tle_text(incl="097.6000", raan="040.0000", ecc="0001000",
             argp="000.0000", anomaly="025.0000", motion="14.90000000",
             year="26", day="079.50000000"):
    l1 = f"1 25544U 98067A   {year}{day}".ljust(68)
    l2 = (f"2 25544 {incl} {raan} {ecc} {argp} {anomaly} {motion}").ljust(68)
    return checksummed(l1) + "\n" + checksummed(l2)


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


def test_parse_tle_fields():
    elements = parse_tle(tle_text())
    assert elements.inclination_deg == pytest.approx(97.6)
    assert elements.raan_deg == pytest.approx(40.0)
    assert elements.eccentricity == pytest.approx(1e-4)
    assert elements.mean_anomaly_deg == pytest.approx(25.0)
    assert elements.mean_motion_rev_per_day == pytest.approx(14.9)
    # day 79.5 of 2026 lands at noon on March 20
    assert elements.epoch == datetime(2026, 3, 20, 12, tzinfo=timezone.utc)


def test_parse_tle_name_line_and_year_window():
    elements = parse_tle("SAT-1\n" + tle_text())
    assert elements.inclination_deg == pytest.approx(97.6)
    old = parse_tle(tle_text(year="98", day="001.00000000"))
    assert old.epoch.year == 1998
    recent = parse_tle(tle_text(year="00", day="001.00000000"))
    assert recent.epoch.year == 2000


def test_parse_tle_layout_errors():
    with pytest.raises(BadLayout, match="two element lines"):
        parse_tle("only one line")
    lines = tle_text().splitlines()
    with pytest.raises(BadLayout, match="69 characters"):
        parse_tle(lines[0][:-1] + "\n" + lines[1])
    swapped = lines[1] + "\n" + lines[0]
    with pytest.raises(BadLayout, match="line numbers"):
        parse_tle(swapped)


def test_parse_tle_checksum():
    lines = tle_text().splitlines()
    bad = lines[0][:-1] + str((int(lines[0][-1]) + 1) % 10)
    with pytest.raises(BadChecksum, match="line 1"):
        parse_tle(bad + "\n" + lines[1])


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
    elevation = {w.station_id: w.elevation_deg for w in windows if w.slot == 0}
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
        assert {w.slot for w in windows} == set(expected)
        for w in windows:
            assert w.elevation_deg == pytest.approx(expected[w.slot], abs=1e-6)


def test_windows_sorted_and_thresholded():
    rng = np.random.default_rng(9)
    sats = [random_elements(rng) for _ in range(3)]
    stations = [random_station(rng, i) for i in range(3)]
    scenario = windows_scenario(sats, stations)
    windows = compute_contact_windows(scenario)
    assert windows, "random day produced no contacts at all"
    keys = [(w.slot, w.satellite_id, w.station_id) for w in windows]
    assert keys == sorted(keys)
    threshold = {st.id: st.min_elevation_deg for st in stations}
    assert all(w.elevation_deg >= threshold[w.station_id] for w in windows)


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
    assert {w.slot for w in strict} <= {w.slot for w in loose}


def test_windows_need_orbits():
    scenario = windows_scenario([random_elements(np.random.default_rng(5))],
                                [random_station(np.random.default_rng(5), 1)])
    satellites = (
        SatelliteSpec(id="obs-1", priority="low", orbit=None,
                      capacity_bytes=10, downlink_rate_bps=16),)
    bare = replace(scenario, satellites=satellites)
    with pytest.raises(ValidationError, match="orbit elements required"):
        compute_contact_windows(bare)
    assert compute_contact_windows(replace(scenario, stations=())) == []


def test_window_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    scenario = windows_scenario([random_elements(rng)],
                                [random_station(rng, 1)])
    windows = compute_contact_windows(scenario)
    path = str(tmp_path / "windows.csv")
    save_contact_windows(path, windows)
    again = load_contact_windows(path, scenario)
    assert len(again) == len(windows)
    for a, b in zip(again, windows):
        assert (a.slot, a.satellite_id, a.station_id) == (
            b.slot, b.satellite_id, b.station_id)
        assert a.elevation_deg == pytest.approx(b.elevation_deg, abs=1e-9)


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
