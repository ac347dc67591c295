"""Antenna assignment and the attackability ladder it induces."""

import math
from collections import namedtuple

import numpy as np
import pytest

from bundled import load_bundled
from oracles import brute_force_assignment, count_ladder
from orbitsiege import (ContactWindows, OutOfHorizon, ValidationError,
                        attackability_for, compute_contact_windows)
from orbitsiege import scheduler
from orbitsiege.orbit import propagate, station_ecef_m
from orbitsiege.output import csv_text
from orbitsiege.scenario import (AttackabilityRecord, ConstellationScenario,
                                 CostModel, DataUnit, GroundStationSpec,
                                 SatelliteSpec, TargetSpec, TimeGrid, TleElements)
from orbitsiege.scheduler import (SlotSchedule, assign_slot, attackability,
                                  attackability_table, build_schedule, hungarian)
from orbitsiege.synth import build_constellation

from datetime import datetime, timezone

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
INF = math.inf


def random_matrix(rng, draw):
    """A cost matrix of 1-5 rows and columns with about a quarter forbidden."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    matrix = draw((n, m))
    matrix[rng.random((n, m)) < 0.25] = INF
    return matrix


def test_hungarian_against_brute_force():
    # integer costs tie often: any optimum will do, so check its value,
    # its size and that it is a matching on allowed pairs
    rng = np.random.default_rng(23)
    for _ in range(60):
        matrix = random_matrix(rng, lambda shape: rng.integers(0, 10, size=shape)
                               .astype(float))
        pairs, cost = hungarian(matrix)
        expected_pairs, expected_cost = brute_force_assignment(matrix.tolist())
        assert cost == pytest.approx(expected_cost)
        assert len(pairs) == len(expected_pairs)
        assert all(math.isfinite(matrix[r, c]) for r, c in pairs)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)

    # continuous costs have a single optimum, so the pairs must match it
    for _ in range(60):
        matrix = random_matrix(rng, lambda shape: rng.random(shape) * 10.0)
        pairs, cost = hungarian(matrix)
        expected_pairs, expected_cost = brute_force_assignment(matrix.tolist())
        assert pairs == tuple(expected_pairs)
        assert cost == pytest.approx(expected_cost)


def test_hungarian_forbidden_and_full_requirement():
    matrix = [[INF, 3.0], [INF, 1.0]]
    pairs, cost = hungarian(matrix)
    assert pairs == ((1, 1),)
    assert cost == pytest.approx(1.0)


def test_hungarian_input_validation():
    with pytest.raises(ValidationError, match="two-dimensional"):
        hungarian([1.0, 2.0])
    with pytest.raises(ValidationError, match="non-negative"):
        hungarian([[-1.0]])
    assert hungarian(np.empty((0, 3))) == ((), 0.0)


# a valid LEO orbit, so the schedule can propagate the low-priority satellites
ORBIT = TleElements(inclination_deg=53.0, raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0,
                    mean_anomaly_deg=0.0, mean_motion_rev_per_day=15.0, epoch=EPOCH)


def two_station_scenario(n_low=3, n_high=2, antenna_counts=(1, 1)):
    """Visibility is injected through explicit window rows, which need not
    match the low-priority satellites' orbit; the high-priority ones have none."""
    sats = [SatelliteSpec(id=f"obs-{i + 1}", priority="low", orbit=ORBIT,
                          capacity_bytes=10, downlink_rate_bps=16)
            for i in range(n_low)]
    sats += [SatelliteSpec(id=f"rush-{i + 1}", priority="high", orbit=None,
                           capacity_bytes=0, downlink_rate_bps=16)
             for i in range(n_high)]
    stations = tuple(
        GroundStationSpec(id=f"gs-{i + 1:02d}", latitude_deg=10.0 * i,
                          longitude_deg=20.0 * i, altitude_m=0.0,
                          antenna_count=count, min_elevation_deg=5.0)
        for i, count in enumerate(antenna_counts))
    return ConstellationScenario(
        time=TimeGrid(epoch=EPOCH, slot_seconds=60, horizon_slots=3),
        satellites=tuple(sats),
        stations=stations,
        trace=(DataUnit("u-001", "obs-1", 0, 1),),
        target=TargetSpec(satellite_id="obs-1", target_unit_ids=("u-001",),
                          attack_start_slot=0),
        costs=CostModel(unit_task_price=100.0),
        seed=0,
    )


Row = namedtuple("Row", "satellite_id station_id slot elevation_deg")


def w(sat, station, slot, elev):
    return Row(sat, station, slot, elev)


def windows_of(scenario, rows):
    """The rows as ContactWindows over the scenario's satellite and station ids."""
    sat_ids = [s.id for s in scenario.satellites]
    station_ids = [st.id for st in scenario.stations]
    return ContactWindows.sorted(
        sat_ids, station_ids, [r.slot for r in rows],
        [sat_ids.index(r.satellite_id) for r in rows],
        [station_ids.index(r.station_id) for r in rows],
        [r.elevation_deg for r in rows])


def positions_above(scenario, station_of):
    """Positions that hold each satellite right above its station in every
    slot, for `station_of` = {satellite id: station id}."""
    ecef = {st.id: 1.1 * np.array(station_ecef_m(st)) for st in scenario.stations}
    return {sid: np.tile(ecef[st_id], (scenario.time.horizon_slots, 1))
            for sid, st_id in station_of.items()}


def test_assign_slot_serves_everyone_it_can():
    # obs-1 would rather take gs-01, but obs-2 has no alternative;
    # cardinality beats cost, so obs-1 is pushed to the farther gs-02
    scenario = two_station_scenario(n_low=2, antenna_counts=(1, 1))
    rows = [w("obs-1", "gs-01", 0, 60.0), w("obs-1", "gs-02", 0, 30.0),
            w("obs-2", "gs-01", 0, 20.0)]
    positions = positions_above(scenario, {"obs-1": "gs-01", "obs-2": "gs-01"})
    schedule = assign_slot(scenario, windows_of(scenario, rows), 0, positions)
    assert schedule.served == {"obs-1", "obs-2"}
    assert dict(schedule.idle_antennas) == {"gs-01": 0, "gs-02": 0}


def test_assign_slot_prefers_the_nearer_station():
    # the cost is slant range, not the rows' elevations: obs-1 sits right
    # above gs-02, so it takes that station despite the lower pass
    scenario = two_station_scenario(n_low=1, antenna_counts=(1, 1))
    positions = positions_above(scenario, {"obs-1": "gs-02"})
    rows = [w("obs-1", "gs-01", 0, 60.0), w("obs-1", "gs-02", 0, 30.0)]
    schedule = assign_slot(scenario, windows_of(scenario, rows), 0, positions)
    assert schedule.served == {"obs-1"}
    assert dict(schedule.idle_antennas) == {"gs-01": 1, "gs-02": 0}


def test_assign_slot_spreads_over_antennas():
    # obs-1 and obs-2 fill gs-01's two antennas, so obs-3 must use gs-02
    scenario = two_station_scenario(n_low=3, antenna_counts=(2, 1))
    rows = [w("obs-1", "gs-01", 1, 50.0), w("obs-2", "gs-01", 1, 40.0),
            w("obs-3", "gs-01", 1, 30.0), w("obs-3", "gs-02", 1, 10.0)]
    positions = positions_above(scenario, dict.fromkeys(["obs-1", "obs-2", "obs-3"], "gs-01"))
    schedule = assign_slot(scenario, windows_of(scenario, rows), 1, positions)
    assert schedule.served == {"obs-1", "obs-2", "obs-3"}
    assert dict(schedule.idle_antennas) == {"gs-01": 0, "gs-02": 0}


def test_assign_slot_matches_brute_force_by_station():
    # several antennas per station and slant-range costs: whichever antennas
    # the solver picks, the served satellites and the idle antennas per
    # station must be the brute-force optimum's
    rng = np.random.default_rng(5)
    for _ in range(40):
        counts = tuple(int(c) for c in rng.integers(1, 3, size=3))
        scenario = two_station_scenario(n_low=int(rng.integers(1, 5)),
                                        antenna_counts=counts)
        stations = scenario.stations
        sats = [s.id for s in scenario.low_satellites]
        rows = [w(sid, st.id, 1, float(rng.uniform(5.0, 90.0)))
                for sid in sats for st in stations if rng.random() < 0.5]
        positions = {sid: rng.normal(size=(scenario.time.horizon_slots, 3)) * 7e6
                     for sid in sats}
        schedule = assign_slot(scenario, windows_of(scenario, rows), 1, positions)

        seen = {(r.satellite_id, r.station_id) for r in rows}
        owner = [st for st in stations for _ in range(st.antenna_count)]
        cost = [[math.dist(positions[sid][1], station_ecef_m(st))
                 if (sid, st.id) in seen else INF for st in owner] for sid in sats]
        pairs, _ = brute_force_assignment(cost)
        visible = {st_id for _, st_id in seen}
        idle = {st.id: st.antenna_count for st in stations if st.id in visible}
        for _, c in pairs:
            idle[owner[c].id] -= 1
        assert schedule.served == {sats[r] for r, _ in pairs}
        assert dict(schedule.idle_antennas) == idle


def test_assign_slot_rejects_mismatched_rows():
    scenario = two_station_scenario()
    positions = positions_above(scenario, {"obs-1": "gs-01"})
    with pytest.raises(ValidationError, match="slot"):
        assign_slot(scenario, windows_of(scenario, [w("obs-1", "gs-01", 2, 45.0)]), 1,
                    positions)


def test_assign_slot_ignores_high_priority_rows():
    scenario = two_station_scenario(n_low=1, n_high=1)
    rows = [w("obs-1", "gs-01", 0, 45.0), w("rush-1", "gs-01", 0, 80.0)]
    # rush-1 has no orbit, and needs none: only low-priority rows are costed
    schedule = assign_slot(scenario, windows_of(scenario, rows), 0,
                           positions_above(scenario, {"obs-1": "gs-01"}))
    assert schedule.served == {"obs-1"}
    assert dict(schedule.idle_antennas) == {"gs-01": 0}


def test_build_schedule_covers_only_target_slots(monkeypatch):
    scenario = build_constellation(n_low=4, n_high=2, n_stations=3, slot_seconds=1200)
    windows = compute_contact_windows(scenario)
    target = scenario.target.satellite_id
    rows = [w(sat, st, slot, e) for slot, sat, st, e in windows.rows()]
    target_slots = sorted({x.slot for x in rows if x.satellite_id == target})
    assert 0 < len(target_slots) < scenario.time.horizon_slots

    propagated = []

    def counting(sat, grid):
        propagated.append(sat.id)
        return propagate(sat, grid)

    monkeypatch.setattr(scheduler, "propagate", counting)
    schedules = build_schedule(scenario, windows)
    assert [s.slot for s in schedules] == target_slots
    # each low-priority satellite seen in those slots is propagated once
    seen = {x.satellite_id for x in rows if x.slot in set(target_slots)}
    low = [s for s in scenario.low_satellites if s.id in seen]
    assert sorted(propagated) == sorted(s.id for s in low)


def attack_rows(visible_high):
    """Windows for one slot: target on gs-01 plus n high birds over it."""
    rows = [w("obs-1", "gs-01", 0, 45.0)]
    rows += [w(f"rush-{i + 1}", "gs-01", 0, 50.0) for i in range(visible_high)]
    return rows


def test_attackability_counts_idle_antennas():
    # two antennas on the visible station: one serves the target, one idles,
    # so blocking needs two high birds
    scenario = two_station_scenario(n_low=1, n_high=2, antenna_counts=(2, 1))
    windows = windows_of(scenario, attack_rows(2) + [w("obs-1", "gs-01", 1, 45.0)])
    schedules = build_schedule(scenario, windows)
    records = attackability(scenario, schedules, windows)
    assert records[0].transmissible and records[0].attackable
    assert records[0].required_high_priority == 2
    assert records[0].cost == pytest.approx(200.0)
    # slot 1 has the target but no high birds overhead
    assert records[1].transmissible and not records[1].attackable
    assert records[1].cost == INF
    # slot 2 has no contact at all
    assert not records[2].transmissible


def test_attackability_requires_enough_high_birds():
    scenario = two_station_scenario(n_low=1, n_high=2, antenna_counts=(2, 1))
    windows = windows_of(scenario, attack_rows(1))
    records = attackability(scenario, build_schedule(scenario, windows), windows)
    assert records[0].transmissible and not records[0].attackable


def test_attackability_only_counts_stations_seeing_the_target():
    scenario = two_station_scenario(n_low=1, n_high=1, antenna_counts=(1, 3))
    # the idle antennas on gs-02 are irrelevant: the target cannot use them
    windows = windows_of(scenario, attack_rows(1) + [w("rush-1", "gs-02", 0, 70.0)])
    records = attackability(scenario, build_schedule(scenario, windows), windows)
    assert records[0].attackable
    assert records[0].required_high_priority == 1
    assert records[0].cost == pytest.approx(100.0)


def test_attackability_matches_the_slot_by_slot_count():
    # random visibility over three slots, several antennas per station,
    # repeated rows: the column ladder equals the loop over the rows
    rng = np.random.default_rng(29)
    for _ in range(60):
        counts = tuple(int(c) for c in rng.integers(1, 3, size=3))
        scenario = two_station_scenario(n_low=3, n_high=4, antenna_counts=counts)
        rows = [w(sat.id, st.id, int(t), float(rng.uniform(5.0, 90.0)))
                for sat in scenario.satellites for st in scenario.stations
                for t in range(scenario.time.horizon_slots) if rng.random() < 0.4]
        rows += [rows[i] for i in rng.integers(0, len(rows), size=3)] if rows else []
        windows = windows_of(scenario, rows)
        schedules = build_schedule(scenario, windows)
        records = attackability(scenario, schedules, windows)
        expected = count_ladder(
            [(r.slot, r.satellite_id, r.station_id, r.elevation_deg) for r in rows],
            [(s.slot, s.served, s.idle_antennas) for s in schedules], "obs-1",
            {s.id for s in scenario.high_satellites}, scenario.time.horizon_slots, 100.0)
        assert [(r.slot, r.transmissible, r.attackable, r.required_high_priority, r.cost)
                for r in records] == expected


def test_attackability_rejects_bad_schedule_slots():
    scenario = two_station_scenario()
    outside = SlotSchedule(3, frozenset({"obs-1"}), (("gs-01", 0),))
    with pytest.raises(OutOfHorizon, match="outside the horizon"):
        attackability(scenario, [outside], windows_of(scenario, []))
    twice = SlotSchedule(1, frozenset({"obs-1"}), (("gs-01", 0),))
    with pytest.raises(ValidationError, match="repeat a slot"):
        attackability(scenario, [twice, twice], windows_of(scenario, []))


def test_unscheduled_slot_is_not_transmissible():
    # the target sees gs-01 in both slots, but only slot 1 has a schedule
    scenario = two_station_scenario(n_low=1, n_high=0)
    windows = windows_of(scenario, [w("obs-1", "gs-01", 0, 45.0), w("obs-1", "gs-01", 1, 45.0)])
    schedules = [assign_slot(scenario, windows[1:], 1,
                             positions_above(scenario, {"obs-1": "gs-01"}))]
    records = attackability(scenario, schedules, windows)
    assert records[0] == AttackabilityRecord(0, False, False, 0, INF)
    assert records[1].transmissible


def test_attackability_for_honours_inline_table():
    scenario = load_bundled("s0")
    records = attackability_for(scenario)
    assert len(records) == scenario.time.horizon_slots
    attackable = [r.slot for r in records if r.attackable]
    assert attackable == [2, 4, 6, 8, 10, 12]
    assert all(r.cost == 1.0 for r in records if r.attackable)


def test_attackability_for_fills_missing_slots():
    from dataclasses import replace

    scenario = load_bundled("s0")
    sparse = replace(scenario, attackability=scenario.attackability[2:3])
    records = attackability_for(sparse)
    assert len(records) == sparse.time.horizon_slots
    assert records[2].attackable
    assert not records[0].transmissible and not records[11].transmissible


def test_attackability_table():
    records = [AttackabilityRecord(0, False, False, 0, INF),
               AttackabilityRecord(1, True, True, 2, 200.0)]
    text = csv_text(*attackability_table(records))
    assert text.splitlines()[0] == "slot,transmissible,attackable,required_high,cost"
    assert text.splitlines()[1] == "0,0,0,0,inf"
    assert text.splitlines()[2] == "1,1,1,2,200"
