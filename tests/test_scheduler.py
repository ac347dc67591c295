"""Antenna assignment and the attackability ladder it induces."""

import itertools
import math
from collections import Counter, namedtuple
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundled import load_bundled
from oracles import brute_force_assignment, contact_windows, count_ladder, hungarian_schedule
from orbitsiege import OutOfHorizon, ValidationError, attackability_for, compute_contact_windows
from orbitsiege import scheduler
from orbitsiege.orbit import propagate, station_ecef_m
from orbitsiege.output import csv_text
from orbitsiege.scenario import (AttackabilityRecord, ConstellationScenario,
                                 CostModel, DataUnit, GroundStationSpec,
                                 SatelliteSpec, TargetSpec, TimeGrid, TleElements)
from orbitsiege.scheduler import (Ladder, attackability, attackability_table,
                                  build_schedule, hungarian)
from orbitsiege.synth import build_constellation
from test_cli import GEOMETRY_1440

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
        rows, cols = hungarian(matrix)
        pairs, cost = tuple(zip(rows.tolist(), cols.tolist())), matrix[rows, cols].sum()
        expected_pairs, expected_cost = brute_force_assignment(matrix.tolist())
        assert cost == pytest.approx(expected_cost)
        assert len(pairs) == len(expected_pairs)
        assert all(math.isfinite(matrix[r, c]) for r, c in pairs)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)

    # continuous costs have a single optimum, so the pairs must match it
    for _ in range(60):
        matrix = random_matrix(rng, lambda shape: rng.random(shape) * 10.0)
        rows, cols = hungarian(matrix)
        pairs, cost = tuple(zip(rows.tolist(), cols.tolist())), matrix[rows, cols].sum()
        expected_pairs, expected_cost = brute_force_assignment(matrix.tolist())
        assert pairs == tuple(expected_pairs)
        assert cost == pytest.approx(expected_cost)


def test_hungarian_forbidden_and_full_requirement():
    matrix = [[INF, 3.0], [INF, 1.0]]
    rows, cols = hungarian(matrix)
    assert rows.tolist() == [1] and cols.tolist() == [1]


def test_hungarian_input_validation():
    with pytest.raises(ValidationError, match="two-dimensional"):
        hungarian([1.0, 2.0])
    with pytest.raises(ValidationError, match="non-negative"):
        hungarian([[-1.0]])
    # only +inf forbids a pair
    with pytest.raises(ValidationError, match="non-negative"):
        hungarian([[1.0, -INF]])
    with pytest.raises(ValidationError, match="NaN"):
        hungarian([[math.nan]])
    # no cost lies above allowed entries whose sum overflows
    with pytest.raises(ValidationError, match="sum to a finite value"):
        hungarian([[1e308, 1e308], [INF, INF]])
    rows, cols = hungarian([[1e308, INF], [INF, INF]])
    assert rows.tolist() == cols.tolist() == [0]
    rows, cols = hungarian(np.empty((0, 3)))
    assert rows.tolist() == cols.tolist() == []


@st.composite
def assignment_matrices(draw):
    """A cost matrix of 0-6 rows and 0-6 columns, or columns per antenna, of
    one kind: small integers (heavy ties), continuous costs, a station
    matrix with each station's column repeated per antenna as
    `build_schedule` solves it, or `hungarian`'s big-M stand-ins for
    forbidden pairs. All but the last may hold `inf`, which can leave no
    assignment."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("ties", "continuous", "antennas", "big_m")))
    cell = st.floats(0.0, 1e7) if kind == "continuous" else st.integers(0, 3).map(float)
    size = n_rows * n_cols
    matrix = np.reshape(draw(st.lists(cell, min_size=size, max_size=size)), (n_rows, n_cols))
    marked = np.reshape(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                        (n_rows, n_cols)).astype(bool)
    matrix[marked] = matrix.sum() + 1.0 if kind == "big_m" else INF
    if kind == "antennas":
        counts = draw(st.lists(st.integers(1, 3), min_size=n_cols, max_size=n_cols))
        matrix = matrix[:, np.repeat(np.arange(n_cols), counts)]
    return matrix


@pytest.fixture(scope="module")
def scipy_solver():
    return pytest.importorskip("scipy.optimize").linear_sum_assignment


@settings(max_examples=500, deadline=None)
@given(matrix=assignment_matrices())
@example(matrix=np.zeros((3, 3)))
@example(matrix=np.zeros((4, 2)))
@example(matrix=np.empty((0, 3)))
@example(matrix=np.empty((3, 0)))
@example(matrix=np.array([[INF, INF], [1.0, 2.0]]))
# row 1 ties an assigned and an unassigned column, and takes the unassigned
@example(matrix=np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
def test_linear_sum_assignment_is_scipys(scipy_solver, matrix):
    """The port returns SciPy's index arrays exactly, ties included, and
    refuses what SciPy refuses."""
    try:
        expected = scipy_solver(matrix)
    except ValueError:
        with pytest.raises(ValueError, match="infeasible"):
            scheduler.linear_sum_assignment(matrix)
        return
    rows, cols = scheduler.linear_sum_assignment(matrix)
    assert (rows.tolist(), cols.tolist()) == (expected[0].tolist(), expected[1].tolist())


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
    return contact_windows(
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


def reading(positions):
    """A stand-in for `propagate` that reads `positions` (satellite id ->
    positions per slot), at every slot or at the slots asked for."""
    return lambda sat, grid, slots=slice(None): positions[sat.id][slots]


def schedule_at(monkeypatch, scenario, rows, positions):
    """The schedule of the rows' one slot, with `positions` (satellite id ->
    positions per slot) standing in for propagation."""
    monkeypatch.setattr(scheduler, "propagate", reading(positions))
    (schedule,) = schedule_tuples(build_schedule(scenario, windows_of(scenario, rows)))
    return schedule


def test_assign_slot_serves_everyone_it_can(monkeypatch):
    # obs-1 (the target) would rather take gs-01, but obs-2 has no
    # alternative; cardinality beats cost, so obs-1 is pushed to gs-02
    scenario = two_station_scenario(n_low=2, antenna_counts=(1, 1))
    rows = [w("obs-1", "gs-01", 0, 60.0), w("obs-1", "gs-02", 0, 30.0),
            w("obs-2", "gs-01", 0, 20.0)]
    positions = positions_above(scenario, {"obs-1": "gs-01", "obs-2": "gs-01"})
    schedule = schedule_at(monkeypatch, scenario, rows, positions)
    assert schedule.target_station == "gs-02"
    assert dict(schedule.idle_antennas) == {"gs-01": 0, "gs-02": 0}


def test_assign_slot_prefers_the_nearer_station(monkeypatch):
    # the cost is slant range, not the rows' elevations: obs-1 sits right
    # above gs-02, so it takes that station despite the lower pass
    scenario = two_station_scenario(n_low=1, antenna_counts=(1, 1))
    positions = positions_above(scenario, {"obs-1": "gs-02"})
    rows = [w("obs-1", "gs-01", 0, 60.0), w("obs-1", "gs-02", 0, 30.0)]
    schedule = schedule_at(monkeypatch, scenario, rows, positions)
    assert schedule.target_station == "gs-02"
    assert dict(schedule.idle_antennas) == {"gs-01": 1, "gs-02": 0}


def test_assign_slot_spreads_over_antennas(monkeypatch):
    # obs-2 and obs-3 fill gs-01's two antennas, so obs-1 must use gs-02
    scenario = two_station_scenario(n_low=3, antenna_counts=(2, 1))
    rows = [w("obs-1", "gs-01", 1, 50.0), w("obs-1", "gs-02", 1, 10.0),
            w("obs-2", "gs-01", 1, 40.0), w("obs-3", "gs-01", 1, 30.0)]
    positions = positions_above(scenario, dict.fromkeys(["obs-1", "obs-2", "obs-3"], "gs-01"))
    schedule = schedule_at(monkeypatch, scenario, rows, positions)
    assert schedule.slot == 1
    assert schedule.target_station == "gs-02"
    assert dict(schedule.idle_antennas) == {"gs-01": 0, "gs-02": 0}


def test_assign_slot_matches_brute_force_by_station(monkeypatch):
    # several antennas per station and satellites at distinct positions, so
    # the optimum is unique: whichever antennas the solver picks, the
    # target's station and the idle antennas on the stations it sees must
    # be the brute-force optimum's
    rng = np.random.default_rng(5)
    positions = {}
    monkeypatch.setattr(scheduler, "propagate",
                        lambda sat, grid, slots=slice(None): positions[sat.id][slots])
    for _ in range(60):
        counts = tuple(int(c) for c in rng.integers(1, 3, size=3))
        scenario = two_station_scenario(n_low=int(rng.integers(1, 5)),
                                        antenna_counts=counts)
        stations = scenario.stations
        sats = [s.id for s in scenario.low_satellites]
        seen = {(sid, st.id) for sid in sats for st in stations if rng.random() < 0.5}
        seen.add(("obs-1", stations[int(rng.integers(0, len(stations)))].id))
        rows = [w(sid, st_id, 1, float(rng.uniform(5.0, 90.0))) for sid, st_id in seen]
        positions = {sid: rng.normal(size=(scenario.time.horizon_slots, 3)) * 7e6
                     for sid in sats}
        (schedule,) = schedule_tuples(build_schedule(scenario, windows_of(scenario, rows)))

        owner = [st for st in stations for _ in range(st.antenna_count)]
        cost = [[math.dist(positions[sid][1], station_ecef_m(st))
                 if (sid, st.id) in seen else INF for st in owner] for sid in sats]
        pairs, _ = brute_force_assignment(cost)
        idle = {st.id: st.antenna_count for st in stations if ("obs-1", st.id) in seen}
        for _, c in pairs:
            if owner[c].id in idle:
                idle[owner[c].id] -= 1
        assert schedule.target_station == next(
            (owner[c].id for r, c in pairs if sats[r] == "obs-1"), None)
        assert dict(schedule.idle_antennas) == idle


def test_assign_slot_ignores_high_priority_rows():
    scenario = two_station_scenario(n_low=1, n_high=1)
    rows = [w("obs-1", "gs-01", 0, 45.0), w("rush-1", "gs-01", 0, 80.0)]
    # rush-1 has no orbit, and needs none: only low-priority rows are costed
    (schedule,) = schedule_tuples(build_schedule(scenario, windows_of(scenario, rows)))
    assert schedule.target_station == "gs-01"
    assert dict(schedule.idle_antennas) == {"gs-01": 0}


def test_build_schedule_covers_only_target_slots(monkeypatch):
    scenario = build_constellation(n_low=4, n_high=2, n_stations=3, slot_seconds=1200)
    windows = compute_contact_windows(scenario)
    target = scenario.target.satellite_id
    rows = [w(sat, st, slot, e) for slot, sat, st, e in windows.rows()]
    target_slots = sorted({x.slot for x in rows if x.satellite_id == target})
    assert 0 < len(target_slots) < scenario.time.horizon_slots

    propagated = []

    def counting(sat, grid, slots):
        propagated.append(sat.id)
        assert slots.tolist() == target_slots  # the only slots the schedule reads
        return propagate(sat, grid, slots)

    monkeypatch.setattr(scheduler, "propagate", counting)
    schedule = build_schedule(scenario, windows)
    assert [s.slot for s in schedule_tuples(schedule)] == target_slots
    assert len(schedule) == len(target_slots)
    # each low-priority satellite seen in those slots is propagated once
    seen = {x.satellite_id for x in rows if x.slot in set(target_slots)}
    low = [s for s in scenario.low_satellites if s.id in seen]
    assert sorted(propagated) == sorted(s.id for s in low)


SlotRow = namedtuple("SlotRow", "slot target_station idle_antennas")


def schedule_tuples(schedule):
    """The schedule's columns as the oracle's rows: per slot, the station
    serving the target or None, and (station id, idle antennas) for each
    station the target sees."""
    visible, serving = {}, {}
    for t, j, idle, serves in zip(schedule.slot.tolist(), schedule.station.tolist(),
                                  schedule.idle.tolist(), schedule.serves.tolist()):
        visible[t] = visible.get(t, ()) + ((schedule.station_ids[j], idle),)
        if serves:
            serving[t] = schedule.station_ids[j]
    return [SlotRow(t, serving.get(t), stations) for t, stations in visible.items()]


def counting_solves(monkeypatch):
    """A list that gains an entry per `scheduler.hungarian` call."""
    solves, real = [], scheduler.hungarian
    monkeypatch.setattr(scheduler, "hungarian", lambda m: solves.append(m) or real(m))
    return solves


def bisector(a, b):
    """A point at 1.1 times the radius of stations a and b (at equal
    altitudes), as far from one as from the other."""
    mid = a / np.linalg.norm(a) + b / np.linalg.norm(b)
    return mid * 1.1 * np.linalg.norm(a) / np.linalg.norm(mid)


@st.composite
def crowded_worlds(draw):
    """A scenario of 2-4 stations with 1-3 antennas each and more low-priority
    satellites than antennas, sparse or dense window rows over its three
    slots, and positions per satellite and slot. Positions are right above a
    station, on the bisector of two stations (a tie), a hair off it (a gap
    far below the tie tolerance), or anywhere; some satellites share theirs
    (tied rows)."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    n_low = draw(st.integers(sum(counts) + 1, sum(counts) + 3))
    scenario = two_station_scenario(n_low=n_low, n_high=0, antenna_counts=counts)
    ecef = [np.array(station_ecef_m(gs)) for gs in scenario.stations]
    above = [1.1 * p for p in ecef]
    ties = [bisector(a, b) + nudge * (a - b) / np.linalg.norm(a - b)
            for a, b in itertools.combinations(ecef, 2) for nudge in (0.0, 1e-5)]
    anywhere = st.tuples(*[st.floats(-3e6, 3e6)] * 3).map(lambda x: above[0] + x)
    position = st.one_of(st.sampled_from(ties), st.sampled_from(above), anywhere)
    horizon = scenario.time.horizon_slots
    positions = {sat.id: np.array([draw(position) for _ in range(horizon)])
                 for sat in scenario.low_satellites}
    shared = draw(st.lists(st.sampled_from(sorted(positions)), max_size=4))
    for a, b in zip(shared[::2], shared[1::2]):
        positions[b] = positions[a]
    contacts = list(itertools.product(range(horizon), scenario.low_satellites,
                                      scenario.stations))
    dense = draw(st.integers(1, 3))  # in quarters of the contacts
    seen = draw(st.lists(st.integers(0, 3), min_size=len(contacts), max_size=len(contacts)))
    rows = [w(sat.id, gs.id, t, 45.0) for (t, sat, gs), v in zip(contacts, seen) if v < dense]
    if not any(r.satellite_id == "obs-1" for r in rows):
        rows.append(w("obs-1", "gs-01", 0, 45.0))
    return scenario, rows, positions


def tied_world():
    """obs-1 on the bisector of the two stations it sees, with an antenna
    free on each: only a solve can say which one it takes."""
    scenario = two_station_scenario(n_low=3, n_high=0, antenna_counts=(1, 1))
    a, b = (np.array(station_ecef_m(gs)) for gs in scenario.stations)
    positions = positions_above(scenario, {"obs-2": "gs-01", "obs-3": "gs-02"})
    positions["obs-1"] = np.tile(bisector(a, b), (3, 1))
    return scenario, [w("obs-1", "gs-01", 0, 45.0), w("obs-1", "gs-02", 0, 45.0)], positions


def test_build_schedule_matches_the_hungarian_oracle(monkeypatch):
    """Certified slots and solved ones alike equal one Hungarian solve per
    slot, and the examples reach both."""
    branches = Counter()

    @settings(max_examples=300, deadline=None)
    @given(world=crowded_worlds())
    @example(world=tied_world())
    def check(world):
        scenario, rows, positions = world
        monkeypatch.setattr(scheduler, "propagate", reading(positions))
        windows = windows_of(scenario, rows)
        expected = hungarian_schedule(scenario, windows)
        with monkeypatch.context() as patch:
            solves = counting_solves(patch)
            assert schedule_tuples(build_schedule(scenario, windows)) == expected
        branches["solved"] += len(solves)
        branches["certified"] += len(expected) - len(solves)

    check()
    assert branches["solved"] > 0 and branches["certified"] > 0


def test_build_schedule_solves_a_gap_below_the_tolerance(monkeypatch):
    # obs-1 alone, a hair off the bisector of its two stations: the nearer
    # one wins by far less than the tolerance, so the slot is solved
    scenario = two_station_scenario(n_low=1, antenna_counts=(1, 1))
    a, b = (np.array(station_ecef_m(gs)) for gs in scenario.stations)
    rows = [w("obs-1", "gs-01", 0, 45.0), w("obs-1", "gs-02", 0, 45.0)]
    for nudge, n_solves in ((1e-5, 1), (1e3, 0)):
        positions = {"obs-1": np.tile(bisector(a, b) + nudge * (a - b) / np.linalg.norm(a - b),
                                      (3, 1))}
        solves = counting_solves(monkeypatch)
        schedule = schedule_at(monkeypatch, scenario, rows, positions)
        assert len(solves) == n_solves
        assert schedule.target_station == "gs-01"
        assert dict(schedule.idle_antennas) == {"gs-01": 0, "gs-02": 1}


@pytest.mark.parametrize("build, n_solves, n_slots", [(None, 3, 81), (GEOMETRY_1440, 67, 511)],
                         ids=["constellation_24h", "geometry_1440"])
def test_build_schedule_solves_only_uncertified_slots(monkeypatch, build, n_solves, n_slots):
    scenario = (load_bundled("constellation_24h") if build is None
                else build_constellation(seed=1, **build))
    windows = compute_contact_windows(scenario)
    expected = hungarian_schedule(scenario, windows)
    solves = counting_solves(monkeypatch)
    assert schedule_tuples(build_schedule(scenario, windows)) == expected
    assert (len(solves), len(expected)) == (n_solves, n_slots)


def test_build_schedule_refuses_a_station_the_scenario_lacks():
    scenario = load_bundled("constellation_24h")
    windows = compute_contact_windows(scenario)
    with pytest.raises(ValidationError, match="gs-12"):
        attackability_for(replace(scenario, stations=scenario.stations[:-1]), windows)


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
    records = list(attackability(scenario, build_schedule(scenario, windows), windows))
    assert records[0].transmissible and records[0].attackable
    assert records[0].required_high_priority == 2
    assert records[0].cost == pytest.approx(200.0)
    # slot 1 has the target but no high birds overhead
    assert records[1].transmissible and not records[1].attackable
    assert records[1].cost == INF
    # slot 2 has no contact at all
    assert not records[2].transmissible


def test_attackability_refuses_a_cost_past_the_float_range():
    # two antennas to fill at a price of 1e308 each cost more than a float holds
    scenario = two_station_scenario(n_low=1, n_high=2, antenna_counts=(2, 1))
    scenario = replace(scenario, costs=CostModel(unit_task_price=1e308))
    windows = windows_of(scenario, attack_rows(2))
    with pytest.raises(ValidationError, match="^slot 0: cost must be finite iff attackable$"):
        attackability(scenario, build_schedule(scenario, windows), windows)


def test_attackability_requires_enough_high_birds():
    scenario = two_station_scenario(n_low=1, n_high=2, antenna_counts=(2, 1))
    windows = windows_of(scenario, attack_rows(1))
    records = list(attackability(scenario, build_schedule(scenario, windows), windows))
    assert records[0].transmissible and not records[0].attackable


def test_attackability_only_counts_stations_seeing_the_target():
    scenario = two_station_scenario(n_low=1, n_high=1, antenna_counts=(1, 3))
    # the idle antennas on gs-02 are irrelevant: the target cannot use them
    windows = windows_of(scenario, attack_rows(1) + [w("rush-1", "gs-02", 0, 70.0)])
    records = list(attackability(scenario, build_schedule(scenario, windows), windows))
    assert records[0].attackable
    assert records[0].required_high_priority == 1
    assert records[0].cost == pytest.approx(100.0)


def test_attackability_matches_the_slot_by_slot_count():
    # random visibility over three slots, several antennas per station:
    # the column ladder equals the loop over the rows
    rng = np.random.default_rng(29)
    for _ in range(60):
        counts = tuple(int(c) for c in rng.integers(1, 3, size=3))
        scenario = two_station_scenario(n_low=3, n_high=4, antenna_counts=counts)
        rows = [w(sat.id, st.id, int(t), float(rng.uniform(5.0, 90.0)))
                for sat in scenario.satellites for st in scenario.stations
                for t in range(scenario.time.horizon_slots) if rng.random() < 0.4]
        windows = windows_of(scenario, rows)
        schedule = build_schedule(scenario, windows)
        ladder = attackability(scenario, schedule, windows)
        expected = count_ladder(
            [(r.slot, r.satellite_id, r.station_id, r.elevation_deg) for r in rows],
            schedule_tuples(schedule), "obs-1",
            {s.id for s in scenario.high_satellites}, scenario.time.horizon_slots, 100.0)
        assert [astuple(r) for r in ladder] == expected


def test_target_without_a_station_has_an_empty_schedule_and_ladder():
    # obs-1 is the only low-priority satellite with windows, yet never the
    # target's: the schedule is empty and no slot is transmissible
    scenario = two_station_scenario(n_low=2, n_high=1)
    scenario = replace(scenario, target=replace(scenario.target, satellite_id="obs-2"))
    windows = windows_of(scenario, attack_rows(1))
    schedule = build_schedule(scenario, windows)
    assert len(schedule) == 0 and schedule_tuples(schedule) == []
    ladder = attackability(scenario, schedule, windows)
    assert [astuple(r) for r in ladder] == [(t, False, False, 0, INF) for t in range(3)]
    assert csv_text(*attackability_table(ladder)).splitlines()[1:] == [
        f"{t},0,0,0,inf" for t in range(3)]


def test_attackability_for_honours_inline_table():
    scenario = load_bundled("s0")
    records = list(attackability_for(scenario))
    assert len(records) == scenario.time.horizon_slots
    attackable = [r.slot for r in records if r.attackable]
    assert attackable == [2, 4, 6, 8, 10, 12]
    assert all(r.cost == 1.0 for r in records if r.attackable)


def test_attackability_for_fills_missing_slots():
    scenario = load_bundled("s0")
    sparse = replace(scenario, attackability=scenario.attackability[2:3])
    ladder = attackability_for(sparse)
    assert len(list(ladder)) == len(ladder.cost) == sparse.time.horizon_slots
    assert list(ladder)[2] == scenario.attackability[2]
    assert np.flatnonzero(ladder.attackable).tolist() == [2]
    assert not ladder.transmissible[0] and not ladder.transmissible[11]


def test_attackability_for_refuses_inline_slots_outside_the_horizon():
    # loading refuses them; a scenario built in code is checked here, so
    # that slot -1 does not land on the last slot
    scenario = load_bundled("s0")
    for slot in (-1, scenario.time.horizon_slots):
        row = AttackabilityRecord(slot, True, True, 1, 1.0)
        with pytest.raises(OutOfHorizon, match="outside the horizon"):
            attackability_for(replace(scenario, attackability=(row,)))


def test_attackability_table():
    ladder = Ladder(np.array([False, True]), np.array([False, True]), np.array([0, 2]),
                    np.array([INF, 200.0]))
    assert list(ladder) == [AttackabilityRecord(0, False, False, 0, INF),
                            AttackabilityRecord(1, True, True, 2, 200.0)]
    text = csv_text(*attackability_table(ladder))
    assert text.splitlines()[0] == "slot,transmissible,attackable,required_high,cost"
    assert text.splitlines()[1] == "0,0,0,0,inf"
    assert text.splitlines()[2] == "1,1,1,2,200"
