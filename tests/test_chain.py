"""The whole command-line chain on small synthetic worlds, judged by the
naive references: `windows --out`, then `schedule`, `plan-delay`,
`plan-overflow` and `verify`, each reading those windows back.

The windows are checked against the dense geometry scan, the ladder CSV
against one Hungarian solve per slot and the slot-by-slot count, and each
plan by replaying it unit by unit; where the world has few enough attackable
slots, its cost or its infeasibility is checked by exhaustive subset search.
"""

import json
import math
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (contact_windows, count_ladder, dense_contact_windows, evacuation_slot,
                     exhaustive_min_cost_delay, exhaustive_overflow, fifo_replay,
                     hungarian_schedule, load_window_rows)
from orbitsiege.cli import main
from orbitsiege.scenario import save_scenario
from orbitsiege.synth import build_constellation

INF = math.inf
# exhaustive search replays every subset of at most this many slots
EXHAUSTIVE_SLOTS = 8


@st.composite
def worlds(draw):
    """A day of `build_constellation` traffic over 12 to 48 slots: a few
    satellites and stations, a store that overflows in some and never fills
    in others, and a deadline anywhere in the horizon."""
    slot_seconds = draw(st.sampled_from([1800, 3600, 7200]))
    horizon = 86400 // slot_seconds
    return build_constellation(
        n_low=draw(st.integers(1, 3)), n_high=draw(st.integers(0, 4)),
        n_stations=draw(st.integers(1, 4)), seed=draw(st.integers(0, 50)),
        slot_seconds=slot_seconds,
        capacity_bytes=draw(st.sampled_from([31, 33, 36, 2000, 2000])) * 10**9,
        target_downlink_slot=draw(st.integers(1, horizon - 1)))


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def plan_slots(out):
    """The slots of a planner's `strategy {a,b}, cost c` line."""
    match = re.match(r"strategy \{([0-9,]*)\}, cost ([^,\s]+)", out)
    return tuple(int(s) for s in match.group(1).split(",") if s), float(match.group(2))


def expected_windows(scenario):
    """The dense scan's windows, as rows of ids, and as `ContactWindows`."""
    slot, satellite, station, elevation = dense_contact_windows(scenario)
    sat_ids = sorted(s.id for s in scenario.satellites)
    st_ids = sorted(gs.id for gs in scenario.stations)
    rows = [(t, sat_ids[i], st_ids[j], e) for t, i, j, e in zip(
        slot.tolist(), satellite.tolist(), station.tolist(), elevation.tolist())]
    return rows, contact_windows(sat_ids, st_ids, slot, satellite, station, elevation)


def read_ladder(path):
    """The ladder CSV's rows as (slot, transmissible, attackable, required, cost)."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    assert header == "slot,transmissible,attackable,required_high,cost"
    cells = [line.split(",") for line in lines]
    return [(int(t), x == "1", a == "1", int(n), float(c)) for t, x, a, n, c in cells]


def replayer(scenario, transmissible):
    """Blocked slots -> the unit-level FIFO replay of the target's queue."""
    sat = scenario.target_satellite
    t0 = scenario.target.attack_start_slot
    arrivals = {}
    for unit in scenario.trace_for(sat.id):
        if unit.capture_slot >= t0:
            arrivals.setdefault(unit.capture_slot, []).append((unit.unit_id, unit.size_bytes))
    initial = [(u.unit_id, u.size_bytes) for u in scenario.initial_units(sat.id)]
    volume = sat.downlink_rate_bps * scenario.time.slot_seconds // 8
    return lambda blocked: fifo_replay(initial, arrivals, transmissible, frozenset(blocked),
                                       sat.capacity_bytes, volume, t0,
                                       scenario.time.last_slot)


def drops_nothing(replay, slots):
    """Blocking every one of `slots` drops no byte, so no subset of them
    does: without drops, the queue only grows with the blocked set."""
    return not any(replay(slots)["d"].values())


def check_delay(capsys, paths, scenario, price, replay, branches):
    unit = scenario.target.target_unit_ids[-1]
    deadline = scenario.target.target_downlink_slot
    code, out = run(capsys, "plan-delay", *paths)
    natural = evacuation_slot(replay(()), unit)
    if natural != INF and deadline < natural:
        assert code == 2
        branches["delay before natural"] += 1
        return
    # blocking past the deadline cannot change whether the unit has left by it
    candidates = [t for t in price if t <= deadline]
    if code == 0:
        slots, cost = plan_slots(out)
        assert set(slots) <= set(candidates)
        assert evacuation_slot(replay(slots), unit) > deadline
        assert cost == sum(price[t] for t in slots)
        code, out = run(capsys, "verify", *paths, "--kind", "delay",
                        "--slots", ",".join(map(str, slots)))
        report = json.loads(out)
        assert code == 0 and report["ok"] and report["total_cost"] == cost
    else:
        assert code == 1 and out.startswith("attack infeasible")
    if len(candidates) > EXHAUSTIVE_SLOTS:
        if drops_nothing(replay, candidates):
            # without drops, blocking more slots only holds the unit longer
            assert (code == 0) == (evacuation_slot(replay(candidates), unit) > deadline)
        branches["delay too many slots"] += 1
        return
    best, _ = exhaustive_min_cost_delay(candidates, price, deadline, unit, replay)
    if best is None:
        assert code == 1
        branches["delay infeasible"] += 1
    elif drops_nothing(replay, candidates):
        # where no blocking set drops bytes the greedy plan is the cheapest
        assert code == 0 and cost == best
        branches["delay least cost"] += 1
    else:
        assert code == 0 and cost >= best
        branches["delay with drops"] += 1


def check_overflow(capsys, paths, scenario, price, replay, branches):
    unit = scenario.target.target_unit_ids[-1]
    code, out = run(capsys, "plan-overflow", *paths)
    if code == 0:
        slots, cost = plan_slots(out)
        assert set(slots) <= set(price)
        assert unit in replay(slots)["dropped"]
        assert cost == sum(price[t] for t in slots)
        code, out = run(capsys, "verify", *paths, "--kind", "overflow",
                        "--slots", ",".join(map(str, slots)))
        report = json.loads(out)
        assert code == 0 and report["ok"] and report["total_cost"] == cost
        branches["overflow planned"] += 1
        return
    assert code == 1 and out.startswith("attack infeasible")
    if drops_nothing(replay, price):
        branches["overflow never fills"] += 1
        return
    assert len(price) <= EXHAUSTIVE_SLOTS, "infeasible, and too many slots to search"
    assert exhaustive_overflow(price, unit, replay) == []
    branches["overflow infeasible"] += 1


def test_the_cli_chain_matches_the_references(tmp_path, capsys):
    branches = Counter()
    scn, win, ladder = (str(tmp_path / name) for name in
                        ("scenario.json", "windows.csv", "ladder.csv"))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=worlds())
    def check(scenario):
        save_scenario(scenario, scn)
        assert run(capsys, "windows", "--scenario", scn, "--out", win)[0] == 0
        rows, windows = expected_windows(scenario)
        station_min = {gs.id: gs.min_elevation_deg for gs in scenario.stations}
        written = load_window_rows(win, {s.id for s in scenario.satellites}, station_min,
                                   scenario.time.last_slot)
        assert [r[:3] for r in written] == [r[:3] for r in rows]
        assert [r[3] for r in written] == pytest.approx([r[3] for r in rows], rel=1e-5)

        paths = ("--scenario", scn, "--windows", win)
        assert run(capsys, "schedule", *paths, "--out", ladder)[0] == 0
        expected = count_ladder(rows, hungarian_schedule(scenario, windows),
                                scenario.target.satellite_id,
                                {s.id for s in scenario.high_satellites},
                                scenario.time.horizon_slots, scenario.costs.unit_task_price)
        assert read_ladder(ladder) == expected

        price = {t: cost for t, _, attackable, _, cost in expected if attackable}
        replay = replayer(scenario, frozenset(t for t, x, _, _, _ in expected if x))
        check_delay(capsys, paths, scenario, price, replay, branches)
        check_overflow(capsys, paths, scenario, price, replay, branches)

    check()
    assert branches["delay least cost"] and branches["overflow planned"], branches
