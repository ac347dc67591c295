"""Per-slot antenna assignment and attackability derivation.

High-priority tasking preempts: to block the target satellite in a slot, it
must fill the antenna serving the target and every idle antenna on the
stations the target sees. So the schedule records, per slot where the target
has a contact window, the station serving the target and the idle antennas
it could use, from one Hungarian solve that serves as many low-priority
satellites as possible at the least total slant range (from `orbit.propagate`,
so they need orbit elements). Optima that differ only in antenna numbering
record the same. The distinct high-priority satellites over the target's
stations bound which slots are attackable and at what cost; every other slot
is non-transmissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import OutOfHorizon, ValidationError
from .orbit import (ContactWindows, _ranks, compute_contact_windows, propagate,
                    station_ecef_m)
from .scenario import AttackabilityRecord, ConstellationScenario


@dataclass(frozen=True)
class SlotSchedule:
    slot: int
    target_station: str | None  # the station whose antenna serves the target
    idle_antennas: tuple[tuple[str, int], ...]  # (station_id, idle count), target's stations


def hungarian(cost_matrix) -> tuple[tuple[tuple[int, int], ...], float]:
    """Minimum-cost maximum-cardinality assignment, one SciPy solve.

    `inf` entries mark forbidden pairs; rows or columns left unmatched by
    them are simply absent. Forbidden pairs are solved at a cost above any
    sum of allowed ones, so a larger matching always wins. Among tied optima
    the one SciPy's solver gives is returned, which is the same for the
    same matrix.
    """
    matrix = np.asarray(cost_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("cost matrix must be two-dimensional")
    if matrix.size == 0:
        return (), 0.0
    finite = matrix[np.isfinite(matrix)]
    if (finite < 0).any():
        raise ValidationError("cost matrix entries must be non-negative")
    forbidden = np.isinf(matrix)
    big = float(finite.sum()) + 1.0
    rows, cols = linear_sum_assignment(np.where(forbidden, big, matrix))
    pairs = tuple((int(r), int(c)) for r, c in zip(rows, cols) if not forbidden[r, c])
    return pairs, float(sum(matrix[r, c] for r, c in pairs))


def build_schedule(scenario: ConstellationScenario,
                   windows: ContactWindows) -> list[SlotSchedule]:
    """Per target window slot, the station serving the target and the idle
    antennas on the stations it sees.

    Each slot is one Hungarian solve: a row per low-priority satellite in
    contact and a column per antenna of each station they see, both in id
    order, costed by slant range. Each of those satellites is propagated
    once, so needs orbit elements, windows read from a file included.
    """
    target = windows.of_satellite(scenario.target.satellite_id)
    slots = np.unique(windows.slot[target])
    if not len(slots):
        return []
    low = {s.id: s for s in scenario.low_satellites}
    costed = np.isin(windows.slot, slots) & np.isin(
        windows.satellite, [i for i, sid in enumerate(windows.satellite_ids) if sid in low])
    slot, sat, target = windows.slot[costed], windows.satellite[costed], target[costed]
    station = _ranks(windows.station_ids)[windows.station[costed]]  # into `ids`
    ids = sorted(windows.station_ids)
    by_id = {st.id: st for st in scenario.stations}
    antennas = np.array([by_id[i].antenna_count for i in ids])
    station_pos = np.array([station_ecef_m(by_id[i]) for i in ids])
    seen = np.unique(sat)
    tracks = np.stack([propagate(low[windows.satellite_ids[i]], scenario.time)
                       for i in seen.tolist()])
    cost = np.array([math.dist(p, q) for p, q in zip(
        tracks[np.searchsorted(seen, sat), slot].tolist(), station_pos[station].tolist())])

    # each row's place in its slot's matrix: rows come sorted by slot, then
    # satellite id, then station id
    row = np.cumsum(np.diff(slot * len(windows.satellite_ids) + sat, prepend=-1) != 0)
    row -= row[np.searchsorted(slot, slot)]
    keys, col = np.unique(slot * len(ids) + station, return_inverse=True)
    col -= np.searchsorted(keys, slot * len(ids))
    columns = np.split(keys % len(ids), np.searchsorted(keys, slots[1:] * len(ids)))
    target_row = dict(zip(slot[target].tolist(), row[target].tolist()))
    cuts = np.searchsorted(slot, slots[1:])
    schedules = []
    for t, cols, r, c, d in zip(slots.tolist(), columns,
                                *(np.split(x, cuts) for x in (row, col, cost))):
        counts = antennas[cols]
        matrix = np.full((r[-1] + 1, len(cols)), math.inf)
        matrix[r, c] = d
        pairs, _ = hungarian(np.repeat(matrix, counts, axis=1))
        owner = np.repeat(np.arange(len(cols)), counts).tolist()
        idle = counts.tolist()
        serving = None
        for i, j in pairs:
            idle[owner[j]] -= 1
            serving = ids[cols[owner[j]]] if i == target_row[t] else serving
        sees = np.isfinite(matrix[target_row[t]]).tolist()
        schedules.append(SlotSchedule(t, serving, tuple(
            (ids[j], n) for j, n, v in zip(cols.tolist(), idle, sees) if v)))
    return schedules


def attackability(scenario: ConstellationScenario, schedules: list[SlotSchedule],
                  windows: ContactWindows) -> list[AttackabilityRecord]:
    """Transmissible/attackable flags and attack costs for the target satellite.

    A slot is transmissible when its schedule has an antenna serving the
    target, and attackable when enough distinct high-priority satellites see
    the target's stations to fill that antenna and every idle one there."""
    by_slot = {schedule.slot: schedule for schedule in schedules}
    if len(by_slot) != len(schedules):
        raise ValidationError("schedules repeat a slot")
    horizon = scenario.time.horizon_slots
    if not by_slot.keys() <= set(range(horizon)):
        raise OutOfHorizon("schedules reach outside the horizon")
    high_ids = {s.id for s in scenario.high_satellites}

    # the distinct high-priority satellites over a target-visible station, per slot
    target = windows.of_satellite(scenario.target.satellite_id)
    pair = windows.slot * len(windows.station_ids) + windows.station  # (slot, station)
    high = np.isin(windows.satellite, [i for i, sid in enumerate(windows.satellite_ids)
                                       if sid in high_ids]) & np.isin(pair, pair[target])
    n_sat = len(windows.satellite_ids)
    distinct = np.unique(windows.slot[high] * n_sat + windows.satellite[high])
    highs = np.bincount(distinct // n_sat, minlength=horizon).tolist()

    records = []
    for t in range(horizon):
        schedule = by_slot.get(t)
        if schedule is None or schedule.target_station is None:
            records.append(AttackabilityRecord(t, False, False, 0, math.inf))
            continue
        required = 1 + sum(idle for _, idle in schedule.idle_antennas)
        attackable = highs[t] >= required
        cost = scenario.costs.unit_task_price * required if attackable else math.inf
        records.append(AttackabilityRecord(t, True, attackable, required, cost))
    return records


def attackability_for(scenario: ConstellationScenario,
                      windows: ContactWindows | None = None) -> list[AttackabilityRecord]:
    """Full per-slot attackability, honoring a scenario's inline override."""
    if scenario.attackability is not None:
        by_slot = {r.slot: r for r in scenario.attackability}
        return [by_slot.get(t, AttackabilityRecord(t, False, False, 0, math.inf))
                for t in range(scenario.time.horizon_slots)]
    if windows is None:
        windows = compute_contact_windows(scenario)
    return attackability(scenario, build_schedule(scenario, windows), windows)


def attackability_table(records: list[AttackabilityRecord]) -> tuple[list[str], list[list]]:
    """The schedule artifact: one row per slot of the ladder."""
    return (["slot", "transmissible", "attackable", "required_high", "cost"],
            [[r.slot, r.transmissible, r.attackable, r.required_high_priority, r.cost]
             for r in records])
