"""Per-slot antenna assignment and attackability derivation.

Low-priority satellites compete for antennas on stations they can see; one
assignment solve per slot serves as many as possible at the least total
slant range (Hungarian), from the positions `orbit.propagate` gives, so a
visible low-priority satellite needs orbit elements. A station's antennas
are identical columns, so optima that differ only in antenna numbering give
the same `served` set and idle counts, which is all attackability reads.
High-priority tasking preempts: it must fill every idle antenna on the
stations the target satellite sees, plus the antenna serving the target
itself, so the number of distinct high-priority satellites visible on those
stations bounds which slots are attackable and at what cost.

Attackability reads the assignment only where the target has a contact
window, so `build_schedule` assigns antennas in those slots alone; every
other slot is non-transmissible by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import OutOfHorizon, ValidationError
from .orbit import ContactWindows, compute_contact_windows, propagate, station_ecef_m
from .scenario import AttackabilityRecord, ConstellationScenario


@dataclass(frozen=True)
class SlotSchedule:
    slot: int
    served: frozenset[str]  # low-priority satellites given an antenna
    idle_antennas: tuple[tuple[str, int], ...]  # (station_id, idle count), visible stations


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


def assign_slot(scenario: ConstellationScenario, windows_at_slot: ContactWindows,
                slot: int, positions: dict[str, np.ndarray]) -> SlotSchedule:
    """Hungarian assignment of visible low-priority satellites to antennas.

    The cost of a pair is its slant range at the slot midpoint, from
    `positions` (satellite id -> output of `propagate`), which must hold
    every visible low-priority satellite.
    """
    elsewhere = np.flatnonzero(windows_at_slot.slot != slot)
    if len(elsewhere):
        raise ValidationError(f"window at slot {windows_at_slot.slot[elsewhere[0]]} "
                              f"passed to slot {slot}")
    low_ids = {s.id for s in scenario.low_satellites}
    visible = {(sid, st_id) for _, sid, st_id, _ in windows_at_slot.rows() if sid in low_ids}

    sats = sorted({sid for sid, _ in visible})
    seen = {st_id for _, st_id in visible}
    stations = [st for st in sorted(scenario.stations, key=lambda s: s.id) if st.id in seen]

    station_pos = [station_ecef_m(st) for st in stations]
    row = {sid: i for i, sid in enumerate(sats)}
    column = {st.id: j for j, st in enumerate(stations)}
    matrix = np.full((len(sats), len(stations)), math.inf)
    for sid, st_id in visible:
        j = column[st_id]
        matrix[row[sid], j] = math.dist(positions[sid][slot], station_pos[j])

    # one column per antenna; a station's antennas are adjacent and identical
    antennas = [st.antenna_count for st in stations]
    pairs, _ = hungarian(np.repeat(matrix, antennas, axis=1))
    owner = np.repeat(np.arange(len(stations)), antennas)
    used = np.bincount([owner[c] for _, c in pairs], minlength=len(stations))
    idle = tuple((st.id, st.antenna_count - int(n)) for st, n in zip(stations, used))
    return SlotSchedule(slot, frozenset(sats[r] for r, _ in pairs), idle)


def build_schedule(scenario: ConstellationScenario,
                   windows: ContactWindows) -> list[SlotSchedule]:
    """Assignments for the slots where the target has a contact window.

    Each low-priority satellite visible in those slots is propagated once,
    so each must have orbit elements, windows read from a file included.
    """
    slots = np.unique(windows.slot[windows.of_satellite(scenario.target.satellite_id)])
    starts = np.searchsorted(windows.slot, slots, side="left")
    ends = np.searchsorted(windows.slot, slots, side="right")

    seen = np.unique(windows.satellite[np.isin(windows.slot, slots)])
    visible = {windows.satellite_ids[i] for i in seen.tolist()}
    positions = {s.id: propagate(s, scenario.time)
                 for s in scenario.low_satellites if s.id in visible}
    return [assign_slot(scenario, windows[start:end], t, positions)
            for t, start, end in zip(slots.tolist(), starts.tolist(), ends.tolist())]


def attackability(scenario: ConstellationScenario, schedules: list[SlotSchedule],
                  windows: ContactWindows) -> list[AttackabilityRecord]:
    """Transmissible/attackable flags and attack costs for the target satellite.

    A slot without a schedule is not transmissible.
    """
    by_slot = {schedule.slot: schedule for schedule in schedules}
    if len(by_slot) != len(schedules):
        raise ValidationError("schedules repeat a slot")
    horizon = scenario.time.horizon_slots
    if not by_slot.keys() <= set(range(horizon)):
        raise OutOfHorizon("schedules reach outside the horizon")
    target_id = scenario.target.satellite_id
    high_ids = {s.id for s in scenario.high_satellites}
    price = scenario.costs.unit_task_price

    target = windows.of_satellite(target_id)
    visible = set(zip(windows.slot[target].tolist(),
                      map(windows.station_ids.__getitem__, windows.station[target].tolist())))
    # the distinct high-priority satellites over a target-visible station, per slot
    pair = windows.slot * len(windows.station_ids) + windows.station  # (slot, station)
    high = np.isin(windows.satellite, [i for i, sid in enumerate(windows.satellite_ids)
                                       if sid in high_ids]) & np.isin(pair, pair[target])
    highs = Counter(t for t, _ in set(zip(windows.slot[high].tolist(),
                                          windows.satellite[high].tolist())))

    records = []
    for t in range(horizon):
        schedule = by_slot.get(t)
        if schedule is None or target_id not in schedule.served:
            records.append(AttackabilityRecord(t, False, False, 0, math.inf))
            continue
        idle = sum(count for st_id, count in schedule.idle_antennas if (t, st_id) in visible)
        required = idle + 1
        attackable = highs[t] >= required
        cost = price * required if attackable else math.inf
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
