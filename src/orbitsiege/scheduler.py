"""Per-slot antenna assignment and attackability derivation.

Low-priority satellites compete for antennas on stations they can see; one
assignment solve per slot serves as many as possible at the least total
proximity cost (Hungarian). A station's antennas are identical columns, so
optima that differ only in antenna numbering give the same `served` set and
idle counts, which is all attackability reads. High-priority tasking
preempts: it must fill every idle antenna on the stations the target satellite
sees, plus the antenna serving the target itself, so the number of distinct
high-priority satellites visible on those stations bounds which slots are
attackable and at what cost.

Attackability reads the assignment only where the target has a contact
window, so `build_schedule` assigns antennas in those slots alone; every
other slot is non-transmissible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import OutOfHorizon, ValidationError
from .orbit import ContactWindow, propagate, station_ecef_m
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


def assign_slot(scenario: ConstellationScenario, windows_at_slot: list[ContactWindow],
                slot: int, positions: dict[str, np.ndarray]) -> SlotSchedule:
    """Hungarian assignment of visible low-priority satellites to antennas.

    Proximity cost is the slant range at the slot midpoint when `positions`
    (satellite id -> output of `propagate`) holds every visible satellite,
    else (90 - elevation) from the window rows as a monotone stand-in.
    """
    low_ids = {s.id for s in scenario.low_satellites}
    elev: dict[tuple[str, str], float] = {}
    for w in windows_at_slot:
        if w.slot != slot:
            raise ValidationError(f"window at slot {w.slot} passed to slot {slot}")
        if w.satellite_id in low_ids:
            elev[(w.satellite_id, w.station_id)] = w.elevation_deg

    sats = sorted({sid for sid, _ in elev})
    stations = [st for st in sorted(scenario.stations, key=lambda s: s.id)
                if any((sid, st.id) in elev for sid in sats)]

    use_range = all(sid in positions for sid in sats)
    matrix = np.full((len(sats), len(stations)), math.inf)
    for i, sid in enumerate(sats):
        for j, st in enumerate(stations):
            if (sid, st.id) in elev:
                matrix[i, j] = (math.dist(positions[sid][slot], station_ecef_m(st))
                                if use_range else 90.0 - elev[(sid, st.id)])

    # one column per antenna; a station's antennas are adjacent and identical
    antennas = [st.antenna_count for st in stations]
    pairs, _ = hungarian(np.repeat(matrix, antennas, axis=1))
    owner = np.repeat(np.arange(len(stations)), antennas)
    used = np.bincount([owner[c] for _, c in pairs], minlength=len(stations))
    idle = tuple((st.id, st.antenna_count - int(n)) for st, n in zip(stations, used))
    return SlotSchedule(slot, frozenset(sats[r] for r, _ in pairs), idle)


def build_schedule(scenario: ConstellationScenario,
                   windows: list[ContactWindow]) -> list[SlotSchedule]:
    """Assignments for the slots where the target has a contact window.

    Each low-priority satellite visible in those slots is propagated once.
    """
    target_id = scenario.target.satellite_id
    by_slot: dict[int, list[ContactWindow]] = {}
    for w in windows:
        by_slot.setdefault(w.slot, []).append(w)
    slots = sorted({w.slot for w in windows if w.satellite_id == target_id})

    orbits = {s.id: s.orbit for s in scenario.low_satellites if s.orbit is not None}
    visible = {w.satellite_id for t in slots for w in by_slot[t]}
    positions = {sid: propagate(orbits[sid], scenario.time)
                 for sid in sorted(visible & orbits.keys())}
    return [assign_slot(scenario, by_slot[t], t, positions) for t in slots]


def attackability(scenario: ConstellationScenario, schedules: list[SlotSchedule],
                  windows: list[ContactWindow]) -> list[AttackabilityRecord]:
    """Transmissible/attackable flags and attack costs for the target satellite.

    A slot without a schedule is not transmissible.
    """
    by_slot = {schedule.slot: schedule for schedule in schedules}
    if len(by_slot) != len(schedules):
        raise ValidationError("schedules repeat a slot")
    if not by_slot.keys() <= set(range(scenario.time.horizon_slots)):
        raise OutOfHorizon("schedules reach outside the horizon")
    target_id = scenario.target.satellite_id
    high_ids = {s.id for s in scenario.high_satellites}
    price = scenario.costs.unit_task_price

    target_stations: dict[int, set[str]] = {}
    high_visible: dict[int, dict[str, set[str]]] = {}
    for w in windows:
        if w.satellite_id == target_id:
            target_stations.setdefault(w.slot, set()).add(w.station_id)
        elif w.satellite_id in high_ids:
            high_visible.setdefault(w.slot, {}).setdefault(w.station_id, set()).add(
                w.satellite_id)

    records = []
    for t in range(scenario.time.horizon_slots):
        schedule = by_slot.get(t)
        if schedule is None or target_id not in schedule.served:
            records.append(AttackabilityRecord(t, False, False, 0, math.inf))
            continue
        visible = target_stations.get(t, set())
        idle = sum(count for st_id, count in schedule.idle_antennas if st_id in visible)
        required = idle + 1
        highs: set[str] = set()
        for st_id in visible:
            highs |= high_visible.get(t, {}).get(st_id, set())
        attackable = len(highs) >= required
        cost = price * required if attackable else math.inf
        records.append(AttackabilityRecord(t, True, attackable, required, cost))
    return records


def attackability_for(scenario: ConstellationScenario,
                      windows: list[ContactWindow] | None = None) -> list[AttackabilityRecord]:
    """Full per-slot attackability, honoring a scenario's inline override."""
    if scenario.attackability is not None:
        by_slot = {r.slot: r for r in scenario.attackability}
        return [by_slot.get(t, AttackabilityRecord(t, False, False, 0, math.inf))
                for t in range(scenario.time.horizon_slots)]
    if windows is None:
        from .orbit import compute_contact_windows

        windows = compute_contact_windows(scenario)
    return attackability(scenario, build_schedule(scenario, windows), windows)


ATTACKABILITY_HEADER = ["slot", "transmissible", "attackable", "required_high", "cost"]


def attackability_rows(records: list[AttackabilityRecord]) -> list[list]:
    return [[r.slot, r.transmissible, r.attackable, r.required_high_priority, r.cost]
            for r in records]


def save_attackability(path: str, records: list[AttackabilityRecord],
                       fmt: str = "csv") -> None:
    from .output import emit

    emit(path, ATTACKABILITY_HEADER, attackability_rows(records), fmt)
