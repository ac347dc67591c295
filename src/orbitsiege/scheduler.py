"""Per-slot antenna assignment and attackability derivation.

High-priority tasking preempts: to block the target satellite in a slot, it
must fill the antenna serving the target and every idle antenna on the
stations the target sees. So the schedule records, per slot where the target
has a contact window, the station serving the target and the idle antennas
it could use, from the assignment that serves as many low-priority
satellites as possible at the least total slant range (from `orbit.propagate`,
so they need orbit elements). Optima that differ only in antenna numbering
record the same. The distinct high-priority satellites over the target's
stations bound which slots are attackable and at what cost; every other slot
is non-transmissible.

Most slots need no solve. Where, in the target's part of the slot's contact
graph, every satellite has one clearly nearest station and no station is
nearest to more satellites than it has antennas, that nearest-station
assignment is the optimum there, and the schedule is read off it for all
such slots at once. Only the other slots are one Hungarian solve each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import OutOfHorizon, ValidationError
from .orbit import ContactWindows, compute_contact_windows, propagate, station_ecef_m
from .scenario import AttackabilityRecord, ConstellationScenario


# a nearest station is certified when it beats the next by more than this
# share of the slot's summed cost: far above the rounding of any solve
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SlotSchedule:
    slot: int
    target_station: str | None  # the station whose antenna serves the target
    idle_antennas: tuple[tuple[str, int], ...]  # (station_id, idle count), target's stations


def hungarian(cost_matrix) -> tuple[tuple[tuple[int, int], ...], float]:
    """Minimum-cost maximum-cardinality assignment, one SciPy solve.

    `inf` entries mark forbidden pairs; rows or columns left unmatched by
    them are simply absent. NaN and `-inf` are refused. Forbidden pairs are
    solved at a cost above any sum of allowed ones, so a larger matching
    always wins. Among tied optima the one SciPy's solver gives is returned,
    which is the same for the same matrix.
    """
    matrix = np.asarray(cost_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("cost matrix must be two-dimensional")
    if matrix.size == 0:
        return (), 0.0
    if np.isnan(matrix).any():
        raise ValidationError("cost matrix entries must not be NaN")
    if (matrix < 0).any():
        raise ValidationError("cost matrix entries must be non-negative")
    forbidden = np.isinf(matrix)
    big = float(matrix[~forbidden].sum()) + 1.0
    rows, cols = linear_sum_assignment(np.where(forbidden, big, matrix))
    allowed = ~forbidden[rows, cols]
    rows, cols = rows[allowed], cols[allowed]
    return tuple(zip(rows.tolist(), cols.tolist())), float(sum(matrix[rows, cols]))


def build_schedule(scenario: ConstellationScenario,
                   windows: ContactWindows) -> list[SlotSchedule]:
    """Per target window slot, the station serving the target and the idle
    antennas on the stations it sees.

    A slot's assignment has a row per low-priority satellite in contact and
    a column per antenna of each station they see, both in id order, costed
    by slant range. Each of those satellites is propagated once, at the
    target's window slots only, so needs orbit elements, windows read from a
    file included. Every station the windows carry must be one of the
    scenario's.

    The slots are first certified all at once. In the target's connected
    component of the slot's satellite-station contact graph, if every
    satellite's nearest station beats its next by more than `TIE_TOLERANCE`
    times the slot's summed cost, and no station is nearest to more
    satellites than it has antennas, then sending each satellite to its
    nearest station serves all of them at the least cost any assignment
    could, and any other way to serve them costs more by a margin above
    rounding. So it is the component's one optimum up to antenna numbering,
    which is what every optimum of the whole slot does there: the components
    share no rows or columns, so optima split into theirs. Every other slot
    is one `hungarian` solve over its whole matrix.

    Every slot's schedule is read off one mask of the contacts its
    assignment uses, the nearest ones in a certified slot's component and
    the solved pairs elsewhere: the station serving the target, and the
    antennas each station the target sees has left idle.
    """
    by_id = {st.id: st for st in scenario.stations}
    missing = sorted(set(windows.station_ids) - by_id.keys())
    if missing:
        raise ValidationError(f"windows name station {missing[0]}, which the scenario lacks")
    target = windows.of_satellite(scenario.target.satellite_id)
    slots = np.unique(windows.slot[target])
    if not len(slots):
        return []
    low = {s.id: s for s in scenario.low_satellites}
    # lookup tables by slot and by satellite, over the rows from the
    # target's first slot to its last, which slot order puts in one range
    span = _span(windows.slot, slots)
    is_slot = np.zeros(slots[-1] - slots[0] + 1, dtype=bool)
    is_slot[slots - slots[0]] = True
    costed = np.zeros(len(windows), dtype=bool)
    costed[span] = is_slot[windows.slot[span] - slots[0]] & _table(
        windows.satellite_ids, low)[windows.satellite[span]]
    slot, sat, target = windows.slot[costed], windows.satellite[costed], target[costed]
    station = windows.station[costed]
    ids = windows.station_ids
    # rows come in strict (slot, satellite id, station id) order, and ids
    # are ranks, so each (slot, satellite) matrix row is a run of them
    new_row = np.diff(slot * len(windows.satellite_ids) + sat, prepend=-1) != 0
    antennas = np.array([by_id[i].antenna_count for i in ids])
    station_pos = np.array([station_ecef_m(by_id[i]) for i in ids])
    index = np.searchsorted(slots, slot)
    seen = np.unique(sat)
    tracks = np.stack([propagate(low[windows.satellite_ids[i]], scenario.time, slots)
                       for i in seen.tolist()])
    sat_pos = tracks[np.searchsorted(seen, sat), index]
    cost = np.sqrt(((sat_pos - station_pos[station]) ** 2).sum(axis=1))

    # number the (slot, satellite) rows and the (slot, station) columns of
    # all slots' matrices at once
    past = np.append(slots, slots[-1] + 1)
    bounds = np.searchsorted(slot, past)  # each slot's window rows
    starts = np.flatnonzero(new_row)
    row = np.cumsum(new_row) - 1
    keys, col = np.unique(slot * len(ids) + station, return_inverse=True)
    col_station = keys % len(ids)
    col_bounds = np.searchsorted(keys, past * len(ids))

    # certify: in the target's component, each row has one nearest column,
    # and no column is nearest to more rows than its station has antennas
    member, reached = _component(row, col, col[target], len(starts), len(keys))
    nearest = cost <= (np.minimum.reduceat(cost, starts)[row]
                       + TIE_TOLERANCE * np.add.reduceat(cost, bounds[:-1])[index])
    tied = np.add.reduceat(nearest, starts, dtype=np.intp) != 1
    used = nearest & reached[col]  # the contacts each slot's assignment uses
    load = np.bincount(col[used], minlength=len(keys))
    solve = np.zeros(len(slots), dtype=bool)
    solve[index[starts[member & tied]]] = True
    solve[np.searchsorted(slots, keys // len(ids))[load > antennas[col_station]]] = True

    bounds, col_bounds = bounds.tolist(), col_bounds.tolist()
    for i in np.flatnonzero(solve).tolist():
        e = slice(bounds[i], bounds[i + 1])
        r, c = row[e] - row[bounds[i]], col[e] - col_bounds[i]
        counts = antennas[col_station[col_bounds[i]:col_bounds[i + 1]]]
        matrix = np.full((r[-1] + 1, len(counts)), math.inf)
        matrix[r, c] = [math.dist(p, q) for p, q in zip(
            sat_pos[e].tolist(), station_pos[station[e]].tolist())]
        pairs, _ = hungarian(np.repeat(matrix, counts, axis=1))
        owner = np.repeat(np.arange(len(counts)), counts)
        matched = np.zeros(matrix.shape, dtype=bool)
        for k, j in pairs:
            matched[k, owner[j]] = True
        used[e] = matched[r, c]

    idle = (antennas[col_station] - np.bincount(col[used], minlength=len(keys)))[col[target]]
    visible = dict.fromkeys(slots.tolist(), ())
    serving = {}
    for t, j, n, serves in zip(slot[target].tolist(), station[target].tolist(), idle.tolist(),
                               used[target].tolist()):
        visible[t] += ((ids[j], n),)
        if serves:
            serving[t] = ids[j]
    return [SlotSchedule(t, serving.get(t), visible[t]) for t in slots.tolist()]


def _span(slot: np.ndarray, slots: np.ndarray) -> slice:
    """The rows of a slot-ordered column from the first of the ordered
    `slots` to the last."""
    return slice(int(np.searchsorted(slot, slots[0])),
                 int(np.searchsorted(slot, slots[-1], side="right")))


def _table(satellite_ids: tuple[str, ...], chosen) -> np.ndarray:
    """Whether each satellite index's id is one of `chosen`."""
    return np.array([sid in chosen for sid in satellite_ids], dtype=bool)


def _component(row: np.ndarray, col: np.ndarray, seeds: np.ndarray, n_rows: int,
               n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows and columns connected to the seed columns through
    the entries (row[k], col[k])."""
    cols = np.zeros(n_cols, dtype=bool)
    cols[seeds] = True
    while True:
        rows = np.zeros(n_rows, dtype=bool)
        rows[row[cols[col]]] = True
        grown = np.zeros(n_cols, dtype=bool)
        grown[col[rows[row]]] = True
        if np.array_equal(grown, cols):
            return rows, cols
        cols = grown


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

    # the distinct high-priority satellites over a target-visible station,
    # per slot, from lookup tables by satellite and by (slot, station)
    target = windows.of_satellite(scenario.target.satellite_id)
    slots = windows.slot[target]
    highs = np.zeros(horizon, dtype=np.intp)
    if len(slots):
        span = _span(windows.slot, slots)
        slot, sat = windows.slot[span] - slots[0], windows.satellite[span]
        seen = np.zeros((slots[-1] - slots[0] + 1, len(windows.station_ids)), dtype=bool)
        seen[slots - slots[0], windows.station[target]] = True
        high = _table(windows.satellite_ids, high_ids)[sat] & seen[slot, windows.station[span]]
        # rows are in (slot, satellite id) order, so each run of equal keys
        # is one satellite in one slot
        key = slot[high] * len(windows.satellite_ids) + sat[high]
        highs = np.bincount(slot[high][np.diff(key, prepend=-1) != 0] + slots[0],
                            minlength=horizon)
    highs = highs.tolist()

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
