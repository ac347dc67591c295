"""Per-slot antenna assignment and attackability derivation.

High-priority tasking preempts: to block the target satellite in a slot, it
must fill the antenna serving the target and every idle antenna on the
stations the target sees. So the schedule's columns record, per contact
window of the target, whether that station's antenna serves the target and
how many it has left idle, from the assignment that serves as many
low-priority satellites as possible at the least total slant range (from
`orbit.propagate`, so they need orbit elements). Optima that differ only in
antenna numbering record the same. The distinct high-priority satellites
over the target's stations bound which slots are attackable and at what
cost, in the ladder's columns over the horizon.

Most slots need no solve. Where, in the target's part of the slot's contact
graph, every satellite has one clearly nearest station and no station is
nearest to more satellites than it has antennas, that nearest-station
assignment is the optimum there, and the schedule is read off it for all
such slots at once. Only the other slots are one Hungarian solve each.

The solver is `linear_sum_assignment`, SciPy's solver of the same name
ported step for step (Crouse's shortest augmenting path), so it returns the
pairs SciPy returns, ties included, with numpy as the only dependency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import OutOfHorizon, ValidationError
from .orbit import ContactWindows, compute_contact_windows, propagate, station_ecef_m
from .scenario import AttackabilityRecord, ConstellationScenario


# a nearest station is certified when it beats the next by more than this
# share of the slot's summed cost: far above the rounding of any solve
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class Schedule:
    """One row per contact window of the target, in (slot, station id) order:
    the station (an index into `station_ids`), the antennas it left idle and
    whether one serves the target. Its length is the slots scheduled."""

    station_ids: tuple[str, ...]
    slot: np.ndarray
    station: np.ndarray
    idle: np.ndarray
    serves: np.ndarray

    def __len__(self) -> int:
        return len(np.unique(self.slot))


@dataclass(frozen=True, eq=False)
class Ladder:
    """The target's attackability, one row per slot of the horizon, the slot
    being the row index; `cost` is inf where the slot is not attackable."""

    transmissible: np.ndarray
    attackable: np.ndarray
    required_high: np.ndarray
    cost: np.ndarray

    def rows(self):
        """(slot, transmissible, attackable, required_high, cost) per slot."""
        return zip(range(len(self.cost)), self.transmissible.tolist(), self.attackable.tolist(),
                   self.required_high.tolist(), self.cost.tolist())

    def __iter__(self):
        return itertools.starmap(AttackabilityRecord, self.rows())


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of every row of a wide cost matrix, or every
    column of a tall one: the pairs as (rows, cols) index arrays, rows
    ascending. Entries must be finite or `inf`; `hungarian`, the caller,
    refuses NaN and `-inf`. Raises `ValueError` if no such assignment avoids
    every `inf`.

    A step-for-step port of SciPy's `linear_sum_assignment`, Crouse's
    shortest augmenting path algorithm (D. F. Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016) as SciPy's
    `rectangular_lsap.cpp` runs it, so it returns the same pairs, ties
    included. Rows are augmented in order. Each path search scans the
    unvisited columns from the last one back, each visited column giving its
    place to the last one in the scan; it takes the least path cost, a tie
    going to the last unassigned column scanned, or to the first one scanned
    if every tied column is assigned. Path costs are summed left to right,
    as SciPy sums them. A tall matrix is solved transposed and its pairs put
    back in row order.
    """
    matrix = np.asarray(cost, dtype=float)
    nr, nc = matrix.shape
    transpose = nc < nr
    if transpose:
        matrix, nr, nc = matrix.T, nc, nr
    cost = matrix.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row `cur` to an unassigned column
        min_val, i, sink = 0.0, cur, -1
        remaining = list(range(nc - 1, -1, -1))
        path_cost = [math.inf] * nc
        rows_seen, cols_seen = [], []
        while sink < 0:
            rows_seen.append(i)
            row, u_i, lowest = cost[i], u[i], math.inf
            for j in remaining:
                r = min_val + row[j] - u_i - v[j]
                s = path_cost[j]
                if r < s:
                    path[j] = i
                    path_cost[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, best = s, j
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            index = remaining.index(best)
            remaining[index] = remaining[-1]
            remaining.pop()
            cols_seen.append(best)
            if row4col[best] < 0:
                sink = best
            else:
                i = row4col[best]
        # update the dual variables, then flip the path's pairs
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - path_cost[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - path_cost[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return (np.array([col4row[j] for j in order], dtype=np.intp),
                np.array(order, dtype=np.intp))
    return np.arange(nr, dtype=np.intp), np.array(col4row, dtype=np.intp)


def hungarian(cost_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost maximum-cardinality assignment, one
    `linear_sum_assignment` solve: the matched pairs as (rows, cols) index
    arrays, rows ascending.

    `inf` entries mark forbidden pairs; rows or columns left unmatched by
    them are simply absent. NaN and `-inf` are refused, and so are allowed
    entries whose sum overflows. Forbidden pairs are solved at a cost above
    that sum, so a larger matching always wins. Among tied optima the one
    SciPy's solver gives is returned, which `linear_sum_assignment` ports:
    a tie goes to the last unassigned column its path search scans.
    """
    matrix = np.asarray(cost_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("cost matrix must be two-dimensional")
    lowest = matrix.min(initial=0.0)  # NaN if any entry is
    if math.isnan(lowest):
        raise ValidationError("cost matrix entries must not be NaN")
    if lowest < 0:
        raise ValidationError("cost matrix entries must be non-negative")
    forbidden = matrix == math.inf
    try:
        big = math.fsum(matrix[~forbidden].tolist()) + 1.0
    except OverflowError:
        raise ValidationError("cost matrix's allowed entries must sum to a finite value") from None
    rows, cols = linear_sum_assignment(np.where(forbidden, big, matrix))
    allowed = ~forbidden[rows, cols]
    return rows[allowed], cols[allowed]


def build_schedule(scenario: ConstellationScenario, windows: ContactWindows) -> Schedule:
    """Per contact window of the target, whether the station's antenna
    serves the target and the antennas it has left idle.

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
    the solved pairs elsewhere.
    """
    by_id = {st.id: st for st in scenario.stations}
    missing = sorted(set(windows.station_ids) - by_id.keys())
    if missing:
        raise ValidationError(f"windows name station {missing[0]}, which the scenario lacks")
    target = windows.of_satellite(scenario.target.satellite_id)
    slots = np.unique(windows.slot[target])
    if not len(slots):
        return Schedule(windows.station_ids, *[np.zeros(0, np.int64)] * 3, np.zeros(0, bool))
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
        matrix[r, c] = cost[e]
        owner = np.repeat(np.arange(len(counts)), counts)  # each antenna's station
        rows, cols = hungarian(matrix[:, owner])
        matched = np.zeros(matrix.shape, dtype=bool)
        matched[rows, owner[cols]] = True
        used[e] = matched[r, c]

    idle = antennas[col_station] - np.bincount(col[used], minlength=len(keys))
    return Schedule(ids, slot[target], station[target], idle[col[target]], used[target])


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


def attackability(scenario: ConstellationScenario, schedule: Schedule,
                  windows: ContactWindows) -> Ladder:
    """Transmissible/attackable flags and attack costs for the target satellite.

    A slot is transmissible when its schedule has an antenna serving the
    target, and attackable when enough distinct high-priority satellites see
    the target's stations to fill that antenna and every idle one there."""
    horizon = scenario.time.horizon_slots
    slot = schedule.slot
    transmissible = np.zeros(horizon, dtype=bool)
    transmissible[slot[schedule.serves]] = True
    idle = np.bincount(slot, schedule.idle, minlength=horizon).astype(np.int64)
    required = np.where(transmissible, 1 + idle, 0)

    # the distinct high-priority satellites over a target-visible station,
    # per slot, from lookup tables by satellite and by (slot, station)
    highs = np.zeros(horizon, dtype=np.intp)
    if len(slot):
        span = _span(windows.slot, slot)
        rows, sat = windows.slot[span] - slot[0], windows.satellite[span]
        seen = np.zeros((slot[-1] - slot[0] + 1, len(windows.station_ids)), dtype=bool)
        seen[slot - slot[0], schedule.station] = True
        high_ids = {s.id for s in scenario.high_satellites}
        high = _table(windows.satellite_ids, high_ids)[sat] & seen[rows, windows.station[span]]
        # each distinct key is one satellite in one slot
        key = np.unique((rows * len(windows.satellite_ids) + sat)[high])
        highs = np.bincount(key // len(windows.satellite_ids) + slot[0], minlength=horizon)

    attackable = transmissible & (highs >= required)
    with np.errstate(over="ignore"):  # a price near the float range: refused below
        cost = np.where(attackable, scenario.costs.unit_task_price * required, math.inf)
    overflow = np.flatnonzero(attackable & np.isinf(cost))
    if len(overflow):
        raise ValidationError(f"slot {overflow[0]}: cost must be finite iff attackable")
    return Ladder(transmissible, attackable, required, cost)


def attackability_for(scenario: ConstellationScenario,
                      windows: ContactWindows | None = None) -> Ladder:
    """Full per-slot attackability, honoring a scenario's inline override;
    slots the inline table leaves out are neither transmissible nor
    attackable."""
    if scenario.attackability is not None:
        horizon = scenario.time.horizon_slots
        columns = (np.zeros(horizon, bool), np.zeros(horizon, bool),
                   np.zeros(horizon, np.int64), np.full(horizon, math.inf))
        # the table's rows, field by field, scattered into the columns
        slot, *values = list(zip(*map(astuple, scenario.attackability))) or [()] * 5
        if not all(0 <= t < horizon for t in slot):  # a scenario built in code
            raise OutOfHorizon("attackability slots reach outside the horizon")
        for column, value in zip(columns, values):
            column[list(slot)] = value
        return Ladder(*columns)
    if windows is None:
        windows = compute_contact_windows(scenario)
    return attackability(scenario, build_schedule(scenario, windows), windows)


def attackability_table(ladder: Ladder) -> tuple[list[str], list[list]]:
    """The schedule artifact: one row per slot of the ladder."""
    return (["slot", "transmissible", "attackable", "required_high", "cost"],
            list(map(list, ladder.rows())))
