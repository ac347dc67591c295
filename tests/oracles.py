"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: unit-level FIFO replay, exhaustive
subset search, the delay cost read off cumulative curves, permutation
brute force, dense-grid geometry, a row-by-row window CSV reader, one
Hungarian solve per schedule slot, one Monte-Carlo trial drawn on its own,
a scenario parser that checks each field with a helper call.
These trade speed for obviousness and serve as ground truth for the fast
paths in ``orbitsiege``. None of them import the package, except
``dense_contact_windows``, which takes its positions from the package's
propagation (``scan_contact_slots`` checks that on its own),
``hungarian_schedule``, which takes its positions and its solver from the
package's scheduler module (``brute_force_assignment`` checks the solver),
and ``reference_scenario_from_dict``, which builds the package's scenario
types and raises its errors.
"""

import itertools
import math
import os
import re
from datetime import datetime, timezone

import numpy as np

from orbitsiege.errors import ParseError, ValidationError
from orbitsiege.scenario import (DEFAULT_ANTENNA_COUNT, DEFAULT_CAPACITY_BYTES,
                                 DEFAULT_DOWNLINK_RATE_BPS, DEFAULT_MIN_ELEVATION_DEG,
                                 DEFAULT_SLOT_SECONDS, DEFAULT_UNIT_TASK_PRICE,
                                 MAX_QUEUE_UNITS, AttackabilityRecord,
                                 ConstellationScenario, CostModel, DataUnit,
                                 GroundStationSpec, SatelliteSpec, TargetSpec, TimeGrid,
                                 TleElements, _load_trace_csv)

INF = math.inf


def fifo_replay(initial, arrivals, x_slots, y_slots, capacity, slot_volume,
                t0, horizon):
    """Replay a FIFO onboard queue slot by slot at unit granularity.

    initial: list of (unit_id, size_bytes) already queued when slot t0 begins,
        head first.
    arrivals: mapping slot -> list of (unit_id, size_bytes) appended in order.
    x_slots: slots where the queue may drain (transmissible).
    y_slots: slots where draining is blocked (attacked).
    capacity: queue capacity in bytes.
    slot_volume: maximum bytes drained per transmissible slot.
    t0, horizon: replay covers slots t0..horizon inclusive.

    Returns a dict with:
      queue: {slot: end-of-slot queue bytes}
      o, d: {slot: transmitted / dropped bytes}
      subq: {unit_id: {slot: end-of-slot bytes at or ahead of the unit}}
      done: {unit_id: slot its last byte was transmitted}
      dropped: {unit_id: slot its first byte was dropped}
    """
    queue = [[uid, size] for uid, size in initial]
    out = {"queue": {}, "o": {}, "d": {}, "subq": {}, "done": {}, "dropped": {}}
    aboard = [uid for uid, _ in initial]

    def consume(amount, t, transmitted):
        # Remove `amount` bytes from the head; flag finished/damaged units.
        while amount > 0 and queue:
            uid, size = queue[0]
            take = min(amount, size)
            if transmitted:
                if take == size and uid not in out["dropped"]:
                    out["done"].setdefault(uid, t)
            else:
                out["dropped"].setdefault(uid, t)
            if take == size:
                queue.pop(0)
            else:
                queue[0][1] = size - take
            amount -= take

    for t in range(t0, horizon + 1):
        for uid, size in arrivals.get(t, ()):
            queue.append([uid, size])
            aboard.append(uid)
        o = 0
        if t in x_slots and t not in y_slots:
            o = min(slot_volume, sum(s for _, s in queue))
            consume(o, t, transmitted=True)
        length = sum(s for _, s in queue)
        d = 0
        if length > capacity:
            d = length - capacity
            if 0 < d < slot_volume:
                d = slot_volume
            d = min(d, length)
            consume(d, t, transmitted=False)
        out["queue"][t] = sum(s for _, s in queue)
        out["o"][t] = o
        out["d"][t] = d
        remaining = {uid: size for uid, size in queue}
        for uid in aboard:
            prefix = 0
            for qid, qsize in queue:
                prefix += qsize
                if qid == uid:
                    break
            out["subq"].setdefault(uid, {})[t] = (
                prefix if uid in remaining else 0)
    return out


def evacuation_slot(replay, unit_id):
    """t_e: slot the unit finished transmitting, INF if dropped or never out."""
    if unit_id in replay["dropped"]:
        return INF
    return replay["done"].get(unit_id, INF)


def last_full_slot(replay, unit_id, capacity, t0):
    """Last slot with a full queue strictly before the unit's evacuation."""
    t_e = evacuation_slot(replay, unit_id)
    if unit_id in replay["dropped"]:
        t_e = replay["dropped"][unit_id]
    full = [t for t, q in replay["queue"].items()
            if q == capacity and t0 <= t < t_e]
    return max(full) if full else t0


def exhaustive_min_cost_delay(attackable, costs, target_slot, unit_id,
                              replay_fn):
    """Search every subset of attackable slots for the cheapest delay.

    replay_fn(y_slots) must return a fifo_replay result. Feasible means the
    unit's evacuation lands strictly after target_slot. Returns
    (min_cost, best_subset) or (None, None) when no subset is feasible.
    """
    slots = sorted(attackable)
    best_cost, best = None, None
    for r in range(len(slots) + 1):
        for combo in itertools.combinations(slots, r):
            if evacuation_slot(replay_fn(frozenset(combo)), unit_id) > target_slot:
                cost = sum(costs[t] for t in combo)
                if best_cost is None or cost < best_cost:
                    best_cost, best = cost, combo
    return best_cost, best


def min_plus_delay_cost(inflow, transmissible, price, volume, end_byte, t0,
                        target_slot):
    """The least cost of blocking slots so the unit whose last byte is
    stream byte end_byte - 1 is still aboard after target_slot, from the
    cumulative curves; exact while no blocking set drops bytes.

    inflow maps each slot to the bytes joining the queue there (units
    aboard at t0 join at t0), transmissible lists the slots that may send
    volume bytes, and price maps each attackable slot to its cost. With
    A(s) the bytes joined through slot s (A(t0 - 1) = 0) and N(s, D] the
    open slots in (s, D], a FIFO queue has sent min over s in [t0 - 1, D]
    of A(s) + volume * N(s, D] bytes by the end of slot D (Lindley's
    recursion in min-plus form). So the unit outlasts D exactly when, for
    some s with A(s) < end_byte, at least k_s = N(s, D] - ceil((end_byte -
    A(s)) / volume) + 1 slots of (s, D] are blocked; the least cost is the
    least, over s, of the k_s cheapest attackable slots in (s, D].
    Returns None if no s has enough attackable slots.
    """
    best = None
    joined = 0
    for s in range(t0 - 1, target_slot + 1):
        joined += inflow.get(s, 0) if s >= t0 else 0
        if joined >= end_byte:
            break  # A only grows: no later s can hold the unit back
        opened = sum(1 for t in transmissible if s < t <= target_slot)
        needed = opened + 1 - -(-(end_byte - joined) // volume)
        prices = sorted(cost for t, cost in price.items() if s < t <= target_slot)
        if needed <= len(prices):
            cost = float(sum(prices[:max(needed, 0)]))
            best = cost if best is None else min(best, cost)
    return best


def exhaustive_overflow(attackable, unit_id, replay_fn):
    """All subsets of attackable slots that drop the unit.

    Returns a list of (drop_slot, subset) over every feasible subset.
    """
    slots = sorted(attackable)
    found = []
    for r in range(len(slots) + 1):
        for combo in itertools.combinations(slots, r):
            rep = replay_fn(frozenset(combo))
            if unit_id in rep["dropped"]:
                found.append((rep["dropped"][unit_id], combo))
    return found


def brute_force_assignment(cost):
    """Max-cardinality min-cost assignment by enumeration; INF forbids a pair.

    cost: list of rows (list of numbers, math.inf marks a forbidden pair).
    Returns (pairs, total) where pairs is the lexicographically smallest
    optimal (row, col) sequence. pairs is empty when nothing is assignable.
    """
    n, m = len(cost), len(cost[0]) if cost else 0
    best = None
    for k in range(min(n, m), -1, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                if any(cost[r][c] == INF for r, c in zip(rows, cols)):
                    continue
                total = sum(cost[r][c] for r, c in zip(rows, cols))
                pairs = tuple(sorted(zip(rows, cols)))
                cand = (total, pairs)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            return list(best[1]), best[0]
    return [], 0


def hungarian_schedule(scenario, windows):
    """The antenna schedule as one Hungarian solve per target window slot.

    For each slot where the target has a contact window: a row per
    low-priority satellite in contact, a column per antenna of each station
    they see, both in id order, costed by `math.dist` slant range, and
    `inf` where a satellite does not see a station. Positions come from
    `scheduler.propagate` and the solve from `scheduler.hungarian`, read at
    call time, so a monkeypatch of either reaches this too.
    Returns (slot, station serving the target or None,
    ((station_id, idle antennas), ...) over the target's stations) per slot.
    """
    from orbitsiege import scheduler

    low = {s.id: s for s in scenario.low_satellites}
    stations = {st.id: st for st in scenario.stations}
    target_id = scenario.target.satellite_id
    in_slot = {}
    for slot, sat, station, _ in windows.rows():
        in_slot.setdefault(slot, set()).add((sat, station))
    tracks = {}
    schedules = []
    for t in sorted(t for t, seen in in_slot.items() if any(s == target_id for s, _ in seen)):
        seen = {(sat, station) for sat, station in in_slot[t] if sat in low}
        sats = sorted({sat for sat, _ in seen})
        antennas = [station for station in sorted({station for _, station in seen})
                    for _ in range(stations[station].antenna_count)]
        for sat in sats:
            if sat not in tracks:
                tracks[sat] = scheduler.propagate(low[sat], scenario.time)
        matrix = [[math.dist(tracks[sat][t].tolist(),
                             scheduler.station_ecef_m(stations[station]))
                   if (sat, station) in seen else INF for station in antennas]
                  for sat in sats]
        pairs, _ = scheduler.hungarian(matrix)
        used = {}
        for _, c in pairs:
            used[antennas[c]] = used.get(antennas[c], 0) + 1
        serving = next((antennas[c] for r, c in pairs if sats[r] == target_id), None)
        visible = sorted(station for sat, station in seen if sat == target_id)
        schedules.append((t, serving, tuple(
            (station, stations[station].antenna_count - used.get(station, 0))
            for station in visible)))
    return schedules


MU_M3_S2 = 3.986004418e14
R_EARTH_M = 6_371_000.0
GMST_J2000_DEG = 280.46061837
GMST_RATE_DEG_PER_DAY = 360.98564736629


def scan_contact_slots(inclination_deg, raan_deg, arg_perigee_deg,
                       mean_anomaly_deg, mean_motion_rev_per_day,
                       epoch_to_j2000_s, lat_deg, lon_deg, alt_m,
                       slot_seconds, n_slots, min_elev_deg,
                       samples_per_slot=1):
    """Scan every slot of the horizon for visibility, scalar math only.

    epoch_to_j2000_s: seconds from J2000 to the scenario epoch; element epoch
    is taken equal to the scenario epoch (offsets fold into mean_anomaly_deg).
    With samples_per_slot=1 each slot is judged at its midpoint; more samples
    mark the slot visible when any sample clears the threshold.

    Returns {slot: max elevation over that slot's samples, visible only}.
    """
    n_rad_s = mean_motion_rev_per_day * 2.0 * math.pi / 86400.0
    a = (MU_M3_S2 / (n_rad_s * n_rad_s)) ** (1.0 / 3.0)
    inc = math.radians(inclination_deg)
    raan = math.radians(raan_deg)
    u0 = math.radians(arg_perigee_deg + mean_anomaly_deg)

    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    r_st = R_EARTH_M + alt_m
    sx = r_st * math.cos(lat) * math.cos(lon)
    sy = r_st * math.cos(lat) * math.sin(lon)
    sz = r_st * math.sin(lat)

    out = {}
    for slot in range(n_slots):
        best = None
        for k in range(samples_per_slot):
            frac = (k + 0.5) / samples_per_slot if samples_per_slot > 1 else 0.5
            t = (slot + frac) * slot_seconds
            u = u0 + n_rad_s * t
            xp, yp = a * math.cos(u), a * math.sin(u)
            xi = xp * math.cos(raan) - yp * math.cos(inc) * math.sin(raan)
            yi = xp * math.sin(raan) + yp * math.cos(inc) * math.cos(raan)
            zi = yp * math.sin(inc)
            theta = math.radians(
                (GMST_J2000_DEG
                 + GMST_RATE_DEG_PER_DAY * (epoch_to_j2000_s + t) / 86400.0)
                % 360.0)
            x = xi * math.cos(theta) + yi * math.sin(theta)
            y = -xi * math.sin(theta) + yi * math.cos(theta)
            lx, ly, lz = x - sx, y - sy, zi - sz
            dot = lx * sx + ly * sy + lz * sz
            los = math.sqrt(lx * lx + ly * ly + lz * lz)
            elev = math.degrees(math.asin(
                max(-1.0, min(1.0, dot / (los * r_st)))))
            if best is None or elev > best:
                best = elev
        if best >= min_elev_deg:
            out[slot] = best
    return out


def dense_contact_windows(scenario):
    """Contact windows from the elevation of every (slot, station) pair of
    every satellite, none culled: the slot, satellite id rank, station id
    rank and elevation columns, sorted by slot, satellite id and station id.
    """
    from orbitsiege.orbit import propagate, station_ecef_m

    columns = ([np.empty(0, np.intp)], [np.empty(0, np.intp)],
               [np.empty(0, np.intp)], [np.empty(0)])
    if scenario.stations:
        station_pos = np.array([station_ecef_m(st) for st in scenario.stations])
        zenith = station_pos / np.linalg.norm(station_pos, axis=1, keepdims=True)
        thresholds = np.array([st.min_elevation_deg for st in scenario.stations])
        for index, sat in enumerate(scenario.satellites):
            pos = propagate(sat, scenario.time)
            los = pos[:, None, :] - station_pos[None, :, :]
            los_norm = np.linalg.norm(los, axis=2)
            sin_elev = np.einsum("tsk,sk->ts", los, zenith) / los_norm
            elev = np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))
            slot_idx, st_idx = np.nonzero(elev >= thresholds[None, :])
            for column, part in zip(columns, (slot_idx, np.full(len(slot_idx), index),
                                              st_idx, elev[slot_idx, st_idx])):
                column.append(part)
    slot, satellite, station, elevation = map(np.concatenate, columns)
    sat_ids = [s.id for s in scenario.satellites]
    st_ids = [st.id for st in scenario.stations]
    satellite = np.array([sorted(sat_ids).index(sid) for sid in sat_ids], dtype=np.intp)[satellite]
    station = np.array([sorted(st_ids).index(sid) for sid in st_ids], dtype=np.intp)[station]
    order = np.lexsort((station, satellite, slot))
    return slot[order], satellite[order], station[order], elevation[order]


def contact_windows(satellite_ids, station_ids, slot, satellite, station, elevation_deg):
    """ContactWindows of columns in any order, whose `satellite` and
    `station` index these ids: the ids put in id order, and the rows sorted
    by (slot, satellite id, station id), the first of a repeated contact
    kept."""
    from orbitsiege import ContactWindows

    rows = {}
    for t, i, j, elevation in zip(np.asarray(slot).tolist(), np.asarray(satellite).tolist(),
                                  np.asarray(station).tolist(),
                                  np.asarray(elevation_deg, dtype=float).tolist()):
        rows.setdefault((t, satellite_ids[i], station_ids[j]), elevation)
    satellite_ids, station_ids = sorted(satellite_ids), sorted(station_ids)
    keys = sorted(rows)
    return ContactWindows(
        tuple(satellite_ids), tuple(station_ids), np.array([t for t, _, _ in keys], np.int64),
        np.array([satellite_ids.index(sid) for _, sid, _ in keys], np.intp),
        np.array([station_ids.index(sid) for _, _, sid in keys], np.intp),
        np.array([rows[key] for key in keys], float))


WINDOW_HEADER = ["slot", "satellite_id", "station_id", "elevation_deg"]


class RowError(Exception):
    """The reference window loader's verdict on a bad file: `kind` names the
    package error type the fast loader must raise, with the same message."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def load_window_rows(path, satellite_ids, station_min, last_slot):
    """Read a contact-window CSV one row at a time, in the one grammar the
    writer writes: lines end at LF, with one CR before an LF dropped; cells
    lie between commas, unquoted; a slot is `-?[0-9]{1,18}`, an elevation
    is what `float()` reads, and ids are compared as text.

    A row whose cells pass must come after the row before it in (slot,
    satellite id, station id) order, ids compared as Python strings, which
    is their UTF-8 byte order: so each contact is one row.

    satellite_ids: the ids a row may name; station_min: station id ->
    minimum elevation in degrees; last_slot: the last slot of the horizon.
    Returns (slot, satellite_id, station_id, elevation_deg) tuples in file
    order, or raises RowError for the first bad row.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise RowError("IoError", f"cannot read windows {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise RowError("ParseError", f"{path}: not UTF-8 text: {exc}")
    *ended, last = text.split("\n")  # `last` is the text after the last LF
    lines = [line[:-1] if line.endswith("\r") else line for line in ended]
    lines += [last] if last else []
    if not lines or lines[0] != ",".join(WINDOW_HEADER):
        raise RowError("ParseError", f"{path}: expected header {','.join(WINDOW_HEADER)}")
    windows = []
    for line_no, line in enumerate(lines[1:], start=2):
        where = f"{path}:{line_no}"
        row = line.split(",")
        if len(row) != 4:
            raise RowError("ParseError", f"{where}: expected 4 columns")
        try:
            if not re.fullmatch("-?[0-9]{1,18}", row[0]):
                raise ValueError(row[0])
            slot = int(row[0])
            elev = float(row[3])
        except ValueError:
            raise RowError("ParseError", f"{where}: slot or elevation is not a number")
        if not math.isfinite(elev):
            raise RowError("ParseError", f"{where}: elevation is not finite")
        if not 0 <= slot <= last_slot:
            raise RowError("OutOfHorizon", f"{where}: slot {slot} outside horizon")
        if row[1] not in satellite_ids:
            raise RowError("ValidationError", f"{where}: unknown satellite {row[1]}")
        if row[2] not in station_min:
            raise RowError("ValidationError", f"{where}: unknown station {row[2]}")
        if elev < station_min[row[2]]:
            raise RowError("ValidationError", f"{where}: elevation below station threshold")
        if elev > 90.0:
            raise RowError("ValidationError", f"{where}: elevation above 90 degrees")
        if windows and (slot, row[1], row[2]) <= windows[-1][:3]:
            raise RowError("ParseError", f"{where}: row not after the row before it")
        windows.append((slot, row[1], row[2], elev))
    return windows


def count_ladder(rows, schedules, target_id, high_ids, horizon, price):
    """Attackability by the distinct-high-satellite count, slot by slot.

    rows: (slot, satellite_id, station_id, elevation_deg) contact windows.
    schedules: (slot, station serving the target or None,
    ((station_id, idle), ...)).
    Returns (slot, transmissible, attackable, required, cost) per slot.
    """
    target_stations = {}
    high_visible = {}
    for slot, sat, station, _ in rows:
        if sat == target_id:
            target_stations.setdefault(slot, set()).add(station)
        elif sat in high_ids:
            high_visible.setdefault((slot, station), set()).add(sat)
    by_slot = {slot: (serving, idle) for slot, serving, idle in schedules}
    ladder = []
    for t in range(horizon):
        if t not in by_slot or by_slot[t][0] is None:
            ladder.append((t, False, False, 0, INF))
            continue
        visible = target_stations.get(t, set())
        required = 1 + sum(n for station, n in by_slot[t][1] if station in visible)
        highs = set()
        for station in visible:
            highs |= high_visible.get((t, station), set())
        attackable = len(highs) >= required
        ladder.append((t, True, attackable, required, price * required if attackable else INF))
    return ladder


# sweep draws are clipped at this ratio of their nominal value
TRUNCATION_RATIO = 0.1


def resample(rng, nominal, std_ratio):
    """Gaussian around each nominal value, clipped at the truncation floor,
    at least 1; one rng.normal draw per element, in order. Raises
    ValueError rather than wrap a value past the int64 range."""
    nominal = np.asarray(nominal, dtype=float)
    draw = rng.normal(nominal, std_ratio * nominal)
    floor = np.maximum(draw, TRUNCATION_RATIO * nominal)
    value = np.maximum(1, np.rint(floor))
    if value.max(initial=1) >= 2.0**63:
        raise ValueError("resampled value exceeds the int64 byte range")
    return value.astype(np.int64)


def perturb_trial(layout, noise, rng):
    """One Monte-Carlo trial's true world, drawn on its own from rng:
    (volume_bytes, head shift, unit sizes in stream order).

    layout has the fields of `evaluation.TrialLayout`. Draw order: downlink
    rate, then the initial-queue length shift, then one size per unit of the
    shifted stream. A positive shift puts units of the head's nominal size
    at the head; a negative one removes head units, at most
    layout.removable. The shift returned is the one applied.
    """
    rate = int(resample(rng, layout.rate_bps, noise))
    # an empty queue has std 0, so only a non-empty one ever grows
    shift = int(round(rng.normal(0.0, noise * layout.initial)))
    nominal = layout.sizes
    if shift > 0:
        nominal = np.concatenate([np.full(shift, nominal[0]), nominal])
    elif shift < 0:
        shift = -min(-shift, layout.removable)
        nominal = nominal[-shift:]
    sizes = resample(rng, nominal, noise)
    return rate * layout.slot_seconds // 8, shift, sizes


def trial_row(layout, draw, judged):
    """One trial's row of the queue recurrence: (inflow per slot, volume,
    start, end), where [start, end) are the stream bytes of the units at
    nominal stream indices judged. Raises ValueError, as building the
    trial's queue world would, for a world it cannot hold."""
    volume, shift, sizes = draw
    if volume <= 0:
        raise ValueError("volume_bytes must be positive")
    if sizes.min(initial=1) <= 0:
        raise ValueError("unit sizes must be positive")
    stream = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=stream[1:])
    # int64 must not wrap: every running total exceeds the one before
    if not (stream[1:] > stream[:-1]).all():
        raise ValueError("unit sizes overflow the int64 byte stream")
    inflow = np.zeros(len(layout.open_slots), dtype=np.int64)
    inflow[layout.join_slots] = np.diff(stream[layout.slot_ends + shift], prepend=0)
    # a volume beyond every byte aboard moves the same bytes as that total
    return (inflow, min(volume, int(stream[-1])), stream[judged + shift],
            stream[judged + shift + 1])


# The scenario parser as it stood before its one-pass rewrite: one helper
# call per field, each building its own `where` text, then a validation
# pass that walks the trace once for its own checks and again for the
# target's. A trace given as a CSV path is read by the package's own
# `_load_trace_csv`, which has its own tests.

def _parse_utc(text: str, where: str) -> datetime:
    """Parse an ISO 8601 timestamp; naive values are taken as UTC."""
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        # an offset can carry a date such as 0001-01-01 out of range in UTC
        return ts.astimezone(timezone.utc)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{where}: bad timestamp {text!r}") from exc


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}.{key}: missing")
    return obj[key]


def _obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false, got {type(value).__name__}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {type(value).__name__}")
    return value


def _float(value, where: str) -> float:
    """A JSON number as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where}: must be finite")
    return number


def _int(value, where: str) -> int:
    """A JSON integer that is finite as a float; a float must have no fraction."""
    if type(value) is int:  # not a bool, which is an int subclass
        if value.bit_length() > 1023:  # from 2**1023 on, it may overflow a float
            _float(value, where)
        return value
    number = _float(value, where)
    if not number.is_integer():
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return int(number)


def _parse_orbit(obj: dict | None, where: str) -> TleElements | None:
    if obj is None:
        return None
    obj = _obj(obj, where)

    def number(key, default=None):
        value = _require(obj, key, where) if default is None else obj.get(key, default)
        return _float(value, f"{where}.{key}")

    return TleElements(
        inclination_deg=number("inclination_deg"),
        raan_deg=number("raan_deg"),
        eccentricity=number("eccentricity", 0.0),
        arg_perigee_deg=number("arg_perigee_deg", 0.0),
        mean_anomaly_deg=number("mean_anomaly_deg"),
        mean_motion_rev_per_day=number("mean_motion_rev_per_day"),
        epoch=_parse_utc(_require(obj, "epoch", where), where),
    )


def _parse_initial_queue(obj: dict | None, sat_id: str) -> tuple[DataUnit, ...]:
    if obj is None:
        return ()
    where = f"satellite {sat_id}.initial_queue"
    obj = _obj(obj, where)
    if "unit_sizes" in obj:
        label = f"{where}.unit_sizes"
        cells = _list(obj["unit_sizes"], label)
        count = len(cells)
    else:
        label = f"{where}.count"
        count = _int(_require(obj, "count", where), label)
        size = _int(_require(obj, "unit_size_bytes", where), f"{where}.unit_size_bytes")
    if not 0 <= count <= MAX_QUEUE_UNITS:
        raise ValidationError(f"{label}: {count} units, outside [0, {MAX_QUEUE_UNITS}]")
    sizes = [_int(s, label) for s in cells] if "unit_sizes" in obj else [size] * count
    return tuple(
        DataUnit(f"init-{i:03d}", sat_id, 0, size)
        for i, size in enumerate(sizes, start=1)
    )


def _parse_trace_rows(rows: list, grid: TimeGrid) -> list[DataUnit]:
    units = []
    for i, row in enumerate(_list(rows, "trace")):
        where = f"trace[{i}]"
        row = _obj(row, where)
        if "capture_slot" in row:
            slot = _int(row["capture_slot"], where)
        else:
            slot = grid.slot_of(_parse_utc(_require(row, "capture_iso8601", where), where))
        units.append(DataUnit(
            unit_id=_str(_require(row, "unit_id", where), f"{where}.unit_id"),
            satellite_id=_str(_require(row, "satellite_id", where), f"{where}.satellite_id"),
            capture_slot=slot,
            size_bytes=_int(_require(row, "size_bytes", where), where),
        ))
    return units


def _parse_attackability(rows: list | None) -> tuple[AttackabilityRecord, ...] | None:
    if rows is None:
        return None
    records = []
    for i, row in enumerate(_list(rows, "attackability")):
        where = f"attackability[{i}]"
        row = _obj(row, where)
        cost = row.get("cost")
        records.append(AttackabilityRecord(
            slot=_int(_require(row, "slot", where), f"{where}.slot"),
            transmissible=_bool(row.get("transmissible", False), f"{where}.transmissible"),
            attackable=_bool(row.get("attackable", False), f"{where}.attackable"),
            required_high_priority=_int(row.get("required_high", 0), f"{where}.required_high"),
            cost=_float(cost, f"{where}.cost") if cost is not None else math.inf,
        ))
    records.sort(key=lambda r: r.slot)
    return tuple(records)


def _validate(scenario: ConstellationScenario) -> None:
    grid = scenario.time
    ids = [s.id for s in scenario.satellites]
    if len(set(ids)) != len(ids):
        raise ValidationError("satellites: duplicate id")
    if len(set(st.id for st in scenario.stations)) != len(scenario.stations):
        raise ValidationError("stations: duplicate id")

    known = set(ids)
    per_sat_last_slot: dict[str, int] = {}
    per_sat_seen: dict[str, set] = {}
    for unit in scenario.trace:
        if unit.satellite_id not in known:
            raise ValidationError(f"unit {unit.unit_id}: unknown satellite {unit.satellite_id}")
        if not 0 <= unit.capture_slot <= grid.last_slot:
            raise ValidationError(f"unit {unit.unit_id}: capture_slot outside horizon")
        seen = per_sat_seen.setdefault(unit.satellite_id, set())
        if unit.unit_id in seen:
            raise ValidationError(f"unit {unit.unit_id}: duplicate id on {unit.satellite_id}")
        seen.add(unit.unit_id)
        last = per_sat_last_slot.get(unit.satellite_id)
        if last is not None and unit.capture_slot < last:
            raise ValidationError(
                f"unit {unit.unit_id}: capture order regresses on {unit.satellite_id}")
        per_sat_last_slot[unit.satellite_id] = unit.capture_slot

    for sid, units in scenario.initial_queue:
        if sid not in known:
            raise ValidationError(f"initial_queue: unknown satellite {sid}")
        for unit in units:
            if unit.unit_id in per_sat_seen.get(sid, set()):
                raise ValidationError(f"unit {unit.unit_id}: clashes with trace id on {sid}")

    target = scenario.target
    sat = scenario.satellite(target.satellite_id)
    if sat.priority != "low":
        raise ValidationError("target.satellite_id: must be a low-priority satellite")
    if not 0 <= target.attack_start_slot <= grid.last_slot:
        raise ValidationError("target.attack_start_slot: outside horizon")
    order = {u.unit_id: i for i, u in enumerate(scenario.fifo_units(target.satellite_id))}
    for uid in target.target_unit_ids:
        if uid not in order:
            raise ValidationError(f"target unit {uid}: not in trace of {target.satellite_id}")
    # pre-start captures on the target satellite belong to the initial queue
    for unit in scenario.trace_for(target.satellite_id):
        if unit.capture_slot < target.attack_start_slot:
            raise ValidationError(
                f"unit {unit.unit_id}: captured before attack_start_slot on target satellite")
    positions = [order[uid] for uid in target.target_unit_ids]
    if positions != sorted(positions):
        raise ValidationError("target.target_unit_ids: not in capture order")
    if target.target_downlink_slot is not None:
        if not target.attack_start_slot < target.target_downlink_slot <= grid.last_slot:
            raise ValidationError("target.target_downlink_slot: outside (attack start, horizon]")

    if scenario.attackability is not None:
        seen_slots = set()
        for rec in scenario.attackability:
            if not 0 <= rec.slot <= grid.last_slot:
                raise ValidationError(f"attackability slot {rec.slot}: outside horizon")
            if rec.slot in seen_slots:
                raise ValidationError(f"attackability slot {rec.slot}: duplicate")
            seen_slots.add(rec.slot)


def reference_scenario_from_dict(obj: dict, base_dir: str = ".") -> ConstellationScenario:
    """Build and validate a scenario from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ParseError("scenario: top level must be an object")
    time_obj = _obj(_require(obj, "time", "scenario"), "time")
    grid = TimeGrid(
        epoch=_parse_utc(_require(time_obj, "epoch", "time"), "time.epoch"),
        slot_seconds=_int(time_obj.get("slot_seconds", DEFAULT_SLOT_SECONDS),
                          "time.slot_seconds"),
        horizon_slots=_int(_require(time_obj, "horizon_slots", "time"), "time.horizon_slots"),
    )

    satellites = []
    initial_queue = []
    for i, sat_obj in enumerate(_list(_require(obj, "satellites", "scenario"), "satellites")):
        where = f"satellites[{i}]"
        sat_obj = _obj(sat_obj, where)
        sat_id = _str(_require(sat_obj, "id", where), f"{where}.id")
        priority = _str(sat_obj.get("priority", "low"), f"{where}.priority")
        default_capacity = DEFAULT_CAPACITY_BYTES if priority == "low" else 0
        satellites.append(SatelliteSpec(
            id=sat_id,
            priority=priority,
            orbit=_parse_orbit(sat_obj.get("orbit"), f"{where}.orbit"),
            capacity_bytes=_int(sat_obj.get("capacity_bytes", default_capacity),
                                f"{where}.capacity_bytes"),
            downlink_rate_bps=_int(sat_obj.get("downlink_rate_bps", DEFAULT_DOWNLINK_RATE_BPS),
                                   f"{where}.downlink_rate_bps"),
        ))
        units = _parse_initial_queue(sat_obj.get("initial_queue"), sat_id)
        if units:
            initial_queue.append((sat_id, units))

    stations = []
    for i, st_obj in enumerate(_list(obj.get("stations", []), "stations")):
        where = f"stations[{i}]"
        st_obj = _obj(st_obj, where)
        stations.append(GroundStationSpec(
            id=_str(_require(st_obj, "id", where), f"{where}.id"),
            latitude_deg=_float(_require(st_obj, "latitude_deg", where), f"{where}.latitude_deg"),
            longitude_deg=_float(_require(st_obj, "longitude_deg", where),
                                 f"{where}.longitude_deg"),
            altitude_m=_float(st_obj.get("altitude_m", 0.0), f"{where}.altitude_m"),
            antenna_count=_int(st_obj.get("antenna_count", DEFAULT_ANTENNA_COUNT),
                               f"{where}.antenna_count"),
            min_elevation_deg=_float(st_obj.get("min_elevation_deg", DEFAULT_MIN_ELEVATION_DEG),
                                     f"{where}.min_elevation_deg"),
        ))

    trace_obj = _require(obj, "trace", "scenario")
    if isinstance(trace_obj, str):
        trace = _load_trace_csv(os.path.join(base_dir, trace_obj), grid)
    else:
        trace = _parse_trace_rows(trace_obj, grid)

    target_obj = _obj(_require(obj, "target", "scenario"), "target")
    budget = target_obj.get("cost_budget")
    deadline = target_obj.get("target_downlink_slot")
    target = TargetSpec(
        satellite_id=_str(_require(target_obj, "satellite_id", "target"), "target.satellite_id"),
        target_unit_ids=tuple(_str(u, "target.target_unit_ids") for u in _list(
            _require(target_obj, "target_unit_ids", "target"), "target.target_unit_ids")),
        attack_start_slot=_int(target_obj.get("attack_start_slot", 0), "target.attack_start_slot"),
        target_downlink_slot=(_int(deadline, "target.target_downlink_slot")
                              if deadline is not None else None),
        cost_budget=_float(budget, "target.cost_budget") if budget is not None else None,
    )

    costs_obj = _obj(obj.get("costs", {}), "costs")
    costs = CostModel(unit_task_price=_float(
        costs_obj.get("unit_task_price", DEFAULT_UNIT_TASK_PRICE), "costs.unit_task_price"))

    scenario = ConstellationScenario(
        time=grid,
        satellites=tuple(satellites),
        stations=tuple(stations),
        trace=tuple(trace),
        target=target,
        costs=costs,
        seed=_int(obj.get("seed", 0), "seed"),
        initial_queue=tuple(initial_queue),
        attackability=_parse_attackability(obj.get("attackability")),
    )
    _validate(scenario)
    return scenario
