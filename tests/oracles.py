"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: unit-level FIFO replay, exhaustive
subset search, permutation brute force, dense-grid geometry, a row-by-row
window CSV reader. These trade
speed for obviousness and serve as ground truth for the fast paths in
``orbitsiege``. None of them import the package.
"""

import itertools
import math

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


WINDOW_HEADER = ["slot", "satellite_id", "station_id", "elevation_deg"]


class RowError(Exception):
    """The reference window loader's verdict on a bad file: `kind` names the
    package error type the fast loader must raise, with the same message."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def load_window_rows(path, satellite_ids, station_min, last_slot):
    """Read a contact-window CSV one row at a time through csv.reader.

    satellite_ids: the ids a row may name; station_min: station id ->
    minimum elevation in degrees; last_slot: the last slot of the horizon.
    Returns (slot, satellite_id, station_id, elevation_deg) tuples stably
    sorted by their first three fields, or raises RowError for the first
    bad row.
    """
    import csv

    windows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != WINDOW_HEADER:
                raise RowError("ParseError",
                               f"{path}: expected header {','.join(WINDOW_HEADER)}")
            for line_no, row in enumerate(reader, start=2):
                where = f"{path}:{line_no}"
                if len(row) != 4:
                    raise RowError("ParseError", f"{where}: expected 4 columns")
                try:
                    slot = int(row[0])
                    elev = float(row[3])
                except ValueError:
                    raise RowError("ParseError",
                                   f"{where}: slot or elevation is not a number")
                if not math.isfinite(elev):
                    raise RowError("ParseError", f"{where}: elevation is not finite")
                if not 0 <= slot <= last_slot:
                    raise RowError("OutOfHorizon", f"{where}: slot {slot} outside horizon")
                if row[1] not in satellite_ids:
                    raise RowError("ValidationError", f"{where}: unknown satellite {row[1]}")
                if row[2] not in station_min:
                    raise RowError("ValidationError", f"{where}: unknown station {row[2]}")
                if elev < station_min[row[2]]:
                    raise RowError("ValidationError",
                                   f"{where}: elevation below station threshold")
                if elev > 90.0:
                    raise RowError("ValidationError",
                                   f"{where}: elevation above 90 degrees")
                windows.append((slot, row[1], row[2], elev))
    except OSError as exc:
        raise RowError("IoError", f"cannot read windows {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise RowError("ParseError", f"{path}: not UTF-8 text: {exc}")
    windows.sort(key=lambda w: w[:3])
    return windows


def count_ladder(rows, schedules, target_id, high_ids, horizon, price):
    """Attackability by the distinct-high-satellite count, slot by slot.

    rows: (slot, satellite_id, station_id, elevation_deg) contact windows.
    schedules: (slot, served satellite ids, ((station_id, idle), ...)).
    Returns (slot, transmissible, attackable, required, cost) per slot.
    """
    target_stations = {}
    high_visible = {}
    for slot, sat, station, _ in rows:
        if sat == target_id:
            target_stations.setdefault(slot, set()).add(station)
        elif sat in high_ids:
            high_visible.setdefault((slot, station), set()).add(sat)
    by_slot = {slot: (served, idle) for slot, served, idle in schedules}
    ladder = []
    for t in range(horizon):
        if t not in by_slot or target_id not in by_slot[t][0]:
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
