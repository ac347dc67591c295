"""Onboard FIFO queue evolution.

One engine tracks only byte counts. Per slot it applies arrivals, then
transmission of up to one slot volume from the head, then the capacity drop
from the head with the round-up rule (a positive drop smaller than one slot
volume is raised to a full slot volume, bounded by what is aboard).

Every unit's fate follows from those counts, because bytes always leave from
the head (the cumulative-curve view of a FIFO). Unit k holds bytes
[P[k-1], P[k]) of the arrival stream, where P is the running total of unit
sizes. Let a be the first slot whose removals reach past P[k-1] and b the
first slot whose transmission ends at or past P[k]. The unit is lost at the
first slot in [a, b) that drops bytes, and otherwise downlinked at b: each
unit gets exactly one event, at the slot its first byte is dropped or its
last byte is transmitted, or none if it is still aboard at the horizon.

`evolve` runs that recurrence on one world with Python integers and keeps
the curves, for the planners and `simulate`. `evolve_rows` runs the same
rule on many worlds at once, one int64 row each, and reads the fates of a
few units per row as it goes without storing any curve; the Monte-Carlo
sweep judges all trials of a point in one call.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .scenario import ConstellationScenario

INF = math.inf


def per_slot_capacity(scenario: ConstellationScenario, satellite_id: str | None = None) -> int:
    """Transmissible bytes per slot: floor(rate * slot_seconds / 8)."""
    sat_id = satellite_id or scenario.target.satellite_id
    sat = scenario.satellite(sat_id)
    return sat.downlink_rate_bps * scenario.time.slot_seconds // 8


@dataclass(frozen=True)
class QueueWorld:
    """Everything the queue evolution depends on besides the attack strategy."""

    initial_units: tuple[tuple[str, int], ...]
    arrivals: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]
    transmissible: frozenset[int]
    capacity_bytes: int
    volume_bytes: int
    t0: int
    horizon: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValidationError("capacity_bytes must be positive")
        if self.volume_bytes <= 0:
            raise ValidationError("volume_bytes must be positive")
        if not 0 <= self.t0 <= self.horizon:
            raise ValidationError("t0 must lie within [0, horizon]")
        slots = [t for t, _ in self.arrivals]
        if slots != sorted(set(slots)):
            raise ValidationError("arrival slots must be strictly increasing")
        if slots and not self.t0 <= slots[0] <= slots[-1] <= self.horizon:
            raise ValidationError("arrival slots must lie within [t0, horizon]")
        units = [*self.initial_units, *(u for _, group in self.arrivals for u in group)]
        if any(size <= 0 for _, size in units):
            raise ValidationError("unit sizes must be positive")
        if len({uid for uid, _ in units}) != len(units):
            raise ValidationError("unit ids must be unique")

    @cached_property
    def byte_ranges(self) -> dict[str, tuple[int, int, int]]:
        """Unit id -> (slot it joins, first byte, end byte) in the arrival
        stream, head first; units aboard at t0 join at t0, ahead of that
        slot's arrivals."""
        ranges = {}
        end = 0
        for t, group in ((self.t0, self.initial_units), *self.arrivals):
            for uid, size in group:
                ranges[uid] = (t, end, end + size)
                end += size
        return ranges

    @cached_property
    def inflow(self) -> dict[int, int]:
        """Bytes joining the queue per slot."""
        inflow: dict[int, int] = {}
        for t, start, end in self.byte_ranges.values():
            inflow[t] = inflow.get(t, 0) + end - start
        return inflow


def _departure(tx_end: list[int], removed: list[int], drops: list[int],
               start: int, end: int) -> tuple[int, bool]:
    """Slot index at which the unit holding stream bytes [start, end) leaves,
    and whether it is dropped there; len(tx_end) if it is still aboard."""
    a = bisect_right(removed, start)
    b = bisect_left(tx_end, end)
    j = bisect_left(drops, a)
    if j < len(drops) and drops[j] < b:
        return drops[j], True
    return b, False


@dataclass(frozen=True)
class QueueTrace:
    """Evolution over [t0, horizon] plus the tracked units' landmarks.

    Slot t0 + i ends with queue_bytes[i] aboard. tx_end[i] and removed[i]
    count the stream bytes gone after that slot's transmission and after its
    drop; drops lists the indices of the slots that dropped bytes.

    evacuation maps a tracked unit to the slot its last byte was transmitted,
    or infinity if it was dropped or is still aboard at the horizon.
    drop_slot is the slot its first byte was dropped. last_full is the latest
    slot before the unit leaves, by evacuation or drop, at which the queue sat
    exactly at capacity, defaulting to t0.
    """

    world: QueueWorld
    queue_bytes: list[int]
    tx_end: list[int]
    removed: list[int]
    drops: list[int]
    evacuation: dict[str, float]
    last_full: dict[str, int]
    dropped: dict[str, bool]
    drop_slot: dict[str, int | None]

    @property
    def tx_bytes(self) -> list[int]:
        return [end - gone for end, gone in zip(self.tx_end, [0, *self.removed])]

    @property
    def drop_bytes(self) -> list[int]:
        return [gone - end for end, gone in zip(self.tx_end, self.removed)]

    def queue_at(self, slot: int) -> int:
        return self.queue_bytes[slot - self.world.t0]

    def t_e(self, unit_id: str) -> float:
        return self.evacuation[unit_id]

    def t_lb(self, unit_id: str) -> int:
        return self.last_full[unit_id]

    def subqueue(self, unit_id: str) -> list[int]:
        """Bytes at or ahead of the unit at the end of each slot, from the
        slot it joins until it leaves; zero outside that span, so a dropped
        unit's sub-queue is void even if some of its bytes stay aboard."""
        joins, start, end = self.world.byte_ranges[unit_id]
        first = joins - self.world.t0
        leaves, _ = _departure(self.tx_end, self.removed, self.drops, start, end)
        return ([0] * first + [end - self.removed[i] for i in range(first, leaves)]
                + [0] * (len(self.queue_bytes) - leaves))

    def events(self) -> list[tuple[int, str, str]]:
        """(slot, "transmitted" or "dropped", unit id) for every unit that
        leaves by the horizon. Units leave in stream order, so the list is
        ordered by slot, transmissions before drops within a slot."""
        rows = []
        for uid, (_, start, end) in self.world.byte_ranges.items():
            i, lost = _departure(self.tx_end, self.removed, self.drops, start, end)
            if i == len(self.queue_bytes):
                break
            rows.append((self.world.t0 + i, "dropped" if lost else "transmitted", uid))
        return rows


def evolve(world: QueueWorld, attacked: frozenset[int] | set[int],
           tracked: tuple[str, ...]) -> QueueTrace:
    """Evolve the queue over [t0, horizon]; attacked slots transmit nothing."""
    inflow, transmissible = world.inflow, world.transmissible
    capacity, volume = world.capacity_bytes, world.volume_bytes
    q = gone = 0
    queue_bytes: list[int] = []
    tx_end: list[int] = []
    removed: list[int] = []
    drops: list[int] = []
    full: list[int] = []
    for i, t in enumerate(range(world.t0, world.horizon + 1)):
        q += inflow.get(t, 0)
        if t in transmissible and t not in attacked:
            o = min(volume, q)
            q -= o
            gone += o
        tx_end.append(gone)
        if q > capacity:
            d = min(max(q - capacity, volume), q)
            q -= d
            gone += d
            drops.append(i)
        removed.append(gone)
        if q == capacity:
            full.append(i)
        queue_bytes.append(q)

    evacuation: dict[str, float] = {}
    last_full: dict[str, int] = {}
    dropped: dict[str, bool] = {}
    drop_slot: dict[str, int | None] = {}
    for uid in tracked:
        _, start, end = world.byte_ranges[uid]
        i, lost = _departure(tx_end, removed, drops, start, end)
        evacuation[uid] = INF if lost or i == len(queue_bytes) else world.t0 + i
        dropped[uid] = lost
        drop_slot[uid] = world.t0 + i if lost else None
        j = bisect_left(full, i)
        last_full[uid] = world.t0 + (full[j - 1] if j else 0)

    return QueueTrace(world, queue_bytes, tx_end, removed, drops,
                      evacuation, last_full, dropped, drop_slot)


def evolve_rows(inflow, open_slots, volume, capacity: int, start, end
                ) -> tuple[np.ndarray, np.ndarray]:
    """`evolve`'s per-slot rule on B queues at once, in int64.

    inflow is (B, T): bytes joining each row's queue in each of T slots.
    open_slots is a bool mask broadcastable to (B, T) of the slots that may
    transmit. volume is each row's per-slot volume and capacity the shared
    store size. start and end are (B, K): the stream bytes [start, end) of K
    units per row. The caller keeps every running total below 2**63.

    Returns (slot, lost), both (B, K). A lost unit's slot is the index of
    the slot its first byte was dropped; any other unit's is the index of the
    slot its last byte was transmitted, or T if it is still aboard. Only
    slots that receive bytes or may transmit in some row can change anything,
    so the others are skipped.
    """
    inflow = np.asarray(inflow, dtype=np.int64)
    rows, slots = inflow.shape
    open_slots = np.broadcast_to(np.asarray(open_slots, dtype=bool), inflow.shape)
    volume = np.asarray(volume, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    q = np.zeros(rows, dtype=np.int64)
    gone = np.zeros(rows, dtype=np.int64)
    slot = np.full(start.shape, slots, dtype=np.int64)
    lost = np.zeros(start.shape, dtype=bool)
    can_open = open_slots.any(axis=0)
    for i in np.flatnonzero(inflow.any(axis=0) | can_open):
        q += inflow[:, i]
        if can_open[i]:
            o = np.minimum(volume, q)
            if not open_slots[:, i].all():
                o *= open_slots[:, i]
            q -= o
            gone += o
            # the first slot whose transmission reaches the unit's end
            slot[(gone[:, None] >= end) & (slot == slots)] = i
        over = q > capacity
        if over.any():
            d = np.minimum(np.maximum(q - capacity, volume), q) * over
            q -= d
            gone += d
            # a drop that reaches past the unit's start before its end is
            # sent: a unit whose end went out has its slot set already
            hit = over[:, None] & (gone[:, None] > start) & (slot == slots)
            slot[hit] = i
            lost |= hit
    return slot, lost


TRACE_EVENT_HEADER = ["slot", "event", "unit_id"]


def trace_header(tracked: tuple[str, ...]) -> list[str]:
    return (["slot", "queue_bytes", "tx_bytes", "drop_bytes"]
            + [f"subq_{uid}_bytes" for uid in tracked])


def save_trace(path: str, trace: QueueTrace, tracked: tuple[str, ...],
               fmt: str = "csv") -> None:
    from .output import emit

    slots = range(trace.world.t0, trace.world.horizon + 1)
    columns = [slots, trace.queue_bytes, trace.tx_bytes, trace.drop_bytes,
               *(trace.subqueue(uid) for uid in tracked)]
    emit(path, trace_header(tracked), [list(row) for row in zip(*columns)], fmt)


def save_trace_events(path: str, trace: QueueTrace, fmt: str = "csv") -> None:
    from .output import emit

    emit(path, TRACE_EVENT_HEADER, [list(row) for row in trace.events()], fmt)
