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
the curves, for the attack layer and `simulate`. `evolve_rows` runs the same
rule on many worlds at once, one int64 row each, under one or more slot
masks, and reads the fates of a few units per row as it goes without storing
any curve; the Monte-Carlo sweep judges a batch of trials, without and with
the attack, in one call.

Both engines follow one run rule. Once the removals reach the last end byte
among the units a run tracks, every one of them has left, so nothing later
can change its fate: the run stops there, or at the horizon if some tracked
unit stays aboard. A trace reads each tracked unit's fate off its curves.
`simulate` tracks every unit, so after its last slot nothing is aboard and
nothing arrives, and the artifact tables fill the slots up to the horizon
with zeros; they refuse any other trace that stops early.
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


def slot_volume(rate_bps: int, slot_seconds: int) -> int:
    """Bytes a downlink of rate_bps moves in one slot: floor(rate * slot_seconds / 8)."""
    return rate_bps * slot_seconds // 8


def per_slot_capacity(scenario: ConstellationScenario) -> int:
    """The target's transmissible bytes per slot."""
    return slot_volume(scenario.target_satellite.downlink_rate_bps, scenario.time.slot_seconds)


@dataclass(frozen=True)
class QueueWorld:
    """Everything the queue evolution depends on besides the attack strategy.

    initial_units holds the (unit id, size) pairs aboard at t0, head first.
    arrivals is the stream of (slot, unit id, size) captures that join
    behind them, in stream order, so its slots never decrease.
    """

    initial_units: tuple[tuple[str, int], ...]
    arrivals: tuple[tuple[int, str, int], ...]
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
        slots = [t for t, _, _ in self.arrivals]
        if slots != sorted(slots):
            raise ValidationError("arrival slots must not decrease")
        if slots and not self.t0 <= slots[0] <= slots[-1] <= self.horizon:
            raise ValidationError("arrival slots must lie within [t0, horizon]")
        units = [*self.initial_units, *((uid, size) for _, uid, size in self.arrivals)]
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
        for t, uid, size in [*((self.t0, *unit) for unit in self.initial_units),
                             *self.arrivals]:
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


@dataclass(frozen=True)
class QueueTrace:
    """The curves of one run from t0, and the units it tracks.

    Slot t0 + i ends with queue_bytes[i] aboard. tx_end[i] and removed[i]
    count the stream bytes gone after that slot's transmission and after its
    drop; drops and full list the indices of the slots that dropped bytes
    and that ended exactly at capacity. The run stops once every tracked
    unit has left, so its curves are a prefix of the whole run's, and each
    tracked unit's fate read off them is the whole run's.

    For a tracked unit, and raising KeyError for any other: t_e is the slot
    its last byte was transmitted, or infinity if it was dropped or is still
    aboard at the horizon; dropped and drop_slot tell whether and where its
    first byte was dropped; absorbed_through is the latest slot before it
    leaves, by evacuation or drop, at which the queue sat exactly at
    capacity, or t0 - 1 if there is none.
    """

    world: QueueWorld
    tracked: tuple[str, ...]
    queue_bytes: list[int]
    tx_end: list[int]
    removed: list[int]
    drops: list[int]
    full: list[int]

    @property
    def tx_bytes(self) -> list[int]:
        return [end - gone for end, gone in zip(self.tx_end, [0, *self.removed])]

    @property
    def drop_bytes(self) -> list[int]:
        return [gone - end for end, gone in zip(self.tx_end, self.removed)]

    def _departure(self, start: int, end: int) -> tuple[int, bool]:
        """Slot index at which the unit holding stream bytes [start, end)
        leaves, and whether it is dropped there; len(queue_bytes) if it is
        still aboard."""
        a = bisect_right(self.removed, start)
        b = bisect_left(self.tx_end, end)
        j = bisect_left(self.drops, a)
        if j < len(self.drops) and self.drops[j] < b:
            return self.drops[j], True
        return b, False

    def _fate(self, unit_id: str) -> tuple[int, bool]:
        if unit_id not in self.tracked:
            raise KeyError(unit_id)
        return self._departure(*self.world.byte_ranges[unit_id][1:])

    def t_e(self, unit_id: str) -> float:
        i, lost = self._fate(unit_id)
        return INF if lost or i == len(self.queue_bytes) else self.world.t0 + i

    def absorbed_through(self, unit_id: str) -> int:
        """The last slot before the unit leaves at which the queue sat full,
        else t0 - 1: blocking at or before it cannot hold the unit back."""
        j = bisect_left(self.full, self._fate(unit_id)[0])
        return self.world.t0 + (self.full[j - 1] if j else -1)

    def dropped(self, unit_id: str) -> bool:
        return self._fate(unit_id)[1]

    def drop_slot(self, unit_id: str) -> int | None:
        i, lost = self._fate(unit_id)
        return self.world.t0 + i if lost else None

    def subqueue(self, unit_id: str) -> list[int]:
        """Bytes at or ahead of the unit at the end of each slot, from the
        slot it joins until it leaves; zero outside that span, so a dropped
        unit's sub-queue is void even if some of its bytes stay aboard."""
        joins, start, end = self.world.byte_ranges[unit_id]
        first = joins - self.world.t0
        leaves, _ = self._departure(start, end)
        return ([0] * first + [end - self.removed[i] for i in range(first, leaves)]
                + [0] * (len(self.queue_bytes) - leaves))

    def events(self) -> list[tuple[int, str, str]]:
        """(slot, "transmitted" or "dropped", unit id) for every unit that
        leaves within the trace. Units leave in stream order, so the list is
        ordered by slot, transmissions before drops within a slot."""
        rows = []
        for uid, (_, start, end) in self.world.byte_ranges.items():
            i, lost = self._departure(start, end)
            if i == len(self.queue_bytes):
                break
            rows.append((self.world.t0 + i, "dropped" if lost else "transmitted", uid))
        return rows


def evolve(world: QueueWorld, attacked: frozenset[int] | set[int],
           tracked: tuple[str, ...]) -> QueueTrace:
    """Evolve the queue from t0; attacked slots transmit nothing.

    Stop after the first slot whose removals reach every tracked unit's end
    byte, as each of them has left by then, or at the horizon.
    """
    inflow, transmissible = world.inflow, world.transmissible
    capacity, volume = world.capacity_bytes, world.volume_bytes
    stop = max((world.byte_ranges[uid][2] for uid in tracked), default=0)
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
        if gone >= stop:
            break
    return QueueTrace(world, tuple(tracked), queue_bytes, tx_end, removed, drops, full)


def evolve_rows(inflow, open_slots, volume, capacity: int, start, end
                ) -> tuple[np.ndarray, np.ndarray]:
    """`evolve`'s per-slot rule on B queues under R slot masks at once, in
    int64.

    inflow is (B, T): bytes joining each row's queue in each of T slots.
    open_slots is (R, T): each run's mask of the slots that may transmit;
    every row runs under every mask. volume is each row's per-slot volume
    and capacity the shared store size. start and end are (B, K): the
    stream bytes [start, end), start < end, of K units per row. The caller
    keeps every running total below 2**63.

    Returns (slot, lost), both (R, B, K). A lost unit's slot is the index
    of the slot its first byte was dropped; any other unit's is the index of
    the slot its last byte was transmitted, or T if it is still aboard. Only
    slots that receive bytes or may transmit in some run can change
    anything, so the others are skipped; by the run rule, the loop stops
    once every row under every mask has removed its last unit's end byte.
    """
    inflow = np.asarray(inflow, dtype=np.int64)
    rows, slots = inflow.shape
    open_slots = np.asarray(open_slots, dtype=bool)
    runs = len(open_slots)
    volume = np.asarray(volume, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    q = np.zeros((runs, rows), dtype=np.int64)
    gone = np.zeros((runs, rows), dtype=np.int64)
    slot = np.full((runs, *start.shape), slots, dtype=np.int64)
    lost = np.zeros(slot.shape, dtype=bool)
    last_end = end.max(axis=1, initial=0)
    can_open = open_slots.any(axis=0)
    for i in np.flatnonzero(inflow.any(axis=0) | can_open):
        q += inflow[:, i]
        if can_open[i]:
            o = np.minimum(volume, q)
            if not open_slots[:, i].all():
                o *= open_slots[:, i, None]
            q -= o
            gone += o
            # the first slot whose transmission reaches the unit's end
            slot[(gone[..., None] >= end) & (slot == slots)] = i
        over = q > capacity
        if over.any():
            d = np.minimum(np.maximum(q - capacity, volume), q) * over
            q -= d
            gone += d
            # a drop that reaches past the unit's start before its end is
            # sent: a unit whose end went out has its slot set already
            hit = over[..., None] & (gone[..., None] > start) & (slot == slots)
            slot[hit] = i
            lost |= hit
        if (gone >= last_end).all():
            break
    return slot, lost


def _padding(trace: QueueTrace) -> list[int]:
    """Zeros for the slots after the trace's last one, up to the horizon: a
    trace that tracks every unit stops once the queue is empty for good. Any
    other trace that stops early is refused."""
    missing = trace.world.horizon - trace.world.t0 + 1 - len(trace.queue_bytes)
    if missing and not trace.world.byte_ranges.keys() <= set(trace.tracked):
        raise ValueError("the trace stops before the horizon; "
                         "track every unit for the artifacts")
    return [0] * missing


def trace_table(trace: QueueTrace, tracked: tuple[str, ...]) -> tuple[list[str], list[list]]:
    """The trace artifact: per slot up to the horizon, the bytes aboard,
    transmitted and dropped, and the sub-queue of each unit in tracked."""
    zeros = _padding(trace)
    header = (["slot", "queue_bytes", "tx_bytes", "drop_bytes"]
              + [f"subq_{uid}_bytes" for uid in tracked])
    curves = (trace.queue_bytes, trace.tx_bytes, trace.drop_bytes, *map(trace.subqueue, tracked))
    rows = zip(range(trace.world.t0, trace.world.horizon + 1), *(c + zeros for c in curves))
    return header, [list(row) for row in rows]


def trace_events_table(trace: QueueTrace) -> tuple[list[str], list[list]]:
    """The events artifact: one row per unit that leaves by the horizon."""
    _padding(trace)
    return ["slot", "event", "unit_id"], [list(row) for row in trace.events()]
