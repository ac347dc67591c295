"""Planner-facing view of a scenario and the strategy record both planners emit.

An AttackContext bundles the target satellite's queue world with the
attackable-slot ladder and per-slot prices. Attacking a slot occupies every
antenna the satellite could use at that slot, so the satellite transmits
nothing; the queue engine models that as removing the slot from the
transmissible set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ValidationError
from .onboard import QueueTrace, QueueWorld, evolve, per_slot_capacity
from .scenario import ConstellationScenario

INF = math.inf


@dataclass(frozen=True)
class AttackContext:
    """Queue world plus attackable slots, prices, and the ordered target units."""

    world: QueueWorld
    attackable: tuple[int, ...]
    price: dict[int, float]
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValidationError("targets must be non-empty")
        if list(self.attackable) != sorted(set(self.attackable)):
            raise ValidationError("attackable slots must be sorted and unique")
        for t in self.attackable:
            if not self.world.t0 <= t <= self.world.horizon:
                raise ValidationError(f"attackable slot {t} outside plan window")
            if t not in self.world.transmissible:
                raise ValidationError(f"attackable slot {t} is not transmissible")
            cost = self.price.get(t)
            if cost is None or not math.isfinite(cost) or cost < 0:
                raise ValidationError(f"attackable slot {t} needs a finite cost >= 0")
        positions = {uid: i for i, uid in enumerate(self.world.byte_ranges)}
        last = -1
        for uid in self.targets:
            if uid not in positions:
                raise ValidationError(f"target unit {uid} not aboard")
            if positions[uid] < last:
                raise ValidationError("targets must follow arrival order")
            last = positions[uid]

    @property
    def final_target(self) -> str:
        """The last target unit in arrival order; deadlines refer to it."""
        return self.targets[-1]

    def require_subset(self, slots) -> frozenset[int]:
        extra = frozenset(slots) - frozenset(self.attackable)
        if extra:
            raise ValidationError(
                f"slots not attackable: {sorted(extra)}")
        return frozenset(slots)

    @functools.cached_property
    def baseline(self) -> QueueTrace:
        """The no-attack trace, evolved once per context."""
        return self.trace(frozenset())

    def trace(self, strategy) -> QueueTrace:
        return evolve(self.world, frozenset(strategy), self.targets)

    def cost_of(self, slots) -> float:
        return sum(self.price[t] for t in slots)

    @classmethod
    def from_scenario(cls, scenario: ConstellationScenario,
                      records) -> "AttackContext":
        """Build from a scenario and its attackability records, as
        `scheduler.attackability_for` gives them."""
        target = scenario.target
        sat_id = target.satellite_id
        t0 = target.attack_start_slot
        horizon = scenario.time.last_slot

        arrivals: dict[int, list[tuple[str, int]]] = {}
        for unit in scenario.trace_for(sat_id):
            # the queue starts at t0; scenario validation rejects earlier
            # captures, and an unvalidated scenario's are left out
            if unit.capture_slot >= t0:
                arrivals.setdefault(unit.capture_slot, []).append(
                    (unit.unit_id, unit.size_bytes))
        world = QueueWorld(
            initial_units=tuple((u.unit_id, u.size_bytes)
                                for u in scenario.initial_units(sat_id)),
            arrivals=tuple((t, tuple(units))
                           for t, units in sorted(arrivals.items())),
            transmissible=frozenset(r.slot for r in records if r.transmissible),
            capacity_bytes=scenario.satellite(sat_id).capacity_bytes,
            volume_bytes=per_slot_capacity(scenario),
            t0=t0,
            horizon=horizon,
        )
        attackable = tuple(r.slot for r in records
                           if r.attackable and t0 <= r.slot <= horizon)
        price = {r.slot: r.cost for r in records
                 if r.attackable and t0 <= r.slot <= horizon}
        return cls(world=world, attackable=attackable, price=price,
                   targets=target.target_unit_ids)


@dataclass(frozen=True)
class AttackStrategy:
    """Attacked slots in the order they were chosen, with costs and outcomes.

    motivating aligns with slots: the target unit being worked on when the
    slot was added. evacuation/dropped/drop_slot describe the final trace
    under the full strategy.
    """

    slots: tuple[int, ...]
    slot_costs: tuple[float, ...]
    motivating: tuple[str, ...]
    evacuation: dict[str, float]
    dropped: dict[str, bool]
    drop_slot: dict[str, int | None]

    def __post_init__(self) -> None:
        if len(set(self.slots)) != len(self.slots):
            raise ValidationError("strategy slots must be unique")
        if not len(self.slots) == len(self.slot_costs) == len(self.motivating):
            raise ValidationError("slots, slot_costs, motivating must align")

    @property
    def slot_set(self) -> frozenset[int]:
        return frozenset(self.slots)

    @property
    def cost(self) -> float:
        return sum(self.slot_costs)

    def summary(self) -> dict:
        return {
            "slots": list(self.slots),
            "total_cost": self.cost,
            "targets": {
                uid: {
                    "evacuation_slot": self.evacuation[uid],
                    "dropped": self.dropped[uid],
                    "drop_slot": self.drop_slot[uid],
                }
                for uid in self.evacuation
            },
        }

    @classmethod
    def from_trace(cls, context: AttackContext, slots, motivating,
                   trace: QueueTrace) -> "AttackStrategy":
        return cls(
            slots=tuple(slots),
            slot_costs=tuple(context.price[t] for t in slots),
            motivating=tuple(motivating),
            evacuation=dict(trace.evacuation),
            dropped=dict(trace.dropped),
            drop_slot=dict(trace.drop_slot),
        )


STRATEGY_HEADER = ["slot", "cost", "motivating_unit"]


def save_strategy(path: str, strategy: AttackStrategy, fmt: str = "csv") -> None:
    from .output import emit

    rows = [list(row) for row in zip(strategy.slots, strategy.slot_costs,
                                     strategy.motivating)]
    emit(path, STRATEGY_HEADER, rows, fmt)


def save_strategy_summary(path: str, strategy: AttackStrategy) -> None:
    from .output import json_text, write_text_atomic

    write_text_atomic(path, json_text(strategy.summary()))
