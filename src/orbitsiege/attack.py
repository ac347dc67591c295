"""Planner-facing view of a scenario and the strategy record both planners emit.

An AttackContext bundles the target satellite's queue world with the
attackable-slot ladder and per-slot prices. Attacking a slot occupies every
antenna the satellite could use at that slot, so the satellite transmits
nothing; the queue engine models that as removing the slot from the
transmissible set.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import ValidationError
from .onboard import QueueTrace, QueueWorld, evolve, per_slot_capacity
from .scenario import ConstellationScenario
from .scheduler import Ladder

INF = math.inf


@dataclass(frozen=True)
class AttackContext:
    """Queue world, the attackable-slot ladder, and the ordered target units.

    price maps each attackable slot to its cost, in slot order; its keys are
    the ladder.
    """

    world: QueueWorld
    price: dict[int, float]
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValidationError("targets must be non-empty")
        if list(self.price) != sorted(self.price):
            raise ValidationError("attackable slots must be in slot order")
        for t, cost in self.price.items():
            if not self.world.t0 <= t <= self.world.horizon:
                raise ValidationError(f"attackable slot {t} outside plan window")
            if t not in self.world.transmissible:
                raise ValidationError(f"attackable slot {t} is not transmissible")
            if not math.isfinite(cost) or cost < 0:
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
    def attackable(self) -> tuple[int, ...]:
        """The attackable slots, ascending."""
        return tuple(self.price)

    @property
    def final_target(self) -> str:
        """The last target unit in arrival order; deadlines refer to it."""
        return self.targets[-1]

    def require_subset(self, slots) -> frozenset[int]:
        extra = frozenset(slots) - self.price.keys()
        if extra:
            raise ValidationError(
                f"slots not attackable: {sorted(extra)}")
        return frozenset(slots)

    @functools.cached_property
    def baseline(self) -> QueueTrace:
        """The no-attack trace, evolved once per context."""
        return self.trace(frozenset())

    def trace(self, strategy) -> QueueTrace:
        """The trace under strategy that tracks the target units, so it
        stops once every one of them has left. The planners, the verifiers
        and the strategy summary read only their landmarks."""
        return evolve(self.world, frozenset(strategy), self.targets)

    def cost_of(self, slots) -> float:
        return sum(self.price[t] for t in slots)

    @classmethod
    def from_scenario(cls, scenario: ConstellationScenario, ladder: Ladder) -> "AttackContext":
        """Build from a scenario and its attackability ladder, as
        `scheduler.attackability_for` gives it."""
        target = scenario.target
        sat_id = target.satellite_id
        t0 = target.attack_start_slot
        horizon = scenario.time.last_slot

        # the queue starts at t0; scenario validation rejects earlier
        # captures, and an unvalidated scenario's are left out. The sort is
        # stable, so units captured in one slot keep their trace order.
        slot_of = operator.attrgetter("capture_slot")
        unit = operator.attrgetter("unit_id", "size_bytes")
        units = sorted([u for u in scenario.trace_for(sat_id) if u.capture_slot >= t0],
                       key=slot_of)
        world = QueueWorld(
            initial_units=tuple(map(unit, scenario.initial_units(sat_id))),
            arrivals=tuple([(t, tuple(map(unit, group)))
                            for t, group in itertools.groupby(units, key=slot_of)]),
            transmissible=frozenset(ladder.transmissible.nonzero()[0].tolist()),
            capacity_bytes=scenario.satellite(sat_id).capacity_bytes,
            volume_bytes=per_slot_capacity(scenario),
            t0=t0,
            horizon=horizon,
        )
        attackable = t0 + ladder.attackable[t0:horizon + 1].nonzero()[0]
        price = dict(zip(attackable.tolist(), ladder.cost[attackable].tolist()))
        return cls(world=world, price=price, targets=target.target_unit_ids)


@dataclass(frozen=True)
class AttackStrategy:
    """Attacked slots in the order they were chosen, with their costs, and
    the queue trace under the full strategy.

    motivating aligns with slots: the target unit being worked on when the
    slot was added. The trace tracks the context's target units and, as
    `AttackContext.trace` gives it, stops once they have all left.
    """

    slots: tuple[int, ...]
    slot_costs: tuple[float, ...]
    motivating: tuple[str, ...]
    trace: QueueTrace

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
            "targets": unit_outcomes(self.trace),
        }

    @classmethod
    def from_trace(cls, context: AttackContext, slots, motivating,
                   trace: QueueTrace) -> "AttackStrategy":
        return cls(slots=tuple(slots),
                   slot_costs=tuple(context.price[t] for t in slots),
                   motivating=tuple(motivating), trace=trace)


def unit_outcomes(trace: QueueTrace) -> dict[str, dict]:
    """{unit id: {"evacuation_slot", "dropped", "drop_slot"}} for every unit
    the trace tracks, in tracking order."""
    return {uid: {"evacuation_slot": trace.t_e(uid), "dropped": trace.dropped(uid),
                  "drop_slot": trace.drop_slot(uid)} for uid in trace.tracked}


def strategy_table(strategy: AttackStrategy) -> tuple[list[str], list[list]]:
    """The strategy artifact: one row per attacked slot, in choice order."""
    return (["slot", "cost", "motivating_unit"],
            [list(row) for row in zip(strategy.slots, strategy.slot_costs,
                                      strategy.motivating)])
