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
        ranges = self.world.byte_ranges
        last = -1
        for uid in self.targets:
            if uid not in ranges:
                raise ValidationError(f"target unit {uid} not aboard")
            if ranges[uid][1] <= last:
                raise ValidationError("targets must follow arrival order, each once")
            last = ranges[uid][1]

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
        arrivals = sorted([(u.capture_slot, u.unit_id, u.size_bytes)
                           for u in scenario.trace_for(sat_id) if u.capture_slot >= t0],
                          key=lambda arrival: arrival[0])
        world = QueueWorld(
            initial_units=tuple([(u.unit_id, u.size_bytes)
                                 for u in scenario.initial_units(sat_id)]),
            arrivals=tuple(arrivals),
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
    """A plan on a context and the queue trace under it.

    plan maps each attacked slot, in the order the planner chose it, to the
    target unit it was chosen for. The trace tracks the context's target
    units and, as `AttackContext.trace` gives it, stops once they have all
    left.
    """

    context: AttackContext
    plan: dict[int, str]
    trace: QueueTrace

    @property
    def slots(self) -> tuple[int, ...]:
        """The attacked slots in choice order."""
        return tuple(self.plan)

    @property
    def slot_set(self) -> frozenset[int]:
        return frozenset(self.plan)

    @property
    def cost(self) -> float:
        return self.context.cost_of(self.plan)

    def summary(self) -> dict:
        return {
            "slots": list(self.plan),
            "total_cost": self.cost,
            "targets": unit_outcomes(self.trace),
        }


def unit_outcomes(trace: QueueTrace) -> dict[str, dict]:
    """{unit id: {"evacuation_slot", "dropped", "drop_slot"}} for every unit
    the trace tracks, in tracking order."""
    return {uid: {"evacuation_slot": trace.t_e(uid), "dropped": trace.dropped(uid),
                  "drop_slot": trace.drop_slot(uid)} for uid in trace.tracked}


def strategy_table(strategy: AttackStrategy) -> tuple[list[str], list[list]]:
    """The strategy artifact: one row per attacked slot, in choice order."""
    price = strategy.context.price
    return (["slot", "cost", "motivating_unit"],
            [[t, price[t], uid] for t, uid in strategy.plan.items()])
