"""Minimum-cost planner that delays target data past a deadline slot.

The attacker wants the final target unit still aboard after its deadline.
Working through the targets in arrival order, the planner repeatedly attacks
the cheapest slot inside the unit's open window: later than the last slot the
queue sat full (attacks at or before that point are absorbed by the overflow
drop and gain nothing) and no later than the unit's current evacuation slot.
Each attack pushes the evacuation slot back; the loop stops once the achieved
delay exceeds the deadline's demanded delay, or fails when the window empties.
"""

from __future__ import annotations

import math

from .attack import AttackContext, AttackStrategy
from .errors import AttackFail, ValidationError

INF = math.inf


def _delay_achieved(te_now: float, te_base: float) -> float:
    """Slots of delay relative to the no-attack run, without inf - inf."""
    if te_base == INF:
        return 0.0 if te_now == INF else -INF
    if te_now == INF:
        return INF
    return te_now - te_base


def plan_delay(ctx: AttackContext, target_slot: int | None,
               per_unit_deadline: bool = False) -> AttackStrategy:
    """Greedy cheapest-in-window planning, one target unit at a time.

    The deadline target_slot must lie strictly after the final target's
    natural evacuation slot; a deadline at or before it asks for no delay
    at all. When the unit never evacuates naturally the demand is already
    met and planning degenerates to the empty strategy.

    By default every target unit is pushed back by the same demanded delay,
    measured on the final unit. With per_unit_deadline each unit must
    instead individually outlast the deadline slot, which is what a widened
    target band wants: a plan that works with any band member standing in
    for the true target. Band members may already outlast it naturally; the
    planner simply finds no work for them.

    Raises AttackFail when some unit's window empties before its demanded
    delay is reached. Returns early, with the strategy built so far, if a
    target unit is dropped: nothing can downlink it after that.
    """
    if target_slot is None:
        raise ValidationError("target.target_downlink_slot required for delay planning")
    if not ctx.world.t0 < target_slot <= ctx.world.horizon:
        raise ValidationError("target_slot outside (attack start, horizon]")
    base = ctx.baseline
    te_base = base.t_e(ctx.final_target)
    if per_unit_deadline:
        def needs_more(te: float, te0: float) -> bool:
            return te != INF and te <= target_slot
    elif te_base != INF and target_slot <= te_base:
        raise ValidationError(
            f"target_slot {target_slot} not after natural "
            f"evacuation slot {te_base:.0f}")
    else:
        demanded = target_slot - te_base if te_base != INF else -INF

        def needs_more(te: float, te0: float) -> bool:
            return _delay_achieved(te, te0) <= demanded

    chosen: list[int] = []
    motivating: list[str] = []
    members: set[int] = set()
    trace = base
    for tau in ctx.targets:
        if trace.dropped[tau]:
            return AttackStrategy.from_trace(ctx, chosen, motivating, trace)
        te = trace.t_e(tau)
        tlb = trace.t_lb(tau)
        while needs_more(te, base.t_e(tau)):
            window = [t for t in ctx.attackable
                      if tlb < t <= te and t not in members]
            if not window:
                raise AttackFail(
                    f"no attackable slot left in ({tlb}, {te}] for {tau}")
            best = min(window, key=lambda t: (ctx.price[t], t))
            chosen.append(best)
            motivating.append(tau)
            members.add(best)
            trace = ctx.trace(members)
            te = trace.t_e(tau)
            if te == INF:
                return AttackStrategy.from_trace(ctx, chosen, motivating, trace)
            tlb = trace.t_lb(tau)
    return AttackStrategy.from_trace(ctx, chosen, motivating, trace)


def verify_delay(ctx: AttackContext, slots,
                 target_slot: int | None) -> tuple[bool, dict]:
    """Replay a strategy and check the final target outlives the deadline."""
    if target_slot is None:
        raise ValidationError("target_downlink_slot required to verify a delay")
    strategy = ctx.require_subset(slots)
    base = ctx.baseline
    trace = ctx.trace(strategy)
    tau = ctx.final_target
    ok = trace.t_e(tau) > target_slot
    report = {
        "ok": ok,
        "target_unit": tau,
        "target_slot": target_slot,
        "evacuation_slot": trace.t_e(tau),
        "baseline_evacuation_slot": base.t_e(tau),
        "delay_slots": _delay_achieved(trace.t_e(tau), base.t_e(tau)),
        "total_cost": ctx.cost_of(strategy),
        "targets": {
            uid: {
                "evacuation_slot": trace.t_e(uid),
                "dropped": trace.dropped[uid],
                "drop_slot": trace.drop_slot[uid],
            }
            for uid in ctx.targets
        },
    }
    return ok, report
