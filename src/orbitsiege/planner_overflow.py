"""Planner that forces target data to be dropped by filling onboard storage.

Attacking slots at or after a unit's evacuation slot keeps it aboard while
capture traffic keeps arriving; once the queue hits capacity the head of the
FIFO, where the unit sits, is discarded. When the forward ladder runs out,
the planner reaches back to slots before the evacuation slot to thicken the
queue, as long as they stay behind the last-full landmark. A backward attack
that fails to move the evacuation slot was absorbed by an overflow it caused
itself; the planner rejects the slot and fails rather than keep paying for
absorbed attacks.
"""

from __future__ import annotations

import math

from .attack import AttackContext, AttackStrategy, unit_outcomes
from .errors import AttackFail

INF = math.inf


def plan_overflow(ctx: AttackContext) -> AttackStrategy:
    """Forward-then-backward ladder walk per target unit, in arrival order;
    dropping every target unit is the goal, cost is free.

    Raises AttackFail when both ladders are exhausted or blocked while the
    unit still downlinks. Success leaves every target unit dropped.
    """
    chosen: list[int] = []
    motivating: list[str] = []
    members: set[int] = set()

    trace = ctx.baseline
    for tau in ctx.targets:
        te = trace.t_e(tau)
        tlb = trace.absorbed_through(tau)
        forward = [t for t in ctx.attackable if t >= te and t not in members]
        backward = [t for t in ctx.attackable if t < te and t not in members]
        backward.reverse()
        fwd_i = 0
        back_i = 0

        while not trace.dropped(tau):
            t_n = forward[fwd_i] if fwd_i < len(forward) else None
            t_p = backward[back_i] if back_i < len(backward) else None
            if t_n is not None and t_n <= te:
                members.add(t_n)
                chosen.append(t_n)
                motivating.append(tau)
                trace = ctx.trace(members)
                te = trace.t_e(tau)
                fwd_i += 1
            elif t_p is not None and t_p > tlb:
                members.add(t_p)
                candidate = ctx.trace(members)
                if not (candidate.dropped(tau) or candidate.t_e(tau) > te):
                    if te == INF:
                        # evacuation already pushed past the horizon and the
                        # queue still cannot reach capacity
                        raise AttackFail(
                            f"queue never reaches capacity; {tau} stays "
                            f"aboard unharmed")
                    # the attack triggered an overflow that swallowed it
                    raise AttackFail(
                        f"attack on slot {t_p} absorbed by the overflow it "
                        f"caused; {tau} still downlinks")
                chosen.append(t_p)
                motivating.append(tau)
                trace = candidate
                te = trace.t_e(tau)
                tlb = trace.absorbed_through(tau)
                back_i += 1
            else:
                raise AttackFail(
                    f"no slot can keep {tau} aboard past slot {te}")

    return AttackStrategy.from_trace(ctx, chosen, motivating, trace)


def verify_overflow(ctx: AttackContext, slots) -> tuple[bool, dict]:
    """Replay a strategy and check every target unit's bytes left via drops."""
    strategy = ctx.require_subset(slots)
    trace = ctx.trace(strategy)
    ok = all(trace.dropped(uid) for uid in ctx.targets)
    report = {
        "ok": ok,
        "total_cost": ctx.cost_of(strategy),
        "targets": unit_outcomes(trace),
    }
    return ok, report
