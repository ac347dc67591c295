"""Both planners against the desk scenario, exhaustive search, and verifiers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    evacuation_slot,
    exhaustive_min_cost_delay,
    exhaustive_overflow,
    fifo_replay,
)
from orbitsiege import (
    AttackContext,
    AttackFail,
    ValidationError,
    attackability_for,
    build_s0,
    build_s0_ovf,
    plan_delay,
    plan_overflow,
    verify_delay,
    verify_overflow,
)
from orbitsiege.onboard import QueueWorld

INF = math.inf


def context(scenario):
    return AttackContext.from_scenario(scenario, attackability_for(scenario))


def test_delay_on_the_desk_scenario():
    scenario = build_s0()
    ctx = context(scenario)
    strategy = plan_delay(ctx, scenario.target.target_downlink_slot)
    assert strategy.slot_set == frozenset({2})
    assert strategy.cost == pytest.approx(1.0)
    assert strategy.motivating == ("init-003",)
    assert strategy.evacuation["init-003"] == 6
    ok, report = verify_delay(ctx, strategy.slots, scenario.target.target_downlink_slot)
    assert ok
    assert report["evacuation_slot"] == 6
    assert report["delay_slots"] == 2
    assert report["total_cost"] == pytest.approx(1.0)


def test_overflow_on_the_desk_scenario():
    scenario = build_s0_ovf()
    ctx = context(scenario)
    strategy = plan_overflow(ctx)
    assert strategy.slot_set == frozenset({4, 6})
    assert strategy.dropped["init-003"]
    assert strategy.drop_slot["init-003"] == 6
    ok, report = verify_overflow(ctx, strategy.slots)
    assert ok
    assert report["targets"]["init-003"]["dropped"]
    assert report["targets"]["init-003"]["drop_slot"] == 6


def test_delay_deadline_validation():
    ctx = context(build_s0())
    with pytest.raises(ValidationError, match="required"):
        plan_delay(ctx, None)
    with pytest.raises(ValidationError, match="not after natural"):
        plan_delay(ctx, 4)
    with pytest.raises(ValidationError, match="outside"):
        plan_delay(ctx, 14)


def test_delay_fails_when_ladder_is_too_short():
    scenario = build_s0()
    # deadline at the horizon needs more blocked slots than the ladder has
    ctx = context(scenario)
    trimmed = AttackContext(
        world=ctx.world, attackable=(2,), price={2: 1.0}, targets=ctx.targets)
    with pytest.raises(AttackFail, match="no attackable slot left"):
        plan_delay(trimmed, 8)


def test_overflow_fails_without_capacity_pressure():
    # widen the store past every byte the scenario will ever hold
    scenario = build_s0()
    roomy = replace(scenario, satellites=tuple(
        replace(sat, capacity_bytes=30) if sat.id == "obs-1" else sat
        for sat in scenario.satellites))
    with pytest.raises(AttackFail, match="never reaches capacity"):
        plan_overflow(context(roomy))


def random_ladder_context(rng, horizon=14):
    """Small random queue world with an attackable ladder and random prices."""
    n_initial = int(rng.integers(2, 5))
    initial = tuple((f"init-{i:03d}", int(rng.integers(1, 3)))
                    for i in range(1, n_initial + 1))
    arrivals = []
    for t in range(1, horizon + 1):
        if rng.random() < 0.7:
            arrivals.append((t, ((f"arr-{t:03d}", int(rng.integers(1, 3))),)))
    transmissible = frozenset(
        int(t) for t in range(1, horizon + 1) if rng.random() < 0.6)
    if not transmissible:
        transmissible = frozenset({2})
    world = QueueWorld(
        initial_units=initial,
        arrivals=tuple(arrivals),
        transmissible=transmissible,
        capacity_bytes=int(rng.integers(6, 14)),
        volume_bytes=int(rng.integers(1, 4)),
        t0=0,
        horizon=horizon,
    )
    attackable = tuple(sorted(transmissible))
    price = {t: float(rng.integers(1, 4)) for t in attackable}
    tau = initial[int(rng.integers(0, len(initial)))][0]
    return AttackContext(world=world, attackable=attackable, price=price,
                         targets=(tau,))


def oracle_replay(ctx, attacked):
    return fifo_replay(
        list(ctx.world.initial_units),
        {t: list(units) for t, units in ctx.world.arrivals},
        ctx.world.transmissible, frozenset(attacked),
        ctx.world.capacity_bytes, ctx.world.volume_bytes,
        ctx.world.t0, ctx.world.horizon)


def test_delay_matches_exhaustive_cost():
    """Greedy cost equals the exhaustive minimum on single-target scenarios
    whose queue never overflows (the regime the plan shape is optimal in)."""
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        ctx = random_ladder_context(rng)
        tau = ctx.final_target
        base = ctx.baseline
        if base.t_e(tau) == INF:
            continue
        # keep to the no-overflow regime
        worst = ctx.trace(set(ctx.attackable))
        if sum(worst.drop_bytes) > 0:
            continue
        te0 = base.t_e(tau)
        deadline = int(te0) + int(rng.integers(1, 4))
        if deadline > ctx.world.horizon:
            continue
        best_cost, best_subset = exhaustive_min_cost_delay(
            ctx.attackable, ctx.price, deadline, tau,
            lambda y: oracle_replay(ctx, y))
        if best_subset is None:
            with pytest.raises(AttackFail):
                plan_delay(ctx, deadline)
        else:
            strategy = plan_delay(ctx, deadline)
            rep = oracle_replay(ctx, strategy.slot_set)
            assert evacuation_slot(rep, tau) > deadline
            assert strategy.cost == pytest.approx(best_cost)
        checked += 1


def test_overflow_matches_exhaustive_reachability():
    """The planner succeeds exactly where some subset drops the target.

    Unit sizes here are byte-heterogeneous, so only completeness is asserted:
    partial drops let a cheap early subset beat the planner's drop slot. The
    earliest-drop guarantee is checked in the acceptance suite on worlds
    whose unit size equals the per-slot volume.
    """
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 40:
        ctx = random_ladder_context(rng)
        tau = ctx.final_target
        exhaustive = exhaustive_overflow(
            ctx.attackable, tau, lambda y: oracle_replay(ctx, y))
        if not exhaustive:
            with pytest.raises(AttackFail):
                plan_overflow(ctx)
        else:
            strategy = plan_overflow(ctx)
            assert strategy.dropped[tau]
            rep = oracle_replay(ctx, strategy.slot_set)
            assert evacuation_slot(rep, tau) == INF
        checked += 1


def test_verify_rejects_non_attackable_slots():
    ctx = context(build_s0())
    with pytest.raises(ValidationError, match="not attackable"):
        verify_delay(ctx, [3], 5)
    ok, report = verify_delay(ctx, [], 5)
    assert not ok
    assert report["evacuation_slot"] == 4


def test_verify_delay_needs_a_deadline():
    ctx = context(build_s0())
    with pytest.raises(ValidationError, match="required"):
        verify_delay(ctx, [2], None)
    ok, _ = verify_delay(ctx, [2], target_slot=5)
    assert ok


def test_verify_overflow_reports_partial_failure():
    ok, report = verify_overflow(context(build_s0_ovf()), [4])
    assert not ok
    assert not report["targets"]["init-003"]["dropped"]


def test_multi_target_plan_covers_all_units():
    scenario = build_s0()
    widened = replace(scenario, target=replace(
        scenario.target, target_unit_ids=("init-002", "init-003")))
    ctx = context(widened)
    strategy = plan_delay(ctx, 5)
    trace = ctx.trace(strategy.slot_set)
    base = ctx.baseline
    demanded = 5 - base.t_e("init-003")
    for uid in ("init-002", "init-003"):
        assert trace.t_e(uid) - base.t_e(uid) > demanded


def test_per_unit_deadline_mode():
    # arr-001 evacuates at 6 > 5 naturally: the relative-delay mode would
    # reject the request outright, the per-unit mode just skips the unit
    scenario = build_s0()
    widened = replace(scenario, target=replace(
        scenario.target, target_unit_ids=("init-002", "init-003", "arr-001")))
    ctx = context(widened)
    with pytest.raises(ValidationError, match="not after natural"):
        plan_delay(ctx, 5)
    strategy = plan_delay(ctx, 5, per_unit_deadline=True)
    trace = ctx.trace(strategy.slot_set)
    for uid in ("init-002", "init-003", "arr-001"):
        assert trace.t_e(uid) > 5


def test_plan_returns_early_when_target_drops():
    # the overflow scenario with a delay deadline: blocking drops the unit,
    # which satisfies any deadline trivially
    scenario = replace(build_s0_ovf(), target=replace(
        build_s0_ovf().target, target_downlink_slot=12))
    ctx = context(scenario)
    strategy = plan_delay(ctx, 12)
    ok, report = verify_delay(ctx, strategy.slots, 12)
    assert ok
    assert report["targets"]["init-003"]["dropped"] or \
        report["evacuation_slot"] > 12
