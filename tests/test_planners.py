"""Both planners against the desk scenario, exhaustive search, and verifiers."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bundled import load_bundled
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    evacuation_slot,
    exhaustive_min_cost_delay,
    exhaustive_overflow,
    fifo_replay,
    min_plus_delay_cost,
)
from orbitsiege import (
    AttackContext,
    AttackFail,
    ValidationError,
    attackability_for,
    plan_attack,
    plan_delay,
    plan_overflow,
    verify_delay,
    verify_overflow,
)
from orbitsiege.attack import unit_outcomes
from orbitsiege.evaluation import extend_targets
from orbitsiege.onboard import QueueWorld, evolve
from orbitsiege.synth import build_constellation
from test_cli import GOLDEN_GEOMETRY

INF = math.inf


def context(scenario):
    return AttackContext.from_scenario(scenario, attackability_for(scenario))


def test_delay_on_the_desk_scenario():
    scenario = load_bundled("s0")
    ctx = context(scenario)
    strategy = plan_delay(ctx, scenario.target.target_downlink_slot)
    assert strategy.slot_set == frozenset({2})
    assert strategy.cost == pytest.approx(1.0)
    assert strategy.plan == {2: "init-003"}
    assert strategy.trace.t_e("init-003") == 6
    ok, report = verify_delay(ctx, strategy.slots, scenario.target.target_downlink_slot)
    assert ok
    assert report["evacuation_slot"] == 6
    assert report["delay_slots"] == 2
    assert report["total_cost"] == pytest.approx(1.0)


def test_overflow_on_the_desk_scenario():
    scenario = load_bundled("s0_ovf")
    ctx = context(scenario)
    strategy = plan_overflow(ctx)
    assert strategy.slot_set == frozenset({4, 6})
    assert strategy.trace.dropped("init-003")
    assert strategy.trace.drop_slot("init-003") == 6
    ok, report = verify_overflow(ctx, strategy.slots)
    assert ok
    assert report["targets"]["init-003"]["dropped"]
    assert report["targets"]["init-003"]["drop_slot"] == 6


def test_delay_deadline_validation():
    ctx = context(load_bundled("s0"))
    with pytest.raises(ValidationError, match="required"):
        plan_delay(ctx, None)
    # the unit evacuates at slot 4 naturally, which misses a deadline of 4
    # (success is evacuating after it) but meets one of 3
    with pytest.raises(ValidationError, match="before natural"):
        plan_delay(ctx, 3)
    strategy = plan_delay(ctx, 4)
    assert verify_delay(ctx, strategy.slots, 4)[0]
    with pytest.raises(ValidationError, match="outside"):
        plan_delay(ctx, 14)


def test_planners_may_block_the_attack_start_slot():
    # the target leaves at slot 0, the attack start, and the queue never
    # fills: blocking slot 0 holds it to slot 2, and blocking slot 2 too
    # drops it when the captures behind it overflow the store
    world = QueueWorld(initial_units=(("u-1", 2), ("u-2", 1)),
                       arrivals=((1, "a-1", 2), (2, "a-2", 2)),
                       transmissible=frozenset({0, 2}), capacity_bytes=6, volume_bytes=3,
                       t0=0, horizon=2)
    ctx = AttackContext(world=world, price={0: 1.0, 2: 2.0}, targets=("u-1",))
    assert ctx.baseline.t_e("u-1") == 0 and ctx.baseline.absorbed_through("u-1") == -1
    assert plan_delay(ctx, 1).slots == (0,)
    assert plan_overflow(ctx).slot_set == {0, 2}


def test_delay_fails_when_ladder_is_too_short():
    scenario = load_bundled("s0")
    # deadline at the horizon needs more blocked slots than the ladder has
    ctx = context(scenario)
    trimmed = AttackContext(
        world=ctx.world, price={2: 1.0}, targets=ctx.targets)
    with pytest.raises(AttackFail, match="no attackable slot left"):
        plan_delay(trimmed, 8)


def test_overflow_fails_without_capacity_pressure():
    # widen the store past every byte the scenario will ever hold
    scenario = load_bundled("s0")
    roomy = replace(scenario, satellites=tuple(
        replace(sat, capacity_bytes=30) if sat.id == "obs-1" else sat
        for sat in scenario.satellites))
    with pytest.raises(AttackFail, match="never reaches capacity"):
        plan_overflow(context(roomy))


def test_overflow_fails_when_the_overflow_it_causes_absorbs_its_attack():
    """Blocking a slot before the target's turn overfills the queue, whose
    head drop frees the room the attack took: the target still leaves at
    its turn, slot 6, which is transmissible but not attackable. A ladder
    of every transmissible slot never gets here (the slot the target
    leaves at is then always the next forward attack), so slot 6 is left
    out of it."""
    world = QueueWorld(initial_units=(("a", 1), ("b", 2), ("tau", 1)),
                       arrivals=((1, "x", 2), (2, "y", 1), (4, "z", 2)),
                       transmissible=frozenset({2, 6}), capacity_bytes=8, volume_bytes=3,
                       t0=0, horizon=8)
    ctx = AttackContext(world=world, price={2: 1.0}, targets=("tau",))
    baseline, blocked = oracle_replay(ctx, ()), oracle_replay(ctx, {2})
    assert baseline["done"]["tau"] == blocked["done"]["tau"] == 6
    assert "a" not in baseline["dropped"] and blocked["dropped"]["a"] == 4
    with pytest.raises(AttackFail, match="^attack on slot 2 absorbed by the overflow it "
                                         "caused; tau still downlinks$"):
        plan_overflow(ctx)


def random_ladder_context(rng, horizon=14):
    """Small random queue world with an attackable ladder and random prices."""
    n_initial = int(rng.integers(2, 5))
    initial = tuple((f"init-{i:03d}", int(rng.integers(1, 3)))
                    for i in range(1, n_initial + 1))
    arrivals = []
    for t in range(1, horizon + 1):
        if rng.random() < 0.7:
            arrivals.append((t, f"arr-{t:03d}", int(rng.integers(1, 3))))
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
    price = {t: float(rng.integers(1, 4)) for t in sorted(transmissible)}
    tau = initial[int(rng.integers(0, len(initial)))][0]
    return AttackContext(world=world, price=price, targets=(tau,))


def arrivals_by_slot(world):
    """The world's arrival stream grouped by slot, as the oracles take it."""
    groups = {}
    for t, uid, size in world.arrivals:
        groups.setdefault(t, []).append((uid, size))
    return groups


def oracle_replay(ctx, attacked):
    return fifo_replay(
        list(ctx.world.initial_units), arrivals_by_slot(ctx.world),
        ctx.world.transmissible, frozenset(attacked),
        ctx.world.capacity_bytes, ctx.world.volume_bytes,
        ctx.world.t0, ctx.world.horizon)


def whole_run_outcomes(ctx, strategy):
    """The targets' outcomes in the run of the strategy that tracks every
    unit, so that it stops only once the queue is empty for good."""
    outcomes = unit_outcomes(evolve(ctx.world, strategy.slot_set, tuple(ctx.world.byte_ranges)))
    return {uid: outcomes[uid] for uid in ctx.targets}


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
        worst = evolve(ctx.world, frozenset(ctx.attackable), tuple(ctx.world.byte_ranges))
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


def closed_form_cost(ctx, deadline):
    """`oracles.min_plus_delay_cost` for the context's final target."""
    world = ctx.world
    return min_plus_delay_cost(world.inflow, world.transmissible, ctx.price,
                               world.volume_bytes, world.byte_ranges[ctx.final_target][2],
                               world.t0, deadline)


def drops_nothing(ctx):
    """No blocking set drops bytes: blocking every attackable slot holds the
    most bytes aboard in every slot, and it drops none."""
    every = tuple(ctx.world.byte_ranges)
    return sum(evolve(ctx.world, frozenset(ctx.attackable), every).drop_bytes) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), deadline=st.integers(1, 14))
def test_closed_form_delay_cost_matches_exhaustive_search(seed, deadline):
    # small worlds whose store never fills, so no blocking set drops bytes
    ctx = random_ladder_context(np.random.default_rng(seed))
    ctx = replace(ctx, world=replace(ctx.world, capacity_bytes=10**6))
    assert drops_nothing(ctx)
    best_cost, _ = exhaustive_min_cost_delay(
        ctx.attackable, ctx.price, deadline, ctx.final_target,
        lambda y: oracle_replay(ctx, y))
    assert closed_form_cost(ctx, deadline) == best_cost


@pytest.mark.parametrize("seed, build", [(seed, build) for seed, build, _, _ in GOLDEN_GEOMETRY],
                         ids=["constellation_24h", "seed1", "seed2", "seed3", "geometry_1440"])
def test_delay_plan_cost_equals_the_closed_form(seed, build):
    # the bundled 24 h scenario and the synthetic worlds of the geometry
    # digests: at its own deadline, if it has one, and at deadlines 1 to 80
    # slots past the natural evacuation, the greedy plan is optimal, and it
    # fails exactly where no blocking set works
    scenario = (load_bundled("constellation_24h") if seed is None
                else build_constellation(seed=seed, **build))
    ctx = context(scenario)
    assert drops_nothing(ctx)
    te0 = int(ctx.baseline.t_e(ctx.final_target))
    deadlines = {te0 + ahead for ahead in (1, 10, 40, 80)} | {
        scenario.target.target_downlink_slot or te0}
    for deadline in sorted(d for d in deadlines if d <= ctx.world.horizon):
        cost = closed_form_cost(ctx, deadline)
        if cost is None:
            with pytest.raises(AttackFail):
                plan_delay(ctx, deadline)
        else:
            assert plan_delay(ctx, deadline).cost == cost


@pytest.mark.parametrize("seed, build", [(seed, build) for seed, build, _, _ in GOLDEN_GEOMETRY],
                         ids=["constellation_24h", "seed1", "seed2", "seed3", "geometry_1440"])
def test_widened_delay_plan_costs_at_least_each_members_closed_form(seed, build):
    # every member of a widened band must outlast the deadline on its own,
    # so the dearest member's least cost bounds the plan's from below, and
    # the plan fails exactly where some member cannot be held back at all
    scenario = (load_bundled("constellation_24h") if seed is None
                else build_constellation(seed=seed, **build))
    ctx = context(scenario)
    world = ctx.world
    te0 = int(ctx.baseline.t_e(ctx.final_target))
    deadlines = {te0 + ahead for ahead in (1, 10, 40, 80)} | {
        scenario.target.target_downlink_slot or te0}
    for extra_m in range(1, 5):
        band = replace(ctx, targets=extend_targets(ctx.targets, world.byte_ranges, extra_m))
        assert drops_nothing(band)
        for deadline in sorted(d for d in deadlines if d <= world.horizon):
            # members that already outlast the deadline need no blocking
            costs = [min_plus_delay_cost(world.inflow, world.transmissible, ctx.price,
                                         world.volume_bytes, world.byte_ranges[uid][2],
                                         world.t0, deadline)
                     for uid in band.targets if band.baseline.t_e(uid) <= deadline]
            if None in costs:
                with pytest.raises(AttackFail):
                    plan_attack(ctx, "delay", extra_m, deadline)
            else:
                assert plan_attack(ctx, "delay", extra_m, deadline).cost >= max(costs, default=0)


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
            assert strategy.trace.dropped(tau)
            rep = oracle_replay(ctx, strategy.slot_set)
            assert evacuation_slot(rep, tau) == INF
            assert strategy.summary()["targets"] == whole_run_outcomes(ctx, strategy)
        checked += 1


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_delay_plan_meets_its_goal_on_multi_target_worlds(seed, data):
    # small stores overflow, so a target may be dropped, or never leave,
    # before the planner reaches a later one; every plan must still meet
    # its goal, and its summary must hold the whole run's outcomes
    ctx = random_ladder_context(np.random.default_rng(seed))
    ids = list(ctx.world.byte_ranges)
    count = data.draw(st.integers(2, min(3, len(ids))))
    first = data.draw(st.integers(0, len(ids) - count))
    ctx = replace(ctx, targets=tuple(ids[first:first + count]))
    per_unit = data.draw(st.booleans())
    te0 = ctx.baseline.t_e(ctx.final_target)
    earliest = ctx.world.t0 + 1 if per_unit or te0 == INF else max(int(te0), ctx.world.t0 + 1)
    deadline = data.draw(st.integers(earliest, ctx.world.horizon))
    # a unit that never downlinks, dropped or aboard at the horizon, is past
    # any deadline
    judged = ctx.targets if per_unit else (ctx.final_target,)

    def meets_goal(slots):
        trace = evolve(ctx.world, frozenset(slots), ctx.targets)
        return all(trace.t_e(uid) > deadline for uid in judged)

    try:
        strategy = plan_delay(ctx, deadline, per_unit_deadline=per_unit)
    except AttackFail:
        assert not any(meets_goal(subset) for size in range(len(ctx.attackable) + 1)
                       for subset in itertools.combinations(ctx.attackable, size))
        return
    assert meets_goal(strategy.slots)
    assert per_unit or verify_delay(ctx, strategy.slots, deadline)[0]
    assert strategy.summary()["targets"] == whole_run_outcomes(ctx, strategy)


def test_verify_rejects_non_attackable_slots():
    ctx = context(load_bundled("s0"))
    with pytest.raises(ValidationError, match="not attackable"):
        verify_delay(ctx, [3], 5)
    ok, report = verify_delay(ctx, [], 5)
    assert not ok
    assert report["evacuation_slot"] == 4


def test_verify_delay_needs_a_deadline():
    ctx = context(load_bundled("s0"))
    with pytest.raises(ValidationError, match="required"):
        verify_delay(ctx, [2], None)
    ok, _ = verify_delay(ctx, [2], target_slot=5)
    assert ok


def test_verify_overflow_reports_partial_failure():
    ok, report = verify_overflow(context(load_bundled("s0_ovf")), [4])
    assert not ok
    assert not report["targets"]["init-003"]["dropped"]


def test_multi_target_plan_covers_all_units():
    scenario = load_bundled("s0")
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
    scenario = load_bundled("s0")
    widened = replace(scenario, target=replace(
        scenario.target, target_unit_ids=("init-002", "init-003", "arr-001")))
    ctx = context(widened)
    with pytest.raises(ValidationError, match="before natural"):
        plan_delay(ctx, 5)
    strategy = plan_delay(ctx, 5, per_unit_deadline=True)
    trace = ctx.trace(strategy.slot_set)
    for uid in ("init-002", "init-003", "arr-001"):
        assert trace.t_e(uid) > 5


def test_plan_returns_early_when_target_drops():
    # the overflow scenario with a delay deadline: blocking drops the unit,
    # which satisfies any deadline trivially
    scenario = replace(load_bundled("s0_ovf"), target=replace(
        load_bundled("s0_ovf").target, target_downlink_slot=12))
    ctx = context(scenario)
    strategy = plan_delay(ctx, 12)
    ok, report = verify_delay(ctx, strategy.slots, 12)
    assert ok
    assert report["targets"]["init-003"]["dropped"] or \
        report["evacuation_slot"] > 12


@pytest.mark.parametrize("build, expected, cost", [
    # the only backward slot, 1, is chosen after every forward one
    (lambda: plan_overflow(random_ladder_context(np.random.default_rng(69))),
     [(2, "init-002"), (3, "init-002"), (7, "init-002"), (8, "init-002"),
      (9, "init-002"), (10, "init-002"), (12, "init-002"), (1, "init-002")], 16.0),
    (lambda: plan_attack(context(load_bundled("s0_ovf")), "overflow", 2, None),
     [(2, "init-001"), (4, "init-001"), (6, "init-003"), (8, "init-005")], 4.0),
], ids=["backward_slot_last", "s0_ovf_band"])
def test_plan_keeps_choice_order(build, expected, cost):
    strategy = build()
    assert list(strategy.plan.items()) == expected
    assert strategy.cost == cost
