"""AttackContext construction rules and the strategy record."""

import json
import math

import pytest

from bundled import load_bundled
from orbitsiege import AttackContext, ValidationError, attackability_for
from orbitsiege.attack import AttackStrategy, strategy_table
from orbitsiege.onboard import QueueWorld
from orbitsiege.output import csv_text, json_text

INF = math.inf


def small_world(**overrides):
    kw = dict(
        initial_units=(("u-1", 1), ("u-2", 1)),
        arrivals=((3, (("u-3", 1),)),),
        transmissible=frozenset({2, 4, 6}),
        capacity_bytes=5,
        volume_bytes=1,
        t0=0,
        horizon=8,
    )
    kw.update(overrides)
    return QueueWorld(**kw)


def make_context(price=None, targets=("u-2",), **world_kw):
    if price is None:
        price = {2: 1.0, 4: 1.0}
    return AttackContext(world=small_world(**world_kw), price=price,
                         targets=tuple(targets))


def test_context_accepts_well_formed():
    ctx = make_context()
    assert ctx.final_target == "u-2"
    assert ctx.attackable == (2, 4)
    assert ctx.cost_of([2, 4]) == pytest.approx(2.0)
    assert ctx.baseline.t_e("u-2") == 4


def test_context_rejects_bad_slots():
    # the ladder is the price map's keys, so a repeated or unpriced slot
    # cannot be written down; only their order can be wrong
    with pytest.raises(ValidationError, match="slot order"):
        make_context(price={4: 1.0, 2: 1.0})
    with pytest.raises(ValidationError, match="not transmissible"):
        make_context(price={3: 1.0})
    with pytest.raises(ValidationError, match="outside plan window"):
        make_context(price={2: 1.0}, t0=3)
    with pytest.raises(ValidationError, match="finite cost"):
        make_context(price={2: INF, 4: 1.0})
    with pytest.raises(ValidationError, match="finite cost"):
        make_context(price={2: -1.0, 4: 1.0})


def test_context_rejects_bad_targets():
    with pytest.raises(ValidationError, match="non-empty"):
        make_context(targets=())
    with pytest.raises(ValidationError, match="not aboard"):
        make_context(targets=("ghost",))
    with pytest.raises(ValidationError, match="arrival order"):
        make_context(targets=("u-3", "u-1"))


def test_require_subset():
    ctx = make_context()
    assert ctx.require_subset([2]) == frozenset({2})
    assert ctx.require_subset([]) == frozenset()
    with pytest.raises(ValidationError, match=r"not attackable: \[6\]"):
        ctx.require_subset([2, 6])


def test_from_scenario_clips_to_attack_window():
    scenario = load_bundled("s0")
    # move the attack start past the first rung of the ladder
    from dataclasses import replace

    late = replace(scenario, target=replace(scenario.target,
                                            attack_start_slot=3))
    ctx = AttackContext.from_scenario(late, attackability_for(late))
    assert ctx.attackable == (4, 6, 8, 10, 12)
    assert ctx.world.t0 == 3
    assert set(ctx.price) == {4, 6, 8, 10, 12}
    # the queue world still carries the full transmissible ladder
    assert ctx.world.transmissible == frozenset({2, 4, 6, 8, 10, 12})


def test_from_scenario_groups_an_unordered_trace_by_capture_slot():
    # a scenario built in code may list its trace out of capture order;
    # units captured in one slot keep their trace order, other satellites'
    # units and captures before the attack start are left out
    from dataclasses import replace

    from orbitsiege.scenario import DataUnit

    scenario = load_bundled("s0")
    sat = scenario.target.satellite_id
    trace = tuple(DataUnit(uid, sid, t, 1) for uid, sid, t in (
        ("arr-003", sat, 3), ("other", "elsewhere", 1), ("arr-001b", sat, 1),
        ("arr-002", sat, 2), ("arr-001a", sat, 1), ("early", sat, 0)))
    late = replace(scenario, trace=trace,
                   target=replace(scenario.target, attack_start_slot=1))
    ctx = AttackContext.from_scenario(late, attackability_for(late))
    assert ctx.world.arrivals == (
        (1, (("arr-001b", 1), ("arr-001a", 1))), (2, (("arr-002", 1),)),
        (3, (("arr-003", 1),)))


def test_from_scenario_baseline_matches_desk_numbers():
    scenario = load_bundled("s0")
    ctx = AttackContext.from_scenario(scenario, attackability_for(scenario))
    trace = ctx.baseline
    assert trace.t_e("init-003") == 4
    assert ctx.attackable == (2, 4, 6, 8, 10, 12)


def test_strategy_invariants():
    trace = make_context().baseline
    with pytest.raises(ValidationError, match="unique"):
        AttackStrategy(slots=(2, 2), slot_costs=(1.0, 1.0),
                       motivating=("a", "a"), trace=trace)
    with pytest.raises(ValidationError, match="align"):
        AttackStrategy(slots=(2,), slot_costs=(), motivating=("a",), trace=trace)


def test_strategy_summary_and_outputs():
    # a one-byte store: with slot 2 blocked, the unit arriving at slot 3
    # pushes u-2 out
    ctx = make_context(capacity_bytes=1)
    strategy = AttackStrategy.from_trace(ctx, [4, 2], ["u-2", "u-2"], ctx.trace({2, 4}))
    assert strategy.slot_set == frozenset({2, 4})
    assert strategy.cost == pytest.approx(2.0)
    summary = strategy.summary()
    assert summary["slots"] == [4, 2]
    assert summary["targets"]["u-2"]["dropped"] is True
    assert summary["targets"]["u-2"]["drop_slot"] == 3

    assert csv_text(*strategy_table(strategy)).splitlines() == [
        "slot,cost,motivating_unit", "4,1,u-2", "2,1,u-2"]
    # non-finite floats become null so the summary stays strict JSON
    loaded = json.loads(json_text(summary))
    assert loaded["targets"]["u-2"]["evacuation_slot"] is None


def test_strategy_from_trace():
    ctx = make_context()
    trace = ctx.trace({2})
    strategy = AttackStrategy.from_trace(ctx, [2], ["u-2"], trace)
    assert strategy.slots == (2,)
    assert strategy.slot_costs == (1.0,)
    assert strategy.trace is trace
