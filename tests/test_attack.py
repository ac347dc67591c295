"""AttackContext construction rules and the strategy record."""

import json
import math

import pytest

from orbitsiege import (
    AttackContext,
    AttackStrategy,
    QueueWorld,
    ValidationError,
    attackability_for,
    build_s0,
)
from orbitsiege.attack import save_strategy, save_strategy_summary

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


def make_context(attackable=(2, 4), price=None, targets=("u-2",), **world_kw):
    if price is None:
        price = {t: 1.0 for t in attackable}
    return AttackContext(world=small_world(**world_kw),
                         attackable=tuple(attackable), price=price,
                         targets=tuple(targets))


def test_context_accepts_well_formed():
    ctx = make_context()
    assert ctx.final_target == "u-2"
    assert ctx.cost_of([2, 4]) == pytest.approx(2.0)
    assert ctx.baseline.t_e("u-2") == 4


def test_context_rejects_bad_slots():
    with pytest.raises(ValidationError, match="sorted and unique"):
        make_context(attackable=(4, 2))
    with pytest.raises(ValidationError, match="not transmissible"):
        make_context(attackable=(3,), price={3: 1.0})
    with pytest.raises(ValidationError, match="outside plan window"):
        make_context(attackable=(2,), price={2: 1.0}, t0=3)
    with pytest.raises(ValidationError, match="finite cost"):
        make_context(price={2: INF, 4: 1.0})
    with pytest.raises(ValidationError, match="finite cost"):
        make_context(price={2: -1.0, 4: 1.0})
    with pytest.raises(ValidationError, match="finite cost"):
        make_context(price={4: 1.0})


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
    scenario = build_s0()
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


def test_from_scenario_baseline_matches_desk_numbers():
    scenario = build_s0()
    ctx = AttackContext.from_scenario(scenario, attackability_for(scenario))
    trace = ctx.baseline
    assert trace.t_e("init-003") == 4
    assert ctx.attackable == (2, 4, 6, 8, 10, 12)


def test_strategy_invariants():
    with pytest.raises(ValidationError, match="unique"):
        AttackStrategy(slots=(2, 2), slot_costs=(1.0, 1.0),
                       motivating=("a", "a"), evacuation={}, dropped={},
                       drop_slot={})
    with pytest.raises(ValidationError, match="align"):
        AttackStrategy(slots=(2,), slot_costs=(), motivating=("a",),
                       evacuation={}, dropped={}, drop_slot={})


def test_strategy_summary_and_outputs(tmp_path):
    strategy = AttackStrategy(
        slots=(4, 2), slot_costs=(1.0, 1.0), motivating=("u-2", "u-2"),
        evacuation={"u-2": INF}, dropped={"u-2": True}, drop_slot={"u-2": 6})
    assert strategy.slot_set == frozenset({2, 4})
    assert strategy.cost == pytest.approx(2.0)
    summary = strategy.summary()
    assert summary["slots"] == [4, 2]
    assert summary["targets"]["u-2"]["dropped"] is True
    assert summary["targets"]["u-2"]["drop_slot"] == 6

    csv_path = str(tmp_path / "strategy.csv")
    save_strategy(csv_path, strategy)
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == ["slot,cost,motivating_unit", "4,1,u-2", "2,1,u-2"]

    json_path = str(tmp_path / "strategy.summary.json")
    save_strategy_summary(json_path, strategy)
    with open(json_path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    # non-finite floats become null so the file stays strict JSON
    assert loaded["targets"]["u-2"]["evacuation_slot"] is None


def test_strategy_from_trace():
    ctx = make_context()
    trace = ctx.trace({2})
    strategy = AttackStrategy.from_trace(ctx, [2], ["u-2"], trace)
    assert strategy.slots == (2,)
    assert strategy.slot_costs == (1.0,)
    assert strategy.evacuation["u-2"] == trace.t_e("u-2")
