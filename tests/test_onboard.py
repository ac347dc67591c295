"""Queue evolution: hand-worked values, conservation, reference parity."""

import math
import os
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import evacuation_slot, fifo_replay, last_full_slot
from orbitsiege import (
    AttackContext,
    QueueWorld,
    ValidationError,
    build_s0,
    evolve,
    load_scenario,
    per_slot_capacity,
    plan_attack,
)
from orbitsiege.onboard import evolve_rows, save_trace, save_trace_events

INF = math.inf

HORIZON = 12
EVEN = frozenset(range(2, HORIZON + 1, 2))


def desk_world(capacity=10):
    """The same world the frozen oracle expectations were computed on."""
    return QueueWorld(
        initial_units=tuple((f"init-{i:03d}", 1) for i in range(1, 6)),
        arrivals=tuple((t, ((f"arr-{t:03d}", 1),))
                       for t in range(1, HORIZON + 1)),
        transmissible=EVEN,
        capacity_bytes=capacity,
        volume_bytes=2,
        t0=0,
        horizon=HORIZON,
    )


TAU = "init-003"


def test_world_validation():
    with pytest.raises(ValidationError, match="capacity"):
        QueueWorld((), (), frozenset(), 0, 1, 0, 5)
    with pytest.raises(ValidationError, match="volume"):
        QueueWorld((), (), frozenset(), 1, 0, 0, 5)
    with pytest.raises(ValidationError, match="t0"):
        QueueWorld((), (), frozenset(), 1, 1, 6, 5)


@pytest.mark.parametrize("initial, arrivals, match", [
    ((("a", 0),), (), "sizes must be positive"),
    ((), ((1, (("a", -1),)),), "sizes must be positive"),
    ((("a", 1),), ((1, (("a", 1),)),), "ids must be unique"),
    ((), ((1, (("a", 1),)), (1, (("b", 1),))), "strictly increasing"),
    ((), ((2, (("a", 1),)), (1, (("b", 1),))), "strictly increasing"),
    ((), ((0, (("a", 1),)),), "within"),
    ((), ((6, (("a", 1),)),), "within"),
], ids=["zero-size", "negative-size", "duplicate-id", "repeated-slot",
        "unordered-slots", "before-t0", "after-horizon"])
def test_world_rejects_units_the_engine_cannot_place(initial, arrivals, match):
    with pytest.raises(ValidationError, match=match):
        QueueWorld(initial, arrivals, frozenset(), 10, 1, 1, 5)


def test_desk_baseline_landmarks():
    trace = evolve(desk_world(), frozenset(), (TAU,))
    assert trace.t_e(TAU) == 4
    assert trace.t_lb(TAU) == 0
    assert trace.queue_at(0) == 5
    assert trace.queue_at(2) == 5 and trace.queue_at(3) == 6
    assert sum(trace.drop_bytes) == 0
    assert not trace.dropped[TAU]
    assert trace.drop_slot[TAU] is None


def test_single_block_adds_two_slots():
    trace = evolve(desk_world(), frozenset({2}), (TAU,))
    assert trace.t_e(TAU) == 6
    assert sum(trace.drop_bytes) == 0


def test_conservation():
    world = desk_world(capacity=8)
    aboard = sum(size for _, size in world.initial_units)
    arrived = sum(size for _, units in world.arrivals for _, size in units)
    for attacked in (frozenset(), frozenset({2, 4}), frozenset({2, 4, 6, 8})):
        trace = evolve(world, attacked, (TAU,))
        moved = sum(trace.tx_bytes) + sum(trace.drop_bytes) + trace.queue_bytes[-1]
        assert moved == aboard + arrived


def test_rounding_rule_pads_small_drops():
    # a one-byte overflow against a two-byte slot volume drops two bytes
    world = QueueWorld((("a", 5), ("b", 5), ("c", 1)), (), frozenset(), 10, 2, 0, 0)
    trace = evolve(world, frozenset(), ())
    assert trace.drop_bytes == [2]
    assert trace.queue_bytes == [9]
    assert trace.events() == [(0, "dropped", "a")]


def test_rounding_rule_capped_by_queue():
    world = QueueWorld((("a", 1),), ((1, (("b", 1),)),), frozenset(), 1, 5, 1, 1)
    trace = evolve(world, frozenset(), ())
    # raw overflow 1 rounds up to the 5-byte volume but only 2 are aboard
    assert trace.drop_bytes == [2]
    assert trace.queue_bytes == [0]
    assert trace.events() == [(1, "dropped", "a"), (1, "dropped", "b")]


def test_slot_order_arrivals_then_tx_then_drop():
    # the arrival fills the queue to 3; transmission drains 2 before the
    # capacity check, so nothing is dropped
    world = QueueWorld((("a", 2),), ((2, (("b", 1),)),), frozenset({2}), 2, 2, 2, 2)
    trace = evolve(world, frozenset(), ("b",))
    assert trace.tx_bytes == [2]
    assert trace.drop_bytes == [0]
    assert trace.events() == [(2, "transmitted", "a")]
    assert trace.queue_bytes == [1]
    assert trace.subqueue("b") == [1]


def test_attacked_slot_transmits_nothing():
    world = QueueWorld((("a", 2),), (), frozenset({1, 2}), 10, 2, 1, 2)
    trace = evolve(world, frozenset({1}), ("a",))
    assert trace.tx_bytes == [0, 2]
    assert trace.t_e("a") == 2


def test_drop_voids_evacuation():
    # capacity 8 with two blocked slots pushes the head units into the drop
    trace = evolve(desk_world(capacity=8), frozenset({4, 6}), (TAU,))
    assert trace.dropped[TAU]
    assert trace.t_e(TAU) == INF
    assert trace.drop_slot[TAU] == 6
    assert trace.subqueue(TAU)[6] == 0


def test_partial_transmission_is_not_evacuation():
    world = QueueWorld(
        initial_units=(("big", 3),),
        arrivals=(),
        transmissible=frozenset({1, 2}),
        capacity_bytes=10,
        volume_bytes=2,
        t0=0,
        horizon=3,
    )
    trace = evolve(world, frozenset(), ("big",))
    # two bytes leave at slot 1, the last byte at slot 2
    assert trace.t_e("big") == 2
    assert trace.subqueue("big")[1] == 1


def test_last_full_slot_tracks_capacity_touches():
    # capacity 6 is touched at slot 3 while the target leaves at slot 6
    trace = evolve(desk_world(capacity=6), frozenset({2}), (TAU,))
    oracle = fifo_replay(
        [(f"init-{i:03d}", 1) for i in range(1, 6)],
        {t: [(f"arr-{t:03d}", 1)] for t in range(1, HORIZON + 1)},
        EVEN, frozenset({2}), 6, 2, 0, HORIZON)
    assert trace.t_e(TAU) == evacuation_slot(oracle, TAU)
    assert trace.t_lb(TAU) == last_full_slot(oracle, TAU, 6, 0)
    assert trace.t_lb(TAU) > 0


def assert_matches_replay(world, attacked, trace):
    """Every per-slot count, every tracked unit's landmarks and sub-queue, and
    every unit's event agree with the naive unit-level FIFO replay."""
    oracle = fifo_replay(
        list(world.initial_units),
        {t: list(units) for t, units in world.arrivals},
        world.transmissible, attacked,
        world.capacity_bytes, world.volume_bytes, world.t0, world.horizon)
    slots = range(world.t0, world.horizon + 1)
    assert trace.queue_bytes == [oracle["queue"][t] for t in slots]
    assert trace.tx_bytes == [oracle["o"][t] for t in slots]
    assert trace.drop_bytes == [oracle["d"][t] for t in slots]
    for uid in trace.evacuation:
        # a dropped unit's sub-queue is void from its drop slot on, even
        # while the replay still holds the rest of its bytes
        gone = oracle["dropped"].get(uid, INF)
        subq = oracle["subq"].get(uid, {})
        assert trace.subqueue(uid) == [subq.get(t, 0) if t < gone else 0
                                       for t in slots]
        assert trace.t_e(uid) == evacuation_slot(oracle, uid)
        assert trace.t_lb(uid) == last_full_slot(
            oracle, uid, world.capacity_bytes, world.t0)
        assert trace.dropped[uid] == (uid in oracle["dropped"])
        assert trace.drop_slot[uid] == oracle["dropped"].get(uid)
    events = trace.events()
    assert len({uid for _, _, uid in events}) == len(events)
    assert {uid: t for t, kind, uid in events if kind == "transmitted"} == oracle["done"]
    assert {uid: t for t, kind, uid in events if kind == "dropped"} == oracle["dropped"]


@st.composite
def random_world(draw):
    t0 = draw(st.integers(0, 3))
    horizon = t0 + draw(st.integers(4, 14))
    n_initial = draw(st.integers(0, 6))
    initial = tuple((f"init-{i:03d}", draw(st.integers(1, 4)))
                    for i in range(1, n_initial + 1))
    arrivals = []
    for t in range(t0, horizon + 1):
        units = tuple((f"arr-{t:03d}-{k}", draw(st.integers(1, 4)))
                      for k in range(draw(st.integers(0, 2))))
        if units:
            arrivals.append((t, units))
    transmissible = frozenset(
        t for t in range(horizon + 1) if draw(st.booleans()))
    attacked = frozenset(t for t in transmissible if draw(st.booleans()))
    world = QueueWorld(
        initial_units=initial,
        arrivals=tuple(arrivals),
        transmissible=transmissible,
        capacity_bytes=draw(st.integers(3, 12)),
        volume_bytes=draw(st.integers(1, 5)),
        t0=t0,
        horizon=horizon,
    )
    return world, attacked


@settings(max_examples=120, deadline=None)
@given(random_world(), st.data())
def test_engines_agree(world_attacked, data):
    """The engine's answers do not depend on which units it tracks: a random
    subset sees the same slots, landmarks, sub-queues and events as all."""
    world, attacked = world_attacked
    order = list(world.byte_ranges)
    subset = tuple(uid for uid in order if data.draw(st.booleans()))
    full = evolve(world, attacked, tuple(order))
    part = evolve(world, attacked, subset)
    assert part.queue_bytes == full.queue_bytes
    assert part.tx_bytes == full.tx_bytes
    assert part.drop_bytes == full.drop_bytes
    assert set(part.evacuation) == set(subset)
    for uid in subset:
        assert part.t_e(uid) == full.t_e(uid)
        assert part.t_lb(uid) == full.t_lb(uid)
        assert part.dropped[uid] == full.dropped[uid]
        assert part.drop_slot[uid] == full.drop_slot[uid]
        assert part.subqueue(uid) == full.subqueue(uid)
    assert part.events() == full.events()


@settings(max_examples=200, deadline=None)
@given(random_world(), st.data())
def test_per_unit_engine_matches_reference(world_attacked, data):
    """Every unit's fate read off the byte intervals matches the unit-level
    FIFO replay, for a random set of tracked units."""
    world, attacked = world_attacked
    order = list(world.byte_ranges)
    tracked = tuple(uid for uid in order if data.draw(st.booleans()))
    assert_matches_replay(world, attacked, evolve(world, attacked, tracked))


@st.composite
def random_rows(draw):
    """1-5 worlds that share unit ids, arrival slots, transmissible slots and
    capacity, each with its own unit sizes, volume and attacked slots."""
    world, _ = draw(random_world())
    assume(world.byte_ranges)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        def resize(units):
            return tuple((uid, draw(st.integers(1, 4))) for uid, _ in units)

        row = replace(world, initial_units=resize(world.initial_units),
                      arrivals=tuple((t, resize(group)) for t, group in world.arrivals),
                      volume_bytes=draw(st.integers(1, 5)))
        rows.append((row, frozenset(t for t in world.transmissible if draw(st.booleans()))))
    return rows


@settings(max_examples=200, deadline=None)
@given(random_rows(), st.data())
def test_batched_rows_match_evolve_and_reference(rows, data):
    """Each row of one evolve_rows call gives its tracked units the departure
    slot and lost flag that evolve and the unit-level FIFO replay give."""
    first = rows[0][0]
    order = list(first.byte_ranges)
    tracked = tuple(uid for uid in order if data.draw(st.booleans())) or (order[-1],)
    slots = range(first.t0, first.horizon + 1)
    slot, lost = evolve_rows(
        [[world.inflow.get(t, 0) for t in slots] for world, _ in rows],
        [[t in world.transmissible and t not in attacked for t in slots]
         for world, attacked in rows],
        [world.volume_bytes for world, _ in rows], first.capacity_bytes,
        [[world.byte_ranges[uid][1] for uid in tracked] for world, _ in rows],
        [[world.byte_ranges[uid][2] for uid in tracked] for world, _ in rows])
    assert slot.shape == lost.shape == (len(rows), len(tracked))
    for r, (world, attacked) in enumerate(rows):
        trace = evolve(world, attacked, tracked)
        oracle = fifo_replay(
            list(world.initial_units), {t: list(units) for t, units in world.arrivals},
            world.transmissible, attacked, world.capacity_bytes, world.volume_bytes,
            world.t0, world.horizon)
        for k, uid in enumerate(tracked):
            at = world.t0 + int(slot[r, k])
            assert bool(lost[r, k]) == trace.dropped[uid] == (uid in oracle["dropped"])
            if lost[r, k]:
                assert at == trace.drop_slot[uid] == oracle["dropped"][uid]
            else:
                left = at if at <= world.horizon else INF
                assert left == trace.t_e(uid) == evacuation_slot(oracle, uid)


SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@pytest.mark.parametrize("name, kind", [("constellation_24h", "delay"),
                                        ("s0_ovf", "overflow")])
def test_bundled_scenario_plan_matches_reference(name, kind):
    scenario = load_scenario(os.path.join(SCENARIOS, f"{name}.json"))
    ctx = AttackContext.from_scenario(scenario)
    strategy = plan_attack(scenario, kind, extra_m=0)
    assert strategy.slots
    assert_matches_replay(ctx.world, strategy.slot_set, ctx.trace(strategy.slot_set))


def test_per_slot_capacity_floor():
    scenario = build_s0()
    # 16 bit/s over 1 s slots is 2 bytes
    assert per_slot_capacity(scenario) == 2


def test_trace_outputs(tmp_path):
    trace = evolve(desk_world(capacity=8), frozenset({4, 6}), (TAU,))
    path = str(tmp_path / "trace.csv")
    save_trace(path, trace, (TAU,))
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == f"slot,queue_bytes,tx_bytes,drop_bytes,subq_{TAU}_bytes"
    assert len(lines) == 2 + HORIZON

    events = str(tmp_path / "events.csv")
    save_trace_events(events, trace)
    text = open(events, encoding="utf-8").read()
    assert text.splitlines()[0] == "slot,event,unit_id"
    assert f"6,dropped,{TAU}" in text.splitlines()[1:]
