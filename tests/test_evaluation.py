"""Monte-Carlo harness: noise statistics, trial judging, sweep plumbing."""

import os
from dataclasses import replace

import numpy as np
import pytest

from orbitsiege import (AttackContext, EvalConfig, NoiseModel, ValidationError,
                        attackability_for, derive_rng, extend_targets,
                        load_scenario, perturb, plan_attack, save_aggregate,
                        save_report, sweep, verify_delay, verify_overflow)
from orbitsiege import evaluation
from orbitsiege.evaluation import (TRUNCATION_RATIO, TrialLayout, _resample,
                                   aggregate_rows, report_rows)
from orbitsiege.synth import build_s0, build_s0_ovf

SILENT = NoiseModel(0.0, 0.0, 0.0)
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def test_noise_model_bounds():
    with pytest.raises(ValidationError, match="size_std_ratio"):
        NoiseModel(size_std_ratio=1.5)
    with pytest.raises(ValidationError, match="queue_len_std_ratio"):
        NoiseModel(queue_len_std_ratio=-0.1)


def test_eval_config_validation():
    good = dict(kind="delay", axis="budget", values=(1.0,))
    EvalConfig(**good)
    with pytest.raises(ValidationError, match="kind"):
        EvalConfig(**{**good, "kind": "exfil"})
    with pytest.raises(ValidationError, match="axis"):
        EvalConfig(**{**good, "axis": "weather"})
    with pytest.raises(ValidationError, match="values"):
        EvalConfig(**{**good, "values": ()})
    with pytest.raises(ValidationError, match="trials"):
        EvalConfig(**good, trials=0)
    with pytest.raises(ValidationError, match="extra_m"):
        EvalConfig(**good, extra_m=-1)
    with pytest.raises(ValidationError, match="seed_groups"):
        EvalConfig(**good, seed_groups=0)


def test_resample_statistics():
    rng = np.random.default_rng(5)
    nominal, ratio = 10_000, 0.2
    draws = _resample(rng, np.full(10_000, nominal), ratio)
    assert abs(draws.mean() - nominal) < 0.01 * nominal
    assert abs(draws.std() - ratio * nominal) < 0.05 * ratio * nominal
    assert draws.min() >= 1


def test_resample_truncation_floor():
    rng = np.random.default_rng(6)
    nominal = 100
    draws = _resample(rng, np.full(10_000, nominal), 1.0)
    assert draws.min() >= round(TRUNCATION_RATIO * nominal)


def test_resample_draws_like_scalar_calls():
    # one array call consumes the stream and rounds exactly as a loop of
    # scalar draws with Python's round (half to even) does; a 25- or 45-byte
    # unit clipped at the truncation floor lands on 2.5 or 4.5
    nominal = [7, 100, 2_000_000_000, 1, 3] + [25, 45] * 10
    for ratio in (0.0, 0.5, 1.0):
        batch = _resample(np.random.default_rng(8), nominal, ratio).tolist()
        rng = np.random.default_rng(8)
        loop = [max(1, int(round(max(rng.normal(n, ratio * n), TRUNCATION_RATIO * n))))
                for n in nominal]
        assert batch == loop


@pytest.mark.parametrize("axis, nominal", [("data_rate", 16), ("image_size", 1)])
def test_resample_refuses_values_past_int64(axis, nominal):
    # a rate or unit size past 2**63 would wrap to a negative int64
    with pytest.raises(ValidationError, match="int64 byte range"):
        _resample(np.random.default_rng(0), [2.0**63], 0.0)
    config = EvalConfig(kind="delay", axis=axis, values=(10**20, nominal), trials=4)
    points = sweep(build_s0(), config).points
    assert points[0].error == "resampled value exceeds the int64 byte range"
    assert points[0].records == ()
    assert points[1].error is None


def with_sizes(scenario, sizes):
    """scenario with the target's initial queue resized head to tail."""
    sat_id = scenario.target.satellite_id
    queue = tuple(
        (sid, tuple(replace(u, size_bytes=size) for u, size in zip(units, sizes))
         if sid == sat_id else units)
        for sid, units in scenario.initial_queue)
    return replace(scenario, initial_queue=queue)


def distinct_s0():
    """s0 with head units of distinct sizes, so a unit is known by its size."""
    return with_sizes(build_s0(), [11, 12, 13, 14, 15])


def context(scenario):
    return AttackContext.from_scenario(scenario, attackability_for(scenario))


def layout_of(scenario):
    ctx = context(scenario)
    return ctx, TrialLayout.from_context(scenario, ctx)


def nominal_sizes(ctx):
    return [end - start for _, start, end in ctx.world.byte_ranges.values()]


def test_perturb_silent_noise_is_identity():
    ctx, layout = layout_of(distinct_s0())
    volume, shift, sizes = perturb(layout, SILENT, np.random.default_rng(0))
    assert volume == ctx.world.volume_bytes
    assert shift == 0
    assert sizes.dtype == np.int64
    assert sizes.tolist() == nominal_sizes(ctx)


def test_perturb_is_deterministic_per_stream():
    _, layout = layout_of(distinct_s0())
    noise = NoiseModel(0.3, 0.3, 0.3)

    def draw(seed):
        volume, shift, sizes = perturb(layout, noise, np.random.default_rng(seed))
        return volume, shift, sizes.tolist()

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def test_perturb_touches_only_the_target_satellite():
    # the true world is the target's queue alone: a trial draws its volume,
    # a head shift and one size per unit of the shifted stream, and head
    # insertions come first, at the head's nominal size
    ctx, layout = layout_of(distinct_s0())
    nominal = nominal_sizes(ctx)
    # s0 downlinks 2 bytes per slot; more rate noise can stall it (see
    # test_sweep_flags_a_degenerate_true_world)
    noise = NoiseModel(0.4, 0.1, 0.4)
    changed = False
    for seed in range(20):
        volume, shift, sizes = perturb(layout, noise, np.random.default_rng(seed))
        assert len(sizes) == len(nominal) + shift
        assert -2 <= shift, "init-003 is two units deep"
        _, _, kept = perturb(layout, replace(noise, size_std_ratio=0.0),
                             np.random.default_rng(seed))
        assert kept.tolist() == [11] * max(shift, 0) + nominal[max(-shift, 0):]
        changed |= volume != ctx.world.volume_bytes or sizes.tolist() != nominal
    assert changed


def test_perturb_queue_shift_never_eats_the_target():
    # heavy length noise: head insertions show up as head-sized units in
    # front, head removals stop at the first target unit (init-003, two
    # units deep)
    ctx, layout = layout_of(distinct_s0())
    nominal = nominal_sizes(ctx)
    noise = NoiseModel(0.0, 0.0, 1.0)
    saw_insert = saw_remove = False
    for seed in range(60):
        _, shift, sizes = perturb(layout, noise, np.random.default_rng(seed))
        sizes = sizes.tolist()
        # the shift is the second draw of the stream, after the rate's
        ref = np.random.default_rng(seed)
        ref.standard_normal()
        drawn = round(5 * ref.standard_normal())
        assert shift == max(drawn, -2)
        # init-003 and everything behind it survive, in place behind the head
        assert sizes[2 + shift:] == nominal[2:]
        assert sizes == [11] * max(shift, 0) + nominal[max(-shift, 0):], \
            "insertions must sit at the head"
        saw_insert |= shift > 0
        saw_remove |= shift < 0
    assert saw_insert and saw_remove


def judge_one(scenario, kind, strategy, draw):
    """One trial judged the slow way: its QueueWorld rebuilt from the draw
    and run through evolve with and without the strategy."""
    ctx = context(scenario)
    volume, shift, sizes = draw
    head = list(ctx.world.initial_units)
    if shift > 0:
        head = [(f"jit-{i:03d}", head[0][1]) for i in range(1, shift + 1)] + head
    head = head[max(-shift, 0):]
    resized = iter(sizes.tolist())
    world = replace(
        ctx.world,
        initial_units=tuple((uid, next(resized)) for uid, _ in head),
        arrivals=tuple((t, tuple((uid, next(resized)) for uid, _ in group))
                       for t, group in ctx.world.arrivals),
        volume_bytes=volume)
    true_ctx = replace(ctx, world=world)

    def hit(trace):
        if kind == "delay":
            return trace.t_e(ctx.final_target) > scenario.target.target_downlink_slot
        return all(trace.dropped[uid] for uid in ctx.targets)

    return hit(true_ctx.trace(strategy.slot_set)), hit(true_ctx.baseline)


@pytest.mark.parametrize("name, kind, noise", [("constellation_24h", "delay", 0.6),
                                               ("s0_ovf", "overflow", 0.15)])
def test_batched_trials_match_per_trial_evolve(name, kind, noise):
    # every trial of a point, judged in one batch, agrees with rebuilding
    # its true world and running evolve twice
    scenario = load_scenario(os.path.join(SCENARIOS, f"{name}.json"))
    config = EvalConfig(kind=kind, axis="noise_ratio", values=(noise,), trials=40,
                        master_seed=7, seed_groups=4)
    point = sweep(scenario, config).points[0]
    assert point.error is None
    ctx, layout = layout_of(scenario)
    strategy = plan_attack(ctx, kind, 0, scenario.target.target_downlink_slot)
    model = NoiseModel(noise, noise, noise)
    outcomes = set()
    for k, record in enumerate(point.records):
        group, trial = divmod(k, 10)
        draw = perturb(layout, model, derive_rng(7, "noise_ratio", noise, group, trial))
        assert (record.success, record.natural) == judge_one(scenario, kind, strategy, draw)
        outcomes.add(record.success)
    assert outcomes == {True, False}


def test_extend_targets_clips_at_the_ends():
    ids = tuple(u.unit_id for u in build_s0().fifo_units("obs-1"))
    assert ids[:5] == ("init-001", "init-002", "init-003", "init-004", "init-005")

    assert extend_targets(("init-003",), ids, 0) == ("init-003",)
    assert extend_targets(("init-003",), ids, 1) == \
        ("init-002", "init-003", "init-004")
    assert extend_targets(("init-001",), ids, 2) == \
        ("init-001", "init-002", "init-003")
    wide = extend_targets(("init-003",), ids, 100)
    assert wide[0] == "init-001" and wide[-1] == ids[-1]
    with pytest.raises(ValidationError, match="not aboard"):
        extend_targets(("ghost",), ids, 1)
    with pytest.raises(ValidationError, match="m must be"):
        extend_targets(("init-003",), ids, -1)


def test_plan_attack_widened_band_holds_every_member():
    scenario = build_s0()
    strategy = plan_attack(context(scenario), "delay", 1, 5)
    band = extend_targets(("init-003",), (u.unit_id for u in scenario.fifo_units("obs-1")), 1)
    widened = replace(scenario, target=replace(scenario.target,
                                               target_unit_ids=band))
    trace = context(widened).trace(strategy.slot_set)
    for uid in band:
        assert trace.t_e(uid) > 5


def one_trial(scenario, kind, **kw):
    """A single noiseless trial, run as `evaluate` runs it: one sweep point
    on the extra_M axis."""
    config = EvalConfig(kind=kind, axis="extra_M", values=(0,), trials=1,
                        noise=SILENT, **kw)
    point = sweep(scenario, config).points[0]
    assert point.error is None
    return point.records[0]


def test_zero_noise_trial_agrees_with_verify():
    scenario = build_s0()
    record = one_trial(scenario, "delay")
    assert record.success
    assert record.cost == 1.0
    ok, report = verify_delay(context(scenario), record.planned_slots, 5)
    assert ok and report["evacuation_slot"] > 5

    ovf = build_s0_ovf()
    record = one_trial(ovf, "overflow")
    assert record.success
    ok, report = verify_overflow(context(ovf), record.planned_slots)
    assert ok and report["targets"]["init-003"]["dropped"]


def test_budget_starves_the_planned_strategy():
    scenario = build_s0()
    record = one_trial(scenario, "delay", cost_budget=0.5)
    assert not record.success
    assert record.cost == 1.0
    assert record.planned_slots  # the plan existed, the budget killed it


def test_natural_outcome_is_tracked_separately():
    # push the deadline below the natural evacuation of the true world:
    # with zero noise the unit downlinks at 4, deadline 5 is never natural
    scenario = build_s0()
    record = one_trial(scenario, "delay", master_seed=1)
    assert not record.natural


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(7, "budget", 1.0, 0, 0).random(4)
    b = derive_rng(7, "budget", 1.0, 0, 0).random(4)
    c = derive_rng(7, "budget", 1.0, 0, 1).random(4)
    d = derive_rng(8, "budget", 1.0, 0, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def make_config(**kw):
    base = dict(kind="delay", axis="noise_ratio", values=(0.0, 0.2),
                trials=12, master_seed=3, seed_groups=4)
    base.update(kw)
    return EvalConfig(**base)


def test_sweep_is_deterministic():
    scenario = build_s0()
    config = make_config()
    first = sweep(scenario, config)
    second = sweep(scenario, config)
    assert report_rows(first) == report_rows(second)
    assert aggregate_rows(first) == aggregate_rows(second)


def test_sweep_zero_noise_point_is_exact():
    scenario = build_s0()
    result = sweep(scenario, make_config())
    clean = result.points[0]
    assert clean.value == 0.0
    assert clean.success_ratio == 1.0
    assert clean.group_ratios == (1.0,) * 4
    assert clean.median == 1.0
    noisy = result.points[1]
    assert len(noisy.records) == 12
    assert all(0.0 <= r <= 1.0 for r in noisy.group_ratios)


def test_sweep_flags_a_degenerate_true_world():
    # 16 bit/s moves 2 bytes per slot; heavy rate noise can push the true
    # world below 1 byte per slot, which is a modeling error, not a miss
    scenario = build_s0()
    result = sweep(scenario, make_config(values=(0.3,)))
    point = result.points[0]
    assert point.error == "volume_bytes must be positive"
    assert point.records == ()


def test_sweep_rejects_true_worlds_it_cannot_hold():
    # units a trial inserts at the head carry no ids, so a head unit named
    # like "jit-002" runs exactly as under its own name
    s0 = build_s0()
    sat_id = s0.target.satellite_id
    queue = tuple((sid, tuple(replace(u, unit_id="jit-002") if u.unit_id == "init-001" else u
                              for u in units) if sid == sat_id else units)
                  for sid, units in s0.initial_queue)
    renamed = replace(s0, initial_queue=queue)
    config = make_config(values=(0.0,), noise=NoiseModel(0.0, 0.0, 1.0), axis="budget")
    point = sweep(renamed, config).points[0]
    assert point.error is None
    assert point.records == sweep(s0, config).points[0].records
    # the trials run in int64, so a stream past 2**63 bytes is refused
    # rather than wrapped
    huge = with_sizes(s0, [2**62] * 5)
    point = sweep(huge, make_config(values=(1.0,), noise=SILENT, axis="budget")).points[0]
    assert point.error == "unit sizes overflow the int64 byte stream"


def test_sweep_batches_do_not_change_the_records(monkeypatch):
    # a point's trials run BATCH_TRIALS at a time; smaller batches, one that
    # splits a seed group included, give the same records and ratios
    scenario = load_scenario(os.path.join(SCENARIOS, "s0_ovf.json"))
    config = EvalConfig(kind="overflow", axis="noise_ratio", values=(0.15,),
                        trials=23, master_seed=2, seed_groups=4)
    whole = sweep(scenario, config)
    monkeypatch.setattr(evaluation, "BATCH_TRIALS", 5)
    batched = sweep(scenario, config)
    assert report_rows(batched) == report_rows(whole)
    assert batched.points[0].group_ratios == whole.points[0].group_ratios
    assert {r.success for r in whole.points[0].records} == {True, False}


@pytest.mark.parametrize("axis, values", [("noise_ratio", (0.0, 0.2)),
                                          ("extra_M", (0, 1)),
                                          ("target_duration", (0.001, 0.002)),
                                          ("image_size", (1, 2))])
def test_sweep_builds_one_context_per_point(monkeypatch, axis, values):
    # the plan, the deadline anchor and the trials all read the point's
    # nominal context; a widened target band reuses it too
    built = []
    build = AttackContext.from_scenario

    def counted(scenario, records):
        built.append(scenario)
        return build(scenario, records)

    monkeypatch.setattr(AttackContext, "from_scenario", staticmethod(counted))
    result = sweep(build_s0(), make_config(axis=axis, values=values))
    assert result.errors == ()
    assert len(built) == len(values)


def test_duration_sweep_traces_the_no_attack_queue_once(monkeypatch):
    # the deadline anchor and the delay planner share the context's baseline
    from orbitsiege import attack

    sizes = []
    evolve = attack.evolve

    def counted(world, strategy, targets):
        sizes.append(len(strategy))
        return evolve(world, strategy, targets)

    monkeypatch.setattr(attack, "evolve", counted)
    scenario = load_scenario(os.path.join(SCENARIOS, "constellation_24h.json"))
    result = sweep(scenario, make_config(axis="target_duration", values=(1.0,), trials=2))
    assert result.errors == ()
    assert sizes.count(0) == 1 and sizes[0] == 0
    assert len(sizes) > 1


def test_sweep_budget_axis_brackets_the_plan_cost():
    scenario = build_s0()
    result = sweep(scenario, make_config(axis="budget", values=(0.5, 1.0),
                                         noise=SILENT))
    assert result.points[0].success_ratio == 0.0
    assert result.points[1].success_ratio == 1.0


def test_sweep_captures_per_point_errors():
    scenario = build_s0()  # no high-priority satellites aboard
    result = sweep(scenario, make_config(axis="n_high", values=(0, 1)))
    assert result.points[0].error is None
    assert result.points[1].error is not None
    assert "n_high" in result.points[1].error
    assert result.errors == ((1, result.points[1].error),)
    # errored points carry no trials and are skipped by the aggregate
    assert result.points[1].records == ()
    assert len(aggregate_rows(result)) == 1


def test_sweep_group_sizes_split_the_trials():
    scenario = build_s0()
    result = sweep(scenario, make_config(values=(0.2,), trials=7,
                                         seed_groups=3))
    point = result.points[0]
    assert len(point.records) == 7
    assert len(point.group_ratios) == 3


def test_duration_axis_needs_room_before_the_horizon():
    scenario = build_s0()  # 13 one-second slots: even a minute is too long
    result = sweep(scenario, make_config(axis="target_duration", values=(1.0,)))
    assert result.points[0].error is not None
    assert "beyond horizon" in result.points[0].error


def test_report_files_round_trip(tmp_path):
    scenario = build_s0()
    result = sweep(scenario, make_config(values=(0.0,), trials=4,
                                         seed_groups=2))
    report = tmp_path / "report.csv"
    aggregate = tmp_path / "aggregate.csv"
    save_report(str(report), result)
    save_aggregate(str(aggregate), result)

    lines = report.read_text().strip().splitlines()
    assert lines[0] == "axis,value,trial,success,natural,cost,planned_slots"
    assert len(lines) == 5
    agg = aggregate.read_text().strip().splitlines()
    assert agg[0] == "axis,value,q1,median,q3,min,max,success_ratio"
    assert len(agg) == 2
    assert agg[1] == "noise_ratio,0,1,1,1,1,1,1"
