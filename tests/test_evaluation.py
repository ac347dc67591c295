"""Monte-Carlo harness: noise statistics, trial judging, sweep plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from bundled import load_bundled
from orbitsiege import (AttackContext, EvalConfig, ValidationError,
                        attackability_for, plan_attack, sweep, verify_delay,
                        verify_overflow)
from orbitsiege import evaluation
from orbitsiege.evaluation import (TRUNCATION_RATIO, TrialLayout, _resample,
                                   aggregate_table, derive_rng, extend_targets,
                                   perturb, report_table)
from orbitsiege.onboard import slot_volume
from orbitsiege.output import emit


def test_noise_model_bounds():
    # the noise model is one std ratio, a finite number in [0, 1]
    good = dict(kind="delay", axis="budget", values=(1.0,))
    assert EvalConfig(**good).noise == 0.1
    EvalConfig(**good, noise=0.0)
    EvalConfig(**good, noise=1.0)
    for noise, error in ((1.5, "outside"), (-0.1, "outside"), (float("nan"), "must be finite")):
        with pytest.raises(ValidationError, match=f"noise: {error}"):
            EvalConfig(**good, noise=noise)


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
    # a budget is read as the loader reads target.cost_budget
    EvalConfig(**good, cost_budget=0.0)
    for budget, error in ((-1.0, "must be >= 0"), (float("nan"), "must be finite"),
                          (float("inf"), "must be finite")):
        with pytest.raises(ValidationError, match=f"cost_budget: {error}"):
            EvalConfig(**good, cost_budget=budget)


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
    points = sweep(load_bundled("s0"), config).points
    assert points[0].error == "resampled value exceeds the int64 byte range"
    assert points[0].records == ()
    assert points[1].error is None


INTEGER_AXES = ("image_size", "data_rate", "n_high", "extra_M")
BAD_AXIS_VALUES = [
    pytest.param(axis, value, error, id=f"{axis}={value}")
    for axis, value, error in (
        [(axis, value, f"{axis}: must be finite")
         for axis in evaluation.AXES for value in (float("inf"), float("nan"))]
        + [(axis, 1.5, f"{axis}: expected an integer, got 1.5") for axis in INTEGER_AXES]
        + [("budget", -1, "budget: must be >= 0"), ("budget", -0.5, "budget: must be >= 0")]
        + [("noise_ratio", ratio, "noise_ratio: outside [0, 1]") for ratio in (-0.1, 1.5)])]


@pytest.mark.parametrize("axis, value, error", BAD_AXIS_VALUES)
def test_sweep_reads_axis_values_as_the_loader_reads_fields(axis, value, error):
    # a non-finite value, a fraction on an integer axis and a negative
    # budget are the point's error, not a crash or a silently rounded plan
    config = EvalConfig(kind="delay", axis=axis, values=(value,), trials=4)
    point = sweep(load_bundled("s0"), config).points[0]
    assert point.error == error
    assert point.records == ()


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
    return with_sizes(load_bundled("s0"), [11, 12, 13, 14, 15])


def context(scenario):
    return AttackContext.from_scenario(scenario, attackability_for(scenario))


def layout_of(scenario):
    ctx = context(scenario)
    return ctx, TrialLayout.from_context(scenario, ctx)


def nominal_sizes(ctx):
    return [end - start for _, start, end in ctx.world.byte_ranges.values()]


def test_perturb_silent_noise_is_identity():
    ctx, layout = layout_of(distinct_s0())
    volume, shift, sizes = perturb(layout, 0.0, np.random.default_rng(0))
    assert volume == ctx.world.volume_bytes
    assert shift == 0
    assert sizes.dtype == np.int64
    assert sizes.tolist() == nominal_sizes(ctx)


def test_perturb_is_deterministic_per_stream():
    _, layout = layout_of(distinct_s0())
    noise = 0.3

    def draw(seed):
        volume, shift, sizes = perturb(layout, noise, np.random.default_rng(seed))
        return volume, shift, sizes.tolist()

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def test_perturb_touches_only_the_target_satellite():
    # the true world is the target's queue alone: a trial draws its volume,
    # a head shift and one size per unit of the shifted stream, and head
    # insertions come first, at the head's nominal size. Replaying those
    # draws from the same stream rebuilds the whole world.
    ctx, layout = layout_of(distinct_s0())
    nominal = nominal_sizes(ctx)
    # s0 downlinks 2 bytes per slot at 16 bit/s; at ratio 0.1 only a
    # 5-sigma rate draw stalls it (see test_sweep_flags_a_degenerate_true_world)
    noise = 0.1
    changed = False
    for seed in range(20):
        volume, shift, sizes = perturb(layout, noise, np.random.default_rng(seed))
        assert len(sizes) == len(nominal) + shift
        assert -2 <= shift, "init-003 is two units deep"
        ref = np.random.default_rng(seed)
        rate = int(_resample(ref, 16, noise))
        assert volume == slot_volume(rate, 1) > 0
        assert shift == max(round(ref.normal(0.0, noise * 5)), -2)
        stream = [11] * max(shift, 0) + nominal[max(-shift, 0):]
        assert sizes.tolist() == _resample(ref, stream, noise).tolist()
        changed |= volume != ctx.world.volume_bytes or sizes.tolist() != nominal
    assert changed


def test_perturb_queue_shift_never_eats_the_target():
    # heavy length noise: head insertions show up as head-sized units in
    # front, head removals stop at the first target unit (init-003, two
    # units deep)
    ctx, layout = layout_of(distinct_s0())
    nominal = nominal_sizes(ctx)
    noise = 1.0
    saw_insert = saw_remove = False
    for seed in range(60):
        _, shift, sizes = perturb(layout, noise, np.random.default_rng(seed))
        # the shift is the second draw of the stream, after the rate's
        ref = np.random.default_rng(seed)
        ref.standard_normal()
        drawn = round(5 * ref.standard_normal())
        assert shift == max(drawn, -2)
        # the size draws that follow are those of this nominal stream:
        # init-003 and everything behind it in place behind the head, and
        # insertions at the head
        stream = [11] * max(shift, 0) + nominal[max(-shift, 0):]
        assert sizes.tolist() == _resample(ref, stream, noise).tolist(), \
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
    scenario = load_bundled(name)
    config = EvalConfig(kind=kind, axis="noise_ratio", values=(noise,), trials=40,
                        master_seed=7)
    point = sweep(scenario, config).points[0]
    assert point.error is None
    ctx, layout = layout_of(scenario)
    strategy = plan_attack(ctx, kind, 0, scenario.target.target_downlink_slot)
    outcomes = set()
    for k, record in enumerate(point.records):
        group, trial = divmod(k, 40 // evaluation.SEED_GROUPS)
        draw = perturb(layout, noise, derive_rng(7, "noise_ratio", noise, group, trial))
        assert (record.success, record.natural) == judge_one(scenario, kind, strategy, draw)
        outcomes.add(record.success)
    assert outcomes == {True, False}


def test_extend_targets_clips_at_the_ends():
    ids = tuple(u.unit_id for u in load_bundled("s0").fifo_units("obs-1"))
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
    scenario = load_bundled("s0")
    strategy = plan_attack(context(scenario), "delay", 1, 5)
    band = extend_targets(("init-003",), (u.unit_id for u in scenario.fifo_units("obs-1")), 1)
    widened = replace(scenario, target=replace(scenario.target,
                                               target_unit_ids=band))
    trace = context(widened).trace(strategy.slot_set)
    for uid in band:
        assert trace.t_e(uid) > 5


def one_trial(scenario, kind, **kw):
    """The point of a single noiseless trial: one sweep point on the
    extra_M axis."""
    config = EvalConfig(kind=kind, axis="extra_M", values=(0,), trials=1,
                        noise=0.0, **kw)
    point = sweep(scenario, config).points[0]
    assert point.error is None
    assert len(point.records) == 1
    return point


def test_zero_noise_trial_agrees_with_verify():
    scenario = load_bundled("s0")
    point = one_trial(scenario, "delay")
    assert point.records[0].success
    assert point.cost == 1.0
    ok, report = verify_delay(context(scenario), point.planned_slots, 5)
    assert ok and report["evacuation_slot"] > 5

    ovf = load_bundled("s0_ovf")
    point = one_trial(ovf, "overflow")
    assert point.records[0].success
    ok, report = verify_overflow(context(ovf), point.planned_slots)
    assert ok and report["targets"]["init-003"]["dropped"]


def test_budget_starves_the_planned_strategy():
    scenario = load_bundled("s0")
    point = one_trial(scenario, "delay", cost_budget=0.5)
    assert not point.records[0].success
    assert point.cost == 1.0
    assert point.planned_slots  # the plan existed, the budget killed it


def test_natural_outcome_is_tracked_separately():
    # push the deadline below the natural evacuation of the true world:
    # with zero noise the unit downlinks at 4, deadline 5 is never natural
    scenario = load_bundled("s0")
    point = one_trial(scenario, "delay", master_seed=1)
    assert not point.records[0].natural


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(7, "budget", 1.0, 0, 0).random(4)
    b = derive_rng(7, "budget", 1.0, 0, 0).random(4)
    c = derive_rng(7, "budget", 1.0, 0, 1).random(4)
    d = derive_rng(8, "budget", 1.0, 0, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)

    # equal axis values share a stream: an integral float or numpy scalar
    # keys it as its int, and an int never passes through float, where
    # 2**53 + 1 would meet 2**53
    def draws(value):
        return derive_rng(7, "budget", value, 0, 0).random(4)

    assert np.array_equal(draws(1), a)
    assert np.array_equal(draws(np.float64(1.0)), a)
    assert np.array_equal(draws(0.1), draws(np.float64(0.1)))
    assert not np.array_equal(draws(2**53), draws(2**53 + 1))
    assert not np.array_equal(draws(1.5), a)


def test_equal_axis_values_give_equal_records():
    scenario = load_bundled("constellation_24h")
    config = EvalConfig(kind="delay", axis="extra_M", values=(1, 1.0), trials=200,
                        noise=0.3)
    one, one_float = sweep(scenario, config).points
    assert one.error is None
    assert one.records == one_float.records
    assert one.group_ratios == one_float.group_ratios


def make_config(**kw):
    base = dict(kind="delay", axis="noise_ratio", values=(0.0, 0.2),
                trials=12, master_seed=3)
    base.update(kw)
    return EvalConfig(**base)


def test_sweep_is_deterministic():
    scenario = load_bundled("s0")
    config = make_config()
    first = sweep(scenario, config)
    second = sweep(scenario, config)
    assert report_table(first) == report_table(second)
    assert aggregate_table(first) == aggregate_table(second)


def test_sweep_zero_noise_point_is_exact():
    scenario = load_bundled("s0")
    result = sweep(scenario, make_config())
    clean = result.points[0]
    assert clean.value == 0.0
    assert clean.success_ratio == 1.0
    assert clean.group_ratios == (1.0,) * evaluation.SEED_GROUPS
    noisy = result.points[1]
    assert len(noisy.records) == 12
    assert all(0.0 <= r <= 1.0 for r in noisy.group_ratios)


def test_sweep_flags_a_degenerate_true_world(monkeypatch):
    # 16 bit/s moves 2 bytes per slot; heavy rate noise can push the true
    # world below 1 byte per slot, which is a modeling error, not a miss.
    # Four seed groups give the trial streams that draw such a world.
    monkeypatch.setattr(evaluation, "SEED_GROUPS", 4)
    scenario = load_bundled("s0")
    result = sweep(scenario, make_config(values=(0.3,)))
    point = result.points[0]
    assert point.error == "volume_bytes must be positive"
    assert point.records == ()


def test_sweep_rejects_true_worlds_it_cannot_hold():
    # units a trial inserts at the head carry no ids, so a head unit named
    # like "jit-002" runs exactly as under its own name
    s0 = load_bundled("s0")
    sat_id = s0.target.satellite_id
    queue = tuple((sid, tuple(replace(u, unit_id="jit-002") if u.unit_id == "init-001" else u
                              for u in units) if sid == sat_id else units)
                  for sid, units in s0.initial_queue)
    renamed = replace(s0, initial_queue=queue)
    config = make_config(values=(0.0,), noise=0.3, axis="budget")
    # replay each trial's rate and shift draws: no trial stalls s0's 2-byte
    # slot volume (16 bit/s), and some insert two units at the head
    shifts = []
    for group, size in enumerate([2, 2] + [1] * 8):  # 12 trials in 10 seed groups
        for trial in range(size):
            rng = derive_rng(3, "budget", 0.0, group, trial)
            assert _resample(rng, 16, 0.3) >= 8
            shifts.append(round(rng.normal(0.0, 0.3 * 5)))
    assert max(shifts) >= 2
    point = sweep(renamed, config).points[0]
    assert point.error is None
    assert point.records == sweep(s0, config).points[0].records
    # the trials run in int64, so a stream past 2**63 bytes is refused
    # rather than wrapped
    huge = with_sizes(s0, [2**62] * 5)
    point = sweep(huge, make_config(values=(1.0,), noise=0.0, axis="budget")).points[0]
    assert point.error == "unit sizes overflow the int64 byte stream"


def test_sweep_batches_do_not_change_the_records(monkeypatch):
    # a point's trials run BATCH_TRIALS at a time; smaller batches, one that
    # splits a seed group included, give the same records and ratios
    scenario = load_bundled("s0_ovf")
    config = EvalConfig(kind="overflow", axis="noise_ratio", values=(0.15,),
                        trials=23, master_seed=2)
    whole = sweep(scenario, config)
    monkeypatch.setattr(evaluation, "BATCH_TRIALS", 5)
    batched = sweep(scenario, config)
    assert report_table(batched) == report_table(whole)
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
    result = sweep(load_bundled("s0"), make_config(axis=axis, values=values))
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
    scenario = load_bundled("constellation_24h")
    result = sweep(scenario, make_config(axis="target_duration", values=(1.0,), trials=2))
    assert result.errors == ()
    assert sizes.count(0) == 1 and sizes[0] == 0
    assert len(sizes) > 1


def test_sweep_budget_axis_brackets_the_plan_cost():
    scenario = load_bundled("s0")
    result = sweep(scenario, make_config(axis="budget", values=(0.5, 1.0),
                                         noise=0.0))
    assert result.points[0].success_ratio == 0.0
    assert result.points[1].success_ratio == 1.0


def test_sweep_captures_per_point_errors():
    scenario = load_bundled("s0")  # no high-priority satellites aboard
    result = sweep(scenario, make_config(axis="n_high", values=(0, 1)))
    assert result.points[0].error is None
    assert result.points[1].error is not None
    assert "n_high" in result.points[1].error
    assert result.errors == ((1, result.points[1].error),)
    # errored points carry no trials and are skipped by the aggregate
    assert result.points[1].records == ()
    assert len(aggregate_table(result)[1]) == 1


def test_n_high_that_drops_satellites_is_refused_on_an_inline_ladder():
    # constellation_24h with its own ladder inlined: a point that drops
    # high-priority satellites would replay the same ladder, so it is refused
    scenario = load_bundled("constellation_24h")
    inline = replace(scenario, attackability=tuple(attackability_for(scenario)))
    result = sweep(inline, make_config(axis="n_high", values=(20, 0), trials=4))
    assert result.points[0].error is None
    assert result.points[0].cost == 1500.0
    assert result.errors == ((0, "n_high 0 drops high-priority satellites, which an "
                                 "inline attackability ladder does not depend on"),)


def test_sweep_group_sizes_split_the_trials():
    # SEED_GROUPS groups, or one per trial when there are fewer trials
    scenario = load_bundled("s0")
    for trials, groups in ((23, evaluation.SEED_GROUPS), (7, 7)):
        point = sweep(scenario, make_config(values=(0.2,), trials=trials)).points[0]
        assert len(point.records) == trials
        assert len(point.group_ratios) == groups


def test_duration_axis_needs_room_before_the_horizon():
    scenario = load_bundled("s0")  # 13 one-second slots: even a minute is too long
    result = sweep(scenario, make_config(axis="target_duration", values=(1.0,)))
    assert result.points[0].error is not None
    assert "beyond horizon" in result.points[0].error


def test_report_files_round_trip(tmp_path):
    scenario = load_bundled("s0")
    result = sweep(scenario, make_config(values=(0.0,), trials=4))
    report = tmp_path / "report.csv"
    aggregate = tmp_path / "aggregate.csv"
    emit(str(report), *report_table(result))
    emit(str(aggregate), *aggregate_table(result))

    lines = report.read_text().strip().splitlines()
    assert lines[0] == "axis,value,trial,success,natural,cost,planned_slots"
    assert len(lines) == 5
    assert lines[1].endswith(",1,2")  # every trial repeats the point's plan: cost 1, slot 2
    agg = aggregate.read_text().strip().splitlines()
    assert agg[0] == "axis,value,q1,median,q3,min,max,success_ratio"
    assert len(agg) == 2
    assert agg[1] == "noise_ratio,0,1,1,1,1,1,1"
