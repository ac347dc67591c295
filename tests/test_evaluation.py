"""Monte-Carlo harness: noise statistics, trial judging, sweep plumbing."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bundled import load_bundled
from orbitsiege import (AttackContext, EvalConfig, ValidationError,
                        attackability_for, plan_attack, sweep, verify_delay,
                        verify_overflow)
from orbitsiege import evaluation
from orbitsiege.evaluation import (TRUNCATION_RATIO, TrialLayout, _resample, _trial_rows,
                                   aggregate_table, derive_rng, extend_targets,
                                   perturb, report_table)
from orbitsiege.errors import AttackFail
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
    EvalConfig(**good, trials=evaluation.MAX_TRIALS)
    with pytest.raises(ValidationError, match=f"trials must be <= {evaluation.MAX_TRIALS}"):
        EvalConfig(**good, trials=evaluation.MAX_TRIALS + 1)
    with pytest.raises(ValidationError, match="extra_m must be >= 0"):
        EvalConfig(**good, extra_m=-1)
    # a fraction, a whole float or a bool is no trial count or band width
    for field in ("trials", "extra_m"):
        for value in (2.5, 2.0, True):
            with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value}"):
                EvalConfig(**good, **{field: value})
    # a budget is read as the loader reads target.cost_budget
    EvalConfig(**good, cost_budget=0.0)
    for budget, error in ((-1.0, "must be >= 0"), (float("nan"), "must be finite"),
                          (float("inf"), "must be finite")):
        with pytest.raises(ValidationError, match=f"cost_budget: {error}"):
            EvalConfig(**good, cost_budget=budget)


def test_eval_config_takes_numpy_integers():
    config = EvalConfig(kind="delay", axis="budget", values=(1.0,), trials=np.int64(3),
                        extra_m=np.int64(1))
    [point] = sweep(load_bundled("s0"), config).points
    assert point.error is None
    assert len(point.records) == 3


def resampled(seed, nominal, ratio):
    """_resample on fresh standard normals from seed, as int64."""
    nominal = np.asarray(nominal, dtype=float)
    z = np.random.default_rng(seed).standard_normal(nominal.shape)
    return _resample(z, nominal, ratio).astype(np.int64)


def test_resample_statistics():
    nominal, ratio = 10_000, 0.2
    draws = resampled(5, np.full(10_000, nominal), ratio)
    assert abs(draws.mean() - nominal) < 0.01 * nominal
    assert abs(draws.std() - ratio * nominal) < 0.05 * ratio * nominal
    assert draws.min() >= 1


def test_resample_truncation_floor():
    nominal = 100
    draws = resampled(6, np.full(10_000, nominal), 1.0)
    assert draws.min() >= round(TRUNCATION_RATIO * nominal)


def test_resample_draws_like_scalar_calls():
    # standard normals drawn in one array call round exactly as a loop of
    # scalar normal draws with Python's round (half to even) does; a 25- or
    # 45-byte unit clipped at the truncation floor lands on 2.5 or 4.5
    nominal = [7, 100, 2_000_000_000, 1, 3] + [25, 45] * 10
    for ratio in (0.0, 0.5, 1.0):
        batch = resampled(8, nominal, ratio).tolist()
        rng = np.random.default_rng(8)
        loop = [max(1, int(round(max(rng.normal(n, ratio * n), TRUNCATION_RATIO * n))))
                for n in nominal]
        assert batch == loop


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_normal_draws_are_loc_plus_scale_times_standard_normals():
    # perturb draws standard normals and scales them itself, which gives
    # Generator.normal's bits only while numpy computes loc + scale * z
    # without a fused multiply-add
    locs = np.array([0.0, 1.0, 16.0, 7.5, 2e9, 1e20, 3.0])
    scales = np.array([0.0, 0.1, 1.6, 7.5, 6e8, 1e20, 3e-9])
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # scalar draws
        for loc, scale in zip(locs.tolist(), scales.tolist()):
            assert bits(rng.normal(loc, scale)) == bits(loc + scale * ref.standard_normal())
        # an array draw
        assert bits(rng.normal(locs, scales)) == bits(locs + scales * ref.standard_normal(7))
        # split consumption: two scalar normals and an array of n, against
        # two standard normals and then n written into a row's tail
        first, second = rng.normal(16.0, 1.6), rng.normal(0.0, 2.5)
        tail = rng.normal(locs, scales)
        heads = ref.standard_normal(2)
        row = np.zeros(10)
        ref.standard_normal(out=row[3:])
        assert bits(first) == bits(16.0 + 1.6 * heads[0])
        assert bits(second) == bits(2.5 * heads[1])
        assert bits(tail) == bits(locs + scales * row[3:])


@pytest.mark.parametrize("axis, nominal", [("data_rate", 16), ("image_size", 1)])
def test_resample_refuses_values_past_int64(axis, nominal):
    # a rate or unit size past 2**63 would wrap to a negative int64
    _, layout = layout_of(distinct_s0())
    for huge in (replace(layout, rate_bps=2**63),
                 replace(layout, sizes=np.full(len(layout.sizes), 2.0**63))):
        with pytest.raises(ValidationError, match="int64 byte range"):
            perturb(huge, 0.0, [np.random.default_rng(0)])
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
        + [("noise_ratio", ratio, "noise_ratio: outside [0, 1]") for ratio in (-0.1, 1.5)]
        # finite durations whose seconds overflow, or whose slot count has 300 digits
        + [("target_duration", hours, f"target_duration {hours:g} h: deadline beyond horizon")
           for hours in (1e308, 1e300)]
        # values out of each axis's range
        + [("image_size", size, "image_size must be >= 1 byte") for size in (0, -3)]
        + [("data_rate", rate, "data_rate must be >= 1 bit/s") for rate in (0, -16)]
        + [("target_duration", hours, "target_duration must be positive hours")
           for hours in (0, -0.0, -0.5)])]


@pytest.mark.parametrize("axis, value, error", BAD_AXIS_VALUES)
def test_sweep_reads_axis_values_as_the_loader_reads_fields(axis, value, error):
    # a non-finite value, a fraction on an integer axis, a negative budget
    # and a huge duration are the point's error, not a crash or a silently
    # rounded plan
    config = EvalConfig(kind="delay", axis=axis, values=(value,), trials=4)
    point = sweep(load_bundled("s0"), config).points[0]
    assert point.error == error
    assert point.records == ()


def test_sweep_refuses_a_duration_when_the_target_never_downlinks():
    # without a transmissible slot the target never leaves, so a duration
    # has no natural evacuation slot to count from
    s0 = load_bundled("s0")
    silent = replace(s0, attackability=tuple(
        replace(record, transmissible=False, attackable=False, cost=math.inf)
        for record in s0.attackability))
    config = EvalConfig(kind="delay", axis="target_duration", values=(0.001, 1.0), trials=4)
    points = sweep(silent, config).points
    assert [(point.error, point.records) for point in points] == [
        ("target never downlinks naturally; no deadline anchor", ())] * 2


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


def test_layout_opens_the_transmissible_slots_from_t0_to_the_horizon():
    # s0's slot 2 is transmissible but lies before t0 = 3; add one past the
    # horizon too, which the mask must leave out as well
    scenario = load_bundled("s0")
    late = replace(scenario, target=replace(scenario.target, attack_start_slot=3))
    ctx = context(late)
    world = replace(ctx.world, transmissible=ctx.world.transmissible | {ctx.world.horizon + 2})
    layout = TrialLayout.from_context(late, replace(ctx, world=world))
    assert world.t0 == 3 and 2 in world.transmissible
    assert layout.open_slots.dtype == bool
    assert layout.open_slots.tolist() == [t in world.transmissible
                                          for t in range(world.t0, world.horizon + 1)]


def nominal_sizes(ctx):
    return [end - start for _, start, end in ctx.world.byte_ranges.values()]


def trials_of(layout, draws):
    """A batch's draws trial by trial: (volume, shift, sizes in stream
    order), as `oracles.perturb_trial` returns one."""
    volumes, shifts, sizes = draws
    lead = sizes.shape[1] - len(layout.sizes)
    assert (shifts <= lead).all()
    for row, shift in zip(sizes, shifts.tolist()):
        assert not row[:lead - shift].any(), "columns ahead of a trial's stream hold 0"
    return [(volume, shift, row[lead - shift:])
            for volume, shift, row in zip(volumes, shifts.tolist(), sizes)]


def perturb_seeds(layout, noise, seeds):
    """One perturb batch over fresh rngs seeded by seeds, trial by trial."""
    return trials_of(layout, perturb(layout, noise, [np.random.default_rng(s) for s in seeds]))


def test_perturb_silent_noise_is_identity():
    ctx, layout = layout_of(distinct_s0())
    volumes, shifts, sizes = perturb(layout, 0.0, [np.random.default_rng(0)])
    assert volumes == [ctx.world.volume_bytes]
    assert shifts.tolist() == [0]
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [nominal_sizes(ctx)]


def test_perturb_is_deterministic_per_stream():
    _, layout = layout_of(distinct_s0())
    noise = 0.3

    def draw(seed):
        [(volume, shift, sizes)] = perturb_seeds(layout, noise, [seed])
        return volume, shift, sizes.tolist()

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)
    # a trial's world does not depend on the batch it is drawn in
    batch = perturb_seeds(layout, noise, [43, 42, 44])
    assert (batch[1][0], batch[1][1], batch[1][2].tolist()) == draw(42)


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
    for seed, (volume, shift, sizes) in enumerate(perturb_seeds(layout, noise, range(20))):
        assert len(sizes) == len(nominal) + shift
        assert -2 <= shift, "init-003 is two units deep"
        ref = np.random.default_rng(seed)
        rate = int(oracles.resample(ref, 16, noise))
        assert volume == slot_volume(rate, 1) > 0
        assert shift == max(round(ref.normal(0.0, noise * 5)), -2)
        stream = [11] * max(shift, 0) + nominal[max(-shift, 0):]
        assert sizes.tolist() == oracles.resample(ref, stream, noise).tolist()
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
    for seed, (_, shift, sizes) in enumerate(perturb_seeds(layout, noise, range(60))):
        # the shift is the second draw of the stream, after the rate's
        ref = np.random.default_rng(seed)
        ref.standard_normal()
        drawn = round(5 * ref.standard_normal())
        assert shift == max(drawn, -2)
        # the size draws that follow are those of this nominal stream:
        # init-003 and everything behind it in place behind the head, and
        # insertions at the head
        stream = [11] * max(shift, 0) + nominal[max(-shift, 0):]
        assert sizes.tolist() == oracles.resample(ref, stream, noise).tolist(), \
            "insertions must sit at the head"
        saw_insert |= shift > 0
        saw_remove |= shift < 0
    assert saw_insert and saw_remove


@st.composite
def trial_layouts(draw):
    """A TrialLayout of 1-12 units joining over 1-8 slots, and the targets
    it judges. The initial queue may be empty; units may be large enough
    to wrap the int64 stream or to be refused, and the rate slow enough to
    stall or fast enough to be refused."""
    count = draw(st.integers(1, 12))
    unit = draw(st.sampled_from([1, 1_000, 2**60, 10**19]))
    sizes = [unit * k for k in draw(st.lists(st.integers(1, 7), min_size=count,
                                             max_size=count))]
    initial = draw(st.integers(0, count))
    first = draw(st.integers(0, count - 1))
    positions = sorted({first, *draw(st.sets(st.integers(first, count - 1)))})
    slots = draw(st.integers(1, 8))
    # the initial units all join at slot index 0, in the first group
    low = max(initial, 1)
    cuts = sorted(draw(st.sets(st.integers(low, count - 1), max_size=slots - 1))
                  if low < count else ())
    ends = [*cuts, count]
    joins = sorted(draw(st.lists(st.integers(0, slots - 1), min_size=len(ends),
                                 max_size=len(ends), unique=True)))
    if initial:
        joins[0] = 0  # units aboard at t0 join at slot index 0
    layout = TrialLayout(
        rate_bps=draw(st.sampled_from([1, 16, 80, 10**6, 2**63])),
        slot_seconds=draw(st.sampled_from([1, 60])),
        sizes=np.array(sizes, dtype=float),
        initial=initial,
        removable=min(first, initial),
        open_slots=np.array(draw(st.lists(st.booleans(), min_size=slots, max_size=slots))),
        join_slots=np.array(joins, dtype=np.int64),
        slot_ends=np.array(ends, dtype=np.int64),
        positions=np.array(positions, dtype=np.int64))
    judged = layout.positions if draw(st.booleans()) else layout.positions[-1:]
    return layout, judged


@settings(max_examples=300, deadline=None)
@given(trial_layouts(),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
def test_batched_perturb_and_rows_match_the_per_trial_oracle(layout_judged, noise, seeds):
    """perturb on a batch of rngs, and the rows built from it, equal the
    per-trial oracle trial by trial; a batch the oracle refuses is refused
    with the oracle's first message: any resampled value past int64 before
    the first trial, in draw order, that no queue world can hold."""
    layout, judged = layout_judged
    try:
        expected = [oracles.perturb_trial(layout, noise, np.random.default_rng(s))
                    for s in seeds]
        rows = [oracles.trial_row(layout, draw, judged) for draw in expected]
    except ValueError as exc:
        with pytest.raises(ValidationError) as refused:
            _trial_rows(layout, perturb(layout, noise, [np.random.default_rng(s)
                                                        for s in seeds]), judged)
        assert str(refused.value) == str(exc)
        return
    draws = perturb(layout, noise, [np.random.default_rng(s) for s in seeds])
    for got, want in zip(trials_of(layout, draws), expected, strict=True):
        assert got[:2] == want[:2]
        assert got[2].tolist() == want[2].tolist()
    inflow, volume, start, end = _trial_rows(layout, draws, judged)
    for r, (row_inflow, row_volume, row_start, row_end) in enumerate(rows):
        assert inflow[r].tolist() == row_inflow.tolist()
        assert volume[r] == row_volume
        assert start[r].tolist() == row_start.tolist()
        assert end[r].tolist() == row_end.tolist()


def judge_one(scenario, kind, attacked, draw):
    """One trial judged the slow way: its QueueWorld rebuilt from the draw
    and run through evolve without an attack and, unless attacked is None,
    under the attacked slots. Returns (success, natural)."""
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
        arrivals=tuple((t, uid, next(resized)) for t, uid, _ in ctx.world.arrivals),
        volume_bytes=volume)
    true_ctx = replace(ctx, world=world)

    def hit(trace):
        if kind == "delay":
            return trace.t_e(ctx.final_target) > scenario.target.target_downlink_slot
        return all(trace.dropped(uid) for uid in ctx.targets)

    success = attacked is not None and hit(true_ctx.trace(attacked))
    return success, hit(true_ctx.baseline)


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
    rngs = [derive_rng(7, "noise_ratio", noise, *divmod(k, 40 // evaluation.SEED_GROUPS))
            for k in range(40)]
    draws = trials_of(layout, perturb(layout, noise, rngs))
    outcomes = set()
    for (success, natural), draw in zip(point.records, draws, strict=True):
        assert (success, natural) == judge_one(scenario, kind, strategy.slot_set, draw)
        outcomes.add(success)
    assert outcomes == {True, False}


def reference_point(scenario, config):
    """The one noise_ratio point of config, trial by trial from the oracle,
    BATCH_TRIALS trials at a time: every trial of a batch is drawn before
    any is checked, and each trial is judged by rebuilding its queue world.
    Returns the (success, natural) records, or the first refusal's message."""
    [noise] = config.values
    ctx, layout = layout_of(scenario)
    judged = layout.positions if config.kind == "overflow" else layout.positions[-1:]
    try:
        strategy = plan_attack(ctx, config.kind, 0, scenario.target.target_downlink_slot)
    except AttackFail:
        strategy = None
    budget = scenario.target.cost_budget
    attacked = (strategy.slot_set if strategy is not None
                and (budget is None or strategy.cost <= budget) else None)
    groups = min(evaluation.SEED_GROUPS, config.trials)
    keys = [(group, trial) for group in range(groups)
            for trial in range(config.trials // groups + (group < config.trials % groups))]
    records = []
    try:
        for first in range(0, len(keys), evaluation.BATCH_TRIALS):
            draws = [oracles.perturb_trial(layout, noise, derive_rng(
                config.master_seed, "noise_ratio", noise, group, trial))
                for group, trial in keys[first:first + evaluation.BATCH_TRIALS]]
            for draw in draws:
                oracles.trial_row(layout, draw, judged)
            records += [judge_one(scenario, config.kind, attacked, draw) for draw in draws]
    except ValueError as exc:
        return str(exc)
    return records


# (scenario, kind, noise, trials, master seed, what the point shows)
BATCHED_POINTS = [
    ("constellation_24h", "delay", 0.6, 23, 7, "records"),
    ("s0_ovf", "overflow", 0.15, 23, 2, "records"),
    ("empty_queue", "delay", 0.3, 12, 1, "records"),
    ("s0", "delay", 0.3, 12, 3, "volume_bytes must be positive"),
    ("s0", "delay", 1.0, 30, 0, "volume_bytes must be positive"),
    ("wide_s0", "delay", 0.0, 12, 3, "unit sizes overflow the int64 byte stream"),
    ("huge_s0", "delay", 0.0, 12, 3, "resampled value exceeds the int64 byte range"),
]


def batched_scenario(name):
    """A bundled scenario, or s0 resized: units that wrap int64 between
    them (wide), units each past int64 (huge), or none aboard at t0."""
    s0 = load_bundled("s0")
    if name == "wide_s0":
        return with_sizes(s0, [2**62] * 5)
    if name == "huge_s0":
        return with_sizes(s0, [2**63] * 5)
    if name == "empty_queue":
        sat_id = s0.target.satellite_id
        return replace(s0, initial_queue=tuple((sid, ()) if sid == sat_id else (sid, units)
                                               for sid, units in s0.initial_queue),
                       target=replace(s0.target, target_unit_ids=("arr-003",)))
    return load_bundled(name)


@pytest.mark.parametrize("name, kind, noise, trials, seed, shows", BATCHED_POINTS)
@pytest.mark.parametrize("batch", [5, evaluation.BATCH_TRIALS])
def test_sweep_points_match_the_per_trial_oracle(monkeypatch, name, kind, noise, trials, seed,
                                                 shows, batch):
    # a point's trials, judged a batch at a time, give the records or the
    # refusal that drawing, checking and judging each trial on its own gives;
    # batches of five split the seed groups
    monkeypatch.setattr(evaluation, "BATCH_TRIALS", batch)
    if name == "s0" and noise == 0.3:
        monkeypatch.setattr(evaluation, "SEED_GROUPS", 4)
    scenario = batched_scenario(name)
    config = EvalConfig(kind=kind, axis="noise_ratio", values=(noise,), trials=trials,
                        master_seed=seed)
    point = sweep(scenario, config).points[0]
    expected = reference_point(scenario, config)
    if shows == "records":
        assert point.error is None
        assert list(point.records) == expected
    else:
        assert point.error == expected == shows
        assert point.records == ()


def test_sweep_point_without_a_plan_keeps_its_natural_outcomes():
    # slot 2 is s0's only attackable slot here, so no delay plan keeps the
    # target aboard past deadline 6: the point runs its trials unattacked
    s0 = load_bundled("s0")
    scenario = replace(
        s0, target=replace(s0.target, target_downlink_slot=6),
        attackability=tuple(record if record.slot == 2
                            else replace(record, attackable=False, cost=math.inf)
                            for record in s0.attackability))
    with pytest.raises(AttackFail):
        plan_attack(context(scenario), "delay", 0, 6)
    config = EvalConfig(kind="delay", axis="noise_ratio", values=(0.3,), trials=12,
                        master_seed=1)
    point = sweep(scenario, config).points[0]
    assert (point.error, point.cost, point.planned_slots) == (None, math.inf, ())
    assert list(point.records) == reference_point(scenario, config)
    success, natural = zip(*point.records)
    assert not any(success) and any(natural)


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
    with pytest.raises(ValidationError, match="m must be >= 0"):
        extend_targets(("init-003",), ids, -1)
    with pytest.raises(ValidationError, match="m must be an integer, got 1.5"):
        extend_targets(("init-003",), ids, 1.5)


def test_plan_attack_widened_band_holds_every_member():
    scenario = load_bundled("s0")
    strategy = plan_attack(context(scenario), "delay", 1, 5)
    band = extend_targets(("init-003",), (u.unit_id for u in scenario.fifo_units("obs-1")), 1)
    widened = replace(scenario, target=replace(scenario.target,
                                               target_unit_ids=band))
    trace = context(widened).trace(strategy.slot_set)
    for uid in band:
        assert trace.t_e(uid) > 5


@pytest.mark.parametrize("kind, extra_m, error", [
    ("Delay", 0, "kind must be one of"),
    ("bogus", 0, "kind must be one of"),
    ("delay", 1.5, "extra_m must be an integer, got 1.5"),
    ("overflow", 2.0, "extra_m must be an integer, got 2.0"),
    ("delay", True, "extra_m must be an integer, got True"),
])
def test_plan_attack_refuses_what_it_cannot_plan(kind, extra_m, error):
    # an unknown kind used to plan the overflow attack, and a bool widened
    # the band by one
    with pytest.raises(ValidationError, match=error):
        plan_attack(context(load_bundled("s0")), kind, extra_m, 5)


def test_plan_attack_takes_numpy_integers():
    ctx = context(load_bundled("s0"))
    assert plan_attack(ctx, "delay", np.int64(1), 5) == plan_attack(ctx, "delay", 1, 5)


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
    [(success, _)] = point.records
    assert success
    assert point.cost == 1.0
    ok, report = verify_delay(context(scenario), point.planned_slots, 5)
    assert ok and report["evacuation_slot"] > 5

    ovf = load_bundled("s0_ovf")
    point = one_trial(ovf, "overflow")
    [(success, _)] = point.records
    assert success
    ok, report = verify_overflow(context(ovf), point.planned_slots)
    assert ok and report["targets"]["init-003"]["dropped"]


def test_budget_starves_the_planned_strategy():
    scenario = load_bundled("s0")
    point = one_trial(scenario, "delay", cost_budget=0.5)
    [(success, _)] = point.records
    assert not success
    assert point.cost == 1.0
    assert point.planned_slots  # the plan existed, the budget killed it


def test_natural_outcome_is_tracked_separately():
    # push the deadline below the natural evacuation of the true world:
    # with zero noise the unit downlinks at 4, deadline 5 is never natural
    scenario = load_bundled("s0")
    point = one_trial(scenario, "delay", master_seed=1)
    [(_, natural)] = point.records
    assert not natural


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


def streams_of(digests):
    """The generator the sweep sets to each digest's stream, with its
    state, one entry per digest."""
    return [(rng.bit_generator.state, rng.standard_normal(3))
            for rng in evaluation._streams(evaluation._pcg64_states(digests))]


@settings(max_examples=60, deadline=None)
@given(master_seed=st.integers(0, 2**64),
       axis=st.sampled_from(evaluation.AXES),
       value=st.one_of(st.sampled_from([1, 1.0, np.float64(1.0), 0.1, 2**53 + 1]),
                       st.integers(-2**70, 2**70),
                       st.floats(allow_nan=False, allow_infinity=False)),
       trials=st.integers(1, 40),
       batch=st.integers(1, 16))
def test_batch_seeder_matches_derive_rng(master_seed, axis, value, trials, batch):
    # a sweep seeds a batch's streams at once and sets one generator to
    # each; every trial, in whatever batch, starts where derive_rng starts
    # and draws what it draws
    keys = [divmod(k, 7) for k in range(trials)]
    got = []
    for first in range(0, trials, batch):
        got += streams_of(evaluation._trial_digests(master_seed, axis, value,
                                                    keys[first:first + batch]))
    for (state, draws), key in zip(got, keys, strict=True):
        rng = derive_rng(master_seed, axis, value, *key)
        assert state == rng.bit_generator.state
        assert np.array_equal(draws, rng.standard_normal(3))


def entropy_of_words(words):
    """256-bit entropies that SeedSequence reads as exactly `words` uint32
    words (0 reads as one word, 0), low and high extremes of each length."""
    if words == 0:
        return [0]
    return [2**(32 * (words - 1)), 2**(32 * words) - 1, 0x9E3779B9 << (32 * (words - 1))]


CRAFTED = [x for words in range(9) for x in entropy_of_words(words)]


@settings(max_examples=40, deadline=None)
@given(extra=st.lists(st.one_of(st.integers(0, 2**256 - 1),
                                st.integers(0, 8).flatmap(
                                    lambda n: st.integers(0, 2**(32 * n) - 1))),
                      max_size=8))
def test_batch_seeder_matches_numpy_seeding(extra):
    # crafted entropies of 0 to 8 words in one batch: fewer than 8 words
    # hash differently, so the seeder hands those to numpy
    entropies = CRAFTED + extra
    states = evaluation._pcg64_states([x.to_bytes(32, "big") for x in entropies])
    for x, (state, inc) in zip(entropies, states, strict=True):
        expected = np.random.PCG64(np.random.SeedSequence(x)).state["state"]
        assert expected == {"state": state, "inc": inc}


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
            assert oracles.resample(rng, 16, 0.3) >= 8
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
    assert {success for success, _ in whole.points[0].records} == {True, False}


@pytest.mark.parametrize("axis, values", [("noise_ratio", (0.0, 0.2)),
                                          ("extra_M", (0, 1)),
                                          ("target_duration", (0.001, 0.002)),
                                          ("image_size", (1, 2))])
def test_sweep_builds_one_context_per_point(monkeypatch, axis, values):
    # the plan, the deadline anchor and the trials all read the point's
    # nominal context; a widened target band reuses it too, and the points
    # of an axis that leaves the scenario as it is share one
    built = []
    build = AttackContext.from_scenario

    def counted(scenario, records):
        built.append(scenario)
        return build(scenario, records)

    monkeypatch.setattr(AttackContext, "from_scenario", staticmethod(counted))
    result = sweep(load_bundled("s0"), make_config(axis=axis, values=values))
    assert result.errors == ()
    assert len(built) == (len(values) if axis == "image_size" else 1)


@pytest.mark.parametrize("name, kind, axis, values, plans", [
    ("s0", "delay", "noise_ratio", (0.0, 0.2, 0.1), 1),
    ("s0", "delay", "budget", (0.5, 1.0, 2.0), 1),
    ("s0_ovf", "overflow", "extra_M", (0, 2, 0, 2.0, 1), 3),
    ("constellation_24h", "delay", "target_duration", (1, 3, 1.0), 2),
])
def test_sweep_plans_once_per_distinct_plan(monkeypatch, name, kind, axis, values, plans):
    # points on the unchanged scenario plan once per (extra_M, deadline),
    # and their records equal those of planning each point on its own
    scenario = load_bundled(name)
    config = make_config(kind=kind, axis=axis, values=values, noise=0.15, trials=20)
    alone = [sweep(scenario, replace(config, values=(value,))).points[0] for value in values]
    calls = []
    plan = evaluation.plan_attack

    def counted(ctx, kind, extra_m, deadline):
        calls.append((extra_m, deadline))
        return plan(ctx, kind, extra_m, deadline)

    monkeypatch.setattr(evaluation, "plan_attack", counted)
    result = sweep(scenario, config)
    assert result.errors == ()
    assert len(calls) == len(set(calls)) == plans
    assert result.points == tuple(alone)


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


def test_sweep_group_sizes_split_the_trials(monkeypatch):
    # SEED_GROUPS groups, or one per trial when there are fewer trials,
    # split the trials in order as np.array_split does: sizes differing by
    # at most one, the larger first. Each ratio is its group's mean success;
    # batches of three split the groups.
    monkeypatch.setattr(evaluation, "BATCH_TRIALS", 3)
    scenario = load_bundled("s0_ovf")
    mixed = False
    for groups, trials in itertools.product((1, 4, 10), range(1, 31)):
        monkeypatch.setattr(evaluation, "SEED_GROUPS", groups)
        config = EvalConfig(kind="overflow", axis="noise_ratio", values=(0.15,),
                            trials=trials, master_seed=2)
        result = sweep(scenario, config)
        [point] = result.points
        assert point.error is None
        assert len(point.records) == trials
        assert all(type(flag) is bool for pair in point.records for flag in pair)
        success = [s for s, _ in point.records]
        split = np.array_split(success, min(groups, trials))
        assert point.group_ratios == tuple(sum(group) / len(group) for group in split)
        assert point.success_ratio == sum(success) / trials
        rows = report_table(result)[1]
        assert [row[2] for row in rows] == list(range(trials))
        assert [tuple(row[3:5]) for row in rows] == list(point.records)
        mixed |= any(0 < ratio < 1 for ratio in point.group_ratios)
    assert mixed


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
