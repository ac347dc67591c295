"""Monte-Carlo harness: estimation noise, widened target sets, budget
enforcement, and parameter sweeps with box statistics.

The attacker plans on the nominal scenario; each trial then replays the
planned slots on a perturbed "true world" where the target satellite's unit
sizes, downlink rate, and initial-queue length differ from the estimate.
Geometry never varies, so each sweep point computes attackability and builds
one nominal attack context; a trial perturbs only that context's queue world.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .attack import AttackContext, AttackStrategy
from .errors import AttackFail, OrbitSiegeError, ValidationError
from .onboard import QueueWorld
from .planner_delay import DelayPlanRequest, plan_delay
from .planner_overflow import OverflowPlanRequest, plan_overflow
from .scenario import ConstellationScenario
from .scheduler import attackability_for

INF = math.inf

KINDS = ("delay", "overflow")
AXES = ("image_size", "data_rate", "n_high", "budget", "target_duration",
        "noise_ratio", "extra_M")

# Gaussian draws are clipped here so sizes and rates stay physical
TRUNCATION_RATIO = 0.1


@dataclass(frozen=True)
class NoiseModel:
    """Estimation error between the attacker's view and the true world.

    All three knobs are Gaussian standard deviations given as ratios: unit
    sizes and the downlink rate vary around their nominal values, and the
    initial queue length shifts by a draw whose std is the ratio times the
    queue's unit count. A positive shift pushes synthetic units in at the
    head; a negative one consumes head units.
    """

    size_std_ratio: float = 0.1
    rate_std_ratio: float = 0.1
    queue_len_std_ratio: float = 0.1

    def __post_init__(self) -> None:
        for name in ("size_std_ratio", "rate_std_ratio", "queue_len_std_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} outside [0, 1]")


@dataclass(frozen=True)
class EvalConfig:
    """One sweep: an axis, its values, and everything held fixed."""

    kind: str
    axis: str
    values: tuple
    trials: int = 200
    master_seed: int = 0
    cost_budget: float | None = None
    extra_m: int = 0
    noise: NoiseModel = NoiseModel()
    seed_groups: int = 10

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}")
        if self.axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}")
        if not self.values:
            raise ValidationError("values must be non-empty")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.extra_m < 0:
            raise ValidationError("extra_m must be >= 0")
        if self.seed_groups < 1:
            raise ValidationError("seed_groups must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    success: bool
    natural: bool
    cost: float
    planned_slots: tuple[int, ...]


@dataclass(frozen=True)
class PointResult:
    """All trials at one axis value; error set when the point never ran."""

    value: object
    records: tuple[TrialRecord, ...]
    group_ratios: tuple[float, ...]
    error: str | None = None

    @property
    def success_ratio(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.success for r in self.records) / len(self.records)

    @property
    def median(self) -> float:
        return float(np.median(self.group_ratios)) if self.group_ratios else 0.0


@dataclass(frozen=True)
class SweepResult:
    config: EvalConfig
    points: tuple[PointResult, ...]

    @property
    def errors(self) -> tuple[tuple[object, str], ...]:
        return tuple((p.value, p.error) for p in self.points if p.error)


def _resample(rng, nominal, std_ratio: float) -> np.ndarray:
    """Gaussian around each nominal value, clipped at the truncation floor,
    at least 1; one draw per element, in order."""
    nominal = np.asarray(nominal, dtype=float)
    draw = rng.normal(nominal, std_ratio * nominal)
    floor = np.maximum(draw, TRUNCATION_RATIO * nominal)
    return np.maximum(1, np.rint(floor)).astype(np.int64)


def perturb(scenario: ConstellationScenario, world: QueueWorld,
            noise: NoiseModel, rng) -> QueueWorld:
    """The true queue world behind the attacker's estimate of the target.

    world is the nominal world built from scenario. Draw order is fixed:
    downlink rate, then the initial-queue length shift, then one size per
    unit in stream order (initial queue head to tail, then arrivals), so a
    given rng state always yields the same world. The shift inserts
    synthetic units at the HEAD of the initial queue (ahead of any target)
    or removes head units, never removing a target unit or anything behind
    the first one.
    """
    rate = int(_resample(rng, scenario.target_satellite.downlink_rate_bps,
                         noise.rate_std_ratio))

    initial = list(world.initial_units)
    # an empty queue has std 0, so only a non-empty one ever grows
    shift = int(round(rng.normal(0.0, noise.queue_len_std_ratio * len(initial))))
    if shift > 0:
        reference = initial[0][1]
        initial = [(f"jit-{i:03d}", reference) for i in range(1, shift + 1)] + initial
    elif shift < 0:
        targets = set(scenario.target.target_unit_ids)
        removable = next((i for i, (uid, _) in enumerate(initial) if uid in targets),
                         len(initial))
        initial = initial[min(-shift, removable):]

    units = initial + [unit for _, group in world.arrivals for unit in group]
    sizes = _resample(rng, [size for _, size in units], noise.size_std_ratio).tolist()
    resized = iter(zip((uid for uid, _ in units), sizes))
    return replace(
        world,
        initial_units=tuple(next(resized) for _ in initial),
        arrivals=tuple((t, tuple(next(resized) for _ in group))
                       for t, group in world.arrivals),
        volume_bytes=rate * scenario.time.slot_seconds // 8,
    )


def extend_targets(targets: tuple[str, ...], units, m: int) -> tuple[str, ...]:
    """Widen the target set by m units on each side, clipped at the ends."""
    if m < 0:
        raise ValidationError("m must be >= 0")
    ids = [u.unit_id for u in units]
    positions = {uid: i for i, uid in enumerate(ids)}
    missing = [uid for uid in targets if uid not in positions]
    if missing:
        raise ValidationError(f"targets not aboard: {missing}")
    if m == 0:
        return tuple(targets)
    first = positions[targets[0]]
    last = positions[targets[-1]]
    pre = ids[max(0, first - m):first]
    post = ids[last + 1:last + 1 + m]
    return tuple(pre) + tuple(targets) + tuple(post)


def plan_attack(scenario: ConstellationScenario, kind: str, extra_m: int,
          windows=None, records=None) -> AttackStrategy:
    """Plan on the nominal scenario, optionally with a widened target set."""
    plan_scenario = scenario
    if extra_m > 0:
        widened = extend_targets(
            scenario.target.target_unit_ids,
            scenario.fifo_units(scenario.target.satellite_id), extra_m)
        plan_scenario = replace(
            scenario, target=replace(scenario.target, target_unit_ids=widened))
    if kind == "delay":
        # a widened band only hedges if every member could stand in for the
        # true target, so each one must outlast the deadline on its own
        return plan_delay(DelayPlanRequest.from_scenario(
            plan_scenario, windows, records, per_unit_deadline=extra_m > 0))
    return plan_overflow(OverflowPlanRequest.from_scenario(plan_scenario, windows, records))


def _judge(scenario: ConstellationScenario, nominal: AttackContext, kind: str,
           strategy, budget, noise: NoiseModel, rng) -> TrialRecord:
    """Execute a planned strategy (or a failed plan) against one true world."""
    ctx = replace(nominal, world=perturb(scenario, nominal.world, noise, rng))
    base = ctx.trace()
    if kind == "delay":
        deadline = scenario.target.target_downlink_slot
        natural = base.t_e(ctx.final_target) > deadline
    else:
        natural = all(base.dropped[uid] for uid in ctx.targets)

    if strategy is None:
        return TrialRecord(False, natural, INF, ())
    if budget is not None and strategy.cost > budget:
        return TrialRecord(False, natural, strategy.cost, strategy.slots)

    trace = ctx.trace(ctx.require_subset(strategy.slots))
    if kind == "delay":
        success = trace.t_e(ctx.final_target) > scenario.target.target_downlink_slot
    else:
        success = all(trace.dropped[uid] for uid in ctx.targets)
    return TrialRecord(success, natural, strategy.cost, strategy.slots)


def derive_rng(master_seed: int, axis: str, value, group: int, trial: int):
    """Deterministic per-trial stream; equal axis values share streams."""
    text = f"{master_seed}|{axis}|{value!r}|{group}|{trial}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))


def _apply_axis(scenario: ConstellationScenario, config: EvalConfig, value,
                windows) -> tuple[ConstellationScenario, float | None, int, NoiseModel]:
    """Rebuild the point's scenario and effective knobs for one axis value."""
    budget = config.cost_budget
    extra_m = config.extra_m
    noise = config.noise
    axis = config.axis
    sat_id = scenario.target.satellite_id

    if axis == "image_size":
        size = int(value)
        if size < 1:
            raise ValidationError("image_size must be >= 1 byte")
        queue = tuple(
            (sid, tuple(replace(u, size_bytes=size) for u in units)
             if sid == sat_id else units)
            for sid, units in scenario.initial_queue)
        trace = tuple(replace(u, size_bytes=size) if u.satellite_id == sat_id else u
                      for u in scenario.trace)
        scenario = replace(scenario, initial_queue=queue, trace=trace)
    elif axis == "data_rate":
        rate = int(value)
        if rate < 1:
            raise ValidationError("data_rate must be >= 1 bit/s")
        satellites = tuple(replace(s, downlink_rate_bps=rate) if s.id == sat_id else s
                           for s in scenario.satellites)
        scenario = replace(scenario, satellites=satellites)
    elif axis == "n_high":
        count = int(value)
        highs = scenario.high_satellites
        if count < 0 or count > len(highs):
            raise ValidationError(
                f"n_high {count} outside [0, {len(highs)}]")
        keep = {s.id for s in highs[:count]}
        satellites = tuple(s for s in scenario.satellites
                           if s.priority == "low" or s.id in keep)
        scenario = replace(scenario, satellites=satellites)
    elif axis == "budget":
        budget = float(value)
    elif axis == "target_duration":
        hours = float(value)
        if hours <= 0:
            raise ValidationError("target_duration must be positive hours")
        ctx = AttackContext.from_scenario(scenario, windows)
        te0 = ctx.trace().t_e(ctx.final_target)
        if te0 == INF:
            raise ValidationError("target never downlinks naturally; no deadline anchor")
        deadline = int(te0) + math.ceil(3600.0 * hours / scenario.time.slot_seconds)
        if deadline > scenario.time.last_slot:
            raise ValidationError(f"deadline slot {deadline} beyond horizon")
        scenario = replace(scenario,
                           target=replace(scenario.target, target_downlink_slot=deadline))
    elif axis == "noise_ratio":
        ratio = float(value)
        noise = replace(noise, size_std_ratio=ratio, rate_std_ratio=ratio,
                        queue_len_std_ratio=ratio)
    elif axis == "extra_M":
        extra_m = int(value)
        if extra_m < 0:
            raise ValidationError("extra_M must be >= 0")
    return scenario, budget, extra_m, noise


def sweep(scenario: ConstellationScenario, config: EvalConfig,
          windows=None) -> SweepResult:
    """Run every axis point; per-point errors are recorded, not raised."""
    if windows is None and scenario.attackability is None:
        from .orbit import compute_contact_windows

        windows = compute_contact_windows(scenario)

    points = []
    for value in config.values:
        try:
            point_scenario, budget, extra_m, noise = _apply_axis(
                scenario, config, value, windows)
            records = attackability_for(point_scenario, windows)
            try:
                strategy = plan_attack(point_scenario, config.kind, extra_m,
                                 records=records)
            except AttackFail:
                strategy = None
            if budget is None:
                budget = point_scenario.target.cost_budget
            nominal = AttackContext.from_scenario(point_scenario, records=records)

            group_count = min(config.seed_groups, config.trials)
            records_out: list[TrialRecord] = []
            ratios = []
            for group in range(group_count):
                size = config.trials // group_count + (
                    1 if group < config.trials % group_count else 0)
                wins = 0
                for trial in range(size):
                    rng = derive_rng(config.master_seed, config.axis, value,
                                     group, trial)
                    record = _judge(point_scenario, nominal, config.kind,
                                    strategy, budget, noise, rng)
                    records_out.append(record)
                    wins += record.success
                ratios.append(wins / size)
            points.append(PointResult(value, tuple(records_out), tuple(ratios)))
        except OrbitSiegeError as exc:
            points.append(PointResult(value, (), (), error=str(exc)))
    return SweepResult(config=config, points=tuple(points))


REPORT_HEADER = ["axis", "value", "trial", "success", "natural", "cost",
                 "planned_slots"]
AGGREGATE_HEADER = ["axis", "value", "q1", "median", "q3", "min", "max",
                    "success_ratio"]


def report_rows(result: SweepResult) -> list[list]:
    rows = []
    for point in result.points:
        for i, record in enumerate(point.records):
            rows.append([
                result.config.axis, point.value, i, record.success,
                record.natural, record.cost,
                " ".join(str(s) for s in record.planned_slots),
            ])
    return rows


def aggregate_rows(result: SweepResult) -> list[list]:
    rows = []
    for point in result.points:
        if point.error or not point.group_ratios:
            continue
        ratios = np.asarray(point.group_ratios, dtype=float)
        q1, median, q3 = np.percentile(ratios, [25.0, 50.0, 75.0])
        rows.append([
            result.config.axis, point.value, float(q1), float(median),
            float(q3), float(ratios.min()), float(ratios.max()),
            point.success_ratio,
        ])
    return rows


def save_report(path: str, result: SweepResult, fmt: str = "csv") -> None:
    from .output import emit

    emit(path, REPORT_HEADER, report_rows(result), fmt)


def save_aggregate(path: str, result: SweepResult, fmt: str = "csv") -> None:
    from .output import emit

    emit(path, AGGREGATE_HEADER, aggregate_rows(result), fmt)
