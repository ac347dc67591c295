"""Monte-Carlo harness: estimation noise, widened target sets, budget
enforcement, and parameter sweeps with box statistics.

The attacker plans on the nominal scenario; each trial then replays the
planned slots on a perturbed "true world" where the target satellite's unit
sizes, downlink rate, and initial-queue length differ from the estimate.
Geometry never varies, so a sweep builds the antenna schedule once and each
point derives its attackability and one nominal attack context from it. A
trial draws its volume, head shift and unit sizes straight into arrays; the
trials of a point, without and with the attack, then run as the rows of one
int64 queue recurrence (`onboard.evolve_rows`), BATCH_TRIALS trials a call.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .attack import AttackContext, AttackStrategy
from .errors import AttackFail, OrbitSiegeError, ValidationError
from .onboard import evolve_rows
from .planner_delay import plan_delay
from .planner_overflow import plan_overflow
from .scenario import ConstellationScenario
from .scheduler import attackability, attackability_for, build_schedule

INF = math.inf

KINDS = ("delay", "overflow")
AXES = ("image_size", "data_rate", "n_high", "budget", "target_duration",
        "noise_ratio", "extra_M")

# Gaussian draws are clipped here so sizes and rates stay physical
TRUNCATION_RATIO = 0.1

# trials per evolve_rows call; bounds the rows held at once however many
# trials a point has
BATCH_TRIALS = 1024


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
    at least 1; one draw per element, in order. Raises rather than wrap a
    value past the int64 range."""
    nominal = np.asarray(nominal, dtype=float)
    draw = rng.normal(nominal, std_ratio * nominal)
    floor = np.maximum(draw, TRUNCATION_RATIO * nominal)
    value = np.maximum(1, np.rint(floor))
    if value.max(initial=1) >= 2.0**63:
        raise ValidationError("resampled value exceeds the int64 byte range")
    return value.astype(np.int64)


@dataclass(frozen=True)
class TrialLayout:
    """What every trial of a sweep point shares, read once from the nominal
    attack context.

    Stream order is the initial queue head to tail, then the arrivals. Units
    aboard at t0 join at slot index 0 together with any arrivals at t0;
    slot_ends[g] is the nominal stream index one past the last unit joining
    at slot index join_slots[g]. A head shift of s moves every index past
    the head by s, so a trial reads its own boundaries at slot_ends + s and
    its targets at positions + s.
    """

    rate_bps: int
    slot_seconds: int
    sizes: np.ndarray  # nominal unit sizes in stream order
    initial: int  # units aboard at t0
    removable: int  # head units ahead of the first target
    open_slots: np.ndarray  # transmissible mask over [t0, horizon]
    join_slots: np.ndarray
    slot_ends: np.ndarray
    positions: np.ndarray  # stream index of each target

    @classmethod
    def from_context(cls, scenario: ConstellationScenario,
                     nominal: AttackContext) -> "TrialLayout":
        world = nominal.world
        units = [*world.initial_units, *(u for _, group in world.arrivals for u in group)]
        index = {uid: k for k, (uid, _) in enumerate(units)}
        targets = set(nominal.targets)
        removable = next((k for k, (uid, _) in enumerate(world.initial_units)
                          if uid in targets), len(world.initial_units))
        ends = {0: len(world.initial_units)} if world.initial_units else {}
        for t, group in world.arrivals:
            ends[t - world.t0] = index[group[-1][0]] + 1
        return cls(
            rate_bps=scenario.target_satellite.downlink_rate_bps,
            slot_seconds=scenario.time.slot_seconds,
            sizes=np.array([size for _, size in units], dtype=float),
            initial=len(world.initial_units),
            removable=removable,
            open_slots=np.array([t in world.transmissible
                                 for t in range(world.t0, world.horizon + 1)]),
            join_slots=np.fromiter(ends, dtype=np.int64, count=len(ends)),
            slot_ends=np.fromiter(ends.values(), dtype=np.int64, count=len(ends)),
            positions=np.array([index[uid] for uid in nominal.targets], dtype=np.int64),
        )


def perturb(layout: TrialLayout, noise: NoiseModel,
            rng) -> tuple[int, int, np.ndarray]:
    """One true world behind the attacker's estimate of the target's queue:
    (volume_bytes, head shift, unit sizes in stream order).

    Draw order is fixed: downlink rate, then the initial-queue length shift,
    then one size per unit in stream order, so a given rng state always
    yields the same world. A positive shift puts that many units of the
    head's nominal size at the HEAD of the initial queue; they carry no ids,
    so no unit name can clash with them. A negative shift removes head
    units, never a target or anything behind the first one. The shift
    returned is the one applied.
    """
    rate = int(_resample(rng, layout.rate_bps, noise.rate_std_ratio))
    # an empty queue has std 0, so only a non-empty one ever grows
    shift = int(round(rng.normal(0.0, noise.queue_len_std_ratio * layout.initial)))
    nominal = layout.sizes
    if shift > 0:
        nominal = np.concatenate([np.full(shift, nominal[0]), nominal])
    elif shift < 0:
        shift = -min(-shift, layout.removable)
        nominal = nominal[-shift:]
    sizes = _resample(rng, nominal, noise.size_std_ratio)
    return rate * layout.slot_seconds // 8, shift, sizes


def _trial_rows(layout: TrialLayout, draws, judged: np.ndarray):
    """Stack the draws of one point into evolve_rows' inputs: per-trial
    inflow rows, volumes, and the stream bytes [start, end) of the judged
    targets. Raises on the first trial, in draw order, whose true world is
    not valid, as building its QueueWorld would."""
    inflow = np.zeros((len(draws), len(layout.open_slots)), dtype=np.int64)
    joined = np.zeros((len(draws), len(layout.slot_ends)), dtype=np.int64)
    start = np.zeros((len(draws), len(judged)), dtype=np.int64)
    end = np.zeros_like(start)
    volumes = []
    for row, (volume, shift, sizes) in enumerate(draws):
        if volume <= 0:
            raise ValidationError("volume_bytes must be positive")
        if sizes.min(initial=1) <= 0:
            raise ValidationError("unit sizes must be positive")
        stream = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=stream[1:])
        # int64 must not wrap: every running total exceeds the one before
        if not (stream[1:] > stream[:-1]).all():
            raise ValidationError("unit sizes overflow the int64 byte stream")
        joined[row] = stream[layout.slot_ends + shift]
        start[row] = stream[judged + shift]
        end[row] = stream[judged + shift + 1]
        # a volume beyond every byte aboard moves the same bytes as that total
        volumes.append(min(volume, int(stream[-1])))
    inflow[:, layout.join_slots] = np.diff(joined, axis=1, prepend=0)
    return inflow, np.array(volumes, dtype=np.int64), start, end


def extend_targets(targets: tuple[str, ...], ids, m: int) -> tuple[str, ...]:
    """Widen the target set by m units on each side, clipped at the ends;
    ids lists every unit id in stream order."""
    if m < 0:
        raise ValidationError("m must be >= 0")
    ids = list(ids)
    positions = {uid: i for i, uid in enumerate(ids)}
    missing = [uid for uid in targets if uid not in positions]
    if missing:
        raise ValidationError(f"targets not aboard: {missing}")
    first = positions[targets[0]]
    last = positions[targets[-1]]
    return (*ids[max(0, first - m):first], *targets, *ids[last + 1:last + 1 + m])


def plan_attack(ctx: AttackContext, kind: str, extra_m: int,
                deadline: int | None) -> AttackStrategy:
    """Plan on the nominal context, optionally with a widened target set."""
    if extra_m > 0:
        ctx = replace(ctx, targets=extend_targets(ctx.targets, ctx.world.byte_ranges, extra_m))
    if kind == "delay":
        # a widened band only hedges if every member could stand in for the
        # true target, so each one must outlast the deadline on its own
        return plan_delay(ctx, deadline, per_unit_deadline=extra_m > 0)
    return plan_overflow(ctx)


def derive_rng(master_seed: int, axis: str, value, group: int, trial: int):
    """Deterministic per-trial stream; equal axis values share streams."""
    text = f"{master_seed}|{axis}|{value!r}|{group}|{trial}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))


def _apply_axis(scenario: ConstellationScenario, config: EvalConfig, value,
                ) -> tuple[ConstellationScenario, float | None, int, NoiseModel, float | None]:
    """Rebuild the point's scenario and effective knobs for one axis value;
    the last is the target_duration in hours, which `sweep` anchors at the
    nominal natural evacuation slot."""
    budget = config.cost_budget
    extra_m = config.extra_m
    noise = config.noise
    hours = None
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
    elif axis == "noise_ratio":
        ratio = float(value)
        noise = replace(noise, size_std_ratio=ratio, rate_std_ratio=ratio,
                        queue_len_std_ratio=ratio)
    elif axis == "extra_M":
        extra_m = int(value)
        if extra_m < 0:
            raise ValidationError("extra_M must be >= 0")
    return scenario, budget, extra_m, noise, hours


def _outcomes(layout: TrialLayout, nominal: AttackContext, kind: str, deadline: int,
              draws, attacked) -> np.ndarray:
    """Whether the attack's aim holds in each trial: row 0 without an
    attack (natural), row 1, if attacked is not None, under those slots.
    All draws and both runs go through one evolve_rows call."""
    judged = layout.positions if kind == "overflow" else layout.positions[-1:]
    inflow, volume, start, end = _trial_rows(layout, draws, judged)
    masks = [layout.open_slots]
    if attacked is not None:
        blocked = layout.open_slots.copy()
        blocked[np.array(sorted(attacked), dtype=np.int64) - nominal.world.t0] = False
        masks.append(blocked)
    runs = len(masks)
    slot, lost = evolve_rows(
        np.tile(inflow, (runs, 1)), np.repeat(masks, len(draws), axis=0),
        np.tile(volume, runs), min(nominal.world.capacity_bytes, int(inflow.sum(axis=1).max())),
        np.tile(start, (runs, 1)), np.tile(end, (runs, 1)))
    if kind == "delay":
        # never downlinked (lost, or aboard at the horizon) is past any deadline
        success = (lost | (slot == inflow.shape[1])
                   | (nominal.world.t0 + slot > deadline))[:, 0]
    else:
        success = lost.all(axis=1)
    return success.reshape(runs, len(draws))


def sweep(scenario: ConstellationScenario, config: EvalConfig,
          windows=None) -> SweepResult:
    """Run every axis point; per-point errors are recorded, not raised.

    No axis changes what the antenna schedule reads (low-priority
    satellites, their orbits and the stations), so it is built once, on
    first use, and each point derives only its attackability from it.
    """
    if windows is None and scenario.attackability is None:
        from .orbit import compute_contact_windows

        windows = compute_contact_windows(scenario)
    schedule = functools.cache(lambda: build_schedule(scenario, windows))

    def ladder(point_scenario):
        if scenario.attackability is not None:
            return attackability_for(point_scenario)
        return attackability(point_scenario, schedule(), windows)

    points = []
    for value in config.values:
        try:
            point_scenario, budget, extra_m, noise, hours = _apply_axis(
                scenario, config, value)
            nominal = AttackContext.from_scenario(point_scenario, ladder(point_scenario))
            deadline = point_scenario.target.target_downlink_slot
            if hours is not None:
                te0 = nominal.baseline.t_e(nominal.final_target)
                if te0 == INF:
                    raise ValidationError("target never downlinks naturally; no deadline anchor")
                deadline = int(te0) + math.ceil(3600.0 * hours / scenario.time.slot_seconds)
                if deadline > scenario.time.last_slot:
                    raise ValidationError(f"deadline slot {deadline} beyond horizon")
            try:
                strategy = plan_attack(nominal, config.kind, extra_m, deadline)
            except AttackFail:
                strategy = None
            if budget is None:
                budget = point_scenario.target.cost_budget
            layout = TrialLayout.from_context(point_scenario, nominal)

            group_count = min(config.seed_groups, config.trials)
            group_sizes = [config.trials // group_count
                           + (1 if group < config.trials % group_count else 0)
                           for group in range(group_count)]
            keys = [(group, trial) for group, size in enumerate(group_sizes)
                    for trial in range(size)]
            attacks = strategy is not None and (budget is None or strategy.cost <= budget)
            attacked = strategy.slot_set if attacks else None
            batches = []
            for first in range(0, len(keys), BATCH_TRIALS):
                draws = [perturb(layout, noise, derive_rng(config.master_seed, config.axis,
                                                           value, group, trial))
                         for group, trial in keys[first:first + BATCH_TRIALS]]
                batches.append(_outcomes(layout, nominal, config.kind, deadline,
                                         draws, attacked))
            outcomes = np.concatenate(batches, axis=1)
            natural = outcomes[0]
            success = outcomes[1] if attacks else np.zeros_like(natural)
            if strategy is None:
                cost, slots = INF, ()
            else:
                cost, slots = strategy.cost, strategy.slots
            records_out = tuple(
                TrialRecord(bool(success[k]), bool(natural[k]), cost, slots)
                for k in range(len(keys)))
            ratios, first = [], 0
            for size in group_sizes:
                ratios.append(sum(r.success for r in records_out[first:first + size]) / size)
                first += size
            points.append(PointResult(value, records_out, tuple(ratios)))
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
