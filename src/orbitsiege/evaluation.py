"""Monte-Carlo harness: estimation noise, widened target sets, budget
enforcement, and parameter sweeps with box statistics.

The attacker plans on the nominal scenario; each trial then replays the
planned slots on a perturbed "true world" where the target satellite's unit
sizes, downlink rate, and initial-queue length differ from the estimate.
Geometry never varies, so a sweep builds the antenna schedule once and each
point derives its attackability and one nominal attack context from it.
A point's trials run BATCH_TRIALS at a time. Per trial, only its own
SHA-256-seeded stream and that stream's standard normal draws run in
Python; one `perturb` call turns a batch's draws into its true worlds with
(trials x units) array operations, and the batch's trials, without and with
the attack, run as the rows of one int64 queue recurrence
(`onboard.evolve_rows`).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .attack import AttackContext, AttackStrategy
from .errors import AttackFail, OrbitSiegeError, ValidationError
from .onboard import evolve_rows, slot_volume
from .orbit import compute_contact_windows
from .planner_delay import plan_delay
from .planner_overflow import plan_overflow
from .scenario import ConstellationScenario, _float, _int
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

# a point's trials split into this many seed groups (fewer if there are
# fewer trials); the box statistics are over the groups' success ratios
SEED_GROUPS = 10


@dataclass(frozen=True)
class EvalConfig:
    """One sweep: an axis, its values, and everything held fixed.

    noise is the estimation error between the attacker's view and the true
    world, one Gaussian standard deviation given as a ratio: unit sizes and
    the downlink rate vary around their nominal values by it, and the
    initial queue length shifts by a draw whose std is the ratio times the
    queue's unit count. A positive shift pushes synthetic units in at the
    head; a negative one consumes head units.
    """

    kind: str
    axis: str
    values: tuple
    trials: int = 200
    master_seed: int = 0
    cost_budget: float | None = None
    extra_m: int = 0
    noise: float = 0.1

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
        if self.cost_budget is not None:
            _budget(self.cost_budget, "cost_budget")
        _noise(self.noise, "noise")


@dataclass(frozen=True)
class TrialRecord:
    success: bool
    natural: bool


@dataclass(frozen=True)
class PointResult:
    """All trials at one axis value, and the plan they replayed: its cost
    and slots in choice order, or infinity and no slots if planning failed.
    error is set when the point never ran."""

    value: object
    records: tuple[TrialRecord, ...]
    group_ratios: tuple[float, ...]
    cost: float = INF
    planned_slots: tuple[int, ...] = ()
    error: str | None = None

    @property
    def success_ratio(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.success for r in self.records) / len(self.records)


@dataclass(frozen=True)
class SweepResult:
    config: EvalConfig
    points: tuple[PointResult, ...]

    @property
    def errors(self) -> tuple[tuple[object, str], ...]:
        return tuple((p.value, p.error) for p in self.points if p.error)


def _budget(value, where: str) -> float:
    """A cost budget: a finite number >= 0, as `target.cost_budget` is read."""
    budget = _float(value, where)
    if budget < 0:
        raise ValidationError(f"{where}: must be >= 0")
    return budget


def _noise(value, where: str) -> float:
    """A noise ratio: a finite number in [0, 1]."""
    ratio = _float(value, where)
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError(f"{where}: outside [0, 1]")
    return ratio


def _resample(z: np.ndarray, nominal, std_ratio: float) -> np.ndarray:
    """Gaussian around each nominal value, clipped at the truncation floor,
    at least 1, from one standard normal draw per element, written over z.
    `Generator.normal(loc, scale)` draws loc + scale * z, so this rounds
    exactly as a normal draw on the same stream would."""
    nominal = np.asarray(nominal, dtype=float)
    z *= std_ratio * nominal
    z += nominal
    np.maximum(z, TRUNCATION_RATIO * nominal, out=z)
    np.rint(z, out=z)
    return np.maximum(z, 1, out=z)


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
        ranges = world.byte_ranges
        index = {uid: k for k, uid in enumerate(ranges)}
        ends = {}  # units join in stream order, so the last write per slot wins
        for k, (t, _, _) in enumerate(ranges.values()):
            ends[t - world.t0] = k + 1
        initial = len(world.initial_units)
        return cls(
            rate_bps=scenario.target_satellite.downlink_rate_bps,
            slot_seconds=scenario.time.slot_seconds,
            sizes=np.array([end - start for _, start, end in ranges.values()], dtype=float),
            initial=initial,
            # targets follow stream order, so the first one is the shallowest
            removable=min(index[nominal.targets[0]], initial),
            open_slots=np.array([t in world.transmissible
                                 for t in range(world.t0, world.horizon + 1)]),
            join_slots=np.fromiter(ends, dtype=np.int64, count=len(ends)),
            slot_ends=np.fromiter(ends.values(), dtype=np.int64, count=len(ends)),
            positions=np.array([index[uid] for uid in nominal.targets], dtype=np.int64),
        )


def perturb(layout: TrialLayout, noise: float, rngs) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The true worlds behind the attacker's estimate of the target's queue,
    one per rng of a batch: (volume_bytes per trial, head shift per trial,
    unit sizes).

    Every draw has the std ratio noise. Each trial's stream is read in a
    fixed order: downlink rate, then the initial-queue length shift, then one
    size per unit of the shifted stream in stream order, so a given rng state
    always yields the same world. Only those standard normal draws run trial
    by trial; rounding, clipping and the checks run once over the batch.

    A positive shift puts that many units of the head's nominal size at the
    HEAD of the initial queue; they carry no ids, so no unit name can clash
    with them. A negative shift removes head units, never a target or
    anything behind the first one. The shifts returned are the ones applied.

    sizes is (trials, lead + units), lead being the largest shift: nominal
    stream index k sits at column lead + k in every row, and the columns
    ahead of a trial's first unit hold 0. Volumes stay Python ints, so no
    rate wraps on its way to bytes per slot.
    """
    nominal = layout.sizes
    heads = np.array([rng.standard_normal(2) for rng in rngs])  # rate, shift
    # an empty queue has std 0, so only a non-empty one ever grows
    shifts = np.rint((noise * layout.initial) * heads[:, 1]).astype(np.int64)
    np.maximum(shifts, -layout.removable, out=shifts)
    lead = max(int(shifts.max()), 0)
    firsts = lead - shifts
    sizes = np.zeros((len(shifts), lead + len(nominal)))
    for rng, row, first in zip(rngs, sizes, firsts.tolist()):
        rng.standard_normal(out=row[first:])
    rates = _resample(heads[:, 0], layout.rate_bps, noise)
    _resample(sizes, np.concatenate([np.full(lead, nominal[0]), nominal]), noise)
    sizes[np.arange(sizes.shape[1]) < firsts[:, None]] = 0
    if max(rates.max(), sizes.max()) >= 2.0**63:
        raise ValidationError("resampled value exceeds the int64 byte range")
    volumes = [slot_volume(int(rate), layout.slot_seconds) for rate in rates.tolist()]
    return volumes, shifts, sizes.astype(np.int64)


# what _trial_rows refuses, in the order a trial is checked
_TRIAL_ERRORS = ("volume_bytes must be positive", "unit sizes must be positive",
                 "unit sizes overflow the int64 byte stream")


def _trial_rows(layout: TrialLayout, draws, judged: np.ndarray):
    """Stack a batch's draws into evolve_rows' inputs: per-trial inflow
    rows, volumes, and the stream bytes [start, end) of the judged targets.
    Raises on the first trial, in draw order, whose true world is not
    valid, as building its QueueWorld would."""
    volumes, shifts, sizes = draws
    lead = sizes.shape[1] - len(layout.sizes)
    # running byte totals: column lead + k ends nominal unit k in every trial
    stream = np.cumsum(sizes, axis=1)
    bad = np.stack([
        [volume <= 0 for volume in volumes],
        np.count_nonzero(sizes > 0, axis=1) < len(layout.sizes) + shifts,
        # int64 must not wrap: a running total of positive sizes that
        # passes 2**63 turns negative first
        stream.min(axis=1) < 0])
    if bad.any():
        raise ValidationError(_TRIAL_ERRORS[bad[:, bad.any(axis=0).argmax()].argmax()])
    inflow = np.zeros((len(sizes), len(layout.open_slots)), dtype=np.int64)
    # each join slot takes its units' bytes; the first also takes the
    # insertions at the head
    inflow[:, layout.join_slots] = np.add.reduceat(
        sizes, np.r_[0, lead + layout.slot_ends[:-1]], axis=1)
    # a volume beyond every byte aboard moves the same bytes as that total
    volume = np.array([min(v, total) for v, total in zip(volumes, stream[:, -1].tolist())],
                      dtype=np.int64)
    end = stream[:, lead + judged]
    return inflow, volume, end - sizes[:, lead + judged], end


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
    if extra_m < 0:
        raise ValidationError("extra_m must be >= 0")
    if extra_m > 0:
        ctx = replace(ctx, targets=extend_targets(ctx.targets, ctx.world.byte_ranges, extra_m))
    if kind == "delay":
        # a widened band only hedges if every member could stand in for the
        # true target, so each one must outlast the deadline on its own
        return plan_delay(ctx, deadline, per_unit_deadline=extra_m > 0)
    return plan_overflow(ctx)


def derive_rng(master_seed: int, axis: str, value, group: int, trial: int):
    """Deterministic per-trial stream; equal axis values share streams.

    An int keys the stream by its repr. A float or numpy scalar keys it as
    that int when it is integral, else by its Python float repr, so 1, 1.0
    and np.float64(1.0) draw the same worlds. An int never goes through
    float, where values past 2**53 would collide.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    text = f"{master_seed}|{axis}|{value!r}|{group}|{trial}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))


def _apply_axis(scenario: ConstellationScenario, config: EvalConfig, value,
                ) -> tuple[ConstellationScenario, float | None, int, float, float | None]:
    """Rebuild the point's scenario and effective knobs for one axis value;
    the last is the target_duration in hours, which `sweep` anchors at the
    nominal natural evacuation slot. The value is read as the scenario
    loader reads a field: finite, and whole on the integer axes."""
    budget = config.cost_budget
    extra_m = config.extra_m
    noise = config.noise
    hours = None
    axis = config.axis
    sat_id = scenario.target.satellite_id

    if axis == "image_size":
        size = _int(value, axis)
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
        rate = _int(value, axis)
        if rate < 1:
            raise ValidationError("data_rate must be >= 1 bit/s")
        satellites = tuple(replace(s, downlink_rate_bps=rate) if s.id == sat_id else s
                           for s in scenario.satellites)
        scenario = replace(scenario, satellites=satellites)
    elif axis == "n_high":
        count = _int(value, axis)
        highs = scenario.high_satellites
        if count < 0 or count > len(highs):
            raise ValidationError(
                f"n_high {count} outside [0, {len(highs)}]")
        if scenario.attackability is not None and count < len(highs):
            # an inline ladder is not derived from geometry, so it would not
            # change with the satellites dropped
            raise ValidationError(
                f"n_high {count} drops high-priority satellites, which an inline "
                f"attackability ladder does not depend on")
        keep = {s.id for s in highs[:count]}
        satellites = tuple(s for s in scenario.satellites
                           if s.priority == "low" or s.id in keep)
        scenario = replace(scenario, satellites=satellites)
    elif axis == "budget":
        budget = _budget(value, axis)
    elif axis == "target_duration":
        hours = _float(value, axis)
        if hours <= 0:
            raise ValidationError("target_duration must be positive hours")
    elif axis == "noise_ratio":
        noise = _noise(value, axis)
    elif axis == "extra_M":
        extra_m = _int(value, axis)
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
    slot, lost = evolve_rows(
        inflow, np.array(masks), volume,
        min(nominal.world.capacity_bytes, int(inflow.sum(axis=1).max())), start, end)
    if kind == "delay":
        # never downlinked (lost, or aboard at the horizon) is past any deadline
        return (lost | (slot == inflow.shape[1]) | (nominal.world.t0 + slot > deadline))[..., 0]
    return lost.all(axis=2)


def sweep(scenario: ConstellationScenario, config: EvalConfig,
          windows=None) -> SweepResult:
    """Run every axis point; per-point errors are recorded, not raised.

    No axis changes what the antenna schedule reads (low-priority
    satellites, their orbits and the stations), so it is built once, on
    first use, and each point derives only its attackability from it.
    """
    if windows is None and scenario.attackability is None:
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
                ahead = 3600.0 * hours / scenario.time.slot_seconds  # inf if hours is huge
                if ahead > scenario.time.last_slot - int(te0):
                    raise ValidationError(f"target_duration {hours:g} h: deadline beyond horizon")
                deadline = int(te0) + math.ceil(ahead)
            try:
                strategy = plan_attack(nominal, config.kind, extra_m, deadline)
            except AttackFail:
                strategy = None
            if budget is None:
                budget = point_scenario.target.cost_budget
            layout = TrialLayout.from_context(point_scenario, nominal)

            group_count = min(SEED_GROUPS, config.trials)
            group_sizes = [config.trials // group_count
                           + (1 if group < config.trials % group_count else 0)
                           for group in range(group_count)]
            keys = [(group, trial) for group, size in enumerate(group_sizes)
                    for trial in range(size)]
            attacks = strategy is not None and (budget is None or strategy.cost <= budget)
            attacked = strategy.slot_set if attacks else None
            batches = []
            for first in range(0, len(keys), BATCH_TRIALS):
                draws = perturb(layout, noise, [
                    derive_rng(config.master_seed, config.axis, value, group, trial)
                    for group, trial in keys[first:first + BATCH_TRIALS]])
                batches.append(_outcomes(layout, nominal, config.kind, deadline,
                                         draws, attacked))
            outcomes = np.concatenate(batches, axis=1)
            natural = outcomes[0]
            success = outcomes[1] if attacks else np.zeros_like(natural)
            records_out = tuple(
                TrialRecord(bool(success[k]), bool(natural[k])) for k in range(len(keys)))
            ratios, first = [], 0
            for size in group_sizes:
                ratios.append(sum(r.success for r in records_out[first:first + size]) / size)
                first += size
            cost, slots = (INF, ()) if strategy is None else (strategy.cost, strategy.slots)
            points.append(PointResult(value, records_out, tuple(ratios), cost, slots))
        except OrbitSiegeError as exc:
            points.append(PointResult(value, (), (), error=str(exc)))
    return SweepResult(config=config, points=tuple(points))


def report_table(result: SweepResult) -> tuple[list[str], list[list]]:
    """The sweep report: one row per trial, with its point's plan."""
    rows = []
    for point in result.points:
        slots = " ".join(str(s) for s in point.planned_slots)
        for i, record in enumerate(point.records):
            rows.append([result.config.axis, point.value, i, record.success,
                         record.natural, point.cost, slots])
    return ["axis", "value", "trial", "success", "natural", "cost", "planned_slots"], rows


def aggregate_table(result: SweepResult) -> tuple[list[str], list[list]]:
    """The sweep aggregate: box statistics of each point's group ratios."""
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
    return ["axis", "value", "q1", "median", "q3", "min", "max", "success_ratio"], rows
