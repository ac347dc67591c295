"""Monte-Carlo harness: estimation noise, widened target sets, budget
enforcement, and parameter sweeps with box statistics.

The attacker plans on the nominal scenario; each trial then replays the
planned slots on a perturbed "true world" where the target satellite's unit
sizes, downlink rate, and initial-queue length differ from the estimate.
Geometry never varies, so a sweep builds the antenna schedule once and each
point derives its attackability and one nominal attack context from it.
The points of an axis that leaves the scenario as it is (budget,
noise_ratio, extra_M, target_duration) share one nominal context and trial
layout, and plan once per (extra_M, deadline).

A point's trials run BATCH_TRIALS at a time. Each trial draws from the
stream `derive_rng` defines. A batch's streams are seeded at once
(`_pcg64_states` reproduces numpy's SeedSequence and PCG64 seeding with
uint32 array operations), and one reused generator is set to each trial's
state in turn, so per trial only a SHA-256 digest, a state assignment and
that stream's standard normal draws run in Python. One `perturb` call turns
a batch's draws into its true worlds with (trials x units) array
operations, and the batch's trials, without and with the attack, run as the
rows of one int64 queue recurrence (`onboard.evolve_rows`), which stops
once every trial's judged units have left the queue.
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

# trials per point; a point's (group, trial) keys and its records are held
# at once, so a larger count is refused before anything is drawn
MAX_TRIALS = 65_536

# numpy's SeedSequence (NEP 19) hash and mix constants and pool size in
# uint32 words, and PCG64's 128-bit LCG multiplier, as `_pcg64_states`
# reproduces numpy's seeding with them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


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
        if self.trials > MAX_TRIALS:
            raise ValidationError(f"trials must be <= {MAX_TRIALS}")
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
    always yields the same world. A trial's whole stream is drawn before the
    next rng is taken, so rngs may yield one generator set to each trial's
    state in turn. Only those standard normal draws run trial by trial;
    rounding, clipping and the checks run once over the batch.

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
    # an empty queue has std 0, so only a non-empty one ever grows
    scale = noise * layout.initial
    rate_draws, shifts, size_draws = [], [], []
    for rng in rngs:
        rate, shift = rng.standard_normal(2).tolist()
        shift = max(round(scale * shift), -layout.removable)
        rate_draws.append(rate)
        shifts.append(shift)
        size_draws.append(rng.standard_normal(len(nominal) + shift))
    shifts = np.array(shifts, dtype=np.int64)
    lead = max(int(shifts.max()), 0)
    # each row's draws fill its columns from lead - shift on
    drawn = np.arange(lead + len(nominal)) >= (lead - shifts)[:, None]
    sizes = np.zeros(drawn.shape)
    sizes[drawn] = np.concatenate(size_draws)
    rates = _resample(np.array(rate_draws), layout.rate_bps, noise)
    _resample(sizes, np.concatenate([np.full(lead, nominal[0]), nominal]), noise)
    sizes[~drawn] = 0
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


def _trial_digests(master_seed: int, axis: str, value, keys) -> list[bytes]:
    """The SHA-256 digest that keys each (group, trial) stream of one axis
    value; equal axis values share digests.

    An int keys the stream by its repr. A float or numpy scalar keys it as
    that int when it is integral, else by its Python float repr, so 1, 1.0
    and np.float64(1.0) draw the same worlds. An int never goes through
    float, where values past 2**53 would collide.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    prefix = f"{master_seed}|{axis}|{value!r}"
    return [hashlib.sha256(f"{prefix}|{group}|{trial}".encode("utf-8")).digest()
            for group, trial in keys]


def derive_rng(master_seed: int, axis: str, value, group: int, trial: int):
    """Deterministic per-trial stream: numpy's PCG64 generator seeded by
    SeedSequence from the trial's digest (`_trial_digests`) read as a
    big-endian int. This defines every trial's stream; a sweep seeds its
    batches through `_pcg64_states`, which gives the same states."""
    [digest] = _trial_digests(master_seed, axis, value, [(group, trial)])
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiplier) pairs of count successive SeedSequence hashes:
    each one xors its input with the running constant, steps the constant
    by mult, and multiplies by the stepped constant."""
    pairs = []
    for _ in range(count):
        stepped = init * mult & _MASK32
        pairs.append((np.uint32(init), np.uint32(stepped)))
        init = stepped
    return pairs


# 8 entropy words take 4 hashes to fill the pool, 12 to mix it and 16 to
# mix in the other 4 words; generate_state(4, np.uint64) takes 8
_MIX_HASHES = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 16)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashed(words: np.ndarray, pair) -> np.ndarray:
    xor, mult = pair
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return mixed ^ (mixed >> np.uint32(16))


def _pcg64_states(digests: list[bytes]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that `derive_rng` starts each 32-byte digest's
    stream from, for a batch of digests at once.

    `SeedSequence(n)` hashes the uint32 words of n, least significant
    first, into a pool of 4 words and mixes them; `generate_state(4,
    np.uint64)` hashes the pool out to a 128-bit seed and a 128-bit
    sequence; PCG64 then sets inc = 2 * sequence + 1 and state = (inc +
    seed) * multiplier + inc, mod 2**128 (O'Neill, HMC-CS-2014-0905). The
    hash constants depend only on the step, so the hashing runs as uint32
    array operations over the batch. A digest whose top word is zero has
    fewer than 8 words to hash, so numpy seeds it itself.
    """
    words = np.frombuffer(b"".join(digests), dtype=">u4").reshape(-1, 8)
    entropy = words[:, ::-1].T.astype(np.uint32)  # (8, trials), low word first
    hashes = iter(_MIX_HASHES)
    pool = [_hashed(entropy[i], next(hashes)) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mixed(pool[dst], _hashed(pool[src], next(hashes)))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mixed(pool[dst], _hashed(word, next(hashes)))
    # generate_state's uint32 words, read in little-endian pairs as uint64
    out = [_hashed(pool[k % _POOL_WORDS], pair).astype(np.uint64)
           for k, pair in enumerate(_STATE_HASHES)]
    words64 = [(out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for digest, seed_hi, seed_lo, seq_hi, seq_lo in zip(digests, *words64):
        if not any(digest[:4]):
            state = np.random.PCG64(
                np.random.SeedSequence(int.from_bytes(digest, "big"))).state["state"]
            states.append((state["state"], state["inc"]))
            continue
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        seed = seed_hi << 64 | seed_lo
        states.append((((inc + seed) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _streams(states):
    """One generator, set to each PCG64 (state, inc) in turn as it is
    yielded; each trial's draws must end before the next is taken."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


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


def _plan(nominal: AttackContext, kind: str, extra_m: int,
          deadline: int | None) -> AttackStrategy | None:
    """The point's plan, or None if the attack is infeasible."""
    try:
        return plan_attack(nominal, kind, extra_m, deadline)
    except AttackFail:
        return None


def sweep(scenario: ConstellationScenario, config: EvalConfig,
          windows=None) -> SweepResult:
    """Run every axis point; per-point errors are recorded, not raised.

    No axis changes what the antenna schedule reads (low-priority
    satellites, their orbits and the stations), so it is built once, on
    first use, and each point derives only its attackability from it. The
    points of an axis that leaves the scenario as it is share its nominal
    context and trial layout, and one plan per (extra_m, deadline); nothing
    is kept past this call.
    """
    if windows is None and scenario.attackability is None:
        windows = compute_contact_windows(scenario)
    schedule = functools.cache(lambda: build_schedule(scenario, windows))

    def nominal_world(point_scenario):
        """The point's nominal attack context and its trial layout."""
        if scenario.attackability is not None:
            ladder = attackability_for(point_scenario)
        else:
            ladder = attackability(point_scenario, schedule(), windows)
        nominal = AttackContext.from_scenario(point_scenario, ladder)
        return nominal, TrialLayout.from_context(point_scenario, nominal)

    own_world = functools.cache(lambda: nominal_world(scenario))
    own_plan = functools.cache(
        lambda extra_m, deadline: _plan(own_world()[0], config.kind, extra_m, deadline))

    group_count = min(SEED_GROUPS, config.trials)
    group_sizes = [config.trials // group_count
                   + (1 if group < config.trials % group_count else 0)
                   for group in range(group_count)]
    keys = [(group, trial) for group, size in enumerate(group_sizes)
            for trial in range(size)]
    points = []
    for value in config.values:
        try:
            point_scenario, budget, extra_m, noise, hours = _apply_axis(
                scenario, config, value)
            unchanged = point_scenario is scenario
            nominal, layout = own_world() if unchanged else nominal_world(point_scenario)
            deadline = point_scenario.target.target_downlink_slot
            if hours is not None:
                te0 = nominal.baseline.t_e(nominal.final_target)
                if te0 == INF:
                    raise ValidationError("target never downlinks naturally; no deadline anchor")
                ahead = 3600.0 * hours / scenario.time.slot_seconds  # inf if hours is huge
                if ahead > scenario.time.last_slot - int(te0):
                    raise ValidationError(f"target_duration {hours:g} h: deadline beyond horizon")
                deadline = int(te0) + math.ceil(ahead)
            strategy = (own_plan(extra_m, deadline) if unchanged
                        else _plan(nominal, config.kind, extra_m, deadline))
            if budget is None:
                budget = point_scenario.target.cost_budget
            attacks = strategy is not None and (budget is None or strategy.cost <= budget)
            attacked = strategy.slot_set if attacks else None
            batches = []
            for first in range(0, len(keys), BATCH_TRIALS):
                digests = _trial_digests(config.master_seed, config.axis, value,
                                         keys[first:first + BATCH_TRIALS])
                draws = perturb(layout, noise, _streams(_pcg64_states(digests)))
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
