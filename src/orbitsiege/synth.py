"""Builders for the bundled scenarios.

build_s0 / build_s0_ovf produce the desk-sized queue scenarios used across
the test suite: one-byte units, a two-byte slot volume, and an inline
attackability table (even slots from 2 on, unit price), so no orbital content
is involved. build_constellation produces a full 24-hour two-constellation
world with propagated orbits.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from .scenario import (
    AttackabilityRecord,
    ConstellationScenario,
    CostModel,
    DataUnit,
    GroundStationSpec,
    SatelliteSpec,
    TargetSpec,
    TimeGrid,
    TleElements,
)

S0_HORIZON = 13
S0_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def _s0_scenario(capacity_bytes: int, target_downlink_slot: int | None,
                 ) -> ConstellationScenario:
    grid = TimeGrid(epoch=S0_EPOCH, slot_seconds=1, horizon_slots=S0_HORIZON)
    sat = SatelliteSpec(
        id="obs-1", priority="low", orbit=None,
        capacity_bytes=capacity_bytes, downlink_rate_bps=16)
    initial = tuple(DataUnit(f"init-{i:03d}", "obs-1", 0, 1) for i in range(1, 6))
    trace = tuple(DataUnit(f"arr-{t:03d}", "obs-1", t, 1)
                  for t in range(1, S0_HORIZON))
    records = []
    for t in range(S0_HORIZON):
        if t >= 2 and t % 2 == 0:
            records.append(AttackabilityRecord(t, True, True, 1, 1.0))
        else:
            records.append(AttackabilityRecord(t, False, False, 0, float("inf")))
    return ConstellationScenario(
        time=grid,
        satellites=(sat,),
        stations=(),
        trace=trace,
        target=TargetSpec(
            satellite_id="obs-1",
            target_unit_ids=("init-003",),
            attack_start_slot=0,
            target_downlink_slot=target_downlink_slot,
        ),
        costs=CostModel(unit_task_price=1),
        seed=0,
        initial_queue=(("obs-1", initial),),
        attackability=tuple(records),
    )


def build_s0() -> ConstellationScenario:
    """Five one-byte units queued, one arriving per slot, draining two bytes
    on even slots into a ten-byte store; the third unit is the target and the
    deadline is slot 5."""
    return _s0_scenario(capacity_bytes=10, target_downlink_slot=5)


def build_s0_ovf() -> ConstellationScenario:
    """Same world with an eight-byte store, so two blocked slots overflow it."""
    return _s0_scenario(capacity_bytes=8, target_downlink_slot=None)


CONSTELLATION_EPOCH = datetime(2026, 3, 20, tzinfo=timezone.utc)


def build_constellation(n_low: int = 4, n_high: int = 20, n_stations: int = 12,
                        seed: int = 7, slot_seconds: int = 300, hours: int = 24,
                        queue_units: int = 30, unit_size_bytes: int = 1_000_000_000,
                        downlink_rate_bps: int = 80_000_000,
                        capacity_bytes: int = 2_000_000_000_000,
                        target_position: int = 25,
                        target_downlink_slot: int | None = None,
                        capture_every_slots: int = 1,
                        unit_task_price: float = 100.0,
                        ) -> ConstellationScenario:
    """A day of mixed-priority traffic over a shared station network.

    The first low-priority satellite is the target. Its queue holds
    queue_units equal units with the target unit at target_position
    (1-based), and it captures one more unit every capture_every_slots
    slots, so the queue never runs dry within the horizon. The high-priority
    constellation flies in the target's orbital plane with staggered phases;
    contention for the target's passes is what makes its slots attackable.
    """
    if not 1 <= target_position <= queue_units:
        raise ValueError("target_position must index into the initial queue")
    rng = np.random.default_rng(seed)
    grid = TimeGrid(epoch=CONSTELLATION_EPOCH, slot_seconds=slot_seconds,
                    horizon_slots=hours * 3600 // slot_seconds)

    stations = []
    for i in range(n_stations):
        stations.append(GroundStationSpec(
            id=f"gs-{i + 1:02d}",
            latitude_deg=float(round(-65.0 + 130.0 * i / max(1, n_stations - 1), 3)),
            longitude_deg=float(round((360.0 * i / n_stations + 15.0 * (i % 3)) % 360.0 - 180.0, 3)),
            altitude_m=0.0,
            antenna_count=1 + (i % 2),
            min_elevation_deg=5.0,
        ))

    target_raan = 40.0
    target_motion = 14.9

    satellites = [SatelliteSpec(
        id="obs-1", priority="low",
        orbit=TleElements(
            inclination_deg=97.6, raan_deg=target_raan, eccentricity=0.0,
            arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=target_motion, epoch=CONSTELLATION_EPOCH),
        capacity_bytes=capacity_bytes,
        downlink_rate_bps=downlink_rate_bps,
    )]
    for i in range(1, n_low):
        satellites.append(SatelliteSpec(
            id=f"obs-{i + 1}", priority="low",
            orbit=TleElements(
                inclination_deg=97.6,
                raan_deg=float(round((target_raan + 360.0 * i / n_low) % 360.0, 3)),
                eccentricity=0.0, arg_perigee_deg=0.0,
                mean_anomaly_deg=float(round(rng.uniform(0.0, 360.0), 3)),
                mean_motion_rev_per_day=float(round(rng.uniform(14.6, 15.2), 4)),
                epoch=CONSTELLATION_EPOCH),
            capacity_bytes=capacity_bytes,
            downlink_rate_bps=downlink_rate_bps,
        ))
    # high birds ride the target's plane at phases fanning out around it,
    # so they cross the target's stations in overlapping slots; each extra
    # one widens the contested part of every pass
    for i in range(n_high):
        step = (i // 2 + 1) * 7.5
        phase = step if i % 2 == 0 else -step
        satellites.append(SatelliteSpec(
            id=f"rush-{i + 1:02d}", priority="high",
            orbit=TleElements(
                inclination_deg=97.6,
                raan_deg=float(round((target_raan + rng.uniform(-1.0, 1.0)) % 360.0, 3)),
                eccentricity=0.0, arg_perigee_deg=0.0,
                mean_anomaly_deg=float(round((phase + rng.uniform(-2.0, 2.0)) % 360.0, 3)),
                mean_motion_rev_per_day=target_motion,
                epoch=CONSTELLATION_EPOCH),
            capacity_bytes=0,
            downlink_rate_bps=downlink_rate_bps,
        ))

    initial = tuple(DataUnit(f"init-{i:03d}", "obs-1", 0, unit_size_bytes)
                    for i in range(1, queue_units + 1))
    trace = tuple(
        DataUnit(f"cap-{t:03d}", "obs-1", t, unit_size_bytes)
        for t in range(capture_every_slots, grid.horizon_slots, capture_every_slots))

    return ConstellationScenario(
        time=grid,
        satellites=tuple(satellites),
        stations=tuple(stations),
        trace=trace,
        target=TargetSpec(
            satellite_id="obs-1",
            target_unit_ids=(f"init-{target_position:03d}",),
            attack_start_slot=0,
            target_downlink_slot=target_downlink_slot,
        ),
        costs=CostModel(unit_task_price=unit_task_price),
        seed=seed,
        initial_queue=(("obs-1", initial),),
        attackability=None,
    )
