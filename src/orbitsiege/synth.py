"""Synthetic worlds: build_constellation produces a two-constellation
scenario with propagated orbits. The bundled constellation_24h scenario is
build_constellation(target_downlink_slot=61).
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from .scenario import (
    ConstellationScenario,
    CostModel,
    DataUnit,
    GroundStationSpec,
    SatelliteSpec,
    TargetSpec,
    TimeGrid,
    TleElements,
)

CONSTELLATION_EPOCH = datetime(2026, 3, 20, tzinfo=timezone.utc)
QUEUE_UNITS = 30  # units aboard the target at t0
TARGET_POSITION = 25  # 1-based place of the target unit in that queue
UNIT_SIZE_BYTES = 1_000_000_000
DOWNLINK_RATE_BPS = 80_000_000
UNIT_TASK_PRICE = 100.0
HOURS = 24  # the horizon; slot_seconds sets how many slots it holds


def build_constellation(n_low: int = 4, n_high: int = 20, n_stations: int = 12,
                        seed: int = 7, slot_seconds: int = 300,
                        capacity_bytes: int = 2_000_000_000_000,
                        target_downlink_slot: int | None = None,
                        ) -> ConstellationScenario:
    """A day of mixed-priority traffic over a shared station network.

    The first low-priority satellite is the target. Its queue holds
    QUEUE_UNITS equal units with the target unit at TARGET_POSITION, and it
    captures one more unit every slot, so the queue never runs dry within
    the horizon. The high-priority constellation flies in the target's
    orbital plane with staggered phases; contention for the target's passes
    is what makes its slots attackable.
    """
    rng = np.random.default_rng(seed)
    grid = TimeGrid(epoch=CONSTELLATION_EPOCH, slot_seconds=slot_seconds,
                    horizon_slots=HOURS * 3600 // slot_seconds)

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
        downlink_rate_bps=DOWNLINK_RATE_BPS,
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
            downlink_rate_bps=DOWNLINK_RATE_BPS,
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
            downlink_rate_bps=DOWNLINK_RATE_BPS,
        ))

    initial = tuple(DataUnit(f"init-{i:03d}", "obs-1", 0, UNIT_SIZE_BYTES)
                    for i in range(1, QUEUE_UNITS + 1))
    trace = tuple(DataUnit(f"cap-{t:03d}", "obs-1", t, UNIT_SIZE_BYTES)
                  for t in range(1, grid.horizon_slots))

    return ConstellationScenario(
        time=grid,
        satellites=tuple(satellites),
        stations=tuple(stations),
        trace=trace,
        target=TargetSpec(
            satellite_id="obs-1",
            target_unit_ids=(f"init-{TARGET_POSITION:03d}",),
            attack_start_slot=0,
            target_downlink_slot=target_downlink_slot,
        ),
        costs=CostModel(unit_task_price=UNIT_TASK_PRICE),
        seed=seed,
        initial_queue=(("obs-1", initial),),
        attackability=None,
    )
