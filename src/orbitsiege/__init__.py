"""Downlink scheduling simulator and attack planners for mixed-priority
LEO Earth-observation constellations sharing ground stations.

The pipeline: a scenario (satellites, stations, captured data units) feeds
orbit propagation, which feeds per-slot antenna assignment, which yields the
target's transmissible and attackable slot sets. On top of those sit a
FIFO queue simulator that counts bytes per slot and reads each data unit's
downlink or drop off the cumulative byte stream, planners that delay a unit
past a deadline or force it to be dropped, and a Monte-Carlo harness that
measures how those plans survive estimation noise.
"""

from .attack import AttackContext, AttackStrategy, save_strategy, save_strategy_summary
from .errors import (AttackFail, IoError, OrbitSiegeError, OutOfHorizon,
                     ParseError, StaleElements, ValidationError)
from .evaluation import (AXES, KINDS, EvalConfig, NoiseModel, PointResult,
                         SweepResult, TrialRecord, derive_rng, extend_targets,
                         perturb, plan_attack, save_aggregate, save_report,
                         sweep)
from .onboard import (QueueTrace, QueueWorld, evolve, per_slot_capacity,
                      save_trace, save_trace_events)
from .orbit import (ContactWindows, compute_contact_windows,
                    load_contact_windows, propagate, save_contact_windows)
from .planner_delay import plan_delay, verify_delay
from .planner_overflow import plan_overflow, verify_overflow
from .scenario import (AttackabilityRecord, ConstellationScenario, CostModel,
                       DataUnit, GroundStationSpec, SatelliteSpec, TargetSpec,
                       TimeGrid, TleElements, load_scenario, save_scenario,
                       scenario_from_dict, scenario_to_dict)
from .scheduler import (SlotSchedule, assign_slot, attackability,
                        attackability_for, build_schedule, hungarian,
                        save_attackability)
from .synth import build_constellation, build_s0, build_s0_ovf

__version__ = "0.1.0"

__all__ = [
    "AXES", "KINDS",
    "AttackContext", "AttackStrategy", "AttackFail", "AttackabilityRecord",
    "ConstellationScenario", "ContactWindows",
    "CostModel", "DataUnit", "EvalConfig",
    "GroundStationSpec", "IoError", "NoiseModel",
    "OrbitSiegeError", "OutOfHorizon", "ParseError",
    "PointResult", "QueueTrace", "QueueWorld", "SatelliteSpec",
    "SlotSchedule", "StaleElements", "SweepResult", "TargetSpec", "TimeGrid",
    "TleElements", "TrialRecord", "ValidationError",
    "assign_slot", "attackability", "attackability_for", "build_constellation",
    "build_s0", "build_s0_ovf", "build_schedule", "compute_contact_windows",
    "derive_rng", "evolve",
    "extend_targets", "hungarian", "load_contact_windows", "load_scenario",
    "per_slot_capacity", "perturb", "plan_attack", "plan_delay",
    "plan_overflow", "propagate", "save_aggregate",
    "save_attackability", "save_contact_windows", "save_report",
    "save_scenario", "save_strategy", "save_strategy_summary", "save_trace",
    "save_trace_events", "scenario_from_dict", "scenario_to_dict", "sweep",
    "verify_delay", "verify_overflow",
]
