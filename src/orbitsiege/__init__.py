"""Downlink scheduling simulator and attack planners for mixed-priority
LEO Earth-observation constellations sharing ground stations.

The pipeline: a scenario (satellites, stations, captured data units) feeds
orbit propagation, which feeds per-slot antenna assignment, which yields the
target's transmissible and attackable slot sets. On top of those sit a
FIFO queue simulator that counts bytes per slot and reads each data unit's
downlink or drop off the cumulative byte stream, planners that delay a unit
past a deadline or force it to be dropped, and a Monte-Carlo harness that
measures how those plans survive estimation noise.

The package exports the library calls of that chain and the error classes.
Everything else lives in its submodule and may change.
"""

from .attack import AttackContext
from .errors import (AttackFail, IoError, OrbitSiegeError, OutOfHorizon,
                     ParseError, StaleElements, ValidationError)
from .evaluation import EvalConfig, plan_attack, sweep
from .orbit import ContactWindows, compute_contact_windows, load_contact_windows
from .planner_delay import plan_delay, verify_delay
from .planner_overflow import plan_overflow, verify_overflow
from .scenario import load_scenario
from .scheduler import attackability_for

__version__ = "0.1.0"

__all__ = [
    "AttackContext", "ContactWindows", "EvalConfig",
    "attackability_for", "compute_contact_windows", "load_contact_windows",
    "load_scenario", "plan_attack", "plan_delay", "plan_overflow", "sweep",
    "verify_delay", "verify_overflow",
    "AttackFail", "IoError", "OrbitSiegeError", "OutOfHorizon", "ParseError",
    "StaleElements", "ValidationError",
]
