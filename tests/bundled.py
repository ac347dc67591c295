"""The bundled scenarios under scenarios/, as the tests read them.

s0 and s0_ovf are desk-sized queue worlds: five one-byte units queued, one
arriving per slot, a two-byte slot volume and an inline attackability table
(even slots from 2 on, unit price), so no orbital content is involved. The
third unit is the target. s0 has a ten-byte store and deadline slot 5;
s0_ovf has an eight-byte store, so two blocked slots overflow it.
"""

import os

from orbitsiege.scenario import load_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def bundled_path(name: str) -> str:
    return os.path.join(SCENARIOS, f"{name}.json")


def load_bundled(name: str):
    return load_scenario(bundled_path(name))
