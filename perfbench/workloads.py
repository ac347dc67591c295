"""The benchmark's workloads: which scenario each one feeds the CLI, and the
subcommand chain a user would run on it.

Every workload runs the same chain -- ``windows --out``, then ``schedule``,
``plan-*`` and ``sweep``, each with ``--windows`` -- so every end-to-end metric
exists on every workload. What differs is which layer does the work:

* ``sweep_24h`` -- the bundled 24 h scenario. The Monte-Carlo loop
  (evaluation, attack, onboard) does nearly all the work; geometry runs once
  and is small.
* ``geometry_1440`` -- a 1440-slot world with 80 satellites and 40 stations.
  Contact windows, assignment and file output do nearly all the work; its
  sweep is one point of a few trials, so the trial loop is a small share.
* ``overflow_24h`` -- a 24 h world with a small store, so the queue hits
  capacity: the overflow planner, the drop branch of the queue engine and
  traces that track nine units run inside the same sweep harness.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

BUNDLED_24H = os.path.join("scenarios", "constellation_24h.json")
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One scenario plus the arguments of its plan and sweep steps.

    build holds ``build_constellation`` keyword arguments (the workload seed
    is added), or is None for the bundled 24 h scenario. extra_m widens the
    plan's target band. The sweep runs trials per value of axis, and
    plan_values lists the values whose trials must replay the plan step's
    slots.
    """

    name: str
    build: dict | None
    kind: str
    extra_m: int
    axis: str
    values: tuple[str, ...]
    trials: int
    plan_values: tuple[str, ...]

    @property
    def synthetic(self) -> bool:
        return self.build is not None

    @property
    def total_trials(self) -> int:
        return self.trials * len(self.values)

    def plan_argv(self) -> list[str]:
        argv = [f"plan-{self.kind}"]
        if self.extra_m:
            argv += ["--extra-m", str(self.extra_m)]
        return argv

    def sweep_argv(self) -> list[str]:
        return ["sweep", "--kind", self.kind, "--axis", self.axis,
                "--values", ",".join(self.values), "--trials", str(self.trials)]

    def tiny(self, **build) -> "Workload":
        """A copy with two trials per point and, if synthetic, a smaller world.

        It has its own name, so no reference digests apply to it.
        """
        return dataclasses.replace(
            self, name=f"{self.name}_tiny", trials=2,
            build={**self.build, **build} if self.synthetic else None)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_24h",
        build=None,
        kind="delay",
        extra_m=0,
        axis="noise_ratio",
        values=("0.1", "0.2"),
        trials=200,
        plan_values=("0.1", "0.2"),
    ),
    Workload(
        name="geometry_1440",
        build=dict(n_low=20, n_high=60, n_stations=40, slot_seconds=60,
                   target_downlink_slot=300),
        kind="delay",
        extra_m=0,
        axis="noise_ratio",
        values=("0.1",),
        trials=20,
        plan_values=("0.1",),
    ),
    Workload(
        name="overflow_24h",
        build=dict(capacity_bytes=80_000_000_000),
        kind="overflow",
        extra_m=4,
        axis="extra_M",
        values=("0", "4"),
        trials=100,
        plan_values=("4",),
    ),
)}


def scenario_path(workload: Workload, seed: int, root: str, workdir: str) -> str:
    """The scenario file the CLI reads; synthetic ones are generated here."""
    if not workload.synthetic:
        return os.path.join(root, BUNDLED_24H)
    from orbitsiege.scenario import save_scenario
    from orbitsiege.synth import build_constellation

    path = os.path.join(workdir, f"{workload.name}.json")
    save_scenario(build_constellation(seed=seed, **workload.build), path)
    return path
