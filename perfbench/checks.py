"""Correctness gate for one run of a workload's chain, kept out of the timed
region.

Each check returns a list of problems (empty when it passes). The first run
of a chain gets the full gate: reference digests, the plan's cost against the
attackability CSV, the sweep report's shape, and -- on the 24 h workloads --
a replay of the plan through the naive FIFO oracle in ``tests/oracles.py``.
Every later run must reproduce the first run's files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import os

ARTIFACTS = {
    "windows": ("windows.csv",),
    "schedule": ("schedule.csv",),
    "plan": ("plan.csv", "plan.summary.json"),
    "sweep": ("sweep.csv", "sweep.aggregate.csv"),
}
# artifacts of the bundled scenario that the workload seed does not touch
SEED_FREE = ("windows.csv", "schedule.csv", "plan.csv", "plan.summary.json")

# the oracle re-walks the whole queue for every unit aboard in every slot;
# beyond a day of 300 s slots it would take longer than the benchmark run
REPLAY_MAX_SLOTS = 288

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(workdir: str, step: str) -> dict[str, str]:
    return {name: sha256(os.path.join(workdir, name)) for name in ARTIFACTS[step]}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_problems(reference: dict, workload, seed: int,
                       got: dict[str, str]) -> list[str]:
    """Compare digests with the ones recorded for this workload.

    All artifacts are compared at the recorded seed; at other seeds only the
    bundled scenario's seed-free artifacts are.
    """
    entry = reference.get(workload.name)
    if entry is None:
        return []
    names = list(got)
    if seed != entry["seed"]:
        names = [n for n in names if not workload.synthetic and n in SEED_FREE]
    return [f"{n}: sha256 {got[n][:12]} != reference {entry['sha256'][n][:12]}"
            for n in names if got[n] != entry["sha256"][n]]


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def plan_problems(workdir: str) -> list[str]:
    """Each planned slot is attackable at the price it claims, and the
    plan's total is the sum of those prices."""
    prices = {int(r["slot"]): float(r["cost"])
              for r in _rows(os.path.join(workdir, "schedule.csv"))
              if r["attackable"] == "1"}
    plan = _rows(os.path.join(workdir, "plan.csv"))
    with open(os.path.join(workdir, "plan.summary.json"), encoding="utf-8") as fh:
        total = json.load(fh)["total_cost"]
    problems = [f"plan slot {r['slot']} is not attackable"
                for r in plan if int(r["slot"]) not in prices]
    problems += [f"plan slot {r['slot']} costs {r['cost']}, "
                 f"attackability says {prices[int(r['slot'])]}"
                 for r in plan if int(r["slot"]) in prices
                 and float(r["cost"]) != prices[int(r["slot"])]]
    expected = sum(prices.get(int(r["slot"]), 0.0) for r in plan)
    if total != expected:
        problems.append(f"plan total_cost {total} != sum of slot prices {expected}")
    return problems


def plan_slots(workdir: str) -> list[int]:
    return [int(r["slot"]) for r in _rows(os.path.join(workdir, "plan.csv"))]


def sweep_problems(workdir: str, workload) -> list[str]:
    """Every trial ran a plan, each point has one plan, and the points that
    plan like the plan step reuse its slots."""
    rows = _rows(os.path.join(workdir, "sweep.csv"))
    problems = []
    if len(rows) != workload.total_trials:
        problems.append(f"sweep report has {len(rows)} trials, "
                        f"expected {workload.total_trials}")
    if any(r["cost"] == "inf" for r in rows):
        problems.append("sweep has trials whose plan failed")
    # a failed plan step leaves no plan to compare with
    planned = (" ".join(str(s) for s in plan_slots(workdir))
               if os.path.exists(os.path.join(workdir, "plan.csv")) else None)
    for value in workload.values:
        slots = {r["planned_slots"] for r in rows if r["value"] == value}
        if len(slots) != 1:
            problems.append(f"sweep point {value} has {len(slots)} distinct plans")
        elif planned is not None and value in workload.plan_values and slots != {planned}:
            problems.append(f"sweep point {value} plans {slots.pop()!r}, "
                            f"plan step chose {planned!r}")
    return problems


def load_oracles(root: str):
    """tests/oracles.py, imported from its file without touching it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", os.path.join(root, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay_problems(oracles, scenario_file: str, workdir: str, workload) -> list[str]:
    """Replay the planned slots unit by unit; the plan must reach its goal:
    the final target past its deadline (delay), or every target of the
    widened band dropped (overflow)."""
    from orbitsiege.scenario import load_scenario

    scenario = load_scenario(scenario_file)
    if scenario.time.horizon_slots > REPLAY_MAX_SLOTS:
        return []
    target = scenario.target
    sat = scenario.satellite(target.satellite_id)
    arrivals: dict[int, list[tuple[str, int]]] = {}
    for unit in scenario.trace_for(sat.id):
        arrivals.setdefault(unit.capture_slot, []).append((unit.unit_id, unit.size_bytes))
    transmissible = {int(r["slot"]) for r in _rows(os.path.join(workdir, "schedule.csv"))
                     if r["transmissible"] == "1"}
    replay = oracles.fifo_replay(
        [(u.unit_id, u.size_bytes) for u in scenario.initial_units(sat.id)],
        arrivals, transmissible, set(plan_slots(workdir)), sat.capacity_bytes,
        sat.downlink_rate_bps * scenario.time.slot_seconds // 8,
        target.attack_start_slot, scenario.time.last_slot)

    if workload.kind == "delay":
        final = target.target_unit_ids[-1]
        te = oracles.evacuation_slot(replay, final)
        if te > target.target_downlink_slot:
            return []
        return [f"replay: {final} leaves at slot {te}, deadline "
                f"{target.target_downlink_slot} not exceeded"]

    order = [u.unit_id for u in scenario.fifo_units(sat.id)]
    first = order.index(target.target_unit_ids[0])
    last = order.index(target.target_unit_ids[-1])
    band = order[max(0, first - workload.extra_m):last + 1 + workload.extra_m]
    kept = [uid for uid in band if uid not in replay["dropped"]]
    return [f"replay: targets not dropped: {kept}"] if kept else []
