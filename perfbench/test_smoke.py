"""Smoke test of the benchmark's own code.

Every workload runs once at a tiny size, end to end and traced. Each run
must pass its correctness gate and report exactly the metrics that
BENCHMARK.json declares. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TINY = {
    "sweep_24h": WORKLOADS["sweep_24h"].tiny(),
    "geometry_1440": WORKLOADS["geometry_1440"].tiny(
        n_low=4, n_high=20, n_stations=12, slot_seconds=300, target_downlink_slot=61),
    "overflow_24h": WORKLOADS["overflow_24h"].tiny(),
}


def declared(kind: str) -> set[str]:
    return {m["name"] for m in run.BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload(name, trace):
    result = run.measure(TINY[name], DEFAULT_SEED, 0, trace)
    assert result["correct"]
    assert result["failed"] == 0
    # the untimed first chain plus one measured chain (two when traced)
    assert result["attempted"] == len(run.STEPS) * (3 if trace else 2)
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _double_prices(path, first_run):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        *head, cost = line.split(",")
        rows.append(",".join(head + [cost if cost == "inf" else str(2 * float(cost))]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _append_blank_line_after_first_run(path, first_run):
    if not first_run:
        with open(path, "a") as fh:
            fh.write("\n")


@pytest.mark.parametrize("corrupt", [_double_prices, _append_blank_line_after_first_run],
                         ids=["wrong_prices", "bytes_change_between_runs"])
def test_broken_schedule_fails_the_gate(monkeypatch, corrupt):
    original = run.Run._check
    seen = []

    def check(self, step):
        if step == "schedule":
            corrupt(os.path.join(self.workdir, "schedule.csv"), first_run=not seen)
            seen.append(step)
        return original(self, step)

    monkeypatch.setattr(run.Run, "_check", check)
    result = run.measure(TINY["sweep_24h"], DEFAULT_SEED, 0, False)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_vanished_function_is_reported_missing(monkeypatch):
    # the queue engines leave onboard; attack.py keeps its own reference,
    # so the program still runs but nothing can be wrapped for that layer
    run.import_program(run.ROOT)
    onboard = sys.modules["orbitsiege.onboard"]
    monkeypatch.delattr(onboard, "evolve")
    monkeypatch.delattr(onboard, "evolve_aggregate")
    result = run.measure(TINY["overflow_24h"], DEFAULT_SEED, 0, True)
    assert result["correct"]
    gone = {"onboard.trace_calls", "onboard.trace_s", "onboard.slots_evolved",
            "onboard.self_s", "planner.iterations", "planner.traces_per_slot"}
    assert set(result["metrics"]) == declared("per_layer") - gone


def test_infeasible_seed_is_rejected():
    # without high-priority satellites no slot is attackable, so no plan exists
    workload = TINY["geometry_1440"].tiny(n_high=0)
    with pytest.raises(run.SeedRejected, match="infeasible"):
        run.measure(workload, DEFAULT_SEED, 0, False)
