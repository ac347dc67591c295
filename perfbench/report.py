"""Run benchmark workloads one after another and print every metric.

    python3 perfbench/report.py

runs every workload at the default seed for ``run_seconds`` of
``BENCHMARK.json``, once with end-to-end timing and once traced, and prints
every metric by name with its unit, plus ``failed_ratio`` and the
correctness verdict. Each run is its own ``run.py`` process, so
``peak_rss_mb`` belongs to one workload. With several seeds it also prints,
per metric, the median and the spread: the distance between the first and
third quartile as a share of the median. ``--json PATH`` writes every run's
result and these summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> dict | None:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def report(workload: str, mode: str, runs: list[dict | None]) -> dict:
    results = [r for r in runs if r is not None]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = len(results) == len(runs) > 0 and all(r["correct"] for r in results)
    print(f"\n{workload} ({mode}, {len(results)} run(s)): correct={correct} "
          f"failed_ratio={failed / attempted if attempted else 1.0:g} "
          f"({failed} of {attempted} CLI steps)")
    metrics = {}
    for name in (results[0]["metrics"] if results else {}):
        unit = results[0]["metrics"][name]["unit"]
        stats = summary([r["metrics"][name]["value"] for r in results
                         if name in r["metrics"]])
        metrics[name] = {"unit": unit, **stats}
        line = f"  {name:40s} {stats['median']:>14.6g} {unit}"
        if stats.get("spread") is not None:
            line += f"   q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}"
        print(line)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(DEFAULT_SEED),
                        help="seeds as a list of numbers and ranges, e.g. 1-10")
    parser.add_argument("--json", help="write every result and summary here")
    args = parser.parse_args(argv)

    out = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            mode = "traced" if trace else "end-to-end"
            runs = [run_once(workload, seed, trace) for seed in parse_seeds(args.seeds)]
            out.setdefault(workload, {})[mode] = report(workload, mode, runs)
            ok &= out[workload][mode]["correct"]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
