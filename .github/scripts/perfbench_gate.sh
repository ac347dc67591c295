#!/bin/sh
# Benchmark correctness gate on the full-size workloads: each run must
# report "correct": true and "failed": 0. Seed 1 also checks the recorded
# digests; seed 2 has none, so it checks run-to-run identity, the plan
# against the ladder, the sweep's shape and the FIFO replay oracle on a
# second world. Run from the repository root.
set -eu
for seed in 1 2; do
  for workload in sweep_24h geometry_1440 overflow_24h; do
    last=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0 | tail -n 1)
    echo "$workload, seed $seed: $last"
    python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$last"
  done
done
