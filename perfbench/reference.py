"""Record the SHA-256 of every workload's artifacts at the default seed.

    python3 perfbench/reference.py

writes ``perfbench/reference.json``, which ``run.py`` checks each run
against. The CLI's artifacts are meant to stay byte-identical, so re-record
only for a change whose purpose is to alter them, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
from checks import REFERENCE
from workloads import DEFAULT_SEED, WORKLOADS, scenario_path


def main() -> int:
    cli, oracles = run.import_program(run.ROOT)
    recorded = {}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
            scenario = scenario_path(workload, DEFAULT_SEED, run.ROOT, workdir)
            chain = run.Run(cli, oracles, workload, DEFAULT_SEED, scenario, workdir)
            chain.reference = {}
            chain.chain()
        if chain.problems:
            print("\n".join(chain.problems), file=sys.stderr)
            return 1
        recorded[name] = {"seed": DEFAULT_SEED, "sha256": {
            artifact: digest for step in run.STEPS
            for artifact, digest in chain.first[step].items()}}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
