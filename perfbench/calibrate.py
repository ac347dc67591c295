"""Check that known added work raises a scaled time by that amount.

    python3 perfbench/calibrate.py

Every time the benchmark reports is a wall time multiplied by a speed factor
that ``speed.py`` reads inside the program's own process. If that reading
depended on the program's state rather than on the host's speed, a change
that adds work could read as a smaller or larger change. So this script
adds a fixed interpreter loop (``spin``) in front of one CLI step. Each
round times the step, the step with the loop, and the loop alone, back to
back; the round's ratio is the step's rise over the loop's own time. The
script does this for the ``sweep`` step of ``sweep_24h`` and the ``plan``
step of ``geometry_1440``, each for CASE_SECONDS, and prints the median
ratio on the scaled and on the wall clock. It exits with code 1 if a scaled
ratio is outside 1 +- TOLERANCE.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time

import run
import speed
from workloads import DEFAULT_SEED, WORKLOADS, scenario_path

CASES = (("sweep_24h", "sweep"), ("geometry_1440", "plan"))
CASE_SECONDS = 90
TOLERANCE = 0.1
# about one second of work on the VM the baseline was measured on
SPIN_LOOPS = 16_000_000


def spin() -> int:
    total = 0
    for i in range(SPIN_LOOPS):
        total += i & 7
    return total


class WithSpin:
    """The CLI, with the loop in front of one step."""

    def __init__(self, cli, step: str) -> None:
        self.cli = cli
        self.step = step

    def main(self, argv):
        if argv[0] == self.step:
            spin()
        return self.cli.main(argv)


def calibrate(cli, oracles, name: str, step: str) -> dict[str, float]:
    """The median over rounds of the step's rise over the loop's time, per clock."""
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        scenario = scenario_path(workload, DEFAULT_SEED, run.ROOT, workdir)
        chain = run.Run(cli, oracles, workload, DEFAULT_SEED, scenario, workdir)
        chain.chain()
        if chain.problems:
            raise SystemExit("\n".join(chain.problems))
        argv = chain.argv[step]
        shim = WithSpin(cli, argv[0])
        rounds: list[tuple[speed.Timing, speed.Timing, speed.Timing]] = []
        deadline = time.perf_counter() + CASE_SECONDS
        while time.perf_counter() < deadline:
            rounds.append((speed.timed(lambda: run.call_cli(cli, argv))[1],
                           speed.timed(lambda: run.call_cli(shim, argv))[1],
                           speed.timed(spin)[1]))
    ratios = {clock: statistics.median(
        (getattr(more, clock) - getattr(plain, clock)) / getattr(alone, clock)
        for plain, more, alone in rounds) for clock in ("seconds", "wall")}
    print(f"{name} {step}: {len(rounds)} rounds, step "
          f"{statistics.median(r[0].seconds for r in rounds):.4f} s, loop "
          f"{statistics.median(r[2].seconds for r in rounds):.4f} s, rise/loop "
          f"{ratios['seconds']:.3f} scaled, {ratios['wall']:.3f} wall")
    return ratios


def main() -> int:
    cli, oracles = run.import_program(run.ROOT)
    ok = True
    for name, step in CASES:
        ok &= abs(calibrate(cli, oracles, name, step)["seconds"] - 1) <= TOLERANCE
    print("scaling " + ("holds" if ok else f"is off by more than {TOLERANCE:.0%}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
