"""Run one benchmark workload through the orbitsiege CLI and print its metrics.

    python3 perfbench/run.py --workload sweep_24h --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Run from the root of a checkout. The CLI runs in this process
(``orbitsiege.cli.main(argv)``), one step after another, with every artifact
in a temporary directory inside the checkout. A first, untimed run of the
chain fills caches, checks the seed and passes the full correctness gate;
then the chain repeats until ``--seconds`` have passed and each metric is the
median over those runs. Times are seconds at a reference CPU speed (see
``speed.py``); the same medians on the wall clock go to standard error.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced chains alternate; the traced ones give the per-layer
metrics, and the median over pairs of traced minus untraced chain time is
``trace.overhead_s``.

Progress and problems go to standard error. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` count CLI steps
(a step fails on an unexpected exit code or an artifact that fails a check),
and ``metrics`` maps each name to its value and unit. Exit code 0 means the
run finished; 2 means the program could not be found or the seed gives a
workload whose plan is infeasible.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time

# the checkout's sources are only read, never compiled to files beside them
sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, scenario_path  # noqa: E402

ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
# every metric's unit, as declared
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in BENCHMARK[kind]}
STEPS = ("windows", "schedule", "plan", "sweep")
# scenario loads timed before every chain, so setup_s spans the whole run
SETUP_REPEATS = 5


class SeedRejected(Exception):
    """The workload seed gives a world in which the plan is infeasible."""


def import_program(root: str):
    """The package under ``src/`` and the oracles under ``tests/`` of root."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import orbitsiege.cli

    return orbitsiege.cli, checks.load_oracles(root)


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


class Run:
    """The CLI chain of one workload, with its step and failure counts.

    The first chain passes the full gate and records its artifacts' digests;
    every later chain must write the same bytes.
    """

    def __init__(self, cli, oracles, workload, seed: int, scenario: str, workdir: str):
        self.cli = cli
        self.oracles = oracles
        self.workload = workload
        self.seed = seed
        self.scenario = scenario
        self.workdir = workdir
        self.reference = checks.load_reference()
        self.first: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        windows = self._path("windows.csv")
        common = ["--scenario", scenario]
        self.argv = {
            "windows": ["windows", *common, "--out", windows],
            "schedule": ["schedule", *common, "--windows", windows,
                         "--out", self._path("schedule.csv")],
            "plan": [*workload.plan_argv(), *common, "--windows", windows,
                     "--out", self._path("plan.csv")],
            "sweep": [*workload.sweep_argv(), *common, "--windows", windows,
                      "--seed", str(seed), "--out", self._path("sweep.csv")],
        }

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def chain(self, tracer: tracing.Tracer | None = None) -> dict[str, speed.Timing]:
        """Run every step once; return each step's timing."""
        times = {}
        for step in STEPS:
            argv = self.argv[step]
            gc.collect()
            if tracer is None:
                (code, text), times[step] = speed.timed(lambda: call_cli(self.cli, argv))
            else:
                (code, text), times[step] = speed.timed(
                    lambda: tracer.step(step, lambda: call_cli(self.cli, argv)))
                tracer.rescale_step(step, times[step].seconds)
            self.attempted += 1
            if code != 0:
                problems = [f"exit code {code}: {text.strip()[-300:]}"]
            else:
                try:
                    problems = self._check(step)
                except OSError as exc:  # an artifact this step or an earlier one lacks
                    problems = [f"cannot read an artifact: {exc}"]
            if problems:
                self.failed += 1
                self.problems.extend(f"{step}: {p}" for p in problems)
        return times

    def load_times(self, load_scenario) -> list[speed.Timing]:
        """Scenario load timings."""
        return [speed.timed(lambda: load_scenario(self.scenario))[1]
                for _ in range(SETUP_REPEATS)]

    def _check(self, step: str) -> list[str]:
        got = checks.digests(self.workdir, step)
        if step in self.first:
            return [] if got == self.first[step] else [
                "artifacts differ from the first run's"]
        self.first[step] = got
        problems = checks.reference_problems(self.reference, self.workload,
                                             self.seed, got)
        if step == "plan":
            problems += checks.plan_problems(self.workdir)
            problems += checks.replay_problems(self.oracles, self.scenario,
                                               self.workdir, self.workload)
        elif step == "sweep":
            problems += checks.sweep_problems(self.workdir, self.workload)
        return problems

    def check_seed(self) -> None:
        """After the first chain: a synthetic world must admit the plans."""
        if not self.workload.synthetic:
            return
        infeasible = [p for p in self.problems
                      if p.startswith("plan: exit code 1")
                      or p.startswith("sweep: sweep has trials whose plan failed")]
        if infeasible:
            raise SeedRejected(
                f"seed {self.seed} builds a {self.workload.name} world where the "
                f"attack is infeasible ({infeasible[0]}); choose another seed")


def _until(seconds: float, body) -> None:
    """Call body at least once and again while time is left."""
    deadline = time.perf_counter() + seconds
    body()
    while time.perf_counter() < deadline:
        body()


def _total(chain: dict[str, speed.Timing], clock: str) -> float:
    return sum(getattr(t, clock) for t in chain.values())


def _medians(chains, setup, trials: int, clock: str) -> dict[str, float]:
    """End-to-end times on one clock: "seconds" (reference speed) or "wall"."""

    def median(timings):
        return statistics.median(getattr(t, clock) for t in timings)

    return {
        "setup_s": median(setup),
        "windows_s": median(c["windows"] for c in chains),
        "schedule_s": median(c["schedule"] for c in chains),
        "plan_s": median(c["plan"] for c in chains),
        "sweep_trials_per_s": statistics.median(
            trials / getattr(c["sweep"], clock) for c in chains),
        "total_s": statistics.median(_total(c, clock) for c in chains),
    }


def end_to_end(run: Run, seconds: float, load_scenario) -> dict[str, float]:
    chains: list[dict[str, speed.Timing]] = []
    setup: list[speed.Timing] = []

    def chain() -> None:
        setup.extend(run.load_times(load_scenario))
        chains.append(run.chain())

    _until(seconds, chain)
    trials = run.workload.total_trials
    values = _medians(chains, setup, trials, "seconds")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = _medians(chains, setup, trials, "wall")
    factors = sorted(t.factor for c in chains for t in c.values())
    print(f"perfbench: {run.workload.name}: wall clock, probing excluded: "
          + ", ".join(f"{name} {value:.6g} {UNITS[name]}" for name, value in wall.items())
          + f"; speed factor median {statistics.median(factors):.4g}, "
          f"range {factors[0]:.4g}-{factors[-1]:.4g}", file=sys.stderr)
    return values


def per_layer(run: Run, seconds: float) -> tuple[dict[str, float], list[str]]:
    tracer = tracing.Tracer()
    plain: list[dict[str, speed.Timing]] = []
    traced: list[dict[str, speed.Timing]] = []
    iterations: list[dict[str, float]] = []

    def traced_chain() -> None:
        tracer.reset()
        undo, missing = tracing.install(tracer)
        try:
            traced.append(run.chain(tracer))
        finally:
            tracing.uninstall(undo)
        iterations.append(tracing.iteration_values(tracer, missing))

    def pair() -> None:
        # alternate the order, so neither kind always follows the other
        if len(plain) % 2:
            traced_chain()
            plain.append(run.chain())
        else:
            plain.append(run.chain())
            traced_chain()

    def overhead(clock: str) -> float:
        # each pair ran back to back, so a drift in host speed mostly cancels
        return statistics.median(_total(t, clock) - _total(p, clock)
                                 for p, t in zip(plain, traced))

    _until(seconds, pair)
    values, unstable = tracing.summarize(iterations)
    values["trace.total_s"] = statistics.median(_total(c, "seconds") for c in traced)
    values["trace.overhead_s"] = overhead("seconds")
    print(f"perfbench: {run.workload.name}: wall clock, probing excluded: "
          f"trace.total_s {statistics.median(_total(c, 'wall') for c in traced):.6g} s, "
          f"trace.overhead_s {overhead('wall'):.6g} s", file=sys.stderr)
    return values, unstable


def measure(workload, seed: int, seconds: float, trace: bool, root: str = ROOT) -> dict:
    """One run of a workload: set up, gate, measure, and build the result."""
    cli, oracles = import_program(root)
    from orbitsiege.scenario import load_scenario

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        scenario = scenario_path(workload, seed, root, workdir)
        run = Run(cli, oracles, workload, seed, scenario, workdir)
        run.chain()
        run.check_seed()
        unstable: list[str] = []
        if trace:
            values, unstable = per_layer(run, seconds)
            absent = [m["name"] for m in BENCHMARK["per_layer"]
                      if m["name"] not in values]
            if absent:
                print(f"perfbench: per-layer metrics missing: {', '.join(absent)}",
                      file=sys.stderr)
        else:
            values = end_to_end(run, seconds, load_scenario)
    for name in unstable:
        run.problems.append(f"count {name} differs between traced runs")
    for problem in run.problems:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not unstable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # exit through the with-blocks, so the work directory is removed
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program or its oracles under {ROOT}: "
              f"{exc}", file=sys.stderr)
        return 2
    except SeedRejected as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
