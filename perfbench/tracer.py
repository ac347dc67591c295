"""Spans and counters around the package's public functions, installed from
outside the package for the traced run only.

Each hook names a function by the module that defines it. Installing a hook
replaces that function in every ``orbitsiege`` module that holds it, because
a module that did ``from .orbit import compute_contact_windows`` calls its
own reference; lazy imports inside functions read the defining module at
call time and so see the wrapper too. A hook whose function no longer exists
is skipped, and the metrics that only it feeds are reported missing.

Spans nest. A layer's self time is the time inside its spans that no child
span covers; a function's time counts only its outermost calls. The times a
CLI step adds are scaled by the same factor as the step's own time, so they
too are seconds at the reference speed of ``speed.py``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    name: str
    layer: str
    module: str
    attr: str  # "function" or "Class.method"
    count: Callable | None = None  # (tracer, args, result) -> None


def _add(key, amount=lambda args, result: 1):
    def count(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return count


def _count_ladder(tracer, args, result):
    tracer.counts["scheduler.slots_transmissible"] += sum(r.transmissible for r in result)
    tracer.counts["scheduler.slots_attackable"] += sum(r.attackable for r in result)


def _count_trace(tracer, args, result):
    world = args[0]
    tracer.counts["onboard.trace_calls"] += 1
    tracer.counts["onboard.slots_evolved"] += world.horizon - world.t0 + 1
    if tracer.active_layers["planner"]:
        tracer.counts["planner.iterations"] += 1


HOOKS = (
    Hook("load_scenario", "scenario", "orbitsiege.scenario", "load_scenario"),
    Hook("compute_contact_windows", "orbit", "orbitsiege.orbit", "compute_contact_windows",
         _add("orbit.windows", lambda args, result: len(result))),
    Hook("load_contact_windows", "orbit", "orbitsiege.orbit", "load_contact_windows"),
    Hook("save_contact_windows", "orbit", "orbitsiege.orbit", "save_contact_windows"),
    Hook("propagate", "orbit", "orbitsiege.orbit", "propagate",
         _add("orbit.propagate_calls")),
    Hook("attackability_for", "scheduler", "orbitsiege.scheduler", "attackability_for",
         _count_ladder),
    Hook("build_schedule", "scheduler", "orbitsiege.scheduler", "build_schedule",
         _add("scheduler.slots_scheduled", lambda args, result: len(result))),
    Hook("hungarian", "scheduler", "orbitsiege.scheduler", "hungarian",
         _add("scheduler.hungarian_calls")),
    Hook("linear_sum_assignment", "scheduler", "orbitsiege.scheduler",
         "linear_sum_assignment", _add("scheduler.linear_sum_assignment_calls")),
    Hook("save_attackability", "scheduler", "orbitsiege.scheduler", "save_attackability"),
    Hook("from_scenario", "attack", "orbitsiege.attack", "AttackContext.from_scenario",
         _add("attack.context_builds")),
    Hook("evolve", "onboard", "orbitsiege.onboard", "evolve", _count_trace),
    Hook("evolve_aggregate", "onboard", "orbitsiege.onboard", "evolve_aggregate",
         _count_trace),
    Hook("plan_delay", "planner", "orbitsiege.planner_delay", "plan_delay",
         _add("planner.slots_chosen", lambda args, result: len(result.slots))),
    Hook("plan_overflow", "planner", "orbitsiege.planner_overflow", "plan_overflow",
         _add("planner.slots_chosen", lambda args, result: len(result.slots))),
    Hook("sweep", "evaluation", "orbitsiege.evaluation", "sweep",
         _add("evaluation.trials",
              lambda args, result: sum(len(p.records) for p in result.points))),
    Hook("perturb", "evaluation", "orbitsiege.evaluation", "perturb",
         _add("evaluation.perturb_calls")),
    Hook("emit", "output", "orbitsiege.output", "emit"),
    Hook("write_text_atomic", "output", "orbitsiege.output", "write_text_atomic",
         _add("output.bytes_written",
              lambda args, result: len(args[1].encode("utf-8")))),
)
QUEUE_ENGINES = ("evolve", "evolve_aggregate")
PLANNERS = ("plan_delay", "plan_overflow")


class Tracer:
    """Span stack plus per-iteration totals: function time, layer self time,
    counters, and the layer self times inside each CLI step."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.active_names: Counter = Counter()
        self.active_layers: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.function_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.steps: dict[str, float] = {}
        self.step_self_s: dict[str, Counter] = {}
        self._before: tuple[Counter, Counter] = (Counter(), Counter())

    def begin(self, name: str, layer: str) -> None:
        self.active_names[name] += 1
        self.active_layers[layer] += 1
        self.stack.append([name, layer, time.perf_counter(), 0.0])

    def end(self) -> float:
        name, layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        self.active_names[name] -= 1
        self.active_layers[layer] -= 1
        if not self.active_names[name]:
            self.function_s[name] += duration
        return duration

    def step(self, step: str, call):
        """Run one CLI step inside a ``cli`` span."""
        self._before = (Counter(self.function_s), Counter(self.self_s))
        self.begin("cli", "cli")
        try:
            return call()
        finally:
            self.steps[step] = self.end()

    def rescale_step(self, step: str, seconds: float) -> None:
        """Scale the times the last step added so that it took seconds, its
        time at reference speed, and keep its layer self times."""
        scale = seconds / self.steps[step]
        for totals, before in zip((self.function_s, self.self_s), self._before):
            for key in totals:
                totals[key] = before[key] + (totals[key] - before[key]) * scale
        self.steps[step] = seconds
        self.step_self_s[step] = Counter(
            {layer: self.self_s[layer] - self._before[1][layer] for layer in self.self_s})

    def wrap(self, hook: Hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(hook.name, hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook.count is not None:
                hook.count(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "orbitsiege" or n.startswith("orbitsiege."))]


def install(tracer: Tracer) -> tuple[list, set[str]]:
    """Wrap every hook that resolves; return the undo list and the names of
    hooks whose function is gone."""
    import orbitsiege.cli  # noqa: F401  (loads every module the CLI calls)

    modules = _package_modules()
    undo: list = []
    missing: set[str] = set()
    for hook in HOOKS:
        try:
            owner = importlib.import_module(hook.module)
        except ImportError:
            owner = None
        *path, attr = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            missing.add(hook.name)
            continue
        if isinstance(raw, classmethod):
            undo.append((owner, attr, raw))
            setattr(owner, attr, classmethod(tracer.wrap(hook, raw.__func__)))
            continue
        wrapped = tracer.wrap(hook, raw)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    undo.append((module, key, raw))
                    setattr(module, key, wrapped)
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric; its unit is declared in BENCHMARK.json."""

    name: str
    needs: tuple[tuple[str, ...], ...]  # each group needs one hook that exists
    value: Callable  # (tracer) -> number, or None when undefined
    is_count: bool = False


def _ratio(num: float, den: float):
    return num / den if den else None


def _count(name, hooks):
    return Metric(name, (hooks,), lambda t: t.counts[name], True)


def _seconds(name, hook):
    return Metric(name, ((hook,),), lambda t: t.function_s[hook])


def _self(layer):
    hooks = tuple(h.name for h in HOOKS if h.layer == layer)
    return Metric(f"{layer}.self_s", (hooks,), lambda t: t.self_s[layer])


def _share(tracer: Tracer, layers, step=None):
    if step is None:
        total = sum(tracer.steps.values())
        own = sum(tracer.self_s[layer] for layer in layers)
    else:
        total = tracer.steps[step]
        own = sum(tracer.step_self_s[step][layer] for layer in layers)
    return _ratio(own, total)


PER_LAYER = (
    _seconds("scenario.load_s", "load_scenario"),
    _seconds("orbit.compute_contact_windows_s", "compute_contact_windows"),
    _seconds("orbit.load_contact_windows_s", "load_contact_windows"),
    _count("orbit.windows", ("compute_contact_windows",)),
    _count("orbit.propagate_calls", ("propagate",)),
    _self("orbit"),
    _seconds("scheduler.build_schedule_s", "build_schedule"),
    _seconds("scheduler.attackability_s", "attackability_for"),
    _count("scheduler.hungarian_calls", ("hungarian",)),
    _count("scheduler.linear_sum_assignment_calls", ("linear_sum_assignment",)),
    _count("scheduler.slots_scheduled", ("build_schedule",)),
    _count("scheduler.slots_transmissible", ("attackability_for",)),
    _count("scheduler.slots_attackable", ("attackability_for",)),
    Metric("scheduler.target_slot_ratio", (("attackability_for",), ("build_schedule",)),
           lambda t: _ratio(t.counts["scheduler.slots_transmissible"],
                            t.counts["scheduler.slots_scheduled"]), True),
    _self("scheduler"),
    _count("attack.context_builds", ("from_scenario",)),
    _seconds("attack.from_scenario_s", "from_scenario"),
    _self("attack"),
    _count("onboard.trace_calls", QUEUE_ENGINES),
    Metric("onboard.trace_s", (QUEUE_ENGINES,),
           lambda t: sum(t.function_s[h] for h in QUEUE_ENGINES)),
    _count("onboard.slots_evolved", QUEUE_ENGINES),
    _self("onboard"),
    Metric("planner.plan_s", (PLANNERS,),
           lambda t: sum(t.function_s[h] for h in PLANNERS)),
    _count("planner.iterations", QUEUE_ENGINES),
    _count("planner.slots_chosen", PLANNERS),
    Metric("planner.traces_per_slot", (QUEUE_ENGINES, PLANNERS),
           lambda t: _ratio(t.counts["planner.iterations"],
                            t.counts["planner.slots_chosen"]), True),
    _self("planner"),
    _seconds("evaluation.sweep_s", "sweep"),
    _count("evaluation.perturb_calls", ("perturb",)),
    _seconds("evaluation.perturb_s", "perturb"),
    _count("evaluation.trials", ("sweep",)),
    _self("evaluation"),
    # emit and write_text_atomic call no other layer: output's self time is theirs
    Metric("output.emit_s", (("emit", "write_text_atomic"),),
           lambda t: t.self_s["output"]),
    _count("output.bytes_written", ("write_text_atomic",)),
    Metric("cli.self_s", (), lambda t: t.self_s["cli"]),
    Metric("trace.geometry_share", (),
           lambda t: _share(t, ("orbit", "scheduler", "output"))),
    Metric("trace.sweep_mc_share", (),
           lambda t: _share(t, ("evaluation", "attack", "onboard"), "sweep")),
)
# trace.total_s and trace.overhead_s, the traced chain's time and its excess
# over the untraced one, come from the runner


def iteration_values(tracer: Tracer, missing: set[str]) -> dict[str, float]:
    """Per-layer values of one traced chain; undefined ones are left out."""
    out = {}
    for metric in PER_LAYER:
        if any(all(h in missing for h in group) for group in metric.needs):
            continue
        value = metric.value(tracer)
        if value is not None:
            out[metric.name] = value
    return out


def summarize(iterations: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced chains; counts and ratios must
    repeat exactly, and any that do not are named in the second result."""
    counts = {m.name for m in PER_LAYER if m.is_count}
    out, unstable = {}, []
    for name in iterations[0]:
        values = [it[name] for it in iterations if name in it]
        if name in counts:
            out[name] = values[0]
            if any(v != values[0] for v in values) or len(values) != len(iterations):
                unstable.append(name)
        else:
            out[name] = statistics.median(values)
    return out, unstable
