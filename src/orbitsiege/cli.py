"""Command-line front end.

Every subcommand is a thin composition of library calls: load a scenario,
run one pipeline stage, emit the artifact. Nothing here computes anything
the library cannot; the tests exercise both routes against each other.

Exit codes: 0 success, 1 planner AttackFail or a failed verification (a
negative result, reported on standard output), 2 malformed input or I/O
trouble (reported on standard error).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .attack import AttackContext, strategy_table
from .errors import AttackFail, OrbitSiegeError, ValidationError
from .evaluation import (AXES, KINDS, EvalConfig, aggregate_table, plan_attack,
                         report_table, sweep)
from .onboard import evolve, trace_events_table, trace_table
from .orbit import (compute_contact_windows, load_contact_windows,
                    save_contact_windows, windows_text)
from .output import emit, json_text, table_text, write_text_atomic
from .planner_delay import verify_delay
from .planner_overflow import verify_overflow
from .scenario import load_scenario
from .scheduler import attackability_for, attackability_table


def _derived_path(path: str, tag: str, ext: str | None = None) -> str:
    base, old_ext = os.path.splitext(path)
    return f"{base}.{tag}{ext if ext is not None else old_ext}"


def _parse_values(text: str) -> tuple:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValidationError("--values has an empty entry")
        try:
            values.append(int(part))
        except ValueError:
            try:
                values.append(float(part))
            except ValueError:
                raise ValidationError(f"--values entry is not a number: {part!r}")
    return tuple(values)


def _parse_slots(text: str) -> tuple[int, ...]:
    """The attacked slots; a blank text is the empty strategy."""
    if not text.strip():
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--slots must be comma-separated integers: {text!r}")


def _load(args):
    scenario = load_scenario(args.scenario)
    windows = None
    if args.windows:
        windows = load_contact_windows(args.windows, scenario)
    return scenario, windows


def _context(args):
    """The scenario and the attack context on its attackability ladder."""
    scenario, windows = _load(args)
    return scenario, AttackContext.from_scenario(scenario, attackability_for(scenario, windows))


def _cmd_windows(args) -> int:
    windows = compute_contact_windows(load_scenario(args.scenario))
    if args.out:
        save_contact_windows(args.out, windows, args.format)
        print(f"{len(windows)} contact windows -> {args.out}")
    else:
        sys.stdout.write(windows_text(windows, args.format))
    return 0


def _cmd_schedule(args) -> int:
    scenario, windows = _load(args)
    ladder = attackability_for(scenario, windows)
    if args.out:
        emit(args.out, *attackability_table(ladder), args.format)
        print(f"{ladder.transmissible.sum()} transmissible / {ladder.attackable.sum()} "
              f"attackable slots -> {args.out}")
    else:
        sys.stdout.write(table_text(*attackability_table(ladder), args.format))
    return 0


def _cmd_simulate(args) -> int:
    _, ctx = _context(args)
    slots = ctx.require_subset(_parse_slots(args.slots)) if args.slots else frozenset()
    trace = evolve(ctx.world, slots, tuple(ctx.world.byte_ranges))
    for uid in ctx.targets:
        te = trace.t_e(uid)
        state = (f"dropped at slot {trace.drop_slot(uid)}" if trace.dropped(uid)
                 else f"evacuates at slot {te:.0f}" if te != math.inf
                 else "still aboard at horizon")
        print(f"{uid}: {state}")
    if args.out:
        emit(args.out, *trace_table(trace, ctx.targets), args.format)
        events_path = _derived_path(args.out, "events")
        emit(events_path, *trace_events_table(trace), args.format)
        print(f"trace -> {args.out}, events -> {events_path}")
    return 0


def _deadline(args, scenario) -> int | None:
    return args.target_slot if args.target_slot is not None \
        else scenario.target.target_downlink_slot


def _write_strategy(args, strategy) -> None:
    if args.out:
        emit(args.out, *strategy_table(strategy), args.format)
        summary_path = _derived_path(args.out, "summary", ".json")
        write_text_atomic(summary_path, json_text(strategy.summary()))
        print(f"strategy -> {args.out}, summary -> {summary_path}")


def _cmd_plan(args) -> int:
    scenario, ctx = _context(args)
    deadline = _deadline(args, scenario) if args.kind == "delay" else None
    strategy = plan_attack(ctx, args.kind, args.extra_m, deadline)
    slots = ",".join(str(s) for s in sorted(strategy.slots))
    trace = strategy.trace
    drops = [trace.drop_slot(uid) for uid in trace.tracked if trace.dropped(uid)]
    drop_note = f", drop slot {min(drops)}" if drops and args.kind == "overflow" else ""
    print(f"strategy {{{slots}}}, cost {strategy.cost:g}{drop_note}")
    _write_strategy(args, strategy)
    return 0


def _cmd_verify(args) -> int:
    scenario, ctx = _context(args)
    slots = _parse_slots(args.slots)
    if args.kind == "delay":
        ok, report = verify_delay(ctx, slots, _deadline(args, scenario))
    else:
        ok, report = verify_overflow(ctx, slots)
    text = json_text(report)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"report -> {args.out}")
    sys.stdout.write(text)
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    scenario, windows = _load(args)
    config = EvalConfig(kind=args.kind, axis=args.axis, values=_parse_values(args.values),
                        trials=args.trials, master_seed=args.seed,
                        cost_budget=args.budget, extra_m=args.extra_m, noise=args.noise)
    result = sweep(scenario, config, windows)
    if len(result.errors) == len(result.points):  # no point ran: nothing to write
        raise ValidationError(result.points[0].error)
    for value, error in result.errors:
        print(f"note: point {value} skipped: {error}", file=sys.stderr)
    if args.out:
        emit(args.out, *report_table(result), args.format)
        agg_path = _derived_path(args.out, "aggregate")
        emit(agg_path, *aggregate_table(result), args.format)
        print(f"report -> {args.out}, aggregate -> {agg_path}")
    else:
        sys.stdout.write(table_text(*aggregate_table(result), args.format))
    return 0


def _add_common(p, windows=True) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    if windows:
        p.add_argument("--windows", help="windows CSV (skips the contact-window computation)")
    p.add_argument("--out", help="output artifact path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitsiege",
        description="Downlink scheduling simulator and attack planners for "
                    "mixed-priority Earth-observation constellations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("windows", help="compute satellite-station contact windows")
    _add_common(p, windows=False)
    p.set_defaults(func=_cmd_windows)

    p = sub.add_parser("schedule", help="per-slot assignment and attackability table")
    _add_common(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="evolve the target's onboard queue")
    _add_common(p)
    p.add_argument("--slots", help="comma-separated attacked slots", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plan-delay", help="minimum-cost plan pushing the target past a deadline")
    _add_common(p)
    p.add_argument("--target-slot", type=int, default=None, dest="target_slot")
    p.add_argument("--extra-m", type=int, default=0, dest="extra_m")
    p.set_defaults(func=_cmd_plan, kind="delay")

    p = sub.add_parser("plan-overflow", help="plan forcing the target to be dropped")
    _add_common(p)
    p.add_argument("--extra-m", type=int, default=0, dest="extra_m")
    p.set_defaults(func=_cmd_plan, kind="overflow")

    p = sub.add_parser("verify", help="replay a strategy and judge the outcome")
    _add_common(p)
    p.add_argument("--kind", choices=KINDS, default="delay")
    p.add_argument("--slots", required=True, help="comma-separated attacked slots")
    p.add_argument("--target-slot", type=int, default=None, dest="target_slot")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep along one axis")
    _add_common(p)
    p.add_argument("--kind", choices=KINDS, default="delay")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--extra-m", type=int, default=0, dest="extra_m")
    p.add_argument("--noise", type=float, default=0.1,
                   help="one std ratio for unit sizes, downlink rate and queue length")
    p.add_argument("--axis", choices=AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.set_defaults(func=_cmd_sweep)

    for name, p in sub.choices.items():
        if name != "verify":  # verify always writes its JSON report
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AttackFail as exc:
        print(f"attack infeasible: {exc}")
        return 1
    except (OrbitSiegeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
