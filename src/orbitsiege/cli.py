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

from .attack import AttackContext, save_strategy, save_strategy_summary
from .errors import AttackFail, OrbitSiegeError, ValidationError
from .evaluation import (AXES, KINDS, EvalConfig, NoiseModel, aggregate_rows,
                         plan_attack, save_aggregate, save_report, sweep)
from .onboard import save_trace, save_trace_events
from .orbit import (compute_contact_windows, load_contact_windows,
                    save_contact_windows, windows_csv_text)
from .output import csv_text, json_text
from .planner_delay import verify_delay
from .planner_overflow import verify_overflow
from .scenario import load_scenario
from .scheduler import (ATTACKABILITY_HEADER, attackability_for,
                        attackability_rows, save_attackability)


def _derived_path(path: str, tag: str, ext: str | None = None) -> str:
    base, old_ext = os.path.splitext(path)
    return f"{base}.{tag}{ext if ext is not None else old_ext}"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ORBITSIEGE_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"ORBITSIEGE_SEED is not an integer: {env!r}")
    return 0


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
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
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
        sys.stdout.write(windows_csv_text(windows))
    return 0


def _cmd_schedule(args) -> int:
    scenario, windows = _load(args)
    records = attackability_for(scenario, windows)
    transmissible = sum(r.transmissible for r in records)
    attackable = sum(r.attackable for r in records)
    if args.out:
        save_attackability(args.out, records, args.format)
        print(f"{transmissible} transmissible / {attackable} attackable slots "
              f"-> {args.out}")
    else:
        sys.stdout.write(csv_text(ATTACKABILITY_HEADER, attackability_rows(records)))
    return 0


def _cmd_simulate(args) -> int:
    _, ctx = _context(args)
    trace = ctx.baseline
    if args.slots:
        trace = ctx.trace(ctx.require_subset(_parse_slots(args.slots)))
    for uid in ctx.targets:
        te = trace.t_e(uid)
        state = (f"dropped at slot {trace.drop_slot[uid]}" if trace.dropped[uid]
                 else f"evacuates at slot {te:.0f}" if te != math.inf
                 else "still aboard at horizon")
        print(f"{uid}: {state}")
    if args.out:
        save_trace(args.out, trace, ctx.targets, args.format)
        events_path = _derived_path(args.out, "events")
        save_trace_events(events_path, trace, args.format)
        print(f"trace -> {args.out}, events -> {events_path}")
    return 0


def _deadline(args, scenario) -> int | None:
    return args.target_slot if args.target_slot is not None \
        else scenario.target.target_downlink_slot


def _write_strategy(args, strategy) -> None:
    if args.out:
        save_strategy(args.out, strategy, args.format)
        summary_path = _derived_path(args.out, "summary", ".json")
        save_strategy_summary(summary_path, strategy)
        print(f"strategy -> {args.out}, summary -> {summary_path}")


def _cmd_plan_delay(args) -> int:
    scenario, ctx = _context(args)
    strategy = plan_attack(ctx, "delay", args.extra_m, _deadline(args, scenario))
    slots = ",".join(str(s) for s in sorted(strategy.slots))
    print(f"strategy {{{slots}}}, cost {strategy.cost:g}")
    _write_strategy(args, strategy)
    return 0


def _cmd_plan_overflow(args) -> int:
    _, ctx = _context(args)
    strategy = plan_attack(ctx, "overflow", args.extra_m, None)
    slots = ",".join(str(s) for s in sorted(strategy.slots))
    drops = [slot for slot in strategy.drop_slot.values() if slot is not None]
    drop_note = f", drop slot {min(drops)}" if drops else ""
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
        from .output import write_text_atomic

        write_text_atomic(args.out, text)
        print(f"report -> {args.out}")
    sys.stdout.write(text)
    return 0 if ok else 1


def _eval_config(args, axis: str, values: tuple) -> EvalConfig:
    noise = NoiseModel(args.noise, args.noise, args.noise)
    return EvalConfig(kind=args.kind, axis=axis, values=values,
                      trials=args.trials, master_seed=_resolve_seed(args),
                      cost_budget=args.budget, extra_m=args.extra_m,
                      noise=noise)


def _cmd_evaluate(args) -> int:
    scenario, windows = _load(args)
    # a one-point sweep on the extra_M axis leaves the scenario untouched
    config = _eval_config(args, "extra_M", (args.extra_m,))
    result = sweep(scenario, config, windows)
    point = result.points[0]
    if point.error:
        raise ValidationError(point.error)
    natural = sum(r.natural for r in point.records)
    print(f"success_ratio {point.success_ratio:g} over {len(point.records)} trials "
          f"(median {point.median:g}, natural {natural})")
    if args.out:
        save_report(args.out, result, args.format)
        print(f"report -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    scenario, windows = _load(args)
    config = _eval_config(args, args.axis, _parse_values(args.values))
    result = sweep(scenario, config, windows)
    for value, error in result.errors:
        print(f"note: point {value} skipped: {error}", file=sys.stderr)
    if args.out:
        save_report(args.out, result, args.format)
        agg_path = _derived_path(args.out, "aggregate")
        save_aggregate(agg_path, result, args.format)
        print(f"report -> {args.out}, aggregate -> {agg_path}")
    else:
        from .evaluation import AGGREGATE_HEADER

        sys.stdout.write(csv_text(AGGREGATE_HEADER, aggregate_rows(result)))
    return 0


def _add_common(p, windows=True) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    if windows:
        p.add_argument("--windows", help="precomputed contact windows (skips propagation)")
    p.add_argument("--out", help="output artifact path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_eval_opts(p) -> None:
    p.add_argument("--kind", choices=KINDS, default="delay")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (falls back to ORBITSIEGE_SEED, then 0)")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--extra-m", type=int, default=0, dest="extra_m")
    p.add_argument("--noise", type=float, default=0.1,
                   help="std ratio applied to sizes, rate, and queue length")


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
    p.set_defaults(func=_cmd_plan_delay)

    p = sub.add_parser("plan-overflow", help="plan forcing the target to be dropped")
    _add_common(p)
    p.add_argument("--extra-m", type=int, default=0, dest="extra_m")
    p.set_defaults(func=_cmd_plan_overflow)

    p = sub.add_parser("verify", help="replay a strategy and judge the outcome")
    _add_common(p)
    p.add_argument("--kind", choices=KINDS, default="delay")
    p.add_argument("--slots", required=True, help="comma-separated attacked slots")
    p.add_argument("--target-slot", type=int, default=None, dest="target_slot")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("evaluate", help="Monte-Carlo trials at one configuration")
    _add_common(p)
    _add_eval_opts(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep along one axis")
    _add_common(p)
    _add_eval_opts(p)
    p.add_argument("--axis", choices=AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.set_defaults(func=_cmd_sweep)

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
