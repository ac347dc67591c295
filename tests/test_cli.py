"""End-to-end command-line checks: output text, artifacts, exit codes."""

import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundled import bundled_path as bundled
from orbitsiege.attack import AttackContext
from orbitsiege.cli import main
from orbitsiege.evaluation import MAX_TRIALS
from orbitsiege.onboard import evolve, trace_events_table, trace_table
from orbitsiege.orbit import compute_contact_windows, windows_csv_text
from orbitsiege.output import table_text
from orbitsiege.scenario import load_scenario, save_scenario
from orbitsiege.scheduler import attackability_for
from orbitsiege.synth import build_constellation


@pytest.fixture()
def s0_path():
    return bundled("s0")


@pytest.fixture()
def s0_ovf_path():
    return bundled("s0_ovf")


def bundled_doc(name):
    """A bundled scenario as parsed JSON."""
    with open(bundled(name), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_delay_canonical_line(capsys, s0_path):
    code, out, err = run_cli(capsys, "plan-delay", "--scenario", s0_path)
    assert code == 0
    assert out.strip() == "strategy {2}, cost 1"
    assert err == ""


def test_plan_overflow_canonical_line(capsys, s0_ovf_path):
    code, out, err = run_cli(capsys, "plan-overflow", "--scenario", s0_ovf_path)
    assert code == 0
    assert out.strip() == "strategy {4,6}, cost 2, drop slot 6"


def test_plan_delay_keeps_working_past_a_dropped_band_member(capsys, s0_ovf_path):
    # blocking slots 2 and 4 drops init-002 at slot 4, yet init-003 still
    # downlinks at slot 6; the planner must go on and hold it back too
    code, out, _ = run_cli(capsys, "plan-delay", "--scenario", s0_ovf_path,
                           "--target-slot", "12", "--extra-m", "1")
    assert code == 0
    assert out.strip() == "strategy {2,4,6}, cost 3"
    code, out, _ = run_cli(capsys, "verify", "--scenario", s0_ovf_path,
                           "--slots", "2,4,6", "--target-slot", "12")
    assert code == 0 and json.loads(out)["ok"]


def test_plan_delay_target_slot_override(capsys, s0_path):
    code, out, _ = run_cli(capsys, "plan-delay", "--scenario", s0_path,
                           "--target-slot", "7")
    assert code == 0
    # two blocked passes leave the three-byte-deep target for slot 8
    assert out.strip() == "strategy {2,4}, cost 2"


def test_infeasible_plan_exits_one(capsys, tmp_path, s0_path):
    # leave a single attackable slot: the ladder is too short for deadline 8
    with open(s0_path) as fh:
        doc = json.load(fh)
    for row in doc["attackability"]:
        if row["slot"] != 2:
            row["attackable"] = False
            row["cost"] = None
    doc["target"]["target_downlink_slot"] = 8
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))

    code, out, err = run_cli(capsys, "plan-delay", "--scenario", str(short))
    assert code == 1
    assert out.startswith("attack infeasible:")
    assert err == ""


def test_missing_scenario_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "plan-delay", "--scenario",
                             str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("slots", ["2,x", "2,,4", "2,"])
def test_malformed_slots_exit_two(capsys, s0_path, slots):
    code, _, err = run_cli(capsys, "verify", "--scenario", s0_path,
                           "--slots", slots)
    assert code == 2
    assert "comma-separated integers" in err


def test_verify_judges_both_ways(capsys, s0_path):
    code, out, _ = run_cli(capsys, "verify", "--scenario", s0_path,
                           "--slots", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["evacuation_slot"] == 6

    code, out, _ = run_cli(capsys, "verify", "--scenario", s0_path,
                           "--slots", "")
    assert code == 1
    assert not json.loads(out)["ok"]


def test_verify_has_no_format_option(capsys, s0_path):
    # verify always writes its report as JSON
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", s0_path, "--slots", "2", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


S0 = load_scenario(bundled("s0"))
ATTACK_START, HORIZON = S0.target.attack_start_slot, S0.time.last_slot


@settings(max_examples=40, deadline=None)
@given(target_slot=st.integers(ATTACK_START - 3, HORIZON + 3))
@example(target_slot=-5)
def test_delay_deadline_rule_is_shared(target_slot):
    """plan-delay and verify refuse the same deadlines, and only those."""
    outside = not ATTACK_START < target_slot <= HORIZON
    for argv in (["plan-delay"], ["verify", "--slots", "2"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--scenario", bundled("s0"),
                         "--target-slot", str(target_slot)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        refused = "target_slot outside (attack start, horizon]" in err.getvalue()
        assert refused == outside
        if outside:
            assert code == 2


def test_verify_overflow_kind(capsys, s0_ovf_path):
    code, out, _ = run_cli(capsys, "verify", "--scenario", s0_ovf_path,
                           "--kind", "overflow", "--slots", "4,6")
    assert code == 0
    assert json.loads(out)["targets"]["init-003"]["dropped"]


def test_simulate_reports_the_target(capsys, s0_path, s0_ovf_path, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", s0_path)
    assert code == 0
    assert "init-003: evacuates at slot 4" in out

    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "simulate", "--scenario", s0_path,
                           "--slots", "2,4", "--out", str(trace_path))
    assert code == 0
    assert "init-003: evacuates at slot 8" in out
    assert trace_path.exists()
    events = tmp_path / "trace.events.csv"
    assert events.exists()
    assert events.read_text().splitlines()[0] == "slot,event,unit_id"

    code, out, _ = run_cli(capsys, "simulate", "--scenario", s0_ovf_path,
                           "--slots", "4,6", "--out", str(trace_path))
    assert code == 0
    assert "init-003: dropped at slot 6" in out
    lines = events.read_text().splitlines()
    assert len(lines) > 1
    assert "6,dropped,init-003" in lines


@pytest.mark.parametrize("name, slots", [
    ("s0", ""), ("s0", "2,4"), ("s0_ovf", ""), ("s0_ovf", "4,6"),
    ("constellation_24h", ""), ("constellation_24h", "3,4,8,16,34,35,47,53,54,60,61"),
])
def test_simulate_writes_whole_curves_and_every_event(capsys, tmp_path, name, slots):
    # the trace file has a row for every slot up to the horizon and the
    # events file logs every unit that leaves by then, targets or not
    scenario = load_scenario(bundled(name))
    ctx = AttackContext.from_scenario(scenario, attackability_for(scenario))
    attacked = frozenset(int(slot) for slot in slots.split(",") if slot)
    out = tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, "simulate", "--scenario", bundled(name),
                           *(["--slots", slots] if slots else []), "--out", str(out))
    assert code == 0 and err == ""
    whole = evolve(ctx.world, attacked, tuple(ctx.world.byte_ranges))
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(
        range(ctx.world.t0, ctx.world.horizon + 1))
    assert out.read_bytes() == table_text(*trace_table(whole, ctx.targets)).encode("utf-8")
    header, events = trace_events_table(whole)
    assert ((tmp_path / "trace.events.csv").read_bytes()
            == table_text(header, events).encode("utf-8"))
    assert {uid for _, _, uid in events} - set(ctx.targets)


def test_strategy_artifacts(capsys, s0_ovf_path, tmp_path):
    out_path = tmp_path / "plan.csv"
    code, out, _ = run_cli(capsys, "plan-overflow", "--scenario", s0_ovf_path,
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "slot,cost,motivating_unit"
    assert len(lines) == 3
    summary = json.loads((tmp_path / "plan.summary.json").read_text())
    assert summary["slots"] == [4, 6]
    assert summary["total_cost"] == 2


@contextlib.contextmanager
def umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def test_artifacts_honour_the_umask(capsys, tmp_path):
    """Every artifact the CLI writes, and a saved scenario, gets the mode a
    plain open() gives: 0644 under umask 022, 0640 under 027."""
    for mask, mode in ((0o022, 0o644), (0o027, 0o640)):
        out = tmp_path / f"{mask:o}"
        out.mkdir()
        scn, windows = str(out / "scenario.json"), str(out / "windows.csv")
        with umask(mask):
            save_scenario(load_scenario(bundled("constellation_24h")), scn)
            for argv in (["windows", "--out", windows],
                         ["schedule", "--windows", windows, "--out", str(out / "schedule.csv")],
                         ["plan-delay", "--windows", windows, "--out", str(out / "plan.csv")],
                         ["sweep", "--windows", windows, "--axis", "noise_ratio",
                          "--values", "0.1", "--trials", "2", "--out", str(out / "sweep.csv")],
                         ["simulate", "--out", str(out / "trace.csv")],
                         ["verify", "--slots", "", "--out", str(out / "verify.json")]):
                assert run_cli(capsys, argv[0], "--scenario", scn, *argv[1:])[0] in (0, 1)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
        assert modes == dict.fromkeys(
            ["scenario.json", "windows.csv", "schedule.csv", "plan.csv", "plan.summary.json",
             "sweep.csv", "sweep.aggregate.csv", "trace.csv", "trace.events.csv",
             "verify.json"], mode)


@pytest.mark.parametrize("command", ["windows", "schedule"])
@pytest.mark.parametrize("target, error", [("missing/out.csv", errno.ENOENT),
                                           ("", errno.EISDIR)], ids=["no-directory", "directory"])
def test_write_errors_name_the_destination_and_reason_only(capsys, tmp_path, command, target,
                                                           error):
    """A write that fails reports the path asked for and the OS's reason,
    the same on every run, without the temporary file's random name, and
    leaves no temporary file behind."""
    out = str(tmp_path / target) if target else str(tmp_path)
    errs = []
    for _ in range(2):
        code, printed, err = run_cli(capsys, command, "--scenario", bundled("constellation_24h"),
                                     "--out", out)
        assert code == 2 and printed == ""
        errs.append(err)
    assert errs == [f"error: cannot write {out}: {os.strerror(error)}\n"] * 2
    assert list(tmp_path.rglob("*")) == []


def test_windows_without_stations_is_empty(capsys, s0_path):
    code, out, _ = run_cli(capsys, "windows", "--scenario", s0_path)
    assert code == 0
    assert out.splitlines() == ["slot,satellite_id,station_id,elevation_deg"]


@pytest.mark.parametrize("command", [["windows"], ["schedule", "--windows", "{hand_written}"]],
                         ids=["windows", "schedule-windows"])
def test_windows_need_orbits(capsys, tmp_path, command):
    # s0 without its inline ladder and with one station: obs-1 has no orbit
    # elements, so its geometry is refused whether the windows are computed
    # or read from a hand-written file the schedule would cost
    doc = bundled_doc("s0")
    del doc["attackability"]
    doc["stations"] = [{"id": "gs-01", "latitude_deg": 10.0,
                        "longitude_deg": 20.0, "altitude_m": 0.0,
                        "antenna_count": 1, "min_elevation_deg": 5.0}]
    grounded = tmp_path / "grounded.json"
    grounded.write_text(json.dumps(doc))
    hand_written = tmp_path / "windows.csv"
    hand_written.write_text("slot,satellite_id,station_id,elevation_deg\n"
                            "0,obs-1,gs-01,45\n1,obs-1,gs-01,45\n")
    argv = [arg.format(hand_written=hand_written) for arg in command]
    code, out, err = run_cli(capsys, *argv, "--scenario", str(grounded))
    assert code == 2 and out == ""
    assert err == "error: satellite obs-1: orbit elements required\n"


def test_windows_takes_no_windows_option(capsys, s0_path, tmp_path):
    # `windows` always computes its windows, so it has no file to read
    with pytest.raises(SystemExit) as exc:
        main(["windows", "--scenario", s0_path, "--windows",
              str(tmp_path / "missing.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --windows" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["windows", "--help"])
    assert exc.value.code == 0
    assert "--windows" not in capsys.readouterr().out


def test_windows_and_schedule_pipeline(capsys, tmp_path):
    scenario = build_constellation(n_low=1, n_high=2, n_stations=2, slot_seconds=3600)
    scn = tmp_path / "constellation.json"
    save_scenario(scenario, str(scn))

    win_path = tmp_path / "windows.csv"
    code, out, _ = run_cli(capsys, "windows", "--scenario", str(scn),
                           "--out", str(win_path))
    assert code == 0
    assert "contact windows ->" in out

    table_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "schedule", "--scenario", str(scn),
                           "--windows", str(win_path), "--out", str(table_path))
    assert code == 0
    lines = table_path.read_text().strip().splitlines()
    assert lines[0] == "slot,transmissible,attackable,required_high,cost"
    assert len(lines) == scenario.time.horizon_slots + 1

    # the CLI route must agree with the library route
    records = attackability_for(load_scenario(str(scn)))
    expect = [f"{r.slot},{int(r.transmissible)},{int(r.attackable)},"
              f"{r.required_high_priority},{r.cost:g}" for r in records]
    assert lines[1:] == expect


# SHA-256 of `windows --out` and of `schedule --windows ... --out`, recorded
# while schedules still covered every slot and slant ranges came from a
# scalar propagator; the geometry arithmetic must keep these bytes. Each
# synthetic world is `build_constellation` at a seed with these arguments;
# the last one is the benchmark's 1440-slot world, recorded while
# `hungarian` still pinned the lexicographically smallest optimum
WORLD = dict(n_low=20, n_high=60, n_stations=40)
GEOMETRY_1440 = dict(WORLD, slot_seconds=60, target_downlink_slot=300)
GOLDEN_GEOMETRY = [
    (None, None, "142f98837049587696bcb4fd80f73126a838ed165c8e6779b048d44c037c61f0",
     "5cefeddd32d69a53a245c7463cdfa8e84c4995b84093fbc52b4b51139f6cb90a"),
    (1, WORLD, "24dcd0b69dcb8551798016d5e3c2ce939ce85c72e491a5c9a5fc94bdf96a5cc8",
     "cadd45ff95d9810b9b90caaea58d549a3e2291eaddd14fd3c6f3704b439eee74"),
    (2, WORLD, "0635cd57bdfc03dc61baf43dfc684eb730016fac1040961543a2a73e8e152938",
     "655d13ea5b0050eaaa1bf08b4cb467634770c82e4f71edced3675dd7286eb175"),
    (3, WORLD, "6d3d4e56294fd59015cc6c43a303f27fea5de97bd08b17f9fcf9ab9b2d88ce93",
     "0ea118c87cb47a99c7cb9eef84a3d837b2591452d997762c6c59283b5b923d25"),
    (1, GEOMETRY_1440,
     "7fcb023ce666a7355fcbc9b0ddc282240eaed39846c5fb261672fb4522a09483",
     "72ebf77b50acaaeefdff582b04f1058cdcb4ae7f32dc39c197e54f85beb330d7"),
]


@pytest.mark.parametrize("seed, build, windows_digest, schedule_digest", GOLDEN_GEOMETRY,
                         ids=["constellation_24h", "seed1", "seed2", "seed3",
                              "geometry_1440"])
def test_geometry_matches_golden_digests(capsys, tmp_path, seed, build, windows_digest,
                                         schedule_digest):
    """The bundled 24 h scenario (seed None) and four synthetic worlds."""
    if seed is None:
        scn = bundled("constellation_24h")
    else:
        scn = str(tmp_path / "world.json")
        save_scenario(build_constellation(seed=seed, **build), scn)
    windows, table = tmp_path / "windows.csv", tmp_path / "table.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    assert run_cli(capsys, "schedule", "--scenario", scn, "--windows", str(windows),
                   "--out", str(table))[0] == 0
    assert hashlib.sha256(windows.read_bytes()).hexdigest() == windows_digest
    assert hashlib.sha256(table.read_bytes()).hexdigest() == schedule_digest


@pytest.mark.parametrize("column, value", [(0, "x"), (3, "nan"), (3, "400")])
def test_bad_window_numbers_exit_two(capsys, tmp_path, column, value):
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    lines = windows.read_text().splitlines()
    row = lines[1].split(",")
    row[column] = value
    lines[1] = ",".join(row)
    windows.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "schedule", "--scenario", scn,
                             "--windows", str(windows))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "windows.csv:2:" in err


@pytest.mark.parametrize("edit", ["swap", "repeat"])
def test_window_rows_out_of_order_exit_two(capsys, tmp_path, edit):
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    lines = windows.read_text().splitlines()
    if edit == "repeat":
        lines.insert(4, lines[3])  # line 5 is line 4 again
    else:
        lines[3], lines[4] = lines[4], lines[3]  # lines 4 and 5 swapped
    windows.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "schedule", "--scenario", scn,
                             "--windows", str(windows))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "windows.csv:5: row not after the row before it" in err


def test_json_windows_file_exits_two(capsys, tmp_path):
    # `windows --format json` writes a file `--windows` cannot read
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.json"
    assert run_cli(capsys, "windows", "--scenario", scn, "--format", "json",
                   "--out", str(windows))[0] == 0
    code, out, err = run_cli(capsys, "schedule", "--scenario", scn,
                             "--windows", str(windows))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--windows reads only the CSV form" in err


def test_window_id_cell_of_200_000_bytes_exits_two(capsys, tmp_path):
    # longer than any scenario id, so it is none of them
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    lines = windows.read_text().splitlines()
    row = lines[3].split(",")
    row[1] = "x" * 200_000
    lines[3] = ",".join(row)
    windows.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "schedule", "--scenario", scn,
                             "--windows", str(windows))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "windows.csv:4: unknown satellite xxx" in err


def test_windows_that_are_not_utf8_exit_two(capsys, tmp_path):
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    lines = windows.read_bytes().splitlines()
    row = lines[1].split(b",")
    row[3] = b"\xff\xfe"
    lines[1] = b",".join(row)
    windows.write_bytes(b"\n".join(lines) + b"\n")
    code, out, err = run_cli(capsys, "schedule", "--scenario", scn,
                             "--windows", str(windows))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "windows.csv" in err


def test_scenario_that_is_not_utf8_exits_two(capsys, tmp_path):
    path = tmp_path / "s0.json"
    with open(bundled("s0"), "rb") as fh:
        text = fh.read()
    path.write_bytes(text.replace(b'"obs-1"', b'"obs-\xff"', 1))
    code, out, err = run_cli(capsys, "plan-delay", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "s0.json" in err


def test_deeply_nested_scenario_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


TRACE_HEADER = b"unit_id,satellite_id,capture_iso8601,size_bytes"


def s0_trace_rows():
    """s0's arrivals as trace CSV cells (s0 has one-second slots)."""
    return [[u.unit_id.encode(), u.satellite_id.encode(),
             f"2026-01-01T00:00:{u.capture_slot:02d}Z".encode(), str(u.size_bytes).encode()]
            for u in S0.trace]


def s0_with_trace_csv(directory, data: bytes) -> str:
    """s0 reading its arrivals from a trace CSV holding data; the
    scenario's path."""
    obj = bundled_doc("s0")
    obj["trace"] = "trace.csv"
    (directory / "trace.csv").write_bytes(data)
    path = directory / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_trace_csv_size_that_is_not_a_number_exits_two(capsys, tmp_path):
    path = s0_with_trace_csv(tmp_path, TRACE_HEADER + b"\narr-001,obs-1,2026-01-01T00:00:01Z,x\n")
    code, out, err = run_cli(capsys, "plan-delay", "--scenario", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "trace.csv:2: size_bytes" in err


def test_trace_cell_past_the_csv_field_limit_exits_two(capsys, tmp_path):
    rows = [b",".join(row) for row in s0_trace_rows()]
    rows[2] = b'"' + b"x" * 200_000 + b'"' + rows[2][len(b"arr-003"):]
    path = s0_with_trace_csv(tmp_path, b"\n".join([TRACE_HEADER, *rows, b""]))
    code, out, err = run_cli(capsys, "simulate", "--scenario", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "trace.csv:4: field larger than field limit" in err


# cells a mutated trace row may hold: huge, NUL, non-UTF-8, bad numbers,
# timestamps outside the horizon (some only in UTC), and None for a cell
# taken out of the row
TRACE_CELLS = st.one_of(
    st.sampled_from([None, b"", b"x" * 200_000, b"a\x00b", b"\x00", b"\xff\xfe", b"-1", b"0",
                     b"1.5", b"9" * 30, b"9" * 5000, b"2025-12-31T23:59:59Z",
                     b"2026-01-01T00:00:13Z", b"0001-01-01T00:00:00+23:59",
                     b"9999-12-31T23:59:59-23:59"]),
    st.binary(max_size=6))


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 4), TRACE_CELLS,
                                st.booleans()), max_size=3),
       newline=st.sampled_from([b"\n", b"\r\n"]))
@example(edits=[(0, 0, b"x" * 200_000, True)], newline=b"\n")
@example(edits=[(3, 2, b"0001-01-01T00:00:00+23:59", False)], newline=b"\r\n")
def test_mutated_trace_csv_exits_zero_or_two(tmp_path_factory, edits, newline):
    """A trace CSV with cells replaced (quoted or not), removed or added
    either loads or is refused with exit code 2 and an error message."""
    rows = s0_trace_rows()
    quoted = set()
    for row, column, cell, quote in edits:
        cells = rows[row]
        if cell is None:
            del cells[column:column + 1]
        elif column < len(cells):
            cells[column] = cell
        else:
            cells.append(cell)
        if quote and cell is not None:
            quoted.add((row, min(column, len(cells) - 1)))
    lines = [TRACE_HEADER]
    for r, cells in enumerate(rows):
        lines.append(b",".join(b'"' + c.replace(b'"', b'""') + b'"' if (r, k) in quoted else c
                               for k, c in enumerate(cells)))
    path = s0_with_trace_csv(tmp_path_factory.mktemp("trace"), newline.join([*lines, b""]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--scenario", path])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""


# s0 with an orbit and a station added, so that their fields can be broken
# too; its inline attackability means neither is ever propagated
ORBIT = {"inclination_deg": 97.6, "raan_deg": 40.0, "mean_anomaly_deg": 0.0,
         "mean_motion_rev_per_day": 14.9, "epoch": "2026-01-01T00:00:00Z"}
STATION = {"id": "gs-01", "latitude_deg": 10.0, "longitude_deg": 20.0, "altitude_m": 0.0}

MALFORMED = [
    (("satellites",), "5"),
    (("stations",), "3"),
    (("time",), "null"),
    (("target",), "[1]"),
    (("trace",), "[1, 2]"),
    (("attackability",), "[5]"),
    (("attackability", 2, "attackable"), '"false"'),
    (("time", "horizon_slots"), '"x"'),
    (("seed",), '"x"'),
    (("satellites", 0, "initial_queue", "unit_sizes"), '["a"]'),
    (("satellites", 0, "capacity_bytes"), "1e400"),
    (("satellites", 0, "orbit", "raan_deg"), "NaN"),
    (("stations", 0, "altitude_m"), "NaN"),
    (("target", "cost_budget"), "NaN"),
    (("costs", "unit_task_price"), "NaN"),
    (("satellites", 0, "id"), "5"),
    (("satellites", 0, "priority"), "null"),
    (("stations", 0, "id"), "[1]"),
    (("trace", 0, "unit_id"), '{"a": 1}'),
    (("trace", 0, "satellite_id"), "1"),
    (("target", "satellite_id"), "true"),
    (("target", "target_unit_ids", 0), "3"),
]


@pytest.mark.parametrize("path, raw", MALFORMED,
                         ids=[".".join(map(str, p)) + "=" + raw for p, raw in MALFORMED])
def test_malformed_scenario_fields_exit_two(capsys, tmp_path, path, raw):
    doc = bundled_doc("s0")
    doc["satellites"][0]["orbit"] = dict(ORBIT)
    doc["stations"] = [dict(STATION)]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(capsys, "plan-delay", "--scenario", str(good))[0] == 0

    node = doc
    for key in path[:-1]:
        node = node[key]
    # the raw JSON text replaces a placeholder, so 1e400 and NaN stay literal
    node[path[-1]] = "@RAW@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@RAW@"', raw), encoding="utf-8")
    code, out, err = run_cli(capsys, "plan-delay", "--scenario", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def field_paths(node, path=()):
    """The key and index paths of every field below node; of a list, only
    its first and last members."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(i, node[i]) for i in sorted({0, len(node) - 1})] if node else []
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from field_paths(child, (*path, key))


FUZZED = {name: bundled_doc(name) for name in ("s0", "s0_ovf", "constellation_24h")}
FUZZED_FIELDS = {name: list(field_paths(doc)) for name, doc in FUZZED.items()}

REMOVED = object()  # the key or list member is taken out
# wrong types, then huge, negative, zero, fractional and non-finite numbers
FIELD_VALUES = st.sampled_from([
    REMOVED, "x", [], {}, None, True, [1],
    10**12, 10**30, 10**400, -1, -10**12, 0, 0.5, 1e308, -1e308,
    math.nan, math.inf, -math.inf])


def mutated(name, edits):
    """The bundled scenario with each (path, value) edit applied in turn; an
    edit whose path an earlier edit took away is skipped."""
    doc = copy.deepcopy(FUZZED[name])
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if value is REMOVED:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


@st.composite
def scenario_edits(draw):
    name = draw(st.sampled_from(sorted(FUZZED)))
    return name, draw(st.lists(st.tuples(st.sampled_from(FUZZED_FIELDS[name]), FIELD_VALUES),
                               min_size=1, max_size=2))


def assert_exit_code_contract(argv):
    """Run the CLI in-process: it exits 0, 1 or 2 and prints no traceback;
    1 only for an infeasible attack or a verify report that is not ok, 2
    only with an error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1 and argv[0] == "verify":
        assert json.loads(out.getvalue())["ok"] is False
    elif code == 1:
        assert out.getvalue().startswith("attack infeasible:")
    if code == 2:
        assert err.getvalue().startswith("error:")


# each command that reads a scenario, with the options it needs
FUZZED_COMMANDS = {
    "simulate": [], "plan-delay": [], "plan-overflow": [],
    "sweep": ["--axis", "extra_M", "--values", "0", "--trials", "4"],
    "verify": ["--slots", "3,4"],
}


@settings(max_examples=300, deadline=None)
@given(case=scenario_edits(), command=st.sampled_from(sorted(FUZZED_COMMANDS)))
@example(case=("constellation_24h", [(("stations", 0, "antenna_count"), 10**12)]),
         command="simulate")
@example(case=("constellation_24h", [(("stations", 11, "antenna_count"), 1e308)]),
         command="plan-delay")
@example(case=("constellation_24h", [(("stations", 0, "altitude_m"), 1e308)]),
         command="simulate")
@example(case=("constellation_24h", [(("satellites", 0, "orbit", "mean_motion_rev_per_day"),
                                      1e308)]),
         command="plan-overflow")
@example(case=("s0", [(("satellites", 0, "downlink_rate_bps"), 10**400)]), command="sweep")
@example(case=("constellation_24h", [(("satellites", 0, "initial_queue", "unit_sizes", 0),
                                      10**400)]),
         command="sweep")
def test_mutated_scenario_fields_keep_the_exit_code_contract(tmp_path_factory, case, command):
    """A scenario with fields removed or replaced by wrong types and extreme
    numbers runs, is found infeasible or fails verification, or is refused
    with exit code 2."""
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(mutated(*case)), encoding="utf-8")
    assert_exit_code_contract([command, "--scenario", str(path), *FUZZED_COMMANDS[command]])


def test_scenario_id_the_windows_csv_cannot_hold_exits_two(capsys, tmp_path):
    """An id with a comma, which the windows CSV would write as it is, is
    refused by name with exit code 2 (test_scenario checks the quote, CR
    and LF)."""
    doc = bundled_doc("constellation_24h")
    sid = doc["satellites"][1]["id"] = "obs,1"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["windows", "--scenario", str(path)]
    assert_exit_code_contract(argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(sid) in err


# the rows of constellation_24h's windows CSV, as `windows --out` writes them
WINDOW_LINES = windows_csv_text(compute_contact_windows(
    load_scenario(bundled("constellation_24h")))).splitlines()
# wrong types, huge, negative and non-finite numbers, an unknown id, and
# cells that break the row's shape or its quoting
WINDOW_CELLS = st.sampled_from([
    "x", "", "1.5", "9" * 30, "-9" + "9" * 30, "-1", "-45", "1e308", "-1e308", "1e400",
    "nan", "inf", "-inf", "ghost", "a,b", '"'])
ROW = st.integers(0, len(WINDOW_LINES) - 2)
# (what, row, other row, column, cell): a cell replaced, a row removed,
# duplicated to another place, or swapped with another row
WINDOW_EDITS = st.lists(st.tuples(st.sampled_from(["cell", "remove", "duplicate", "swap"]),
                                  ROW, ROW, st.integers(0, 3), WINDOW_CELLS),
                        min_size=1, max_size=3)


def mutated_windows(edits):
    """The windows CSV with each edit applied in turn."""
    rows = WINDOW_LINES[1:]
    for what, i, j, column, cell in edits:
        i, j = i % len(rows), j % len(rows)
        if what == "cell":
            cells = rows[i].split(",")
            cells[column] = cell
            rows[i] = ",".join(cells)
        elif what == "remove":
            del rows[i]
        elif what == "duplicate":
            rows.insert(j, rows[i])
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return "\n".join([WINDOW_LINES[0], *rows, ""])


@settings(max_examples=100, deadline=None)
@given(edits=WINDOW_EDITS, command=st.sampled_from(["schedule", *sorted(FUZZED_COMMANDS)]))
def test_mutated_window_rows_keep_the_exit_code_contract(tmp_path_factory, edits, command):
    """A windows file with cells replaced or rows removed, duplicated or
    swapped is read, or refused with exit code 2."""
    path = tmp_path_factory.mktemp("windows") / "windows.csv"
    path.write_text(mutated_windows(edits), encoding="utf-8")
    assert_exit_code_contract([command, "--scenario", bundled("constellation_24h"),
                               "--windows", str(path), *FUZZED_COMMANDS.get(command, [])])


# time grids that once broke the exit-code contract: the first hung
# plan-delay, the other two raised OverflowError at a slot midpoint
GRID_PROBES = [
    ("s0", "plan-delay", {"horizon_slots": 10**12}),
    ("constellation_24h", "windows", {"horizon_slots": 10**9}),
    ("constellation_24h", "plan-overflow", {"horizon_slots": 2, "slot_seconds": 10**15}),
]


@pytest.mark.parametrize("name, command, grid", GRID_PROBES,
                         ids=[f"{name}-{command}" for name, command, _ in GRID_PROBES])
def test_unbounded_time_grid_exits_two(capsys, tmp_path, name, command, grid):
    doc = bundled_doc(name)
    doc["time"].update(grid)
    # units and deadline stay inside the grid, so that only the grid is at fault
    horizon = grid["horizon_slots"]
    doc["trace"] = [u for u in doc["trace"] if u["capture_slot"] < horizon]
    if (doc["target"]["target_downlink_slot"] or 0) >= horizon:
        doc["target"]["target_downlink_slot"] = None
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: time.") and "Traceback" not in err


WINDOWS_PARITY = [
    ["simulate", "--slots", "3,4"],
    ["plan-delay"],
    ["plan-overflow", "--extra-m", "2"],
    ["verify", "--slots", "3,4,8"],
    ["sweep", "--axis", "n_high", "--values", "2,20", "--trials", "10"],
]


@pytest.mark.parametrize("argv", WINDOWS_PARITY, ids=lambda argv: argv[0])
def test_precomputed_windows_change_nothing(capsys, tmp_path, argv):
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    runs = []
    for tag, extra in (("computed", []), ("loaded", ["--windows", str(windows)])):
        folder = tmp_path / tag
        folder.mkdir()
        code, out, err = run_cli(capsys, argv[0], "--scenario", scn, *extra, *argv[1:],
                                 "--out", str(folder / "artifact.csv"))
        files = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
        runs.append((code, out.replace(str(folder), "<out>"), err, files))
    assert runs[0] == runs[1]
    assert runs[0][1]


@pytest.mark.parametrize("command, name, options, written", [
    pytest.param("windows", "constellation_24h", [], "artifact.csv",
                 id="windows-constellation_24h"),
    pytest.param("schedule", "s0", [], "artifact.csv", id="schedule-s0"),
    pytest.param("schedule", "constellation_24h", [], "artifact.csv",
                 id="schedule-constellation_24h"),
    pytest.param("windows", "constellation_24h", ["--format", "json"], "artifact.csv",
                 id="windows-json"),
    pytest.param("schedule", "s0", ["--format", "json"], "artifact.csv", id="schedule-json"),
    pytest.param("sweep", "s0", ["--axis", "budget", "--values", "0.5,1", "--trials", "4",
                                 "--noise", "0.2", "--format", "json"],
                 "artifact.aggregate.csv", id="sweep-json"),
])
def test_stdout_mode_prints_the_artifact(capsys, tmp_path, command, name, options, written):
    # without --out, standard output holds the bytes --out writes (for
    # sweep, the aggregate), in the format --format names
    argv = [command, "--scenario", bundled(name), *options]
    code, printed, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "artifact.csv"))[0] == 0
    assert printed.encode("utf-8") == (tmp_path / written).read_bytes()


def test_sweep_is_byte_identical(capsys, s0_path, tmp_path):
    args = ["sweep", "--scenario", s0_path, "--kind", "delay",
            "--axis", "budget", "--values", "0.5,1", "--trials", "6",
            "--noise", "0", "--seed", "4"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.aggregate.csv").read_bytes() == \
        (tmp_path / "b.aggregate.csv").read_bytes()


# SHA-256 of sweep artifacts recorded before the trial loop stopped
# rebuilding the scenario per trial; both sweeps mix successes, failures
# and natural outcomes, and noise 0.6 on 30 head units makes the queue
# shift insert and remove head units and hit the truncation floor
GOLDEN_SWEEPS = [
    ("s0_ovf", ["--kind", "overflow", "--axis", "noise_ratio", "--values", "0.05,0.15",
                "--trials", "40"], {
        "ovf.csv": "a3af31a3d953689d0fb189bd4859cc6d9a0e49bb9e57f6e2594cd260ff594486",
        "ovf.aggregate.csv":
            "6273b54076c900d3e272fb3ad755e80ff81ca8972ec0da66c22f161df4087338",
    }),
    ("constellation_24h", ["--kind", "delay", "--axis", "noise_ratio",
                           "--values", "0.1,0.6", "--trials", "20"], {
        "c24.csv": "a0b7ff49c57bdf8d7841e970cb290b4f6a3b76b3e1422b7a57855a7e12a906f3",
        "c24.aggregate.csv":
            "e4fddbdd0f5c3342f5b390444d919249c480671c499806d9dd63c651ea87d2bc",
    }),
    ("constellation_24h", ["--kind", "delay", "--axis", "n_high", "--values", "2,6,20",
                           "--trials", "20"], {
        "high.csv": "2632318a9ee956d547ef4f266c14994a5182b713274e0d9c6e3aeee4453aa173",
        "high.aggregate.csv":
            "14f2d626a0c05f1d4e97e58e0a2fc23135ddef3fcf4f1a42c33a3ce4dc4647d6",
    }),
    ("constellation_24h", ["--kind", "delay", "--axis", "target_duration",
                           "--values", "1,3", "--trials", "20"], {
        "duration.csv": "8969ea0c62d86aa7b5cc35d5f44d62ae7d05c3cc0430e3aaeb0e13ca7cef9c45",
        "duration.aggregate.csv":
            "68fe47f28908d3f65d077141854f276e3f938c73e8113e9505e004a41f167255",
    }),
    ("constellation_24h", ["--kind", "delay", "--axis", "data_rate",
                           "--values", "60000000,80000000", "--trials", "20"], {
        "rate.csv": "a0f70fd4244f8f4543d525703bb8b1b1a099c82c1302b2bde00995d5ebd7aea9",
        "rate.aggregate.csv":
            "dad4ec64d48cd008f907fa78fcf5968e0ddefb4767926be102eedef56801d9a6",
    }),
    ("constellation_24h", ["--kind", "delay", "--axis", "image_size",
                           "--values", "400000000,600000000", "--trials", "20"], {
        "size.csv": "94694e5d22cdb270dbd43c809e715a3729139440164ed9f568716be9622cf110",
        "size.aggregate.csv":
            "69d2757c736b3a2cb486acfc36767220a324a173b082baac1615a3c807f7ae39",
    }),
    ("s0_ovf", ["--kind", "overflow", "--axis", "extra_M", "--values", "0,2",
                "--trials", "40", "--noise", "0.15"], {
        "widen.csv": "394c415be350638240bc4b43ab4e90e8b8a06c7717bec21ae5b5e6a3b0cd4e6d",
        "widen.aggregate.csv":
            "dd962ad305749be93268f54bd04ddd07293d738e3242d3c93a09c8b64b6187f6",
    }),
    # the reports of the former `evaluate --extra-m M`, which was this
    # one-point sweep
    ("s0_ovf", ["--kind", "overflow", "--axis", "extra_M", "--values", "2",
                "--trials", "40", "--noise", "0.15"], {
        "point.csv": "d98d8476c1e8289df64ef02257ffa7d22632d98b621460a3534034b7f882f243",
    }),
    ("constellation_24h", ["--kind", "delay", "--axis", "extra_M", "--values", "0",
                           "--trials", "50", "--noise", "0.3", "--seed", "3"], {
        "point.csv": "423951c194c2d98eb7b36a8b5043cc5bfbb05a9077e6e5e4a6090149f9140fc7",
    }),
]


@pytest.mark.parametrize("name, opts, digests", GOLDEN_SWEEPS)
def test_sweep_matches_golden_digests(capsys, tmp_path, name, opts, digests):
    out = tmp_path / next(iter(digests))
    code, _, err = run_cli(capsys, "sweep", "--scenario", bundled(name), "--seed", "7",
                           *opts, "--out", str(out))
    assert code == 0 and err == ""
    got = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
           for file in digests}
    assert got == digests


def test_sweep_stdout_mode_prints_aggregate(capsys, s0_path):
    code, out, _ = run_cli(capsys, "sweep", "--scenario", s0_path,
                           "--axis", "budget", "--values", "1",
                           "--trials", "4", "--noise", "0")
    assert code == 0
    assert out.splitlines()[0] == "axis,value,q1,median,q3,min,max,success_ratio"


def test_sweep_reports_skipped_points_on_stderr(capsys, s0_path):
    code, _, err = run_cli(capsys, "sweep", "--scenario", s0_path,
                           "--axis", "n_high", "--values", "0,5",
                           "--trials", "4", "--noise", "0")
    assert code == 0
    assert "note: point 5 skipped" in err


@pytest.mark.parametrize("command", ["plan-delay", "plan-overflow"])
def test_negative_extra_m_exits_two(capsys, s0_path, command):
    code, out, err = run_cli(capsys, command, "--scenario", s0_path, "--extra-m", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: extra_m must be >= 0\n"


@pytest.mark.parametrize("command", ["sweep"])
@pytest.mark.parametrize("budget, error", [("-1", "must be >= 0"), ("nan", "must be finite")])
def test_bad_budget_exits_two(capsys, s0_path, command, budget, error):
    code, out, err = run_cli(capsys, command, "--scenario", s0_path, "--axis", "noise_ratio",
                             "--values", "0.1", "--trials", "2", "--budget", budget)
    assert code == 2
    assert out == ""
    assert err == f"error: cost_budget: {error}\n"


def test_sweep_refuses_more_trials_than_its_bound(capsys, s0_path, tmp_path):
    # refused while the config is read, before any trial key is built
    out = tmp_path / "r.csv"
    code, printed, err = run_cli(capsys, "sweep", "--scenario", s0_path, "--axis",
                                 "noise_ratio", "--values", "0.1", "--trials",
                                 str(MAX_TRIALS + 1), "--out", str(out))
    assert (code, printed) == (2, "")
    assert err == f"error: trials must be <= {MAX_TRIALS}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_seed_defaults_to_zero(capsys, s0_path, tmp_path):
    def report(name, *seed):
        out = tmp_path / name
        assert run_cli(capsys, "sweep", "--scenario", s0_path, "--axis", "extra_M",
                       "--values", "0", "--trials", "8", "--noise", "0.2", *seed,
                       "--out", str(out))[0] == 0
        return out.read_bytes()

    unseeded = report("a.csv")
    assert report("b.csv", "--seed", "0") == unseeded
    assert report("c.csv", "--seed", "77") != unseeded


def test_sweep_with_no_point_run_exits_two(capsys, s0_path, tmp_path):
    out = tmp_path / "r.csv"
    code, printed, err = run_cli(capsys, "sweep", "--scenario", s0_path, "--axis", "n_high",
                                 "--values", "5,7", "--trials", "4", "--out", str(out))
    assert code == 2 and printed == ""
    assert err == "error: n_high 5 outside [0, 0]\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("values, error", [("0.1,,0.2", "--values has an empty entry"),
                                           ("0.1,x", "--values entry is not a number: 'x'")])
def test_malformed_values_exit_two(capsys, s0_path, values, error):
    code, out, err = run_cli(capsys, "sweep", "--scenario", s0_path, "--axis", "noise_ratio",
                             "--values", values, "--trials", "2")
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("world, axis, values, error", [
    ("s0", "image_size", "0,-1", "image_size must be >= 1 byte"),
    ("s0", "data_rate", "0", "data_rate must be >= 1 bit/s"),
    ("s0", "target_duration", "0,-0.5", "target_duration must be positive hours"),
    ("silent", "target_duration", "0.001,1",
     "target never downlinks naturally; no deadline anchor"),
])
def test_sweep_whose_every_point_is_refused_exits_two(capsys, tmp_path, world, axis, values,
                                                      error):
    # "silent" is s0 without a transmissible slot, so the target never
    # leaves and a duration has no natural evacuation to count from
    doc = bundled_doc("s0")
    if world == "silent":
        for row in doc["attackability"]:
            row.update(transmissible=False, attackable=False, cost=None)
    path, out = tmp_path / "scenario.json", tmp_path / "r.csv"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, printed, err = run_cli(capsys, "sweep", "--scenario", str(path), "--axis", axis,
                                 "--values", values, "--trials", "4", "--out", str(out))
    assert (code, printed, err) == (2, "", f"error: {error}\n")
    assert not out.exists()


def test_n_high_that_drops_satellites_on_an_inline_ladder_is_skipped(capsys, tmp_path):
    scenario = load_scenario(bundled("constellation_24h"))
    inline = tmp_path / "inline.json"
    save_scenario(replace(scenario, attackability=tuple(attackability_for(scenario))),
                  str(inline))
    error = "n_high 0 drops high-priority satellites, which an inline attackability " \
            "ladder does not depend on"
    code, printed, err = run_cli(capsys, "sweep", "--scenario", str(inline), "--axis",
                                 "n_high", "--values", "20,0", "--trials", "4")
    assert code == 0 and printed.count("\nn_high,20,") == 1
    assert err == f"note: point 0 skipped: {error}\n"
    code, printed, err = run_cli(capsys, "sweep", "--scenario", str(inline), "--axis",
                                 "n_high", "--values", "0", "--trials", "4")
    assert (code, printed, err) == (2, "", f"error: {error}\n")


def test_json_format_artifacts(capsys, s0_path, tmp_path):
    out_path = tmp_path / "plan.json"
    code, _, _ = run_cli(capsys, "plan-delay", "--scenario", s0_path,
                         "--out", str(out_path), "--format", "json")
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert rows == [{"slot": 2, "cost": 1.0, "motivating_unit": "init-003"}]


def test_console_script_is_installed(s0_path):
    exe = shutil.which("orbitsiege")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "plan-delay", "--scenario", s0_path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "strategy {2}, cost 1"
