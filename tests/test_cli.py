"""End-to-end command-line checks: output text, artifacts, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess

import pytest

from orbitsiege.cli import main
from orbitsiege.scenario import load_scenario, save_scenario
from orbitsiege.scheduler import attackability_for
from orbitsiege.synth import build_constellation, build_s0, build_s0_ovf


@pytest.fixture()
def s0_path(tmp_path):
    path = tmp_path / "s0.json"
    save_scenario(build_s0(), str(path))
    return str(path)


@pytest.fixture()
def s0_ovf_path(tmp_path):
    path = tmp_path / "s0_ovf.json"
    save_scenario(build_s0_ovf(), str(path))
    return str(path)


SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def bundled(name):
    return os.path.join(SCENARIOS, f"{name}.json")


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


def test_malformed_slots_exit_two(capsys, s0_path):
    code, _, err = run_cli(capsys, "verify", "--scenario", s0_path,
                           "--slots", "2,x")
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


def test_windows_without_stations_is_empty(capsys, s0_path):
    code, out, _ = run_cli(capsys, "windows", "--scenario", s0_path)
    assert code == 0
    assert out.splitlines() == ["slot,satellite_id,station_id,elevation_deg"]


def test_windows_need_orbits(capsys, tmp_path, s0_path):
    with open(s0_path) as fh:
        doc = json.load(fh)
    doc["stations"] = [{"id": "gs-01", "latitude_deg": 10.0,
                        "longitude_deg": 20.0, "altitude_m": 0.0,
                        "antenna_count": 1, "min_elevation_deg": 5.0}]
    grounded = tmp_path / "grounded.json"
    grounded.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "windows", "--scenario", str(grounded))
    assert code == 2
    assert "orbit elements required" in err


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
    scenario = build_constellation(n_low=1, n_high=2, n_stations=2, hours=2)
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


def test_window_cell_past_the_csv_field_limit_exits_two(capsys, tmp_path):
    # csv.reader refuses a cell longer than its field limit (128 KiB)
    scn = bundled("constellation_24h")
    windows = tmp_path / "windows.csv"
    assert run_cli(capsys, "windows", "--scenario", scn, "--out", str(windows))[0] == 0
    lines = windows.read_text().splitlines()
    row = lines[3].split(",")
    row[1] = '"' + "x" * 200_000 + '"'
    lines[3] = ",".join(row)
    windows.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "schedule", "--scenario", scn,
                             "--windows", str(windows))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "windows.csv:4: field larger than field limit" in err


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


def test_trace_csv_size_that_is_not_a_number_exits_two(capsys, tmp_path):
    with open(bundled("s0"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["trace"] = "trace.csv"
    (tmp_path / "trace.csv").write_text(
        "unit_id,satellite_id,capture_iso8601,size_bytes\n"
        "arr-001,obs-1,2026-01-01T00:00:01Z,x\n", encoding="utf-8")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, "plan-delay", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "trace.csv:2: size_bytes" in err


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
]


@pytest.mark.parametrize("path, raw", MALFORMED,
                         ids=[".".join(map(str, p)) + "=" + raw for p, raw in MALFORMED])
def test_malformed_scenario_fields_exit_two(capsys, tmp_path, path, raw):
    with open(bundled("s0"), encoding="utf-8") as fh:
        doc = json.load(fh)
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


@pytest.mark.parametrize("command, name", [("windows", "constellation_24h"),
                                           ("schedule", "s0"),
                                           ("schedule", "constellation_24h")])
def test_stdout_mode_prints_the_artifact(capsys, tmp_path, command, name):
    code, printed, err = run_cli(capsys, command, "--scenario", bundled(name))
    assert code == 0 and err == ""
    out = tmp_path / "artifact.csv"
    assert run_cli(capsys, command, "--scenario", bundled(name),
                   "--out", str(out))[0] == 0
    assert printed.encode("utf-8") == out.read_bytes()


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
]


@pytest.mark.parametrize("name, opts, digests", GOLDEN_SWEEPS)
def test_sweep_matches_golden_digests(capsys, tmp_path, name, opts, digests):
    out = tmp_path / next(iter(digests))
    code, _, err = run_cli(capsys, "sweep", "--scenario", bundled(name), *opts,
                           "--seed", "7", "--out", str(out))
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


def test_evaluate_reads_seed_from_environment(capsys, s0_path, monkeypatch):
    args = ["evaluate", "--scenario", s0_path, "--trials", "8",
            "--noise", "0.2"]
    code, flagged, _ = run_cli(capsys, *args, "--seed", "77")
    assert code == 0

    monkeypatch.setenv("ORBITSIEGE_SEED", "77")
    code, from_env, _ = run_cli(capsys, *args)
    assert code == 0
    assert from_env == flagged

    monkeypatch.setenv("ORBITSIEGE_SEED", "seven")
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "ORBITSIEGE_SEED" in err


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
