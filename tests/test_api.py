"""The package's public surface: what `orbitsiege` exports, where the rest
lives, and the README's Library example and Pipeline commands run as
written."""

import os
import re
import shlex
import shutil
import subprocess
import sys

import pytest

import orbitsiege
from bundled import bundled_path
from orbitsiege.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src")

PUBLIC = {
    "AttackContext", "ContactWindows", "EvalConfig", "attackability_for",
    "compute_contact_windows", "load_contact_windows", "load_scenario",
    "plan_attack", "plan_delay", "plan_overflow", "sweep", "verify_delay",
    "verify_overflow",
    "AttackFail", "IoError", "OrbitSiegeError", "OutOfHorizon", "ParseError",
    "StaleElements", "ValidationError",
}

# names the package exported before its surface was cut, by defining module
SUBMODULE_ONLY = {
    "attack": ("AttackStrategy",),
    "evaluation": ("AXES", "KINDS", "PointResult", "SweepResult", "derive_rng",
                   "extend_targets", "perturb"),
    "onboard": ("QueueTrace", "QueueWorld", "evolve", "per_slot_capacity"),
    "orbit": ("propagate", "save_contact_windows"),
    "scenario": ("AttackabilityRecord", "ConstellationScenario", "CostModel",
                 "DataUnit", "GroundStationSpec", "SatelliteSpec", "TargetSpec",
                 "TimeGrid", "TleElements", "save_scenario", "scenario_from_dict",
                 "scenario_to_dict"),
    "scheduler": ("Ladder", "Schedule", "attackability", "build_schedule", "hungarian"),
    "synth": ("build_constellation",),
}


def test_all_is_the_public_surface():
    assert len(orbitsiege.__all__) == len(PUBLIC) == 20
    assert set(orbitsiege.__all__) == PUBLIC


def test_star_import_binds_only_the_public_names():
    namespace = {}
    exec("from orbitsiege import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("module", sorted(SUBMODULE_ONLY))
def test_internal_names_live_in_their_submodule(module):
    names = SUBMODULE_ONLY[module]
    namespace = {}
    exec(f"from orbitsiege.{module} import {', '.join(names)}", namespace)
    assert set(names) <= set(namespace)
    assert not any(hasattr(orbitsiege, name) for name in names)


def test_readme_library_example_runs(monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["strategy"].slots
    assert len(namespace["result"].points) == 2


def readme_pipeline(workdir):
    """README's Pipeline commands as argv lists, and `workdir` set up to run
    them: a `scenarios` folder holding the bundled scenario."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    pipeline = readme.split("\n## Pipeline\n", 1)[1].split("\n## ", 1)[0]
    block = re.findall(r"^    orbitsiege (?:.*\\\n)*.*", pipeline, re.M)
    commands = [shlex.split(command.replace("\\\n", " ")) for command in block]
    assert [argv[1] for argv in commands] == ["windows", "schedule", "plan-delay", "sweep"]
    assert all(argv[0] == "orbitsiege" for argv in commands)
    os.makedirs(workdir / "scenarios")
    shutil.copy(bundled_path("constellation_24h"), workdir / "scenarios")
    return commands


def test_readme_pipeline_commands_run(monkeypatch, tmp_path):
    commands = readme_pipeline(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert os.path.getsize(argv[argv.index("--out") + 1]) > 0, argv


# one CLI step in a fresh process, SciPy made unimportable when asked; the
# last line out names the SciPy modules loaded
CLI_STEP = """\
import sys
if sys.argv.pop(1) == "block":
    sys.modules["scipy"] = None  # importing SciPy or a submodule now fails
from orbitsiege.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m, module in sys.modules.items()
                      if m.split(".")[0] == "scipy" and module is not None)))
sys.exit(code)
"""


def run_cli_step(mode, argv, cwd):
    path = os.pathsep.join(filter(None, (os.path.abspath(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", CLI_STEP, mode, *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_readme_pipeline_runs_without_scipy(monkeypatch, tmp_path):
    """The runtime needs only numpy: each README step, run where SciPy cannot
    be imported, exits as an ordinary run does and writes the same bytes, and
    an ordinary `schedule` step loads no SciPy module."""
    plain, blocked = tmp_path / "plain", tmp_path / "blocked"
    commands = readme_pipeline(plain)
    readme_pipeline(blocked)
    monkeypatch.chdir(plain)
    for argv in commands:
        out = argv[argv.index("--out") + 1]
        step = run_cli_step("block", argv[1:], blocked)
        assert step.returncode == main(argv[1:]), step.stderr
        assert (blocked / out).read_bytes() == (plain / out).read_bytes(), argv
        if argv[1] == "schedule":
            step = run_cli_step("allow", argv[1:], plain)
            assert step.returncode == 0, step.stderr
            assert step.stdout.splitlines()[-1] == ""
