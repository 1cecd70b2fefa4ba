"""Every report of the golden corpus (tests/golden/), regenerated byte for byte.

A refactor that claims identical reports is checked here; a change that moves
a report on purpose re-records the corpus (python tests/golden/record.py) and
lists every moved value in CHANGES.md.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "_golden_record", os.path.join(_HERE, "golden", "record.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_ENTRIES = golden.load_index()


@pytest.mark.parametrize("entry", _ENTRIES, ids=[e["command"] for e in _ENTRIES])
def test_report_is_byte_identical_to_the_corpus(entry):
    code, report = golden.run(entry["command"], "json")
    _, table = golden.run(entry["command"], "table")
    moved = golden.differences(entry, code, report, table)
    assert not moved, f"{entry['command']}:\n" + "\n".join(moved)


def test_corpus_holds_every_readme_and_workload_command():
    recorded = {e["command"] for e in _ENTRIES}
    assert set(golden.readme_commands()) <= recorded
    if os.path.isfile(os.path.join(golden.ROOT, "perfbench", "workloads.py")):
        assert set(golden.workload_commands()) <= recorded


def test_a_fresh_process_prints_the_in_process_report():
    # in one process the parabolic unit levels are shared between commands;
    # a level must not depend on what was solved before it
    command = "crosscheck ycm --channel s1=0.5,s2=1 --n1 0 --n2 1 --seed 7"
    (entry,) = [e for e in _ENTRIES if e["command"] == command]
    src = os.path.join(golden.ROOT, "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-m", "quadalg.cli", *command.split()],
                         capture_output=True, text=True, env=env, check=False)
    assert out.returncode == entry["exit_code"]
    assert out.stdout == golden.read_report(entry)


def test_a_moved_value_is_named_by_its_path_and_status():
    old = {"findings": [{"check": "a", "status": "pass", "residual": 1.0},
                        {"check": "b", "status": "finding", "values": {"u": 2.0}}]}
    new = {"findings": [{"check": "a", "status": "fail", "residual": 2.0},
                        {"check": "b", "status": "finding", "values": {"u": 2.0}}]}
    assert golden.moved_values(old, new) == [
        "$.findings[a].residual: 1.0 -> 2.0 (relative +1.000e+00) [status pass -> fail]",
        "$.findings[a].status: \"pass\" -> \"fail\" [status pass -> fail]"]
