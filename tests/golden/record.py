"""The golden-report corpus: the report of every README command and of every
command of the benchmark workloads (perfbench/workloads.py) at seeds 7 and 1.

Each command's JSON report is stored whole, byte for byte, under reports/;
index.json holds its exit code and the sha256 of its --format table output.
tests/test_golden.py regenerates every report in one process and compares
bytes, and names every moved value. Run this file to re-record the corpus
after a change that moves a report on purpose, and list every moved value in
CHANGES.md:

    python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
INDEX = os.path.join(HERE, "index.json")
REPORTS = os.path.join(HERE, "reports")
SEEDS = (7, 1)


def readme_commands() -> list[str]:
    """The quadalg command lines of the README's CLI block, comments dropped."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split("#")[0].split(None, 1)[1].strip()
            for line in lines if line.startswith("quadalg ")]


def workload_commands() -> list[str]:
    """Every command of the four benchmark workloads at each of SEEDS."""
    spec = importlib.util.spec_from_file_location(
        "_golden_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [" ".join(argv) for seed in SEEDS for name in workloads.WORKLOADS
            for _, argv in workloads.commands(name, seed)]


def file_name(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", command).strip("_") + ".json"


def run(command: str, fmt: str) -> tuple[int, str]:
    """(exit code, stdout) of the command in this process, in format fmt."""
    from quadalg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split() + ["--format", fmt])
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_index() -> list[dict]:
    with open(INDEX, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def read_report(entry: dict) -> str:
    with open(os.path.join(REPORTS, entry["file"]), encoding="utf-8", newline="") as fh:
        return fh.read()


_ABSENT = "<absent>"


def _by_check(findings) -> dict:
    return {f.get("check"): f for f in findings} if isinstance(findings, list) else findings


def moved_values(old, new, path: str = "$", status: str = "") -> list[str]:
    """One line per value that differs between two JSON reports, by JSON path:
    old value, new value, the relative change of a number and the status of
    the finding that holds it. Findings are matched by check name."""
    if isinstance(old, dict) and isinstance(new, dict):
        if "check" in old or "check" in new:
            before, after = old.get("status", _ABSENT), new.get("status", _ABSENT)
            status = f"status {before}" if before == after else f"status {before} -> {after}"
        lines = []
        for key in sorted(set(old) | set(new), key=str):
            a, b = old.get(key, _ABSENT), new.get(key, _ABSENT)
            sub = f"{path}.{key}"
            if key == "findings" and path == "$":
                a, b = _by_check(a), _by_check(b)
                lines += [line for name in sorted(set(a) | set(b), key=str)
                          for line in moved_values(a.get(name, _ABSENT), b.get(name, _ABSENT),
                                                   f"{sub}[{name}]", status)]
            else:
                lines += moved_values(a, b, sub, status)
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in moved_values(a, b, f"{path}[{i}]", status)]
    if old == new and type(old) is type(new):
        return []
    line = f"{path}: {json.dumps(old)} -> {json.dumps(new)}"
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers and old != 0:
        line += f" (relative {(new - old) / abs(old):+.3e})"
    return [line + (f" [{status}]" if status else "")]


def differences(entry: dict, code: int, report: str, table: str) -> list[str]:
    """Why the regenerated output of one corpus entry is not the recorded one;
    empty when every byte holds."""
    lines = []
    if code != entry["exit_code"]:
        lines.append(f"exit code {entry['exit_code']} -> {code}")
    recorded = read_report(entry)
    if report != recorded:
        try:
            moved = moved_values(json.loads(recorded), json.loads(report))
        except json.JSONDecodeError:
            moved = []
        lines += moved or ["report bytes differ"]
    if sha256(table) != entry["table_sha256"]:
        lines.append("--format table output differs")
    return lines


def record(commands: list[str]) -> list[dict]:
    os.makedirs(REPORTS, exist_ok=True)
    entries, names = [], set()
    for command in commands:
        name = file_name(command)
        if name in names:
            raise SystemExit(f"two commands map to {name}")
        names.add(name)
        code, report = run(command, "json")
        _, table = run(command, "table")
        with open(os.path.join(REPORTS, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(report)
        entries.append({"command": command, "file": name, "exit_code": code,
                        "table_sha256": sha256(table)})
    for stale in set(os.listdir(REPORTS)) - names:
        os.remove(os.path.join(REPORTS, stale))
    with open(INDEX, "w", encoding="utf-8") as fh:
        json.dump({"commands": entries}, fh, indent=1)
        fh.write("\n")
    return entries


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    entries = record(list(dict.fromkeys(readme_commands() + workload_commands())))
    print(f"recorded {len(entries)} commands in {os.path.relpath(HERE, ROOT)}")
