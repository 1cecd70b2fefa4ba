"""Verdict reference and the rule that decides whether a command failed.

A verdict is what a quadalg user acts on: the exit code, the status of every
required check (status "pass" or "fail") and the names of the findings. The
reference holds the verdict of every benchmark command, keyed by its command
template, as recorded by ``record_reference.py``. Residual values are not
compared, because a change to the jet layer may move them; findings that the
reference lacks are allowed.
"""

from __future__ import annotations

import json
import os

SCHEMA = "quadalg/1"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_verdicts.json")


def verdict(exit_code: int, report_text: str) -> dict:
    """The verdict of one command; raises ValueError if the output is no report."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"output is not JSON: {exc}") from None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(f'output is not a "schema": "{SCHEMA}" report')
    required, findings = {}, []
    try:
        for f in report["findings"]:
            if f["status"] in ("pass", "fail"):
                required[f["check"]] = f["status"]
            else:
                findings.append(f["check"])
    except (KeyError, TypeError):
        raise ValueError("report findings are malformed") from None
    return {"exit_code": exit_code, "required": required, "findings": sorted(findings)}


def failures(reference: dict, exit_code: int | None, report_text: str,
             error: str | None = None) -> list[str]:
    """Why one command failed against its reference verdict; empty if it did not.

    A command fails when it raised, exited non-zero or differently from the
    reference, printed no quadalg/1 report, lost a reference required check or
    changed its status, or lost a reference finding.
    """
    if error is not None:
        return [f"raised: {error}"]
    reasons = []
    if exit_code != 0 or exit_code != reference["exit_code"]:
        reasons.append(f"exit code {exit_code}, reference {reference['exit_code']}")
    try:
        got = verdict(exit_code, report_text)
    except ValueError as exc:
        return reasons + [str(exc)]
    for name, status in reference["required"].items():
        if name not in got["required"]:
            reasons.append(f"required check {name} missing")
        elif got["required"][name] != status:
            reasons.append(f"required check {name}: {got['required'][name]}, "
                           f"reference {status}")
    missing = sorted(set(reference["findings"]) - set(got["findings"]))
    reasons.extend(f"finding {name} missing" for name in missing)
    return reasons


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["commands"]
