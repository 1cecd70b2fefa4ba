"""Machine-readable verification reports.

Findings distinguish three statuses: "pass"/"fail" apply to checks of this
package's own construction (required checks, they drive the exit code), while
"finding" marks comparisons of printed formulas against oracles; findings are
informational and never fail a run. Reports are deterministic: same config and
seed give byte-identical JSON.
"""

from __future__ import annotations

import json

SCHEMA = "quadalg/1"


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return float(repr(value))  # shortest round-trip repr, stable
    return value


class Finding:
    """One row of a report; status is pass, fail or finding."""

    __slots__ = ("check", "ref", "status", "residual", "tolerance", "values")

    def __init__(self, check: str, ref: str, status: str, residual: float | None = None,
                 tolerance: float | None = None, values: dict | None = None):
        self.check, self.ref, self.status = check, ref, status
        self.residual, self.tolerance, self.values = residual, tolerance, values

    def as_dict(self) -> dict:
        out = {"check": self.check, "ref": self.ref, "status": self.status}
        if self.residual is not None:
            out["residual"] = _jsonable(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = _jsonable(self.tolerance)
        if self.values is not None:
            out["values"] = _jsonable(self.values)
        return out


class Report:
    __slots__ = ("command", "config", "version", "findings")

    def __init__(self, command: str, config: dict, version: str):
        self.command, self.config, self.version = command, config, version
        self.findings = []

    def add(self, check: str, ref: str, status: str, residual=None, tolerance=None,
            values=None) -> Finding:
        if status not in ("pass", "fail", "finding"):
            raise ValueError(f"bad status {status!r}")
        f = Finding(check=check, ref=ref, status=status,
                    residual=None if residual is None else float(residual),
                    tolerance=None if tolerance is None else float(tolerance),
                    values=values)
        self.findings.append(f)
        return f

    def required_check(self, check: str, ref: str, residual: float, tolerance: float,
                       values=None) -> Finding:
        status = "pass" if residual < tolerance else "fail"
        return self.add(check, ref, status, residual=residual, tolerance=tolerance,
                        values=values)

    @property
    def exit_code(self) -> int:
        return 1 if any(f.status == "fail" for f in self.findings) else 0

    def as_dict(self) -> dict:
        findings = sorted(self.findings, key=lambda f: f.check)
        return {
            "schema": SCHEMA,
            "version": self.version,
            "command": self.command,
            "config": _jsonable(self.config),
            "findings": [f.as_dict() for f in findings],
            "summary": {
                "passed": sum(1 for f in findings if f.status == "pass"),
                "failed": sum(1 for f in findings if f.status == "fail"),
                "findings": sum(1 for f in findings if f.status == "finding"),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"{'check':46s} {'status':8s} {'residual':>12s}  detail"]
        for f in sorted(self.findings, key=lambda x: x.check):
            res = "" if f.residual is None else f"{f.residual:.3e}"
            detail = ""
            if f.values:
                detail = " ".join(f"{k}={_fmt(v)}" for k, v in list(f.values.items())[:4])
            lines.append(f"{f.check:46s} {f.status:8s} {res:>12s}  {detail}")
        return "\n".join(lines)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
