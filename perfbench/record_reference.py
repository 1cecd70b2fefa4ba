#!/usr/bin/env python3
"""Record the verdict reference of every benchmark command.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Runs every workload once for each of ``SEEDS`` in a fresh worker and writes
the verdict (exit code, required checks with their status, finding names) of
each command to ``reference_verdicts.json``. It refuses to write when two seeds give
different verdicts, because the benchmark uses one reference for every seed.
"""

from __future__ import annotations

import json
import sys
import time

import run
import verdicts
import workloads

SEEDS = (7, 1)


def main() -> int:
    reference, mismatched = {}, []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            cmds = workloads.commands(workload, seed)
            result = run.spawn_worker([argv for _, argv in cmds], False,
                                      time.monotonic() + 600.0)
            for (key, _), cmd in zip(cmds, result["commands"]):
                if cmd["error"] is not None:
                    print(f"{key} raised:\n{cmd['error']}", file=sys.stderr)
                    return 1
                got = verdicts.verdict(cmd["exit_code"], cmd["stdout"])
                if reference.setdefault(key, got) != got:
                    mismatched.append(f"{key} (seed {seed})")
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr)
    if mismatched:
        print("verdicts differ between seeds: " + ", ".join(mismatched), file=sys.stderr)
        return 1
    with open(verdicts.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"schema": verdicts.SCHEMA, "seeds": list(SEEDS), "commands": reference},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
