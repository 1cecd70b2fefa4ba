"""Workload definitions: fixed lists of quadalg CLI commands built from a seed.

Each command is a template string. ``{s0}``, ``{s1}`` and ``{s2}`` stand for
the workload seed plus 0, 1 and 2; every command that takes ``--seed`` gets
one, because the CLI's reports echo it. The template string is also the key of
the command's entry in the verdict reference, so one reference serves every
seed.
"""

from __future__ import annotations

OSC8D_VERIFY = [
    # smallest CLI run of the 8-variable system: 3003-term jets and the
    # minimum of two trials per check
    "verify osc8d --p 2 --trials 4 --seed {s0}",
]

KEPLER5D_VERIFY = [
    # 5-variable jets with small coefficient arrays, and the generic
    # representation search
    "verify kepler5d --p 3 --trials 20 --seed {s0}",
]

YCM_VERIFY = [
    # spin-valued states and gauge jets (division, sqrt) on the 5-variable
    # space. Not a listed benchmark workload: its required check
    # jets.ycm.gauge.antisymmetry fails on some seeds (18, 24, 40, ...),
    # where rounding in the field-strength jets exceeds its absolute
    # tolerance of 1e-12, so a run at such a seed reports correct: false.
    "verify ycm --T 1 --trials 20 --seed {s0}",
]

ORACLE_SWEEP = (
    [f"crosscheck ycm --channel s1={a},s2={b} --n1 {n1} --n2 {n2} --seed {{s0}}"
     for a in ("0", "0.5", "1") for b in ("0", "0.5", "1")
     for n1, n2 in ((0, 0), (1, 0), (0, 1))]
    + [f"crosscheck osc8d --levels 3 --lambda1 {lam} --seed {{s0}}"
       for lam in ("0", "0.5", "2")]
    + [f"crosscheck euler --samples 20000 --seed {{{s}}}{flag}"
       for s in ("s0", "s1", "s2") for flag in ("", " --literal-x0")]
    + ["spectrum kepler5d --c0 1 --l 0 --p-max 3 --seed {s0}",
       "spectrum osc8d --omega 1 --p-max 2 --seed {s0}",
       "spectrum ycm --T 1 --seed {s0}",
       "dualize --direction forward --seed {s0}",
       "dualize --direction inverse --c0 1 --eps -0.125 --seed {s0}",
       "hurwitz-check --point 1,0,0,0,1,0,0,0 --seed {s0}"]
)

WORKLOADS = {
    "osc8d-verify": OSC8D_VERIFY,
    "kepler5d-verify": KEPLER5D_VERIFY,
    "ycm-verify": YCM_VERIFY,
    "oracle-sweep": ORACLE_SWEEP,
}


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(reference key, argv) for every command of the workload, in run order."""
    subs = {"s0": seed, "s1": seed + 1, "s2": seed + 2}
    return [(t, t.format(**subs).split()) for t in WORKLOADS[workload]]
