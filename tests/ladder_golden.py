"""Seeded interfering ladders and the sha256 digests of their reports.

Each case is one ladder (one spin in a y field, a random analyzer at each
of 2-8 times, all sign sequences as histories) checked at one tolerance; its
digests are those of the machine and the text report bytes. The committed
file ``golden/ladders.sha256.json`` pins them, so the report writers cannot
change one byte of these reports unnoticed.

    PYTHONPATH=src python tests/ladder_golden.py   # rewrite the golden file
"""

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

from qhist.report import render_report_machine, render_report_text, run_scenario
from qhist.scenario import parse_scenario

DIGESTS = Path(__file__).parent / "golden" / "ladders.sha256.json"
SEEDS = range(40)
TOLS = (1e-10, 1e-3, 0.3)


def ladder_text(rng: random.Random, n: int) -> str:
    """One spin in a y field, a random analyzer at each of n times, all 2**n
    sign sequences as histories."""
    def w():
        return f"w({math.acos(rng.uniform(-1, 1))!r},{rng.uniform(0, 2 * math.pi)!r})"

    state, omega = w(), rng.uniform(0.5, 3.0)
    dirs = [w() for _ in range(n)]
    rows = [
        "history = " + " ".join(f"{d}{k}{s}" for k, (d, s) in enumerate(zip(dirs, signs), 1))
        for signs in itertools.product("+-", repeat=n)
    ]
    return "\n".join([
        "[scenario]", "name = ladder", "[system]", "spins = 1", "[state]",
        f"named = {state}+", "[grid]", "times = " + " ".join(f"{k}.0" for k in range(n + 1)),
        "[schedule]", f"segment = 0.0 {n}.0 y {omega!r}", "[family ladder]", *rows,
    ]) + "\n"


def reports():
    """("seed <s> tol <tol>", report) for every case."""
    for seed in SEEDS:
        doc = parse_scenario(ladder_text(random.Random(seed), 2 + seed % 7))
        for tol in TOLS:
            yield f"seed {seed} tol {tol!r}", run_scenario(doc, tol)


def digests() -> dict[str, dict[str, str]]:
    """{"seed <s> tol <tol>": {"machine": sha256, "text": sha256}} for every case."""
    return {
        case: {
            "machine": hashlib.sha256(render_report_machine(report).encode()).hexdigest(),
            "text": hashlib.sha256(render_report_text(report).encode()).hexdigest(),
        }
        for case, report in reports()
    }


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
