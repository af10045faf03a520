"""Self-test of the report verifier: corrupted reports must be caught.

Takes two real qhist reports, an interfering ladder and a consistent z
ladder, checks that the verifier accepts them as they are, and then that it
rejects each of three corruptions: a flipped ``consistent``, a dropped
violating pair, and a probability changed in its 10th significant digit.
That is what makes ``failed = 0`` in a benchmark run mean something.

Run as ``python3 perfbench/selftest.py``; :func:`uncaught` is also called by
every benchmark run.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qhist import report, scenario  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def _report(text: str) -> dict:
    built = scenario.build_scenario(scenario.parse_scenario(text))
    return json.loads(report.render_report_machine(report.run_scenario(built)))


def _flip_consistent(data: dict) -> None:
    fam = data["families"][0]
    fam["consistent"] = not fam["consistent"]


def _drop_pair(data: dict) -> None:
    data["families"][0]["violating_pairs"].pop()


def _perturb_probability(data: dict) -> None:
    probs = data["families"][0]["probabilities"]
    i = max(range(len(probs)), key=lambda k: probs[k])
    p = probs[i]
    probs[i] = p + 10 ** (math.floor(math.log10(p)) - 9)


def uncaught() -> list[str]:
    """Names of the checks that went wrong; empty when the verifier works."""
    rng = random.Random("selftest")
    ladder = workloads.ladder_case(rng, 0, 3)
    zl = workloads.z_ladder(rng, 3)
    cases = [
        ("ladder", ladder.name, ladder.family, _report(ladder.text)),
        ("z ladder", zl.name, zl.oracle, _report(zl.text)),
    ]
    corruptions = [
        ("flipped consistent", 0, _flip_consistent),
        ("dropped pair", 0, _drop_pair),
        ("probability off in the 10th digit", 1, _perturb_probability),
    ]
    problems = []
    for label, name, fam, data in cases:
        try:
            oracle.check_report(data, name, [fam])
        except oracle.Mismatch as exc:
            problems.append(f"{label} rejected as made: {exc}")
    for label, which, corrupt in corruptions:
        _, name, fam, data = cases[which]
        bad = copy.deepcopy(data)
        corrupt(bad)
        try:
            oracle.check_report(bad, name, [fam])
        except oracle.Mismatch:
            continue
        problems.append(f"{label} not caught")
    return problems


if __name__ == "__main__":
    found = uncaught()
    for line in found:
        print(f"FAIL {line}")
    print("verifier self-test:", "failed" if found else "ok")
    sys.exit(1 if found else 0)
