"""Command-line interface.

Verbs::

    qhist check <file>                     consistency report for every family
    qhist prob <file> <family> <index>     probability of one history (1-based)
    qhist query <file> <family> <event>    single-framework-rule query
    qhist chsh [A A' B B']                 CHSH at coplanar angles (degrees)
    qhist list-builtin                     names of the built-in scenarios
    qhist run-builtin <name>               check a built-in scenario

Common flags: ``--tol`` overrides the consistency tolerance (finite and
positive, else exit 2), ``--format text|machine`` selects the rendering. Exit
codes: 0 when every family checked out consistent (or the verb has no
verdict), 3 when some family is inconsistent, 2 on parse or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bell
from .frameworks import Proposition, query
from .histories import QueryOnInconsistentFamily, history_probability
from .linalg import EPS_CONS
from .report import render_report_machine, render_report_text, round12, run_scenario
from .scenario import (
    BUILTIN_SOURCES,
    ScenarioError,
    build_scenario,
    builtin_scenario,
    parse_scenario,
    proposition_projector,
)
from .spin import Direction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _read_scenario(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_scenario(text)


def _emit_report(report, fmt: str) -> int:
    if fmt == "machine":
        sys.stdout.write(render_report_machine(report))
    else:
        sys.stdout.write(render_report_text(report))
    return EXIT_OK if report.all_consistent else EXIT_INCONSISTENT


def _cmd_check(args) -> int:
    doc = _read_scenario(args.file)
    return _emit_report(run_scenario(doc, tol=args.tol), args.format)


def _cmd_run_builtin(args) -> int:
    doc = builtin_scenario(args.name)
    return _emit_report(run_scenario(doc, tol=args.tol), args.format)


def _cmd_list_builtin(args) -> int:
    names = list(BUILTIN_SOURCES)
    if args.format == "machine":
        sys.stdout.write(json.dumps({"builtin_scenarios": names}, indent=2) + "\n")
    else:
        for name in names:
            print(name)
    return EXIT_OK


def _cmd_prob(args) -> int:
    built = build_scenario(_read_scenario(args.file))
    family = built.family(args.family)
    if not 1 <= args.index <= len(family.histories):
        raise ScenarioError(
            f"history index {args.index} outside 1..{len(family.histories)}"
        )
    history = family.histories[args.index - 1]
    p = history_probability(history, family, tol=args.tol)
    if args.format == "machine":
        payload = {
            "scenario": built.doc.name,
            "family": args.family,
            "history": args.index,
            "labels": list(history.labels),
            "probability": round12(p),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"{' '.join(history.labels)}: probability {round12(p):.12g}")
    return EXIT_OK


def _cmd_query(args) -> int:
    built = build_scenario(_read_scenario(args.file))
    family = built.family(args.family)
    projector, time_index = proposition_projector(built, args.event)
    result = query(family, Proposition(projector, time_index), tol=args.tol)
    if args.format == "machine":
        payload = {
            "scenario": built.doc.name,
            "family": args.family,
            "event": projector.label,
            "meaningful": result.meaningful,
        }
        if result.meaningful:
            payload["probability"] = round12(result.probability)
        else:
            payload["reason"] = result.reason
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif result.meaningful:
        print(f"Prob({projector.label}) = {round12(result.probability):.12g}")
    else:
        print(f"meaningless: {result.reason}")
    return EXIT_OK


def _cmd_chsh(args) -> int:
    a, ap, b, bp = (Direction(math.radians(x), 0.0) for x in args.angles)
    pairs = {
        "E(a,b)": bell.correlation(bell.Settings(a, b)),
        "E(a,b')": bell.correlation(bell.Settings(a, bp)),
        "E(a',b)": bell.correlation(bell.Settings(ap, b)),
        "E(a',b')": bell.correlation(bell.Settings(ap, bp)),
    }
    s = bell.chsh_value(*pairs.values())
    bound = bell.lhv_classical_bound()
    if args.format == "machine":
        payload = {
            "angles_deg": list(args.angles),
            "correlations": {k: round12(v) for k, v in pairs.items()},
            "chsh": round12(s),
            "abs_chsh": round12(abs(s)),
            "classical_bound": round12(bound),
            "quantum_max": round12(2.0 * math.sqrt(2.0)),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"settings (degrees): a={args.angles[0]:g} a'={args.angles[1]:g} "
              f"b={args.angles[2]:g} b'={args.angles[3]:g}")
        for name, value in pairs.items():
            print(f"  {name} = {round12(value):.12g}")
        print(f"CHSH S = {round12(s):.12g}  |S| = {round12(abs(s)):.12g}")
        print(f"deterministic local bound = {bound:g}, quantum maximum = "
              f"{round12(2.0 * math.sqrt(2.0)):.12g}")
    return EXIT_OK


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhist",
        description="Consistency checks, history probabilities and Bell "
                    "correlations for small spin systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_tolerance, default=EPS_CONS,
                       help="consistency tolerance, finite and positive "
                            "(default %(default)g)")
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="output rendering (default %(default)s)")

    p = sub.add_parser("check", help="consistency report for a scenario file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("prob", help="probability of one history of one family")
    p.add_argument("file")
    p.add_argument("family")
    p.add_argument("index", type=int, help="1-based history index")
    common(p)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("query", help="probability of an event relative to a family")
    p.add_argument("file")
    p.add_argument("family")
    p.add_argument("event", help="event token, e.g. x1+ or zA2-*xB2-")
    common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("chsh", help="CHSH value for coplanar analyzer angles")
    p.add_argument("angles", type=float, nargs="*", default=[0.0, 90.0, 45.0, 135.0],
                   metavar="DEG", help="four angles a a' b b' in degrees "
                   "(default: 0 90 45 135)")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("list-builtin", help="list built-in scenario names")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_list_builtin)

    p = sub.add_parser("run-builtin", help="consistency report for a built-in scenario")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=_cmd_run_builtin)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "chsh" and len(args.angles) not in (0, 4):
        parser.error("chsh takes no angles or exactly four")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QueryOnInconsistentFamily as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    raise SystemExit(main())
