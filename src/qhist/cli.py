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
from itertools import islice

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
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


def _emit(fmt: str, payload, text: str) -> int:
    """Write the payload as indented JSON (machine format) or the text."""
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if fmt == "machine" else text + "\n")
    return EXIT_OK


def _emit_report(report, fmt: str) -> int:
    render = render_report_machine if fmt == "machine" else render_report_text
    sys.stdout.write(render(report))
    return EXIT_OK if report.all_consistent else EXIT_INCONSISTENT


def _cmd_check(args) -> int:
    doc = _read_scenario(args.file)
    return _emit_report(run_scenario(doc, tol=args.tol), args.format)


def _cmd_run_builtin(args) -> int:
    doc = builtin_scenario(args.name)
    return _emit_report(run_scenario(doc, tol=args.tol), args.format)


def _cmd_list_builtin(args) -> int:
    names = list(BUILTIN_SOURCES)
    return _emit(args.format, {"builtin_scenarios": names}, "\n".join(names))


def _cmd_prob(args) -> int:
    built = build_scenario(_read_scenario(args.file))
    family = built.family(args.family)
    if not 1 <= args.index <= len(family.histories):
        raise ScenarioError(
            f"history index {args.index} outside 1..{len(family.histories)}"
        )
    history = family.histories[args.index - 1]
    p = round12(history_probability(history, family, tol=args.tol))
    payload = {
        "scenario": built.doc.name,
        "family": args.family,
        "history": args.index,
        "labels": list(history.labels),
        "probability": p,
    }
    return _emit(args.format, payload, f"{' '.join(history.labels)}: probability {p:.12g}")


def _cmd_query(args) -> int:
    built = build_scenario(_read_scenario(args.file))
    family = built.family(args.family)
    projector, time_index = proposition_projector(built, args.event)
    result = query(family, Proposition(projector, time_index), tol=args.tol)
    payload = {
        "scenario": built.doc.name,
        "family": args.family,
        "event": projector.label,
        "meaningful": result.meaningful,
    }
    if result.meaningful:
        payload["probability"] = round12(result.probability)
        text = f"Prob({projector.label}) = {payload['probability']:.12g}"
    else:
        payload["reason"] = result.reason
        text = f"meaningless: {result.reason}"
    return _emit(args.format, payload, text)


def _cmd_chsh(args) -> int:
    a, ap, b, bp = (Direction(math.radians(x), 0.0) for x in args.angles)
    settings = {"E(a,b)": (a, b), "E(a,b')": (a, bp), "E(a',b)": (ap, b), "E(a',b')": (ap, bp)}
    pairs = {k: bell.correlation(bell.Settings(*v)) for k, v in settings.items()}
    s = bell.chsh_value(*pairs.values())
    payload = {
        "angles_deg": list(args.angles),
        "correlations": {k: round12(v) for k, v in pairs.items()},
        "chsh": round12(s),
        "abs_chsh": round12(abs(s)),
        "classical_bound": round12(bell.lhv_classical_bound()),
        "quantum_max": round12(2.0 * math.sqrt(2.0)),
    }
    text = "\n".join([
        "settings (degrees): " + " ".join(
            f"{name}={x:g}" for name, x in zip(("a", "a'", "b", "b'"), args.angles)),
        *(f"  {name} = {value:.12g}" for name, value in payload["correlations"].items()),
        f"CHSH S = {payload['chsh']:.12g}  |S| = {payload['abs_chsh']:.12g}",
        f"deterministic local bound = {payload['classical_bound']:g}, quantum maximum = "
        f"{payload['quantum_max']:.12g}",
    ])
    return _emit(args.format, payload, text)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _tolerance(text: str) -> float:
    tol = _number(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


def _angle(text: str) -> float:
    angle = _number(text)
    if not math.isfinite(angle):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return angle


def _chsh_options_first(argv: list[str]) -> list[str]:
    """After the chsh verb: the options, then "--" and every angle in the
    order given. argparse reads an argument that starts with "-" as an
    option unless it is a plain negative number (so "-inf" and "-1e5" would
    be unknown options), and gives a "*" positional only the arguments
    before the first option; after "--" each one is an angle. A "--" typed
    by the user ends the options and is not an angle itself."""
    if argv[:1] != ["chsh"]:
        return argv
    options, angles = argv[:1], []
    rest = iter(argv[1:])
    for a in rest:
        if a == "--":
            angles += rest
        elif a.startswith("--") or a == "-h":
            options.append(a)
            if "=" not in a and "--format".startswith(a):  # its value follows
                options += islice(rest, 1)
        else:
            angles.append(a)
    return options + (["--", *angles] if angles else [])


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
    p.add_argument("angles", type=_angle, nargs="*", default=[0.0, 90.0, 45.0, 135.0],
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
    args = parser.parse_args(_chsh_options_first(sys.argv[1:] if argv is None else argv))
    if getattr(args, "command", None) == "chsh" and len(args.angles) not in (0, 4):
        parser.error("chsh takes no angles or exactly four")
    try:
        return args.func(args)
    except (ScenarioError, QueryOnInconsistentFamily) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ScenarioError) else EXIT_INCONSISTENT


if __name__ == "__main__":
    raise SystemExit(main())
