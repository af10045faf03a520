"""The four workloads: seeded input generators, the timed op, and the check
of each op's output against :mod:`oracle`.

A workload hands out cases from ``cases(rng)``. ``run(case)`` is the timed
op, ``check(case, output)`` verifies it outside the timed region and raises
on a wrong answer, and ``items(case)`` counts the work one op reports
(histories, CHSH values, ...), and ``slot(case)`` names the op's class:
ops of one class do the same work on fresh inputs. ``setup()`` holds the qhist calls a workload
makes before its loop. qhist is only ever called through module attributes
(``scenario.parse_scenario(...)``), so the tracer can wrap them.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from qhist import bell, cli, frameworks, histories, report, scenario, spin

import oracle
from oracle import Mismatch

SIGNS = (1, -1)


def random_direction(rng: random.Random) -> tuple[float, float]:
    """Uniform on the sphere; never one of the named axes in practice."""
    return math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)


def w_token(theta: float, phi: float) -> str:
    return f"w({theta!r},{phi!r})"


def sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def scenario_text(name: str, spins: int, state: str, n: int, omega: float | None,
                  families: list[tuple[str, list[list[str]]]]) -> str:
    """Scenario source on the grid 0, 1, ..., n with an optional y field."""
    lines = [
        "[scenario]", f"name = {name}",
        "[system]", f"spins = {spins}",
        "[state]", f"named = {state}",
        "[grid]", "times = " + " ".join(f"{k}.0" for k in range(n + 1)),
    ]
    if omega is not None:
        lines += ["[schedule]", f"segment = 0.0 {n}.0 y {omega!r}"]
    for fam, rows in families:
        lines.append(f"[family {fam}]")
        lines += ["history = " + " ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def shuffled_cycles(rng: random.Random, slots: list):
    """Endless stream of ``slots``, reshuffled each cycle: every run sees the
    same mix of op kinds and sizes, in a seed-dependent order."""
    while True:
        cycle = list(slots)
        rng.shuffle(cycle)
        yield from cycle


# ---------------------------------------------------------------------------
# ladder-interfering


@dataclass(frozen=True, eq=False)
class LadderCase:
    name: str
    text: str
    family: oracle.FamilyOracle
    histories: int


def ladder_case(rng: random.Random, index: int, n: int) -> LadderCase:
    """One spin in a y field of random strength, a random analyzer at each of
    n unit-spaced times, all 2**n sign sequences as histories."""
    theta0, phi0 = random_direction(rng)
    omega = rng.uniform(0.5, 3.0)
    dirs = [random_direction(rng) for _ in range(n)]
    rows = [
        [f"{w_token(*d)}{k}{sign_char(s)}" for k, (d, s) in enumerate(zip(dirs, signs), 1)]
        for signs in itertools.product(SIGNS, repeat=n)
    ]
    name = f"ladder-{index}"
    text = scenario_text(name, 1, w_token(theta0, phi0) + "+", n, omega, [("ladder", rows)])
    family = oracle.FamilyOracle(
        name="ladder",
        psi0=oracle.up_state(theta0, phi0),
        step=oracle.rotation_y(omega, 1.0),
        stacks=tuple(
            np.stack([oracle.spin_projector(*d, s) for s in SIGNS]) for d in dirs
        ),
        table=np.array(list(itertools.product(range(2), repeat=n))),
    )
    return LadderCase(name, text, family, 2 ** n)


class LadderInterfering:
    """Scenario text -> parse -> build -> run_scenario -> machine report bytes."""

    name = "ladder-interfering"
    item = "histories"
    # Per cycle of 10, sorted by size: n = 6 spans 30%..60% and n = 8 the
    # top 20%, so the median and p90 each fall inside one size class
    # instead of between two.
    SIZES = (5,) * 3 + (6,) * 3 + (7,) * 2 + (8,) * 2
    TRACE_OPS = 20

    def setup(self) -> None:
        pass

    def cases(self, rng: random.Random):
        for index, n in enumerate(shuffled_cycles(rng, list(self.SIZES))):
            yield ladder_case(rng, index, n)

    def run(self, case: LadderCase) -> bytes:
        doc = scenario.parse_scenario(case.text)
        built = scenario.build_scenario(doc)
        rep = report.run_scenario(built)
        return report.render_report_machine(rep).encode()

    def check(self, case: LadderCase, output: bytes) -> None:
        oracle.check_report(json.loads(output), case.name, [case.family])

    def items(self, case: LadderCase) -> int:
        return case.histories

    def slot(self, case: LadderCase) -> int:
        return case.histories


# ---------------------------------------------------------------------------
# framework-reads


@dataclass(frozen=True, eq=False)
class FamilySource:
    """One generated family: its scenario text, its oracle, and the extra
    coarse-grained families of the same scenario used for refine."""

    name: str
    text: str
    oracle: oracle.FamilyOracle
    members: list[tuple[str, int, np.ndarray]]     # token, time, projector
    foreign: list[tuple[str, int, np.ndarray]]     # non-commuting propositions
    refine: tuple                  # ("forget", k1, k2) or ("sides",)
    refined: set                   # label rows refine must return


def z_ladder(rng: random.Random, n: int) -> FamilySource:
    """Free spin prepared along +-z, z analyzers at t1..t(n-1) and a random
    analyzer at tn: 2**n histories of which only 2 carry weight."""
    s0 = rng.choice(SIGNS)
    final = random_direction(rng)
    name = f"zl{n}"
    rows = []
    for signs in itertools.product(SIGNS, repeat=n):
        row = [f"z{k}{sign_char(s)}" for k, s in enumerate(signs[:-1], 1)]
        rows.append(row + [f"{w_token(*final)}{n}{sign_char(signs[-1])}"])
    z = [oracle.spin_projector(0.0, 0.0, s) for s in SIGNS]
    fam = oracle.FamilyOracle(
        name=name,
        psi0=oracle.up_state(0.0 if s0 > 0 else math.pi, 0.0),
        step=oracle.I2,
        stacks=tuple([np.stack(z)] * (n - 1))
        + (np.stack([oracle.spin_projector(*final, s) for s in SIGNS]),),
        table=np.array(list(itertools.product(range(2), repeat=n))),
    )
    members = [(f"z{k}{sign_char(s)}", k, oracle.spin_projector(0.0, 0.0, s))
               for k in range(1, n) for s in SIGNS]
    members += [(f"{w_token(*final)}{n}{sign_char(s)}", n, oracle.spin_projector(*final, s))
                for s in SIGNS]
    foreign = []
    for k in range(1, n + 1):
        d = random_direction(rng)
        foreign.append((f"{w_token(*d)}{k}+", k, oracle.spin_projector(*d, 1)))
    k1, k2 = rng.sample(range(1, n + 1), 2)
    text = scenario_text(name, 1, f"z{sign_char(s0)}", n, None, [(name, rows)])
    return FamilySource(name, text, fam, members, foreign, ("forget", k1, k2),
                        {tuple(row) for row in rows})


def singlet_pair(rng: random.Random, index: int) -> FamilySource:
    """The singlet with one random analyzer per side at t1 (four histories),
    plus the one-sided families whose refinement it is."""
    a, b = random_direction(rng), random_direction(rng)
    ta, tb = w_token(*a), w_token(*b)
    name = f"sg{index}"
    order = [(sa, sb) for sb in SIGNS for sa in SIGNS]
    rows = [[f"{ta}A1{sign_char(sa)}*{tb}B1{sign_char(sb)}"] for sa, sb in order]
    pa = [oracle.spin_projector(*a, s) for s in SIGNS]
    pb = [oracle.spin_projector(*b, s) for s in SIGNS]
    fam = oracle.FamilyOracle(
        name=name,
        psi0=oracle.SINGLET,
        step=np.eye(4, dtype=complex),
        stacks=(np.stack([np.kron(pa[SIGNS.index(sa)], pb[SIGNS.index(sb)])
                          for sa, sb in order]),),
        table=np.arange(4)[:, None],
    )
    members = [(f"{ta}A1{sign_char(s)}", 1, np.kron(p, oracle.I2)) for s, p in zip(SIGNS, pa)]
    members += [(f"{tb}B1{sign_char(s)}", 1, np.kron(oracle.I2, p)) for s, p in zip(SIGNS, pb)]
    members += [(row[0], 1, np.kron(pa[SIGNS.index(sa)], pb[SIGNS.index(sb)]))
                for row, (sa, sb) in zip(rows, order)]
    c = random_direction(rng)
    foreign = [(f"{w_token(*c)}A1+", 1, np.kron(oracle.spin_projector(*c, 1), oracle.I2))]
    families = [
        (name, rows),
        ("A", [[f"{ta}A1{sign_char(s)}"] for s in SIGNS]),
        ("B", [[f"{tb}B1{sign_char(s)}"] for s in SIGNS]),
    ]
    text = scenario_text(name, 2, "singlet", 1, None, families)
    expected = {(f"{ta}A1{sign_char(sa)}&{tb}B1{sign_char(sb)}",) for sa, sb in order}
    return FamilySource(name, text, fam, members, foreign, ("sides",), expected)


def collapse(rng: random.Random, index: int, n: int) -> FamilySource:
    """One spin in a y field, following the evolved state (psiK events) up to
    t(n-1) and branching into a random basis at tn."""
    theta0, phi0 = random_direction(rng)
    omega = rng.uniform(0.5, 3.0)
    final = random_direction(rng)
    name = f"cl{index}"
    psi = [f"psi{k}" for k in range(1, n)]
    rows = [psi + [f"{w_token(*final)}{n}{sign_char(s)}"] for s in SIGNS]
    psi0 = oracle.up_state(theta0, phi0)
    evolved = [oracle.rotation_y(omega, k) @ psi0 for k in range(1, n)]
    fam = oracle.FamilyOracle(
        name=name,
        psi0=psi0,
        step=oracle.rotation_y(omega, 1.0),
        stacks=tuple(oracle.state_projector(v)[None] for v in evolved)
        + (np.stack([oracle.spin_projector(*final, s) for s in SIGNS]),),
        table=np.array([[0] * (n - 1) + [i] for i in range(2)]),
    )
    members = [(f"psi{k}", k, oracle.state_projector(v)) for k, v in enumerate(evolved, 1)]
    members += [(f"{w_token(*final)}{n}{sign_char(s)}", n, oracle.spin_projector(*final, s))
                for s in SIGNS]
    foreign = []
    for k in range(1, n + 1):
        d = random_direction(rng)
        foreign.append((f"{w_token(*d)}{k}+", k, oracle.spin_projector(*d, 1)))
    text = scenario_text(name, 1, w_token(theta0, phi0) + "+", n, omega, [(name, rows)])
    return FamilySource(name, text, fam, members, foreign, ("forget", n, 1),
                        {tuple(row) for row in rows})


def oracle_query(fam: oracle.FamilyOracle, time: int, q: np.ndarray) -> float | None:
    """The single-framework rule on the oracle's matrices: None when q does
    not commute with, or splits, some event at that time."""
    stack = fam.stacks[time - 1]
    absorbed = []
    for e in stack:
        if np.max(np.abs(q @ e - e @ q)) > 1e-10:
            return None
        if np.max(np.abs(q @ e - e)) <= 1e-10:
            absorbed.append(True)
        elif np.max(np.abs(q @ e)) <= 1e-10:
            absorbed.append(False)
        else:
            return None
    weights = np.abs(fam.kets()) ** 2
    rows = np.array(absorbed)[fam.table[:, time - 1]]
    return float(weights.sum(axis=1)[rows].sum())


@dataclass(frozen=True, eq=False)
class Read:
    kind: str       # "prob" | "query" | "refine"
    family: str
    index: int      # history index, or index into members + foreign


class FrameworkReads:
    """Repeated reads of consistent families built once in set-up: one
    history_probability, one query or one refine per op."""

    name = "framework-reads"
    item = "reads"
    TRACE_OPS = 48

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:framework-reads:families")
        self.sources = [z_ladder(rng, n) for n in (4, 5, 6, 7)]
        self.sources += [singlet_pair(rng, i) for i in range(4)]
        self.sources += [collapse(rng, i, n) for i, n in enumerate((2, 3, 4, 4))]
        self.by_name = {s.name: s for s in self.sources}
        self.weights = {s.name: np.abs(s.oracle.kets()) ** 2 for s in self.sources}
        self.answers = {
            s.name: [oracle_query(s.oracle, t, q) for _, t, q in s.members + s.foreign]
            for s in self.sources
        }
        self.live = None

    def setup(self) -> None:
        """Build every family, its propositions and its coarse-grainings."""
        live = {}
        for src in self.sources:
            built = scenario.build_scenario(scenario.parse_scenario(src.text))
            family = built.family(src.name)
            props = [
                frameworks.Proposition(*scenario.proposition_projector(built, tok))
                for tok, _, _ in src.members + src.foreign
            ]
            if src.refine[0] == "forget":
                coarse = tuple(histories.replace_events_with_identity(family, k)
                               for k in src.refine[1:])
            else:
                coarse = (built.family("A"), built.family("B"))
            live[src.name] = (family, props, coarse)
        self.live = live

    # One cycle of 24 reads in three cost classes: 10 middle reads (64
    # histories, about 3 ms on a 2 GHz Xeon VM) hold the median, 6 heavy
    # ones (128 histories, about 10 ms) hold p90, and 8 light ones (4 to 32
    # histories) cover every kind of family and read. refine only targets families whose
    # coarse-grainings multiply out cheaply.
    SLOTS = (
        [("prob", "zl7")] * 2 + [("query", "zl7")] * 3 + [("refine", "zl5")]
        + [("prob", "zl6")] * 4 + [("query", "zl6")] * 5 + [("refine", "zl4")]
        + [("prob", "zl5"), ("query", "zl5"), ("prob", "sg0"), ("query", "sg1"),
           ("refine", "sg2"), ("prob", "cl0"), ("query", "cl1"), ("refine", "cl2")]
    )

    def cases(self, rng: random.Random):
        for kind, fam in shuffled_cycles(rng, self.SLOTS):
            src = self.by_name[fam]
            if kind == "prob":
                index = rng.randrange(len(src.oracle.table))
            elif kind == "query":
                # members and non-commuting propositions, half and half
                if rng.random() < 0.5:
                    index = rng.randrange(len(src.members))
                else:
                    index = len(src.members) + rng.randrange(len(src.foreign))
            else:
                index = 0
            yield Read(kind, fam, index)

    def run(self, read: Read):
        family, props, coarse = self.live[read.family]
        if read.kind == "prob":
            return histories.history_probability(family.histories[read.index], family)
        if read.kind == "query":
            return frameworks.query(family, props[read.index])
        return frameworks.refine(*coarse)

    def check(self, read: Read, output) -> None:
        src = self.by_name[read.family]
        if read.kind == "prob":
            want = float(self.weights[read.family][read.index].sum())
            if abs(output - want) > 1e-12:
                raise Mismatch(f"{read.family} history {read.index}: {output!r} != {want!r}")
        elif read.kind == "query":
            want = self.answers[read.family][read.index]
            if want is None:
                if output.meaningful:
                    raise Mismatch(f"{read.family} query {read.index} should be meaningless")
            elif not output.meaningful or abs(output.probability - want) > 1e-12:
                raise Mismatch(f"{read.family} query {read.index}: {output!r} != {want!r}")
        else:
            got = {h.labels for h in output.histories}
            want = src.refined
            if got != want or len(output.histories) != len(want):
                raise Mismatch(f"{read.family} refine: {len(got)} histories, {len(want)} expected")

    def items(self, read: Read) -> int:
        return 1

    def slot(self, read: Read) -> tuple[str, str]:
        return read.kind, read.family


# ---------------------------------------------------------------------------
# chsh-scan


@dataclass(frozen=True, eq=False)
class ChshCase:
    sides: list[list[tuple[float, float]]]   # k directions each for a, a', b, b'

    @property
    def k(self) -> int:
        return len(self.sides[0])


class ChshScan:
    """One k**4 grid of bell.chsh values over random, non-coplanar
    directions, then check_factorization of the 16 deterministic local
    models against the best table found."""

    name = "chsh-scan"
    item = "CHSH values"
    # grid sizes per cycle: k = 6 holds the median, k = 7 the p90
    SIZES = (5,) * 3 + (6,) * 4 + (7,) * 3
    TRACE_OPS = 10

    def setup(self) -> None:
        pass

    def cases(self, rng: random.Random):
        for k in shuffled_cycles(rng, list(self.SIZES)):
            yield ChshCase([[random_direction(rng) for _ in range(k)] for _ in range(4)])

    def run(self, case: ChshCase):
        dirs = [[spin.Direction(t, p) for t, p in side] for side in case.sides]
        values = [bell.chsh(*s) for s in itertools.product(*dirs)]
        best = max(range(len(values)), key=lambda i: abs(values[i]))
        a, ap, b, bp = (side[i] for side, i in zip(dirs, np.unravel_index(best, (case.k,) * 4)))
        table = bell.singlet_table([bell.Settings(a, b), bell.Settings(a, bp),
                                    bell.Settings(ap, b), bell.Settings(ap, bp)])
        checks = [
            bell.check_factorization(
                bell.LambdaModel((bell.deterministic_model(
                    [a, ap], [b, bp], {a: ra, ap: rap}, {b: rb, bp: rbp}),)),
                table)
            for ra, rap, rb, rbp in bell.deterministic_strategies()
        ]
        return values, best, checks

    def check(self, case: ChshCase, output) -> None:
        values, best, checks = output
        want = oracle.chsh_grid(case.sides)
        if len(values) != len(want) or np.max(np.abs(np.array(values) - want)) > 1e-12:
            raise Mismatch("a CHSH value differs from E(a,b) = -a.b")
        if abs(abs(want[best]) - np.max(np.abs(want))) > 1e-12:
            raise Mismatch("the scan's best settings are not the largest |S|")
        i, j, l, m = np.unravel_index(best, (case.k,) * 4)
        a, ap, b, bp = (oracle.unit(*side[x]) for side, x in zip(case.sides, (i, j, l, m)))
        correlations = (-a @ b, -a @ bp, -ap @ b, -ap @ bp)
        strategies = list(itertools.product(SIGNS, repeat=4))
        if len(checks) != len(strategies):
            raise Mismatch(f"{len(checks)} factorization checks, 16 expected")
        for strategy, got in zip(strategies, checks):
            dev = oracle.factorization_deviation(strategy, correlations)
            if got.factorizes != (dev <= 1e-9) or abs(got.max_deviation - dev) > 1e-12:
                raise Mismatch(f"factorization of {strategy}: {got} vs deviation {dev}")

    def items(self, case: ChshCase) -> int:
        return case.k ** 4

    def slot(self, case: ChshCase) -> int:
        return case.k


# ---------------------------------------------------------------------------
# cli-builtins

INCONSISTENT_BUILTINS = {"eq23", "eq28-sixteen"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: list[str], env: dict) -> tuple[bytes, int, float, int]:
    """Run a process to exit; returns (stdout, exit code, seconds, peak RSS
    in KiB of that process alone)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, elapsed, usage.ru_maxrss


@dataclass
class CliResult:
    stdout: bytes
    code: int
    rss_kib: int


class CliBuiltins:
    """One cold ``python -m qhist run-builtin <name> --format machine``
    process per op, cycling over every built-in scenario."""

    name = "cli-builtins"
    item = "processes"
    TRACE_OPS = 24

    def __init__(self, root: Path):
        self.env = child_env(root)
        self.names = list(scenario.BUILTIN_SOURCES)
        golden = root / "tests" / "golden"
        self.expected = {}
        for name in self.names:
            path = golden / f"{name}.machine.json"
            if path.is_file():
                self.expected[name] = path.read_bytes()
            else:
                rep = report.run_scenario(scenario.builtin_scenario(name))
                self.expected[name] = report.render_report_machine(rep).encode()

    def setup(self) -> None:
        pass

    def cases(self, rng: random.Random):
        return shuffled_cycles(rng, self.names)

    def command(self, name: str) -> list[str]:
        return [sys.executable, "-m", "qhist", "run-builtin", name, "--format", "machine"]

    def run(self, name: str) -> CliResult:
        out, code, _, rss = run_child(self.command(name), self.env)
        return CliResult(out, code, rss)

    def check(self, name: str, output: CliResult) -> None:
        want = 3 if name in INCONSISTENT_BUILTINS else 0
        if output.code != want:
            raise Mismatch(f"{name}: exit code {output.code}, expected {want}")
        if output.stdout != self.expected[name]:
            raise Mismatch(f"{name}: report bytes differ from the expected report")

    def items(self, name: str) -> int:
        return 1

    def slot(self, name: str) -> str:
        # one class: start-up is 95% of every op, and the built-ins' own
        # work differs by a few ms, below what a run of ~10 ops each resolves
        return "run-builtin"


class CliInProcess:
    """The same command as :class:`CliBuiltins`, through ``cli.main`` in this
    process with stdout captured."""

    name = "cli-main"

    def __init__(self, outer: CliBuiltins):
        self.check = outer.check
        self.items = outer.items
        self.slot = outer.slot

    def run(self, name: str) -> CliResult:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["run-builtin", name, "--format", "machine"])
        return CliResult(buf.getvalue().encode(), code, 0)
