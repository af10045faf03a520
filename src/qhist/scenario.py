"""Scenario files: a line-oriented description of a spin system, its
dynamics, and the history families to analyze.

Format
------
Sections open with a bracketed header; bodies are ``key = value`` lines.
``#`` starts a comment, blank lines are ignored::

    [scenario]
    name = demo
    [system]
    spins = 1                    # 1 or 2
    [state]
    named = z+                   # or: amplitudes = 1.0+0.0j 0.0+0.0j
    [grid]
    times = 0.0 1.0 2.0          # t0 t1 ... tn, strictly increasing
    [schedule]                   # optional; no segments means free evolution
    segment = 0.0 2.0 y 1.5707963267948966   # t_start t_end axis omega
    [family demo]
    history = x1+ z2+            # one event token per grid time t1..tn
    history = x1- 1

Event tokens name a projector and the time it applies at:

* ``1`` - the identity ("no statement at this time"),
* ``psiK`` - projector onto the initial state evolved to time tK,
* ``<dir><K><sign>`` - projector onto the spin-(sign 1/2) eigenstate along a
  direction, e.g. ``x1+`` or ``w(0.78,0.0)2-``; directions are ``x  y  z -x
  -y -z`` or ``w(theta,phi)`` in radians (finite angles outside theta in
  [0, pi], phi in [0, 2 pi) name the same direction and are brought into
  range, so ``w(7.0,0.0)`` is rendered ``w(0.7168146928204138,0.0)``),
* two-spin systems tag the subsystem, ``zA1+``; ``*`` joins factors acting
  on different subsystems into one event, ``zA1+*xB1-``.

The K embedded in a token must match the token's position on its history
line; ``1`` carries no K (its factor keeps time index 0). The builder makes
one ``Event`` per (time, label): ``x1+`` and ``w(1.5707963267948966,0.0)1+``
at one time share one. Named states are direction tokens (``z+``), products
(``z+*x-``) or ``singlet``; explicit amplitude lists must be finite and
normalized (tolerance ``linalg.EPS_INPUT_NORM`` = 1e-6; they are
renormalized exactly on load). Schedule axes take an ``A``/``B`` suffix on
two-spin systems, and the segment Hamiltonian is omega times the spin
component along the axis; omega times the segment's duration must stay
finite.

Parsing is strict and positional: syntax problems raise :class:`ParseError`
and semantic ones :class:`ValidationError`, both carrying the line (and
where available column) plus the tokens that would have been accepted.
``parse_scenario(render_scenario(doc))`` reproduces ``doc`` exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Schedule, Segment, TimeGrid, evolved_state
from .histories import Event, Family, History
from .linalg import (EPS_INPUT_NORM, Projector, as_projector, identity, normalized,
                     projector_onto, tensor)
from .spin import NAMED_DIRECTIONS, Direction, basis_for, singlet, spin_operator

SUBSYSTEMS = ("A", "B")


class ScenarioError(Exception):
    """Common base so callers can treat file problems uniformly."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{where}{message}{hint}")


class ParseError(ScenarioError):
    """Malformed syntax."""


class ValidationError(ScenarioError):
    """Well-formed syntax with inadmissible content."""


# ---------------------------------------------------------------------------
# document model


@dataclass(frozen=True)
class EventFactor:
    """One tensor factor of an event token."""

    kind: str  # "identity" | "psi" | "direction"
    time_index: int  # 0 for the identity, which carries no time index
    direction: Direction | None = None
    subsystem: str = ""  # "", "A" or "B"
    sign: int = 0


EventSpec = tuple[EventFactor, ...]


@dataclass(frozen=True)
class FamilySpec:
    """A named family of histories, each a tuple of event specs. ``labels``
    holds every history's event labels; each distinct spec object is
    rendered once, when the FamilySpec is made."""

    name: str
    histories: tuple[tuple[EventSpec, ...], ...]
    labels: tuple[tuple[str, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        specs = {id(spec): spec for row in self.histories for spec in row}
        text = {key: render_event(spec) for key, spec in specs.items()}
        object.__setattr__(self, "labels", tuple(
            tuple(text[id(spec)] for spec in row) for row in self.histories))


@dataclass(frozen=True)
class StateSpec:
    kind: str  # "singlet" | "product" | "amplitudes"
    factors: tuple[tuple[Direction, int], ...] = ()
    amplitudes: tuple[complex, ...] = ()


@dataclass(frozen=True)
class SegmentSpec:
    t_start: float
    t_end: float
    axis: Direction
    subsystem: str
    omega: float


@dataclass(frozen=True)
class ScenarioDoc:
    name: str
    spins: int
    state: StateSpec
    times: tuple[float, ...]
    segments: tuple[SegmentSpec, ...]
    families: tuple[FamilySpec, ...]


# ---------------------------------------------------------------------------
# low-level token handling


_PIECE = re.compile(r"\S+")
# text in which every '(' closes before the next one opens, and every ')'
# closes one: no parenthesis is nested, stray or left open
_FLAT_GROUPS = re.compile(r"[^()]*(?:\([^()]*\)[^()]*)*")


def _split_tokens(text: str) -> list[tuple[str, int]]:
    """Whitespace-split outside parentheses; yields (token, 1-based column).

    The text is taken in whitespace-free pieces; whitespace after a piece
    ends the token unless a parenthesis is still open. A ')' with no '(' open
    is plain text; a '(' never closed keeps the rest of the text, whitespace
    included, in its token."""
    tokens: list[tuple[str, int]] = []
    start = end = -1
    depth = 0
    for m in _PIECE.finditer(text):
        if depth == 0:
            if start >= 0:
                tokens.append((text[start:end], start + 1))
            start = m.start()
        end = m.end()
        piece = m.group()
        if ("(" in piece or ")" in piece) and not _FLAT_GROUPS.fullmatch(piece):
            for ch in piece:
                if ch == "(":
                    depth += 1
                elif ch == ")" and depth:
                    depth -= 1
    if start >= 0:
        tokens.append((text[start:len(text) if depth else end], start + 1))
    return tokens


def _parse_float(tok: str, what: str, line: int | None, column: int | None = None) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(f"{what}: {tok!r} is not a number", line, column) from None
    if not math.isfinite(value):
        raise ValidationError(f"{what}: {tok!r} is not finite", line, column)
    return value


def _parse_direction(tok: str, line: int | None, column: int | None) -> tuple[Direction, str]:
    """Parse a direction prefix; returns (direction, remainder of token)."""
    if tok.startswith("w("):
        end = tok.find(")")
        if end < 0:
            raise ParseError("unterminated 'w(' direction", line, column,
                             expected=(")",))
        inside = tok[2:end]
        parts = [p.strip() for p in inside.split(",")]
        if len(parts) != 2:
            raise ParseError("direction needs 'w(theta,phi)' with two angles",
                             line, column)
        theta = _parse_float(parts[0], "theta", line, column)
        phi = _parse_float(parts[1], "phi", line, column)
        return Direction(theta, phi), tok[end + 1:]
    for name in ("-x", "-y", "-z", "x", "y", "z"):
        if tok.startswith(name):
            return NAMED_DIRECTIONS[name], tok[len(name):]
    raise ParseError(f"unknown direction in {tok!r}", line, column,
                     expected=("x", "y", "z", "-x", "-y", "-z", "w(theta,phi)"))


def _render_direction(d: Direction) -> str:
    for name, known in NAMED_DIRECTIONS.items():
        if known == d:
            return name
    return f"w({d.theta!r},{d.phi!r})"


def _parse_sign(ch: str, tok: str, line: int | None, column: int | None) -> int:
    if ch == "+":
        return +1
    if ch == "-":
        return -1
    raise ParseError(f"token {tok!r} must end in a sign", line, column,
                     expected=("+", "-"))


def parse_event_token(tok: str, spins: int, line: int | None = None,
                      column: int | None = None) -> EventSpec:
    """Parse one event token into its factors (no positional checks here)."""
    factors = []
    for part in tok.split("*"):
        if not part:
            raise ParseError(f"empty factor in event token {tok!r}", line, column)
        factors.append(_parse_event_factor(part, tok, spins, line, column))
    if len(factors) > 1 and any(f.kind != "direction" for f in factors):
        raise ParseError(
            f"token {tok!r}: '1' and 'psiK' stand alone, they cannot be joined with '*'",
            line, column)
    seen_subsystems = [f.subsystem for f in factors if f.kind == "direction"]
    if len(seen_subsystems) != len(set(seen_subsystems)):
        raise ValidationError(f"token {tok!r} uses one subsystem twice", line, column)
    times = {f.time_index for f in factors if f.kind != "identity"}
    if len(times) > 1:
        raise ValidationError(f"token {tok!r} mixes time indices {sorted(times)}",
                              line, column)
    return tuple(factors)


def _parse_event_factor(part: str, tok: str, spins: int, line: int | None,
                        column: int | None) -> EventFactor:
    if part == "1":
        return EventFactor(kind="identity", time_index=0)
    if part.startswith("psi"):
        digits = part[3:]
        if not digits.isdigit():
            raise ParseError(f"bad evolved-state token {part!r}", line, column,
                             expected=("psi<k>",))
        return EventFactor(kind="psi", time_index=int(digits))
    direction, rest = _parse_direction(part, line, column)
    subsystem = ""
    if rest[:1] in SUBSYSTEMS:
        subsystem = rest[0]
        rest = rest[1:]
    if spins == 1 and subsystem:
        raise ValidationError(
            f"token {tok!r}: subsystem tags need a two-spin system", line, column)
    if spins == 2 and not subsystem:
        raise ValidationError(
            f"token {tok!r}: two-spin events must tag a subsystem A or B",
            line, column)
    if not rest or not rest[:-1].isdigit():
        raise ParseError(f"token {part!r} needs a time index and a sign",
                         line, column, expected=("<dir><k><sign>",))
    sign = _parse_sign(rest[-1], part, line, column)
    return EventFactor(kind="direction", time_index=int(rest[:-1]),
                       direction=direction, subsystem=subsystem, sign=sign)


def render_event_factor(f: EventFactor) -> str:
    if f.kind == "identity":
        return "1"
    if f.kind == "psi":
        return f"psi{f.time_index}"
    sign = "+" if f.sign > 0 else "-"
    return f"{_render_direction(f.direction)}{f.subsystem}{f.time_index}{sign}"


def render_event(spec: EventSpec) -> str:
    return "*".join(render_event_factor(f) for f in spec)


def _parse_state_factor(part: str, line: int) -> tuple[Direction, int]:
    direction, rest = _parse_direction(part, line, None)
    if len(rest) != 1:
        raise ParseError(f"state factor {part!r} must be <direction><sign>", line)
    return direction, _parse_sign(rest, part, line, None)


def _render_state(state: StateSpec) -> str:
    if state.kind == "singlet":
        return "named = singlet"
    if state.kind == "product":
        toks = [f"{_render_direction(d)}{'+' if s > 0 else '-'}"
                for d, s in state.factors]
        return "named = " + "*".join(toks)
    return "amplitudes = " + " ".join(_render_complex(a) for a in state.amplitudes)


def _render_complex(c: complex) -> str:
    sign = "-" if (c.imag < 0 or (c.imag == 0 and math.copysign(1, c.imag) < 0)) else "+"
    return f"{c.real!r}{sign}{abs(c.imag)!r}j"


# ---------------------------------------------------------------------------
# parsing


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse (and validate) a scenario document from its source text."""
    # section: (kind, arg, lineno, entries); entry: (key, value, lineno, column)
    sections: list[tuple[str, str, int, list[tuple[str, str, int, int]]]] = []
    current: list[tuple[str, str, int, int]] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, expected=("]",))
            header = stripped[1:-1].strip()
            parts = header.split(None, 1)
            kind = parts[0] if parts else ""
            arg = parts[1].strip() if len(parts) > 1 else ""
            if kind not in ("scenario", "system", "state", "grid", "schedule", "family"):
                raise ParseError(
                    f"unknown section [{header}]", lineno,
                    expected=("scenario", "system", "state", "grid", "schedule",
                              "family <name>"))
            if kind == "family" and not arg:
                raise ParseError("family section needs a name: [family <name>]", lineno)
            if kind != "family" and arg:
                raise ParseError(f"section [{kind}] takes no argument", lineno)
            current = []
            sections.append((kind, arg, lineno, current))
            continue
        if current is None:
            raise ParseError("content before the first section header", lineno,
                             expected=("[scenario]",))
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, expected=("=",))
        key, value = line.split("=", 1)
        column = len(key) + 1 + (len(value) - len(value.lstrip())) + 1
        current.append((key.strip(), value.strip(), lineno, column))

    return _assemble(sections)


def _single(entries, key: str, section: str, lineno: int) -> tuple[str, int, int]:
    hits = [(v, ln, col) for k, v, ln, col in entries if k == key]
    for k, _, ln, _ in entries:
        if k != key:
            raise ParseError(f"unknown key {k!r} in [{section}]", ln, expected=(key,))
    if not hits:
        raise ParseError(f"section [{section}] needs '{key} = ...'", lineno)
    if len(hits) > 1:
        raise ParseError(f"duplicate '{key}' in [{section}]", hits[1][1])
    return hits[0]


def _assemble(sections) -> ScenarioDoc:
    by_kind: dict[str, tuple[str, int, list]] = {}
    families: list[tuple[str, int, list]] = []
    for kind, arg, lineno, entries in sections:
        if kind == "family":
            families.append((arg, lineno, entries))
            continue
        if kind in by_kind:
            raise ParseError(f"duplicate section [{kind}]", lineno)
        by_kind[kind] = (arg, lineno, entries)

    for required in ("scenario", "system", "state", "grid"):
        if required not in by_kind:
            raise ParseError(f"missing section [{required}]", 1,
                             expected=(f"[{required}]",))

    _, ln, entries = by_kind["scenario"]
    name, name_ln, _ = _single(entries, "name", "scenario", ln)
    if not name or any(ch.isspace() or ch in "[]" for ch in name):
        raise ValidationError(f"bad scenario name {name!r}", name_ln)

    _, ln, entries = by_kind["system"]
    spins_text, spins_ln, _ = _single(entries, "spins", "system", ln)
    if spins_text not in ("1", "2"):
        raise ValidationError(f"spins must be 1 or 2, got {spins_text!r}", spins_ln,
                              expected=("1", "2"))
    spins = int(spins_text)
    dim = 2 ** spins

    state = _parse_state_section(by_kind["state"], spins, dim)
    times = _parse_grid_section(by_kind["grid"])
    n_events = len(times) - 1

    segments: tuple[SegmentSpec, ...] = ()
    if "schedule" in by_kind:
        segments = _parse_schedule_section(by_kind["schedule"], spins)

    if not families:
        raise ParseError("scenario needs at least one [family <name>] section", 1,
                         expected=("[family <name>]",))
    # per event time: each token seen there -> its positioned spec
    events: list[dict[str, EventSpec]] = [{} for _ in range(n_events)]
    parsed_families = []
    seen_names = set()
    for fam_name, fam_ln, entries in families:
        if any(ch in "[]" for ch in fam_name):
            raise ValidationError(f"bad family name {fam_name!r}", fam_ln)
        if fam_name in seen_names:
            raise ValidationError(f"duplicate family name {fam_name!r}", fam_ln)
        seen_names.add(fam_name)
        histories, lines = [], []
        for key, value, ln, col in entries:
            if key != "history":
                raise ParseError(f"unknown key {key!r} in [family {fam_name}]", ln,
                                 expected=("history",))
            histories.append(_parse_history_line(value, spins, n_events, ln, col, events))
            lines.append(ln)
        if not histories:
            raise ParseError(f"family {fam_name!r} has no histories", fam_ln,
                             expected=("history = ...",))
        fam = FamilySpec(fam_name, tuple(histories))
        seen_rows = set()
        for labels, ln in zip(fam.labels, lines):
            if labels in seen_rows:
                raise ValidationError(f"duplicate history {' '.join(labels)!r}", ln)
            seen_rows.add(labels)
        parsed_families.append(fam)

    return ScenarioDoc(name=name, spins=spins, state=state, times=times,
                       segments=segments, families=tuple(parsed_families))


def _parse_state_section(section, spins: int, dim: int) -> StateSpec:
    _, ln, entries = section
    if not entries:
        raise ParseError("section [state] needs 'named = ...' or 'amplitudes = ...'",
                         ln, expected=("named", "amplitudes"))
    if len(entries) > 1:
        raise ParseError("section [state] takes exactly one entry", entries[1][2])
    key, value, ln, base = entries[0]
    if key == "named":
        return _parse_named_state(value, spins, ln)
    if key == "amplitudes":
        toks = _split_tokens(value)
        if len(toks) != dim:
            raise ValidationError(
                f"expected {dim} amplitudes for {spins} spin(s), got {len(toks)}", ln)
        amps = []
        for tok, col in toks:
            try:
                amp = complex(tok)
            except ValueError:
                raise ParseError(f"bad complex amplitude {tok!r}", ln,
                                 base + col - 1) from None
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValidationError(f"amplitude {tok!r} is not finite", ln, base + col - 1)
            amps.append(amp)
        vec = np.array(amps, dtype=complex)
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > EPS_INPUT_NORM:
            raise ValidationError(
                f"explicit state is not normalized (norm {nrm:.6g})", ln)
        return StateSpec(kind="amplitudes", amplitudes=tuple(amps))
    raise ParseError(f"unknown key {key!r} in [state]", ln,
                     expected=("named", "amplitudes"))


def _parse_named_state(value: str, spins: int, ln: int) -> StateSpec:
    if value == "singlet":
        if spins != 2:
            raise ValidationError("the singlet needs a two-spin system", ln)
        return StateSpec(kind="singlet")
    parts = value.split("*")
    if len(parts) != spins:
        raise ValidationError(
            f"state {value!r} has {len(parts)} factor(s), system has {spins} spin(s)",
            ln)
    factors = tuple(_parse_state_factor(p, ln) for p in parts)
    return StateSpec(kind="product", factors=factors)


def _parse_grid_section(section) -> tuple[float, ...]:
    _, ln, entries = section
    value, ln, base = _single(entries, "times", "grid", ln)
    toks = _split_tokens(value)
    if len(toks) < 2:
        raise ValidationError("grid needs at least two times (t0 and t1)", ln)
    times = tuple(
        _parse_float(tok, "grid time", ln, base + col - 1) for tok, col in toks
    )
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"grid times must be strictly increasing: {times}", ln)
    return times


def _parse_schedule_section(section, spins: int) -> tuple[SegmentSpec, ...]:
    _, _, entries = section
    segments = []
    for key, value, ln, base in entries:
        if key != "segment":
            raise ParseError(f"unknown key {key!r} in [schedule]", ln,
                             expected=("segment",))
        toks = [(tok, base + col - 1) for tok, col in _split_tokens(value)]
        if len(toks) != 4:
            raise ParseError(
                "segment needs 't_start t_end axis omega'", ln,
                expected=("<t_start> <t_end> <axis> <omega>",))
        (t0s, c0), (t1s, c1), (axis_tok, c2), (oms, c3) = toks
        t_start = _parse_float(t0s, "segment start", ln, c0)
        t_end = _parse_float(t1s, "segment end", ln, c1)
        if t_end <= t_start:
            raise ValidationError(f"segment interval [{t_start}, {t_end}) is empty", ln)
        axis, rest = _parse_direction(axis_tok, ln, c2)
        subsystem = ""
        if rest in SUBSYSTEMS:
            subsystem, rest = rest, ""
        if rest:
            raise ParseError(f"bad axis token {axis_tok!r}", ln, c2,
                             expected=("x", "yA", "w(theta,phi)B", "..."))
        if spins == 1 and subsystem:
            raise ValidationError("axis subsystem tags need a two-spin system", ln)
        if spins == 2 and not subsystem:
            raise ValidationError("two-spin schedules must tag the axis with A or B", ln)
        omega = _parse_float(oms, "omega", ln, c3)
        if not math.isfinite(omega * (t_end - t_start)):
            raise ValidationError(
                f"omega {oms} over [{t_start}, {t_end}) turns the spin by an "
                "angle too large to represent", ln, c3)
        segments.append(SegmentSpec(t_start, t_end, axis, subsystem, omega))
    ordered = sorted(segments, key=lambda s: s.t_start)
    for a, b in zip(ordered, ordered[1:]):
        if b.t_start < a.t_end:
            raise ValidationError(
                f"overlapping segments: [{a.t_start}, {a.t_end}) and "
                f"[{b.t_start}, {b.t_end})", section[1])
    return tuple(segments)


def _parse_history_line(value: str, spins: int, n_events: int, ln: int, base: int,
                        events: list[dict[str, EventSpec]]) -> tuple[EventSpec, ...]:
    """One history line as its event specs. A token is parsed and checked
    against its position only the first time it appears there; ``events``
    keeps the result for the rest of the document."""
    toks = _split_tokens(value)
    if len(toks) != n_events:
        raise ValidationError(
            f"history has {len(toks)} events, grid has {n_events} event times", ln)
    row = []
    for position, (tok, col) in enumerate(toks, start=1):
        spec = events[position - 1].get(tok)
        if spec is None:
            spec = events[position - 1][tok] = _positioned_event(
                tok, position, spins, n_events, ln, base + col - 1)
        row.append(spec)
    return tuple(row)


def _positioned_event(tok: str, position: int, spins: int, n_events: int, ln: int,
                      column: int) -> EventSpec:
    """Parse an event token and check its time index against its position
    on the history line; the identity token carries none."""
    spec = parse_event_token(tok, spins, ln, column)
    f = spec[0]  # parse_event_token rejects mixed time indices
    if f.kind != "identity" and f.time_index != position:
        raise ValidationError(
            f"event {tok!r} carries time index {f.time_index} but sits at "
            f"position {position} (grid has {n_events} event times)",
            ln, column)
    return spec


# ---------------------------------------------------------------------------
# rendering


def render_scenario(doc: ScenarioDoc) -> str:
    lines = [
        "[scenario]",
        f"name = {doc.name}",
        "",
        "[system]",
        f"spins = {doc.spins}",
        "",
        "[state]",
        _render_state(doc.state),
        "",
        "[grid]",
        "times = " + " ".join(repr(t) for t in doc.times),
    ]
    if doc.segments:
        lines += ["", "[schedule]"]
        for seg in doc.segments:
            axis = f"{_render_direction(seg.axis)}{seg.subsystem}"
            lines.append(
                f"segment = {seg.t_start!r} {seg.t_end!r} {axis} {seg.omega!r}")
    for fam in doc.families:
        lines += ["", f"[family {fam.name}]"]
        for labels in fam.labels:
            lines.append("history = " + " ".join(labels))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# building


@dataclass(frozen=True, eq=False)
class BuiltScenario:
    """A scenario document resolved into live objects."""

    doc: ScenarioDoc
    initial_state: np.ndarray = field(repr=False)
    grid: TimeGrid
    schedule: Schedule
    families: tuple[tuple[str, Family], ...]

    def family(self, name: str) -> Family:
        for known, fam in self.families:
            if known == name:
                return fam
        names = ", ".join(n for n, _ in self.families)
        raise ValidationError(f"no family named {name!r} (have: {names})")


def _state_vector(state: StateSpec, spins: int) -> np.ndarray:
    if state.kind == "singlet":
        return singlet()
    if state.kind == "product":
        vecs = [basis_for(d).plus if s > 0 else basis_for(d).minus
                for d, s in state.factors]
        out = vecs[0]
        for v in vecs[1:]:
            out = tensor(out, v)
        return out
    return normalized(np.array(state.amplitudes, dtype=complex))


def _embed(matrix: np.ndarray, subsystem: str, spins: int) -> np.ndarray:
    if spins == 1:
        return matrix
    if subsystem == "A":
        return tensor(matrix, identity(2))
    return tensor(identity(2), matrix)


def _event_projector(spec: EventSpec, label: str, spins: int, psi0: np.ndarray,
                     grid: TimeGrid, schedule: Schedule) -> Projector:
    """The event's projector, with the given label: for ``psiK`` the
    projector onto psi0 evolved to tK, made as ``unitary_family`` makes it;
    otherwise the product of the factors, certified as one projector."""
    if spec[0].kind == "psi":  # 'psiK' stands alone, see parse_event_token
        return projector_onto(evolved_state(schedule, grid, psi0, spec[0].time_index), label)
    mat = None
    for f in spec:
        if f.kind == "identity":
            m = identity(2 ** spins)
        else:
            b = basis_for(f.direction)
            vec = b.plus if f.sign > 0 else b.minus
            m = _embed(np.outer(vec, vec.conj()), f.subsystem, spins)
        mat = m if mat is None else mat @ m
    return as_projector(mat, label)


def build_scenario(doc: ScenarioDoc) -> BuiltScenario:
    """Resolve a parsed document into state, schedule and Family objects; the
    projector of each (time, label) is made once and its Event shared."""
    dim = 2 ** doc.spins
    psi0 = _state_vector(doc.state, doc.spins)
    grid = TimeGrid(doc.times)
    try:
        segments = tuple(
            Segment(seg.t_start, seg.t_end,
                    _embed(spin_operator(seg.axis), seg.subsystem, doc.spins) * seg.omega)
            for seg in doc.segments
        )
        schedule = Schedule(dim=dim, segments=segments)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    by_label: dict[tuple[int, str], Event] = {}
    families = []
    for fam in doc.families:
        histories = []
        for row, labels in zip(fam.histories, fam.labels):
            events = []
            for position, (spec, label) in enumerate(zip(row, labels), start=1):
                ev = by_label.get((position, label))
                if ev is None:
                    proj = _event_projector(spec, label, doc.spins, psi0, grid, schedule)
                    ev = by_label[position, label] = Event(proj, position)
                events.append(ev)
            histories.append(History(tuple(events)))
        try:
            families.append((fam.name, Family(psi0, grid, schedule, tuple(histories))))
        except ValueError as exc:
            raise ValidationError(f"family {fam.name!r}: {exc}") from exc
    return BuiltScenario(doc, psi0, grid, schedule, tuple(families))


def proposition_projector(built: BuiltScenario, token: str):
    """Resolve an event token against a built scenario, for framework queries.

    Returns (projector, time_index). The token must carry its own time index,
    so the bare identity token is rejected here.
    """
    spec = parse_event_token(token, built.doc.spins)
    if spec[0].kind == "identity":  # '1' stands alone, see parse_event_token
        raise ValidationError(
            "the identity token '1' carries no time index; query a labelled event")
    time_index = spec[0].time_index
    n = built.grid.n_events
    if not 1 <= time_index <= n:
        raise ValidationError(
            f"event {token!r} carries time index {time_index}, grid has event times 1..{n}")
    return _event_projector(spec, render_event(spec), built.doc.spins, built.initial_state,
                            built.grid, built.schedule), time_index


# ---------------------------------------------------------------------------
# built-in scenarios

_HALF_PI = repr(math.pi / 2)

BUILTIN_SOURCES: dict[str, str] = {}

BUILTIN_SOURCES["eq10-born"] = """\
# Born-rule table for a single spin prepared along +z: one two-time family
# per measurement axis.
[scenario]
name = eq10-born
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0
[family z-frame]
history = z1+
history = z1-
[family x-frame]
history = x1+
history = x1-
[family y-frame]
history = y1+
history = y1-
"""

BUILTIN_SOURCES["eq23"] = """\
# Three-time single-spin family: x alternatives at t1, z alternatives at t2.
# The two pairs of histories sharing a final event interfere, so the family
# fails the consistency check.
[scenario]
name = eq23
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[family eq23]
history = x1+ z2+
history = x1+ z2-
history = x1- z2+
history = x1- z2-
"""

BUILTIN_SOURCES["eq23-identity-fix"] = """\
# Same structure with the final events coarse-grained away: the identity at
# t2 removes the interference and leaves two histories of weight 1/2.
[scenario]
name = eq23-identity-fix
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[family eq23-identity-fix]
history = x1+ 1
history = x1- 1
"""

BUILTIN_SOURCES["eq23-field-fix"] = """\
# Same events, different dynamics: a y-axis field turns by pi/2 per grid
# step, so the evolved state passes exactly through |x+> at t1 and |z-> at
# t2. One history becomes the unitary one; the rest carry no weight.
[scenario]
name = eq23-field-fix
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[schedule]
segment = 0.0 2.0 y {half_pi}
[family eq23-field-fix]
history = x1+ z2+
history = x1+ z2-
history = x1- z2+
history = x1- z2-
""".format(half_pi=_HALF_PI)

BUILTIN_SOURCES["eq25-random-directions"] = """\
# Two-time family on the singlet with one arbitrary analyzer direction per
# side. Families of this shape are consistent whatever the directions.
[scenario]
name = eq25-random-directions
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0
[family eq25]
history = w(1.1,0.3)A1+*w(2.0,4.4)B1+
history = w(1.1,0.3)A1-*w(2.0,4.4)B1+
history = w(1.1,0.3)A1+*w(2.0,4.4)B1-
history = w(1.1,0.3)A1-*w(2.0,4.4)B1-
"""

BUILTIN_SOURCES["eq26-unitary"] = """\
# The unitary family of the freely evolving singlet: a single history that
# tracks the evolved state, probability one.
[scenario]
name = eq26-unitary
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0 2.0
[family unitary]
history = psi1 psi2
"""

BUILTIN_SOURCES["eq27-split"] = """\
# Branch the singlet into the two anticorrelated z outcomes at t1 and follow
# each branch unitarily to t2: two histories of weight 1/2 each.
[scenario]
name = eq27-split
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0 2.0
[family eq27]
history = zA1+*zB1- zA2+*zB2-
history = zA1-*zB1+ zA2-*zB2+
"""

BUILTIN_SOURCES["eq28-sixteen"] = """\
# Sixteen histories on the singlet: x_A and z_B alternatives at t1, z_A and
# x_B alternatives at t2. Histories sharing a final event interfere, so the
# family is inconsistent.
[scenario]
name = eq28-sixteen
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0 2.0
[family eq28]
history = xA1+*zB1+ zA2+*xB2+
history = xA1+*zB1+ zA2-*xB2+
history = xA1+*zB1+ zA2+*xB2-
history = xA1+*zB1+ zA2-*xB2-
history = xA1-*zB1+ zA2+*xB2+
history = xA1-*zB1+ zA2-*xB2+
history = xA1-*zB1+ zA2+*xB2-
history = xA1-*zB1+ zA2-*xB2-
history = xA1+*zB1- zA2+*xB2+
history = xA1+*zB1- zA2-*xB2+
history = xA1+*zB1- zA2+*xB2-
history = xA1+*zB1- zA2-*xB2-
history = xA1-*zB1- zA2+*xB2+
history = xA1-*zB1- zA2-*xB2+
history = xA1-*zB1- zA2+*xB2-
history = xA1-*zB1- zA2-*xB2-
"""

BUILTIN_SOURCES["eq29-unitary"] = """\
# Single-spin unitary family under a rotating field: the lone history follows
# the driven state and carries probability one.
[scenario]
name = eq29-unitary
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[schedule]
segment = 0.0 2.0 y {half_pi}
[family unitary]
history = psi1 psi2
""".format(half_pi=_HALF_PI)

BUILTIN_SOURCES["eq30-collapse-x"] = """\
# Collapse family: follow the evolved state to t1, then branch into the x
# basis at the final time. Probabilities are the Born weights 1/2, 1/2.
[scenario]
name = eq30-collapse-x
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[family collapse-x]
history = psi1 x2+
history = psi1 x2-
"""

BUILTIN_SOURCES["cat-analogue"] = """\
# Spin version of the macroscopic-superposition puzzle: in the z framework
# the x properties are not even defined; in the x framework they are an
# honest coin flip. Use 'qhist query' against each family.
[scenario]
name = cat-analogue
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0
[family z-frame]
history = z1+
history = z1-
[family x-frame]
history = x1+
history = x1-
"""

BUILTIN_SOURCES["chsh-demo"] = """\
# The four analyzer settings of the optimal CHSH arrangement, one two-time
# singlet family per settings pair (angles 0, 90, 45, 135 degrees in the
# x-z plane). Correlations follow from each family's probabilities.
[scenario]
name = chsh-demo
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0
[family ab]
history = zA1+*w(0.7853981633974483,0.0)B1+
history = zA1-*w(0.7853981633974483,0.0)B1+
history = zA1+*w(0.7853981633974483,0.0)B1-
history = zA1-*w(0.7853981633974483,0.0)B1-
[family abp]
history = zA1+*w(2.356194490192345,0.0)B1+
history = zA1-*w(2.356194490192345,0.0)B1+
history = zA1+*w(2.356194490192345,0.0)B1-
history = zA1-*w(2.356194490192345,0.0)B1-
[family apb]
history = xA1+*w(0.7853981633974483,0.0)B1+
history = xA1-*w(0.7853981633974483,0.0)B1+
history = xA1+*w(0.7853981633974483,0.0)B1-
history = xA1-*w(0.7853981633974483,0.0)B1-
[family apbp]
history = xA1+*w(2.356194490192345,0.0)B1+
history = xA1-*w(2.356194490192345,0.0)B1+
history = xA1+*w(2.356194490192345,0.0)B1-
history = xA1-*w(2.356194490192345,0.0)B1-
"""


def builtin_scenario(name: str) -> ScenarioDoc:
    if name not in BUILTIN_SOURCES:
        known = ", ".join(BUILTIN_SOURCES)
        raise ValidationError(f"no built-in scenario {name!r} (have: {known})")
    return parse_scenario(BUILTIN_SOURCES[name])
