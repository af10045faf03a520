"""The single-framework rule as an API.

A proposition (a projector at a grid time) is only answerable relative to a
family whose Boolean algebra contains it: the proposition must act as all-or-
nothing on each of the family's branch events at that time. Otherwise the
question has no answer in that framework and :func:`query` says so, rather
than inventing a number. Two propositions combine only if their projectors
commute, and two families merge only if the combined family is again
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import schedules_equal
from .histories import (
    Event,
    Family,
    History,
    QueryOnInconsistentFamily,
    check_consistency,
)
from .linalg import EPS_CONS, EPS_OP, Projector, as_projector, commutes, max_abs


class IncompatibleProperties(Exception):
    """No framework contains both propositions (their projectors do not commute)."""


class IncompatibleFrameworks(Exception):
    """Two families cannot be merged; ``reason`` is "non-commuting" or "inconsistent"."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True, eq=False)
class Proposition:
    """A property asserted at one grid time."""

    projector: Projector
    time_index: int

    def __post_init__(self):
        if self.time_index < 1:
            raise ValueError("proposition time_index must be >= 1")


@dataclass(frozen=True)
class QueryResult:
    """Either a probability or an explanation of why none exists."""

    probability: float | None
    reason: str | None = None

    @property
    def meaningful(self) -> bool:
        return self.probability is not None

    @classmethod
    def of(cls, p: float) -> "QueryResult":
        return cls(probability=float(p))

    @classmethod
    def meaningless(cls, reason: str) -> "QueryResult":
        return cls(probability=None, reason=reason)


def query(f: Family, p: Proposition, tol: float = EPS_CONS) -> QueryResult:
    """Probability of a proposition relative to a family, or Meaningless.

    The proposition belongs to the family's sample space at its time iff its
    projector commutes with every event there and absorbs each event either
    fully or not at all; the probability is then the total weight of the
    histories whose event it absorbs.
    """
    report = check_consistency(f, tol)
    if not report.consistent:
        raise QueryOnInconsistentFamily(
            "queries against an inconsistent family are meaningless"
        )
    if not 1 <= p.time_index <= f.grid.n_events:
        raise ValueError(f"proposition time index {p.time_index} outside the grid")
    if p.projector.dim != f.dim:
        raise ValueError("proposition dimension does not match the family")

    mat = p.projector.matrix
    absorbed: set[str] = set()
    for label, event in f._branches[p.time_index - 1].items():
        event_mat = event.matrix
        if not commutes(mat, event_mat, EPS_OP):
            return QueryResult.meaningless(
                f"projector {p.projector.label!r} does not commute with event "
                f"{label!r} at time {p.time_index}"
            )
        prod = mat @ event_mat
        if max_abs(prod - event_mat) <= EPS_OP:
            absorbed.add(label)
        elif max_abs(prod) > EPS_OP:
            return QueryResult.meaningless(
                f"projector {p.projector.label!r} splits event {label!r} at time "
                f"{p.time_index}; it is not a union of the family's alternatives"
            )

    total = sum(
        prob
        for h, prob in zip(f.histories, report.probabilities)
        if h.events[p.time_index - 1].label in absorbed
    )
    return QueryResult.of(total)


def conjunction(p: Proposition, q: Proposition) -> Proposition:
    """The joint property "p and q" at a shared time, when one exists."""
    if p.time_index != q.time_index:
        raise ValueError("conjunction needs propositions at the same time")
    if p.projector.dim != q.projector.dim:
        raise ValueError("conjunction needs propositions of the same dimension")
    if not commutes(p.projector.matrix, q.projector.matrix, EPS_OP):
        raise IncompatibleProperties(
            f"{p.projector.label!r} and {q.projector.label!r} do not commute; "
            "no framework contains both"
        )
    label = _joint_label(p.projector.label, q.projector.label)
    product = as_projector(p.projector.matrix @ q.projector.matrix, label)
    return Proposition(product, p.time_index)


def _joint_label(a: str, b: str) -> str:
    if a == b or not b or b == "1":
        return a or b
    if not a or a == "1":
        return b
    return f"{a}&{b}"


def refine(f: Family, g: Family, tol: float = EPS_CONS) -> Family:
    """Common refinement of two families over the same state and dynamics.

    Histories are combined pairwise by multiplying same-time events. Fails
    with ``IncompatibleFrameworks("non-commuting")`` if any same-time event
    pair does not commute, and with ``IncompatibleFrameworks("inconsistent")``
    if the product family fails the consistency check.
    """
    if f.dim != g.dim or max_abs(f.initial_state - g.initial_state) > 1e-9:
        raise ValueError("refine needs families with the same initial state")
    if f.grid.times != g.grid.times:
        raise ValueError("refine needs families on the same time grid")
    if not schedules_equal(f.schedule, g.schedule):
        raise ValueError("refine needs families with the same dynamics")

    for k, (f_events, g_events) in enumerate(zip(f._branches, g._branches), start=1):
        for fl, fp in f_events.items():
            for gl, gp in g_events.items():
                if not commutes(fp.matrix, gp.matrix, EPS_OP):
                    raise IncompatibleFrameworks(
                        "non-commuting",
                        f"events {fl!r} and {gl!r} at time {k} do not commute",
                    )

    histories: dict[tuple[str, ...], History] = {}
    for hf in f.histories:
        for hg in g.histories:
            events = []
            dead = False
            for ef, eg in zip(hf.events, hg.events):
                prod = ef.projector.matrix @ eg.projector.matrix
                if max_abs(prod) <= EPS_OP:
                    dead = True  # jointly impossible branch: drop the history
                    break
                label = _joint_label(ef.label, eg.label)
                events.append(Event(ef.time_index, as_projector(prod, label), label))
            if not dead:
                h = History(tuple(events))
                histories.setdefault(h.labels, h)

    refined = Family(f.initial_state, f.grid, f.schedule, tuple(histories.values()))
    report = check_consistency(refined, tol)
    if not report.consistent:
        raise IncompatibleFrameworks(
            "inconsistent",
            "the combined event products do not form a consistent family",
        )
    return refined
