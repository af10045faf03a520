"""The single-framework rule as an API.

A proposition is a projector at a grid time, the same object as a history's
event: ``Proposition`` is :class:`histories.Event`. It is only answerable
relative to a family whose Boolean algebra contains it: the proposition must
act as all-or-nothing on each of the family's branch events at that time.
Otherwise the question has no answer in that framework and :func:`query`
says so, rather than inventing a number. Two propositions combine only if
their projectors commute, and two families merge only if the combined family
is again consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import schedules_equal
from .histories import (
    Event,
    Family,
    History,
    QueryOnInconsistentFamily,
    _verdict,
    check_consistency,
)
from .linalg import EPS_CONS, EPS_OP, EPS_STATE, _commute, as_projector, max_abs


class IncompatibleProperties(Exception):
    """No framework contains both propositions (their projectors do not commute)."""


class IncompatibleFrameworks(Exception):
    """Two families cannot be merged; ``reason`` is "non-commuting" or "inconsistent"."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


Proposition = Event  # a property asserted at one grid time


@dataclass(frozen=True)
class QueryResult:
    """Either a probability or an explanation of why none exists."""

    probability: float | None
    reason: str | None = None

    @property
    def meaningful(self) -> bool:
        return self.probability is not None


def query(f: Family, p: Proposition, tol: float = EPS_CONS) -> QueryResult:
    """Probability of a proposition relative to a family, or Meaningless.

    The proposition belongs to the family's sample space at its time iff its
    projector commutes with every event there and absorbs each event either
    fully or not at all; the probability is then the total weight of the
    histories whose event it absorbs. The family's verdict is that of
    ``check_consistency``, read off its record by ``histories._verdict``, so
    a query makes no report and forms no D; it raises
    :class:`QueryOnInconsistentFamily` when the family is not consistent.
    """
    record, consistent = _verdict(f, tol)
    if not consistent:
        raise QueryOnInconsistentFamily(
            "queries against an inconsistent family are meaningless"
        )
    if not 1 <= p.time_index <= f.grid.n_events:
        raise ValueError(f"proposition time index {p.time_index} outside the grid")
    if p.projector.dim != f.dim:
        raise ValueError("proposition dimension does not match the family")
    return _answer(f, p, record.probabilities)


@np.errstate(over="ignore", invalid="ignore")
def _answer(f: Family, p: Proposition, probabilities: np.ndarray) -> QueryResult:
    """query's answer for a consistent family with these probabilities, and
    a proposition at one of its times and of its dim. Both matrices are a
    Projector's, already square and finite; one product P E serves the
    commutation test and the absorb/split tests, and one that overflows
    gives inf or NaN, which fails them."""
    mat = p.projector.matrix
    absorbed: set[str] = set()
    for label, event in f._branches[p.time_index - 1].items():
        event_mat = event.matrix
        prod = mat.dot(event_mat)
        if not _commute(mat, event_mat, prod):
            return QueryResult(
                None,
                f"projector {p.projector.label!r} does not commute with event "
                f"{label!r} at time {p.time_index}",
            )
        if max_abs(prod - event_mat) <= EPS_OP:
            absorbed.add(label)
        elif max_abs(prod) > EPS_OP:
            return QueryResult(
                None,
                f"projector {p.projector.label!r} splits event {label!r} at time "
                f"{p.time_index}; it is not a union of the family's alternatives",
            )

    total = sum(
        prob
        for h, prob in zip(f.histories, probabilities.tolist())
        if h.events[p.time_index - 1].label in absorbed
    )
    return QueryResult(float(total))


def conjunction(p: Proposition, q: Proposition) -> Proposition:
    """The joint property "p and q" at a shared time, when one exists."""
    if p.time_index != q.time_index:
        raise ValueError("conjunction needs propositions at the same time")
    if p.projector.dim != q.projector.dim:
        raise ValueError("conjunction needs propositions of the same dimension")
    # both matrices are a Projector's, as in query: one product P Q serves
    # the commutation test and the joint projector
    pm, qm = p.projector.matrix, q.projector.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        product = pm.dot(qm)
        compatible = _commute(pm, qm, product)
    if not compatible:
        raise IncompatibleProperties(
            f"{p.projector.label!r} and {q.projector.label!r} do not commute; "
            "no framework contains both"
        )
    label = _joint_label(p.projector.label, q.projector.label)
    return Event(as_projector(product, label), p.time_index)


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
    if f.dim != g.dim or max_abs(f.initial_state - g.initial_state) > EPS_STATE:
        raise ValueError("refine needs families with the same initial state")
    if f.grid.times != g.grid.times:
        raise ValueError("refine needs families on the same time grid")
    if not schedules_equal(f.schedule, g.schedule):
        raise ValueError("refine needs families with the same dynamics")

    # the events' matrices are certified and of one dim, as in query. Each
    # same-time product is formed once, by its commutation test: per event
    # time, (f-label, g-label) -> f's event times g's
    tables: list[dict[tuple[str, str], np.ndarray]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (f_events, g_events) in enumerate(zip(f._branches, g._branches), start=1):
            table = {}
            for fl, fp in f_events.items():
                for gl, gp in g_events.items():
                    prod = table[fl, gl] = fp.matrix @ gp.matrix
                    if not _commute(fp.matrix, gp.matrix, prod):
                        raise IncompatibleFrameworks(
                            "non-commuting",
                            f"events {fl!r} and {gl!r} at time {k} do not commute",
                        )
            tables.append(table)

    # one certified product per (time, f-label, g-label), made on first use;
    # None marks a jointly impossible pair
    products: dict[tuple[int, str, str], Event | None] = {}
    histories: dict[tuple[str, ...], History] = {}
    times = range(1, len(tables) + 1)
    for hf in f.histories:
        for hg in g.histories:
            events = []
            for k, table, fl, gl in zip(times, tables, hf.labels, hg.labels):
                key = (k, fl, gl)
                if key not in products:
                    prod = table[fl, gl]
                    products[key] = (
                        Event(as_projector(prod, _joint_label(fl, gl)), k)
                        if max_abs(prod) > EPS_OP else None
                    )
                if products[key] is None:
                    break  # jointly impossible branch: drop the history
                events.append(products[key])
            else:
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
