"""Projector histories over a pure initial state, and the consistency check
that decides whether a family of them supports Boolean probabilities.

A history assigns one projector (an "event") to each grid time t1..tn; the
initial condition at t0 is a pure state. Its amplitude is carried by the
chain ket

    |alpha> = P^(alpha_n) ... P^(alpha_1) |psi0>,

where each P^ is the event projector conjugated back to t0 by the propagator
(Heisenberg picture). The squared norm <alpha|alpha> is the history's
probability, and <alpha|beta> is the overlap of two histories in the same
family.

A family is a valid sample space (a "framework") when two conditions hold:

* exhaustiveness: walking the tree of event prefixes, the events branching
  off any node must preserve the state that reaches that node, i.e.
  (sum_c P^_c) |chi> = |chi> for the node's chain ket |chi>. For families
  that branch over complete bases this is the usual requirement that the
  branch projectors sum to the identity; stating it on the reachable state
  also admits families that follow a single unitarily evolving state.
* orthogonality: all pairwise overlaps <alpha|beta> vanish, so the histories
  do not interfere.

Both come from one walk of that prefix tree. Each node's ket is multiplied
once, by the Heisenberg projectors of the events branching off it; the
leaves are the N chain kets, stacked as the rows of K, and the exhaustiveness
test is taken at the inner nodes on the same pass. All overlaps then follow
as one matrix, the decoherence functional D = K^dag K with
D[a, b] = <alpha_a|alpha_b> (Gell-Mann & Hartle, Phys. Rev. D 47, 3345
(1993)); its real diagonal holds the probabilities, and the family is
orthogonal when no entry above the diagonal exceeds ``tol`` (Griffiths,
J. Stat. Phys. 36, 219 (1984)).

Probabilities of a family that fails the check are quantum-mechanically
meaningless; asking for them raises :class:`QueryOnInconsistentFamily`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Schedule, TimeGrid, propagator
from .linalg import (
    EPS_CONS,
    EPS_NORM,
    EPS_OP,
    Projector,
    as_state,
    identity_projector,
    max_abs,
    projector_onto,
)


class QueryOnInconsistentFamily(Exception):
    """Raised when probabilities are requested from an inconsistent family."""


@dataclass(frozen=True, eq=False)
class Event:
    """One projector at one grid time. The label identifies the event; two
    events at the same time with equal labels must carry equal matrices."""

    time_index: int
    projector: Projector
    label: str

    def __post_init__(self):
        if self.time_index < 1:
            raise ValueError("event time_index must be >= 1 (t0 holds the initial state)")


def event(time_index: int, projector: Projector, label: str | None = None) -> Event:
    return Event(time_index, projector, projector.label if label is None else label)


@dataclass(frozen=True, eq=False)
class History:
    """Ordered events, one per grid time t1..tn (identity events allowed)."""

    events: tuple[Event, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(ev.label for ev in self.events)


@dataclass(frozen=True, eq=False)
class Family:
    """A candidate framework: shared initial state, grid and dynamics, plus
    the list of member histories. Construction validates shape only; whether
    the family is actually consistent is the verdict of
    :func:`check_consistency`."""

    initial_state: np.ndarray = field(repr=False)
    grid: TimeGrid
    schedule: Schedule
    histories: tuple[History, ...]
    # per event time k (position k - 1): the distinct events, {label: projector},
    # in order of first appearance
    _branches: tuple[dict[str, Projector], ...] = field(init=False, repr=False)

    def __post_init__(self):
        state = as_state(self.initial_state).copy()
        if not abs(np.linalg.norm(state) - 1.0) <= EPS_NORM:
            raise ValueError("initial state must be normalized")
        state.setflags(write=False)
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "histories", tuple(self.histories))

        dim = state.shape[0]
        if self.schedule.dim != dim:
            raise ValueError(f"schedule dim {self.schedule.dim} != state dim {dim}")
        n = self.grid.n_events
        if n < 1:
            raise ValueError("family grid needs at least one event time after t0")
        if not self.histories:
            raise ValueError("family needs at least one history")

        branches = tuple({} for _ in range(n))
        seen: set[tuple[str, ...]] = set()
        for h in self.histories:
            if len(h.events) != n:
                raise ValueError(
                    f"history {h.labels} has {len(h.events)} events, grid has {n} event times"
                )
            for k, ev in enumerate(h.events, start=1):
                if ev.time_index != k:
                    raise ValueError(
                        f"history {h.labels}: event {k} carries time index {ev.time_index}"
                    )
                if ev.projector.dim != dim:
                    raise ValueError(
                        f"event {ev.label!r} has dim {ev.projector.dim}, state has dim {dim}"
                    )
                known = branches[k - 1].setdefault(ev.label, ev.projector)
                if max_abs(known.matrix - ev.projector.matrix) > EPS_OP:
                    raise ValueError(
                        f"label {ev.label!r} at time {k} bound to two different projectors"
                    )
            if h.labels in seen:
                raise ValueError(f"duplicate history {h.labels}")
            seen.add(h.labels)
        object.__setattr__(self, "_branches", branches)

    @property
    def dim(self) -> int:
        return self.initial_state.shape[0]

    def history_index(self, h: History) -> int:
        """0-based position of a history, matched by its label sequence."""
        for i, known in enumerate(self.histories):
            if known.labels == h.labels:
                return i
        raise ValueError(f"history {h.labels} is not part of this family")


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict of the consistency check.

    ``violating_pairs`` lists (i, j, overlap) with 1-based history indices,
    i < j, sorted. ``probabilities`` holds the diagonal chain-ket norms for
    every history (diagnostic even when the verdict is negative; only a
    consistent family may interpret them as probabilities)."""

    consistent: bool
    exhaustive: bool
    violating_pairs: tuple[tuple[int, int, complex], ...]
    probabilities: tuple[float, ...]
    probability_sum: float


def _chain_kets(f: Family, tol: float = EPS_CONS) -> tuple[np.ndarray, bool]:
    """One walk of the event-prefix tree: the N x dim array of chain kets, one
    row per history, and whether every live node passes the exhaustiveness
    test. A node whose ket has norm <= tol is dead: it carries no probability,
    so neither it nor anything below it is tested, but its kets are still
    computed."""
    t0 = f.grid.times[0]
    hei = []
    for k, branches in enumerate(f._branches, start=1):
        u = propagator(f.schedule, t0, f.grid.time_at(k))
        hei.append({label: u.conj().T @ p.matrix @ u for label, p in branches.items()})
    n = f.grid.n_events
    kets = np.empty((len(f.histories), f.dim), dtype=complex)
    exhaustive = True

    def walk(indices: list[int], depth: int, chi: np.ndarray, dead: bool) -> None:
        nonlocal exhaustive
        if depth == n:
            kets[indices[0]] = chi  # labels are unique, so a leaf is one history
            return
        groups: dict[str, list[int]] = {}
        for i in indices:
            groups.setdefault(f.histories[i].events[depth].label, []).append(i)
        children = [(hei[depth][label] @ chi, idx) for label, idx in groups.items()]
        dead = dead or np.linalg.norm(chi) <= tol
        if exhaustive and not dead:
            covered = sum(child for child, _ in children)
            exhaustive = not np.linalg.norm(covered - chi) > tol  # a NaN residual passes
        for child, idx in children:
            walk(idx, depth + 1, child, dead)

    walk(list(range(len(f.histories))), 0, f.initial_state, False)
    return kets, exhaustive


def chain_ket(h: History, f: Family) -> np.ndarray:
    """|alpha> = P^(alpha_n) ... P^(alpha_1)|psi0>; may be zero, is not normalized."""
    return _chain_kets(f)[0][f.history_index(h)]


def history_overlap(h1: History, h2: History, f: Family) -> complex:
    """Chain-ket inner product <alpha|beta>, conjugate-symmetric in (h1, h2)."""
    i, j = f.history_index(h1), f.history_index(h2)
    kets = _chain_kets(f)[0]
    return complex(np.vdot(kets[i], kets[j]))


def check_consistency(f: Family, tol: float = EPS_CONS) -> ConsistencyReport:
    """Decide whether a family is a consistent framework.

    Returns a verdict for every family: inconsistent families are legal
    values, they just cannot be assigned probabilities. The only raise is a
    ValueError when ``tol`` is not finite and positive.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    kets, exhaustive = _chain_kets(f, tol)
    overlaps = kets.conj() @ kets.T  # D = K^dag K
    probabilities = tuple(overlaps.diagonal().real.tolist())
    violating = tuple(
        (i + 1, j + 1, complex(overlaps[i, j]))
        for i, j in np.argwhere(np.triu(np.abs(overlaps) > tol, 1)).tolist()
    )
    probability_sum = float(sum(probabilities))
    # for exhaustive + orthogonal families the weights sum to <psi0|psi0>;
    # the explicit conjunct keeps the report's invariant airtight at loose tol
    consistent = exhaustive and not violating and abs(probability_sum - 1.0) <= max(tol, EPS_CONS)
    return ConsistencyReport(
        consistent=consistent,
        exhaustive=exhaustive,
        violating_pairs=violating,
        probabilities=probabilities,
        probability_sum=probability_sum,
    )


def history_probability(h: History, f: Family, tol: float = EPS_CONS) -> float:
    """Generalized Born weight <alpha|alpha> of one history of a consistent family."""
    idx = f.history_index(h)
    report = check_consistency(f, tol)
    if not report.consistent:
        raise QueryOnInconsistentFamily(
            "probabilities of an inconsistent family are meaningless"
        )
    return report.probabilities[idx]


def unitary_family(psi0, grid: TimeGrid, schedule: Schedule) -> Family:
    """The single history that follows the Schroedinger-evolved state.

    Events are the projectors onto U(t0->tk)|psi0>, labelled "psi1".."psin";
    the family is consistent with probability 1 by construction.
    """
    psi0 = as_state(psi0)
    t0 = grid.times[0]
    events = []
    for k in range(1, grid.n_events + 1):
        state_k = propagator(schedule, t0, grid.time_at(k)) @ psi0
        events.append(event(k, projector_onto(state_k, f"psi{k}")))
    return Family(psi0, grid, schedule, (History(tuple(events)),))


def collapse_family(
    psi0,
    grid: TimeGrid,
    schedule: Schedule,
    observable_basis,
    labels: tuple[str, ...] | None = None,
) -> Family:
    """Follow the evolved state up to t_{n-1}, then branch into an eigenbasis.

    ``observable_basis`` must be a complete orthonormal basis of the space;
    one history per basis vector. The family is consistent, with final-time
    Born weights as probabilities.
    """
    psi0 = as_state(psi0)
    basis = [as_state(v) for v in observable_basis]
    dim = psi0.shape[0]
    if len(basis) != dim:
        raise ValueError(f"observable basis has {len(basis)} vectors, need {dim}")
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    if max_abs(gram - np.eye(dim)) > 1e-10:
        raise ValueError("observable basis is not orthonormal")
    if labels is None:
        labels = tuple(f"e{k}" for k in range(dim))

    n = grid.n_events
    t0 = grid.times[0]
    shared = []
    for k in range(1, n):
        state_k = propagator(schedule, t0, grid.time_at(k)) @ psi0
        shared.append(event(k, projector_onto(state_k, f"psi{k}")))
    histories = []
    for vec, label in zip(basis, labels):
        final = event(n, projector_onto(vec, label))
        histories.append(History(tuple(shared) + (final,)))
    return Family(psi0, grid, schedule, tuple(histories))


def replace_events_with_identity(f: Family, time_index: int) -> Family:
    """Coarse-grain a family by forgetting the events at one time.

    Every event at ``time_index`` becomes the identity (label "1"), and
    histories that stop being distinguishable are merged.
    """
    if not 1 <= time_index <= f.grid.n_events:
        raise ValueError(f"time index {time_index} outside 1..{f.grid.n_events}")
    one = identity_projector(f.dim)
    merged: dict[tuple[str, ...], History] = {}
    for h in f.histories:
        events = tuple(
            event(ev.time_index, one) if ev.time_index == time_index else ev
            for ev in h.events
        )
        new = History(events)
        merged.setdefault(new.labels, new)
    return Family(f.initial_state, f.grid, f.schedule, tuple(merged.values()))


def family_from_event_table(
    psi0,
    grid: TimeGrid,
    schedule: Schedule,
    table: list[list[tuple[str, Projector | None]]],
) -> Family:
    """Build a family from per-history rows of (label, projector) pairs.

    ``None`` stands for the identity projector. A convenience for tests and
    scenario construction; rows follow the grid's event times in order.
    """
    psi0 = as_state(psi0)
    one = identity_projector(psi0.shape[0])
    histories = []
    for row in table:
        events = []
        for k, (label, proj) in enumerate(row, start=1):
            proj = one if proj is None else proj
            events.append(Event(k, proj, label))
        histories.append(History(tuple(events)))
    return Family(psi0, grid, schedule, tuple(histories))
