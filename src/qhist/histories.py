"""Projector histories over a pure initial state, and the consistency check
that decides whether a family of them supports Boolean probabilities.

A history assigns one :class:`Event` (a projector, whose label names the
event) to each grid time t1..tn; the initial condition at t0 is a pure
state. Its amplitude is carried by the chain ket

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

Both come from one walk of that prefix tree. A Family lays the tree out when
it is made, one event time at a time (``Family._tree``), and the walk reads
it in the same order: at each event time it conjugates that time's distinct
events back to t0 at once, then forms every ket of the level in one batched
product of each node's Heisenberg event with its parent's ket. The last
level's kets are the N chain kets, the rows of K. For each inner node with
ket |chi> the walk also finds ||chi|| and the residual
||sum_c P^_c chi - chi|| over its children, and keeps of them one number,
``max_residual`` (see :func:`_max_residual`). All overlaps then follow as one
matrix, the decoherence functional D = K^dag K with D[a, b] =
<alpha_a|alpha_b> (Gell-Mann & Hartle, Phys. Rev. D 47, 3345 (1993)): its
real diagonal holds the probabilities, and the family is orthogonal when no
entry above the diagonal exceeds ``tol`` (Griffiths, J. Stat. Phys. 36, 219
(1984)). The walk forms D once and keeps what it says before any ``tol``:
the probabilities, their sum and the largest |D(i, j)| over i < j. That
record depends only on the family, so the family keeps it from its first
read (``Family._walked``): every later check, at any ``tol``, and every read
calls no propagator and forms no ket. One rule, :func:`_verdict`, reads
"consistent at ``tol``" off the record as three float comparisons: the
family is exhaustive when ``max_residual`` is within ``tol``, orthogonal
when the largest entry is, and its weights sum to 1 within
``max(tol, EPS_CONS)``. :func:`check_consistency`,
:func:`history_probability` and ``frameworks.query`` all take their verdict
from it. Only :func:`check_consistency` forms D again, to list the pairs,
and only when the largest entry is not within ``tol``; so a read of a
consistent family, and every Born weight or query, forms no D.
:func:`chain_kets` returns K; the verdict keeps its pairs as an
:class:`OverlapPairs`, which the report writes as is.

Probabilities of a family that fails the check are quantum-mechanically
meaningless; asking for them raises :class:`QueryOnInconsistentFamily`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import Schedule, TimeGrid, evolved_state, propagator
from .linalg import (
    EPS_CONS,
    EPS_NORM,
    EPS_OP,
    Projector,
    _norm,
    as_state,
    identity_projector,
    max_abs,
    projector_onto,
)


class QueryOnInconsistentFamily(Exception):
    """Raised when probabilities are requested from an inconsistent family."""


@dataclass(frozen=True, eq=False)
class Event:
    """One projector at one grid time t1..tn, labelled by its projector: a
    history's event, or a proposition (``frameworks.Proposition`` is this
    class). Two events at one time with equal labels must carry equal matrices."""

    projector: Projector
    time_index: int
    label: str = field(init=False, repr=False)  # stored: Family reads it per event

    def __post_init__(self):
        if self.time_index < 1:
            raise ValueError("time_index must be >= 1 (t0 holds the initial state)")
        object.__setattr__(self, "label", self.projector.label)


@dataclass(frozen=True, eq=False)
class History:
    """Ordered events, one per grid time t1..tn (identity events allowed),
    and their labels, stored once."""

    events: tuple[Event, ...]
    labels: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "labels", tuple(ev.label for ev in events))


def _initial_state(psi0) -> np.ndarray:
    """psi0 as a state vector; one with non-finite entries has no norm, and
    is rejected as not normalized."""
    arr = np.asarray(psi0, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("initial state must be normalized: it has non-finite entries")
    return as_state(arr)


@dataclass(frozen=True, eq=False)
class Family:
    """A candidate framework: shared initial state, grid and dynamics, plus
    the list of member histories. Construction validates shape only; whether
    the family is actually consistent is the verdict of
    :func:`check_consistency`. The family walks its event-prefix tree on
    the first read and keeps that read-only record, with what D says before
    any ``tol``; a family made from this one (by ``dataclasses.replace``,
    ``refine`` or ``replace_events_with_identity``) walks its own."""

    initial_state: np.ndarray = field(repr=False)
    grid: TimeGrid
    schedule: Schedule
    histories: tuple[History, ...]
    # per event time k (position k - 1): the distinct events, {label: projector},
    # in order of first appearance
    _branches: tuple[dict[str, Projector], ...] = field(init=False, repr=False)
    # label sequence -> position of the history that carries it
    _positions: dict[tuple[str, ...], int] = field(init=False, repr=False)
    # the event-prefix tree: node 0 is the root, and ids are given as nodes are
    # made, one level per event time, each level visiting the histories in
    # order. So the nodes at t1 precede those at t2, a parent's children keep
    # the histories' order, and the nodes at t_n are the histories, in order.
    # Held as (parent, code, starts): for node i + 1, its parent's id and the
    # position of its event in its time's _branches; then the first id of each
    # level, and the node count.
    _tree: tuple[np.ndarray, np.ndarray, tuple[int, ...]] = field(init=False, repr=False)
    # the walk of _tree and what its D says, made on the first read and kept (see _walk)
    _walked: _Walk | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        state = _initial_state(self.initial_state).copy()
        if not abs(_norm(state) - 1.0) <= EPS_NORM:
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

        for h in self.histories:
            if len(h.events) != n:
                raise ValueError(
                    f"history {h.labels} has {len(h.events)} events, grid has {n} event times"
                )
        branches = tuple({} for _ in range(n))
        parent, code, starts = [], [], [0, 1]  # as in _tree, filled level by level
        above = [0] * len(self.histories)  # each history's node at the level above
        for k, level in enumerate(branches, start=1):
            codes: dict[str, int] = {}  # label -> its position in level
            nodes: dict[tuple[int, str], int] = {}  # (parent id, label) -> node id
            for i, h in enumerate(self.histories):
                ev = h.events[k - 1]
                if ev.time_index != k:
                    raise ValueError(
                        f"history {h.labels}: event {k} carries time index {ev.time_index}"
                    )
                label, projector = ev.label, ev.projector
                known = level.get(label)
                if known is not projector:  # else one certified object shared by many histories
                    if projector.dim != dim:
                        raise ValueError(
                            f"event {label!r} has dim {projector.dim}, state has dim {dim}"
                        )
                    if known is None:
                        level[label] = projector
                        codes[label] = len(codes)
                    elif max_abs(known.matrix - projector.matrix) > EPS_OP:
                        raise ValueError(
                            f"label {label!r} at time {k} bound to two different projectors"
                        )
                node = nodes.get((above[i], label))
                if node is None:  # a new node takes the next id
                    node = nodes[above[i], label] = len(parent) + 1
                    parent.append(above[i])
                    code.append(codes[label])
                elif k == n:  # at t_n a node is a whole history
                    raise ValueError(f"duplicate history {h.labels}")
                above[i] = node
            starts.append(len(parent) + 1)
        object.__setattr__(self, "_branches", branches)
        object.__setattr__(self, "_positions", {h.labels: i for i, h in enumerate(self.histories)})
        tree = tuple(_read_only(np.array(ids, dtype=np.intp)) for ids in (parent, code))
        object.__setattr__(self, "_tree", (*tree, tuple(starts)))

    @property
    def dim(self) -> int:
        return self.initial_state.shape[0]

    def history_index(self, h: History) -> int:
        """0-based position of a history, matched by its label sequence."""
        i = self._positions.get(h.labels)
        if i is None:
            raise ValueError(f"history {h.labels} is not part of this family")
        return i


class OverlapPairs:
    """Interfering pairs of histories as three arrays: the 1-based indices
    ``i`` < ``j``, sorted, and the complex ``overlaps`` D[i - 1, j - 1]. It
    reads as the sequence of (i, j, overlap) tuples, made only when a row is
    read; ``len()`` and slicing touch no row. It equals an OverlapPairs with
    equal arrays and a tuple or list with equal rows, its repr is that of
    the tuple of its rows, and it is not hashable."""

    __slots__ = ("i", "j", "overlaps")
    __hash__ = None

    def __init__(self, i: np.ndarray, j: np.ndarray, overlaps: np.ndarray):
        self.i, self.j, self.overlaps = i, j, overlaps

    def __len__(self) -> int:
        return len(self.i)

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist(), self.overlaps.tolist())

    def __getitem__(self, k):
        if isinstance(k, slice):
            return OverlapPairs(self.i[k], self.j[k], self.overlaps[k])
        k = range(len(self))[k]
        return next(iter(self[k:k + 1]))

    def __eq__(self, other) -> bool:
        if isinstance(other, OverlapPairs):
            return all(map(np.array_equal, (self.i, self.j, self.overlaps),
                           (other.i, other.j, other.overlaps)))
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Verdict of the consistency check.

    ``violating_pairs`` lists (i, j, overlap) with 1-based history indices,
    i < j, sorted; it keeps them as arrays (see :class:`OverlapPairs`).
    ``probabilities`` is the read-only float array of the diagonal chain-ket
    norms for every history (diagnostic even when the verdict is negative;
    only a consistent family may interpret them as probabilities).

    Two reports are equal when their flags, pairs, probabilities and sum
    are, numbers compared as floats. A report is not hashable."""

    consistent: bool
    exhaustive: bool
    violating_pairs: OverlapPairs
    probabilities: np.ndarray
    probability_sum: float

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConsistencyReport):
            return NotImplemented
        return (
            (self.consistent, self.exhaustive, self.probability_sum)
            == (other.consistent, other.exhaustive, other.probability_sum)
            and self.violating_pairs == other.violating_pairs
            and np.array_equal(self.probabilities, other.probabilities)
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the pairs of an orthogonal family: empty columns, in the dtypes of found ones
_NO_PAIRS = OverlapPairs(*(_read_only(np.empty(0, dtype=t))
                            for t in (np.intp, np.intp, complex)))


def _norms(v: np.ndarray) -> np.ndarray:
    """||row|| of each row of v, each summed as np.vdot sums one vector."""
    return np.sqrt(np.matmul(v.conj()[:, None, :], v[:, :, None])[:, 0, 0].real)


def _max_residual(norms: np.ndarray, residuals: np.ndarray, parent: np.ndarray,
                  starts: tuple[int, ...]) -> float:
    """Exhaustiveness of the inner nodes (tree and ids as in ``Family._tree``)
    as one number, exhaustive at ``tol`` exactly when it is <= tol: a node's
    residual counts only up to its reach, the smallest norm on its path from
    the root, as at any tol >= reach it is dead and not tested. fmin skips
    NaN, so a NaN norm is never dead; max keeps NaN where both are NaN."""
    reach = norms.copy()
    for lo, hi in zip(starts[1:-2], starts[2:-1]):  # t1..t_{n-1}, in order
        reach[lo:hi] = np.fmin(reach[lo:hi], reach[parent[lo - 1:hi - 1]])
    return float(np.fmin(residuals, reach).max())


@dataclass(frozen=True, eq=False)
class _Walk:
    """What one walk of the event-prefix tree finds, before any ``tol`` is
    applied: K, and ``max_residual`` (see :func:`_max_residual`). Made from
    them, it forms D = K^dag K once and keeps what D says: the
    probabilities, D's real diagonal, their sum, and ``max_offdiag``, the
    largest |D(i, j)| over i < j, which is NaN if any such entry is NaN and
    0.0 for a single history. Every array is read-only."""

    kets: np.ndarray
    max_residual: float
    probabilities: np.ndarray = field(init=False)
    probability_sum: float = field(init=False)
    max_offdiag: float = field(init=False)

    def __post_init__(self):
        overlaps = self.kets.conj() @ self.kets.T  # D = K^dag K
        probabilities = _read_only(overlaps.diagonal().real.copy())
        ids = np.arange(len(overlaps))
        largest = np.abs(overlaps).max(initial=0.0, where=ids[:, None] < ids)  # i < j
        object.__setattr__(self, "probabilities", probabilities)
        object.__setattr__(self, "probability_sum", float(sum(probabilities.tolist())))
        object.__setattr__(self, "max_offdiag", float(largest))


def _walk(f: Family) -> _Walk:
    """The family's walk of its event-prefix tree, one event time at a time:
    conjugate that time's events back to t0 (one propagator), then form the
    level's kets, their parents' kets times their events' Heisenberg
    projectors, in one batched product; then reduce the inner nodes to
    ``max_residual`` and form D once. The first call walks and keeps the
    read-only record on the family; a walk that raises keeps nothing."""
    if f._walked is None:
        parent, code, starts = f._tree
        kets = np.empty((starts[-1], f.dim), dtype=complex)
        kets[0] = f.initial_state
        t0 = f.grid.times[0]
        for k, branches in enumerate(f._branches, start=1):
            u = propagator(f.schedule, t0, f.grid.time_at(k))
            hei = u.conj().T @ np.stack([p.matrix for p in branches.values()]) @ u
            lo, hi = starts[k], starts[k + 1]
            at = slice(lo - 1, hi - 1)
            kets[lo:hi] = np.matmul(hei[code[at]], kets[parent[at]][..., None])[..., 0]
        inner = starts[-2]
        chi = kets[:inner]
        total = np.zeros_like(chi)
        np.add.at(total, parent, kets[1:])  # each node's children, in order, as sum() adds them
        max_residual = _max_residual(_norms(chi), _norms(total - chi), parent, starts)
        record = _Walk(_read_only(kets[inner:].copy()), max_residual)
        object.__setattr__(f, "_walked", record)
    return f._walked


def chain_kets(f: Family) -> np.ndarray:
    """K: the read-only N x dim array whose row a is the chain ket
    |alpha_a> = P^(alpha_n) ... P^(alpha_1)|psi0> of ``f.histories[a]`` (may
    be zero, is not normalized). The family keeps it: every call returns the
    same array. Overlaps are K.conj() @ K.T."""
    return _walk(f).kets


def _violating_pairs(kets: np.ndarray, tol: float) -> OverlapPairs:
    """The pairs i < j of D = K^dag K, for K given as ``kets``, whose
    |D(i, j)| is not within ``tol`` (NaN is not), row by row."""
    overlaps = kets.conj() @ kets.T
    rows, cols = np.nonzero(np.triu(~(np.abs(overlaps) <= tol), 1))
    return OverlapPairs(*map(_read_only, (rows + 1, cols + 1, overlaps[rows, cols])))


def _verdict(f: Family, tol: float) -> tuple[_Walk, bool]:
    """The family's record (see :func:`_walk`) and whether the family is
    consistent at ``tol``: exhaustive (``max_residual`` within ``tol``),
    orthogonal (``max_offdiag`` within ``tol``; NaN is not) and with weights
    that sum to 1 within ``max(tol, EPS_CONS)``. For exhaustive, orthogonal
    families the weights sum to <psi0|psi0>; the explicit conjunct keeps the
    verdict airtight at a loose ``tol``. Raises ValueError, before any walk,
    when ``tol`` is not finite and positive."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    record = _walk(f)
    consistent = (record.max_residual <= tol and record.max_offdiag <= tol
                  and abs(record.probability_sum - 1.0) <= max(tol, EPS_CONS))
    return record, consistent


def check_consistency(f: Family, tol: float = EPS_CONS) -> ConsistencyReport:
    """Decide whether a family is a consistent framework.

    Returns a verdict for every family: inconsistent families are legal
    values, they just cannot be assigned probabilities. The verdict lists
    the pairs i < j with |D(i, j)| above ``tol`` (or NaN). Its flags are
    read off the family's record (see :func:`_walk`), at any ``tol``: the
    family is exhaustive when the record's ``max_residual`` is within
    ``tol``, and consistent by the one rule of :func:`_verdict`. D is formed
    again, to list the pairs, only when the record's largest |D(i, j)| over
    i < j is not within ``tol``, so a read of a consistent family forms no
    D. It raises ValueError when ``tol`` is not finite and positive, or when
    the dynamics turn a state by a phase too large to represent (see
    :func:`unitary_exp`).
    """
    record, consistent = _verdict(f, tol)
    if record.max_offdiag <= tol:
        violating = _NO_PAIRS
    else:
        violating = _violating_pairs(record.kets, tol)
    return ConsistencyReport(
        consistent=consistent,
        exhaustive=record.max_residual <= tol,
        violating_pairs=violating,
        probabilities=record.probabilities,
        probability_sum=record.probability_sum,
    )


def history_probability(h: History, f: Family, tol: float = EPS_CONS) -> float:
    """Generalized Born weight <alpha|alpha> of one history of a consistent
    family. The verdict is :func:`check_consistency`'s, taken from
    :func:`_verdict`, so the read makes no report and forms no D; it raises
    :class:`QueryOnInconsistentFamily` when the family is not consistent."""
    idx = f.history_index(h)
    record, consistent = _verdict(f, tol)
    if not consistent:
        raise QueryOnInconsistentFamily(
            "probabilities of an inconsistent family are meaningless"
        )
    return float(record.probabilities[idx])


def unitary_family(psi0, grid: TimeGrid, schedule: Schedule) -> Family:
    """The single history that follows the Schroedinger-evolved state.

    Events are the projectors onto U(t0->tk)|psi0>, labelled "psi1".."psin";
    the family is consistent with probability 1 by construction.
    """
    psi0 = _initial_state(psi0)
    events = _unitary_events(psi0, grid, schedule, grid.n_events)
    return Family(psi0, grid, schedule, (History(events),))


def _unitary_events(psi0, grid: TimeGrid, schedule: Schedule, n: int) -> tuple[Event, ...]:
    return tuple(
        Event(projector_onto(evolved_state(schedule, grid, psi0, k), f"psi{k}"), k)
        for k in range(1, n + 1)
    )


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
    psi0 = _initial_state(psi0)
    vectors = [np.asarray(v, dtype=complex) for v in observable_basis]
    if not all(np.isfinite(v).all() for v in vectors):
        raise ValueError("observable basis is not orthonormal: it has non-finite entries")
    basis = [as_state(v) for v in vectors]
    dim = psi0.shape[0]
    if len(basis) != dim:
        raise ValueError(f"observable basis has {len(basis)} vectors, need {dim}")
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    if not max_abs(gram - np.eye(dim)) <= EPS_OP:  # NaN entries fail too
        raise ValueError("observable basis is not orthonormal")
    if labels is None:
        labels = tuple(f"e{k}" for k in range(dim))
    elif len(labels) != dim:
        raise ValueError(f"collapse_family has {len(labels)} labels for {dim} basis vectors")

    shared = _unitary_events(psi0, grid, schedule, grid.n_events - 1)
    histories = []
    for vec, label in zip(basis, labels):
        final = Event(projector_onto(vec, label), grid.n_events)
        histories.append(History(shared + (final,)))
    return Family(psi0, grid, schedule, tuple(histories))


def replace_events_with_identity(f: Family, time_index: int) -> Family:
    """Coarse-grain a family by forgetting the events at one time.

    Every event at ``time_index`` becomes the identity (label "1"), and
    histories that stop being distinguishable are merged.
    """
    if not 1 <= time_index <= f.grid.n_events:
        raise ValueError(f"time index {time_index} outside 1..{f.grid.n_events}")
    one = Event(identity_projector(f.dim), time_index)
    merged: dict[tuple[str, ...], History] = {}
    for h in f.histories:
        events = tuple(one if ev.time_index == time_index else ev for ev in h.events)
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

    ``None`` stands for the identity projector; rows follow the grid's event
    times in order. Each event's projector is relabelled with its row label.
    """
    psi0 = _initial_state(psi0)
    one = identity_projector(psi0.shape[0])
    histories = []
    for row in table:
        events = []
        for k, (label, proj) in enumerate(row, start=1):
            proj = one if proj is None else proj
            events.append(Event(replace(proj, label=label), k))
        histories.append(History(tuple(events)))
    return Family(psi0, grid, schedule, tuple(histories))
