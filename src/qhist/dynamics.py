"""Piecewise-constant Hamiltonian schedules and the propagators they generate.

Time between grid points that no segment covers evolves freely (H = 0), which
is the default for an isolated spin. hbar = 1 throughout; times and couplings
are raw dimensionless numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS_OP, _is_hermitian, as_operator, identity, max_abs, unitary_exp


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite times t0 < t1 < ... < tn; events live at t1..tn."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) < 1:
            raise ValueError("a time grid needs at least one time")
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"grid times must be finite: {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"grid times must be strictly increasing: {times}")
        object.__setattr__(self, "times", times)

    @property
    def n_events(self) -> int:
        return len(self.times) - 1

    def time_at(self, index: int) -> float:
        if not 0 <= index < len(self.times):
            raise ValueError(f"time index {index} outside grid of {len(self.times)} times")
        return self.times[index]


@dataclass(frozen=True, eq=False)
class Segment:
    """Constant Hamiltonian acting on the half-open interval [t_start, t_end)."""

    t_start: float
    t_end: float
    hamiltonian: np.ndarray = field(repr=False)
    # the Hamiltonian's eigh, made on first use and kept (see _spectrum)
    _eigh: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(f"segment interval [{self.t_start}, {self.t_end}) is empty")
        h = as_operator(self.hamiltonian).copy()
        if not _is_hermitian(h):
            raise ValueError("segment Hamiltonian must be self-adjoint")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Non-overlapping Hamiltonian segments over a Hilbert space of a fixed dim."""

    dim: int
    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.t_start))
        for seg in segs:
            if seg.hamiltonian.shape[0] != self.dim:
                raise ValueError(
                    f"segment Hamiltonian dim {seg.hamiltonian.shape[0]} != schedule dim {self.dim}"
                )
        for a, b in zip(segs, segs[1:]):
            if b.t_start < a.t_end:
                raise ValueError(
                    f"overlapping segments: [{a.t_start}, {a.t_end}) and [{b.t_start}, {b.t_end})"
                )
        object.__setattr__(self, "segments", segs)

    @classmethod
    def free(cls, dim: int) -> "Schedule":
        return cls(dim=dim)


def schedules_equal(a: Schedule, b: Schedule) -> bool:
    if a.dim != b.dim or len(a.segments) != len(b.segments):
        return False
    for sa, sb in zip(a.segments, b.segments):
        if sa.t_start != sb.t_start or sa.t_end != sb.t_end:
            return False
        if max_abs(sa.hamiltonian - sb.hamiltonian) > EPS_OP:
            return False
    return True


def _spectrum(seg: Segment) -> tuple[np.ndarray, np.ndarray]:
    """(w, vecs), the ``np.linalg.eigh`` of a segment's Hamiltonian,
    read-only. The first call diagonalizes and keeps it on the segment; a
    segment made from this one (by ``dataclasses.replace``) computes its own."""
    if seg._eigh is None:
        w, vecs = np.linalg.eigh(seg.hamiltonian)
        w.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(seg, "_eigh", (w, vecs))
    return seg._eigh


def propagator(schedule: Schedule, t_a: float, t_b: float) -> np.ndarray:
    """Time-ordered propagator U(t_a -> t_b); uncovered stretches are free."""
    if not t_a <= t_b:  # NaN fails too
        raise ValueError(f"propagator needs t_a <= t_b, got t_a={t_a}, t_b={t_b}")
    u = identity(schedule.dim)
    for seg in schedule.segments:  # sorted by start time
        lo = max(t_a, seg.t_start)
        hi = min(t_b, seg.t_end)
        if hi > lo:
            u = unitary_exp(seg.hamiltonian, hi - lo, _spectrum(seg)) @ u
    return u


def evolved_state(schedule: Schedule, grid: TimeGrid, psi0: np.ndarray, k: int) -> np.ndarray:
    """psi0 evolved from the grid's t0 to its time t_k."""
    return propagator(schedule, grid.times[0], grid.time_at(k)) @ psi0
