"""Independent reference computations used to cross-check the package.

Everything here is deliberately written from first principles on raw numpy
arrays (outer products, closed-form 2x2 exponentials, explicit operator
strings) and never calls into qhist's propagator/chain-ket machinery, so the
two sides of each comparison stay independent. Two references take qhist's
own objects: :func:`per_node_walk`, the reference for the arithmetic of
qhist's batched walk, takes qhist's families and propagators and visits the
prefix tree one node at a time; and :func:`report_to_dict`, the reference
the machine report writer is tested against, reads a ``report.Report``.
"""

from __future__ import annotations

import math

import numpy as np

ZP = np.array([1, 0], dtype=complex)
ZM = np.array([0, 1], dtype=complex)
XP = np.array([1, 1], dtype=complex) / math.sqrt(2)
XM = np.array([1, -1], dtype=complex) / math.sqrt(2)
I2 = np.eye(2, dtype=complex)

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

SINGLET = (np.kron(ZP, ZM) - np.kron(ZM, ZP)) / math.sqrt(2)


def proj(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def ket(theta: float, phi: float, sign: int) -> np.ndarray:
    """Spin-coherent state along (theta, phi); sign picks the +/- eigenstate."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if sign > 0:
        return np.array([c, np.exp(1j * phi) * s], dtype=complex)
    return np.array([-np.exp(-1j * phi) * s, c], dtype=complex)


def axis_exponential(theta: float, phi: float, angle: float) -> np.ndarray:
    """Closed form exp(-i * angle * n.S) = cos(angle/2) I - i sin(angle/2) n.sigma."""
    n_sigma = 2.0 * (
        math.sin(theta) * math.cos(phi) * SX
        + math.sin(theta) * math.sin(phi) * SY
        + math.cos(theta) * SZ
    )
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * n_sigma


def rotation_y(angle: float) -> np.ndarray:
    """exp(-i * angle * S_y), a real rotation in the x-z plane."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def chain(projectors_then_unitaries: list[tuple[np.ndarray, np.ndarray]],
          psi0: np.ndarray) -> np.ndarray:
    """Chain ket from explicit (projector, propagator-to-that-time) pairs."""
    out = np.asarray(psi0, dtype=complex)
    for p, u in projectors_then_unitaries:
        out = u.conj().T @ (p @ (u @ out))
    return out


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def unit(theta: float, phi: float) -> np.ndarray:
    """Cartesian unit vector of the direction (theta, phi), for any angles."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def random_direction(rng: np.random.Generator) -> tuple[float, float]:
    """Uniform direction on the sphere as (theta, phi)."""
    return math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def per_node_walk(f, tol: float) -> tuple[np.ndarray, bool]:
    """Walk a qhist Family's event-prefix tree one node at a time: the N x dim
    array of chain kets, and whether every live node passes the exhaustiveness
    test ||sum_c P^_c chi - chi|| <= tol. A node whose ket has norm <= tol is
    dead, and so is everything below it; dead nodes are not tested."""
    from qhist.dynamics import propagator

    t0 = f.grid.times[0]
    hei = []
    for k in range(1, f.grid.n_events + 1):
        u = propagator(f.schedule, t0, f.grid.time_at(k))
        hei.append({label: u.conj().T @ p.matrix @ u
                    for label, p in f._branches[k - 1].items()})
    n = f.grid.n_events
    kets = np.empty((len(f.histories), f.dim), dtype=complex)
    exhaustive = True
    # (histories through the node, its depth, its ket, whether it lies below a dead node)
    stack = [(list(range(len(f.histories))), 0, f.initial_state, False)]
    while stack:
        indices, depth, chi, dead = stack.pop()
        if depth == n:
            kets[indices[0]] = chi  # labels are unique, so a leaf is one history
            continue
        groups: dict[str, list[int]] = {}
        for i in indices:
            groups.setdefault(f.histories[i].events[depth].label, []).append(i)
        children = [(hei[depth][label] @ chi, idx) for label, idx in groups.items()]
        dead = dead or _norm(chi) <= tol
        if exhaustive and not dead:
            exhaustive = _norm(sum(child for child, _ in children) - chi) <= tol  # NaN fails
        stack.extend((idx, depth + 1, child, dead) for child, idx in children)
    return kets, exhaustive


def dead_node_rule(norms, residuals, parent, tol: float) -> bool:
    """Exhaustiveness from per-node arrays, one node at a time: node i (0 is
    the root, and ``parent[i - 1]`` is node i's parent) is dead when its
    norm, or an ancestor's, is <= tol, and every live node's residual must
    be <= tol. NaN is neither dead nor passing."""
    for node, residual in enumerate(residuals):
        path = [node]
        while path[-1]:
            path.append(parent[path[-1] - 1])
        dead = any(norms[a] <= tol for a in path)
        if not (dead or residual <= tol):
            return False
    return True


def violating_pairs(overlaps: np.ndarray, tol: float):
    """The (i, j, overlap) columns, 1-based, of every pair i < j whose
    |D(i, j)| is not within tol (NaN is not), row by row: one search over
    the whole upper triangle."""
    rows, cols = np.nonzero(np.triu(~(np.abs(overlaps) <= tol), 1))
    return rows + 1, cols + 1, overlaps[rows, cols]


def report_to_dict(report) -> dict:
    """The machine form of a ``qhist.report.Report`` as a tree of dicts, each
    number rounded by ``report.round12``: ``json.dumps(report_to_dict(r),
    indent=2)`` plus a newline is what ``render_report_machine`` must write."""
    from qhist.report import round12

    return {
        "scenario": report.scenario,
        "families": [
            {
                "name": f.name,
                "consistent": f.consistent,
                "exhaustive": f.exhaustive,
                "violating_pairs": [
                    {"i": i, "j": j, "re": round12(z.real), "im": round12(z.imag)}
                    for i, j, z in f.violating_pairs
                ],
                "probabilities": [round12(p) for p in f.probabilities],
            }
            for f in report.families
        ],
    }
