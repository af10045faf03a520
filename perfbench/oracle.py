"""Independent checks of qhist's outputs, computed from the generator's
parameters with plain numpy.

Projectors are written as (1 + s n.sigma)/2 from Pauli matrices, the field
propagator is the closed-form rotation exp(-i w t sigma_y / 2), chain kets
are built in the Schroedinger picture, P_n U ... P_1 U |psi0>, and overlaps
come from their Gram matrix. Nothing here calls qhist's propagator,
projector or chain-ket code, so a defect there cannot hide on both sides of
a comparison. Every check raises :class:`Mismatch` on the first
disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-10  # qhist's default consistency tolerance (linalg.EPS_CONS)

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
I2 = np.eye(2, dtype=complex)
SIGMA_Y = PAULI[1]
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


class Mismatch(Exception):
    """An output of qhist disagrees with the independent computation."""


def unit(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def spin_projector(theta: float, phi: float, sign: int) -> np.ndarray:
    """(1 + sign n.sigma)/2 for the direction n = (theta, phi)."""
    return 0.5 * (I2 + sign * np.einsum("k,kij->ij", unit(theta, phi), PAULI))


def up_state(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex
    )


def rotation_y(omega: float, duration: float) -> np.ndarray:
    """exp(-i omega duration sigma_y / 2), the propagator of H = omega S_y."""
    half = omega * duration / 2
    return math.cos(half) * I2 - 1j * math.sin(half) * SIGMA_Y


def state_projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class FamilyOracle:
    """A family as the generator made it.

    ``stacks[k]`` holds the distinct projectors at event time k+1 and
    ``table[h, k]`` picks history h's projector from it; ``step`` is the
    propagator over one grid step (the grids have unit spacing).
    """

    name: str
    psi0: np.ndarray
    step: np.ndarray
    stacks: tuple[np.ndarray, ...]
    table: np.ndarray

    def kets(self) -> np.ndarray:
        kets = np.repeat(self.psi0[None, :], len(self.table), axis=0)
        for k, stack in enumerate(self.stacks):
            kets = kets @ self.step.T
            kets = np.einsum("hij,hj->hi", stack[self.table[:, k]], kets)
        return kets

    def gram(self) -> np.ndarray:
        kets = self.kets()
        return kets.conj() @ kets.T


def close(got, want, rel: float = 1e-11, abs_: float = 1e-12) -> bool:
    """Agreement at the report's 12 significant digits (one unit of the 12th
    digit, or the 1e-12 snap to zero)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rel * np.abs(want) + abs_)
    )


def check_report(data: dict, scenario: str, families: list[FamilyOracle]) -> None:
    """Check a parsed machine report family by family: the verdicts, the
    exact set of violating pairs, their overlaps and the probabilities.

    Every generated family branches over complete bases or follows the
    evolved state, so it is exhaustive by construction.
    """
    if data.get("scenario") != scenario:
        raise Mismatch(f"scenario {data.get('scenario')!r} != {scenario!r}")
    got_families = data.get("families", [])
    if len(got_families) != len(families):
        raise Mismatch(f"{len(got_families)} families reported, {len(families)} made")
    for got, fam in zip(got_families, families):
        where = f"family {fam.name!r}"
        if got["name"] != fam.name:
            raise Mismatch(f"{where}: reported as {got['name']!r}")
        gram = fam.gram()
        iu, ju = np.triu_indices(len(gram), 1)
        overlaps = gram[iu, ju]
        bad = np.abs(overlaps) > TOL
        probs = gram.diagonal().real
        consistent = bool(not bad.any() and abs(probs.sum() - 1.0) <= TOL)
        if got["exhaustive"] is not True:
            raise Mismatch(f"{where}: exhaustive reported {got['exhaustive']!r}")
        if got["consistent"] is not consistent:
            raise Mismatch(f"{where}: consistent reported {got['consistent']!r}")
        pairs = got["violating_pairs"]
        ij = np.array([(p["i"], p["j"]) for p in pairs], dtype=int).reshape(-1, 2)
        want_ij = np.stack([iu[bad] + 1, ju[bad] + 1], axis=1)
        if ij.shape != want_ij.shape or not np.array_equal(ij, want_ij):
            raise Mismatch(
                f"{where}: {len(ij)} violating pairs reported, {len(want_ij)} expected"
                " (or a different set)"
            )
        re = [p["re"] for p in pairs]
        im = [p["im"] for p in pairs]
        if not (close(re, overlaps[bad].real) and close(im, overlaps[bad].imag)):
            raise Mismatch(f"{where}: an overlap differs beyond 12 digits")
        want_probs = probs if consistent else np.empty(0)
        if not close(got["probabilities"], want_probs):
            raise Mismatch(f"{where}: a probability differs beyond 12 digits")


def chsh_grid(sides: list[list[tuple[float, float]]]) -> np.ndarray:
    """All CHSH values for settings drawn from four direction lists
    (a, a', b, b'), flattened in itertools.product order, from E = -a.b."""
    a, ap, b, bp = (np.array([unit(t, p) for t, p in side]) for side in sides)
    e_ab, e_abp, e_apb, e_apbp = -(a @ b.T), -(a @ bp.T), -(ap @ b.T), -(ap @ bp.T)
    s = (
        e_ab[:, None, :, None]
        - e_abp[:, None, None, :]
        + e_apb[None, :, :, None]
        + e_apbp[None, :, None, :]
    )
    return s.ravel()


def factorization_deviation(strategy: tuple[int, int, int, int],
                            correlations: tuple[float, float, float, float]) -> float:
    """Worst gap between a deterministic local model (A(a), A(a'), B(b),
    B(b')) and the singlet table P(s, t) = (1 + s t E)/4 over the settings
    (a,b), (a,b'), (a',b), (a',b')."""
    ra, rap, rb, rbp = strategy
    worst = 0.0
    for (x, y), e in zip(((ra, rb), (ra, rbp), (rap, rb), (rap, rbp)), correlations):
        for s in (1, -1):
            for t in (1, -1):
                model = 1.0 if (s, t) == (x, y) else 0.0
                worst = max(worst, abs(model - (1 + s * t * e) / 4))
    return worst
