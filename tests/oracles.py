"""Independent reference computations used to cross-check the package.

Everything here is deliberately written from first principles on raw numpy
arrays (outer products, closed-form 2x2 exponentials, explicit operator
strings) and never calls into qhist's propagator/chain-ket machinery, so the
two sides of each comparison stay independent.
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
