"""Dense complex linear algebra kernel: inner products, Kronecker products,
certified projectors, and unitary propagators for small Hilbert spaces.

Everything works on plain ``numpy`` arrays (``complex128``). State vectors are
1-D, operators are square 2-D. Dimensions stay in the single digits, so all
routines favour clarity and exactness over scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Every tolerance in the package, each with one meaning. Operator checks use
# the entrywise max-norm (max_abs); the rest compare the scalar named.
#
#   EPS_OP     operator identities: P = P^dag, P @ P = P, [P, Q] = 0, a segment
#              Hamiltonian H = H^dag, equal schedules, and an observable
#              basis whose Gram matrix is the identity (collapse_family)
#   EPS_NORM   | ||psi|| - 1 | of a state a Family or the Born rule accepts,
#              and how far below 0 a Bell-table probability may round
#   EPS_CONS   default ``tol`` of the consistency check (``--tol`` overrides):
#              off-diagonal |D(a, b)|, exhaustiveness residuals, dead prefixes
#   EPS_BELL   Bell tables and local models: the factorization deviation, and
#              how far a joint table or a mixture's weights may sum from 1
#   EPS_STATE  two unit states count as one: | |<u|v>| - 1 | in
#              states_equal_up_to_phase, max-norm of the difference of the
#              initial states that refine combines
#   EPS_ZERO   the smallest norm that normalized() divides by
#   EPS_INPUT_NORM  | ||a|| - 1 | of an amplitude list typed into a scenario
#              file; the list is then renormalized exactly
#
# Reports additionally print magnitudes below 1e-12 as 0 (report.round12);
# that is a rounding rule of the output, not a tolerance of any check.
EPS_OP = 1e-10
EPS_NORM = 1e-12
EPS_CONS = 1e-10
EPS_BELL = 1e-9
EPS_STATE = 1e-9
EPS_ZERO = 1e-14
EPS_INPUT_NORM = 1e-6


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex vector of finite entries."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a 1-D state vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("state vector has non-finite entries")
    return arr


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix of finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square operator, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("operator has non-finite entries")
    return arr


def inner(u, v) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    u = as_state(u)
    v = as_state(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.vdot(u, v))


def _norm(v: np.ndarray) -> float:
    """||v||; inf, without a warning, when its square overflows."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


def normalized(v) -> np.ndarray:
    """Return v / ||v||; rejects (near-)zero vectors."""
    v = as_state(v)
    n = _norm(v)
    if n == np.inf:  # the squared norm overflowed: scale v down first
        v = v / max(np.abs(v.real).max(), np.abs(v.imag).max())
        n = np.linalg.norm(v)
    if n < EPS_ZERO:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two operators.

    Ordering is fixed: the first factor varies slowest, i.e. the composite
    index is (i_a, i_b) in row-major order. All two-spin code in this package
    relies on that convention.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError("tensor expects two vectors or two square operators")
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    a, b = as_operator(a), as_operator(b)
    # entry ((i, k), (j, l)) is the single product a[i, j] * b[k, l], as in np.kron
    dim = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim, dim)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def max_abs(m) -> float:
    """Entrywise max-norm, the metric used by all operator tolerances here:
    NaN if any entry is NaN, 0.0 for an empty input. The ndarray method
    reduces as ``np.max`` does, bit for bit, without its Python-level
    dispatch, which costs more than a 2 x 2 reduction."""
    a = np.abs(m)
    return float(a.max()) if a.size else 0.0


def _is_hermitian(m: np.ndarray) -> bool:
    """Whether a matrix that as_operator has already coerced is self-adjoint.
    A difference that overflows gives inf, which fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        return max_abs(m - m.conj().T) <= EPS_OP


def _commute(p: np.ndarray, q: np.ndarray, pq: np.ndarray) -> bool:
    """Whether [P, Q] = pq - q @ p is within EPS_OP, for square matrices of
    one shape that as_operator has already coerced, given their product
    pq = p @ q. The caller holds an errstate that ignores overflow and
    invalid values: a product or difference that overflows gives inf or
    NaN, which fails. ``ndarray.dot`` forms q @ p with the same bits and
    less call overhead."""
    return max_abs(pq - q.dot(p)) <= EPS_OP


def commutes(p, q) -> bool:
    """True iff the entrywise norm of [P, Q] is within EPS_OP."""
    p = as_operator(p)
    q = as_operator(q)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape[0]} vs {q.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _commute(p, q, p @ q)


@dataclass(frozen=True, eq=False)
class Projector:
    """A certified orthogonal projector with a short display label.

    Instances are produced by :func:`as_projector` / :func:`projector_onto`,
    which verify self-adjointness and idempotence; the matrix is stored
    read-only. Labels identify events inside history families ("x1+", "1",
    "psi2", ...), and label equality is how the package compares events.
    """

    matrix: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        try:
            m = as_operator(self.matrix).copy()
        except ValueError as exc:
            raise ValueError(f"projector {self.label!r}: {exc}") from None
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Projector({self.label!r}, dim={self.dim})"


def _projector_fault(m: np.ndarray) -> str | None:
    """Why a matrix that as_operator has already coerced is not a projector
    ("not self-adjoint" or "not idempotent"), or None if it is one. Both
    tests run under one errstate: a difference or product that overflows
    gives inf or NaN, which fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not max_abs(m - m.conj().T) <= EPS_OP:
            return "not self-adjoint"
        if not max_abs(m @ m - m) <= EPS_OP:
            return "not idempotent"
    return None


def is_projector(m) -> bool:
    return _projector_fault(as_operator(m)) is None


def as_projector(m, label: str = "") -> Projector:
    """Certify a matrix as a projector; raises ValueError if it is not one."""
    p = Projector(m, label)  # coerces m once, and rejects non-finite entries
    fault = _projector_fault(p.matrix)
    if fault is not None:
        raise ValueError(f"projector {label!r}: matrix is {fault}")
    return p


def projector_onto(v, label: str = "") -> Projector:
    """Rank-1 projector |v><v| onto the (normalized) span of v."""
    v = normalized(v)
    return Projector(np.outer(v, v.conj()), label)


def identity_projector(dim: int) -> Projector:
    return Projector(identity(dim), "1")


def unitary_exp(
    h, duration: float, spectrum: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """exp(-i * h * duration) for a self-adjoint generator, with hbar = 1.

    Uses the eigendecomposition of h rather than a power series, so the
    result is unitary up to diagonalization error even for long durations.
    A caller that keeps h's ``spectrum``, the pair (w, vecs) that
    ``np.linalg.eigh`` returned for the certified h, passes it, and h is
    then neither coerced nor diagonalized again (``dynamics.propagator``
    passes the one each segment keeps). Raises ValueError when an
    eigenvalue times ``duration`` is not finite: no phase can be formed
    from it.
    """
    if spectrum is None:
        h = as_operator(h)
        if not _is_hermitian(h):
            raise ValueError("unitary_exp requires a self-adjoint generator")
        spectrum = np.linalg.eigh(h)
    w, vecs = spectrum
    ws = w.tolist()  # ascending, so the largest |w| sits at an end
    if not max(-ws[0], ws[-1]) * abs(float(duration)) < float("inf"):  # NaN fails too
        raise ValueError(f"unitary_exp: h * duration is not finite (duration {duration!r})")
    phases = np.exp(-1j * w * duration)
    return (vecs * phases) @ vecs.conj().T


def states_equal_up_to_phase(u, v, tol: float = EPS_STATE) -> bool:
    """Physical equality of unit vectors: |<u|v>| = 1 within tol."""
    u = normalized(u)
    v = normalized(v)
    return abs(abs(np.vdot(u, v)) - 1.0) <= tol
