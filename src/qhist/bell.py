"""Singlet correlations versus locally factorizing hidden-variable models.

The quantum side comes in closed form from the singlet: measuring spins along
directions a and b gives joint outcome probabilities

    P(+,+) = P(-,-) = sin^2(theta_ab / 2) / 2,
    P(+,-) = P(-,+) = cos^2(theta_ab / 2) / 2,

hence the correlation E(a, b) = -cos(theta_ab) = -a.b, taken here from the
unit vectors each Direction caches. The classical side is a finite mixture of
lambda-terms whose joint distribution factorizes per term,
P(A,B|a,b,lambda) = P(A|a,lambda) P(B|b,lambda). Deterministic terms are
enumerable, which pins the CHSH combination |E(a,b) - E(a,b') + E(a',b) +
E(a',b')| at 2 for every such model, while the singlet reaches 2*sqrt(2).
For two settings per side, `local_model_exists` decides exactly whether any
such model reproduces a table (Fine's theorem).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .linalg import EPS_BELL, EPS_NORM
# angle_between is unused here but stays bound: perfbench/tracing.py wraps bell.angle_between
from .spin import Direction, angle_between  # noqa: F401

SIGNS = (+1, -1)


@dataclass(frozen=True)
class Settings:
    """One measurement direction per side."""

    a: Direction
    b: Direction


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four sign outcomes for one settings pair."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self):
        values = (self.pp, self.pm, self.mp, self.mm)
        if not all(p >= -EPS_NORM for p in values):  # NaN fails too
            raise ValueError("joint probabilities must be nonnegative")
        if not abs(sum(values) - 1.0) <= EPS_BELL:
            raise ValueError("joint probabilities must sum to 1")

    def prob(self, sign_a: int, sign_b: int) -> float:
        if sign_a > 0:
            return self.pp if sign_b > 0 else self.pm
        return self.mp if sign_b > 0 else self.mm

    @property
    def correlation(self) -> float:
        return self.pp + self.mm - self.pm - self.mp


@dataclass(frozen=True)
class LambdaTerm:
    """One hidden-variable value: a weight and per-side response functions.

    Each response maps a measurement direction to the probability of the +
    outcome; 0/1 values make the term deterministic.
    """

    weight: float
    response_a: Mapping[Direction, float]
    response_b: Mapping[Direction, float]

    def __post_init__(self):
        if not self.weight >= 0:  # NaN fails too
            raise ValueError("lambda weights must be nonnegative")
        for resp in (self.response_a, self.response_b):
            if any(not 0.0 <= p <= 1.0 for p in resp.values()):
                raise ValueError("response probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class LambdaModel:
    """Finite mixture of factorizing lambda-terms; weights sum to 1."""

    terms: tuple[LambdaTerm, ...]

    def __post_init__(self):
        if abs(sum(t.weight for t in self.terms) - 1.0) > EPS_BELL:
            raise ValueError("lambda weights must sum to 1")

    def joint(self, s: Settings) -> JointDistribution:
        """Lambda-averaged joint distribution, factorizing term by term."""
        pp = pm = mp = mm = 0.0
        for t in self.terms:
            a, b = t.response_a[s.a], t.response_b[s.b]  # P(+) on each side
            pp += t.weight * a * b
            pm += t.weight * a * (1.0 - b)
            mp += t.weight * (1.0 - a) * b
            mm += t.weight * (1.0 - a) * (1.0 - b)
        return JointDistribution(pp, pm, mp, mm)

    def correlation(self, s: Settings) -> float:
        return self.joint(s).correlation


def _correlation(a: Direction, b: Direction) -> float:
    """E(a, b) = -a.b from the cached unit vectors."""
    ax, ay, az = a._xyz
    bx, by, bz = b._xyz
    return -(ax * bx + ay * by + az * bz)


def singlet_joint(s: Settings) -> JointDistribution:
    """Closed-form singlet outcome table for one settings pair:
    sin^2(theta/2)/2 = (1 + E)/4 for equal signs, cos^2(theta/2)/2 = (1 - E)/4
    for opposite ones."""
    e = _correlation(s.a, s.b)
    same = (1.0 + e) / 4.0
    diff = (1.0 - e) / 4.0
    return JointDistribution(pp=same, pm=diff, mp=diff, mm=same)


def singlet_table(settings: list[Settings]) -> tuple[tuple[Settings, JointDistribution], ...]:
    """(settings, singlet joint distribution) for each settings pair, in order."""
    return tuple((s, singlet_joint(s)) for s in settings)


def correlation(s: Settings) -> float:
    """Singlet correlation E(a, b) = -cos(theta_ab) = -a.b."""
    return _correlation(s.a, s.b)


def chsh_value(e_ab: float, e_abp: float, e_apb: float, e_apbp: float) -> float:
    return e_ab - e_abp + e_apb + e_apbp


def chsh(a: Direction, a_prime: Direction, b: Direction, b_prime: Direction) -> float:
    """Singlet CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b').

    The same arithmetic as `chsh_value` of four `correlation` calls, written
    out so that a scan builds no objects per value."""
    ax, ay, az = a._xyz
    apx, apy, apz = a_prime._xyz
    bx, by, bz = b._xyz
    bpx, bpy, bpz = b_prime._xyz
    e_ab = -(ax * bx + ay * by + az * bz)
    e_abp = -(ax * bpx + ay * bpy + az * bpz)
    e_apb = -(apx * bx + apy * by + apz * bz)
    e_apbp = -(apx * bpx + apy * bpy + apz * bpz)
    return e_ab - e_abp + e_apb + e_apbp


def deterministic_strategies() -> list[tuple[int, int, int, int]]:
    """All 16 deterministic outcome assignments (A(a), A(a'), B(b), B(b'))."""
    return list(product(SIGNS, repeat=4))


def lhv_classical_bound() -> float:
    """Max |CHSH| over deterministic local strategies, by exhaustive enumeration."""
    best = 0.0
    for ra, rap, rb, rbp in deterministic_strategies():
        s = chsh_value(ra * rb, ra * rbp, rap * rb, rap * rbp)
        best = max(best, abs(s))
    return best


def deterministic_model(
    directions_a: list[Direction],
    directions_b: list[Direction],
    outcome_a: Mapping[Direction, int],
    outcome_b: Mapping[Direction, int],
    weight: float = 1.0,
) -> LambdaTerm:
    """A deterministic lambda-term from +/-1 outcome assignments."""
    return LambdaTerm(
        weight=weight,
        response_a={d: 1.0 if outcome_a[d] > 0 else 0.0 for d in directions_a},
        response_b={d: 1.0 if outcome_b[d] > 0 else 0.0 for d in directions_b},
    )


class FactorizationCheck(NamedTuple):
    factorizes: bool
    max_deviation: float


def check_factorization(
    model: LambdaModel, table: Iterable[tuple[Settings, JointDistribution]]
) -> FactorizationCheck:
    """Can the model's lambda-average reproduce the table?

    Each term factorizes by construction; the check is whether the averaged
    joints match every table entry within EPS_BELL. Returns the verdict along
    with the worst absolute deviation (0.0 for an empty table, which passes
    vacuously).
    """
    worst = 0.0
    for settings, expected in table:
        got = model.joint(settings)
        worst = max(
            worst,
            abs(got.pp - expected.pp),
            abs(got.pm - expected.pm),
            abs(got.mp - expected.mp),
            abs(got.mm - expected.mm),
        )
    return FactorizationCheck(worst <= EPS_BELL, worst)


class LocalModelCheck(NamedTuple):
    exists: bool
    inequality: str
    margin: float


_PAIRS = ("E(a,b)", "E(a,b')", "E(a',b)", "E(a',b')")
# the eight CHSH inequalities sum(sign * E) <= 2: one correlation negated,
# then the whole sum taken with either sign
_CHSH_SIGNS = tuple(
    tuple(sign * (-1 if k == minus else 1) for k in range(4))
    for minus in range(4)
    for sign in (+1, -1)
)


def _chsh_inequality(signs: tuple[int, ...]) -> str:
    text = "".join(f" {'-' if s < 0 else '+'} {e}" for s, e in zip(signs, _PAIRS))
    return ("-" if signs[0] < 0 else "") + text[3:] + " <= 2"


def local_model_exists(
    table: Iterable[tuple[Settings, JointDistribution]]
) -> LocalModelCheck:
    """Does any factorizing (local) model reproduce a two-settings-per-side table?

    `table` holds four (settings, joint) entries in the order (a,b), (a,b'),
    (a',b), (a',b'), as `singlet_table` returns them for that settings list;
    a may equal a' and b may equal b'. By Fine's theorem (Phys. Rev. Lett.
    48, 291 (1982)) a local model exists if and only if the marginals are
    no-signalling and all eight CHSH inequalities hold: each sum of the four
    correlations with one of them negated lies in [-2, 2].

    Returns the verdict, the tightest constraint (the violated one when there
    is no model) and its margin: how far that constraint is exceeded, as the
    largest marginal difference for no-signalling and as the CHSH sum minus 2
    otherwise. A constraint holds when its margin is at most EPS_BELL, so a
    model exists on the boundary |S| = 2.
    """
    entries = tuple(table)
    if len(entries) != 4:
        raise ValueError("a local-model table needs exactly four settings pairs")
    (s_ab, j_ab), (s_abp, j_abp), (s_apb, j_apb), (s_apbp, j_apbp) = entries
    if not (s_ab.a == s_abp.a and s_apb.a == s_apbp.a
            and s_ab.b == s_apb.b and s_abp.b == s_apbp.b):
        raise ValueError(
            "table settings must be (a,b), (a,b'), (a',b), (a',b') in this order"
        )

    # each side's + probability at one setting must not depend on the far setting
    marginals = (
        ("P(A=+|a,b) = P(A=+|a,b')", j_ab.pp + j_ab.pm, j_abp.pp + j_abp.pm),
        ("P(A=+|a',b) = P(A=+|a',b')", j_apb.pp + j_apb.pm, j_apbp.pp + j_apbp.pm),
        ("P(B=+|a,b) = P(B=+|a',b)", j_ab.pp + j_ab.mp, j_apb.pp + j_apb.mp),
        ("P(B=+|a,b') = P(B=+|a',b')", j_abp.pp + j_abp.mp, j_apbp.pp + j_apbp.mp),
    )
    signalling, worst_label = max((abs(p - q), label) for label, p, q in marginals)
    if not signalling <= EPS_BELL:
        return LocalModelCheck(False, worst_label, signalling)

    e = tuple(j.correlation for j in (j_ab, j_abp, j_apb, j_apbp))
    excess, signs = max(
        (sum(s * x for s, x in zip(signs, e)) - 2.0, signs) for signs in _CHSH_SIGNS
    )
    return LocalModelCheck(excess <= EPS_BELL, _chsh_inequality(signs), excess)
