"""Singlet correlations versus locally factorizing hidden-variable models.

The quantum side comes in closed form from the singlet: measuring spins along
directions a and b gives joint outcome probabilities

    P(+,+) = P(-,-) = sin^2(theta_ab / 2) / 2,
    P(+,-) = P(-,+) = cos^2(theta_ab / 2) / 2,

hence the correlation E(a, b) = -cos(theta_ab). The classical side is a
finite mixture of lambda-terms whose joint distribution factorizes per term,
P(A,B|a,b,lambda) = P(A|a,lambda) P(B|b,lambda). Deterministic terms are
enumerable, which pins the CHSH combination |E(a,b) - E(a,b') + E(a',b) +
E(a',b')| at 2 for every such model, while the singlet reaches 2*sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .linalg import EPS_BELL, EPS_NORM
from .spin import Direction, angle_between

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


def singlet_joint(s: Settings) -> JointDistribution:
    """Closed-form singlet outcome table for one settings pair."""
    half = angle_between(s.a, s.b) / 2.0
    same = 0.5 * math.sin(half) ** 2
    diff = 0.5 * math.cos(half) ** 2
    return JointDistribution(pp=same, pm=diff, mp=diff, mm=same)


def singlet_table(settings: list[Settings]) -> tuple[tuple[Settings, JointDistribution], ...]:
    """(settings, singlet joint distribution) for each settings pair, in order."""
    return tuple((s, singlet_joint(s)) for s in settings)


def correlation(s: Settings) -> float:
    """Singlet correlation E(a, b) = -cos(theta_ab)."""
    return singlet_joint(s).correlation


def chsh_value(e_ab: float, e_abp: float, e_apb: float, e_apbp: float) -> float:
    return e_ab - e_abp + e_apb + e_apbp


def chsh(a: Direction, a_prime: Direction, b: Direction, b_prime: Direction) -> float:
    """Singlet CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return chsh_value(
        correlation(Settings(a, b)),
        correlation(Settings(a, b_prime)),
        correlation(Settings(a_prime, b)),
        correlation(Settings(a_prime, b_prime)),
    )


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
        for sa, sb in product(SIGNS, SIGNS):
            worst = max(worst, abs(got.prob(sa, sb) - expected.prob(sa, sb)))
    return FactorizationCheck(worst <= EPS_BELL, worst)
