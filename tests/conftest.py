import random
from fractions import Fraction

import pytest

from herman_lab.ring import GapVector


def random_gaps(rng: random.Random, k: int, n: int) -> GapVector:
    """Uniform composition of n into k positive parts via sorted cut points."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    points = [0] + cuts + [n]
    return GapVector(n, tuple(points[i + 1] - points[i] for i in range(k)))


def no_annihilation(occ: int, moving: int, n: int) -> int:
    """`ring.step_occupancy` with OR for XOR: a token landing on a staying one survives."""
    return (occ & ~moving) | ((moving << 1 | moving >> (n - 1)) & ((1 << n) - 1))


def random_simplex_fractions(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    """Exact rational simplex point with a common small denominator."""
    weights = [rng.randint(1, 50) for _ in range(k)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


@pytest.fixture
def rng():
    return random.Random(20260808)
