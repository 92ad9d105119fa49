import random
from fractions import Fraction

import pytest

from herman_lab.ring import BitRing, Configuration, GapVector


def random_gaps(rng: random.Random, k: int, n: int) -> GapVector:
    """Uniform composition of n into k positive parts via sorted cut points."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    points = [0] + cuts + [n]
    return GapVector(n, tuple(points[i + 1] - points[i] for i in range(k)))


def no_annihilation(occ: int, moving: int, n: int) -> int:
    """`ring.step_occupancy` with OR for XOR: a token landing on a staying one survives."""
    return (occ & ~moving) | ((moving << 1 | moving >> (n - 1)) & ((1 << n) - 1))


def reference_apply_step(config: Configuration, mask) -> Configuration:
    """The position step on a set of occupied processes; a second token on a process removes both.

    This was `ring.apply_step` before that came to step occupancy words.
    """
    n = config.ring_size
    occupancy: set[int] = set()
    for p, move in zip(config.positions, mask, strict=True):
        q = p % n + 1 if move else p
        if q in occupancy:
            occupancy.discard(q)
        else:
            occupancy.add(q)
    if not occupancy:
        raise ValueError("all tokens annihilated; no configuration remains")
    return Configuration(n, tuple(sorted(occupancy)))


def reference_token_positions(bits: BitRing) -> tuple[int, ...]:
    """Processes whose bit equals their counterclockwise neighbour's, read off the bit tuple.

    This was `ring.token_positions` before that came to read `token_word`.
    """
    b = bits.bits
    return tuple(i + 1 for i in range(len(b)) if b[i] == b[i - 1])


def reference_bit_step(bits: BitRing, flips) -> BitRing:
    """Herman's rule on a bit list: each token-holding process flips its bit when its coin is set.

    This was `ring.bit_step` before that came to apply the rule to the bit word.
    """
    new_bits = list(bits.bits)
    for p, flip in zip(reference_token_positions(bits), flips, strict=True):
        if flip:
            new_bits[p - 1] = not new_bits[p - 1]
    return BitRing(tuple(new_bits))


def random_simplex_fractions(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    """Exact rational simplex point with a common small denominator."""
    weights = [rng.randint(1, 50) for _ in range(k)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


@pytest.fixture
def rng():
    return random.Random(20260808)
