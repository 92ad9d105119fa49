"""Deterministic coin streams for reproducible simulation.

All randomness used by the protocol simulators comes from splitmix64
streams so that every result is a pure function of a 64-bit master seed.
The exact derivation is part of the package contract:

    scramble(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
                  z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
                  z ^= z >> 31
    stream_key(seed, i) = scramble(seed XOR scramble((i + 1) * GOLDEN))
    word_t(key)         = scramble(key + t * GOLDEN)   for t = 1, 2, ...

with GOLDEN = 0x9E3779B97F4A7C15.  Streams are counter based: word t
depends only on (key, t), so batched and sequential evaluation agree
bit for bit.
"""

from __future__ import annotations

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
# the xorshift amounts and multipliers of scramble(z) above, in order of use
SCRAMBLE_SHIFTS = (30, 27, 31)
SCRAMBLE_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def scramble64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit word."""
    s1, s2, s3 = SCRAMBLE_SHIFTS
    m1, m2 = SCRAMBLE_MULTIPLIERS
    z &= MASK64
    z ^= z >> s1
    z = (z * m1) & MASK64
    z ^= z >> s2
    z = (z * m2) & MASK64
    z ^= z >> s3
    return z


def check_seed(seed: int) -> None:
    """Refuse a master seed outside 64 bits, which the streams would otherwise alias mod 2^64."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")


def stream_key(master_seed: int, index: int) -> int:
    """Derive the key of stream `index` from a master seed."""
    check_seed(master_seed)
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return scramble64(master_seed ^ scramble64(((index + 1) * GOLDEN) & MASK64))


class CoinStream:
    """A counter-based stream of fair coin words.

    Each call to `next_word` advances the counter by one and returns a
    64-bit output word; `coin_word`/`bools` expose the low bits of one
    word as fair coins.  One word is consumed per protocol step.
    """

    __slots__ = ("_state",)

    def __init__(self, key: int):
        self._state = key & MASK64

    @classmethod
    def from_seed(cls, master_seed: int, index: int = 0) -> "CoinStream":
        return cls(stream_key(master_seed, index))

    def next_word(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return scramble64(self._state)

    def coin_word(self, width: int) -> int:
        """Low `width` bits of the next word (width <= 64)."""
        if not 0 < width <= 64:
            raise ValueError("width must be in 1..64")
        return self.next_word() & ((1 << width) - 1)

    def bools(self, count: int) -> tuple[bool, ...]:
        """`count` fair coins taken from the low bits of one word."""
        word = self.coin_word(count)
        return tuple(bool((word >> i) & 1) for i in range(count))
