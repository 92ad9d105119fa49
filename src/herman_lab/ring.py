"""Token-ring configurations and the synchronous randomized step.

A ring of N processes (numbered 1..N clockwise) holds K tokens.  Each
step, every token independently stays or moves one position clockwise;
two tokens landing on one process annihilate.  The module provides the
position view (`Configuration`), the gap view (`GapVector`), the bit
view (`BitRing`) of the original protocol, and the N-bit occupancy word
(bit p-1 is process p).  Two formulas step a ring: `step_occupancy` on
occupancy words, and Herman's rule `bits ^ (coins & token_word(bits, n))`
on bit words.  The position and bit views go through them by way of the
`positions_word`/`word_positions` codec, on Python ints of any size.
The uint64-array paths (`step_occupancy` with `out`, `necklace_key` of an
array, `bracelet_key`) import numpy only when they are handed arrays, so
the Python-int paths and the parsers load no numpy.

It is the home of every refusal of input outside the theorem's envelope,
each rule one numpy-free check that every layer and the CLI call first:
at least 3 processes and at least 1 run, sample, start or iteration
(`check_at_least`), an odd token count K with a minimum (`check_odd_k`),
a bit ring of odd N >= 3 (`check_bit_ring`), at most 64 processes, the
uint64 occupancy word (`check_occupancy_word`), and at most 63 tokens
(`check_token_cap`).  The seed rule is `streams.check_seed`.  A solve
whose largest block has over BLOCK_ROWS rows is a CapacityError from
`_check_capacity`: a limit of what one run holds, not an input rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .streams import CoinStream

OCCUPANCY_BITS = 64  # occupancy masks are stepped as uint64 words
STATE_LIMIT = 1 << 20  # most states `markov.enumerate_states` lists; it refuses a longer list
BLOCK_ROWS = 10_000  # rows of a solve's largest dense block: about 3.5 GiB at the measured peaks (README, Capacity)

# A move mask is one boolean per token, in position-sorted token order.
MoveMask = Sequence[bool]


class CapacityError(ValueError):
    """A state list over STATE_LIMIT, a solve block over BLOCK_ROWS, or a ring over the CLI's capacity: a run's limit."""


class StepLimitError(RuntimeError):
    """Raised when a simulated run exceeds its step cap, which is a bug, not a sample."""

    def __init__(self, cap: int, run_index: int | None = None):
        self.cap = cap
        self.run_index = run_index
        where = f" in run {run_index}" if run_index is not None else ""
        super().__init__(f"simulation exceeded the {cap}-step cap{where}")

    def __reduce__(self):  # pickled by its fields, not its message, so a worker can send it back
        return type(self), (self.cap, self.run_index)


@dataclass(frozen=True, slots=True)
class Configuration:
    """Token positions z(1) < ... < z(K) on a ring of `ring_size` processes."""

    ring_size: int
    positions: tuple[int, ...]

    def __post_init__(self):
        n = self.ring_size
        pos = tuple(self.positions)
        object.__setattr__(self, "positions", pos)
        check_at_least(n, 3, "ring size")
        if not pos:
            raise ValueError("configuration needs at least one token")
        if any(not 1 <= p <= n for p in pos):
            raise ValueError("token positions must lie in 1..N")
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise ValueError("token positions must be strictly increasing")

    @property
    def token_count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, slots=True)
class GapVector:
    """K cyclic gaps between consecutive tokens; positive, summing to N.

    The empty vector (K = 0) is allowed as the terminal state of even-K
    dynamics where every token has annihilated; it never occurs for odd K.
    """

    ring_size: int
    gaps: tuple[int, ...]

    def __post_init__(self):
        n = self.ring_size
        gaps = tuple(self.gaps)
        object.__setattr__(self, "gaps", gaps)
        check_at_least(n, 3, "ring size")
        if gaps:
            if any(g < 1 for g in gaps):
                raise ValueError("all gaps must be >= 1")
            if sum(gaps) != n:
                raise ValueError("gaps must sum to ring_size")

    @property
    def token_count(self) -> int:
        return len(self.gaps)


@dataclass(frozen=True, slots=True)
class BitRing:
    """One bit per process; process i holds a token iff bit_i == bit_{i-1}."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        bits = tuple(bool(b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        check_at_least(len(bits), 3, "ring size")
        if not token_word(_bit_word(bits), len(bits)):
            raise ValueError("bit ring encodes no token")

    @property
    def ring_size(self) -> int:
        return len(self.bits)


def gap_vector(config: Configuration) -> GapVector:
    """Gap view: gaps[0] wraps around (N + z(1) - z(K)), gaps[i] = z(i+1) - z(i)."""
    pos, n = config.positions, config.ring_size
    return GapVector(n, (n + pos[0] - pos[-1], *(b - a for a, b in zip(pos, pos[1:]))))


def config_from_gaps(g: GapVector) -> Configuration:
    """A configuration with the given gaps, anchored so the last token sits at N."""
    if not g.gaps:
        raise ValueError("cannot place tokens for an empty gap vector")
    return Configuration(g.ring_size, tuple(accumulate(g.gaps)))


def least_rotation(gaps: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal cyclic rotation of a gap tuple."""
    return min((gaps[i:] + gaps[:i] for i in range(len(gaps))), default=gaps)


def canonical_rotation(g: GapVector) -> GapVector:
    """Lexicographically minimal cyclic rotation of the gaps."""
    return GapVector(g.ring_size, least_rotation(g.gaps))


def positions_word(positions) -> int:
    """Occupancy word of ascending process numbers: bit p-1 is set for each p."""
    return sum(1 << (p - 1) for p in positions)


def word_positions(word: int) -> tuple[int, ...]:
    """Process numbers of the set bits of an occupancy word, ascending."""
    return tuple(p + 1 for p in range(word.bit_length()) if word >> p & 1)


def _bit_word(bits: tuple[bool, ...]) -> int:
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def apply_step(config: Configuration, mask: MoveMask) -> Configuration:
    """Advance every token whose mask bit is set; annihilate collisions.

    One `step_occupancy` of the tokens' occupancy word: a process ends the
    step with at most two tokens (one kept, one received), and its XOR
    removes a pair.
    """
    pos = config.positions
    if len(mask) != len(pos):
        raise ValueError("mask length must equal the token count")
    moving = positions_word(p for p, move in zip(pos, mask) if move)
    occ = step_occupancy(positions_word(pos), moving, config.ring_size)
    if not occ:
        raise ValueError("all tokens annihilated; no configuration remains")
    return Configuration(config.ring_size, word_positions(occ))


def _rotl(mask, n: int):
    """Rotate an n-bit mask one process clockwise (bit i to bit i+1, bit n-1 to bit 0).

    `mask` is a Python int or a uint64 array; both use the same operators.
    """
    return ((mask << 1) | (mask >> (n - 1))) & ((1 << n) - 1)


def check_at_least(value: int, least: int, name: str) -> None:
    """Refuse `name` below `least`: a ring of fewer than 3 processes, or fewer than 1 run, sample, start or iteration."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_odd_k(k: int, minimum: int) -> None:
    """Refuse a token count that is even or below `minimum`: the theorem and the protocol hold an odd K."""
    if k < minimum or k % 2 == 0:
        raise ValueError(f"K must be odd and >= {minimum}, got {k}")


def check_bit_ring(n: int) -> None:
    """Refuse a bit ring that is even or below 3 processes: only an odd ring forces an odd token count."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"a bit ring needs an odd N >= 3, got {n}")


def check_occupancy_word(n: int) -> None:
    """Refuse a ring of more processes than the uint64 occupancy word holds, which the simulator and the successor kernel step."""
    if n > OCCUPANCY_BITS:
        raise ValueError(f"ring size {n} exceeds the {OCCUPANCY_BITS}-process occupancy word")


def check_token_cap(k: int, flag: str) -> None:
    """Refuse option `flag`'s token count above the most (K odd) that a ring of the occupancy word holds."""
    if k > OCCUPANCY_BITS - 1:
        raise ValueError(f"{flag} must be at most {OCCUPANCY_BITS - 1}, the most tokens (K odd) a ring of {OCCUPANCY_BITS} holds, got {k}")


def _necklaces(n: int, k: int, mirrored: bool = False) -> int:
    """Necklaces of n bits with k clear bits (tokens), or if `mirrored` bracelets, by Burnside's lemma."""
    fixed = 0
    for d in range(1, k + 1):
        if k % d == 0 and n % d == 0:  # the phi(d) rotations of order d fix C(n/d, k/d) words each
            fixed += sum(math.gcd(i, d) == 1 for i in range(d)) * math.comb(n // d, k // d)
    if not mirrored:
        return fixed // n
    return (fixed + n * math.comb((n - 1) // 2, k // 2)) // (2 * n)  # with k odd a reflection fixes C((n-1)//2, (k-1)/2)


def _state_count(n: int, most: int) -> int:
    """len(markov.enumerate_states(n, most)): the necklaces of each odd K <= most."""
    return sum(_necklaces(n, k) for k in range(1, most + 1, 2))


def _check_capacity(n: int, most: int, lumped: bool) -> None:
    """Refuse a solve over `markov.enumerate_states(n, most)` on a ring below 3 processes or above the occupancy word, or
    whose largest block, the necklaces of one K or if `lumped` (reflection classes) its bracelets, has over BLOCK_ROWS rows."""
    check_at_least(n, 3, "ring size")
    check_occupancy_word(n)
    rows, k = max((_necklaces(n, k, mirrored=lumped), k) for k in range(1, most + 1, 2))
    if rows > BLOCK_ROWS:
        raise CapacityError(f"ring size {n} has a block of {rows} rows at K={k}, above the {BLOCK_ROWS}-row limit of a solve")


def step_occupancy(occ, moving, n: int, out=None):
    """One synchronous step of the n-bit occupancy mask `occ` (bit p-1 is process p).

    `moving` is the subset of `occ` whose tokens move clockwise.  A token
    landing on a staying one cancels it, so annihilation is a XOR.

    With `out`, a uint64 array sharing no memory with `occ` or `moving`,
    the step of uint64 arrays is written there and nothing is allocated;
    `moving` is consumed as scratch.  It is the same formula, one ufunc at
    a time: occ & ~moving is occ ^ moving because moving is a subset of
    occ, and the rotation's two halves are XORed in because they share no
    bit.
    """
    if out is None:
        return (occ & ~moving) ^ _rotl(moving, n)
    import numpy as np

    np.right_shift(moving, n - 1, out=out)
    np.bitwise_xor(out, occ, out=out)
    np.bitwise_xor(out, moving, out=out)
    np.left_shift(moving, 1, out=moving)
    if n < OCCUPANCY_BITS:
        np.bitwise_and(moving, (1 << n) - 1, out=moving)
    np.bitwise_xor(out, moving, out=out)
    return out


def token_word(bits: int, n: int) -> int:
    """Occupancy word of the n-bit ring `bits` (bit p-1 is process p's bit).

    Process p holds a token iff its bit equals its counterclockwise
    neighbor's.
    """
    return ~(bits ^ _rotl(bits, n)) & ((1 << n) - 1)


def necklace_key(mask, n: int):
    """Least of the n cyclic rotations of an n-bit mask (a Python int or a uint64 array): one key per necklace.

    An array is rotated in place in one scratch copy, with a boolean array
    for its top bit, so two arrays of its size are held besides the input.
    """
    if isinstance(mask, int):
        return min((mask << r | mask >> (n - r)) & ((1 << n) - 1) for r in range(n))
    import numpy as np

    key, mask = mask.copy(), mask.copy()
    top = np.empty(mask.shape, dtype=bool)
    for _ in range(n - 1):
        np.greater_equal(mask, 1 << (n - 1), out=top)
        np.left_shift(mask, 1, out=mask)
        if n < OCCUPANCY_BITS:
            np.bitwise_and(mask, (1 << n) - 1, out=mask)
        np.bitwise_or(mask, top, out=mask)
        np.minimum(key, mask, out=key)
    return key


def bracelet_key(masks, n: int):
    """Least necklace key of each n-bit mask of a uint64 array and of its mirror image (bit i to bit n-1-i): one key per bracelet."""
    import numpy as np

    mirror = np.zeros_like(masks)
    for i in range(n):
        mirror |= (masks >> i & 1) << (n - 1 - i)
    return np.minimum(necklace_key(masks, n), necklace_key(mirror, n))


def random_step(config: Configuration, rng: CoinStream) -> Configuration:
    """One synchronous step with each token moving independently w.p. 1/2."""
    return apply_step(config, rng.bools(config.token_count))


def token_positions(bits: BitRing) -> tuple[int, ...]:
    """Positions of processes whose bit equals their counterclockwise neighbor's."""
    return word_positions(token_word(_bit_word(bits.bits), bits.ring_size))


def config_from_bits(bits: BitRing) -> Configuration:
    """Canonical map from the bit representation to token positions."""
    return Configuration(bits.ring_size, token_positions(bits))


def bits_from_config(config: Configuration) -> BitRing:
    """A bit ring whose extracted configuration is `config` (process 1 bit = 0).

    Requires N odd; the bit representation then forces an odd token count,
    and the returned ring is one of the two complementary encodings.
    """
    n = config.ring_size
    check_bit_ring(n)
    check_odd_k(config.token_count, 1)
    tokens = set(config.positions)
    bits = [False]  # process p's bit differs from process p-1's unless p holds a token
    for p in range(2, n + 1):
        bits.append(bits[-1] ^ (p not in tokens))
    return BitRing(tuple(bits))


def bit_step(bits: BitRing, flips: MoveMask) -> BitRing:
    """Flip the bit of each token-holding process whose coin is set.

    `flips` is indexed like a move mask: one coin per token, in sorted
    token-position order.  A flip passes that token clockwise: the coins
    go to the token positions and Herman's rule steps the bit word.
    """
    n = bits.ring_size
    word = _bit_word(bits.bits)
    tokens = token_word(word, n)
    positions = word_positions(tokens)
    if len(flips) != len(positions):
        raise ValueError("flip vector length must equal the token count")
    coins = positions_word(p for p, flip in zip(positions, flips) if flip)
    word ^= coins & tokens
    return BitRing(tuple(bool(word >> i & 1) for i in range(n)))


def parse_gap_vector(text: str) -> GapVector:
    """Parse the state literal grammar, e.g. "N=7;gaps=3,1,3" or "N=7;tokens=2,3,6"."""
    n, kind, values = _parse_literal(text)
    if kind == "gaps":
        return GapVector(n, values)
    return gap_vector(Configuration(n, values))


def parse_configuration(text: str) -> Configuration:
    """Parse a state literal into a Configuration (gap form is anchored at N)."""
    n, kind, values = _parse_literal(text)
    if kind == "tokens":
        return Configuration(n, values)
    return config_from_gaps(GapVector(n, values))


def _parse_literal(text: str) -> tuple[int, str, tuple[int, ...]]:
    parts = text.strip().split(";")
    if len(parts) != 2:
        raise ValueError(f"bad state literal {text!r}: expected 'N=<int>;tokens=...' or 'N=<int>;gaps=...'")
    left, right = parts
    if not left.startswith("N="):
        raise ValueError(f"bad state literal {text!r}: first field must be N=<int>")
    try:
        n = int(left[2:])
    except ValueError:
        raise ValueError(f"bad ring size in {text!r}") from None
    kind, eq, payload = right.partition("=")
    if eq != "=" or kind not in ("tokens", "gaps"):
        raise ValueError(f"bad state literal {text!r}: second field must be tokens=... or gaps=...")
    try:
        values = tuple(int(tok) for tok in payload.split(","))
    except ValueError:
        raise ValueError(f"bad integer list in {text!r}") from None
    return n, kind, values
