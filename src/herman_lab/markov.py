"""Exact analysis of the gap-vector Markov chain.

States are canonical (lexicographically minimal rotation) gap vectors.
One synchronous step draws one of the 2^K move masks uniformly.  The
successors of a state come from the occupancy kernel in `ring`: all 2^K
masks are stepped at once as N-bit occupancy words (`step_occupancy`), so
N is limited to the 64-bit word.  A solve reads each word's class column
from a table over all 2^N words, up to WORD_TABLE_BITS and where a token
count has enough successors to pay for the table (`_columns`), and
`successor_distribution` keys the words by necklace (least rotation) and
maps them back to canonical gaps.  The drift identities read the same
successors; their unmerged K-vectors are g plus each mask's +-1/0 gap
increments, with no step taken.  Expected stabilization times are solved
exactly over every state with at most the queried token count, which is
the set a state of that count reaches (`enumerate_states`), ordered by
token count so each linear block only references already-solved smaller
blocks.  Each block is built from its token count's successor passes over
a successor-closed state list (`_blocks`) and dropped before the next is
built: no table of the whole list is kept, nor any solved value between
calls.  A block of more than BLOCK_ROWS rows is refused first (`ring._check_capacity`).

The exact solve has one row per reflection class, a state with its
mirror image (the reversed gaps): the step commutes with mirroring, so
the chain is strongly lumpable onto the classes.  A class row is its
first member's successor counts summed per class; the float path builds
its blocks the same way with every state its own class.

Multiplied by 2^K and by the lcm of the denominators it refers to, a
block is an integer system: 2^K I minus the mask counts, with an integer
right-hand side.  Its float64 inverse, taken once, drives an iterative
refinement whose residuals are exact integers (Wan 2006; Saunders, Wood
and Youse 2011), and the solution is recovered from its dyadic
approximation by continued fractions over one common denominator.  Every
solution is accepted only after an exact integer check of every row,
which is the original rational system multiplied through, so the float
arithmetic cannot silently return a wrong answer; a block that does not
converge is an ArithmeticError, never an unbounded solve.  The float path
divides the same float64 blocks by 2^K in place and solves them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import lyapunov
from .lyapunov import V, V3, V5, f3, f5
from .ring import STATE_LIMIT, CapacityError, GapVector, _check_capacity, _state_count, check_at_least, check_occupancy_word
from .ring import _rotl, bracelet_key, check_odd_k, least_rotation, necklace_key, step_occupancy

FLOAT_RESIDUAL_TOL = 1e-9
TABLE_PASS_WORDS = 1 << 18  # words a pass of `_successor_words` steps (one state if its 2^K is more)
WORD_TABLE_BITS = 24  # widest ring whose words `_columns` reads from a 2^N-entry int32 table: 64 MiB at 24
TABLE_ENTRIES_PER_WORD = 16  # most table entries per successor word for which `_columns` builds the table


@dataclass(frozen=True)
class TransitionLaw:
    """All successor outcomes of one step from `source`, with probabilities."""

    source: GapVector
    outcomes: tuple[tuple[GapVector, Fraction], ...]


class DriftCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    passed: bool


class VDriftCheck(NamedTuple):
    drift: Fraction
    passed: bool


class Prop17Check(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    merged: Fraction
    passed: bool


class BoundCheck(NamedTuple):
    expected_time: Fraction
    bound: Fraction
    passed: bool
    equality: bool


def theorem1_bound(n: int) -> Fraction:
    return Fraction(4 * n * n, 27)


# ---------------------------------------------------------------------------
# one-step dynamics on the occupancy mask

def _necklace_gaps(n: int, k: int, keys: np.ndarray) -> list[tuple[int, ...]]:
    """Canonical gap vectors of the necklace keys of K-token states.

    Read from bit n-1 down, a key spells each gap g as one clear bit (the
    token) and g-1 set bits, so the least rotation of the key starts at a
    token and spells the lexicographically least rotation of the gaps.
    The token bits are taken lowest first, so the gaps come last first.
    """
    tokens, bits = keys ^ np.uint64((1 << n) - 1), np.empty((k, len(keys)), dtype=np.int16)
    for row in bits:
        low = tokens & -tokens
        row[:] = np.bitwise_count(low - np.uint64(1))
        tokens ^= low
    return list(map(tuple, np.diff(bits, axis=0, prepend=-1)[::-1].T.tolist()))


def _token_bits(n: int, gaps: np.ndarray) -> np.ndarray:
    """Token i of each row of an (m, K) gap array sits on bit n-1-p_i, p_i where gap i ends."""
    check_occupancy_word(n)
    return np.left_shift(np.uint64(1), (n - 1 - np.cumsum(gaps, axis=1) % n).astype(np.uint64))


def _successor_words(n: int, tokens: np.ndarray) -> Iterator[np.ndarray]:
    """Occupancy words of each row's 2^K successors (column m: move mask m), by passes."""
    per_pass = max(1, TABLE_PASS_WORDS >> tokens.shape[1])
    for lo in range(0, len(tokens), per_pass):
        chunk = tokens[lo : lo + per_pass]
        moving = np.zeros((len(chunk), 1), dtype=np.uint64)
        for bit in chunk.T:
            moving = np.concatenate((moving, moving | bit[:, None]), axis=1)
        yield step_occupancy(np.bitwise_or.reduce(chunk, axis=1, keepdims=True), moving, n)


def _successor_counts(n: int, gaps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Canonical successor states with mask counts (probability = count / 2^K).

    Bit i of a move mask moves token i.  The ring is mirrored, which keeps
    the gap law: moving the complementary tokens clockwise and turning the
    ring back one process, unseen by the necklace key, gives the same
    successor.  Keyed by its complement, a successor's least key spells its
    canonical gaps (`_necklace_gaps`), and keys of one token count sort as
    their gaps do, so the result comes out in (K, gaps) order.
    """
    (words,) = _successor_words(n, _token_bits(n, np.array([gaps], dtype=np.int64)))
    keys, counts = np.unique(necklace_key(words ^ np.uint64((1 << n) - 1), n), return_counts=True)
    tokens = n - np.bitwise_count(keys)
    order = np.lexsort((keys, tokens))
    keys, tokens = keys[order], tokens[order]
    found = [s for k in sorted(set(tokens.tolist())) for s in _necklace_gaps(n, k, keys[tokens == k])]
    return tuple(zip(found, counts[order].tolist()))


def successor_distribution(g: GapVector) -> TransitionLaw:
    if not g.gaps:
        raise ValueError("empty gap vector has no dynamics")
    pairs = _successor_counts(g.ring_size, g.gaps)
    return TransitionLaw(g, tuple((GapVector(g.ring_size, s), Fraction(c, 1 << len(g.gaps))) for s, c in pairs))


# ---------------------------------------------------------------------------
# state enumeration

def enumerate_states(n: int, most: int | None = None) -> list[tuple[int, ...]]:
    """All canonical gap vectors summing to n with an odd K <= most (default n), ordered by (K, gaps).

    From a state of K tokens the chain reaches exactly these states with
    most = K: moving one token onto a gap of 2 or more shifts one unit
    between two neighbouring gaps, such moves connect every composition of
    n into K parts, and a collision of two tokens leaves K - 2.  So the
    list is closed under successors and under mirroring.

    The keys (`_necklace_gaps`) of each K are built one bit at a time from
    bit n-1 down: bit n-1 clear, K-1 of the bits below it clear.  A word
    that is its own least rotation is kept, and ascending words of one K
    spell ascending gaps, as in `_successor_counts`.
    """
    most = n if most is None else most
    check_at_least(n, 3, "ring size")
    check_occupancy_word(n)
    count = _state_count(n, most)  # the list, counted before anything is built
    if count > STATE_LIMIT:
        raise CapacityError(f"ring size {n} has {count} states with at most {most} tokens, above the {STATE_LIMIT}-state limit of a list")
    found = []
    for k in range(1, most + 1, 2):
        words = np.zeros(1, dtype=np.uint64)
        for placed in range(2, n + 1):
            words = np.repeat(words << np.uint64(1), 2)
            words[1::2] |= np.uint64(1)
            ones = np.bitwise_count(words)  # at most K clear bits so far, and room left for K
            words = words[(ones >= max(placed - k, 0)) & (ones <= n - k)]
        found.extend(_necklace_gaps(n, k, words[necklace_key(words, n) == words]))
    return found


# ---------------------------------------------------------------------------
# exact linear algebra

def _common_denominator(x: np.ndarray, d: int, first: Fraction, q: int, tol: int) -> tuple[list[int], int]:
    """Numerators over one denominator for the approximations x / 2^d, each within tol / 2^d.

    `first` is the reconstruction of x[0].  Every other entry is scaled by
    the denominator found so far; when the product lies within its error
    of an integer, that integer is the numerator, and only otherwise is the
    entry reconstructed, as the nearest fraction with denominator at most
    q, its denominator joining the common one.
    """
    den = first.denominator
    nums = [first.numerator]
    half = (1 << d) >> 1
    for value in x[1:].tolist():
        num, rest = divmod(value * den + half, 1 << d)
        if abs(rest - half) <= den * tol:
            nums.append(num)
            continue
        extra = Fraction(value, 1 << d).limit_denominator(q) * den
        nums = [u * extra.denominator for u in nums]
        nums.append(extra.numerator)
        den *= extra.denominator
    return nums, den


def _verify_solution(a: np.ndarray, b: list[int], nums: list[int], den: int) -> bool:
    """Exact integer check of every row: A nums == den b, the entries of A multiplied as Python ints."""
    for row, rhs in zip(a, b):
        cols = np.flatnonzero(row)
        if sum(map(operator.mul, row[cols].astype(np.int64).tolist(), [nums[j] for j in cols.tolist()])) != den * rhs:
            return False
    return True


def _solve_integer(a: np.ndarray, b: list[int]) -> list[Fraction]:
    """Exact solution of A z = b for a nonsingular float64 block of small integers (read without a copy) and integer b.

    A float64 inverse F of A is taken once, and iterative refinement with
    exact residuals does the rest (Wan 2006): integer numerators X over
    2^D with R = 2^D b - A X, all Python ints.  Each step scales the top 53
    bits of R to a float vector r and takes the correction c = rint(2^s F r),
    with s such that |c| < 2^(52 - bitlen ||A||inf).  Every partial sum of
    A c is then an integer below 2^52, so the float64 matvec computes A c
    exactly, and c enters X and A c leaves R under one power of two.  The
    error |z - X / 2^D| is at most ||F||inf |R| / 2^D; the first entry is
    reconstructed as the nearest fraction whose denominator that error
    allows, and once it repeats the whole solution is recovered over one
    common denominator and accepted only if `_verify_solution` holds for
    every row, multiplying the entries of A as Python ints, since a float
    product with a numerator of hundreds of bits rounds.  R = 0 makes X / 2^D exact.

    ArithmeticError if A is singular in float64, if a step does not take
    a bit off the error bound (F is no contraction), or if the check still fails
    once the precision has passed 2 (bits(b) + log2 H) bits, H the
    Hadamard bound on det A, beyond which reconstruction cannot miss.
    """
    n = len(b)
    if n == 0:
        return []
    af = np.asarray(a, dtype=np.float64)
    try:
        f = np.linalg.inv(af)
    except np.linalg.LinAlgError:
        raise ArithmeticError("singular hitting-time system") from None
    width = 52 - int(np.abs(a).sum(axis=1).max()).bit_length()
    f_norm = max(1, math.ceil(np.abs(f).sum(axis=1).max()))
    norms = np.sqrt(np.square(a, dtype=np.float64).sum(axis=0))
    det_bits = float(np.log2(np.maximum(norms, 1.0)).sum())
    enough = 2 * (max(v.bit_length() for v in b) + math.log2(n) / 2 + det_bits) + 1
    x = np.zeros(n, dtype=object)
    r = np.array(b, dtype=object)
    r_max, d = max(abs(v) for v in b), 0
    previous = None
    while True:
        error_bits = r_max.bit_length() - d  # log2 of the error bound, less log2 ||F||inf
        drop = max(r_max.bit_length() - 53, 0)
        y = f @ (r >> drop).astype(np.float64)
        shift = width - 1 - math.frexp(float(np.abs(y).max()))[1]
        c = np.rint(np.ldexp(y, shift))
        ac = (af @ c).astype(np.int64).astype(object)
        c = c.astype(np.int64).astype(object)
        shift -= drop
        if shift >= 0:
            x, r, d = (x << shift) + c, (r << shift) - ac, d + shift
        else:
            x, r = x + (c << -shift), r - (ac << -shift)
        r_max = max(abs(v) for v in r.tolist())
        if r_max == 0:
            found = x.tolist(), 1 << d
        else:
            if r_max.bit_length() - d >= error_bits:
                raise ArithmeticError(f"refinement stopped converging on a {n}-row system")
            tol = f_norm * r_max
            q = math.isqrt((1 << d) // (2 * tol + 1))
            if q < 1:
                continue
            first = Fraction(x[0], 1 << d).limit_denominator(q)
            past = d - tol.bit_length() > enough
            if first != previous and not past:
                previous = first
                continue
            found = _common_denominator(x, d, first, q, tol)
        if _verify_solution(a, b, *found):
            nums, den = found
            return [Fraction(u, den) for u in nums]
        if r_max == 0 or past:
            raise ArithmeticError(f"no solution of a {n}-row system passed the exact check")


# ---------------------------------------------------------------------------
# expected stabilization times

def _state_keys(n: int, states: list[tuple[int, ...]]) -> np.ndarray:
    """The necklace key of each canonical state of a list in (K, gaps) order: the complement of its token word."""
    groups = [_token_bits(n, np.array(list(group), dtype=np.int64)) for _k, group in groupby(states, len)]
    return np.concatenate([np.bitwise_or.reduce(tokens, axis=1) for tokens in groups]) ^ np.uint64((1 << n) - 1)


def _mirror_classes(n: int, keys: np.ndarray) -> np.ndarray:
    """The column of each state's reflection class (it and its mirror image), numbered in order of first member.

    `keys` are the states' `_state_keys`."""
    _keys, first, inverse = np.unique(bracelet_key(keys, n), return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _columns(n: int, keys: np.ndarray, classes: np.ndarray, words: int):
    """A function from occupancy words (uint64) to their states' class columns, -1 for a word of no listed state.

    `words` is how many successor words the caller will map.  The table
    path is one gather from an int32 table over all 2^N words, filled at
    every rotation of each listed state's token word (the complement of
    its key; every word lies in exactly one necklace, so no two states
    write one entry).  It is taken up to WORD_TABLE_BITS, where the table
    reaches 64 MiB, while the table has no more entries than a pass has
    words (TABLE_PASS_WORDS; the sorted path's temporaries for one pass
    are larger) or at most TABLE_ENTRIES_PER_WORD per word.  Filling an
    entry costs about a sixtieth of keying and searching one word, so past
    that share a few-token block or query at N > 18 is cheaper, and
    lighter, on the sorted path.  That path keys each word by necklace (N
    rotations) and searches it among the sorted `keys`; single queries of
    up to N = 64 take it."""
    if n <= WORD_TABLE_BITS and 1 << n <= max(TABLE_PASS_WORDS, TABLE_ENTRIES_PER_WORD * words):
        table, tokens = np.full(1 << n, -1, dtype=np.int32), keys ^ np.uint64((1 << n) - 1)
        for _ in range(n):
            table[tokens.view(np.int64)] = classes
            tokens = _rotl(tokens, n)
        return lambda words: table[words.view(np.int64)]  # words < 2^N: int64 indices skip numpy's uint64 cast
    by_key = np.argsort(keys)

    def columns(words: np.ndarray) -> np.ndarray:
        succ = necklace_key(words ^ np.uint64((1 << n) - 1), n)
        where = by_key[np.minimum(np.searchsorted(keys, succ, sorter=by_key), len(keys) - 1)]
        return np.where(keys[where] == succ, classes[where], -1)

    return columns


def _blocks(n: int, states: list[tuple[int, ...]], keys: np.ndarray, classes: np.ndarray) -> Iterator[tuple]:
    """Each token count's hitting-time system times 2^K, ascending in K >= 2: (K, first, matrix, exits).

    `keys` are the states' `_state_keys`, computed once per solve, and
    `classes[i]` is state i's class, numbered in order of first member,
    which alone is stepped.  The list must be in (K, gaps) order and closed
    under successors (ValueError if not).  Each pass of successor words is
    mapped to class columns by `_columns`, chosen for each token count by
    N and the count's 2^K-fold number of successor words: one table gather
    per word where it builds a table, which is dropped before the block is
    yielded.  The rows are classes `first`, `first +
    1`, ...; `matrix` is 2^K I - C, C their mask counts, scattered pass by
    pass into one float64 array, which holds small integers exactly.
    `exits`, the entries to fewer tokens, are int32 (block rows, class
    columns, mask counts), row by row and by column.  Nothing yielded is
    kept while the next token count is stepped.
    """
    width = int(classes.max()) + 1
    representatives = list(map(states.__getitem__, np.unique(classes, return_index=True)[1].tolist()))
    first = sum(len(s) < 2 for s in representatives)  # the one-token class comes first and has no block
    for k, group in groupby(representatives[first:], len):
        tokens = _token_bits(n, np.array(list(group), dtype=np.int64))
        columns, passes = _columns(n, keys, classes, len(tokens) << k), _successor_words(n, tokens)
        matrix = np.diag(np.full(len(tokens), float(1 << k)))
        exits, lo = [], 0
        for words in passes:
            cols = columns(words)
            if cols.min() < 0:
                raise ValueError("the state list is not closed under successors")
            pairs, counts = np.unique(np.arange(lo, lo + len(words))[:, None] * width + cols, return_counts=True)
            rows, cols = np.divmod(pairs, width)
            inside = cols >= first
            matrix[rows[inside], cols[inside] - first] -= counts[inside]
            exits.append(np.stack((rows, cols, counts))[:, ~inside].astype(np.int32))
            lo += len(words)
        del columns  # built again for the next token count, so no table is held while this block is solved
        yield k, first, matrix, tuple(np.concatenate(exits, axis=1))
        del matrix, exits
        first += len(tokens)


def _solve_states(n: int, states: list[tuple[int, ...]]) -> dict[tuple[int, ...], Fraction]:
    """Exact E[T] of every state of a successor-closed list, one token count at a time.

    One row is solved per reflection class, whose value every member gets.
    With L the lcm of the denominators of the solved values a block refers
    to, the block times L is an integer system A (L E) = b.
    """
    keys = _state_keys(n, states)
    classes = _mirror_classes(n, keys)
    values = [Fraction(0) if len(states[i]) <= 1 else None for i in np.unique(classes, return_index=True)[1].tolist()]
    for k, first, matrix, (rows, cols, counts) in _blocks(n, states, keys, classes):
        referred = np.flatnonzero(np.bincount(cols)).tolist()
        lcm = math.lcm(*(values[j].denominator for j in referred))
        scaled = np.zeros(first, dtype=object)
        scaled[referred] = [values[j].numerator * (lcm // values[j].denominator) for j in referred]
        rhs = np.full(len(matrix), lcm << k, dtype=object)
        # one block length of exits at a time, so few big-int products are alive at once
        for lo in range(0, len(rows), len(rhs)):
            part = slice(lo, lo + len(rhs))
            np.add.at(rhs, rows[part], counts[part].astype(object) * scaled[cols[part]])
        try:
            solution = _solve_integer(matrix, rhs.tolist())
        except ArithmeticError as exc:
            raise ArithmeticError(f"K={k} block: {exc}") from exc
        del matrix, rows, cols, counts  # before `_blocks` builds the next one
        for i, value in enumerate(solution, first):
            values[i] = value / lcm
    return dict(zip(states, map(values.__getitem__, classes.tolist())))


def expected_time_exact(g: GapVector) -> Fraction:
    """Exact E[T] for a gap vector with an odd number of tokens."""
    check_odd_k(g.token_count, 1)
    _check_capacity(g.ring_size, g.token_count, lumped=True)
    return _solve_states(g.ring_size, enumerate_states(g.ring_size, g.token_count))[least_rotation(g.gaps)]


def _solve_states_float(n: int, states: list[tuple[int, ...]]) -> dict[tuple[int, ...], float]:
    values = np.zeros(len(states))
    for k, first, a, (rows, cols, counts) in _blocks(n, states, _state_keys(n, states), np.arange(len(states))):
        denom = float(1 << k)
        a /= denom  # in place, and dyadic, so equal to I - C / 2^K bit for bit
        b = np.ones(len(a))
        np.add.at(b, rows, counts / denom * values[cols])  # unbuffered: each row's terms in turn, as a left fold
        x = np.linalg.solve(a, b)
        residual = float(np.max(np.abs(a @ x - b)))
        del a, rows, cols, counts  # before `_blocks` builds the next one
        if residual > FLOAT_RESIDUAL_TOL:
            raise RuntimeError(f"float solve residual {residual:.3e} exceeds {FLOAT_RESIDUAL_TOL}")
        values[first : first + len(x)] = x
    return dict(zip(states, values.tolist()))


def solve_all_float(n: int) -> dict[tuple[int, ...], float]:
    """Float E[T] for every canonical odd-K state, one pass over the space."""
    _check_capacity(n, n, lumped=False)
    return _solve_states_float(n, enumerate_states(n))


def solve_all_exact(n: int) -> dict[tuple[int, ...], Fraction]:
    """E[T] for every canonical odd-K state on a ring of n processes."""
    _check_capacity(n, n, lumped=True)
    return _solve_states(n, enumerate_states(n))


def max_expected_time(n: int) -> tuple[GapVector, Fraction]:
    """Worst canonical state and its exact E[T]; checks the 4N^2/27 bound."""
    values = solve_all_exact(n)
    best_state, best_value = max(values.items(), key=lambda item: (item[1], item[0]))
    bound = theorem1_bound(n)
    if best_value > bound:
        raise RuntimeError(
            f"expected time {best_value} at {best_state} exceeds the 4N^2/27 bound {bound}"
        )
    return GapVector(n, best_state), best_value


SWEEP_CSV_HEADER = "N,K,gaps,expected_time,bound,pass"


def sweep_csv_line(n: int, gaps: tuple[int, ...], expected_time: str, bound: str, passed: bool) -> str:
    """One row under SWEEP_CSV_HEADER; E[T] and the bound come written (a/b on the exact sweep, repr on the float one)."""
    return f"{n},{len(gaps)},{'|'.join(map(str, gaps))},{expected_time},{bound},{int(passed)}"


# ---------------------------------------------------------------------------
# drift identities

def gap_increments(k: int, mask: int) -> tuple[int, ...]:
    """The +-1/0 gap change vector induced by a move mask, before merging.

    Gap i sits between token i-1 and token i, so it grows when token i
    moves and shrinks when token i-1 does; the increments always sum to 0.
    """
    return tuple(((mask >> i) & 1) - ((mask >> ((i - 1) % k)) & 1) for i in range(k))


@lru_cache(maxsize=None)
def _delta_matrix(k: int) -> np.ndarray:
    """Row m is `gap_increments(k, m)`."""
    return np.array([gap_increments(k, mask) for mask in range(1 << k)], dtype=np.int8)


# pure, so memoized: up to four verify_* checks read each sampled state; the command `verify drift
# --samples 150 --n 12` takes 0.17 s cached and 0.89 s uncached in process (2-CPU Xeon)
@lru_cache(maxsize=8192)
def _drift_sums(n: int, gaps: tuple[int, ...]) -> tuple[int, int, int]:
    """(sum f3(succ), sum f5(succ), sum f5(raw)) over all 2^K masks.

    `succ` is the merged successor, summed over `_successor_counts` with
    its mask count.  With K odd, every cyclic index difference of an
    alternating tuple is odd, so f3 and f5 are invariant under rotation
    and reversal and the canonical successor stands for the unrotated one.
    `raw` keeps collision zeros in place, the unmerged K-vector g + delta
    of each mask.  All values are plain integers since gaps are integers;
    divide by 2^K for expectations.
    """
    k = len(gaps)
    # a raw row is nonnegative and sums to n, so its f5 is at most n^5: the 2^K rows sum exactly in int64 while 2^K n^5 < 2^63
    if n**5 << k >= 1 << 63:
        raise OverflowError(f"drift sums of {k} tokens on a ring of {n} exceed int64")
    succ = _successor_counts(n, gaps)
    sum_f3 = sum(count * f3(s, check=False) for s, count in succ)
    sum_f5 = sum(count * f5(s, check=False) for s, count in succ)
    raw = np.add(gaps, _delta_matrix(k), dtype=np.int64)
    return sum_f3, sum_f5, int(np.sum(f5(raw.T, check=False)))


def verify_drift_V3(g: GapVector) -> DriftCheck:
    """E(V3(z')|z) = V3(z) - (K-1)/2, exactly."""
    check_odd_k(g.token_count, 3)
    n, k = g.ring_size, g.token_count
    sum_f3, _, _ = _drift_sums(n, g.gaps)
    lhs = Fraction(4 * sum_f3, n * (1 << k))
    rhs = V3(g) - Fraction(k - 1, 2)
    return DriftCheck(lhs, rhs, lhs == rhs)


def verify_drift_V5(g: GapVector) -> DriftCheck:
    """E(V5(z')|z) = V5(z) + (K-1)(K-3)/(32 N^2) - (K-3)/2 * f3(g/N), exactly."""
    check_odd_k(g.token_count, 5)
    n, k = g.ring_size, g.token_count
    _, sum_f5, _ = _drift_sums(n, g.gaps)
    lhs = Fraction(4 * sum_f5, n**3 * (1 << k))
    rhs = (
        V5(g)
        + Fraction((k - 1) * (k - 3), 32 * n * n)
        - Fraction((k - 3) * f3(g.gaps, check=False), 2 * n**3)
    )
    return DriftCheck(lhs, rhs, lhs == rhs)


def verify_drift_V(g: GapVector) -> VDriftCheck:
    """E(V(z')|z) - V(z) <= -1, exactly in rationals."""
    check_odd_k(g.token_count, 3)
    n, k = g.ring_size, g.token_count
    sum_f3, sum_f5, _ = _drift_sums(n, g.gaps)
    expectation = Fraction(4 * sum_f3, n * (1 << k)) - lyapunov.ALPHA * Fraction(4 * sum_f5, n**3 * (1 << k))
    drift = expectation - V(g)
    return VDriftCheck(drift, drift <= -1)


def verify_prop17(g: GapVector) -> Prop17Check:
    """E f5(g + delta) = f5(g) - (K-3)/8 f3(g) + (K-1)(K-3)N/128 on raw gaps.

    Also checks E f5(raw) equals E f5 of the merged successor, which is the
    continuity property applied at the collision zeros.  The two sides come
    from independent formulations: raw rows g + delta of every mask, and the
    merged successors of the occupancy kernel (`_successor_counts`).
    """
    check_odd_k(g.token_count, 3)
    n, k = g.ring_size, g.token_count
    _, sum_f5, sum_f5_raw = _drift_sums(n, g.gaps)
    denom = 1 << k
    lhs = Fraction(sum_f5_raw, denom)
    merged = Fraction(sum_f5, denom)
    rhs = (
        Fraction(f5(g.gaps, check=False))
        - Fraction((k - 3) * f3(g.gaps, check=False), 8)
        + Fraction((k - 1) * (k - 3) * n, 128)
    )
    return Prop17Check(lhs, rhs, merged, lhs == rhs and lhs == merged)


def lyapunov_bound_check(g: GapVector) -> BoundCheck:
    """E[T] <= V(g) exactly, with equality for three-token states."""
    et = expected_time_exact(g)
    v = V(g)
    return BoundCheck(et, v, et <= v, et == v)


# ---------------------------------------------------------------------------
# gap-increment moments

def delta_moment(k: int, indices: Iterable[int]) -> Fraction:
    """E of the product of gap increments over `indices`, by full enumeration."""
    idx = tuple(sorted(set(indices)))
    if not idx:
        return Fraction(1)
    if idx[0] < 0 or idx[-1] >= k:
        raise ValueError("indices must lie in 0..K-1")
    deltas = _delta_matrix(k)[:, idx].astype(np.int64)
    total = int(np.prod(deltas, axis=1).sum())
    return Fraction(total, 1 << k)


def _cyclic_blocks(k: int, idx: tuple[int, ...]) -> list[tuple[int, int]]:
    """Decompose an index set into maximal cyclic runs as (start, length)."""
    if len(idx) == k:
        return [(0, k)]
    members = set(idx)
    blocks = []
    for i in idx:
        if (i - 1) % k in members:
            continue
        length = 1
        while (i + length) % k in members:
            length += 1
        blocks.append((i, length))
    return blocks


def moment_formula(k: int, indices: Iterable[int]) -> Fraction | None:
    """Closed-form moment for one block or two blocks; else None.

    A block of length L has moment 0 when L is odd and (-1/4)^(L/2) when L
    is even; two blocks, maximal runs and so never adjacent, multiply.
    """
    blocks = _cyclic_blocks(k, tuple(sorted(set(indices))))
    if not 1 <= len(blocks) <= 2:
        return None
    values = [Fraction(0) if length % 2 else Fraction(-1, 4) ** (length // 2) for _start, length in blocks]
    return math.prod(values, start=Fraction(1))
