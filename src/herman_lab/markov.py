"""Exact analysis of the gap-vector Markov chain.

States are canonical (lexicographically minimal rotation) gap vectors.
One synchronous step draws one of the 2^K move masks uniformly.  The
successors of a state come from the occupancy kernel in `ring`: all 2^K
masks are stepped at once as N-bit occupancy words (`step_occupancy`),
keyed by necklace (least rotation) and mapped back to canonical gaps, so
N is limited to the 64-bit word.  The drift identities read the same
successors; their unmerged K-vectors are g plus each mask's +-1/0 gap
increments, with no step taken.  Expected stabilization times are solved
exactly over the reachable state space, ordered by token count so each
linear block only references already-solved smaller blocks; the blocks
come from one CSR table over a successor-closed state list
(`_successor_table`), built a token count at a time in numpy.  Each
solve builds its own table over its own state list and returns the
values; no solved value is kept between calls.

The exact solve has one row per reflection class, a state with its
mirror image (the reversed gaps): the step commutes with mirroring, so
the chain is strongly lumpable onto the classes.  A class row is its
first member's successor counts summed per class; the float path keeps
one row per state.

Multiplied by 2^K and by the lcm of the denominators it refers to, a
block is an integer system: 2^K I minus the mask counts, with an integer
right-hand side.  It is factored once modulo one prime, the solution is
lifted p-adically (Dixon) and recovered by rational reconstruction over
one common denominator.  Every solution is accepted only after an exact
integer check of every row, which is the original rational system
multiplied through, with Fraction elimination as the fallback, so the
fast path cannot silently return a wrong answer.  The float path solves
the same blocks divided by 2^K.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .lyapunov import ALPHA, V, V3, V5, f3, f5
from .ring import EXACT_RING_LIMIT, FLOAT_RING_LIMIT, OCCUPANCY_BITS, CapacityError, GapVector
from .ring import bracelet_key, least_rotation, necklace_key, step_occupancy

FLOAT_RESIDUAL_TOL = 1e-9
TABLE_PASS_WORDS = 1 << 18  # words a pass of `_successor_keys` steps (one state if its 2^K is more)


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

def _check_word(n: int) -> None:
    if n > OCCUPANCY_BITS:
        raise CapacityError(f"ring size {n} exceeds the {OCCUPANCY_BITS}-process occupancy word")


def _necklace_gaps(n: int, key: int) -> tuple[int, ...]:
    """Canonical gap vector of a successor key from `_successor_counts`.

    Read from bit n-1 down, a key spells each gap g as one clear bit (the
    token) and g-1 set bits, so the least rotation of the key starts at a
    token and spells the lexicographically least rotation of the gaps.
    """
    return tuple(len(run) + 1 for run in format(key, f"0{n}b").split("0")[1:])


def _token_bits(n: int, gaps: np.ndarray) -> np.ndarray:
    """Token i of each row of an (m, K) gap array sits on bit n-1-p_i, p_i where gap i ends."""
    _check_word(n)
    return np.left_shift(np.uint64(1), (n - 1 - np.cumsum(gaps, axis=1) % n).astype(np.uint64))


def _successor_keys(n: int, tokens: np.ndarray) -> Iterator[np.ndarray]:
    """Necklace keys of the complements of each row's 2^K successors (column m: move mask m), by passes."""
    per_pass = max(1, TABLE_PASS_WORDS >> tokens.shape[1])
    for lo in range(0, len(tokens), per_pass):
        chunk = tokens[lo : lo + per_pass]
        moving = np.zeros((len(chunk), 1), dtype=np.uint64)
        for bit in chunk.T:
            moving = np.concatenate((moving, moving | bit[:, None]), axis=1)
        occ = np.bitwise_or.reduce(chunk, axis=1, keepdims=True)
        yield necklace_key(step_occupancy(occ, moving, n) ^ np.uint64((1 << n) - 1), n)


def _successor_counts(n: int, gaps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Canonical successor states with mask counts (probability = count / 2^K).

    Bit i of a move mask moves token i.  The ring is mirrored, which keeps
    the gap law: moving the complementary tokens clockwise and turning the
    ring back one process, unseen by the necklace key, gives the same
    successor.  Keyed by its complement, a successor's least key spells its
    canonical gaps (`_necklace_gaps`), and keys of one token count sort as
    their gaps do, so the result comes out in (K, gaps) order.
    """
    (succ,) = _successor_keys(n, _token_bits(n, np.array([gaps], dtype=np.int64)))
    keys, counts = np.unique(succ, return_counts=True)
    order = np.lexsort((keys, n - np.bitwise_count(keys)))
    return tuple(zip(map(_necklace_gaps, repeat(n), keys[order].tolist()), counts[order].tolist()))


def successor_distribution(g: GapVector) -> TransitionLaw:
    if not g.gaps:
        raise ValueError("empty gap vector has no dynamics")
    pairs = _successor_counts(g.ring_size, g.gaps)
    return TransitionLaw(g, tuple((GapVector(g.ring_size, s), Fraction(c, 1 << len(g.gaps))) for s, c in pairs))


# ---------------------------------------------------------------------------
# state enumeration

def enumerate_states(n: int) -> list[tuple[int, ...]]:
    """All canonical odd-K gap vectors summing to n, ordered by (K, gaps).

    The keys (`_necklace_gaps`) are the n-bit words with an odd number of
    clear bits that are their own least rotation, found in passes of at
    most TABLE_PASS_WORDS words and ordered as in `_successor_counts`.
    """
    found = []
    for lo in range(0, 1 << n, TABLE_PASS_WORDS):
        words = np.arange(lo, min(lo + TABLE_PASS_WORDS, 1 << n), dtype=np.uint64)
        words = words[(n - np.bitwise_count(words)) % 2 == 1]
        found.append(words[necklace_key(words, n) == words])
    keys = np.concatenate(found)
    order = np.lexsort((keys, n - np.bitwise_count(keys)))
    return list(map(_necklace_gaps, repeat(n), keys[order].tolist()))


# ---------------------------------------------------------------------------
# exact linear algebra

def _gauss_fraction(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    aug = [rows[i] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular hitting-time system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lifting_primes(n: int) -> Iterator[int]:
    """Primes in descending order, starting at the largest p with n (p-1)^2 < 2^63.

    Every int64 dot product of length n over residues mod p then stays
    exact, and so does every entry of the factorization below.
    """
    p = math.isqrt((2**63 - 1) // n) + 1
    while p > 2:
        if _is_probable_prime(p):
            yield p
        p -= 1


def _factor_mod_p(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, list[int]] | None:
    """Row-pivoted LU of A mod p as (packed L\\U, row order, 1/U[k, k]); None if singular.

    Only the rows below each pivot are updated, and the trailing block is
    left unreduced: each of its entries loses at most n-1 products below
    (p-1)^2 from a start in [0, p), which `_lifting_primes` keeps inside
    int64.  A row or column is reduced when it becomes part of L or U.
    """
    n = len(a)
    lu = a % p
    order = np.arange(n)
    inverses = []
    for k in range(n):
        col = lu[k:, k] % p
        nonzero = np.flatnonzero(col)
        if nonzero.size == 0:
            return None
        piv = k + int(nonzero[0])
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            order[[k, piv]] = order[[piv, k]]
            col[[0, piv - k]] = col[[piv - k, 0]]
        lu[k, k:] %= p
        inv = pow(int(col[0]), -1, p)
        inverses.append(inv)
        lu[k + 1 :, k] = col[1:] * inv % p
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, order, inverses


def _lu_solve_mod_p(factors: tuple[np.ndarray, np.ndarray, list[int]], rhs: np.ndarray, p: int) -> np.ndarray:
    """x in [0, p)^n with A x = rhs (mod p), from the factors of `_factor_mod_p`."""
    lu, order, inverses = factors
    x = rhs[order]
    for k in range(1, len(x)):
        x[k] = (int(x[k]) - int(lu[k, :k] @ x[:k])) % p
    for k in range(len(x) - 1, -1, -1):
        x[k] = (int(x[k]) - int(lu[k, k + 1 :] @ x[k + 1 :])) % p * inverses[k] % p
    return x


def _rational_reconstruct(a: int, m: int) -> Fraction | None:
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num = r1 if s1 > 0 else -r1
    return Fraction(num, abs(s1))


def _common_denominator(z: np.ndarray, first: Fraction, m: int) -> tuple[list[int], int] | None:
    """Numerators over one denominator for the residues z mod m, or None.

    `first` is the reconstruction of z[0].  Every other residue is scaled
    by the denominator found so far; when the product is a small integer
    it is the numerator, and only otherwise is it reconstructed, its
    denominator joining the common one.
    """
    bound = math.isqrt(m // 2)
    den = first.denominator
    nums = [first.numerator]
    for value in z[1:].tolist():
        t = value * den % m
        if t > m // 2:
            t -= m
        if abs(t) <= bound:
            nums.append(t)
            continue
        extra = _rational_reconstruct(t, m)
        if extra is None:
            return None
        nums = [u * extra.denominator for u in nums]
        nums.append(extra.numerator)
        den *= extra.denominator
    return nums, den


def _verify_solution(a: np.ndarray, b: list[int], nums: list[int], den: int) -> bool:
    """Exact integer check of every row: A nums == den b."""
    for row, rhs in zip(a, b):
        cols = np.flatnonzero(row)
        if sum(map(operator.mul, row[cols].tolist(), [nums[j] for j in cols.tolist()])) != den * rhs:
            return False
    return True


def _solve_integer(a: np.ndarray, b: list[int]) -> list[Fraction]:
    """Exact solution of A z = b for a nonsingular int64 matrix and integer b.

    A is factored once modulo one prime (the next one only if A is
    singular there) and z is lifted p-adically (Dixon).  After each lift
    step the first entry is reconstructed (Wang); once it repeats, the
    whole solution is recovered over one common denominator and accepted
    only if `_verify_solution` holds for every row.  At the lift bound,
    p^m > 2 (|b| H)^2 with H the Hadamard bound on det A, reconstruction is
    guaranteed; a solution that still fails the check falls back to
    Fraction elimination.  The absolute row sums of A must stay below
    2^30, so that A times a digit vector stays inside int64; a hitting-time
    block's are at most 2^(K+1).
    """
    n = len(b)
    if n == 0:
        return []
    norms = np.sqrt(np.square(a, dtype=np.float64).sum(axis=0))
    det_bits = float(np.log2(np.maximum(norms, 1.0)).sum())
    tried_bits = 0.0
    for p in _lifting_primes(n):
        factors = _factor_mod_p(a, p)
        if factors is not None:
            break
        tried_bits += math.log2(p)
        if tried_bits > det_bits:  # the product of the primes dividing det A exceeds its bound
            raise ArithmeticError("singular hitting-time system")
    b_bits = max(v.bit_length() for v in b) + math.log2(n) / 2
    last = math.ceil((2 * (b_bits + det_bits) + 1) / math.log2(p))
    residue = np.array(b, dtype=object)
    z = np.zeros(n, dtype=object)
    modulus = 1
    previous = None
    for step in range(1, last + 1):
        digits = _lu_solve_mod_p(factors, (residue % p).astype(np.int64), p)
        z += digits.astype(object) * modulus
        residue = (residue - a @ digits) // p
        modulus *= p
        first = _rational_reconstruct(int(z[0]), modulus)
        if first is None or (first != previous and step < last):
            previous = first
            continue
        found = _common_denominator(z, first, modulus)
        if found is not None and _verify_solution(a, b, *found):
            nums, den = found
            return [Fraction(u, den) for u in nums]
    return _gauss_fraction(
        [[Fraction(v) for v in row] for row in a.tolist()], [Fraction(v) for v in b]
    )


# ---------------------------------------------------------------------------
# expected stabilization times

def _reachable_states(n: int, seed: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The canonical states reachable from `seed` or its mirror image (so a mirror-closed list), in (K, gaps) order."""
    seen = {seed, least_rotation(seed[::-1])}
    frontier = list(seen)
    while frontier:
        keys: set[int] = set()
        for _k, group in groupby(sorted(frontier, key=len), len):
            for succ in _successor_keys(n, _token_bits(n, np.array(list(group), dtype=np.int64))):
                flat = np.sort(succ, axis=None)
                keys.update(flat[np.insert(flat[1:] != flat[:-1], 0, True)].tolist())
        frontier = [s for s in map(_necklace_gaps, repeat(n), keys) if s not in seen]
        seen.update(frontier)
    return sorted(seen, key=lambda s: (len(s), s))


def _state_keys(n: int, states: list[tuple[int, ...]]) -> np.ndarray:
    """The necklace key of each canonical state of a list in (K, gaps) order: the complement of its token word."""
    groups = [_token_bits(n, np.array(list(group), dtype=np.int64)) for _k, group in groupby(states, len)]
    return np.concatenate([np.bitwise_or.reduce(tokens, axis=1) for tokens in groups]) ^ np.uint64((1 << n) - 1)


def _mirror_classes(n: int, states: list[tuple[int, ...]]) -> np.ndarray:
    """The column of each state's reflection class (it and its mirror image), numbered in order of first member."""
    _keys, first, inverse = np.unique(bracelet_key(_state_keys(n, states), n), return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _successor_table(n: int, states: list[tuple[int, ...]], classes: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSR successor rows (indptr, int32 class columns, int32 mask counts) of classes of canonical states.

    `classes[i]` is state i's class, numbered in order of first member,
    which alone is stepped.  The list must be in (K, gaps) order, which
    puts each row in `_successor_counts` order when `classes` is
    `arange`, and closed under successors (ValueError if not).
    """
    size, width = len(states), int(classes.max()) + 1
    keys = _state_keys(n, states)
    by_key = np.argsort(keys)
    lengths, cols, counts = [np.zeros(1, dtype=np.int64)], [], []
    for _k, group in groupby(map(states.__getitem__, np.unique(classes, return_index=True)[1].tolist()), len):
        for succ in _successor_keys(n, _token_bits(n, np.array(list(group), dtype=np.int64))):
            where = by_key[np.minimum(np.searchsorted(keys, succ, sorter=by_key), size - 1)]
            if not np.array_equal(keys[where], succ):
                raise ValueError("the state list is not closed under successors")
            pairs, pair_counts = np.unique(np.arange(len(succ))[:, None] * width + classes[where], return_counts=True)
            lengths.append(np.bincount(pairs // width, minlength=len(succ)))
            cols.append((pairs % width).astype(np.int32))
            counts.append(pair_counts.astype(np.int32))
    return np.cumsum(np.concatenate(lengths)), np.concatenate(cols), np.concatenate(counts)


class _Block(NamedTuple):
    """One token count's hitting-time system, multiplied through by 2^K.

    Its rows are `first`, `first + 1`, ... of a table over a closed list
    in (K, gaps) order, so it holds every same-K successor.  `matrix` is
    2^K I - C, C the mask counts of its CSR rows.  The other entries, the
    exits to fewer tokens, are `exits` (block rows, table columns, mask
    counts) in table order: each row's exits by column, row by row.
    """

    k: int
    first: int
    matrix: np.ndarray
    exits: tuple[np.ndarray, np.ndarray, np.ndarray]


def _blocks(states: list[tuple[int, ...]], indptr, table_cols, table_counts) -> Iterator[_Block]:
    """The blocks of the token counts K >= 2 of a `_successor_table`, ascending in K."""
    first = 0
    for k, group in groupby(states, len):
        stop = first + sum(1 for _ in group)
        if k >= 2:
            rows = np.repeat(np.arange(stop - first), np.diff(indptr[first : stop + 1]))
            cols, counts = table_cols[indptr[first] : indptr[stop]], table_counts[indptr[first] : indptr[stop]]
            inside = cols >= first
            matrix = np.diag(np.full(stop - first, 1 << k, dtype=np.int64))
            matrix[rows[inside], cols[inside] - first] -= counts[inside]
            yield _Block(k, first, matrix, (rows[~inside], cols[~inside], counts[~inside]))
        first = stop


def _solve_states(n: int, states: list[tuple[int, ...]]) -> dict[tuple[int, ...], Fraction]:
    """Exact E[T] of every state of a successor-closed list, one token count at a time.

    One row is solved per reflection class, whose value every member
    gets.  Nothing is kept between calls: each call builds its own table
    and returns its values.  With L the lcm of the denominators of the solved
    values a block refers to, the block times L is an integer system
    A (L E) = b.
    """
    classes = _mirror_classes(n, states)
    representatives = [states[i] for i in np.unique(classes, return_index=True)[1].tolist()]
    values = [Fraction(0) if len(s) <= 1 else None for s in representatives]
    for block in _blocks(representatives, *_successor_table(n, states, classes)):
        referred = np.flatnonzero(np.bincount(block.exits[1])).tolist()
        lcm = math.lcm(*(values[j].denominator for j in referred))
        scaled = np.zeros(block.first, dtype=object)
        scaled[referred] = [values[j].numerator * (lcm // values[j].denominator) for j in referred]
        rhs = np.full(len(block.matrix), lcm << block.k, dtype=object)
        rows, cols, counts = block.exits
        # one block length of exits at a time, so few big-int products are alive at once
        for lo in range(0, len(rows), len(rhs)):
            part = slice(lo, lo + len(rhs))
            np.add.at(rhs, rows[part], counts[part].astype(object) * scaled[cols[part]])
        for i, value in enumerate(_solve_integer(block.matrix, rhs.tolist()), block.first):
            values[i] = value / lcm
    return dict(zip(states, map(values.__getitem__, classes.tolist())))


def _state_count(n: int) -> int:
    """len(enumerate_states(n)) by Burnside's lemma: phi(d) rotations have cycles of length d,
    and fix 2^(n/d - 1) words with an odd number of clear bits if d is odd, else none."""
    phi = [sum(math.gcd(i, d) == 1 for i in range(d)) for d in range(n + 1)]
    return sum(phi[d] << (n // d - 1) for d in range(1, n + 1, 2) if n % d == 0) // n


def _check_capacity(n: int, max_ring: int | None, default: int) -> None:
    if n < 3:
        raise ValueError(f"ring size must be at least 3, got {n}")
    _check_word(n)
    limit = default if max_ring is None else max_ring
    if n > limit:
        raise CapacityError(
            f"ring size {n} exceeds the configured capacity {limit} ({_state_count(n)} states); "
            "raise the capacity explicitly to run larger instances"
        )


def expected_time_exact(g: GapVector, *, max_ring: int | None = None) -> Fraction:
    """Exact E[T] for a gap vector with an odd number of tokens."""
    if g.token_count % 2 == 0:
        raise ValueError("stabilization time requires an odd token count")
    _check_capacity(g.ring_size, max_ring, EXACT_RING_LIMIT)
    seed = least_rotation(g.gaps)
    return _solve_states(g.ring_size, _reachable_states(g.ring_size, seed))[seed]


def _solve_states_float(n: int, states: list[tuple[int, ...]]) -> dict[tuple[int, ...], float]:
    values = np.zeros(len(states))
    for block in _blocks(states, *_successor_table(n, states, np.arange(len(states)))):
        denom = float(1 << block.k)
        a = block.matrix.view(np.float64)  # in place: the integer block is not needed again
        np.divide(block.matrix, denom, out=a)  # dyadic, so equal to I - C / 2^K bit for bit
        rows, cols, counts = block.exits
        b = np.ones(len(a))
        np.add.at(b, rows, counts / denom * values[cols])  # unbuffered: each row's terms in turn, as a left fold
        x = np.linalg.solve(a, b)
        residual = float(np.max(np.abs(a @ x - b)))
        if residual > FLOAT_RESIDUAL_TOL:
            raise RuntimeError(f"float solve residual {residual:.3e} exceeds {FLOAT_RESIDUAL_TOL}")
        values[block.first : block.first + len(x)] = x
    return dict(zip(states, values.tolist()))


def expected_time_float(g: GapVector, *, max_ring: int | None = None) -> float:
    """Floating-point E[T] with a residual check on every solved block."""
    if g.token_count % 2 == 0:
        raise ValueError("stabilization time requires an odd token count")
    _check_capacity(g.ring_size, max_ring, FLOAT_RING_LIMIT)
    seed = least_rotation(g.gaps)
    values = _solve_states_float(g.ring_size, _reachable_states(g.ring_size, seed))
    return values[seed]


def solve_all_float(n: int, *, max_ring: int | None = None) -> dict[tuple[int, ...], float]:
    """Float E[T] for every canonical odd-K state, one pass over the space."""
    _check_capacity(n, max_ring, FLOAT_RING_LIMIT)
    return _solve_states_float(n, enumerate_states(n))


def solve_all_exact(n: int, *, max_ring: int | None = None) -> dict[tuple[int, ...], Fraction]:
    """E[T] for every canonical odd-K state on a ring of n processes."""
    _check_capacity(n, max_ring, EXACT_RING_LIMIT)
    return _solve_states(n, enumerate_states(n))


def max_expected_time(n: int, *, max_ring: int | None = None) -> tuple[GapVector, Fraction]:
    """Worst canonical state and its exact E[T]; checks the 4N^2/27 bound."""
    values = solve_all_exact(n, max_ring=max_ring)
    best_state, best_value = max(values.items(), key=lambda item: (item[1], item[0]))
    bound = theorem1_bound(n)
    if best_value > bound:
        raise RuntimeError(
            f"expected time {best_value} at {best_state} exceeds the 4N^2/27 bound {bound}"
        )
    return GapVector(n, best_state), best_value


@dataclass(frozen=True)
class SweepRow:
    n: int
    gaps: tuple[int, ...]
    expected_time: Fraction
    bound: Fraction

    @property
    def passed(self) -> bool:
        return self.expected_time <= self.bound


SWEEP_CSV_HEADER = "N,K,gaps,expected_time,bound,pass"


def sweep_rows(n: int, *, max_ring: int | None = None) -> list[SweepRow]:
    values = solve_all_exact(n, max_ring=max_ring)
    bound = theorem1_bound(n)
    return [SweepRow(n, s, v, bound) for s, v in sorted(values.items(), key=lambda i: (len(i[0]), i[0]))]


def sweep_csv_line(row: SweepRow) -> str:
    gaps = "|".join(str(g) for g in row.gaps)
    et = f"{row.expected_time.numerator}/{row.expected_time.denominator}"
    bd = f"{row.bound.numerator}/{row.bound.denominator}"
    return f"{row.n},{len(row.gaps)},{gaps},{et},{bd},{int(row.passed)}"


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


def _require_odd(g: GapVector, minimum: int) -> None:
    k = g.token_count
    if k % 2 == 0 or k < minimum:
        raise ValueError(f"drift identity requires an odd token count >= {minimum}")


def verify_drift_V3(g: GapVector) -> DriftCheck:
    """E(V3(z')|z) = V3(z) - (K-1)/2, exactly."""
    _require_odd(g, 3)
    n, k = g.ring_size, g.token_count
    sum_f3, _, _ = _drift_sums(n, g.gaps)
    lhs = Fraction(4 * sum_f3, n * (1 << k))
    rhs = V3(g) - Fraction(k - 1, 2)
    return DriftCheck(lhs, rhs, lhs == rhs)


def verify_drift_V5(g: GapVector) -> DriftCheck:
    """E(V5(z')|z) = V5(z) + (K-1)(K-3)/(32 N^2) - (K-3)/2 * f3(g/N), exactly."""
    _require_odd(g, 5)
    n, k = g.ring_size, g.token_count
    _, sum_f5, _ = _drift_sums(n, g.gaps)
    lhs = Fraction(4 * sum_f5, n**3 * (1 << k))
    rhs = (
        V5(g)
        + Fraction((k - 1) * (k - 3), 32 * n * n)
        - Fraction((k - 3) * f3(g.gaps, check=False), 2 * n**3)
    )
    return DriftCheck(lhs, rhs, lhs == rhs)


def verify_drift_V(g: GapVector, alpha=ALPHA) -> VDriftCheck:
    """E(V(z')|z) - V(z) <= -1, exactly in rationals."""
    _require_odd(g, 3)
    n, k = g.ring_size, g.token_count
    sum_f3, sum_f5, _ = _drift_sums(n, g.gaps)
    expectation = Fraction(4 * sum_f3, n * (1 << k)) - alpha * Fraction(4 * sum_f5, n**3 * (1 << k))
    drift = expectation - V(g, alpha=alpha)
    return VDriftCheck(drift, drift <= -1)


def verify_prop17(g: GapVector) -> Prop17Check:
    """E f5(g + delta) = f5(g) - (K-3)/8 f3(g) + (K-1)(K-3)N/128 on raw gaps.

    Also checks E f5(raw) equals E f5 of the merged successor, which is the
    continuity property applied at the collision zeros.  The two sides come
    from independent formulations: raw rows g + delta of every mask, and the
    merged successors of the occupancy kernel (`_successor_counts`).
    """
    _require_odd(g, 3)
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


def lyapunov_bound_check(g: GapVector, *, max_ring: int | None = None) -> BoundCheck:
    """E[T] <= V(g) exactly, with equality for three-token states."""
    et = expected_time_exact(g, max_ring=max_ring)
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
