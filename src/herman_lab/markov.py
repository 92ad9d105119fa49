"""Exact analysis of the gap-vector Markov chain.

States are canonical (lexicographically minimal rotation) gap vectors.
One synchronous step draws one of the 2^K move masks uniformly.  The
successors of a state come from the occupancy kernel in `ring`: all 2^K
masks are stepped at once as N-bit occupancy words (`step_occupancy`),
keyed by necklace (least rotation) and mapped back to canonical gaps, so
N is limited to the 64-bit word.  The drift identities need the unmerged
K-vectors, so they step in gap space instead: the increments are +-1/0
per gap, and a gap hitting zero removes the colliding token pair and
merges its neighboring gaps.  Expected stabilization times are obtained
by exact rational elimination over the reachable state space, ordered
by token count so each linear block only references already-solved
smaller blocks.

Large blocks are solved by modular elimination with Chinese remaindering
and rational reconstruction; every reconstructed solution is verified
against the original rational system before being accepted, with plain
Fraction elimination as the fallback, so the fast path cannot silently
return a wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .lyapunov import ALPHA, V, V3, V5, f3_index_triples, f5_index_quintuples
from .ring import OCCUPANCY_BITS, GapVector, canonical_rotation, necklace_key, step_occupancy

EXACT_RING_LIMIT = 14
FLOAT_RING_LIMIT = 20
FLOAT_RESIDUAL_TOL = 1e-9

_FRACTION_BLOCK_LIMIT = 48  # above this, try the modular solver first
_MAX_PRIMES = 40  # 30-bit primes; solution denominators can reach hundreds of bits


class CapacityError(RuntimeError):
    """Raised when a query exceeds the configured ring-size capacity."""


@dataclass(frozen=True)
class TransitionLaw:
    """All successor outcomes of one step from `source`, with probabilities."""

    source: GapVector
    outcomes: tuple[tuple[GapVector, Fraction], ...]


@dataclass(frozen=True)
class StateSpace:
    """Canonical gap vectors closed under the one-step transition law."""

    ring_size: int
    states: tuple[tuple[int, ...], ...]

    @classmethod
    def reachable_from(cls, g: GapVector) -> "StateSpace":
        seed = _canon(g.gaps)
        return cls(g.ring_size, tuple(_reachable_states(g.ring_size, seed)))

    @classmethod
    def full(cls, n: int) -> "StateSpace":
        return cls(n, tuple(enumerate_states(n)))

    def index_map(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.states)}

    def is_closed(self) -> bool:
        """Closure under transitions, including the absorbing one-token class."""
        members = set(self.states)
        for s in self.states:
            for succ, _count in _successor_counts(self.ring_size, s):
                if succ not in members:
                    return False
        return True


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
# one-step dynamics in gap space

def _canon(gaps: tuple[int, ...]) -> tuple[int, ...]:
    if len(gaps) <= 1:
        return gaps
    return min(gaps[i:] + gaps[:i] for i in range(len(gaps)))


def gap_increments(k: int, mask: int) -> tuple[int, ...]:
    """The +-1/0 gap change vector induced by a move mask, before merging.

    Gap i sits between token i-1 and token i, so it grows when token i
    moves and shrinks when token i-1 does; the increments always sum to 0.
    """
    return tuple(((mask >> i) & 1) - ((mask >> ((i - 1) % k)) & 1) for i in range(k))


def _raw_increments(gaps: Sequence[int], mask: int) -> list[int]:
    """Gap values after the mask's moves, zeros (collisions) retained."""
    k = len(gaps)
    return [gaps[i] + ((mask >> i) & 1) - ((mask >> ((i - 1) % k)) & 1) for i in range(k)]


def _merge_zeros(new: Sequence[int]) -> tuple[int, ...]:
    """Remove annihilated token pairs; a zero gap merges its two neighbors.

    Zero gaps are never cyclically adjacent (a shared token cannot both
    move and stay), so each zero removes a disjoint token pair.
    """
    k = len(new)
    dead: set[int] = set()
    for i, v in enumerate(new):
        if v == 0:
            dead.add((i - 1) % k)
            dead.add(i)
    if not dead:
        return tuple(new)
    survivors = [i for i in range(k) if i not in dead]
    if not survivors:
        return ()
    out = []
    for idx, b in enumerate(survivors):
        a = survivors[idx - 1]
        j = (a + 1) % k
        total = 0
        while True:
            total += new[j]
            if j == b:
                break
            j = (j + 1) % k
        out.append(total)
    return tuple(out)


def step_gaps(gaps: Sequence[int], mask: int) -> tuple[int, ...]:
    """Successor gap vector (token numbering preserved, not canonicalized)."""
    return _merge_zeros(_raw_increments(gaps, mask))


# ---------------------------------------------------------------------------
# one-step dynamics on the occupancy mask

def _check_word(n: int) -> None:
    if n > OCCUPANCY_BITS:
        raise CapacityError(f"ring size {n} exceeds the {OCCUPANCY_BITS}-process occupancy word")


@lru_cache(maxsize=65536)  # one entry per successor state, as for _successor_counts
def _necklace_gaps(n: int, key: int) -> tuple[int, ...]:
    """Canonical gap vector of a successor key from `_successor_counts`.

    Read from bit n-1 down, a key spells each gap g as one clear bit (the
    token) and g-1 set bits, so the least rotation of the key starts at a
    token and spells the lexicographically least rotation of the gaps.
    """
    tokens = [b for b in range(n - 1, -1, -1) if not key >> b & 1]
    if not tokens:
        return ()
    return tuple(a - b for a, b in zip(tokens, tokens[1:])) + (tokens[-1] + n - tokens[0],)


@lru_cache(maxsize=65536)
def _successor_counts(n: int, gaps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Canonical successor states with mask counts (probability = count / 2^K).

    Bit i of a move mask moves token i.  The moving sets of all 2^K masks
    are built at once and stepped together by `step_occupancy`.  Token i
    sits on bit n-1-p_i, p_i being where gap i ends, so the ring is
    mirrored and the step moves the tokens counterclockwise.  The gap law
    does not change: moving the complementary tokens clockwise and
    turning the ring back one process gives the same successor, and the
    necklace key does not see the turn.  Keying the complement of each
    successor makes the least key spell the canonical gaps (see
    `_necklace_gaps`) and makes keys with one token count sort as their
    gap vectors do, so the result comes out in (K, gaps) order.
    """
    _check_word(n)
    occ = 0
    moving = np.zeros(1, dtype=np.uint64)
    end = 0
    for gap in gaps:
        end += gap
        bit = n - 1 - end % n
        occ |= 1 << bit
        moving = np.concatenate((moving, moving | (1 << bit)))
    empty = step_occupancy(occ, moving, n) ^ ((1 << n) - 1)
    keys, counts = np.unique(necklace_key(empty, n), return_counts=True)
    order = np.lexsort((keys, n - np.bitwise_count(keys)))
    return tuple(zip(map(_necklace_gaps, repeat(n), keys[order].tolist()), counts[order].tolist()))


def successor_distribution(g: GapVector) -> TransitionLaw:
    gaps = g.gaps
    if not gaps:
        raise ValueError("empty gap vector has no dynamics")
    denom = 1 << len(gaps)
    outcomes = tuple(
        (GapVector(g.ring_size, succ) if succ else GapVector(g.ring_size, ()), Fraction(c, denom))
        for succ, c in _successor_counts(g.ring_size, gaps)
    )
    return TransitionLaw(g, outcomes)


# ---------------------------------------------------------------------------
# state enumeration

def enumerate_states(n: int) -> list[tuple[int, ...]]:
    """All canonical odd-K gap vectors summing to n, ordered by (K, gaps)."""
    found: set[tuple[int, ...]] = set()

    def compose(remaining: int, parts: int, prefix: tuple[int, ...], first: int):
        if parts == 1:
            if remaining >= 1:
                gaps = prefix + (remaining,)
                # canonical forms start with a minimal part; cheap pre-filter
                if first <= min(gaps):
                    found.add(_canon(gaps))
            return
        for g in range(1, remaining - parts + 2):
            compose(remaining - g, parts - 1, prefix + (g,), first)

    for k in range(1, n + 1, 2):
        if k == 1:
            found.add((n,))
            continue
        for g0 in range(1, n - k + 2):
            compose(n - g0, k - 1, (g0,), g0)
    return sorted(found, key=lambda s: (len(s), s))


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


@lru_cache(maxsize=1)
def _solver_primes() -> tuple[int, ...]:
    primes = []
    cand = (1 << 30) - 1
    while len(primes) < _MAX_PRIMES:
        if _is_probable_prime(cand):
            primes.append(cand)
        cand -= 2
    return tuple(primes)


def _solve_mod_p(rows: list[list[Fraction]], rhs: list[Fraction], p: int) -> list[int] | None:
    n = len(rhs)
    inverse_cache: dict[int, int] = {1: 1}

    def residue(value: Fraction) -> int | None:
        den = value.denominator
        inv = inverse_cache.get(den)
        if inv is None:
            dm = den % p
            if dm == 0:
                return None
            inv = pow(dm, p - 2, p)
            inverse_cache[den] = inv
        return value.numerator % p * inv % p

    aug = np.zeros((n, n + 1), dtype=np.int64)
    for i in range(n):
        row = rows[i]
        for j in range(n):
            if row[j]:
                r = residue(row[j])
                if r is None:
                    return None
                aug[i, j] = r
        r = residue(rhs[i])
        if r is None:
            return None
        aug[i, n] = r
    for col in range(n):
        piv_rows = np.nonzero(aug[col:, col])[0]
        if piv_rows.size == 0:
            return None
        piv = col + int(piv_rows[0])
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv = pow(int(aug[col, col]), p - 2, p)
        aug[col] = aug[col] * inv % p
        below = aug[col + 1 :, col].copy()
        if below.any():
            aug[col + 1 :] = (aug[col + 1 :] - np.outer(below, aug[col])) % p
    x = [0] * n
    for col in range(n - 1, -1, -1):
        acc = int(aug[col, n])
        row = aug[col]
        for j in range(col + 1, n):
            rj = int(row[j])
            if rj:
                acc -= rj * x[j]
        x[col] = acc % p
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


def _verify_solution(rows, rhs, x) -> bool:
    for i, row in enumerate(rows):
        total = Fraction(0)
        for j, coeff in enumerate(row):
            if coeff:
                total += coeff * x[j]
        if total != rhs[i]:
            return False
    return True


def _solve_linear_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    if n == 0:
        return []
    if n <= _FRACTION_BLOCK_LIMIT:
        return _gauss_fraction(rows, rhs)
    residues: list[int] | None = None
    modulus = 1
    for p in _solver_primes():
        sol_p = _solve_mod_p(rows, rhs, p)
        if sol_p is None:
            continue
        if residues is None:
            residues, modulus = sol_p, p
        else:
            inv = pow(modulus % p, p - 2, p)
            combined = []
            for r_old, r_new in zip(residues, sol_p):
                t = (r_new - r_old) % p * inv % p
                combined.append(r_old + modulus * t)
            residues, modulus = combined, modulus * p
        candidate = [_rational_reconstruct(r, modulus) for r in residues]
        if all(c is not None for c in candidate) and _verify_solution(rows, rhs, candidate):
            return candidate  # type: ignore[return-value]
    return _gauss_fraction(rows, rhs)


# ---------------------------------------------------------------------------
# expected stabilization times

_ET_CACHE: dict[tuple[int, tuple[int, ...]], Fraction] = {}


def _reachable_states(n: int, seed: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = {seed}
    stack = [seed]
    while stack:
        state = stack.pop()
        for succ, _count in _successor_counts(n, state):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return sorted(seen, key=lambda s: (len(s), s))


def _solve_states(n: int, states: list[tuple[int, ...]]) -> None:
    """Exactly solve E[T] for every state, ascending in token count."""
    pending = [s for s in states if (n, s) not in _ET_CACHE]
    for s in pending:
        if len(s) <= 1:
            _ET_CACHE[(n, s)] = Fraction(0)
    by_k: dict[int, list[tuple[int, ...]]] = {}
    for s in pending:
        if len(s) >= 2:
            by_k.setdefault(len(s), []).append(s)
    for k in sorted(by_k):
        block = sorted(by_k[k])
        index = {s: i for i, s in enumerate(block)}
        size = len(block)
        denom = 1 << k
        rows = [[Fraction(0)] * size for _ in range(size)]
        rhs = [Fraction(1)] * size
        for i, s in enumerate(block):
            rows[i][i] = Fraction(1)
            for succ, count in _successor_counts(n, s):
                prob = Fraction(count, denom)
                if len(succ) == k:
                    rows[i][index[succ]] -= prob
                else:
                    rhs[i] += prob * _ET_CACHE[(n, succ)]
        solution = _solve_linear_exact(rows, rhs)
        for s, value in zip(block, solution):
            _ET_CACHE[(n, s)] = value


def _check_capacity(n: int, max_ring: int | None, default: int) -> None:
    limit = default if max_ring is None else max_ring
    if n > limit:
        raise CapacityError(
            f"ring size {n} exceeds the configured capacity {limit}; "
            "raise the capacity explicitly to run larger instances"
        )
    _check_word(n)


def expected_time_exact(g: GapVector, *, max_ring: int | None = None) -> Fraction:
    """Exact E[T] for a gap vector with an odd number of tokens."""
    if g.token_count % 2 == 0:
        raise ValueError("stabilization time requires an odd token count")
    _check_capacity(g.ring_size, max_ring, EXACT_RING_LIMIT)
    key = (g.ring_size, _canon(g.gaps))
    if key not in _ET_CACHE:
        _solve_states(g.ring_size, _reachable_states(g.ring_size, key[1]))
    return _ET_CACHE[key]


def _solve_states_float(n: int, states: list[tuple[int, ...]]) -> dict[tuple[int, ...], float]:
    values: dict[tuple[int, ...], float] = {}
    by_k: dict[int, list[tuple[int, ...]]] = {}
    for s in states:
        if len(s) <= 1:
            values[s] = 0.0
        else:
            by_k.setdefault(len(s), []).append(s)
    for k in sorted(by_k):
        block = sorted(by_k[k])
        index = {s: i for i, s in enumerate(block)}
        size = len(block)
        denom = float(1 << k)
        a = np.eye(size)
        b = np.ones(size)
        for i, s in enumerate(block):
            for succ, count in _successor_counts(n, s):
                prob = count / denom
                if len(succ) == k:
                    a[i, index[succ]] -= prob
                else:
                    b[i] += prob * values[succ]
        x = np.linalg.solve(a, b)
        residual = float(np.max(np.abs(a @ x - b)))
        if residual > FLOAT_RESIDUAL_TOL:
            raise RuntimeError(f"float solve residual {residual:.3e} exceeds {FLOAT_RESIDUAL_TOL}")
        for s, value in zip(block, x):
            values[s] = float(value)
    return values


def expected_time_float(g: GapVector, *, max_ring: int | None = None) -> float:
    """Floating-point E[T] with a residual check on every solved block."""
    if g.token_count % 2 == 0:
        raise ValueError("stabilization time requires an odd token count")
    _check_capacity(g.ring_size, max_ring, FLOAT_RING_LIMIT)
    seed = _canon(g.gaps)
    values = _solve_states_float(g.ring_size, _reachable_states(g.ring_size, seed))
    return values[seed]


def solve_all_float(n: int, *, max_ring: int | None = None) -> dict[tuple[int, ...], float]:
    """Float E[T] for every canonical odd-K state, one pass over the space."""
    _check_capacity(n, max_ring, FLOAT_RING_LIMIT)
    return _solve_states_float(n, enumerate_states(n))


def solve_all_exact(n: int, *, max_ring: int | None = None) -> dict[tuple[int, ...], Fraction]:
    """E[T] for every canonical odd-K state on a ring of n processes."""
    _check_capacity(n, max_ring, EXACT_RING_LIMIT)
    states = enumerate_states(n)
    _solve_states(n, states)
    return {s: _ET_CACHE[(n, s)] for s in states}


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

    def to_record(self) -> dict:
        return {
            "N": self.n,
            "gaps": list(self.gaps),
            "expected_time_num": self.expected_time.numerator,
            "expected_time_den": self.expected_time.denominator,
            "bound_num": self.bound.numerator,
            "bound_den": self.bound.denominator,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


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

def _f3_int(v: Sequence[int]) -> int:
    if len(v) < 3:
        return 0
    return sum(v[a] * v[b] * v[c] for a, b, c in f3_index_triples(len(v)))


def _f5_int(v: Sequence[int]) -> int:
    if len(v) < 5:
        return 0
    total = 0
    for a, b, c, d, e in f5_index_quintuples(len(v)):
        total += v[a] * v[b] * v[c] * v[d] * v[e]
    return total


@lru_cache(maxsize=8192)
def _drift_sums(n: int, gaps: tuple[int, ...]) -> tuple[int, int, int]:
    """(sum f3(succ), sum f5(succ), sum f5(raw)) over all 2^K masks.

    `raw` keeps collision zeros in place (the unmerged K-vector g + delta);
    `succ` is the merged successor.  All values are plain integers since
    gaps are integers; divide by 2^K for expectations.
    """
    k = len(gaps)
    sum_f3 = 0
    sum_f5 = 0
    sum_f5_raw = 0
    for mask in range(1 << k):
        raw = _raw_increments(gaps, mask)
        sum_f5_raw += _f5_int(raw)
        succ = _merge_zeros(raw)
        sum_f3 += _f3_int(succ)
        sum_f5 += _f5_int(succ)
    return sum_f3, sum_f5, sum_f5_raw


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
        - Fraction((k - 3) * _f3_int(g.gaps), 2 * n**3)
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
    continuity property applied at the collision zeros.
    """
    _require_odd(g, 3)
    n, k = g.ring_size, g.token_count
    _, sum_f5, sum_f5_raw = _drift_sums(n, g.gaps)
    denom = 1 << k
    lhs = Fraction(sum_f5_raw, denom)
    merged = Fraction(sum_f5, denom)
    rhs = (
        Fraction(_f5_int(g.gaps))
        - Fraction((k - 3) * _f3_int(g.gaps), 8)
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

@lru_cache(maxsize=None)
def _delta_matrix(k: int) -> np.ndarray:
    masks = np.arange(1 << k, dtype=np.uint32)
    cols = []
    for i in range(k):
        cols.append(((masks >> i) & 1).astype(np.int8) - ((masks >> ((i - 1) % k)) & 1).astype(np.int8))
    return np.stack(cols, axis=1)


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
    """Closed-form moment for one block or two non-adjacent blocks; else None.

    A block of length L has moment 0 when L is odd and (-1/4)^(L/2) when L
    is even; two non-adjacent blocks multiply.
    """
    idx = tuple(sorted(set(indices)))
    blocks = _cyclic_blocks(k, idx)

    def block_value(length: int) -> Fraction:
        if length % 2 == 1:
            return Fraction(0)
        return Fraction(-1, 4) ** (length // 2)

    if len(blocks) == 1:
        return block_value(blocks[0][1])
    if len(blocks) == 2:
        (s1, l1), (s2, l2) = blocks
        e1, e2 = (s1 + l1 - 1) % k, (s2 + l2 - 1) % k
        adjacent = (e1 + 1) % k == s2 or (e2 + 1) % k == s1
        if adjacent:
            return None
        return block_value(l1) * block_value(l2)
    return None


def expected_time_record(g: GapVector, et: Fraction) -> dict:
    bound = theorem1_bound(g.ring_size)
    return {
        "N": g.ring_size,
        "gaps": list(g.gaps),
        "expected_time_num": et.numerator,
        "expected_time_den": et.denominator,
        "bound_num": bound.numerator,
        "bound_den": bound.denominator,
        "pass": et <= bound,
    }


def canonical_gap_vector(g: GapVector) -> GapVector:
    return canonical_rotation(g)
