"""The Lyapunov polynomials f3, f5, f and their derivative quantities.

f3 sums x_{i0} x_{i1} x_{i2} over index triples whose consecutive
differences are odd; f5 does the same for quintuples; f = f3 - 24 f5.
Scaled by 4 N^2 and evaluated at the normalized gap vector these give
the Lyapunov functions V3, V5, V whose one-step drift bounds the
expected stabilization time of the ring.

Every function is backend-polymorphic: feed it Fractions (or ints) for
exact rational results, floats for IEEE doubles.  f3 and f5 also take
the columns of an int64 array, `rows.T`, and return every row's value
at once, exact while no sum leaves int64.  Simplex points are validated
by default; pass check=False to evaluate the underlying polynomial at
an arbitrary vector (used by drift identities, which work on raw integer
gap vectors, and by finite-difference oracles that step off the
simplex).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .ring import GapVector, check_odd_k

ALPHA = 24  # coefficient of f5 in f, exactly 24 in the analysis; read as `lyapunov.ALPHA` at call time, so one patch reaches all
TARGETS = ("f3", "f5", "f")  # the polynomials below that `optimize` maximizes

SIMPLEX_TOL = 1e-12


@lru_cache(maxsize=None)
def alternating_tuples(k: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Ascending index tuples in 0..k-1 with every consecutive difference odd.

    The tuples come in lexicographic order.  This is the one enumerator
    of alternating index chains: f3 and f5 sum over all of them, and
    every partial sum below (P, Q, R, the critical value c) and in
    `optimize` and `polynomials` is this list filtered on its first index.
    """
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]):
        if len(prefix) == length:
            out.append(prefix)
            return
        for nxt in range(prefix[-1] + 1, k, 2):
            extend(prefix + (nxt,))

    for start in range(k):
        extend((start,))
    return tuple(out)


def _is_exact(x: Sequence) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in x)


def check_simplex(x: Sequence) -> None:
    """Reject vectors off the standard simplex (no silent renormalizing)."""
    check_odd_k(len(x), 3)
    if any(v < 0 for v in x):
        raise ValueError("simplex coordinates must be nonnegative")
    total = sum(x)
    if _is_exact(x):
        if total != 1:
            raise ValueError("exact simplex coordinates must sum to exactly 1")
    elif abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"simplex coordinates sum to {total!r}, off by more than {SIMPLEX_TOL}")


def f3(x: Sequence, check: bool = True):
    if check:
        check_simplex(x)
    return sum(x[a] * x[b] * x[c] for a, b, c in alternating_tuples(len(x), 3))


def f5(x: Sequence, check: bool = True):
    if check:
        check_simplex(x)
    total = 0
    for a, b, c, d, e in alternating_tuples(len(x), 5):
        total += x[a] * x[b] * x[c] * x[d] * x[e]
    return total


def f(x: Sequence, check: bool = True):
    if check:
        check_simplex(x)
    return f3(x, check=False) - ALPHA * f5(x, check=False)


def scalar_rotation_product(x: Sequence, j: int):
    """S_j: the scalar product of x with itself rotated j places."""
    k = len(x)
    if not 1 <= j < k:
        raise ValueError("rotation offset must satisfy 1 <= j < K")
    return sum(x[i] * x[(i + j) % k] for i in range(k))


def V3(g: GapVector) -> Fraction:
    """4 N^2 f3(g/N); by homogeneity equals 4 f3(g)/N on integer gaps."""
    check_odd_k(g.token_count, 1)
    n = g.ring_size
    return Fraction(4 * f3(g.gaps, check=False), n)


def V5(g: GapVector) -> Fraction:
    """4 N^2 f5(g/N) = 4 f5(g)/N^3 on integer gaps."""
    check_odd_k(g.token_count, 1)
    n = g.ring_size
    return Fraction(4 * f5(g.gaps, check=False), n**3)


def V(g: GapVector) -> Fraction:
    """V3 - ALPHA V5."""
    return V3(g) - ALPHA * V5(g)


def c_value(x: Sequence, k: int = 0):
    """First-order critical value at rotation offset k.

    Linear part sums x over even indices in (1, K); the cubic correction
    runs over 1 < i2 < i3 < i4 < K with i2, i4 even and i3 odd, all
    indices shifted by k mod K.  At an interior local maximum of f this
    value is the same for every k.
    """
    K = len(x)
    if not 0 <= k < K:
        raise ValueError("rotation offset must satisfy 0 <= k < K")
    linear = sum(x[(i2 + k) % K] for i2 in range(2, K, 2))
    cubic = 0
    for i2, i3, i4 in alternating_tuples(K, 3):
        if i2 >= 2 and i2 % 2 == 0:
            cubic += x[(i2 + k) % K] * x[(i3 + k) % K] * x[(i4 + k) % K]
    return linear - ALPHA * cubic


def second_order_sum(x: Sequence, k: int = 0):
    """Sum of x_{i3} x_{i4} over 3 <= i3 < i4 < K, i3 odd, i4 even, shifted by k."""
    K = len(x)
    if not 0 <= k < K:
        raise ValueError("rotation offset must satisfy 0 <= k < K")
    total = 0
    for i3, i4 in alternating_tuples(K, 2):
        if i3 >= 3 and i3 % 2 == 1:
            total += x[(i3 + k) % K] * x[(i4 + k) % K]
    return total


def _partial_at_zero(x: Sequence):
    """P = df/dx_0: pair sum minus ALPHA times the alternating quadruple sum."""
    K = len(x)
    pairs = 0
    for i1, i2 in alternating_tuples(K, 2):
        if i1 % 2 == 1:
            pairs += x[i1] * x[i2]
    quads = 0
    for i1, i2, i3, i4 in alternating_tuples(K, 4):
        if i1 % 2 == 1:
            quads += x[i1] * x[i2] * x[i3] * x[i4]
    return pairs - ALPHA * quads


def derivative_terms(x: Sequence):
    """(P, Q, R) from the second-order expansion of f along d = (-1,0,1,0,...,0).

    P is df/dx_0; Q = P(x rotated by 2) - P(x) is the first-order
    coefficient along d; R = -x_1 + ALPHA x_1 * sum over 2 < i3 < i4 < K
    (i3 odd, i4 even) of x_{i3} x_{i4} is the second-order coefficient.
    """
    K = len(x)
    check_odd_k(K, 5)
    p = _partial_at_zero(x)
    rotated = tuple(x[(i + 2) % K] for i in range(K))
    q = _partial_at_zero(rotated) - p
    r = -x[1] + ALPHA * x[1] * second_order_sum(x)
    return p, q, r
