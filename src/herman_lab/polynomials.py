"""Exact sparse multivariate polynomials over the rationals.

This module verifies the combinatorial rotation-sum identities behind
the Lyapunov analysis as *polynomial* equalities, not numeric samples.
A polynomial is a map from sorted index multisets (tuples, repeats
allowed) to nonzero Fraction coefficients; two polynomials are equal
iff their term maps are equal.  No division, factorization or other
computer-algebra machinery: addition, multiplication, rotation of
variable indices, and substitution are all the checks need.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .lyapunov import ALPHA, alternating_tuples

Monomial = tuple[int, ...]


class SparsePolynomial:
    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, Fraction] | None = None):
        self.num_vars = num_vars
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                mono = tuple(sorted(mono))
                if mono and not (0 <= mono[0] and mono[-1] < num_vars):
                    raise ValueError("monomial index out of range")
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value) -> "SparsePolynomial":
        return cls(num_vars, {(): Fraction(value)})

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars, {(index,): Fraction(1)})

    @classmethod
    def monomial(cls, indices: Sequence[int], num_vars: int, coeff=1) -> "SparsePolynomial":
        return cls(num_vars, {tuple(sorted(indices)): Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different variable spaces")
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, Fraction(0)) + coeff
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
        result = SparsePolynomial(self.num_vars)
        result.terms = out
        return result

    def __neg__(self) -> "SparsePolynomial":
        result = SparsePolynomial(self.num_vars)
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SparsePolynomial.zero(self.num_vars)
            result = SparsePolynomial(self.num_vars)
            result.terms = {m: c * other for m, c in self.terms.items()}
            return result
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different variable spaces")
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                acc = out.get(mono, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        result = SparsePolynomial(self.num_vars)
        result.terms = out
        return result

    __rmul__ = __mul__

    def term_count(self) -> int:
        return len(self.terms)

    def rotate(self, k: int) -> "SparsePolynomial":
        """Map every variable index i to (i + k) mod num_vars."""
        K = self.num_vars
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            new = tuple(sorted((i + k) % K for i in mono))
            out[new] = out.get(new, Fraction(0)) + coeff
        result = SparsePolynomial(K)
        result.terms = {m: c for m, c in out.items() if c != 0}
        return result

    def substitute(self, mapping: Mapping[int, "SparsePolynomial"], num_vars: int) -> "SparsePolynomial":
        """Replace each variable by a polynomial in a `num_vars`-variable space.

        Variables absent from the mapping are carried over as the same
        index in the target space.
        """
        acc = SparsePolynomial.zero(num_vars)
        for mono, coeff in self.terms.items():
            term = SparsePolynomial.constant(num_vars, coeff)
            for i in mono:
                factor = mapping.get(i)
                if factor is None:
                    factor = SparsePolynomial.variable(i, num_vars)
                term = term * factor
            acc = acc + term
        return acc

    def evaluate(self, values: Sequence):
        total = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in values) else 0.0
        for mono, coeff in self.terms.items():
            prod = coeff if isinstance(total, Fraction) else float(coeff)
            for i in mono:
                prod *= values[i]
            total += prod
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            body = "*".join(f"x{i}" for i in mono) if mono else "1"
            parts.append(f"{coeff}*{body}")
        return " + ".join(parts)


def rotate(p: SparsePolynomial, k: int) -> SparsePolynomial:
    if not 0 <= k < p.num_vars:
        raise ValueError("rotation amount must satisfy 0 <= k < num_vars")
    return p.rotate(k)


def sum_rotations(p: SparsePolynomial) -> SparsePolynomial:
    acc = SparsePolynomial.zero(p.num_vars)
    for k in range(p.num_vars):
        acc = acc + p.rotate(k)
    return acc


def _require_odd_k(k: int, minimum: int = 3) -> None:
    if k < minimum or k % 2 == 0:
        raise ValueError(f"K must be odd and >= {minimum}")


def build_alternating(k: int, length: int) -> SparsePolynomial:
    terms = {mono: Fraction(1) for mono in alternating_tuples(k, length)}
    return SparsePolynomial(k, terms)


def build_f3(k: int) -> SparsePolynomial:
    _require_odd_k(k)
    return build_alternating(k, 3)


def build_f5(k: int) -> SparsePolynomial:
    _require_odd_k(k)
    return build_alternating(k, 5)


def build_f(k: int, alpha=ALPHA) -> SparsePolynomial:
    _require_odd_k(k)
    return build_f3(k) - alpha * build_f5(k)


@dataclass
class IdentityCheck:
    """Outcome of one polynomial identity check; truthy iff it holds."""

    identity: str
    K: int
    l: int | None = None
    ok: bool = True
    missing_terms: list = field(default_factory=list)
    extra_terms: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> str:
        payload = {
            "identity": self.identity,
            "K": self.K,
            "missing_terms": self.missing_terms,
            "extra_terms": self.extra_terms,
        }
        if self.l is not None:
            payload["l"] = self.l
        payload["pass"] = self.ok
        return json.dumps(payload)


def _compare(identity: str, k: int, lhs: SparsePolynomial, rhs: SparsePolynomial, l: int | None = None) -> IdentityCheck:
    """Report rhs terms absent from lhs (missing) and lhs terms absent from rhs (extra)."""
    diff = lhs - rhs
    missing = []
    extra = []
    for mono, coeff in sorted(diff.terms.items()):
        entry = {"indices": list(mono), "coefficient": str(abs(coeff))}
        if coeff < 0:
            missing.append(entry)
        else:
            extra.append(entry)
    return IdentityCheck(identity, k, l, not diff.terms, missing, extra)


def check_continuity(k: int) -> IdentityCheck:
    """Setting x_1 = 0 and merging x_0 + x_2 reduces the K-variable polynomial
    to the (K-2)-variable one; verified separately for f3 and f5 (f follows)."""
    _require_odd_k(k, minimum=5)
    for name, build in (("f3", build_f3), ("f5", build_f5), ("f", build_f)):
        big = build(k)
        small = build(k - 2)
        # Left side: drop every monomial containing x_1 (that is x_1 := 0),
        # keeping the polynomial in the K-variable space.
        reduced = big.substitute({1: SparsePolynomial.zero(k)}, k)
        # Right side: expand the (K-2)-variable polynomial with its first
        # variable split as x_0 + x_2 and the rest shifted up by two, so both
        # sides live in the same space and equality is the full identity.
        split = {0: SparsePolynomial.variable(0, k) + SparsePolynomial.variable(2, k)}
        for j in range(1, k - 2):
            split[j] = SparsePolynomial.variable(j + 2, k)
        expanded = small.substitute(split, k)
        check = _compare(f"continuity[{name}]", k, reduced, expanded)
        if not check:
            return check
    return IdentityCheck("continuity", k)


def check_rotation_sum_identity(k: int) -> IdentityCheck:
    """Rotations of the even/odd/even triple sum collapse to (K-3)/2 f3."""
    _require_odd_k(k, minimum=5)
    base = SparsePolynomial.zero(k)
    for chain in alternating_tuples(k, 3):
        if chain[0] >= 2 and chain[0] % 2 == 0:
            base = base + SparsePolynomial.monomial(chain, k)
    lhs = sum_rotations(base)
    rhs = Fraction(k - 3, 2) * build_f3(k)
    return _compare("rotation_sum", k, lhs, rhs)


def check_fancy_sum(k: int, l: int) -> IdentityCheck:
    """Weighted rotation sum of truncated alternating products.

    The left side weights chains starting at an odd i1 by (K - i1 - 2)/2 and
    sums all K rotations; the right side is ((l-1)K/2 - l) times the full
    alternating l-fold product sum.
    """
    _require_odd_k(k, minimum=5)
    if l % 2 == 0:
        raise ValueError("l must be odd")
    if not 3 <= l <= k:
        raise ValueError("l must satisfy 3 <= l <= K")
    lhs = SparsePolynomial.zero(k)
    for chain in alternating_tuples(k, l):
        if chain[0] == 0 and chain[1] < k - 2:
            base = SparsePolynomial.monomial(chain, k, Fraction(k - chain[1] - 2, 2))
            lhs = lhs + sum_rotations(base)
    rhs = (Fraction(l - 1, 2) * k - l) * build_alternating(k, l)
    return _compare("fancy_sum", k, lhs, rhs, l=l)


def check_corollary_sums(k: int) -> IdentityCheck:
    """Both corollary instantiations: l=3 gives (K-3) f3, l=5 gives (2K-5) f5."""
    _require_odd_k(k, minimum=5)
    for l, factor, build in ((3, k - 3, build_f3), (5, 2 * k - 5, build_f5)):
        sub = check_fancy_sum(k, l)
        if not sub:
            sub.identity = f"corollary_sums[l={l}]"
            return sub
        # The right side of the fancy sum equals factor * build(k) by definition
        # of the alternating product; assert the numeric factor too.
        if (Fraction(l - 1, 2) * k - l) != factor:
            return IdentityCheck(f"corollary_sums[l={l}]", k, l, ok=False)
    return IdentityCheck("corollary_sums", k)


def check_c_rotation_sum(k: int) -> IdentityCheck:
    """Summing the K rotations of the critical-value expression.

    Split into two exact polynomial identities: the linear parts sum to
    (K-1)/2 * (x_0 + ... + x_{K-1}) and the cubic parts sum to
    (K-3)/2 * f3.  On the simplex these combine to
    K c = (K-1)/2 - (K-3)/2 * alpha * f3.
    """
    _require_odd_k(k, minimum=5)
    linear = SparsePolynomial.zero(k)
    cubic = SparsePolynomial.zero(k)
    for i2 in range(2, k, 2):
        linear = linear + SparsePolynomial.variable(i2, k)
    for chain in alternating_tuples(k, 3):
        if chain[0] >= 2 and chain[0] % 2 == 0:
            cubic = cubic + SparsePolynomial.monomial(chain, k)
    all_vars = SparsePolynomial.zero(k)
    for i in range(k):
        all_vars = all_vars + SparsePolynomial.variable(i, k)
    lin_check = _compare(
        "c_rotation_sum[linear]", k, sum_rotations(linear), Fraction(k - 1, 2) * all_vars
    )
    if not lin_check:
        return lin_check
    cub_check = _compare(
        "c_rotation_sum[cubic]", k, sum_rotations(cubic), Fraction(k - 3, 2) * build_f3(k)
    )
    if not cub_check:
        return cub_check
    return IdentityCheck("c_rotation_sum", k)
