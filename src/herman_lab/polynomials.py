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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import lyapunov
from .lyapunov import alternating_tuples
from .ring import check_odd_k

Monomial = tuple[int, ...]


def _accumulate(terms: dict[Monomial, Fraction], pairs) -> dict[Monomial, Fraction]:
    """Add (monomial, coefficient) pairs into `terms` in place, summing like terms and dropping zeros.

    Each operation passes a fresh dict: {}, or a copy of its left operand's
    terms, which is much faster than re-adding them."""
    for mono, coeff in pairs:
        if mono in terms:
            acc = terms[mono] + coeff
            if acc:
                terms[mono] = acc
            else:
                del terms[mono]
        elif coeff:
            terms[mono] = coeff
    return terms


class SparsePolynomial:
    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, Fraction] | None = None):
        self.num_vars = num_vars
        pairs = [(tuple(sorted(mono)), Fraction(coeff)) for mono, coeff in (terms or {}).items()]
        if any(coeff and mono and not (0 <= mono[0] and mono[-1] < num_vars) for mono, coeff in pairs):
            raise ValueError("monomial index out of range")
        self.terms = _accumulate({}, pairs)

    def _with_terms(self, terms: dict[Monomial, Fraction]) -> "SparsePolynomial":
        result = SparsePolynomial.__new__(SparsePolynomial)
        result.num_vars = self.num_vars
        result.terms = terms
        return result

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

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different variable spaces")
        return self._with_terms(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "SparsePolynomial":
        return self._with_terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            return self._with_terms(_accumulate({}, ((m, c * other) for m, c in self.terms.items())))
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different variable spaces")
        products = (
            (tuple(sorted(m1 + m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )
        return self._with_terms(_accumulate({}, products))

    __rmul__ = __mul__

    def term_count(self) -> int:
        return len(self.terms)

    def rotate(self, k: int) -> "SparsePolynomial":
        """Map every variable index i to (i + k) mod num_vars."""
        K = self.num_vars
        rotated = ((tuple(sorted((i + k) % K for i in mono)), c) for mono, c in self.terms.items())
        return self._with_terms(_accumulate({}, rotated))

    def substitute(self, mapping: Mapping[int, "SparsePolynomial"], num_vars: int) -> "SparsePolynomial":
        """Replace each variable by a polynomial in a `num_vars`-variable space.

        Variables absent from the mapping are carried over as the same
        index in the target space.  Every term's expansion is summed into
        one accumulator.
        """

        def expansion(mono: Monomial, coeff: Fraction):
            pairs = [((), coeff)]
            for i in mono:
                factor = mapping.get(i)
                if factor is None:
                    pairs = [(m + (i,), c) for m, c in pairs]
                else:
                    pairs = [(m1 + m2, c1 * c2) for m1, c1 in pairs for m2, c2 in factor.terms.items()]
            return ((tuple(sorted(m)), c) for m, c in pairs)

        pairs = (pair for mono, coeff in self.terms.items() for pair in expansion(mono, coeff))
        return SparsePolynomial.zero(num_vars)._with_terms(_accumulate({}, pairs))

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


def sum_rotations(p: SparsePolynomial) -> SparsePolynomial:
    rotations = (pair for k in range(p.num_vars) for pair in p.rotate(k).terms.items())
    return p._with_terms(_accumulate({}, rotations))


def build_alternating(k: int, length: int) -> SparsePolynomial:
    terms = {mono: Fraction(1) for mono in alternating_tuples(k, length)}
    return SparsePolynomial(k, terms)


def build_f3(k: int) -> SparsePolynomial:
    check_odd_k(k, 3)
    return build_alternating(k, 3)


def build_f5(k: int) -> SparsePolynomial:
    check_odd_k(k, 3)
    return build_alternating(k, 5)


def build_f(k: int) -> SparsePolynomial:
    return build_f3(k) - lyapunov.ALPHA * build_f5(k)


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

    def to_record(self) -> dict:
        record = {"identity": self.identity, "K": self.K, "missing_terms": self.missing_terms, "extra_terms": self.extra_terms}
        if self.l is not None:
            record["l"] = self.l
        return {**record, "pass": self.ok}


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
    to the (K-2)-variable one; verified separately for f3 and f5 (f = f3 - alpha f5
    follows, since `substitute` is linear)."""
    check_odd_k(k, 5)
    for name, build in (("f3", build_f3), ("f5", build_f5)):
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
    """Rotations of the even/odd/even triple sum (the alternating triples
    x_{i2} x_{i3} x_{i4} with i2 even and at least 2) collapse to (K-3)/2 f3."""
    check_odd_k(k, 5)
    triples = {c: 1 for c in alternating_tuples(k, 3) if c[0] >= 2 and c[0] % 2 == 0}
    lhs = sum_rotations(SparsePolynomial(k, triples))
    rhs = Fraction(k - 3, 2) * build_f3(k)
    return _compare("rotation_sum", k, lhs, rhs)


def check_fancy_sum(k: int, l: int) -> IdentityCheck:
    """Weighted rotation sum of truncated alternating products.

    The left side weights chains starting at an odd i1 by (K - i1 - 2)/2 and
    sums all K rotations; the right side is ((l-1)K/2 - l) times the full
    alternating l-fold product sum.
    """
    check_odd_k(k, 5)
    if l % 2 == 0:
        raise ValueError("l must be odd")
    if not 3 <= l <= k:
        raise ValueError("l must satisfy 3 <= l <= K")
    chains = alternating_tuples(k, l)
    weighted = {c: Fraction(k - c[1] - 2, 2) for c in chains if c[0] == 0 and c[1] < k - 2}
    lhs = sum_rotations(SparsePolynomial(k, weighted))
    rhs = (Fraction(l - 1, 2) * k - l) * build_alternating(k, l)
    return _compare("fancy_sum", k, lhs, rhs, l=l)


def check_corollary_sums(k: int) -> IdentityCheck:
    """Both corollary instantiations: the fancy sum at l=3 is (K-3) f3, at l=5 (2K-5) f5."""
    check_odd_k(k, 5)
    for l in (3, 5):
        sub = check_fancy_sum(k, l)
        if not sub:
            sub.identity = f"corollary_sums[l={l}]"
            return sub
    return IdentityCheck("corollary_sums", k)


def check_c_rotation_sum(k: int) -> IdentityCheck:
    """Summing the K rotations of the critical-value expression.

    Split into two exact polynomial identities: the linear parts sum to
    (K-1)/2 * (x_0 + ... + x_{K-1}) and the cubic parts sum to
    (K-3)/2 * f3, which is `check_rotation_sum_identity`.  On the simplex
    these combine to K c = (K-1)/2 - (K-3)/2 * alpha * f3.
    """
    check_odd_k(k, 5)
    linear = SparsePolynomial(k, {(i2,): 1 for i2 in range(2, k, 2)})
    all_vars = SparsePolynomial(k, {(i,): 1 for i in range(k)})
    lin_check = _compare("c_rotation_sum[linear]", k, sum_rotations(linear), Fraction(k - 1, 2) * all_vars)
    if not lin_check:
        return lin_check
    cub_check = check_rotation_sum_identity(k)
    if not cub_check:
        cub_check.identity = "c_rotation_sum[cubic]"
        return cub_check
    return IdentityCheck("c_rotation_sum", k)
