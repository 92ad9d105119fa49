import json
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_simplex_fractions
from herman_lab import polynomials as poly
from herman_lab.lyapunov import f as f_numeric
from herman_lab.polynomials import (
    SparsePolynomial,
    build_f,
    build_f3,
    build_f5,
    check_c_rotation_sum,
    check_continuity,
    check_corollary_sums,
    check_fancy_sum,
    check_rotation_sum_identity,
    sum_rotations,
)

ODD_KS = (5, 7, 9, 11, 13)


# --- construction ---------------------------------------------------------

def test_build_f3_5_exact_monomials():
    expected = {(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4)}
    p = build_f3(5)
    assert set(p.terms) == expected
    assert all(c == 1 for c in p.terms.values())


def test_build_f5_7_exact_monomials():
    expected = {
        (0, 1, 2, 3, 4),
        (0, 1, 2, 3, 6),
        (0, 1, 2, 5, 6),
        (0, 1, 4, 5, 6),
        (0, 3, 4, 5, 6),
        (1, 2, 3, 4, 5),
        (2, 3, 4, 5, 6),
    }
    p = build_f5(7)
    assert set(p.terms) == expected
    assert all(c == 1 for c in p.terms.values())


def test_build_f5_3_is_zero():
    assert not build_f5(3)
    assert build_f5(3).term_count() == 0


def test_build_f_combines_with_coefficient_24():
    p = build_f(5)
    assert p.terms[(0, 1, 2)] == 1
    assert p.terms[(0, 1, 2, 3, 4)] == -24


def test_build_rejects_even_or_small_k():
    for bad in (2, 4, 1):
        with pytest.raises(ValueError):
            build_f3(bad)


def test_term_counts_match_brute_force():
    # independent enumeration: filter all index triples / quintuples
    for k in ODD_KS:
        triples = [
            t
            for t in combinations(range(k), 3)
            if (t[1] - t[0]) % 2 == 1 and (t[2] - t[1]) % 2 == 1
        ]
        assert build_f3(k).term_count() == len(triples)
        quints = [
            q
            for q in combinations(range(k), 5)
            if all((q[i + 1] - q[i]) % 2 == 1 for i in range(4))
        ]
        assert build_f5(k).term_count() == len(quints)


def test_evaluation_matches_numeric_backend(rng):
    for k in (5, 7):
        x = random_simplex_fractions(rng, k)
        assert build_f(k).evaluate(x) == f_numeric(x)


# --- algebra ----------------------------------------------------------------

def test_rotate_identity_and_inverse():
    p = build_f(7)
    assert p.rotate(0) == p
    assert p.rotate(3).rotate(4) == p


def test_rotate_preserves_f3():
    for k in (5, 7, 9):
        p = build_f3(k)
        for shift in range(k):
            assert p.rotate(shift) == p


def test_rotate_is_coefficient_preserving_bijection(rng):
    p = SparsePolynomial(
        7, {(0, 1): Fraction(2), (2, 2, 5): Fraction(-3), (6,): Fraction(1, 2)}
    )
    q = p.rotate(3)
    assert q.term_count() == p.term_count()
    assert sorted(q.terms.values()) == sorted(p.terms.values())


def test_sum_rotations_of_single_variable():
    x0 = SparsePolynomial.variable(0, 5)
    total = sum_rotations(x0)
    assert total.terms == {(i,): Fraction(1) for i in range(5)}


def test_multiplication_tracks_multiplicity():
    x0 = SparsePolynomial.variable(0, 3)
    x1 = SparsePolynomial.variable(1, 3)
    square = (x0 + x1) * (x0 + x1)
    assert square.terms == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(2),
        (1, 1): Fraction(1),
    }


def test_multiplication_drops_cancelled_terms():
    x0 = SparsePolynomial.variable(0, 3)
    x1 = SparsePolynomial.variable(1, 3)
    product = (x0 - x1) * (x0 + x1)
    assert product == SparsePolynomial(3, {(0, 0): 1, (1, 1): -1})
    assert (0, 1) not in product.terms
    assert (product * 0).terms == {}
    assert (Fraction(0) * product).terms == {}


def test_substitution_expands_sums():
    p = SparsePolynomial.monomial((0, 1), 3)
    sub = p.substitute({0: SparsePolynomial.variable(0, 3) + SparsePolynomial.variable(2, 3)}, 3)
    assert sub.terms == {(0, 1): Fraction(1), (1, 2): Fraction(1)}


def test_substitution_equals_the_sum_of_substituted_products():
    """Against the term-by-term sum of polynomial products, with repeated indices, a zero and cancellations."""
    x = [SparsePolynomial.variable(i, 4) for i in range(4)]
    p = SparsePolynomial(4, {(0, 0, 1): 3, (0, 2): Fraction(-1, 2), (1, 3): 5, (2, 2): 1, (): 7, (3,): -2})
    two = SparsePolynomial.constant(4, 2)
    mapping = {0: x[1] - x[3], 1: SparsePolynomial.zero(4), 2: Fraction(1, 3) * x[0] + x[3] + two}

    def reference(mono, coeff):
        term = SparsePolynomial.constant(4, coeff)
        for i in mono:
            term = term * mapping.get(i, x[i])
        return term

    expected = SparsePolynomial.zero(4)
    for mono, coeff in p.terms.items():
        expected = expected + reference(mono, coeff)
    assert p.substitute(mapping, 4) == expected
    without_x3 = {mono: c for mono, c in p.terms.items() if 3 not in mono}
    assert p.substitute({3: x[3] - x[3]}, 4) == SparsePolynomial(4, without_x3)


# --- identity checks ----------------------------------------------------------

@pytest.mark.parametrize("k", ODD_KS)
def test_continuity(k):
    assert check_continuity(k)


@pytest.mark.parametrize("k", ODD_KS)
def test_rotation_sum_identity(k):
    assert check_rotation_sum_identity(k)


def test_rotation_sum_k5_concrete():
    # the 5 rotations of x2 x3 x4 sum to f3^(5)
    base = SparsePolynomial.monomial((2, 3, 4), 5)
    assert sum_rotations(base) == build_f3(5)


def test_rotation_sum_k7_doubles_f3():
    base = SparsePolynomial.zero(7)
    for mono in ((2, 3, 4), (2, 3, 6), (2, 5, 6), (4, 5, 6)):
        base = base + SparsePolynomial.monomial(mono, 7)
    assert sum_rotations(base) == 2 * build_f3(7)


@pytest.mark.parametrize("k", ODD_KS)
def test_fancy_sum_l3(k):
    assert check_fancy_sum(k, 3)


@pytest.mark.parametrize("k", (5, 7, 9, 11, 13))
def test_fancy_sum_l5(k):
    assert check_fancy_sum(k, 5)


def test_fancy_sum_k5_l3_concrete():
    # rotations of x0 x1 x2 + x0 x1 x4 sum to 2 f3^(5)
    base = SparsePolynomial.monomial((0, 1, 2), 5) + SparsePolynomial.monomial((0, 1, 4), 5)
    assert sum_rotations(base) == 2 * build_f3(5)


def test_fancy_sum_k9_l3_weighted_concrete():
    # weighted rotations: 3 x0x1(...) + 2 x0x3(...) + x0x5(...) give 6 f3^(9)
    base = SparsePolynomial.zero(9)
    for weight, i1, evens in ((3, 1, (2, 4, 6, 8)), (2, 3, (4, 6, 8)), (1, 5, (6, 8))):
        for i2 in evens:
            base = base + SparsePolynomial.monomial((0, i1, i2), 9, weight)
    assert sum_rotations(base) == 6 * build_f3(9)


def test_fancy_sum_rejects_bad_l():
    with pytest.raises(ValueError):
        check_fancy_sum(7, 4)
    with pytest.raises(ValueError):
        check_fancy_sum(7, 9)


def test_fancy_sum_l_equals_k_is_the_k5_corollary_case():
    # at K=5 the l=5 instantiation reduces to five rotations of the single
    # quintic monomial, with factor 2K-5 = 5
    assert check_fancy_sum(5, 5)
    base = SparsePolynomial.monomial((0, 1, 2, 3, 4), 5)
    assert sum_rotations(base) == 5 * build_f5(5)


@pytest.mark.parametrize("k", ODD_KS)
def test_corollary_sums(k):
    assert check_corollary_sums(k)


def test_corollary_f5_coefficient_k7():
    # the quintic side carries coefficient 2K-5 = 9 at K=7
    assert Fraction(5 - 1, 2) * 7 - 5 == 9


@pytest.mark.parametrize("k", ODD_KS)
def test_c_rotation_sum(k):
    assert check_c_rotation_sum(k)


def test_c_rotation_sum_names_its_failing_cubic_half(monkeypatch):
    build = poly.build_f3
    monkeypatch.setattr(poly, "build_f3", lambda k: build(k) + SparsePolynomial.monomial((0, 1, 2), k))
    assert check_rotation_sum_identity(7).identity == "rotation_sum"
    check = check_c_rotation_sum(7)
    assert not check and check.identity == "c_rotation_sum[cubic]" and check.to_record()["missing_terms"]


def test_c_rotation_coefficients():
    # K c = (K-1)/2 - (K-3)/2 alpha f3: coefficients (2,1), (3,2), (4,3)
    for k, lin, cub in ((5, 2, 1), (7, 3, 2), (9, 4, 3)):
        assert Fraction(k - 1, 2) == lin
        assert Fraction(k - 3, 2) == cub
        assert check_c_rotation_sum(k)


def test_failure_report_shape():
    lhs = build_f3(5)
    rhs = build_f3(5) + SparsePolynomial.monomial((0, 0, 1), 5) - SparsePolynomial.monomial((0, 1, 2), 5)
    check = poly._compare("synthetic", 5, lhs, rhs)
    assert not check
    record = check.to_record()
    assert record["identity"] == "synthetic"
    assert record["K"] == 5
    assert {"indices": [0, 0, 1], "coefficient": "1"} in record["missing_terms"]
    assert {"indices": [0, 1, 2], "coefficient": "1"} in record["extra_terms"]
    assert record["pass"] is False


def test_identity_check_json_round_trip():
    check = check_fancy_sum(7, 5)
    record = json.loads(json.dumps(check.to_record()))  # as `verify identities` writes it
    assert list(record) == ["identity", "K", "missing_terms", "extra_terms", "l", "pass"]
    assert record == {
        "identity": "fancy_sum",
        "K": 7,
        "l": 5,
        "missing_terms": [],
        "extra_terms": [],
        "pass": True,
    }
