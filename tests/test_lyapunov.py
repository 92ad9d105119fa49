import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from conftest import random_gaps, random_simplex_fractions
from herman_lab.lyapunov import (
    ALPHA,
    V,
    V3,
    V5,
    alternating_tuples,
    c_value,
    check_simplex,
    derivative_terms,
    f,
    f3,
    f5,
    scalar_rotation_product,
    second_order_sum,
)
from herman_lab.ring import GapVector

THIRD = Fraction(1, 3)


def uniform(k):
    return tuple(Fraction(1, k) for _ in range(k))


# --- f3 / f5 / f ----------------------------------------------------------

def test_f3_uniform_k3():
    assert f3(uniform(3)) == Fraction(1, 27)


def test_f3_uniform_k5_matches_closed_form():
    assert f3(uniform(5)) == Fraction(1, 25)
    assert f3(uniform(5)) == Fraction(1, 24) * (1 - Fraction(1, 25))


def test_f3_vertex_is_zero():
    for k in (3, 5, 7):
        x = (Fraction(1),) + (Fraction(0),) * (k - 1)
        assert f3(x) == 0


def test_f3_rejects_bad_dimension():
    with pytest.raises(ValueError):
        f3((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        f3((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))


def test_simplex_tolerance_rejects_off_simplex():
    with pytest.raises(ValueError):
        check_simplex((0.5, 0.5, 0.1))
    with pytest.raises(ValueError):
        check_simplex((0.5, 0.6, -0.1))
    with pytest.raises(ValueError):
        f3((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    # within float tolerance is accepted
    check_simplex((0.3, 0.3, 0.4 + 1e-13))


@pytest.mark.parametrize("length", [2, 3, 4, 5])
@pytest.mark.parametrize("k", range(12))
def test_alternating_tuples_match_brute_force(k, length):
    brute = [t for t in combinations(range(k), length) if all((b - a) % 2 == 1 for a, b in zip(t, t[1:]))]
    assert list(alternating_tuples(k, length)) == brute


def test_f5_zero_for_k3():
    assert f5(uniform(3)) == 0
    assert f5((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))) == 0


def test_f5_uniform_k5():
    assert f5(uniform(5)) == Fraction(1, 3125)


def test_f5_uniform_k7_counts_seven_monomials():
    # derived: each monomial contributes (1/7)^5 and there are exactly 7
    assert len(alternating_tuples(7, 5)) == 7
    assert f5(uniform(7)) == Fraction(7, 7**5) == Fraction(1, 2401)


def test_f_uniform_values():
    assert f(uniform(3)) == Fraction(1, 27)
    assert f(uniform(5)) == Fraction(1, 25) - 24 * Fraction(1, 3125) == Fraction(101, 3125)


def test_f_boundary_reduction_point():
    x = (Fraction(1, 6), Fraction(0), Fraction(1, 6), THIRD, THIRD)
    assert f(x) == Fraction(1, 27)


def test_f_range_on_random_points(rng):
    for _ in range(200):
        k = rng.choice((3, 5, 7, 9))
        x = random_simplex_fractions(rng, k)
        v3 = f3(x)
        assert 0 <= v3 <= Fraction(1, 24)
        assert f5(x) >= 0


def test_rotation_symmetry_exact(rng):
    for _ in range(100):
        k = rng.choice((3, 5, 7, 9, 11))
        x = random_simplex_fractions(rng, k)
        turn = rng.randrange(1, k)
        for image in (x[turn:] + x[:turn], x[::-1]):
            assert f(x) == f(image)
            assert f3(x) == f3(image)
            assert f5(x) == f5(image)


def test_rotation_and_reversal_symmetry_on_every_small_integer_vector():
    # odd K: every cyclic index difference of an alternating tuple is odd, so the
    # drift sums may evaluate a canonical successor in place of the unrotated one
    for k in (1, 3, 5, 7):
        for x in product(range(3), repeat=k):
            images = [x[j:] + x[:j] for j in range(k)]
            for image in images + [y[::-1] for y in images]:
                assert f3(image, check=False) == f3(x, check=False), x
                assert f5(image, check=False) == f5(x, check=False), x


def test_int64_columns_evaluate_each_row(rng):
    rows = np.array([[rng.randint(0, 64) for _ in range(9)] for _ in range(50)], dtype=np.int64)
    for poly in (f3, f5):
        assert poly(rows.T, check=False).tolist() == [poly(row, check=False) for row in rows.tolist()]


def test_continuity_reduction_exact(rng):
    # f^(K)(x0, 0, x2, ...) = f^(K-2)(x0+x2, x3, ...), separately for f3/f5
    for _ in range(100):
        k = rng.choice((5, 7, 9))
        x = list(random_simplex_fractions(rng, k - 1))
        full = tuple(x[:1] + [Fraction(0)] + x[1:])
        reduced = tuple([x[0] + x[1]] + x[2:])
        assert f3(full) == f3(reduced)
        assert f5(full) == f5(reduced)
        assert f(full) == f(reduced)


def test_float_backend_agrees_with_exact(rng):
    for _ in range(50):
        k = rng.choice((5, 7))
        x = random_simplex_fractions(rng, k)
        xf = tuple(float(v) for v in x)
        assert math.isclose(f(xf), float(f(x)), rel_tol=1e-12, abs_tol=1e-14)


# --- scalar rotation products ----------------------------------------------

def test_scalar_rotation_product_uniform():
    for k in (3, 5, 7):
        for j in range(1, k, 2):
            assert scalar_rotation_product(uniform(k), j) == Fraction(1, k)


def test_scalar_rotation_product_vertex():
    x = (Fraction(1), Fraction(0), Fraction(0))
    assert scalar_rotation_product(x, 1) == 0


def test_scalar_rotation_product_example():
    x = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert scalar_rotation_product(x, 1) == Fraction(5, 16)


def test_scalar_rotation_product_domain():
    with pytest.raises(ValueError):
        scalar_rotation_product(uniform(5), 0)
    with pytest.raises(ValueError):
        scalar_rotation_product(uniform(5), 5)


# --- V3 / V5 / V ------------------------------------------------------------

def test_v3_equidistant_nine():
    assert V3(GapVector(9, (3, 3, 3))) == 12


def test_v5_zero_for_three_tokens():
    assert V5(GapVector(9, (2, 3, 4))) == 0


def test_v_three_ring():
    assert V(GapVector(3, (1, 1, 1))) == Fraction(4, 3)


def test_v_identity_exact(rng):
    for _ in range(100):
        k = rng.choice((3, 5, 7, 9))
        n = rng.randint(k + 1, 24)
        g = random_gaps(rng, k, n)
        assert V(g) == V3(g) - 24 * V5(g)


def test_v_rejects_even_token_count():
    with pytest.raises(ValueError):
        V3(GapVector(6, (3, 3)))


def test_v_k3_product_form(rng):
    # V coincides with 4 g0 g1 g2 / N when K = 3
    for _ in range(50):
        n = rng.randint(4, 30)
        g = random_gaps(rng, 3, n)
        g0, g1, g2 = g.gaps
        assert V(g) == Fraction(4 * g0 * g1 * g2, n)


# --- critical-point quantities ----------------------------------------------

def test_c_value_uniform_k5():
    assert c_value(uniform(5)) == Fraction(26, 125)


def test_c_value_uniform_k7():
    assert c_value(uniform(7)) == Fraction(51, 343)


def test_c_value_constant_over_rotations_at_uniform():
    x = uniform(7)
    values = {c_value(x, k) for k in range(7)}
    assert values == {Fraction(51, 343)}


def test_second_order_sum_examples():
    assert second_order_sum(uniform(5)) == Fraction(1, 25)
    assert second_order_sum(uniform(7)) == Fraction(3, 49)
    vertex = (Fraction(1),) + (Fraction(0),) * 6
    assert all(second_order_sum(vertex, k) == 0 for k in range(7))


def test_derivative_terms_uniform_k5():
    p, q, r = derivative_terms(uniform(5))
    assert q == 0
    assert r == -Fraction(1, 125)
    assert p == Fraction(3, 25) - 24 * Fraction(1, 625)


def test_derivative_terms_q_vanishes_at_uniform_k7():
    _, q, _ = derivative_terms(uniform(7))
    assert q == 0


def test_derivative_terms_reject_k3():
    with pytest.raises(ValueError):
        derivative_terms(uniform(3))


def test_alpha_constant():
    assert ALPHA == 24


def test_eq4_consistency_where_q_vanishes(rng):
    # where Q vanishes for all rotations (the uniform point), c is constant
    for k in (5, 7, 9):
        x = uniform(k)
        qs = []
        for shift in range(k):
            rotated = x[shift:] + x[:shift]
            qs.append(derivative_terms(rotated)[1])
        assert all(q == 0 for q in qs)
        assert len({c_value(x, j) for j in range(k)}) == 1
