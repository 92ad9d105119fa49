"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single PASS line after its assertions so a -s run reads
as a checklist.  Exact criteria use rational arithmetic with zero
tolerance; numeric criteria pin the tolerances stated with them.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_gaps
from herman_lab import montecarlo, optimize, polynomials
from herman_lab.lyapunov import f, f3
from herman_lab.markov import (
    delta_moment,
    expected_time_exact,
    max_expected_time,
    moment_formula,
    solve_all_exact,
    theorem1_bound,
    verify_drift_V,
    verify_drift_V3,
    verify_drift_V5,
    verify_prop17,
)
from herman_lab.optimize import OptimizerConfig, alpha_threshold, gradient_fd_validation
from herman_lab.ring import GapVector, config_from_gaps

ONE_27 = Fraction(1, 27)


def _announce(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS: {name}{suffix}")


def test_exact_k3_formula():
    rng = random.Random(101)
    checked = 0
    for _ in range(50):
        n = rng.randint(4, 30)
        g = random_gaps(rng, 3, n)
        g0, g1, g2 = g.gaps
        assert expected_time_exact(g) == Fraction(4 * g0 * g1 * g2, n)
        checked += 1
    assert checked == 50
    _announce("exact K=3 formula", "50 random states, N <= 30, exact equality")


def test_mciver_morgan_values():
    assert expected_time_exact(GapVector(9, (3, 3, 3))) == 12
    assert expected_time_exact(GapVector(9, (3, 3, 3))) == theorem1_bound(9)
    assert expected_time_exact(GapVector(12, (4, 4, 4))) == Fraction(64, 3)
    assert Fraction(64, 3) == theorem1_bound(12)
    _announce("McIver-Morgan values", "N=9 -> 12, N=12 -> 64/3, exact")


def test_theorem1_sweep():
    for n in range(3, 13):
        values = solve_all_exact(n)
        bound = theorem1_bound(n)
        worst = max(values.values())
        assert worst <= bound
        equidistant = n % 3 == 0
        if equidistant:
            target = (n // 3, n // 3, n // 3)
            assert values[target] == bound
            ties = [s for s, v in values.items() if v == bound]
            assert ties == [target]
        else:
            assert worst < bound
    _announce("Theorem 1 sweep", "N in 3..12, equality exactly at N = 3,6,9,12")


@pytest.mark.parametrize(
    "n, argmax, value",
    [(15, (5, 5, 5), Fraction(100, 3)), (16, (5, 5, 6), Fraction(75, 2))],
)
def test_theorem1_beyond_default_capacity(n, argmax, value):
    """Ring sizes past the CLI's default exact capacity, which the library does not apply."""
    worst, best = max_expected_time(n)
    assert worst.gaps == argmax and best == value
    if n % 3 == 0:
        assert best == theorem1_bound(n)
    else:
        assert best < theorem1_bound(n)
    _announce("Theorem 1 sweep", f"N={n}, argmax {argmax}, E[T] = {value} vs bound {theorem1_bound(n)}")


def test_drift_suite():
    rng = random.Random(202)
    per_k = 200
    for k in (3, 5, 7, 9):
        for _ in range(per_k):
            n = rng.randint(k + 1, 30)
            g = random_gaps(rng, k, n)
            assert verify_drift_V3(g).passed
            drift, ok = verify_drift_V(g)
            assert ok and drift <= -1
            if k == 3:
                assert drift == -1
            if k >= 5:
                assert verify_drift_V5(g).passed
                assert verify_prop17(g).passed
    _announce("drift suite", "Lemmas 3/6/8 + Prop 17, 200 states per K, exact")


def test_moment_table():
    for k in range(3, 12, 2):
        for start in range(k):
            for length in range(1, k + 1):
                idx = [(start + j) % k for j in range(length)]
                assert delta_moment(k, idx) == moment_formula(k, idx)
        splits = 0
        for idx in _two_block_splits(k):
            assert delta_moment(k, idx) == moment_formula(k, idx)
            splits += 1
        if k >= 6:
            assert splits > 0
    _announce("moment table", "all blocks and two-block splits, K <= 11, exact")


def _two_block_splits(k):
    seen = set()
    for s1 in range(k):
        for l1 in range(1, k - 2):
            for s2 in range(k):
                for l2 in range(1, k - 2):
                    b1 = frozenset((s1 + j) % k for j in range(l1))
                    b2 = frozenset((s2 + j) % k for j in range(l2))
                    if b1 & b2:
                        continue
                    e1, e2 = (s1 + l1 - 1) % k, (s2 + l2 - 1) % k
                    if (e1 + 1) % k == s2 or (e2 + 1) % k == s1:
                        continue
                    key = frozenset((b1, b2))
                    if key not in seen:
                        seen.add(key)
                        yield sorted(b1 | b2)


def test_cli_two_block_splits_are_the_reference_splits():
    from herman_lab import cli

    for k in range(3, 14):
        assert sorted(cli._two_block_splits(k)) == sorted(_two_block_splits(k)), k
    _announce("two-block splits", "the CLI's equal the reference's, K = 3..13")


def test_symbolic_identities():
    for k in (5, 7, 9, 11, 13):
        assert polynomials.check_continuity(k)
        assert polynomials.check_rotation_sum_identity(k)
        assert polynomials.check_fancy_sum(k, 3)
        assert polynomials.check_fancy_sum(k, 5)
        assert polynomials.check_corollary_sums(k)
        assert polynomials.check_c_rotation_sum(k)
    _announce("symbolic identities", "odd K in 5..13, exact polynomial equality")


def test_optimizer_vs_closed_forms():
    cfg = OptimizerConfig(starts=40, seed=11)
    for k in (3, 5, 7, 9, 11):
        closed = Fraction(1, 24) * (1 - Fraction(1, k * k))
        report3 = optimize.maximize("f3", k, cfg)
        assert abs(report3.value - float(closed)) <= 1e-9
        reportf = optimize.maximize("f", k, cfg)
        assert reportf.value <= float(ONE_27) + 1e-9
        assert reportf.value >= float(ONE_27) - 1e-9
        # exact-rational anchors for both maxima
        uniform = tuple(Fraction(1, k) for _ in range(k))
        assert f3(uniform) == closed
        embedding = (Fraction(1, 3),) * 3 + (Fraction(0),) * (k - 3)
        assert f(embedding) == ONE_27
    _announce("optimizer vs closed forms", "K in 3..11, 1e-9 windows, exact anchors")


def test_interior_scan_and_thresholds():
    cfg = OptimizerConfig(starts=200, seed=17)
    for k in (5, 7, 9):
        reports = optimize.interior_max_scan(k, cfg)
        for report in reports:
            assert report.value <= float(ONE_27) + 1e-9
    assert alpha_threshold(5) == Fraction(216, 11)
    assert abs(float(alpha_threshold(5)) - 216 / 11) <= 1e-12
    assert abs(float(alpha_threshold(7)) - 14.4) <= 1e-12
    _announce("interior scan", "200 starts at K=5,7,9; thresholds 216/11 and 14.4")


def test_derivative_validation():
    for k in (5, 7, 9):
        err = gradient_fd_validation(k, 100, seed=23)
        assert err <= 1e-6
    _announce("derivative validation", "P/Q/R vs finite differences, rel err <= 1e-6")


def test_coupling():
    assert montecarlo.exhaustive_coupling(3).passed
    for n in range(3, 16, 2):
        assert montecarlo.coupled_equivalence(n, 10_000, 404).passed
    _announce("coupling", "bit-flip == token-passing, N in 3..15, 10^4 runs each")


def test_monte_carlo_consistency():
    cases = [
        (9, (3, 3, 3), 10**6),
        (3, (1, 1, 1), 10**6),
        (5, (1, 2, 2), 10**5),
        (5, (1, 1, 3), 10**5),
        (6, (2, 2, 2), 10**5),
        (7, (1, 1, 1, 1, 3), 10**5),
        (7, (2, 2, 3), 10**5),
        (9, (1, 2, 2, 2, 2), 10**5),
        (11, (2, 4, 5), 10**5),
        (12, (4, 4, 4), 10**5),
    ]
    assert len(cases) == 10
    for n, gaps, runs in cases:
        g = GapVector(n, gaps)
        exact = float(expected_time_exact(g))
        stats = montecarlo.estimate(config_from_gaps(g), runs, 808)
        assert abs(stats.mean - exact) <= 4 * stats.stderr, (n, gaps, stats.mean, exact)
        again = montecarlo.estimate(config_from_gaps(g), runs, 808)
        assert again == stats
    _announce("Monte Carlo consistency", "10 exact states, |mean-exact| <= 4 stderr")
