import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from herman_lab import lyapunov
from herman_lab import optimize as opt
from herman_lab.lyapunov import f3
from herman_lab.optimize import (
    OptimizerConfig,
    alpha_threshold,
    contradiction_chain_check,
    gradient_fd_validation,
    interior_max_scan,
    kkt_report,
    maximize,
    project_to_simplex,
)

SMALL = OptimizerConfig(starts=20, seed=3)


def f3_closed_form(k: int) -> float:
    return (1 - 1 / k**2) / 24


# --- projection ---------------------------------------------------------------

def test_projection_fixes_simplex_points():
    x = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_to_simplex(x), x)


def test_projection_properties(rng):
    gen = np.random.default_rng(5)
    for _ in range(200):
        v = gen.normal(size=gen.integers(2, 9))
        p = project_to_simplex(v)
        assert p.min() >= 0
        assert abs(p.sum() - 1) < 1e-12
        # projection is idempotent
        assert np.allclose(project_to_simplex(p), p, atol=1e-12)


def test_projection_known_case():
    assert np.allclose(project_to_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


# --- maximize -------------------------------------------------------------------

@pytest.mark.parametrize("k", (3, 5, 7))
def test_maximize_f3_matches_closed_form(k):
    report = maximize("f3", k, SMALL)
    assert abs(report.value - f3_closed_form(k)) <= 1e-9


def test_maximize_f_hits_one_27():
    for k in (3, 5, 7):
        report = maximize("f", k, SMALL)
        assert report.value <= 1 / 27 + 1e-9
        assert report.value >= 1 / 27 - 1e-9


def test_maximize_f5_uniform_k5():
    report = maximize("f5", 5, SMALL)
    assert abs(report.value - (1 / 5) ** 5) <= 1e-9


def test_maximize_rejects_bad_input():
    with pytest.raises(ValueError):
        maximize("g", 5, SMALL)
    with pytest.raises(ValueError):
        maximize("f", 4, SMALL)


def test_maximize_deterministic():
    a = maximize("f", 5, OptimizerConfig(starts=10, seed=9))
    b = maximize("f", 5, OptimizerConfig(starts=10, seed=9))
    assert a == b


def test_f3_bounded_on_visited_points(monkeypatch):
    # every point the ascent visits, accepted step or not, is a projection onto the simplex
    seen = []

    def spy(v):
        x = project_to_simplex(v)
        seen.append(tuple(x))
        return x

    monkeypatch.setattr(opt, "project_to_simplex", spy)
    maximize("f3", 5, OptimizerConfig(starts=5, seed=4))
    assert len(seen) > 7  # more than the one projection of each start point
    for x in seen:
        total = sum(x)
        assert f3(tuple(v / total for v in x)) <= Fraction(1, 24) + Fraction(1, 10**12)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(starts=0)
    for max_iters in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=max_iters)
    assert OptimizerConfig(max_iters=1).max_iters == 1


# --- kkt reports ------------------------------------------------------------------

def test_kkt_uniform_k5_c_values():
    report = kkt_report((0.2,) * 5)
    expected = 26 / 125
    assert all(abs(c - expected) < 1e-12 for c in report.c_values)
    assert max(report.c_values) - min(report.c_values) < 1e-15
    assert report.interior


def test_kkt_uniform_k7_records_cor11_violation():
    # 2 S1 + S3 = 3/7 exceeds 7/24; recorded, never asserted, since the
    # uniform point is not an interior local maximum with f above 1/27
    report = kkt_report((1 / 7,) * 7)
    assert abs(report.cor11_lhs - 3 / 7) < 1e-12
    assert report.cor11_lhs > 7 / 24
    assert report.lemma12_check is None


def test_kkt_vertex_second_order_zero():
    report = kkt_report((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert all(s == 0 for s in report.second_order)
    assert not report.interior


def test_kkt_report_serializes():
    record = kkt_report((0.2,) * 5).to_record()
    assert set(record) >= {
        "point",
        "value",
        "interior",
        "c_values",
        "second_order",
        "cor11_lhs",
        "lemma14_margin",
        "lemma12_check",
    }
    assert len(record["c_values"]) == 5
    assert len(record["second_order"]) == 5


def test_lemma14_margin_nonnegative_at_uniform_k5():
    # uniform K=5 passes the second-order test, so the margin must hold
    report = dataclasses.replace(kkt_report((0.2,) * 5), converged=True)
    assert report.interior and report.converged and max(report.second_order) <= 1 / lyapunov.ALPHA + 10 * opt.TOL_GRAD
    assert report.lemma14_margin >= -1e-12


def test_uniform_k7_violations_are_recorded_not_asserted():
    # uniform K=7 is a critical point but fails the pair-sum bound; the
    # conditional quantities may then be violated and are only recorded
    report = dataclasses.replace(kkt_report((1 / 7,) * 7), converged=True)
    assert report.interior
    assert max(report.second_order) > 1 / 24
    assert not (report.interior and report.converged and max(report.second_order) <= 1 / lyapunov.ALPHA + 10 * opt.TOL_GRAD)
    assert report.lemma14_margin < 0  # recorded violation, no assertion raised


# --- interior scans ------------------------------------------------------------------

@pytest.mark.parametrize("k", (5, 7))
def test_interior_scan_finds_nothing_above_one_27(k):
    reports = interior_max_scan(k, OptimizerConfig(starts=40, seed=13))
    assert reports
    for report in reports:
        assert report.interior and report.converged
        assert report.value <= 1 / 27 + 1e-9
        if report.interior and report.converged and max(report.second_order) <= 1 / lyapunov.ALPHA + 10 * opt.TOL_GRAD:
            # conditions guaranteed at maxima hold within the documented slack
            spread = max(report.c_values) - min(report.c_values)
            assert spread <= 10 * 1e-7
            assert report.lemma14_margin >= -10 * 1e-7
            assert report.cor11_lhs <= k / 24 + 10 * 1e-7


def test_interior_scan_sees_uniform_critical_point():
    reports = interior_max_scan(5, OptimizerConfig(starts=10, seed=2))
    assert any(max(abs(v - 0.2) for v in r.point) < 1e-6 for r in reports)


def test_interior_scan_rejects_k3():
    with pytest.raises(ValueError):
        interior_max_scan(3, SMALL)


# --- the contradiction chain -----------------------------------------------------------

def test_chain_not_applicable_at_scanned_points():
    reports = interior_max_scan(5, OptimizerConfig(starts=20, seed=8))
    for report in reports:
        chain = contradiction_chain_check(report)
        assert not chain.applicable
        assert chain.reason == "f value does not exceed 1/27"


def test_chain_not_applicable_on_boundary():
    chain = contradiction_chain_check(kkt_report((1 / 3, 1 / 3, 1 / 3, 0.0, 0.0)))
    assert not chain.applicable
    assert chain.reason == "point is not interior"


def _chain_from_point(point):
    """The chain with its c values and pair sums computed straight from the point, as a reference."""
    x = tuple(point)
    k = len(x)
    f_value = opt._value_fn("f", k)(np.asarray(x))
    c_values = [lyapunov.c_value(x, j) for j in range(k)]
    c_spread = max(c_values) - min(c_values)
    if min(x) <= opt.TOL_INTERIOR:
        return opt.ChainReport(k, False, "point is not interior", f_value)
    if f_value <= opt.ONE_27:
        return opt.ChainReport(k, False, "f value does not exceed 1/27", f_value)
    if c_spread > 10 * opt.TOL_GRAD:
        return opt.ChainReport(k, False, "first-order condition fails (c not constant)", f_value)
    if max(lyapunov.second_order_sum(x, j) for j in range(k)) > 1 / 24 + 10 * opt.TOL_GRAD:
        return opt.ChainReport(k, False, "second-order condition fails", f_value)
    denom = (3 * k - 9) / 2 * f_value - (k - 1) / 2 * 24 * opt._value_fn("f5", k)(np.asarray(x))
    implied = (k - 1) / 2 / denom if denom > 0 else math.inf
    return opt.ChainReport(k, True, "chain evaluated", f_value, implied, sum(c_values) / k, c_spread)


@pytest.mark.parametrize("bound", (1 / 27, 0.0), ids=("one_27", "zero"))
def test_chain_of_a_report_equals_the_chain_of_its_point(bound, monkeypatch):
    # with the bound lowered to 0 the chain passes its f test and reaches the later conditions
    monkeypatch.setattr(opt, "ONE_27", bound)
    reports = [r for k in (5, 7, 9) for r in interior_max_scan(k, OptimizerConfig(starts=8, seed=1))]
    assert {len(r.point) for r in reports} == {5, 7, 9}
    reports.append(kkt_report((0.5, 0.25, 0.25, 0.0, 0.0)))
    chains = [contradiction_chain_check(r) for r in reports]
    assert chains == [_chain_from_point(r.point) for r in reports]
    reasons = {c.reason for c in chains}
    assert "point is not interior" in reasons
    assert reasons >= ({"chain evaluated", "second-order condition fails"} if bound == 0 else {"f value does not exceed 1/27"})


def test_alpha_threshold_values():
    assert alpha_threshold(5) == Fraction(216, 11)
    assert alpha_threshold(7) == Fraction(72, 5)
    assert abs(float(alpha_threshold(7)) - 14.4) < 1e-12
    for k in (5, 7, 9, 11, 13):
        assert alpha_threshold(k) == Fraction(216 * (k - 1), 23 * k - 71)
        assert float(alpha_threshold(k)) < 19.7


def test_threshold_rejects_bad_k():
    with pytest.raises(ValueError):
        alpha_threshold(3)
    with pytest.raises(ValueError):
        alpha_threshold(6)


# --- finite differences -------------------------------------------------------------------

@pytest.mark.parametrize("k", (5, 7))
def test_gradient_fd_validation(k):
    assert gradient_fd_validation(k, 30, seed=1) <= 1e-6


def test_fd_rejects_small_k():
    with pytest.raises(ValueError):
        gradient_fd_validation(3, 10)

