"""Projected-gradient maximization of f3/f5/f over the probability simplex.

Multi-start ascent with Euclidean projection after every gradient step.
Gradients come from the rotated partial-derivative pattern: the partial
of f with respect to coordinate m equals the x_0-partial evaluated at
the point rotated by m.  Reports carry the first- and second-order
critical-point quantities (the rotation-invariant value c, the pair
sums bounded by 1/24, the weighted scalar-product sum, the drop-terms
margin) so converged points can be audited against the conditions an
interior local maximum would have to satisfy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import lyapunov
from .lyapunov import TARGETS, alternating_tuples
from .ring import check_at_least, check_odd_k

ONE_27 = 1.0 / 27.0
STEP_SIZE = 0.5  # first trial step of each backtracking line search
TOL_GRAD = 1e-7  # a point is critical once its projected gradient norm is this small
TOL_INTERIOR = 1e-7  # a point is interior when every coordinate exceeds this


@dataclass
class OptimizerConfig:
    starts: int = 50
    max_iters: int = 400
    seed: int = 0

    def __post_init__(self):
        check_at_least(self.starts, 1, "starts")
        check_at_least(self.max_iters, 1, "max_iters")


@dataclass(kw_only=True)
class CriticalPointReport:
    target: str = "f"
    point: tuple[float, ...]
    value: float
    interior: bool
    converged: bool = False
    grad_norm: float = math.nan
    c_values: tuple[float, ...]
    second_order: tuple[float, ...]
    cor11_lhs: float
    lemma14_margin: float
    lemma12_check: bool | None

    to_record = asdict  # the record's keys are the fields, in this order


@dataclass
class ChainReport:
    """Evaluation of the interior-maximum contradiction chain at one point."""

    K: int
    applicable: bool
    reason: str
    f_value: float
    implied_alpha_bound: float | None = None
    c_mean: float | None = None
    c_spread: float | None = None


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + lam, 0.0)


@lru_cache(maxsize=None)
def _index_arrays(k: int):
    """numpy views of the monomial index sets and the P pair/quad patterns."""
    t3 = np.array(alternating_tuples(k, 3), dtype=np.intp).reshape(-1, 3)
    q5 = np.array(alternating_tuples(k, 5), dtype=np.intp).reshape(-1, 5)
    pairs = [t for t in alternating_tuples(k, 2) if t[0] % 2 == 1]
    quads = [t for t in alternating_tuples(k, 4) if t[0] % 2 == 1]
    rot = (np.arange(k)[:, None] + np.arange(k)[None, :]) % k
    return (
        t3,
        q5,
        np.array(pairs, dtype=np.intp).reshape(-1, 2),
        np.array(quads, dtype=np.intp).reshape(-1, 4),
        rot,
    )


def _value_fn(target: str, k: int):
    t3, q5, _, _, _ = _index_arrays(k)

    def val_f3(x):
        return float(x[t3].prod(axis=1).sum())

    def val_f5(x):
        return float(x[q5].prod(axis=1).sum()) if q5.size else 0.0

    if target == "f3":
        return val_f3
    if target == "f5":
        return val_f5
    return lambda x: val_f3(x) - lyapunov.ALPHA * val_f5(x)


def _grad_fn(target: str, k: int):
    _, _, pairs, quads, rot = _index_arrays(k)

    def grad(x):
        rx = x[rot]  # row m = x rotated by m
        g = np.zeros(k)
        if target in ("f3", "f") and pairs.size:
            g += (rx[:, pairs[:, 0]] * rx[:, pairs[:, 1]]).sum(axis=1)
        if target in ("f5", "f") and quads.size:
            q = (
                rx[:, quads[:, 0]]
                * rx[:, quads[:, 1]]
                * rx[:, quads[:, 2]]
                * rx[:, quads[:, 3]]
            ).sum(axis=1)
            g += -lyapunov.ALPHA * q if target == "f" else q
        return g

    return grad


def _start_points(k: int, cfg: OptimizerConfig) -> list[np.ndarray]:
    """The uniform point, one three-token embedding and cfg.starts random points.

    f3, f5 and f are invariant under rotation for odd K, so an ascent from a
    rotated embedding would only retrace this one's path, rotated.
    """
    embedding = np.zeros(k)
    embedding[:3] = 1.0 / 3.0
    points = [np.full(k, 1.0 / k), embedding]
    for i in range(cfg.starts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
        points.append(rng.dirichlet(np.ones(k)))
    return points


def _ascents(target: str, k: int, cfg: OptimizerConfig):
    """(x, f(x), projected gradient norm) at the end of the ascent from each of `_start_points`, in order."""
    value_fn, grad_fn = _value_fn(target, k), _grad_fn(target, k)
    for x0 in _start_points(k, cfg):
        x = project_to_simplex(np.asarray(x0, dtype=float))
        fx = value_fn(x)
        gnorm = math.inf
        for _ in range(cfg.max_iters):
            g = grad_fn(x)
            gnorm = float(np.linalg.norm(g - g.mean()))
            if gnorm <= TOL_GRAD:
                break
            t = STEP_SIZE
            while t >= 1e-13:  # backtracking: halve the step until f increases
                y = project_to_simplex(x + t * g)
                fy = value_fn(y)
                if fy > fx:
                    x, fx = y, fy
                    break
                t *= 0.5
            else:
                break
        yield x, fx, gnorm


def kkt_report(
    point, target: str = "f", *, grad_norm: float = math.nan, converged: bool = False
) -> CriticalPointReport:
    """Populate every critical-point diagnostic at `point`.

    The c values, pair sums, weighted scalar-product sum and drop-terms
    margin are the quantities constrained at an interior local maximum of
    f; the report records them unconditionally and asserts nothing.
    """
    x = tuple(float(v) for v in point)
    k = len(x)
    value = _value_fn(target, k)(np.asarray(x))
    c_values = tuple(lyapunov.c_value(x, j) for j in range(k))
    second = tuple(lyapunov.second_order_sum(x, j) for j in range(k))
    cor11 = sum(
        (k - i - 2) / 2 * lyapunov.scalar_rotation_product(x, i) for i in range(1, k - 2, 2)
    )
    margin = min(_lemma14_margins(x, c_values))
    f_value = _value_fn("f", k)(np.asarray(x))
    lemma12 = None
    if f_value > ONE_27:
        lemma12 = lyapunov.ALPHA * _value_fn("f5", k)(np.asarray(x)) < 1.0 / 216.0
    return CriticalPointReport(
        point=x,
        value=value,
        interior=min(x) > TOL_INTERIOR,
        c_values=c_values,
        second_order=second,
        cor11_lhs=float(cor11),
        lemma14_margin=float(margin),
        lemma12_check=lemma12,
        target=target,
        grad_norm=grad_norm,
        converged=converged,
    )


def _lemma14_margins(x, c_values) -> list[float]:
    """Full-minus-truncated critical expression times x_0 x_{i1}, at every shift and odd i1.

    The full expression at a shift is its c value; the truncated one keeps
    only its terms with i2 > i1, which are a suffix of the even-i2 triples.
    Dropping the terms absent from f3/f5 can only lower the product at an
    interior local maximum; the margin is the amount dropped.  A sequential
    cumsum sums each tail left to right, as the triples come.
    """
    k = len(x)
    t3, _, _, _, rot = _index_arrays(k)
    t3 = t3[t3[:, 0] % 2 == 0]
    odd = range(1, k, 2)
    starts = np.searchsorted(t3[:, 0], odd, side="right")  # the first triple with i2 > i1
    margins = []
    for shift in range(k):
        xs = np.asarray(x)[rot[shift]]  # xs[i] = x[(i + shift) % k]
        terms = xs[t3[:, 0]] * xs[t3[:, 1]] * xs[t3[:, 2]]
        at = xs.tolist()
        for i1, start in zip(odd, starts):
            tail_cub = float(np.cumsum(terms[start:])[-1]) if start < len(terms) else 0.0
            tail_lin = sum(at[i1 + 1 :: 2])
            margins.append(at[0] * at[i1] * (c_values[shift] - (tail_lin - lyapunov.ALPHA * tail_cub)))
    return margins


def maximize(target: str, k: int, cfg: OptimizerConfig) -> CriticalPointReport:
    """Best point over multi-start projected ascent: the uniform point, one
    three-token boundary embedding (f3, f5 and f are rotation-invariant for
    odd K, so its K - 1 rotations add nothing), and cfg.starts random starts."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    check_odd_k(k, 3)
    # ties keep the first point found; values are checked, not argmaxes
    x, fx, gnorm = max(_ascents(target, k, cfg), key=lambda ascent: ascent[1])
    interior = float(x.min()) > TOL_INTERIOR
    converged = gnorm <= TOL_GRAD or not interior
    return kkt_report(x, target, grad_norm=gnorm, converged=converged)


def interior_max_scan(k: int, cfg: OptimizerConfig) -> list[CriticalPointReport]:
    """All converged interior critical points of f found by the multi-start scan, highest f first.

    None can have f above 1/27; the caller holds each report's value to that."""
    check_odd_k(k, 5)
    reports = [
        kkt_report(x, "f", grad_norm=gnorm, converged=True)
        for x, _fx, gnorm in _ascents("f", k, cfg)
        if float(x.min()) > TOL_INTERIOR and gnorm <= TOL_GRAD
    ]
    return sorted(reports, key=lambda r: (-r.value, r.point))


def contradiction_chain_check(report: CriticalPointReport) -> ChainReport:
    """Evaluate the interior-maximum contradiction chain at a reported point.

    Applicable only to interior points passing the first- and second-order
    conditions with f > 1/27; at such a point the chain implies an upper
    bound on the f5 coefficient, contradicting 24.  No admissible point
    exists, so real scans report "not applicable".  The c values and pair
    sums are the report's; only f and f5 are evaluated here.
    """
    x = np.asarray(report.point)
    k = x.size
    f_value = _value_fn("f", k)(x)
    c_values = report.c_values
    c_spread = max(c_values) - min(c_values)
    c_mean = sum(c_values) / k
    if not report.interior:
        return ChainReport(k, False, "point is not interior", f_value)
    if f_value <= ONE_27:
        return ChainReport(k, False, "f value does not exceed 1/27", f_value)
    if c_spread > 10 * TOL_GRAD:
        return ChainReport(k, False, "first-order condition fails (c not constant)", f_value)
    if max(report.second_order) > 1.0 / lyapunov.ALPHA + 10 * TOL_GRAD:
        return ChainReport(k, False, "second-order condition fails", f_value)
    f5_value = _value_fn("f5", k)(x)
    denom = (3 * k - 9) / 2 * f_value - (k - 1) / 2 * lyapunov.ALPHA * f5_value
    implied = (k - 1) / 2 / denom if denom > 0 else math.inf
    return ChainReport(k, True, "chain evaluated", f_value, implied, c_mean, c_spread)


def alpha_threshold(k: int) -> Fraction:
    """Largest f5 coefficient the contradiction chain tolerates at K.

    Feeds the extremal bound values (f = 1/27 and alpha f5 = 1/216) through
    the chain; equals 216(K-1)/(23K-71).
    """
    check_odd_k(k, 5)
    denom = Fraction(3 * k - 9, 2) * Fraction(1, 27) - Fraction(k - 1, 2) * Fraction(1, 216)
    return Fraction(k - 1, 2) / denom


_SECOND_STENCIL = (2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0)


def gradient_fd_validation(k: int, samples: int, *, seed: int = 0) -> float:
    """Max hybrid relative error of (P, Q, R) against finite differences.

    P and Q use plain central differences of step 1e-5; R uses the
    seven-point second-derivative stencil of step 1e-2, which is exact for
    quintic polynomials, so only rounding error remains.  Errors are measured relative to
    max(1, |analytic value|).
    """
    check_odd_k(k, 5)
    check_at_least(samples, 1, "samples")
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    d = np.zeros(k)
    d[0], d[2] = -1.0, 1.0
    e0 = np.zeros(k)
    e0[0] = 1.0

    def f_at(v: np.ndarray) -> float:
        return lyapunov.f(tuple(v), check=False)

    worst = 0.0
    for _ in range(samples):
        x = rng.dirichlet(np.full(k, 5.0))
        while x.min() < 1e-3:
            x = rng.dirichlet(np.full(k, 5.0))
        p, q, r = lyapunov.derivative_terms(tuple(x))
        h = 1e-5
        fd_p = (f_at(x + h * e0) - f_at(x - h * e0)) / (2 * h)
        fd_q = (f_at(x + h * d) - f_at(x - h * d)) / (2 * h)
        h2 = 1e-2
        samples7 = [f_at(x + j * h2 * d) for j in range(-3, 4)]
        second_deriv = sum(c * v for c, v in zip(_SECOND_STENCIL, samples7)) / (180 * h2 * h2)
        fd_r = second_deriv / 2.0
        for analytic, fd in ((p, fd_p), (q, fd_q), (r, fd_r)):
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    return float(worst)

