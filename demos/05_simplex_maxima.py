# Maximizing the Lyapunov densities over the probability simplex, and the
# critical-point bookkeeping behind the 1/27 maximum of f.
# Run as: python demos/05_simplex_maxima.py

from fractions import Fraction

from herman_lab import OptimizerConfig, interior_max_scan, kkt_report, maximize
from herman_lab.lyapunov import f, f3
from herman_lab.optimize import alpha_threshold, contradiction_chain_check

cfg = OptimizerConfig(starts=60, seed=5)

# f3 peaks at the uniform point with value (1/24)(1 - 1/K^2).
for k in (3, 5, 7, 9, 11):
    report = maximize("f3", k, cfg)
    closed = (1 - 1 / k**2) / 24
    print(f"K={k}: max f3 = {report.value:.12f} (closed form {closed:.12f})")

# f = f3 - 24 f5 peaks at 1/27 for every K, attained on the boundary where
# all but three mass points vanish.
for k in (3, 5, 7, 9):
    report = maximize("f", k, cfg)
    print(f"K={k}: max f = {report.value:.12f} vs 1/27 = {1 / 27:.12f}, interior: {report.interior}")

# In exact rationals the boundary three-token embedding hits 1/27 on the nose.
embedding = (Fraction(1, 3),) * 3 + (Fraction(0),) * 4
print("f at the embedded triangle:", f(embedding))
print("f3 at uniform (exact):", f3(tuple(Fraction(1, 7) for _ in range(7))))

# Interior scans find critical points (the uniform point among them) but
# never a value above 1/27.
reports = interior_max_scan(7, OptimizerConfig(starts=100, seed=9))
print(f"interior critical points found at K=7: {len(reports)}")
for report in reports[:3]:
    print("  value", round(report.value, 8), "point", tuple(round(v, 4) for v in report.point))

# Every report carries the first- and second-order diagnostics an interior
# local maximum would have to satisfy.
diag = kkt_report((0.2,) * 5)
print("c values at uniform K=5:", [str(round(c, 6)) for c in diag.c_values])
print("pair sums (must stay <= 1/24 at a maximum):", [round(s, 6) for s in diag.second_order])

# If an interior maximum with f > 1/27 existed, chaining the conditions
# would force the f5 coefficient below ~19.7, contradicting 24.
print("chain threshold at K=5:", alpha_threshold(5), "=", float(alpha_threshold(5)))
print("chain threshold at K=7:", float(alpha_threshold(7)))
chain = contradiction_chain_check(reports[0]) if reports else None
if chain is not None:
    print("chain at a scanned point:", chain.reason)
