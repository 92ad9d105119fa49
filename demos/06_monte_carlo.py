# Seeded Monte Carlo estimation of stabilization times, cross-checked
# against the exact engine.  Run as: python demos/06_monte_carlo.py

from herman_lab import GapVector, config_from_gaps, estimate, expected_time_exact, montecarlo
from herman_lab.montecarlo import (
    coupled_equivalence,
    exhaustive_coupling,
    histogram_csv_lines,
    run_steps,
    step_histogram,
)

# A million trajectories from the equidistant three-token ring of nine.
config = config_from_gaps(GapVector(9, (3, 3, 3)))
stats = estimate(config, 1_000_000, master_seed=42)
exact = float(expected_time_exact(GapVector(9, (3, 3, 3))))
print("mean:", stats.mean, "exact:", exact)
print("z-score:", abs(stats.mean - exact) / stats.stderr)
print("95% interval:", stats.ci95)

# Everything is a pure function of the master seed: run i draws only from
# its own splitmix64 stream, so how the runs are batched changes nothing.
montecarlo.BATCH_RUNS = 10_000  # 100 batches instead of 16
again = estimate(config, 1_000_000, master_seed=42)
print("bit-identical rerun:", again == stats)

# Per-run step counts feed a histogram (CSV-ready for external plotting).
steps = run_steps(config_from_gaps(GapVector(5, (1, 1, 3))), 20_000, 7)
hist = step_histogram(steps)
print("histogram head:", histogram_csv_lines(hist)[:5])

# The bit-flipping implementation and the token-passing abstraction agree
# step for step under shared coins; exhaustively on the smallest ring and
# on random trajectories elsewhere.
print("exhaustive N=3 coupling:", exhaustive_coupling(3).passed)
for n in (5, 9, 13):
    print(f"coupled trajectories N={n}:", coupled_equivalence(n, 2_000, master_seed=1).passed)
