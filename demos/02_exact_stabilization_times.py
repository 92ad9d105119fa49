# Exact expected stabilization times by rational linear algebra, and the
# 4/27 N^2 worst case.  Run as: python demos/02_exact_stabilization_times.py

from fractions import Fraction

from herman_lab import GapVector, expected_time_exact, max_expected_time, theorem1_bound
from herman_lab.markov import solve_all_exact, successor_distribution

# The one-step law of the smallest interesting ring: three adjacent tokens
# on three processes collide with probability 3/4.
law = successor_distribution(GapVector(3, (1, 1, 1)))
for outcome, p in law.outcomes:
    print("  ->", outcome.gaps or "(empty)", "with probability", p)

# Exact expected times come from solving E[T] = 1 + sum p E[T'] with
# rational arithmetic, token count by token count.
print("E T (1,1,1) on N=3:", expected_time_exact(GapVector(3, (1, 1, 1))))

# For three tokens the answer has a famous closed form 4 g0 g1 g2 / N.
g = GapVector(11, (2, 4, 5))
print("E T (2,4,5) on N=11:", expected_time_exact(g), "=", Fraction(4 * 2 * 4 * 5, 11))

# Three equally spaced tokens achieve exactly (4/27) N^2.
print("E T (3,3,3) on N=9:", expected_time_exact(GapVector(9, (3, 3, 3))), "bound:", theorem1_bound(9))

# Sweeping every start state of a ring confirms the bound is never beaten,
# with equality only at the equidistant three-token state.
for n in (6, 9, 12):
    worst, value = max_expected_time(n)
    print(f"N={n}: worst state {worst.gaps} takes {value} <= {theorem1_bound(n)}")

# A full sweep solves every canonical state at once; `exact --sweep` prints
# it as CSV rows, one per state.
values = solve_all_exact(7)
print(f"N=7 has {len(values)} canonical states; slowest three:")
for gaps, et in sorted(values.items(), key=lambda item: item[1])[-3:]:
    print("  ", gaps, et)
