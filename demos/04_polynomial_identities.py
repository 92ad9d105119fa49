# The combinatorial rotation-sum identities, checked as exact equalities
# of sparse rational polynomials (term maps, not numeric samples).
# Run as: python demos/04_polynomial_identities.py

import json

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

# The cubic polynomial at K=5 has exactly five monomials.
print("f3 on five variables:", build_f3(5))
print("f5 on seven variables has", build_f5(7).term_count(), "monomials")
print("f = f3 - 24 f5:", build_f(5))

# Setting one variable to zero merges its neighbors: the K-variable
# polynomial collapses onto the (K-2)-variable one.
print("continuity K=9:", bool(check_continuity(9)))

# Summing all rotations of the even/odd/even triple block gives a clean
# multiple of f3.  Concretely at K=5 a single monomial suffices:
base = SparsePolynomial.monomial((2, 3, 4), 5)
print("rotations of x2 x3 x4 equal f3:", sum_rotations(base) == build_f3(5))

# The general weighted version and both of its corollary instantiations.
for k in (5, 7, 9, 11, 13):
    print(
        f"K={k}:",
        "rotation-sum", bool(check_rotation_sum_identity(k)),
        "| weighted l=3", bool(check_fancy_sum(k, 3)),
        "| weighted l=5", bool(check_fancy_sum(k, 5)) if k > 5 else "n/a",
        "| corollaries", bool(check_corollary_sums(k)),
        "| c-rotation", bool(check_c_rotation_sum(k)),
    )

# Failed checks carry a machine-readable diff; force one to see the shape.
from herman_lab.polynomials import _compare

broken = build_f3(5) + SparsePolynomial.monomial((0, 0, 1), 5)
report = _compare("demo", 5, broken, build_f3(5))
print("forced failure report:", json.dumps(report.to_record()))
