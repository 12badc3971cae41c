"""Switch errors stay bounded no matter how large the circuit grows.

Let every base pswitch drift by up to epsilon between its two active
states. Output probabilities are multilinear in the drifts, so the exact
worst case sits at a sign corner; searching all corners shows boundary
states off by at most 2*epsilon and interior states by 3*epsilon for the
dyadic construction, q*epsilon and (q+1)*epsilon for base-q circuits.
Past the corner cap, two evaluations (every switch at -epsilon, then at
+epsilon) bound every state, exactly at the first and last.
"""

import itertools
from fractions import Fraction as F

from relaycircuits import (
    Distribution, check_bounds, denominator_reduction, format_rational,
    synth_binary_nstate, worst_case_error,
)

def fmt(dist):
    return "(" + ", ".join(format_rational(p) for p in dist) + ")"


eps = F(1, 100)

target = Distribution([F(5, 8), F(1, 4), F(1, 8)])
circuit = synth_binary_nstate(target).circuit
report = worst_case_error(circuit, eps, mode="corners")
verdict = check_bounds(report, "binary")
print(f"binary target {fmt(target)}, eps = {eps}")
print("  per-state worst error:", report.per_state_max_error)
print("  worst corner:", dict(sorted(report.worst_assignment.assignments.items())))
print(f"  bounds: boundary <= {verdict.bound_boundary}, "
      f"interior <= {verdict.bound_interior}, hold = {verdict.passed}")

print()
print("sweeping every three-state dyadic target with denominator 8:")
worst_boundary = worst_interior = F(0)
for cuts in itertools.combinations_with_replacement(range(9), 2):
    xs = (cuts[0], cuts[1] - cuts[0], 8 - cuts[1])
    t = Distribution(F(x, 8) for x in xs)
    r = worst_case_error(synth_binary_nstate(t).circuit, eps)
    assert check_bounds(r, "binary").passed
    worst_boundary = max(worst_boundary, r.per_state_max_error[0],
                         r.per_state_max_error[2])
    worst_interior = max(worst_interior, r.per_state_max_error[1])
print(f"  worst boundary error observed: {worst_boundary} (bound {2 * eps})")
print(f"  worst interior error observed: {worst_interior} (bound {3 * eps})")

print()
print("base-3 circuits against the (q+1)-epsilon bound:")
worst_boundary = worst_interior = F(0)
for denom in (3, 9):
    for cuts in itertools.combinations_with_replacement(range(denom + 1), 2):
        xs = (cuts[0], cuts[1] - cuts[0], denom - cuts[1])
        t = Distribution(F(x, denom) for x in xs)
        r = worst_case_error(denominator_reduction(t, base=3).circuit, eps)
        assert check_bounds(r, "denom", q=3).passed
        worst_boundary = max(worst_boundary, r.per_state_max_error[0],
                             r.per_state_max_error[2])
        worst_interior = max(worst_interior, r.per_state_max_error[1])
print(f"  worst boundary error observed: {worst_boundary} (bound {3 * eps})")
print(f"  worst interior error observed: {worst_interior} (bound {4 * eps})")

print()
print("a 200-round binary synthesis, far past the corner cap, in interval mode:")
scale = 2 ** 200
deep = synth_binary_nstate(Distribution([F(1, scale), F(scale - 2, scale), F(1, scale)])).circuit
r = worst_case_error(deep, eps, mode="interval")
v = check_bounds(r, "binary")
below = int(eps / r.max_error()).bit_length() - 1
print(f"  {len(deep.pswitches())} pswitches; exact per state: {r.exact}")
print(f"  largest error bound below eps / 2^{below}; bounds proven = {v.passed}, "
      f"undecided states: {list(v.undecided_states)}")
