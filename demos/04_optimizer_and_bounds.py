"""
Choosing the split: how many receivers, how much cooperation, and how far
from optimal the whole construction can possibly be.

Two closed forms compete: pin the receiver group to r+1 nodes and tune
the cooperation size t, or pin t = 1 and tune the receiver-group size.
Their minimum matches the exact scan on every grid cell.  A cut-set
argument lower-bounds what any scheme could do; the achieved value stays
within a factor 3 of it everywhere.
"""

from fractions import Fraction

from cpcshuffle import (
    brute_force_min,
    closed_form_min,
    cross_validate,
    gap_ratio,
    lower_bound,
    ndt_cpc,
    t1_optimal_regime,
)
from cpcshuffle.ndt import c_coefficient
from cpcshuffle.optimize import ndt1_value, ndt2_value

print("=" * 72)
print("PART 1: TWO CLOSED FORMS AT (r=5, K=8)")
print("=" * 72)
n1, t_star = ndt1_value(5, 8)
n2, kr_star = ndt2_value(5, 8)
print(f"  cooperation route: {float(n1):.6f} with t* = {t_star}")
print(f"  receiver route:    {float(n2):.6f} with K_r* = {kr_star}")
best = closed_form_min(5, 8)
print(f"  winner: {best.branch} at {float(best.best_value):.6f}"
      f"  (brute force: {float(brute_force_min(5, 8).best_value):.6f})")

print()
print("=" * 72)
print("PART 2: WHEN IS NO COOPERATION (t=1) PROVABLY ENOUGH?")
print("=" * 72)
for r, K in [(2, 5), (5, 8), (3, 20), (5, 30)]:
    regime = t1_optimal_regime(r, K)
    t_star = brute_force_min(r, K).t_star
    print(f"  r={r:>2} K={K:>2}: regime says t=1 {'holds' if regime else 'not settled':>12},"
          f" scan found t* = {t_star}")

print()
print("=" * 72)
print("PART 3: EXHAUSTIVE CROSS-VALIDATION OF THE CLOSED FORMS")
print("=" * 72)
report = cross_validate(20)
print(f"  {len(report)} grid cells up to K = 20: "
      f"{sum(c['agree'] for c in report)} agree, "
      f"{sum(not c['agree'] for c in report)} disagree")

print()
print("=" * 72)
print("PART 4: THE CUT-SET LOWER BOUND AT (r=2, K=6)")
print("=" * 72)
model = lower_bound(2, 6)
print("  coefficient table C_t(i) (rows t, columns i = 1..6):")
for t in sorted(model.envelope_at_r):
    row = " ".join(f"{float(c_coefficient(6, t, i)):.3f}" for i in range(1, 7))
    print(f"    t={t}: {row}   envelope at r=2: {float(model.envelope_at_r[t]):.3f}")
print(f"  cut-set bound lb1 = {model.lb1}, DoF bound lb2 = {model.lb2}")
print(f"  overall bound: {model.bound} = {float(model.bound):.4f}")

print()
print("=" * 72)
print("PART 5: THE GAP NEVER REACHES 3")
print("=" * 72)
worst = Fraction(0)
argworst = None
for K in range(2, 25):
    for r in range(1, K + 1):
        g = gap_ratio(r, K)
        if g > worst:
            worst, argworst = g, (r, K)
print(f"  worst ratio on K <= 24: {float(worst):.4f} at (r, K) = {argworst}")
print(f"  at (r=3, K=6): bound {float(lower_bound(3, 6).bound):.2f},"
      f" optimizer {float(brute_force_min(3, 6).best_value):.4f}"
      f" (gap {float(gap_ratio(3, 6)):.3f});")
print(f"  the 6-node walkthrough configuration sits at"
      f" {float(ndt_cpc(3, 2, 6, 3).value):.4f} (ratio 5/3)")
