"""
The delivery-time landscape: who wins where, and what happens as the
cluster grows.

At 50 nodes the coded-parallel scheme cuts the shuffle time of plain
coded multicast by almost 9x at load r = 2.  As K grows with r fixed the
baselines flatten out at 1/r while this scheme keeps falling toward zero;
past K = 2(r + 1 + sqrt(r^2 + 1)) it even beats the full-duplex one-shot
baseline while operating half-duplex.
"""

from fractions import Fraction

from cpcshuffle import (
    brute_force_min,
    cpc_minimum,
    fd_crossover_holds,
    lower_bound,
    ndt_bw_hd,
    ndt_cdc,
    ndt_cpc_fractional,
    ndt_osl_fd,
    ndt_osl_hd,
    ndt_uncoded,
)

print("=" * 72)
print("PART 1: ALL SCHEMES AT K = Q = 50, SWEEPING THE LOAD")
print("=" * 72)
print(f"  {'r':>3} {'uncoded':>9} {'CDC':>9} {'OSL-HD':>9} {'BW-HD':>9}"
      f" {'this':>9} {'bound':>9}")
for r in (1, 2, 3, 5, 10, 13, 25, 40):
    row = [
        ndt_uncoded(r, 50).value,
        ndt_cdc(r, 50).value,
        ndt_osl_hd(r, 50).value,
        ndt_bw_hd(r, 50).value,
        brute_force_min(r, 50).best_value,
        lower_bound(r, 50).bound,
    ]
    print(f"  {r:>3} " + " ".join(f"{float(v):>9.4f}" for v in row))

best2 = brute_force_min(2, 50).best_value
print(f"\n  at r=2: {float(ndt_cdc(2,50).value):.4f} / {float(best2):.4f}"
      f" = {float(ndt_cdc(2,50).value / best2):.2f}x faster than CDC")
print(f"  and even r=2 here beats CDC at r=13:"
      f" {float(best2):.4f} < {float(ndt_cdc(13,50).value):.4f}")

print()
print("=" * 72)
print("PART 2: GROWING THE CLUSTER AT r = 2")
print("=" * 72)
print(f"  {'K':>4} {'CDC':>9} {'OSL-HD':>9} {'this (t=1)':>11}")
for K in (6, 10, 20, 50, 100, 200, 500):
    print(f"  {K:>4} {float(ndt_cdc(2, K).value):>9.4f}"
          f" {float(ndt_osl_hd(2, K).value):>9.4f}"
          f" {float(cpc_minimum(2, K, t=1).value):>11.5f}")
print("  baselines -> 1/2; this scheme -> 0")

print()
print("=" * 72)
print("PART 3: HALF-DUPLEX BEATING FULL-DUPLEX")
print("=" * 72)
r = 2
threshold = 2 * (r + 1 + (r * r + 1) ** 0.5)
print(f"  predicted crossover for r=2: K >= {threshold:.2f}")
for K in (8, 10, 11, 20, 50):
    ours, fd = cpc_minimum(r, K, t=1).value, ndt_osl_fd(r, K).value
    mark = "<=" if ours <= fd else "> "
    print(f"  K={K:>3}: {float(ours):.4f} {mark} {float(fd):.4f} (full-duplex)"
          f"   crossover={fd_crossover_holds(r, K)}")

print()
print("=" * 72)
print("PART 4: FRACTIONAL LOADS RIDE THE ENVELOPE")
print("=" * 72)
K = 6
for r in (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
    lo, hi = int(r), int(r) + 1
    chord = (brute_force_min(lo, K).best_value + brute_force_min(hi, K).best_value) / 2
    print(f"  r={r}: envelope {float(ndt_cpc_fractional(r, K).value):.4f}"
          f" <= chord {float(chord):.4f}"
          f" (mix of r={lo} and r={hi} schemes)")
print("  memory-sharing can even beat a pure integer scheme:")
print(f"  r=7, K=9: envelope {float(ndt_cpc_fractional(7, 9).value):.5f}"
      f" < pure {float(brute_force_min(7, 9).best_value):.5f}")
