"""
How two transmitters make a symbol vanish at the receiver that does not
want it, and what that buys in degrees of freedom.

A message for receivers {5,6} must not disturb receiver 4.  Weighting the
two transmitters by (-h[4,2], h[4,1]) makes receiver 4's superposition a
2x2 determinant with a repeated row: exactly zero.  The same cofactor
trick scales to any group size, and time-division extends it to wide
receiver groups at DoF r/K_r.
"""

import numpy as np

from cpcshuffle import (
    SystemParams,
    build_placement,
    draw_channel,
    encode_payloads,
    enum_partitions,
    map_phase,
    neutralizing_precoder,
    partition_slots,
    segment_ivs,
    simulate_with_resample,
    validate_config,
)

print("=" * 72)
print("PART 1: THE COFACTOR PRECODER")
print("=" * 72)
params = SystemParams(K=6, N=20, Q=6, r=3, B=48)
cfg = validate_config(params, K_r=3, t=2)
# a partition's gains: per block, per slot, one row per receiver.  Block 1
# of partition 1 sends from transmitters 1, 2 to receivers 4, 5, 6
gains = draw_channel(cfg, seed=42)
h4, h5, h6 = gains[0, 0]
w = neutralizing_precoder(h4[None, :])
print(f"  {gains.size} gains drawn per partition, shape {gains.shape}")
print(f"  channel row of receiver 4: {h4}")
print(f"  precoder:                  {w}")
print(f"  superposition at node 4:   {np.dot(h4, w):.2e}")
for j, h in ((5, h5), (6, h6)):
    print(f"  superposition at node {j}:   "
          f"{abs(np.dot(h, w)):.3f}  (survives)")

print()
print("=" * 72)
print("PART 2: THREE TRANSMITTERS, TWO NULLS")
print("=" * 72)
# two receivers' CN(0,1) rows over three transmitters
rng = np.random.default_rng(42)
rows = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2.0)
w = neutralizing_precoder(rows)
w /= np.linalg.norm(w)
for psi, h in zip((5, 6), rows):
    print(f"  residual at node {psi}: {abs(np.dot(h, w)) / np.linalg.norm(h):.2e}")

print()
print("=" * 72)
print("PART 3: ONE PARTITION OF THE 6-NODE INSTANCE (DoF = 1)")
print("=" * 72)
placement = build_placement(params)
store = map_phase(placement, params, seed=0)
segments = segment_ivs(placement, cfg, store)
part = enum_partitions(6, 3)[0]
payloads = encode_payloads(segments, part, cfg)
print(f"  transmitters {part.tx} serve receivers {part.rx}")
print(f"  {len(payloads)} messages over {partition_slots(cfg)} slots"
      f" (3 cooperation pairs x 2-slot extensions)")
report = simulate_with_resample(part, cfg, payloads, seed=0)
print(f"  every receiver decoded {report.symbols_per_receiver} symbols"
      f" in {report.slots_used} slots -> DoF {report.measured_dof}")
print(f"  worst residual {report.max_residual:.2e},"
      f" worst condition {report.max_condition:.1f}")

print()
print("=" * 72)
print("PART 4: WIDE RECEIVER GROUPS GO TIME-DIVISION (DoF = r/K_r)")
print("=" * 72)
params = SystemParams(K=8, N=28, Q=8, r=2, B=160)
cfg = validate_config(params, K_r=5, t=1)
placement = build_placement(params)
store = map_phase(placement, params, seed=0)
segments = segment_ivs(placement, cfg, store)
part = enum_partitions(8, cfg.K_t)[0]
payloads = encode_payloads(segments, part, cfg)
report = simulate_with_resample(part, cfg, payloads, seed=0)
print(f"  transmitters {part.tx}, receivers {part.rx}")
print(f"  receiver pairs served one at a time: {report.slots_used} slots,"
      f" {report.symbols_per_receiver} symbols per receiver")
print(f"  measured DoF {report.measured_dof} = r/K_r exactly, by slot count")
