"""
Walk through the full coded shuffle on the 6-node instance.

Six nodes, twenty files, six output functions, computation load r = 3:
every file is mapped at 3 nodes, every node reduces one output.  The
shuffle splits the nodes into 20 transmitter/receiver partitions of 3+3,
cuts each needed IV into 6 segments, XORs pairs of segments into coded
messages, and pairs of transmitters beam each message so that it vanishes
at the receiver that does not want it.
"""

from fractions import Fraction

from cpcshuffle import (
    NodeSet,
    SystemParams,
    build_placement,
    decode_segment,
    encode_partition,
    end_to_end_verify,
    enum_partitions,
    map_phase,
    ndt_cpc,
    per_partition_load,
    required_ivs,
    segment_ivs,
    validate_config,
)
from cpcshuffle.codec import admissible_pairs

params = SystemParams(K=6, N=20, Q=6, r=3, B=48)
cfg = validate_config(params, K_r=3, t=2)

print("=" * 72)
print("STEP 1: PLACEMENT -- every file at r=3 nodes, one output per node")
print("=" * 72)
placement = build_placement(params)
for k in range(1, 7):
    print(f"  node {k}: files {sorted(placement.node_to_files[k])},"
          f" reduces output {sorted(placement.reduce_assignment[k])}")

print()
print("=" * 72)
print("STEP 2: MAP -- synthesize the intermediate values (48 bits each)")
print("=" * 72)
store = map_phase(placement, params, seed=0)
print(f"  node 1 computed {len(store.at_node(placement, 1))} IVs locally")
print(f"  node 4 still needs {len(required_ivs(placement, 4))}:"
      f" {sorted(required_ivs(placement, 4))}")

print()
print("=" * 72)
print("STEP 3: SEGMENT -- each needed IV splits into 6 addressed segments")
print("=" * 72)
segments = segment_ivs(placement, cfg, store)
partitions = enum_partitions(6, 3)
storage = NodeSet.of(1, 2, 5)
coops, extras = admissible_pairs(4, storage, cfg)
print(f"  the IV headed to node 4 and stored at {storage.members} rides in:")
number = {part.tx: part.index for part in partitions}
for coop in coops:
    for extra in extras:
        tx = NodeSet.from_mask(coop.mask | extra)
        print(f"    partition {number[tx]:2d} (tx {tx.members}), sent by pair {coop.members}")

print()
print("=" * 72)
print("STEP 4: ENCODE -- 9 XOR messages per partition, 180 total")
print("=" * 72)
messages = encode_partition(segments, partitions[0], cfg)
for m in messages[:4]:
    sids = m.constituents()
    print(f"  to {m.dest_group.members} from {m.coop.members}: "
          + " XOR ".join(f"seg(d{s.dest}|{s.storage.members})" for s in sids))
print(f"  ... {len(messages)} messages in partition 1 alone")

print()
print("=" * 72)
print("STEP 5: DECODE -- node 4 peels its segment with one local XOR")
print("=" * 72)
msg = next(m for m in messages
           if m.dest_group == NodeSet.of(4, 5) and m.coop == NodeSet.of(1, 2))
seg = decode_segment(msg, segments, 4)
print(f"  node 4 got {seg.data.hex()} for {seg.id}")
print(f"  matches the ground truth: {seg.data == segments[seg.id].data}")

print()
print("=" * 72)
print("STEP 6: ACCOUNTING -- load 1/120 per partition, total delivery time 1/6")
print("=" * 72)
r_p, desired_bits = per_partition_load(cfg)
print(f"  per-receiver load per partition: {r_p}")
print(f"  desired bits per receiver per partition: {desired_bits} (= B)")
print(f"  delivery time of this configuration: {ndt_cpc(3, 2, 6, 3).value}")
assert r_p == Fraction(1, 120)

print()
print("=" * 72)
print("STEP 7: END TO END -- through the fading channel, byte for byte")
print("=" * 72)
ok, report = end_to_end_verify(params, cfg, seed=0)
print(f"  all 20 partitions delivered: {ok}")
print(f"  worst interference residual: {report.max_residual:.2e}")
print(f"  worst matrix condition:      {report.max_condition:.1f}")
print(f"  measured per-receiver DoF:   {report.measured_dof}")
