"""
What happens when a transmitter is late: replanning the shuffle around
up to t-1 stragglers.

Every coded packet is held by all t members of its cooperation group, so
when a straggler drops out the survivors can still send everything --
the messages are just regrouped by how many stragglers their group
contained and sent in extra rounds.  Receivers decode exactly as before;
only the transmission schedule changes.
"""

from cpcshuffle import (
    NodeSet,
    SystemParams,
    enum_partitions,
    straggler_replan,
    straggler_schedule,
    validate_config,
)

params = SystemParams(K=6, N=20, Q=6, r=3, B=48)
cfg = validate_config(params, K_r=3, t=2)
part = enum_partitions(6, 3)[0]

print("=" * 72)
print("BASELINE: PARTITION 1 WITH ALL TRANSMITTERS ON TIME")
print("=" * 72)
plan = straggler_replan(part, cfg, NodeSet(()))
for row in straggler_schedule(plan):
    print(f"  round {row['round']}: {row['messages']} messages,"
          f" {row['batches']} group batches, {row['slots']} slots")

print()
print("=" * 72)
print("NODE 1 IS LATE: REGROUP BY STRAGGLER OVERLAP")
print("=" * 72)
plan = straggler_replan(part, cfg, NodeSet.of(1))
for row, rnd in zip(straggler_schedule(plan), plan.rounds):
    print(f"  round {row['round']} ({row['messages']} messages):")
    for coop, eff in rnd:
        print(f"    group {coop.members} -> survivors {eff.members} carry its packets")

print()
print("slot accounting:")
for row in straggler_schedule(plan):
    print(f"  round {row['round']}: batches={row['batches']},"
          f" effective group size {row['effective_coop_size']},"
          f" slots={row['slots']}")

print()
print("=" * 72)
print("WITH COOPERATION SLACK THE SCHEDULE STAYS FULLY ACCOUNTED")
print("=" * 72)
params8 = SystemParams(K=8, N=56, Q=8, r=5, B=80)
cfg8 = validate_config(params8, K_r=4, t=2)
part8 = enum_partitions(8, 4)[0]
plan8 = straggler_replan(part8, cfg8, NodeSet.of(part8.tx.members[0]))
print(f"  transmitters {part8.tx.members}, straggler {part8.tx.members[0]}")
for row in straggler_schedule(plan8):
    print(f"  round {row['round']}: {row['messages']} messages,"
          f" {row['batches']} batches, {row['slots']} slots")
total = sum(r["slots"] for r in straggler_schedule(plan8))
print(f"  total {total} slots -- the same budget as the intact partition")
