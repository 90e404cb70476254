import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from cpcshuffle.model import (
    ConstraintViolation,
    InfeasibleInstance,
    NodeSet,
    SystemParams,
    config_violation,
    enum_partitions,
    enum_subsets,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase
from cpcshuffle.channel import partition_slots
from cpcshuffle.codec import (
    SegmentId,
    admissible_pairs,
    coding_complexity,
    decode_segment,
    encode_partition,
    per_partition_load,
    round_up_bits,
    segment_ivs,
    segments_per_block,
    straggler_replan,
    straggler_schedule,
    xor_bytes,
)
from segment_reference import (
    block_bytes,
    block_ivs,
    decode_blocks,
    segment_rows,
    segments_by_id,
)

WORKED = SystemParams(K=6, N=20, Q=6, r=3, B=48)


@pytest.fixture(scope="module")
def worked():
    cfg = validate_config(WORKED, K_r=3, t=2)
    pl = build_placement(WORKED)
    store = map_phase(pl, WORKED, seed=0)
    segs = segment_ivs(pl, cfg, store)
    parts = enum_partitions(6, 3)
    return cfg, pl, store, segs, parts


def pairs_of(dest, storage, cfg):
    """The block's (B, B | E) pairs, B-major, from `admissible_pairs`'
    two factors."""
    coops, extras = admissible_pairs(dest, storage, cfg)
    return [(coop, NodeSet.from_mask(coop.mask | extra)) for coop in coops for extra in extras]


def scanned_pairs(dest, storage, cfg, partitions):
    """Reference: scan every partition for B transmitting and the rest of
    the storage group plus dest receiving."""
    pairs = []
    for coop in enum_subsets(storage, cfg.t):
        listeners = (storage - coop) | NodeSet.of(dest)
        for part in partitions:
            if coop.issubset(part.tx) and listeners.issubset(part.rx):
                pairs.append((coop, part.tx))
    return pairs


class TestSegmentation:
    def test_segments_per_block(self, worked):
        cfg, *_ = worked
        assert segments_per_block(cfg) == 6

    def test_block_of_node_four(self, worked):
        # the block headed to node 4 and stored at {1,2,5} spreads over two
        # partitions for each of its three cooperation pairs
        cfg, pl, store, segs, parts = worked
        pairs = pairs_of(4, NodeSet.of(1, 2, 5), cfg)
        assert [(c.members, tx.members) for c, tx in pairs] == [
            ((1, 2), (1, 2, 3)), ((1, 2), (1, 2, 6)), ((1, 5), (1, 3, 5)),
            ((1, 5), (1, 5, 6)), ((2, 5), (2, 3, 5)), ((2, 5), (2, 5, 6)),
        ]
        number = {part.tx: part.index for part in enum_partitions(6, 3)}
        assert [number[tx] for _, tx in pairs] == [1, 4, 6, 10, 12, 16]
        coops = [c for c, _ in pairs]
        assert [c.members for c in sorted(set(coops))] == [(1, 2), (1, 5), (2, 5)]
        assert all(coops.count(c) == 2 for c in set(coops))

    def test_pairs_equal_the_partition_scan(self):
        # every block of every valid configuration with K <= 8
        blocks = 0
        for K in range(2, 9):
            for r in range(1, K):
                for K_r in range(1, K):
                    for t in range(1, r + 1):
                        if config_violation(K, r, K_r, t) is not None:
                            continue
                        params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
                        cfg = validate_config(params, K_r, t)
                        parts = enum_partitions(K, cfg.K_t)
                        for dest in range(1, K + 1):
                            others = NodeSet.from_iterable(k for k in range(1, K + 1) if k != dest)
                            for storage in enum_subsets(others, r):
                                pairs = pairs_of(dest, storage, cfg)
                                assert pairs == scanned_pairs(dest, storage, cfg, parts)
                                assert len(pairs) == segments_per_block(cfg)
                                blocks += 1
        assert blocks > 10000

    def test_rank_map_agrees_with_the_reference(self):
        # every valid configuration with K <= 8: the table's rows, the
        # array encoder and the node-wide decoder against block slices,
        # `constituents` with `xor_bytes`, and `decode_segment`
        segments = 0
        for K in range(2, 9):
            for r in range(1, K):
                for K_r in range(1, K):
                    for t in range(1, r + 1):
                        if config_violation(K, r, K_r, t) is not None:
                            continue
                        segments += self._check_rank_map(K, r, K_r, t)
        assert segments > 100000

    @staticmethod
    def _check_rank_map(K, r, K_r, t):
        probe = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
        params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=round_up_bits(probe, 8))
        cfg = validate_config(params, K_r, t)
        pl = build_placement(params)
        store = map_phase(pl, params, seed=K * r + t)
        segs = segment_ivs(pl, cfg, store)
        rows, by_id = segment_rows(segs), segments_by_id(segs)
        n_seg = segments_per_block(cfg)
        parts = enum_partitions(K, cfg.K_t)
        number = {part.tx: part.index for part in parts}
        blocks = []
        for dest in range(1, K + 1):
            others = NodeSet.from_iterable(k for k in range(1, K + 1) if k != dest)
            blocks += [(dest, storage) for storage in enum_subsets(others, r)]
        # row = block rank * segments per block + pair index
        for b, (dest, storage) in enumerate(blocks):
            data = block_bytes(pl, store, dest, storage)
            seg_len = len(data) // n_seg
            for i, (coop, tx) in enumerate(pairs_of(dest, storage, cfg)):
                sid = SegmentId(dest, storage, number[tx], coop)
                assert rows[sid] == b * n_seg + i
                assert by_id[sid].data == data[i * seg_len : (i + 1) * seg_len]
        assert len(rows) == len(blocks) * n_seg
        # every message in partition order; the reference finds each by (p, D, B)
        sent = [m for part in parts for m in encode_partition(segs, part, cfg)]
        by_address = {(m.partition, m.dest_group, m.coop): m for m in sent}
        for m in sent:
            ids = m.constituents()
            assert m.payload == functools.reduce(xor_bytes, (by_id[sid].data for sid in ids))
        payloads = np.frombuffer(b"".join(m.payload for m in sent), dtype=np.uint8)
        payloads = payloads.reshape(len(sent), -1)
        for dest in range(1, K + 1):
            decoded = decode_blocks(segs, dest, payloads, np.ones(len(sent), dtype=bool))
            mine = [storage for d, storage in blocks if d == dest]
            assert list(decoded) == mine
            for storage in mine:
                reference = b"".join(
                    decode_segment(
                        by_address[(number[tx], NodeSet.of(dest) | (storage - coop), coop)],
                        by_id,
                        dest,
                    ).data
                    for coop, tx in pairs_of(dest, storage, cfg)
                )
                assert decoded[storage] == reference == block_bytes(pl, store, dest, storage)
        return len(rows)

    def test_block_layout(self, worked):
        # node 4 reduces output 4; the block stored at {1,2,5} holds file 3
        cfg, pl, store, segs, parts = worked
        assert block_ivs(pl, 4, NodeSet.of(1, 2, 5)) == [(4, 3)]
        params = SystemParams(K=4, N=12, Q=8, r=2, B=8)
        pl2 = build_placement(params)
        assert block_ivs(pl2, 3, NodeSet.of(1, 2)) == [(5, 1), (5, 2), (6, 1), (6, 2)]
        store2 = map_phase(pl2, params, seed=0)
        assert block_bytes(pl2, store2, 3, NodeSet.of(1, 2)) == b"".join(
            store2.get(q, n) for q, n in [(5, 1), (5, 2), (6, 1), (6, 2)]
        )

    def test_segments_reassemble_block(self, worked):
        cfg, pl, store, segs, parts = worked
        number = {part.tx: part.index for part in parts}
        by_id = segments_by_id(segs)
        for dest, storage in [(4, NodeSet.of(1, 2, 5)), (1, NodeSet.of(2, 3, 6))]:
            pairs = pairs_of(dest, storage, cfg)
            joined = b"".join(
                by_id[SegmentId(dest, storage, number[tx], c)].data for c, tx in pairs
            )
            assert joined == block_bytes(pl, store, dest, storage)

    def test_degenerate_s_one(self):
        # t = r makes s = 1: no coding, each message is a bare segment
        params = SystemParams(K=4, N=6, Q=4, r=2, B=16)
        cfg = validate_config(params, K_r=1, t=2)
        assert cfg.s == 1
        pl = build_placement(params)
        store = map_phase(pl, params, seed=0)
        segs = segment_ivs(pl, cfg, store)
        part = enum_partitions(4, 3)[0]
        by_id = segments_by_id(segs)
        for m in encode_partition(segs, part, cfg):
            (sid,) = m.constituents()
            assert m.payload == by_id[sid].data

    def test_two_segment_instance(self):
        params = SystemParams(K=4, N=6, Q=4, r=2, B=16)
        cfg = validate_config(params, K_r=2, t=1)
        assert segments_per_block(cfg) == 2
        pl = build_placement(params)
        store = map_phase(pl, params, seed=0)
        for dest in range(1, 5):
            others = NodeSet.from_iterable(k for k in range(1, 5) if k != dest)
            for storage in enum_subsets(others, 2):
                assert len(pairs_of(dest, storage, cfg)) == 2

    def test_unaligned_b_rejected(self):
        params = SystemParams(K=6, N=20, Q=6, r=3, B=8)
        cfg = validate_config(params, K_r=3, t=2)
        pl = build_placement(params)
        store = map_phase(pl, params, seed=0)
        with pytest.raises(InfeasibleInstance):
            segment_ivs(pl, cfg, store)
        # eta1 * eta2 of 1, 2 and 4: a byte-aligned B is refused iff the
        # block's eta1 * eta2 * B bits do not fill its six segments with
        # whole bytes, and `round_up_bits` gives the least B accepted
        for Q, least in ((6, 48), (12, 24), (24, 24)):
            accepted = []
            for B in range(8, 104, 8):
                params = SystemParams(K=6, N=20, Q=Q, r=3, B=B)
                cfg = validate_config(params, K_r=3, t=2)
                pl = build_placement(params)
                eta = params.eta1 * params.eta2
                try:
                    segs = segment_ivs(pl, cfg, map_phase(pl, params, seed=0))
                except InfeasibleInstance:
                    assert eta * B % (8 * 6), (Q, B)
                    continue
                assert segs.data.shape[1] * 8 * 6 == eta * B, (Q, B)
                accepted.append(B)
            assert round_up_bits(cfg, 4) == accepted[0] == least, Q

    def test_round_up_bits(self, worked):
        cfg, *_ = worked
        assert round_up_bits(cfg, 1) == 48
        assert round_up_bits(cfg, 48) == 48
        assert round_up_bits(cfg, 49) == 96


class TestEncode:
    def test_message_count(self, worked):
        cfg, pl, store, segs, parts = worked
        msgs = encode_partition(segs, parts[0], cfg)
        assert len(msgs) == math.comb(3, 2) * math.comb(3, 2) == 9

    def test_xor_structure(self, worked):
        cfg, pl, store, segs, parts = worked
        msgs = encode_partition(segs, parts[0], cfg)
        m = next(
            m for m in msgs
            if m.dest_group == NodeSet.of(4, 5) and m.coop == NodeSet.of(1, 2)
        )
        by_id = segments_by_id(segs)
        a = by_id[SegmentId(4, NodeSet.of(1, 2, 5), 1, NodeSet.of(1, 2))].data
        b = by_id[SegmentId(5, NodeSet.of(1, 2, 4), 1, NodeSet.of(1, 2))].data
        assert m.payload == xor_bytes(a, b)

    def test_each_receiver_desires_six(self, worked):
        cfg, pl, store, segs, parts = worked
        msgs = encode_partition(segs, parts[0], cfg)
        for j in parts[0].rx:
            wanted = [m for m in msgs if j in m.dest_group]
            assert len(wanted) == math.comb(3, 2) * math.comb(2, 1) == 6

    def test_injectivity_across_all_partitions(self, worked):
        # every segment id lands in exactly one message, and every message
        # carries exactly s of them
        cfg, pl, store, segs, parts = worked
        seen: set = set()
        for part in parts:
            for m in encode_partition(segs, part, cfg):
                ids = m.constituents()
                assert len(ids) == cfg.s
                for sid in ids:
                    assert sid not in seen
                    seen.add(sid)
        assert seen == set(segment_rows(segs))


class TestDecode:
    def test_node_four_recovers_all_six(self, worked):
        cfg, pl, store, segs, parts = worked
        storage = NodeSet.of(1, 2, 5)
        recovered = []
        number = {part.tx: part.index for part in parts}
        by_id = segments_by_id(segs)
        for coop, tx in pairs_of(4, storage, cfg):
            part = parts[number[tx] - 1]
            msgs = encode_partition(segs, part, cfg)
            dest_group = NodeSet.of(4) | (storage - coop)
            m = next(
                m for m in msgs if m.dest_group == dest_group and m.coop == coop
            )
            got = decode_segment(m, by_id, 4)
            assert got.data == by_id[got.id].data
            recovered.append(got.data)
        assert b"".join(recovered) == block_bytes(pl, store, 4, storage)

    def test_involution(self, worked):
        cfg, pl, store, segs, parts = worked
        m = encode_partition(segs, parts[0], cfg)[0]
        assert xor_bytes(m.payload, m.payload) == bytes(len(m.payload))

    def test_unintended_receiver_rejected(self, worked):
        cfg, pl, store, segs, parts = worked
        m = encode_partition(segs, parts[0], cfg)[0]
        outsider = next(j for j in parts[0].rx if j not in m.dest_group)
        with pytest.raises(ConstraintViolation):
            decode_segment(m, segs, outsider)

    def test_decode_blocks_rejects_a_node_outside_the_table(self, worked):
        # a node that holds nothing loses every block
        cfg, pl, store, segs, parts = worked
        payloads = np.zeros((segs.messages.size // cfg.s, segs.data.shape[1]), dtype=np.uint8)
        nothing = np.zeros(len(payloads), dtype=bool)
        assert all(block is None for block in decode_blocks(segs, 6, payloads, nothing).values())


class TestLoad:
    def test_worked_example_load(self, worked):
        cfg, *_ = worked
        r_p, desired = per_partition_load(cfg)
        assert r_p == Fraction(1, 120)
        assert desired == WORKED.B  # C(K-1,r) = C(K-1,K_r-1) here

    def test_pairwise_load(self):
        params = SystemParams(K=4, N=6, Q=4, r=2, B=16)
        cfg = validate_config(params, K_r=2, t=1)
        r_p, _ = per_partition_load(cfg)
        assert r_p == Fraction(1, 24)

    def test_load_sums_to_closed_form(self, worked):
        cfg, *_ = worked
        r_p, _ = per_partition_load(cfg)
        total = r_p * math.comb(6, 3)
        assert total == Fraction(1, 3) * (1 - Fraction(3, 6))

    def test_desired_bits_equal_per_partition_share(self):
        # in general the per-partition desired bits are R_p * NQB, which is
        # B only when C(K-1, r) = C(K-1, K_r-1)
        params = SystemParams(K=8, N=28, Q=8, r=2, B=160)
        cfg = validate_config(params, K_r=5, t=1)
        r_p, desired = per_partition_load(cfg)
        assert desired == r_p * params.N * params.Q * params.B
        assert desired == Fraction(3, 5) * params.B


class TestStragglers:
    def test_no_stragglers_single_round(self, worked):
        # every coop group in lex order, sent by itself; group B's messages
        # are the C(K_r, s) consecutive rows at B's lex position
        cfg, pl, store, segs, parts = worked
        msgs = encode_partition(segs, parts[0], cfg)
        plan = straggler_replan(parts[0], cfg, NodeSet(()))
        coops = enum_subsets(parts[0].tx, cfg.t)
        assert plan.rounds == (tuple((b, b) for b in coops),)
        per_group = math.comb(cfg.K_r, cfg.s)
        assert [m.coop for m in msgs] == [b for b, _ in plan.rounds[0] for _ in range(per_group)]

    def test_one_straggler_rounds(self, worked):
        cfg, pl, store, segs, parts = worked
        plan = straggler_replan(parts[0], cfg, NodeSet.of(1))
        assert [len(r) for r in plan.rounds] == [1, 2]
        assert [rnd["messages"] for rnd in straggler_schedule(plan)] == [3, 6]
        assert {e[0].members for e in plan.rounds[0]} == {(2, 3)}
        assert {e[1].members for e in plan.rounds[1]} == {(2,), (3,)}

    def test_rounds_partition_messages(self, worked):
        # each coop group lands in exactly one round, so each message does
        cfg, pl, store, segs, parts = worked
        msgs = encode_partition(segs, parts[0], cfg)
        plan = straggler_replan(parts[0], cfg, NodeSet.of(2))
        flat = [b for rnd in plan.rounds for b, _ in rnd]
        assert sorted(b.members for b in flat) == sorted({m.coop.members for m in msgs})
        assert len(flat) == len(set(flat)) == len(msgs) // math.comb(cfg.K_r, cfg.s)
        for i, rnd in enumerate(plan.rounds):
            for coop, effective in rnd:
                assert len(coop & NodeSet.of(2)) == i
                assert effective == coop - NodeSet.of(2) and len(effective) >= 1

    def test_too_many_stragglers(self, worked):
        cfg, pl, store, segs, parts = worked
        with pytest.raises(ConstraintViolation):
            straggler_replan(parts[0], cfg, NodeSet.of(1, 2))

    def test_partition_of_another_transmitter_count_rejected(self, worked):
        # a partition of four transmitters under the (6,3,3,2) config,
        # whose partitions have K_t = 3: planned, it would count 6 groups
        # and 18 messages in 12 slots
        cfg, *_ = worked
        wide = enum_partitions(6, 4)[0]
        with pytest.raises(ConstraintViolation, match=r"\|T_p\| = K_t: 4 transmitters") as exc:
            straggler_replan(wide, cfg, NodeSet(()))
        assert exc.value.constraint == "|T_p| = K_t"

    def test_schedule_slot_accounting(self, worked):
        # the intact plan costs the ordinary partition budget; losing node 1
        # leaves singleton survivors, and at s + t_eff = 2 + 1 = K_r their
        # two groups run as time division, C(3, 2) one-slot blocks each
        cfg, pl, store, segs, parts = worked
        plan = straggler_replan(parts[0], cfg, NodeSet.of(1))
        assert plan.config is cfg
        schedule = straggler_schedule(plan)
        assert schedule[0] == {
            "round": 0, "messages": 3, "batches": 1,
            "effective_coop_size": 2, "slots": 2,
        }
        assert schedule[1] == {
            "round": 1, "messages": 6, "batches": 2,
            "effective_coop_size": 1, "slots": 6,
        }

        intact = straggler_schedule(straggler_replan(parts[0], cfg, NodeSet(())))
        assert intact[0]["slots"] == 6  # == the partition's normal budget

    def test_schedule_stays_single_shot_with_slack(self):
        # s + t exceeds K_r + 1, so even the shrunken groups still qualify
        params = SystemParams(K=8, N=56, Q=8, r=5, B=80)
        cfg = validate_config(params, K_r=4, t=2)
        part = enum_partitions(8, 4)[0]
        plan = straggler_replan(part, cfg, NodeSet.of(part.tx.members[0]))
        schedule = straggler_schedule(plan)
        assert [rnd["slots"] for rnd in schedule] == [3, 3]
        assert sum(rnd["slots"] for rnd in schedule) == math.comb(4, 2)

    def test_schedule_counts_slots_on_the_engine_layout(self):
        # every valid configuration with K <= 8: the intact plan costs the
        # engine's partition budget, and losing one transmitter never makes
        # a plan cheaper than the intact one; every plan's rounds hold each
        # coop group once, and its counted messages are the partition's
        configs = 0
        for K in range(2, 9):
            for r in range(1, K):
                for K_r in range(1, K):
                    for t in range(1, r + 1):
                        if config_violation(K, r, K_r, t) is not None:
                            continue
                        configs += 1
                        params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
                        cfg = validate_config(params, K_r, t)
                        part = enum_partitions(K, cfg.K_t)[0]
                        coops = enum_subsets(part.tx, t)
                        n_msgs = math.comb(cfg.K_t, t) * math.comb(K_r, cfg.s)
                        for late in ((), *((k,) for k in part.tx.members if t > 1)):
                            plan = straggler_replan(part, cfg, NodeSet(late))
                            held = sorted(b for rnd in plan.rounds for b, _ in rnd)
                            assert held == coops, (K, r, K_r, t, late)
                            messages = sum(rnd["messages"] for rnd in straggler_schedule(plan))
                            assert messages == n_msgs, (K, r, K_r, t, late)
                        intact = straggler_schedule(straggler_replan(part, cfg, NodeSet(())))
                        budget = partition_slots(cfg)
                        assert [rnd["slots"] for rnd in intact] == [budget], (K, r, K_r, t)
                        for late in part.tx.members if t > 1 else ():
                            plan = straggler_replan(part, cfg, NodeSet.of(late))
                            slots = [rnd["slots"] for rnd in straggler_schedule(plan)]
                            assert sum(slots) >= budget, (K, r, K_r, t, late)
        assert configs == 210

    def test_time_division_rounds_pinned(self):
        # (9,3,6,2): the intact plan is the engine's 120 slots; a lone
        # transmitter runs at g = 2 with one chunk per message, four times
        # the intact symbol size, so its 30 slots count as 120
        params = SystemParams(K=9, N=math.comb(9, 3), Q=9, r=3, B=8)
        cfg = validate_config(params, K_r=6, t=2)
        part = enum_partitions(9, cfg.K_t)[0]
        intact = straggler_schedule(straggler_replan(part, cfg, NodeSet(())))
        assert [rnd["slots"] for rnd in intact] == [120] == [partition_slots(cfg)]
        plan = straggler_replan(part, cfg, NodeSet.of(part.tx.members[0]))
        assert [rnd["slots"] for rnd in straggler_schedule(plan)] == [40, 120]


class TestCodingComplexity:
    def test_no_coding_when_s_is_one(self):
        params = SystemParams(K=4, N=6, Q=4, r=2, B=16)
        cfg = validate_config(params, K_r=1, t=2)
        assert coding_complexity(cfg) == 0

    def test_linear_in_b(self):
        a = validate_config(SystemParams(K=6, N=20, Q=6, r=3, B=48), 3, 2)
        b = validate_config(SystemParams(K=6, N=20, Q=6, r=3, B=96), 3, 2)
        assert coding_complexity(b) == 2 * coding_complexity(a)

    def test_instrumented_counter(self, worked):
        # Count actual bit-XORs in a full encode + decode run.  The closed
        # form charges each user in all C(K, K_r) partitions, so it equals
        # measured_encode * K/K_t + measured_decode * K/K_r.
        cfg, pl, store, segs, parts = worked
        bits = len(next(iter(segments_by_id(segs).values())).data) * 8
        enc_ops = {k: 0 for k in range(1, 7)}
        dec_ops = {k: 0 for k in range(1, 7)}
        for part in parts:
            for m in encode_partition(segs, part, cfg):
                for member in m.coop:
                    enc_ops[member] += (cfg.s - 1) * bits
                for j in m.dest_group:
                    dec_ops[j] += (cfg.s - 1) * bits
        assert len(set(enc_ops.values())) == 1 and len(set(dec_ops.values())) == 1
        enc, dec = enc_ops[1], dec_ops[1]
        K = WORKED.K
        expected = Fraction(enc * K, cfg.K_t) + Fraction(dec * K, cfg.K_r)
        assert coding_complexity(cfg) == expected == 1920
