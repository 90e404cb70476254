"""The segment table's bookkeeping: the message-row table against the
by-id reference, the invariant checks on it, the memory the table
keeps, and the pipeline's array encode and reassembly against the
per-partition encoder and the per-IV walk."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from cpcshuffle import channel, codec
from cpcshuffle.codec import (
    CodedMessage,
    _message_pairs,
    encode_partition,
    encode_payloads,
    round_up_bits,
    segment_ivs,
)
from cpcshuffle.model import (
    InternalInvariantError,
    ParameterError,
    SystemParams,
    config_violation,
    enum_partitions,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase
from segment_reference import segment_rows, verify_reassembly

# the worked 6-node instance and (8,5,4,2), written (K, r, K_r, t), both
# single shot with t = 2, and (7,2,4,1), time division with t = 1
CASES = [(6, 3, 3, 2), (8, 5, 4, 2), (7, 2, 4, 1)]


def _config(K, r, K_r, t, Q=None):
    """The config at N = C(K, r), Q = K unless given, and its least B."""
    shape = dict(K=K, N=math.comb(K, r), Q=Q or K, r=r)
    probe = validate_config(SystemParams(**shape, B=8), K_r, t)
    return validate_config(SystemParams(**shape, B=round_up_bits(probe, 8)), K_r, t)


def _table(K, r, K_r, t):
    cfg = _config(K, r, K_r, t)
    pl = build_placement(cfg.params)
    return cfg, segment_ivs(pl, cfg, map_phase(pl, cfg.params, seed=0))


def _valid_configs(K_max):
    return [
        (K, r, K_r, t)
        for K in range(2, K_max + 1) for r in range(1, K) for K_r in range(1, K)
        for t in range(1, r + 1) if config_violation(K, r, K_r, t) is None
    ]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "K{}r{}Kr{}t{}".format(*c))
def case(request):
    return _table(*request.param)


class TestMessageTable:
    def test_rows_are_the_constituents(self, case):
        cfg, segs = case
        parts = enum_partitions(cfg.params.K, cfg.K_t)
        n_msgs = math.comb(cfg.K_t, cfg.t) * math.comb(cfg.K_r, cfg.s)
        assert segs.messages.shape == (len(parts), n_msgs, cfg.s)
        flat = 0
        row_of = segment_rows(segs)
        for part in parts:
            for m, (coop, dest_group) in enumerate(_message_pairs(part, cfg)):
                ids = CodedMessage(part.index, dest_group, coop, b"").constituents()
                rows = [row_of[i] for i in ids]
                assert segs.messages[part.index - 1, m].tolist() == rows
                flat += 1
        assert segs.messages.reshape(-1, cfg.s).shape[0] == flat
        assert not segs.messages.flags.writeable

    def test_encode_rejects_a_partition_the_table_was_not_cut_for(self):
        cfg, segs = _table(6, 3, 3, 2)
        foreign = enum_partitions(6, 2)[0]
        with pytest.raises(ParameterError, match="not one the segment table was cut for"):
            encode_partition(segs, foreign, cfg)
        other = validate_config(cfg.params, K_r=4, t=2)
        with pytest.raises(ParameterError, match="not one the segment table was cut for"):
            encode_partition(segs, enum_partitions(6, 2)[0], other)

    def test_payload_rows_are_the_stacked_messages(self):
        # every partition of every valid config with K <= 6, s + t = K_r
        # included: the codec encodes what the channel cannot run
        configs = _valid_configs(6)
        assert len(configs) == 70
        for K, r, K_r, t in configs:
            cfg, segs = _table(K, r, K_r, t)
            for part in segs.partitions:
                rows = encode_payloads(segs, part, cfg)
                joined = b"".join(m.payload for m in encode_partition(segs, part, cfg))
                assert rows.dtype == np.uint8 and rows.ndim == 2, (K, r, K_r, t)
                assert rows.tobytes() == joined, (K, r, K_r, t, part.index)
                assert len(rows) == len(_message_pairs(part, cfg)), (K, r, K_r, t)

    def test_encode_payloads_rejects_what_encode_partition_does(self):
        cfg, segs = _table(6, 3, 3, 2)
        other = validate_config(cfg.params, K_r=4, t=2)
        for partition, config in ((enum_partitions(6, 2)[0], cfg), (segs.partitions[0], other)):
            with pytest.raises(ParameterError) as want:
                encode_partition(segs, partition, config)
            with pytest.raises(ParameterError) as got:
                encode_payloads(segs, partition, config)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith("is not one the segment table was cut for")

    def test_a_message_without_its_segment_is_an_invariant_error(self, monkeypatch):
        # every partition's first message gets a transmitter in its dest
        # group: no block holds that receiver's segment, and partition 1's
        # is named first
        real = codec._message_positions

        def skewed(s, t, K_r, K_t):
            positions = real(s, t, K_r, K_t).copy()
            coop = set(positions[0, :t].tolist())
            outsider = max(set(range(K_t)) - coop)
            positions[0, t] = outsider  # in place of D's lowest receiver
            return positions

        monkeypatch.setattr(codec, "_message_positions", skewed)
        missing = (
            "missing segment SegmentId(dest=3, storage=(1, 2, 5), partition=1, coop=(1, 2))"
        )
        with pytest.raises(InternalInvariantError, match=f"^{re.escape(missing)}$"):
            _table(6, 3, 3, 2)

    def test_messages_must_cover_every_row_once(self, monkeypatch):
        # every partition sends its first message twice and its second not at all
        real = codec._message_positions

        def doubled(*layout):
            positions = real(*layout).copy()
            positions[1] = positions[0]
            return positions

        monkeypatch.setattr(codec, "_message_positions", doubled)
        with pytest.raises(InternalInvariantError, match="do not cover the .* rows once each"):
            _table(6, 3, 3, 2)


@pytest.mark.parametrize("part", ["placement", "store", "config"])
def test_segment_ivs_rejects_parts_of_another_instance(part):
    # a store at B=480 with a config at B=960 used to give 10-byte
    # segments labelled B=960
    params = SystemParams(K=6, N=20, Q=6, r=3, B=480)
    other = dataclasses.replace(params, B=960)
    parts = {"placement": params, "store": params, "config": params, part: other}
    pl = build_placement(parts["placement"])
    store = map_phase(build_placement(parts["store"]), parts["store"], seed=0)
    cfg = validate_config(parts["config"], K_r=3, t=2)
    with pytest.raises(ParameterError, match="placement, config and store params differ"):
        segment_ivs(pl, cfg, store)


def test_array_pipeline_matches_the_per_partition_and_per_iv_references(monkeypatch):
    # every valid config with K <= 8, s + t = K_r included: the ideal
    # path's one config-wide payload array is the stacked `encode_payloads`
    # rows, and its array reassembly fails exactly the IVs the per-IV walk
    # fails, in the same (node, q, n) order, with every message held, under
    # a seeded random `held` mask and with one corrupted message.  Q = 2K
    # gives every block two outputs, so the order of q and n is checked.
    seen = []
    real = channel._verify_reassembly

    def recorded(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(channel, "_verify_reassembly", recorded)
    configs = _valid_configs(8)
    assert len(configs) == 210
    for K, r, K_r, t in configs:
        cfg = _config(K, r, K_r, t, Q=2 * K)
        rng = np.random.default_rng([K, r, K_r, t])
        seen.clear()
        ok, _rep = channel.ideal_verify(cfg.params, cfg, seed=0)
        [(pl, store, segs, payloads, held)] = seen
        stacked = np.concatenate([encode_payloads(segs, part, cfg) for part in segs.partitions])
        assert ok and np.array_equal(payloads, stacked), (K, r, K_r, t)
        assert verify_reassembly(pl, store, segs, payloads, held) == [], (K, r, K_r, t)
        dropped = held & (rng.random(held.shape) < 0.9)
        want = verify_reassembly(pl, store, segs, payloads, dropped)
        assert real(pl, store, segs, payloads, dropped) == want, (K, r, K_r, t)
        n_parts = len(segs.partitions)
        corrupt = (int(rng.integers(1, n_parts + 1)), int(rng.integers(len(payloads) // n_parts)))
        seen.clear()
        ok, rep = channel.ideal_verify(cfg.params, cfg, seed=0, corrupt=corrupt)
        [(pl, store, segs, payloads, held)] = seen
        want = verify_reassembly(pl, store, segs, payloads, held)
        assert not ok and rep.failures == want and len(want) == cfg.s, (K, r, K_r, t)


def test_table_keeps_no_python_object_per_row():
    # (10,5,5,2): 50,400 segment rows of one byte.  A rank dict with one
    # entry per row kept about 214 B per row under tracemalloc; the rows
    # and the (partitions, messages, s) row table keep about 12 B per row.
    # Bound: 120 B per row.
    K, r, K_r, t = 10, 5, 5, 2
    probe = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
    params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=round_up_bits(probe, 8))
    cfg = validate_config(params, K_r, t)
    pl = build_placement(params)
    store = map_phase(pl, params, seed=0)
    tracemalloc.start()
    try:
        segs = segment_ivs(pl, cfg, store)
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(segs.data) == 50400
    assert segs.data.dtype == np.uint8
    assert kept / len(segs.data) < 120, f"{kept / len(segs.data):.0f} B per row"


def test_segmentation_builds_no_node_set_per_pair(monkeypatch):
    # (10,5,5,2) has 50,400 (B, B | E) pairs; the table enumerates node
    # sets once per dest, its storage groups, and reads B and E by rank,
    # so no set is built for any pair
    K, r, K_r, t = 10, 5, 5, 2
    probe = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
    params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=round_up_bits(probe, 8))
    cfg = validate_config(params, K_r, t)
    pl = build_placement(params)
    store = map_phase(pl, params, seed=0)
    calls = []
    real = codec.enum_subsets

    def counted(ground, k):
        calls.append((ground, k))
        return real(ground, k)

    monkeypatch.setattr(codec, "enum_subsets", counted)
    segs = segment_ivs(pl, cfg, store)
    assert len(segs.data) == 50400
    assert len(calls) == K
