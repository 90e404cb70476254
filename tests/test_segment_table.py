"""The segment table's bookkeeping: its computed rows and their
KeyErrors, the message-row table, the invariant checks on it, and the
memory the table keeps."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from cpcshuffle import codec
from cpcshuffle.codec import (
    CodedMessage,
    SegmentId,
    _message_pairs,
    admissible_pairs,
    encode_partition,
    round_up_bits,
    segment_ivs,
)
from cpcshuffle.model import (
    InternalInvariantError,
    NodeSet,
    ParameterError,
    SystemParams,
    enum_partitions,
    enum_subsets,
    full_set,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase

# the worked 6-node instance and (8,5,4,2), written (K, r, K_r, t), both
# single shot with t = 2, and (7,2,4,1), time division with t = 1
CASES = [(6, 3, 3, 2), (8, 5, 4, 2), (7, 2, 4, 1)]


def _table(K, r, K_r, t):
    probe = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
    params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=round_up_bits(probe, 8))
    cfg = validate_config(params, K_r, t)
    pl = build_placement(params)
    return cfg, segment_ivs(pl, cfg, map_phase(pl, params, seed=0))


def _blocks(K, r):
    """(dest, storage) of every block, in row order."""
    return [
        (dest, storage)
        for dest in range(1, K + 1)
        for storage in enum_subsets(full_set(K) - NodeSet.of(dest), r)
    ]


def pairs_of(dest, storage, cfg):
    """The block's (B, B | E) pairs, B-major, from `admissible_pairs`'
    two factors."""
    coops, extras = admissible_pairs(dest, storage, cfg)
    return [(coop, NodeSet.from_mask(coop.mask | extra)) for coop in coops for extra in extras]


def _assert_unknown(segs, key):
    """`key` and its SegmentId name no segment: `row` and lookups raise
    KeyError, so `.get` returns None and `in` is False on the table."""
    with pytest.raises(KeyError):
        segs.row(*key)
    dest, storage, p, coop = key
    sid = SegmentId(dest, NodeSet.from_mask(storage), p, NodeSet.from_mask(coop))
    assert sid not in segs
    assert segs.get(sid) is None
    with pytest.raises(KeyError):
        segs[sid]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "K{}r{}Kr{}t{}".format(*c))
def case(request):
    return _table(*request.param)


class TestRankView:
    def test_iterates_every_row_in_order(self, case):
        cfg, segs = case
        assert len(segs) == len(segs.data)
        rows = [segs.row(i.dest, i.storage.mask, i.partition, i.coop.mask) for i in segs]
        assert rows == list(range(len(segs)))

    def test_partition_outside_the_numbering(self, case):
        # -1 and 0 must not wrap to the last partitions
        cfg, segs = case
        n_parts = math.comb(cfg.params.K, cfg.K_t)
        for dest, storage in _blocks(cfg.params.K, cfg.params.r):
            for coop, _tx in pairs_of(dest, storage, cfg):
                for p in (-1, 0, n_parts + 1, n_parts + 2):
                    _assert_unknown(segs, (dest, storage.mask, p, coop.mask))

    def test_coop_group_outside_the_storage_group(self, case):
        cfg, segs = case
        K = cfg.params.K
        n_parts = math.comb(K, cfg.K_t)
        checked = 0
        for dest, storage in _blocks(K, cfg.params.r)[:: cfg.params.r + 1]:
            for coop in enum_subsets(full_set(K), cfg.t):
                if coop.issubset(storage):
                    continue
                for p in range(1, n_parts + 1):
                    _assert_unknown(segs, (dest, storage.mask, p, coop.mask))
                    checked += 1
        assert checked > 1000

    def test_dest_inside_the_storage_group(self, case):
        cfg, segs = case
        number = {part.tx: part.index for part in enum_partitions(cfg.params.K, cfg.K_t)}
        for dest, storage in _blocks(cfg.params.K, cfg.params.r):
            for coop, tx in pairs_of(dest, storage, cfg):
                for j in storage:
                    _assert_unknown(segs, (j, storage.mask, number[tx], coop.mask))

    def test_only_the_pairs_partitions_are_known(self, case):
        # for a block and a coop group inside its storage group, exactly the
        # partitions of its admissible pairs name a segment; every (r+1)-th block
        cfg, segs = case
        n_seg = codec.segments_per_block(cfg)
        parts = enum_partitions(cfg.params.K, cfg.K_t)
        number = {part.tx: part.index for part in parts}
        blocks = list(enumerate(_blocks(cfg.params.K, cfg.params.r)))
        for b, (dest, storage) in blocks[:: cfg.params.r + 1]:
            rows = {
                (coop, number[tx]): b * n_seg + i
                for i, (coop, tx) in enumerate(pairs_of(dest, storage, cfg))
            }
            for coop in enum_subsets(storage, cfg.t):
                for part in parts:
                    key = (dest, storage.mask, part.index, coop.mask)
                    if (coop, part.index) in rows:
                        assert segs.row(*key) == rows[(coop, part.index)]
                    else:
                        _assert_unknown(segs, key)


class TestMessageTable:
    def test_rows_are_the_constituents(self, case):
        cfg, segs = case
        parts = enum_partitions(cfg.params.K, cfg.K_t)
        n_msgs = math.comb(cfg.K_t, cfg.t) * math.comb(cfg.K_r, cfg.s)
        assert segs.messages.shape == (len(parts), n_msgs, cfg.s)
        flat = 0
        for part in parts:
            for m, (coop, dest_group) in enumerate(_message_pairs(part, cfg)):
                ids = CodedMessage(part.index, dest_group, coop, b"").constituents()
                rows = [segs.row(i.dest, i.storage.mask, i.partition, i.coop.mask) for i in ids]
                assert segs.messages[part.index - 1, m].tolist() == rows
                assert (segs.message_of[rows] == flat).all()
                flat += 1
        assert segs.messages.reshape(-1, cfg.s).shape[0] == flat
        for table in (segs.messages, segs.message_of):
            assert not table.flags.writeable

    def test_encode_rejects_a_partition_the_table_was_not_cut_for(self):
        cfg, segs = _table(6, 3, 3, 2)
        foreign = enum_partitions(6, 2)[0]
        with pytest.raises(ParameterError, match="not one the segment table was cut for"):
            encode_partition(segs, foreign, cfg)
        other = validate_config(cfg.params, K_r=4, t=2)
        with pytest.raises(ParameterError, match="not one the segment table was cut for"):
            encode_partition(segs, enum_partitions(6, 2)[0], other)

    def test_a_message_without_its_segment_is_an_invariant_error(self, monkeypatch):
        # partition 1's first message gets a transmitter in its dest group:
        # no block holds that receiver's segment
        real = codec._message_pairs

        def skewed(partition, config):
            pairs = real(partition, config)
            if partition.index == 1:
                coop, dest_group = pairs[0]
                outsider = max(partition.tx - coop)
                low = NodeSet.of(dest_group.members[0])
                pairs[0] = (coop, dest_group - low | NodeSet.of(outsider))
            return pairs

        monkeypatch.setattr(codec, "_message_pairs", skewed)
        missing = (
            "missing segment SegmentId(dest=3, storage=NodeSet(members=(1, 2, 5)), "
            "partition=1, coop=NodeSet(members=(1, 2)))"
        )
        with pytest.raises(InternalInvariantError, match=f"^{re.escape(missing)}$"):
            _table(6, 3, 3, 2)

    def test_messages_must_cover_every_row_once(self, monkeypatch):
        # partition 1 sends its first message twice and its second not at all
        real = codec._message_pairs

        def doubled(partition, config):
            pairs = real(partition, config)
            if partition.index == 1:
                pairs[1] = pairs[0]
            return pairs

        monkeypatch.setattr(codec, "_message_pairs", doubled)
        with pytest.raises(InternalInvariantError, match="do not cover the .* rows once each"):
            _table(6, 3, 3, 2)


def test_table_keeps_no_python_object_per_row():
    # (10,5,5,2): 50,400 segment rows of one byte.  A rank dict with one
    # entry per row kept about 214 B per row under tracemalloc; the computed
    # view, the (partitions, messages, s) row table and per-message keys keep
    # about 50 B per row.  Bound: 120 B per row.
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
    assert len(segs) == 50400
    assert segs.data.dtype == np.uint8
    assert kept / len(segs) < 120, f"{kept / len(segs):.0f} B per row"


def test_segmentation_builds_no_node_set_per_pair(monkeypatch):
    # (10,5,5,2) has 50,400 (B, B | E) pairs; the table reads B and E as
    # masks, so no transmitter set is built for any of them
    K, r, K_r, t = 10, 5, 5, 2
    probe = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
    params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=round_up_bits(probe, 8))
    cfg = validate_config(params, K_r, t)
    pl = build_placement(params)
    store = map_phase(pl, params, seed=0)
    calls = []
    real = NodeSet.from_mask.__func__

    def counted(cls, mask):
        calls.append(mask)
        return real(cls, mask)

    monkeypatch.setattr(NodeSet, "from_mask", classmethod(counted))
    segs = segment_ivs(pl, cfg, store)
    assert len(segs) == 50400
    assert calls == []
