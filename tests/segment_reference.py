"""Segments by id, the reference the tests check `SegmentTable` against,
the per-block layout and decode the arrays are checked against, and the
per-IV reassembly walk the array reassembly is checked against.

A segment is named by (dest j, storage group U, partition p, coop group
B).  The table addresses it by row only; here the row is found by
enumeration, apart from the ranks `segment_ivs` computes its message
table from: block b of `segs.blocks`, pair i of its `admissible_pairs`
factors (coop-major), numbered by `segs.partitions`, is row
b * per_block + i.
"""

import itertools

import numpy as np

from cpcshuffle.codec import Segment, SegmentId, admissible_pairs, decode
from cpcshuffle.placement import required_ivs


def block_ivs(placement, dest, storage) -> list[tuple[int, int]]:
    """The block's (q, n) pairs in layout order: q ascending over W_dest,
    then the eta1 files stored exactly at `storage`, n ascending."""
    files = placement.group_files.get(storage.mask, ())
    return [(q, n) for q in sorted(placement.reduce_assignment[dest]) for n in files]


def block_bytes(placement, store, dest, storage) -> bytes:
    """Concatenation of the block's IVs in `block_ivs` order."""
    return b"".join(store.get(q, n) for q, n in block_ivs(placement, dest, storage))


def decode_blocks(segs, dest, payloads, held) -> dict:
    """Node `dest`'s blocks by storage group: their bytes from `decode`,
    or None for a block with a row whose message `held`, node `dest`'s
    mask over the flat messages, misses.  The loss is read off `held`
    row by row here, not from `decode`."""
    flat = segs.messages.reshape(-1, segs.config.s)
    message_of = np.empty(len(segs.data), dtype=np.intp)
    message_of[flat] = np.arange(len(flat))[:, None]
    held_rows = held[message_of].reshape(len(segs.blocks), -1)  # block b's rows
    decoded = decode(segs, payloads, np.ones((segs.config.params.K + 1, len(held)), bool))[0]
    return {
        storage: decoded[b].tobytes() if held_rows[b].all() else None
        for b, (j, storage) in enumerate(segs.blocks) if j == dest
    }


def segment_rows(segs) -> dict[SegmentId, int]:
    """Every segment's id mapped to its row, in row order."""
    number = {part.tx.mask: part.index for part in segs.partitions}
    rows = {}
    for b, (dest, storage) in enumerate(segs.blocks):
        pairs = itertools.product(*admissible_pairs(dest, storage, segs.config))
        for i, (coop, extra) in enumerate(pairs):
            rows[SegmentId(dest, storage, number[coop.mask | extra], coop)] = b * segs.per_block + i
    return rows


def segments_by_id(segs) -> dict[SegmentId, Segment]:
    """Every segment as a `Segment`, the local segments `decode_segment` reads."""
    return {sid: Segment(sid, segs.data[row].tobytes()) for sid, row in segment_rows(segs).items()}


def verify_reassembly(placement, store, segs, payloads, held) -> list[tuple[int, int, int]]:
    """Reassemble every required IV per node; return (node, q, n) mismatches.

    Each node decodes all of its blocks with `decode_blocks` from
    `payloads` and its row of `held`, and each block is laid out once by
    `block_ivs`.  The required IVs are walked one at a time in sorted
    order and compared with `store.get`; an IV missing from its block's
    layout is a mismatch too.
    """
    failures = []
    nbytes = placement.params.B // 8
    for k in range(1, placement.params.K + 1):
        blocks = decode_blocks(segs, k, payloads, held[k])
        offsets = {}
        for q, n in sorted(required_ivs(placement, k)):
            storage = placement.file_to_nodes[n]
            if storage not in offsets:
                layout = block_ivs(placement, k, storage)
                offsets[storage] = {iv: i * nbytes for i, iv in enumerate(layout)}
            block = blocks[storage]
            pos = offsets[storage].get((q, n))
            if block is None or pos is None or block[pos : pos + nbytes] != store.get(q, n):
                failures.append((k, q, n))
    return failures
