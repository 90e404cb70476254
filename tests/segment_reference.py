"""Segments by id, the reference the tests check `SegmentTable` against.

A segment is named by (dest j, storage group U, partition p, coop group
B).  The table addresses it by row only; here the row is found by
enumeration, apart from the maps `segment_ivs` builds its message table
from: block b of `segs.blocks`, pair i of its `admissible_pairs` factors
(coop-major), numbered by `segs.partitions`, is row b * per_block + i.
"""

import itertools

from cpcshuffle.codec import Segment, SegmentId, admissible_pairs


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
