"""Exact combinatorial layer of the shuffle: segmentation, XOR coding, loads.

The unit of addressing is the block v[d_j, U]: all IVs that node j needs
and that live exactly at the size-r storage group U, laid out by
`block_ivs` (q ascending over W_j, then n ascending).  Each block is cut
into C(r,t) * C(K-r-1, K_r-s) equal segments, one per admissible
(cooperation group B, transmitter set T) pair from `admissible_pairs`:
B a t-subset of U, T = B plus K_t-t nodes outside U and {j}.  Pairs are
ordered (B lex, T lex).  A coded message for (p, D, B) is the bytewise
XOR of the s segments its receivers are missing; every receiver in D
holds the other s-1 segments locally, so one XOR recovers its own.

Every segment has an integer rank: block rank * segments per block +
pair index, with blocks in (dest, storage lex) order.  `segment_ivs`
holds all segments as the rows of one `(n_segments, seg_len)` uint8
array, so a block's segments are its bytes reshaped, and a rank dict
keyed by (dest, storage mask, p, coop mask), p being the number
`enum_partitions`, the only code that numbers partitions, gives T.  That
`SegmentTable` is also a read-only mapping from `SegmentId` to
`Segment`.  Encoding and node-wide decoding gather rows by rank and
XOR-reduce them in one numpy call; `SegmentId`,
`CodedMessage.constituents`, `decode_segment` and `xor_bytes` are the
readable one-segment reference they agree with.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import (
    ConstraintViolation,
    InfeasibleInstance,
    InternalInvariantError,
    NodeSet,
    ParameterError,
    Partition,
    ShuffleConfig,
    delivery_layout,
    enum_partitions,
    enum_subsets,
)
from .placement import IVStore, PlacementMap


@dataclass(frozen=True, order=True)
class SegmentId:
    """Address of one segment: destination, storage group, partition, coop group."""

    dest: int
    storage: NodeSet
    partition: int
    coop: NodeSet


@dataclass(frozen=True)
class Segment:
    id: SegmentId
    data: bytes


@dataclass(frozen=True)
class CodedMessage:
    """XOR of s segments, sent by coop group B to receiver group D in partition p."""

    partition: int
    dest_group: NodeSet
    coop: NodeSet
    payload: bytes

    @functools.cached_property
    def key(self) -> tuple:
        """`message_key` of this message, built once so that every
        receiver's ledger shares the one tuple."""
        return message_key(self.partition, self.dest_group, self.coop)

    def constituents(self) -> list[SegmentId]:
        """The s segment ids whose XOR is the payload."""
        return [
            SegmentId(
                dest=j,
                storage=self.coop | (self.dest_group - NodeSet.of(j)),
                partition=self.partition,
                coop=self.coop,
            )
            for j in self.dest_group
        ]


def message_key(p: int, dest_group: NodeSet, coop: NodeSet) -> tuple:
    """(p, D members, B members): the address receivers file a message under."""
    return (p, dest_group.members, coop.members)


@dataclass(frozen=True)
class StragglerPlan:
    """Time-division rounds that deliver a partition despite late transmitters.

    Round i carries the messages whose coop group intersects the straggler
    set in exactly i nodes; their effective transmitters are B minus the
    stragglers, never empty while |S| <= t-1.  `config` is the config the
    plan was made under, which its schedule is counted on.
    """

    partition: int
    config: ShuffleConfig
    stragglers: NodeSet
    rounds: tuple[tuple[tuple[CodedMessage, NodeSet], ...], ...]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise InternalInvariantError(f"XOR length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def segments_per_block(config: ShuffleConfig) -> int:
    """C(r,t) * C(K-r-1, K_r-s): segments every block is cut into."""
    p = config.params
    return math.comb(p.r, config.t) * math.comb(p.K - p.r - 1, config.K_r - config.s)


def round_up_bits(config: ShuffleConfig, requested_bits: int) -> int:
    """Least B that is a multiple of 8 * segments_per_block and >= requested."""
    step = 8 * segments_per_block(config)
    return max(1, -(-requested_bits // step)) * step


def block_ivs(placement: PlacementMap, dest: int, storage: NodeSet) -> list[tuple[int, int]]:
    """The block's (q, n) pairs in layout order: q ascending over W_dest,
    then the eta1 files stored exactly at `storage`, n ascending."""
    files = placement.group_files.get(storage.mask, ())
    return [(q, n) for q in sorted(placement.reduce_assignment[dest]) for n in files]


def block_bytes(placement: PlacementMap, store: IVStore, dest: int, storage: NodeSet) -> bytes:
    """Concatenation of the block's IVs in `block_ivs` order."""
    return b"".join(store.get(q, n) for q, n in block_ivs(placement, dest, storage))


def admissible_pairs(
    dest: int, storage: NodeSet, config: ShuffleConfig
) -> list[tuple[NodeSet, NodeSet]]:
    """(coop group, transmitter set) pairs that carry a segment of this block.

    B runs over the size-t subsets of the storage group in lex order; for
    each, E runs over the (K_t-t)-subsets of the nodes outside storage and
    {dest} in lex order, and B | E is the partition's transmitter set, so
    {dest} plus the rest of the storage group receive.  For a fixed B the
    lex order of E is that of B | E, since B | E and B | E' differ exactly
    where E and E' do; the pairs come out ordered (B lex, B | E lex),
    which for a fixed B is the numbering `enum_partitions` gives B | E.
    """
    taken = storage.mask | 1 << dest
    free = [1 << k for k in range(1, config.params.K + 1) if not taken >> k & 1]
    extras = [sum(e) for e in itertools.combinations(free, config.K_t - config.t)]
    return [
        (coop, NodeSet.from_mask(coop.mask | extra))
        for coop in enum_subsets(storage, config.t)
        for extra in extras
    ]


@dataclass(frozen=True, eq=False, repr=False)
class SegmentTable(Mapping[SegmentId, Segment]):
    """Every segment as one row of a read-only `(n_segments, seg_len)`
    uint8 array, found through `ranks[(dest, storage.mask, p, coop.mask)]`.

    `ranks` is filled in row order, and each node owns `per_node` =
    C(K-1, r) * `per_block` consecutive rows, node 1 first.  Row i belongs
    to the message keyed `message_keys[i]`, whose s constituent rows are
    `peers[i]`.  As a mapping it answers `SegmentId` lookups and builds
    ids only when iterated.
    """

    data: np.ndarray
    ranks: dict[tuple[int, int, int, int], int]
    per_block: int
    per_node: int
    peers: np.ndarray
    message_keys: list[tuple]

    def __getitem__(self, sid: SegmentId) -> Segment:
        row = self.ranks[(sid.dest, sid.storage.mask, sid.partition, sid.coop.mask)]
        return Segment(id=sid, data=self.data[row].tobytes())

    def __iter__(self) -> Iterator[SegmentId]:
        for dest, storage, p, coop in self.ranks:
            yield SegmentId(dest, NodeSet.from_mask(storage), p, NodeSet.from_mask(coop))

    def __len__(self) -> int:
        return len(self.ranks)


def _message_rows(
    ranks: dict[tuple[int, int, int, int], int], p: int, dest_group: NodeSet, coop: NodeSet
) -> list[int]:
    """Rows of the s segments XORed into message (p, D, B), in D order:
    receiver j's is (j, B | D - {j}, p, B), as in `constituents`."""
    d, b = dest_group.mask, coop.mask
    try:
        return [ranks[(j, b | d & ~(1 << j), p, b)] for j in dest_group.members]
    except KeyError as err:
        dest, storage, _p, _b = err.args[0]
        sid = SegmentId(dest, NodeSet.from_mask(storage), p, coop)
        raise InternalInvariantError(f"missing segment {sid}") from None


def segment_ivs(
    placement: PlacementMap, config: ShuffleConfig, store: IVStore
) -> SegmentTable:
    """Cut every required block into its segments, one table row each.

    The i-th admissible (B, T) pair gets the i-th equal slice of the
    block, under the number p of the partition with transmitters T.
    Raises InfeasibleInstance when the block size is not a whole number of
    bytes per segment (pick B via round_up_bits).
    """
    params = config.params
    n_seg = segments_per_block(config)
    eta1, eta2 = params.require_symmetric()
    block_len = eta1 * eta2 * params.B // 8
    if (eta1 * eta2 * params.B) % 8 != 0 or block_len % n_seg != 0:
        raise InfeasibleInstance(
            f"block of {eta1 * eta2 * params.B} bits does not split into "
            f"{n_seg} whole-byte segments; choose B as a multiple of {8 * n_seg}"
        )
    seg_len = block_len // n_seg
    blocks: list[bytes] = []
    ranks: dict[tuple[int, int, int, int], int] = {}
    number = {part.tx.mask: part.index for part in enum_partitions(params.K, config.K_t)}
    for dest in range(1, params.K + 1):
        others = [k for k in range(1, params.K + 1) if k != dest]
        for storage in enum_subsets(NodeSet(tuple(others)), params.r):
            pairs = admissible_pairs(dest, storage, config)
            if len(pairs) != n_seg:
                raise InternalInvariantError(
                    f"block (d{dest}, {storage.members}) has {len(pairs)} "
                    f"admissible pairs, expected {n_seg}"
                )
            base = len(blocks) * n_seg
            for i, (coop, tx) in enumerate(pairs):
                ranks[(dest, storage.mask, number[tx.mask], coop.mask)] = base + i
            blocks.append(block_bytes(placement, store, dest, storage))
    data = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(len(ranks), seg_len)
    # each message once, at the first of its rows in rank order; every
    # one of its s rows gets its key and all s of its rows as peers
    message_keys: list = [None] * len(ranks)
    messages: list[list[int]] = []
    for (dest, storage, p, coop_mask), row in ranks.items():
        if message_keys[row] is None:
            coop = NodeSet.from_mask(coop_mask)
            dest_group = NodeSet.from_mask(storage & ~coop_mask | 1 << dest)
            rows = _message_rows(ranks, p, dest_group, coop)
            key = message_key(p, dest_group, coop)
            for r in rows:
                message_keys[r] = key
            messages.append(rows)
    constituents = np.array(messages, dtype=np.intp).reshape(len(messages), config.s)
    peers = np.empty((len(ranks), config.s), dtype=np.intp)
    peers[constituents.ravel()] = np.repeat(constituents, config.s, axis=0)
    per_node = math.comb(params.K - 1, params.r) * n_seg
    return SegmentTable(data, ranks, n_seg, per_node, peers, message_keys)


def _message_pairs(partition: Partition, config: ShuffleConfig) -> list[tuple[NodeSet, NodeSet]]:
    """The (coop group B, dest group D) of each of a partition's
    C(K_t, t) * C(K_r, s) messages, in (B lex, D lex) order."""
    return [
        (coop, dest_group)
        for coop in enum_subsets(partition.tx, config.t)
        for dest_group in enum_subsets(partition.rx, config.s)
    ]


def encode_partition(
    segments: SegmentTable, partition: Partition, config: ShuffleConfig
) -> list[CodedMessage]:
    """All coded messages of one partition, in `_message_pairs` order."""
    p = partition.index
    pairs = _message_pairs(partition, config)
    rows = [_message_rows(segments.ranks, p, dest_group, coop) for coop, dest_group in pairs]
    payloads = np.bitwise_xor.reduce(segments.data[np.array(rows, dtype=np.intp)], axis=1)
    return [
        CodedMessage(p, dest_group, coop, payload.tobytes())
        for (coop, dest_group), payload in zip(pairs, payloads)
    ]


def decode_segment(
    message: CodedMessage, local_segments: Mapping[SegmentId, Segment], j: int
) -> Segment:
    """Recover node j's segment by XORing the payload with its s-1 local ones.

    Raises ConstraintViolation when j is not an intended receiver, and
    InternalInvariantError when advertised side information is missing;
    the construction guarantees node j can compute every other constituent
    (its id's storage group contains j).
    """
    if j not in message.dest_group:
        raise ConstraintViolation("j in D", f"node {j} not in {message.dest_group.members}")
    out = message.payload
    target = None
    for sid in message.constituents():
        if sid.dest == j:
            target = sid
            continue
        if j not in sid.storage:
            raise InternalInvariantError(f"node {j} cannot locally build {sid}")
        side = local_segments.get(sid)
        if side is None:
            raise InternalInvariantError(f"side information {sid} unavailable at node {j}")
        out = xor_bytes(out, side.data)
    assert target is not None
    return Segment(id=target, data=out)


def decode_blocks(
    segments: SegmentTable, dest: int, delivered: dict[tuple, bytes]
) -> dict[NodeSet, bytes | None]:
    """Every block node `dest` needs, decoded from its delivered payloads.

    Each of node dest's rows looks up its message's payload by
    `message_key`; all payloads are XORed with their s-1 side segments in
    one gather-reduce.  A block with any payload missing maps to None.
    """
    per_node, per_block = segments.per_node, segments.per_block
    K = len(segments.ranks) // per_node
    if not 1 <= dest <= K:
        raise ParameterError(f"node {dest} out of range [1, {K}]")
    seg_len = segments.data.shape[1]
    start, stop = (dest - 1) * per_node, dest * per_node
    payloads = [delivered.get(key) for key in segments.message_keys[start:stop]]
    lost = {i // per_block for i, payload in enumerate(payloads) if payload is None}
    zero = bytes(seg_len)
    got = np.frombuffer(
        b"".join(zero if payload is None else payload for payload in payloads), dtype=np.uint8
    ).reshape(per_node, seg_len)
    # each row appears once among its own peers; the other s-1 are side segments
    peers = segments.peers[start:stop]
    side = peers[peers != np.arange(start, stop)[:, None]].reshape(per_node, -1)
    decoded = (got ^ np.bitwise_xor.reduce(segments.data[side], axis=1)).tobytes()
    block_len = per_block * seg_len
    firsts = itertools.islice(segments.ranks, start, stop, per_block)
    return {
        NodeSet.from_mask(storage):
            None if b in lost else decoded[b * block_len : (b + 1) * block_len]
        for b, (_dest, storage, _p, _coop) in enumerate(firsts)
    }


def per_partition_load(config: ShuffleConfig) -> tuple[Fraction, Fraction]:
    """(R_p, desired bits per receiver in one partition), both exact.

    R_p = (1/K_r)(1 - r/K) / C(K, K_r) is the per-receiver communication
    load of each partition normalized by NQB.  The second value equals
    R_p * NQB; it collapses to exactly B when C(K-1, r) = C(K-1, K_r-1)
    (e.g. r = K_t or r = K_r - 1, as in the worked 6-node instance).
    """
    p = config.params
    r_p = (
        Fraction(1, config.K_r)
        * (1 - Fraction(p.r, p.K))
        / math.comb(p.K, config.K_r)
    )
    wanted = math.comb(config.K_r - 1, config.s - 1) * math.comb(config.K_t, config.t)
    desired_bits = p.eta1 * p.eta2 * p.B * wanted / segments_per_block(config)
    if desired_bits != r_p * p.N * p.Q * p.B:
        raise InternalInvariantError("per-partition load identity failed")
    return r_p, desired_bits


def straggler_replan(
    partition: Partition, config: ShuffleConfig, stragglers: NodeSet,
    messages: list[CodedMessage] | None = None,
) -> StragglerPlan:
    """Split a partition's messages into rounds by straggler overlap.

    Requires |S| <= t-1, S inside the transmitter group and every message
    from this partition; round i holds the messages whose coop group
    contains exactly i stragglers, to be sent by the surviving
    transmitters B minus S.
    """
    if not stragglers.issubset(partition.tx):
        raise ConstraintViolation(
            "S subset of T_p", f"{stragglers.members} not in {partition.tx.members}"
        )
    if len(stragglers) > config.t - 1:
        raise ConstraintViolation(
            "|S| <= t-1", f"{len(stragglers)} stragglers exceed t-1={config.t - 1}"
        )
    if messages is None:
        # Payload-free planning: synthesize empty-payload messages.
        messages = [
            CodedMessage(partition.index, d, b, b"") for b, d in _message_pairs(partition, config)
        ]
    for msg in messages:
        if msg.partition != partition.index:
            raise ConstraintViolation(
                "messages of partition p",
                f"message {msg.key} belongs to partition {msg.partition}, not {partition.index}",
            )
    rounds: list[list[tuple[CodedMessage, NodeSet]]] = [
        [] for _ in range(len(stragglers) + 1)
    ]
    for msg in messages:
        overlap = len(msg.coop & stragglers)
        rounds[overlap].append((msg, msg.coop - stragglers))
    return StragglerPlan(
        partition=partition.index,
        config=config,
        stragglers=stragglers,
        rounds=tuple(tuple(rnd) for rnd in rounds),
    )


def straggler_schedule(plan: StragglerPlan) -> list[dict]:
    """Per-round latency accounting for a straggler plan, slot counts only.

    Round i runs on the engine's layout `delivery_layout(s, t - i, K_r)`:
    each original group's messages take one batch of C(K_r, g) receiver
    sets times the layout's slots per block, scaled by chunks(t) /
    chunks(t - i) to the intact layout's symbol size (one chunk where
    that layout is None, as in `channel.simulation_bits`).  The intact
    plan then costs exactly `channel.partition_slots`, and rounds add up.
    A round's count is None where its layout is; counts are exact, an int
    or a Fraction.
    """
    s, t, K_r = plan.config.s, plan.config.t, plan.config.K_r
    intact = delivery_layout(s, t, K_r)
    intact_chunks = 1 if intact is None else intact[1]
    schedule = []
    for i, rnd in enumerate(plan.rounds):
        batches = len({entry[0].coop for entry in rnd})
        t_eff = t - i
        layout = delivery_layout(s, t_eff, K_r)
        slots = None
        if layout is not None:
            g, chunks, per_block = layout
            slots = Fraction(batches * math.comb(K_r, g) * per_block * intact_chunks, chunks)
            if slots.denominator == 1:
                slots = int(slots)
        schedule.append(
            {
                "round": i,
                "messages": len(rnd),
                "batches": batches,
                "effective_coop_size": t_eff,
                "slots": slots,
            }
        )
    return schedule


def coding_complexity(config: ShuffleConfig) -> int:
    """Total XOR work per user, in bit operations, for encode plus decode.

    C(K,K_r) * (s-1) * (C(K-K_r-1,t-1)C(K_r,s) + C(K-K_r,t)C(K_r-1,s-1))
    * eta1*eta2*B / (C(r,t) * C(K-r-1, K_r-s)); the per-partition message
    counts are multiplied by the full partition count, so each user is
    charged as if active in every partition.
    """
    p = config.params
    s, t, K_r, K_t = config.s, config.t, config.K_r, config.K_t
    eta1, eta2 = p.require_symmetric()
    messages = math.comb(p.K, K_r) * (s - 1) * (
        math.comb(K_t - 1, t - 1) * math.comb(K_r, s)
        + math.comb(K_t, t) * math.comb(K_r - 1, s - 1)
    )
    num = messages * eta1 * eta2 * p.B
    den = segments_per_block(config)
    if num % den != 0:
        raise InfeasibleInstance(
            f"XOR count {num}/{den} is fractional; choose B via round_up_bits"
        )
    return num // den
