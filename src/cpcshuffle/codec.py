"""Exact combinatorial layer of the shuffle: segmentation, XOR coding, loads.

The unit of addressing is the block v[d_j, U]: all IVs that node j needs
and that live exactly at the size-r storage group U, laid out by
`block_ivs` (q ascending over W_j, then n ascending).  Each block is cut
into C(r,t) * C(K-r-1, K_r-s) equal segments, one per admissible
(cooperation group B, transmitter set T) pair from `admissible_pairs`:
B a t-subset of U, T = B | E for a set E of K_t-t nodes outside U and
{j}.  Pairs are ordered (B lex, T lex).  A coded message for (p, D, B)
is the bytewise XOR of the s segments its receivers are missing; every
receiver in D holds the other s-1 segments locally, so one XOR recovers
its own.

Every segment has an integer rank: block rank * segments per block +
pair index, with blocks in (dest, storage lex) order.  `segment_ivs`
holds all segments as the rows of one `(n_segments, seg_len)` uint8
array, so a block's segments are its bytes reshaped.  The same pass
lays out every partition's messages as one (partitions, messages, s)
table of rows, so no Python object is kept per row.  A message's address
is its position: partition p's m-th message in `_message_pairs` order is
flat message (p-1) * per-partition count + m.
Encoding XOR-reduces a partition's rows, and node-wide decoding gathers
its payloads from one (all messages, L) array, masked by what the node
holds.  `SegmentId`, `Segment`, `CodedMessage.constituents`,
`decode_segment` and `xor_bytes` name and decode one segment at a time:
the readable form the arrays are checked against.

Which B works is decided in one place, `bits_step`: B must cut IVs into
bytes and every block into whole-byte segments, and on the channel path
every payload into whole-byte chunks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
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


@dataclass(frozen=True)
class StragglerPlan:
    """Time-division rounds that deliver a partition despite late transmitters.

    Round i lists (B, B - S) for each cooperation group B holding exactly
    i stragglers, B in lex order: its messages, the C(K_r, s) consecutive
    `encode_payloads` rows at B's lex position, are sent by the surviving
    transmitters B - S, never empty while |S| <= t-1.  `config` is the
    config the plan was made under, which its schedule is counted on.
    """

    partition: int
    config: ShuffleConfig
    stragglers: NodeSet
    rounds: tuple[tuple[tuple[NodeSet, NodeSet], ...], ...]


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


def bits_step(config: ShuffleConfig, n_chunks: int) -> int:
    """Step of the B that cut each IV into bytes and each block, eta1 *
    eta2 IVs of B bits, into whole-byte segments of `n_chunks` whole-byte
    chunks: lcm(8, U / gcd(eta1 * eta2, U)), U = 8 * segments per block
    * n_chunks."""
    eta1, eta2 = config.params.require_symmetric()
    unit = 8 * segments_per_block(config) * n_chunks
    return math.lcm(8, unit // math.gcd(eta1 * eta2, unit))


def round_up_bits(config: ShuffleConfig, requested_bits: int, n_chunks: int = 1) -> int:
    """Least multiple of `bits_step(config, n_chunks)` that is >= max(requested, 1)."""
    step = bits_step(config, n_chunks)
    return max(1, -(-requested_bits // step)) * step


def check_bits(config: ShuffleConfig) -> None:
    """Refuse, before any work, a B that does not cut IVs and segments into bytes."""
    B, step = config.params.B, bits_step(config, 1)
    if B % step:
        raise InfeasibleInstance(
            f"B={B} does not split into whole-byte IVs and segments; "
            f"choose B as a multiple of {step}"
        )


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
) -> tuple[list[NodeSet], list[int]]:
    """(coops, extras): the t-subsets B of the storage group and the masks
    of the (K_t-t)-subsets E of the nodes outside storage and {dest}, both
    in lex order.  The block's i-th (coop group, transmitter set) pair is
    (coops[i // len(extras)], B | extras[i % len(extras)]), so {dest} and
    the rest of the storage group receive.  B | E runs in the lex order of
    E, which for a fixed B is the numbering `enum_partitions` gives B | E.
    """
    taken = storage.mask | 1 << dest
    free = [1 << k for k in range(1, config.params.K + 1) if not taken >> k & 1]
    extras = [sum(e) for e in itertools.combinations(free, config.K_t - config.t)]
    return enum_subsets(storage, config.t), extras


@dataclass(frozen=True, eq=False, repr=False)
class SegmentTable:
    """Every segment of `config` as one row of a read-only
    `(n_segments, seg_len)` uint8 array.

    Rows run in `blocks` order, (dest, storage lex), and each node owns
    `per_node` = C(K-1, r) * `per_block` consecutive rows, node 1 first.
    A block's rows are its `admissible_pairs` pairs (B, B | E), B-major.
    `messages[p - 1]` holds the s constituent rows of each of partition
    p's messages in `_message_pairs` order, D order within a message; row
    i belongs to flat message `message_of[i]`, the message's position in
    `messages.reshape(-1, s)`.  Python objects exist per block, never per
    message or row.
    """

    config: ShuffleConfig
    data: np.ndarray
    blocks: list[tuple[int, NodeSet]]
    partitions: list[Partition]
    per_block: int
    per_node: int
    messages: np.ndarray
    message_of: np.ndarray


def segment_ivs(
    placement: PlacementMap, config: ShuffleConfig, store: IVStore
) -> SegmentTable:
    """Cut every required block into its segments, one table row each.

    The i-th admissible (B, T) pair gets the i-th equal slice of the
    block, under the number p of the partition with transmitters T.
    Raises InfeasibleInstance through `check_bits` when B does not cut
    IVs and segments into bytes (pick B via round_up_bits).
    """
    check_bits(config)
    params = config.params
    n_seg = segments_per_block(config)
    eta1, eta2 = params.require_symmetric()
    seg_len = eta1 * eta2 * params.B // (8 * n_seg)
    s = config.s
    blocks: list[tuple[int, NodeSet]] = []
    chunks: list[bytes] = []
    # message (p, D, B) XORs the segment (j, X - {j}, p, B) of each j in D,
    # X = B | D.  Less E's rank, its row is B's head in block (j, X - {j}),
    # which depends on (X, B) alone: each (X, B) gets s heads, in D order.
    heads: dict[tuple[int, int], list[int]] = {}
    extra_rank: dict[tuple[int, int], int] = {}
    for dest in range(1, params.K + 1):
        below = (1 << dest) - 1
        others = [k for k in range(1, params.K + 1) if k != dest]
        for storage in enum_subsets(NodeSet(tuple(others)), params.r):
            coops, extras = admissible_pairs(dest, storage, config)
            if len(coops) * len(extras) != n_seg:
                raise InternalInvariantError(
                    f"block (d{dest}, {storage.members}) has {len(coops) * len(extras)} "
                    f"admissible pairs, expected {n_seg}"
                )
            x = storage.mask | 1 << dest
            first = len(blocks) * n_seg
            for i, coop in enumerate(coops):
                at = heads.setdefault((x, coop.mask), [0] * s)
                at[(storage.mask & ~coop.mask & below).bit_count()] = first + i * len(extras)
            for i, extra in enumerate(extras):
                extra_rank[(x, extra)] = i
            blocks.append((dest, storage))
            chunks.append(block_bytes(placement, store, dest, storage))
    n_rows = len(blocks) * n_seg
    data = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(n_rows, seg_len)
    partitions = enum_partitions(params.K, config.K_t)
    head_of = {key: h for h, key in enumerate(heads)}
    which: list[int] = []
    ranks: list[int] = []
    for part in partitions:
        p, tx = part.index, part.tx.mask
        for coop, dest_group in _message_pairs(part, config):
            b = coop.mask
            x = b | dest_group.mask
            try:
                which.append(head_of[(x, b)])
                ranks.append(extra_rank[(x, tx & ~b)])
            except KeyError:
                # every receiver of a well-formed (X, B) has a head, so the
                # whole message is missing: name D's first receiver's segment
                sid = CodedMessage(p, dest_group, coop, b"").constituents()[0]
                raise InternalInvariantError(f"missing segment {sid}") from None
    head_rows = np.array(list(heads.values()), dtype=np.intp)
    rows = head_rows[which] + np.array(ranks, dtype=np.intp)[:, None]
    message_of = np.full(n_rows, -1, dtype=np.intp)
    message_of[rows] = np.arange(len(rows))[:, None]
    if rows.size != n_rows or (message_of < 0).any():
        raise InternalInvariantError(
            f"{len(rows)} messages of {s} segments do not cover the {n_rows} rows once each"
        )
    for table in (rows, message_of):
        table.flags.writeable = False
    per_node = math.comb(params.K - 1, params.r) * n_seg
    return SegmentTable(
        config, data, blocks, partitions, n_seg, per_node,
        rows.reshape(len(partitions), -1, s), message_of,
    )


def _message_pairs(partition: Partition, config: ShuffleConfig) -> list[tuple[NodeSet, NodeSet]]:
    """The (coop group B, dest group D) of each of a partition's
    C(K_t, t) * C(K_r, s) messages, in (B lex, D lex) order."""
    coops = enum_subsets(partition.tx, config.t)
    return list(itertools.product(coops, enum_subsets(partition.rx, config.s)))


def encode_payloads(
    segments: SegmentTable, partition: Partition, config: ShuffleConfig
) -> np.ndarray:
    """The (messages, L) uint8 payloads of one partition in `_message_pairs`
    order, row m the XOR of message m's s segment rows.  Raises
    ParameterError unless the table was cut for `config` and `partition`
    is its partition of that number."""
    p = partition.index
    known = segments.partitions
    if config != segments.config or not 1 <= p <= len(known) or known[p - 1] != partition:
        raise ParameterError(
            f"partition {p} (transmitters {partition.tx.members}) under {config} "
            f"is not one the segment table was cut for"
        )
    return np.bitwise_xor.reduce(segments.data[segments.messages[p - 1]], axis=1)


def encode_partition(
    segments: SegmentTable, partition: Partition, config: ShuffleConfig
) -> list[CodedMessage]:
    """All coded messages of one partition: `encode_payloads`' rows under
    their (p, D, B) labels, in `_message_pairs` order."""
    payloads = encode_payloads(segments, partition, config)
    return [
        CodedMessage(partition.index, dest_group, coop, payload.tobytes())
        for (coop, dest_group), payload in zip(_message_pairs(partition, config), payloads)
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
    segments: SegmentTable, dest: int, payloads: np.ndarray, held: np.ndarray
) -> dict[NodeSet, bytes | None]:
    """Every block node `dest` needs, decoded from the payloads it holds.

    `payloads` is the (all messages, L) array of every message's payload
    and `held[m]` says whether node dest holds flat message m, both in
    `message_of` numbering.  Each of node dest's rows gathers its
    message's payload, and its s-1 side segments are the other rows of
    that message; all payloads are XORed with them in one gather-reduce.
    A block with any row whose message is not held maps to None.
    """
    per_node, per_block = segments.per_node, segments.per_block
    K = segments.config.params.K
    if not 1 <= dest <= K:
        raise ParameterError(f"node {dest} out of range [1, {K}]")
    start, stop = (dest - 1) * per_node, dest * per_node
    mine = segments.message_of[start:stop]
    n_blocks = per_node // per_block
    lost = ~held[mine].reshape(n_blocks, per_block).all(axis=1)
    # each row is one of its message's s rows; the other s-1 are side segments
    peers = segments.messages.reshape(-1, segments.messages.shape[2])[mine]
    side = peers[peers != np.arange(start, stop)[:, None]].reshape(per_node, -1)
    decoded = payloads[mine] ^ np.bitwise_xor.reduce(segments.data[side], axis=1)
    decoded = decoded.reshape(n_blocks, -1)
    mine_blocks = segments.blocks[(dest - 1) * n_blocks : dest * n_blocks]
    return {
        storage: None if lost[b] else decoded[b].tobytes()
        for b, (_dest, storage) in enumerate(mine_blocks)
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
    partition: Partition, config: ShuffleConfig, stragglers: NodeSet
) -> StragglerPlan:
    """Split a partition's cooperation groups into rounds by straggler
    overlap, as `StragglerPlan` lays them out.  Requires |S| <= t-1 and S
    inside the transmitter group."""
    if not stragglers.issubset(partition.tx):
        raise ConstraintViolation(
            "S subset of T_p", f"{stragglers.members} not in {partition.tx.members}"
        )
    if len(stragglers) > config.t - 1:
        raise ConstraintViolation(
            "|S| <= t-1", f"{len(stragglers)} stragglers exceed t-1={config.t - 1}"
        )
    rounds: list[list[tuple[NodeSet, NodeSet]]] = [[] for _ in range(len(stragglers) + 1)]
    for coop in enum_subsets(partition.tx, config.t):
        rounds[len(coop & stragglers)].append((coop, coop - stragglers))
    return StragglerPlan(
        partition=partition.index,
        config=config,
        stragglers=stragglers,
        rounds=tuple(tuple(rnd) for rnd in rounds),
    )


def straggler_schedule(plan: StragglerPlan) -> list[dict]:
    """Per-round latency accounting for a straggler plan, slot counts only.

    A round's batches are its coop groups, C(K_r, s) messages each.
    Round i runs on the engine's layout `delivery_layout(s, t - i, K_r)`:
    each original group's messages take one batch of C(K_r, g) receiver
    sets times the layout's slots per block, scaled by chunks(t) /
    chunks(t - i) to the intact layout's symbol size (one chunk where
    that layout is None, the count `channel.simulation_bits` gives
    `bits_step` there).  The intact plan then costs exactly
    `channel.partition_slots`, and rounds add up.
    A round's count is None where its layout is; counts are exact, an int
    or a Fraction.
    """
    s, t, K_r = plan.config.s, plan.config.t, plan.config.K_r
    intact = delivery_layout(s, t, K_r)
    intact_chunks = 1 if intact is None else intact[1]
    schedule = []
    for i, rnd in enumerate(plan.rounds):
        batches = len(rnd)
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
                "messages": batches * math.comb(K_r, s),
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
