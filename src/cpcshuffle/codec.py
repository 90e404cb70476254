"""Exact combinatorial layer of the shuffle: segmentation, XOR coding, loads.

The unit of addressing is the block v[d_j, U]: all IVs that node j needs
and that live exactly at the size-r storage group U, laid out q
ascending over W_j, then n ascending over U's eta1 files.  Each block is cut
into C(r,t) * C(K-r-1, K_r-s) equal segments, one per admissible
(cooperation group B, transmitter set T) pair from `admissible_pairs`:
B a t-subset of U, T = B | E for a set E of K_t-t nodes outside U and
{j}.  Pairs are ordered (B lex, T lex).  A coded message for (p, D, B)
is the bytewise XOR of the s segments its receivers are missing; every
receiver in D holds the other s-1 segments locally, so one XOR recovers
its own.

Every segment has an integer rank: block rank * segments per block +
pair index, with blocks in (dest, storage lex) order.  `segment_ivs`
enumerates the blocks once; that one list lays out the gather of every
segment from the store's (Q, N, B/8) IV array, through `block_layout`,
as the rows of one `(n_segments, seg_len)` uint8 array, and the head
table keyed by (X = B | D, B).  A partition's messages are enumerated
once too, as the cached position table `_message_positions`, which the
channel's blocks also read: partition p's m-th message is flat message
(p-1) * per-partition count + m, and its (partitions, messages, s) rows
follow by index arithmetic on combinatorial ranks, its head plus the
lex rank of E = T_p - B among the nodes outside X.  No Python object is
kept per message or row.  One `xor_rows` pass over the rows encodes a
whole config, and one `decode` pass over the same rows decodes it: each
of a message's s receivers XORs the payload with the s-1 rows of its
peers, masked by what the receiver holds.  `admissible_pairs`,
`_message_pairs`, `SegmentId`, `Segment`, `encode_partition`,
`decode_segment` and `xor_bytes` name, encode and decode one message or
segment at a time: the readable form the arrays are checked against;
no command's output is built from them.

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
from functools import lru_cache

import numpy as np

from .model import (
    ConstraintViolation,
    InfeasibleInstance,
    InternalInvariantError,
    Nodes,
    ParameterError,
    Partition,
    ShuffleConfig,
    check_members,
    delivery_layout,
    enum_partitions,
    enum_subsets,
)
from .placement import IVStore, PlacementMap


@dataclass(frozen=True, order=True)
class SegmentId:
    """Address of one segment: destination, storage group, partition, coop group."""

    dest: int
    storage: Nodes
    partition: int
    coop: Nodes


@dataclass(frozen=True)
class Segment:
    id: SegmentId
    data: bytes


@dataclass(frozen=True)
class CodedMessage:
    """XOR of s segments, sent by coop group B to receiver group D in partition p."""

    partition: int
    dest_group: Nodes
    coop: Nodes
    payload: bytes

    def constituents(self) -> list[SegmentId]:
        """The s segment ids whose XOR is the payload, storage B | D - {j}."""
        return [
            SegmentId(
                dest=j,
                storage=tuple(sorted(set(self.coop) | set(self.dest_group) - {j})),
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
    stragglers: Nodes
    rounds: tuple[tuple[tuple[Nodes, Nodes], ...], ...]


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


def admissible_pairs(
    dest: int, storage: Nodes, config: ShuffleConfig
) -> tuple[list[Nodes], list[Nodes]]:
    """(coops, extras): the t-subsets B of the storage group and the
    (K_t-t)-subsets E of the nodes outside storage and {dest}, both in lex
    order.  The block's i-th (coop group, transmitter set) pair is
    (coops[i // len(extras)], B | extras[i % len(extras)]), so {dest} and
    the rest of the storage group receive.  B | E runs in the lex order of
    E, which for a fixed B is the numbering `enum_partitions` gives B | E.
    """
    free = [k for k in range(1, config.params.K + 1) if k != dest and k not in storage]
    return enum_subsets(storage, config.t), enum_subsets(free, config.K_t - config.t)


@dataclass(frozen=True, eq=False, repr=False)
class SegmentTable:
    """Every segment of `config` as one row of a read-only
    `(n_segments, seg_len)` uint8 array.

    Rows run in `blocks` order, (dest, storage lex), and each node owns
    len(data) / K consecutive rows, node 1 first.  A block's rows are its
    `per_block` `admissible_pairs` pairs (B, B | E), B-major.
    `messages[p - 1]` holds the s constituent rows of each of partition
    p's messages in `_message_pairs` order, D order within a message, and
    covers every row once.  Python objects exist per block, never per
    message or row.
    """

    config: ShuffleConfig
    data: np.ndarray
    blocks: list[tuple[int, Nodes]]
    partitions: list[Partition]
    per_block: int
    messages: np.ndarray


def block_layout(
    placement: PlacementMap, blocks: list[tuple[int, Nodes]]
) -> tuple[np.ndarray, np.ndarray]:
    """(q, n): the 0-based indices of every block's IVs, q ascending over
    the dest's outputs, then n ascending over the eta1 files stored
    exactly at the storage group; shapes (blocks, eta2, 1) and (blocks, 1,
    eta1), so that `store.array[q, n]` holds the blocks' bytes, shape
    (blocks, eta2, eta1, B/8)."""
    outputs = {dest: sorted(qs) for dest, qs in placement.reduce_assignment.items()}
    q = np.array([outputs[dest] for dest, _s in blocks]) - 1
    n = np.array([placement.group_files[storage] for _d, storage in blocks]) - 1
    return q[:, :, None], n[:, None, :]


def _lex_rank(n: int, k: int, *members: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Lex rank among the k-subsets of range(n) of each set whose members
    come as (position in range(n), index in the set) array pairs, members
    on the first axis.  Reflecting each position p onto n-1-p turns lex
    order into reverse colex order, so the rank is C(n, k) - 1 - sum
    C(n-1-p, k-j) over the members, the one at index j at position p."""
    binom = np.array([math.comb(a, b) for a in range(n + 1) for b in range(k + 1)], dtype=np.intp)
    at = ((n - 1 - p).astype(np.intp, copy=False) * (k + 1) + (k - j) for p, j in members)
    terms = (binom.take(i).sum(axis=0) for i in at)
    return math.comb(n, k) - 1 - sum(terms)


def _count_below(values: np.ndarray, of: np.ndarray) -> np.ndarray:
    """For each values[i], how many of the of[:] lie below it, members on
    the first axis, as int8: sets hold at most 64 nodes."""
    return (of[None] < values[:, None]).sum(axis=1, dtype=np.int8)


@lru_cache(maxsize=32)
def _message_positions(s: int, t: int, K_r: int, K_t: int) -> np.ndarray:
    """Every partition's messages in `_message_pairs` order, as a cached,
    read-only (messages, t + s) table of ascending positions among its
    nodes: the coop group B's t transmitters, then the dest group D's s
    receivers."""
    coops = itertools.combinations(range(K_t), t)
    dests = list(itertools.combinations(range(K_t, K_t + K_r), s))
    table = np.array([b + d for b, d in itertools.product(coops, dests)])
    table.flags.writeable = False
    return table


# Message (p, D, B) XORs the segment (j, X - {j}, p, B) of each j in D, X =
# B | D.  Less E's rank, its row is B's head in block (j, X - {j}), which
# depends on (X, B) alone.  Sets below are ascending arrays with their
# members on the first axis, so a member's index in X is its index in its
# own part plus how many members of the other part lie below it.


def _head_table(blocks: list[tuple[int, Nodes]], K: int, t: int, per_block: int) -> np.ndarray:
    """heads[rank of X, rank of B in X, i]: the row of B's first pair in
    block (j, X - {j}), j the i-th member of D = X - B, for every
    (r+1)-set X and t-subset B of it; one entry per block and coop group,
    read off `blocks`, the table's rows in order."""
    dest = np.array([d for d, _storage in blocks])[None]
    stored = np.array([storage for _d, storage in blocks]).T  # (r, blocks)
    r = len(stored)
    coops = np.array(list(itertools.combinations(range(r), t))).T
    n_coops = coops.shape[1]
    in_x = coops[:, :, None] + (stored[coops] > dest)  # (t, coops, blocks): B in X
    below = (stored < dest).sum(axis=0, keepdims=True)  # dest's index in X
    stored_in_x = np.arange(r)[:, None] + (stored > dest)
    x_rank = _lex_rank(K, r + 1, (stored - 1, stored_in_x), (dest - 1, below))
    b_rank = _lex_rank(r + 1, t, (in_x, np.arange(t)[:, None, None]))
    heads = np.empty((math.comb(K, r + 1), math.comb(r + 1, t), r + 1 - t), dtype=np.intp)
    first = np.arange(dest.size) * per_block + np.arange(n_coops)[:, None] * (per_block // n_coops)
    heads[x_rank, b_rank, below - (in_x < below).sum(axis=0)] = first
    return heads


def _message_rows(
    config: ShuffleConfig, partitions: list[Partition], heads: np.ndarray
) -> np.ndarray:
    """The (partitions, messages, s) constituent rows of every message, from
    `_head_table` and the lex rank of E = T_p - B among the nodes outside X.
    A position table whose B or D leaves its side of the partition names
    no segment: an InternalInvariantError names the one of D's first
    receiver in partition 1."""
    K, K_t, r, s, t = config.params.K, config.K_t, config.params.r, config.s, config.t
    order = np.array([part.tx + part.rx for part in partitions], dtype=np.int8)
    positions = _message_positions(s, t, config.K_r, K_t)
    b, d = positions[:, :t], positions[:, t:]
    named = (np.diff(positions) > 0).all(axis=1) & (b[:, 0] >= 0) & (d[:, -1] < K)
    named &= (b[:, -1] < K_t) & (d[:, 0] >= K_t)
    if not named.all():
        nodes = order[0, positions[int(np.argmin(named))]].tolist()
        coop, dest_group = tuple(sorted(set(nodes[:t]))), tuple(sorted(set(nodes[t:])))
        sid = CodedMessage(1, dest_group, coop, b"").constituents()[0]
        raise InternalInvariantError(f"missing segment {sid}")
    taken = np.zeros((len(positions), K_t), dtype=bool)
    np.put_along_axis(taken, b, True, axis=1)
    extra = np.nonzero(~taken)[1].reshape(len(positions), K_t - t)  # E = T_p - B
    # int8 (members, partitions, messages) node arrays, each member's index in its part
    B, D, E = (np.ascontiguousarray(order[:, x].transpose(2, 0, 1)) for x in (b, d, extra))
    i, j, m = (np.arange(k, dtype=np.int8)[:, None, None] for k in (t, s, K_t - t))
    b_in_x = i + _count_below(B, D)
    x_rank = _lex_rank(K, r + 1, (B - 1, b_in_x), (D - 1, j + _count_below(D, B)))
    rows = heads[x_rank, _lex_rank(r + 1, t, (b_in_x, i))]
    # E's position outside X: of the nodes below it, extra - m are in B
    # (the transmitters below it less E's own m), and some are in D
    e_out = E - 1 - (extra.T[:, None].astype(np.int8) - m) - _count_below(E, D)
    return rows + _lex_rank(K - r - 1, K_t - t, (e_out, m))[..., None]


def segment_ivs(
    placement: PlacementMap, config: ShuffleConfig, store: IVStore
) -> SegmentTable:
    """Cut every required block into its segments, one table row each.

    The i-th admissible (B, T) pair gets the i-th equal slice of the
    block, under the number p of the partition with transmitters T.  The
    segments are one gather from `store.array`, and the message rows are
    index arithmetic on combinatorial ranks.  Raises InfeasibleInstance
    through `check_bits` when B does not cut IVs and segments into bytes
    (pick B via round_up_bits), and ParameterError unless `placement`,
    `config` and `store` share their params.
    """
    if not placement.params == config.params == store.params:
        raise ParameterError(f"placement, config and store params differ: {placement.params}, "
                             f"{config.params}, {store.params}")
    check_bits(config)
    K, r, s = config.params.K, config.params.r, config.s
    n_seg = segments_per_block(config)
    blocks = [(dest, storage) for dest in range(1, K + 1)
              for storage in enum_subsets((*range(1, dest), *range(dest + 1, K + 1)), r)]
    n_rows = len(blocks) * n_seg
    q, n = block_layout(placement, blocks)
    data = store.array[q, n].reshape(n_rows, -1)
    partitions = enum_partitions(K, config.K_t)
    rows = _message_rows(config, partitions, _head_table(blocks, K, config.t, n_seg))
    if rows.size != n_rows or (np.bincount(rows.ravel(), minlength=n_rows) != 1).any():
        raise InternalInvariantError(
            f"{rows.size // s} messages of {s} segments do not cover the {n_rows} rows once each"
        )
    for table in (data, rows):
        table.flags.writeable = False
    return SegmentTable(config, data, blocks, partitions, n_seg, rows)


def _message_pairs(partition: Partition, config: ShuffleConfig) -> list[tuple[Nodes, Nodes]]:
    """The (coop group B, dest group D) of each of a partition's
    C(K_t, t) * C(K_r, s) messages, in (B lex, D lex) order."""
    coops = enum_subsets(partition.tx, config.t)
    return list(itertools.product(coops, enum_subsets(partition.rx, config.s)))


def xor_rows(data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row i of the result is the XOR of the `data` rows that `rows[i]`
    names along its last (s) axis: s - 1 in-place XORs of the gathered
    slices, without building the gather of all s rows or reducing along
    its short axis."""
    out = data.take(rows[..., 0], axis=0)
    for a in range(1, rows.shape[-1]):
        out ^= data.take(rows[..., a], axis=0)
    return out


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
            f"partition {p} (transmitters {partition.tx}) under {config} "
            f"is not one the segment table was cut for"
        )
    return xor_rows(segments.data, segments.messages[p - 1])


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
        raise ConstraintViolation("j in D", f"node {j} not in {message.dest_group}")
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


def decode(
    segments: SegmentTable, payloads: np.ndarray, held: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(decoded, lost): every block of the table, decoded, as the rows of
    one (blocks, block bytes) array in `segments.blocks` order, and
    whether the block's dest misses the message of one of its rows.

    `payloads[m]` is flat message m's payload and `held[k, m]` whether
    node k holds it, m as in `segments.messages.reshape(-1, s)`.  Row a
    of a message is its a-th receiver's segment, and the rows before and
    after a are that receiver's s-1 side segments: it XORs their two
    running XORs off the payload, for every message at once.
    """
    K, s = segments.config.params.K, segments.config.s
    rows = segments.messages.reshape(-1, s).T  # (s, messages)
    local = segments.data.take(rows, axis=0)
    before, after = np.zeros_like(local), np.zeros_like(local)
    for a in range(1, s):  # the running XORs of the rows before a and after s-1-a
        before[a] = before[a - 1] ^ local[a - 1]
        after[-1 - a] = after[-a] ^ local[-a]
    decoded = np.empty_like(segments.data)
    decoded[rows] = payloads ^ before ^ after
    got = np.empty(len(decoded), dtype=bool)
    got[rows] = held[rows // (len(decoded) // K) + 1, np.arange(rows.shape[1])]
    n_blocks = len(segments.blocks)
    return decoded.reshape(n_blocks, -1), ~got.reshape(n_blocks, -1).all(axis=1)


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
    partition: Partition, config: ShuffleConfig, stragglers: Nodes
) -> StragglerPlan:
    """Split a partition's cooperation groups into rounds by straggler
    overlap, as `StragglerPlan` lays them out.  Requires K_t transmitters,
    an ascending S without repeats, |S| <= t-1 and S inside the
    transmitter group."""
    check_members(stragglers)
    if len(partition.tx) != config.K_t:
        detail = f"{len(partition.tx)} transmitters, need K_t={config.K_t}"
        raise ConstraintViolation("|T_p| = K_t", detail)
    if not set(stragglers).issubset(partition.tx):
        raise ConstraintViolation("S subset of T_p", f"{stragglers} not in {partition.tx}")
    if len(stragglers) > config.t - 1:
        raise ConstraintViolation(
            "|S| <= t-1", f"{len(stragglers)} stragglers exceed t-1={config.t - 1}"
        )
    rounds: list[list[tuple[Nodes, Nodes]]] = [[] for _ in range(len(stragglers) + 1)]
    for coop in enum_subsets(partition.tx, config.t):
        survivors = tuple(k for k in coop if k not in stragglers)
        rounds[len(coop) - len(survivors)].append((coop, survivors))
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
    chunks(t - i) to the intact layout's symbol size.  The intact plan
    then costs exactly `channel.partition_slots`, and rounds add up.
    Counts are exact, an int or a Fraction.
    """
    s, t, K_r = plan.config.s, plan.config.t, plan.config.K_r
    _g, intact_chunks, _per_block = delivery_layout(s, t, K_r)
    schedule = []
    for i, rnd in enumerate(plan.rounds):
        batches = len(rnd)
        t_eff = t - i
        g, chunks, per_block = delivery_layout(s, t_eff, K_r)
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
