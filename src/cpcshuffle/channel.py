"""Physical-layer delivery: fading draws, cofactor precoders, linear decoding.

One engine serves every simulated configuration.  Per partition it cuts
the K_r receivers into all receiver sets of size g = min(K_r, s+t-1) and
serves each (receiver set, cooperation group) pair as one block of
C(g-1, s-1) slots.  The group's first g-s+1 members transmit, and each
message for a dest group D inside the set is precoded with the cofactors
of the bottom row of the matrix whose other rows are the channel rows of
the g-s unintended receivers, so its superposition vanishes there exactly
(up to floating point).  Each receiver then sees only the messages it
wants and solves a square symbol-extension system, one symbol per slot.

The blocks, as positions in a partition's receivers and messages with
each message's chunk index, and which receiver positions of a block want
which of its C(g, s) messages, depend on the config alone, so they are
one config-level table (`_block_tables`).  `draw_channel` draws exactly
the gains these blocks read, each once, as one (block, slot, receiver,
transmitter) array.  A partition's delivery is then one array pass: one
determinant call builds every (block, message, slot) cofactor precoder,
and the stacked blocks give the effective gains, the nulling residual at
the unintended receivers, the received signals, and every receiver's
square system with its condition number and solve.  Per block only the
unit-norm check of the precoders (`build_precoders`) runs.  A partition's
messages arrive by position, as the rows of one (messages, L) payload
array, with no (p, D, B) label; one `payload_symbols` array pass maps
each of their chunks to its symbol, and each block reads its own.

A message is cut into C(K_r-s, g-s) chunks, one per receiver set that
contains D, so the per-receiver DoF is g / K_r.  `model.delivery_layout`
is the one place these counts are computed.  Single shot (s+t > K_r)
is the case g = K_r: one receiver set, one chunk, DoF 1.  Time division
(s+t < K_r) has g = s+t-1.  s + t = K_r, the asymptotic-alignment
regime, is not simulated.

Each chunk rides as one unit-power complex symbol, its phase a polynomial
in its bytes and its position, and a receiver holds a message once it
solves all of its chunks' symbols, each to a relative error below the
fixed `TOLERANCE` of 1e-8.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from fractions import Fraction
from itertools import combinations

import numpy as np

from .model import (
    NodeSet,
    ParameterError,
    Partition,
    ShuffleConfig,
    SystemParams,
    delivery_layout,
)
from .codec import (
    bits_step,
    block_ivs,
    check_bits,
    decode_blocks,
    encode_partition,
    round_up_bits,
    segment_ivs,
)
from .ndt import delivery_dof
from .placement import build_placement, map_phase, required_ivs

TOLERANCE = 1e-8
CONDITION_GUARD = 1e8
_PHASE_BASE = 0x9E3779B97F4A7C15  # odd: 2**64 over the golden ratio


class ChannelConditionError(RuntimeError):
    """A received matrix exceeded the condition guard; resample the channel."""


@dataclass(frozen=True)
class ChannelRealization:
    """One partition's i.i.d. CN(0,1) gains H[b, i, k, l], from block b's
    l-th transmitter to its k-th receiver in the block's i-th slot, blocks
    in `_block_tables` order.  `seed` also seeds the `--snr` noise."""

    seed: int
    gains: np.ndarray  # complex, shape `_partition_layout(config)[0]`


class _Report:
    def summary(self) -> dict:
        """The JSON form: every field but `held`, Fractions as strings."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "held"}
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in out.items()}


@dataclass
class DeliveryReport(_Report):
    """What a simulated delivery achieved, with its numerical health: the
    worst values over every block of the partition.  held[k, m]: its k-th
    receiver lost no chunk it wants of its m-th message (True where it
    wants none), shape (K_r, messages)."""

    partition: int
    regime: str
    slots_used: int
    symbols_per_receiver: int = 0
    measured_dof: Fraction = Fraction(0)
    max_condition: float = 0.0
    max_residual: float = 0.0
    max_symbol_error: float = 0.0
    noise_mse: float | None = None
    held: np.ndarray | None = field(default=None, repr=False, compare=False)


def _partition_layout(config: ShuffleConfig) -> tuple[tuple[int, int, int, int], int]:
    """The shape (blocks, C(g-1, s-1) slots, g receivers, g-s+1
    transmitters) of a partition's gains, and the chunks per message.
    s + t = K_r has no layout and raises ParameterError."""
    layout = delivery_layout(config.s, config.t, config.K_r)
    if layout is None:
        raise ParameterError(
            "s + t = K_r sits in the asymptotic-alignment regime, which is not simulated"
        )
    g, n_chunks, gamma = layout
    n_blocks = math.comb(config.K_r, g) * math.comb(config.K_t, config.t)
    return (n_blocks, gamma, g, g - config.s + 1), n_chunks


def draw_channel(config: ShuffleConfig, seed: int) -> ChannelRealization:
    """Unit-variance circularly symmetric complex Gaussian gains: exactly
    the ones a partition's blocks read, each once."""
    shape, _chunks = _partition_layout(config)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return ChannelRealization(seed=seed, gains=(re + 1j * im) / np.sqrt(2.0))


def check_snr(snr_db: float) -> float:
    """Noise amplitude 10**(-snr_db / 20); refuse an snr_db that is not finite or overflows it."""
    if not math.isfinite(snr_db):
        raise ParameterError(f"snr_db must be finite, got {snr_db}")
    try:
        return 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        raise ParameterError(f"snr_db {snr_db} makes the noise amplitude overflow") from None


def check_simulable(config: ShuffleConfig) -> None:
    """Refuse, before any work, what the channel path cannot run: s + t =
    K_r, and a B that does not cut IVs, segments and chunks into bytes."""
    _shape, n_chunks = _partition_layout(config)
    B, step = config.params.B, bits_step(config, n_chunks)
    if B % step:
        raise ParameterError(
            f"B={B} does not split into whole-byte IVs, segments and channel chunks; "
            f"choose B as a multiple of {step}"
        )


def neutralizing_precoder(rows: np.ndarray) -> np.ndarray:
    """Cofactors of the bottom row of the matrix whose other rows are `rows`.

    `rows` stacks the nulled receivers' channel rows over n transmitters,
    shape (..., n-1, n).  Each result's inner product with any of its rows
    is a determinant with a repeated row, hence exactly zero.  The n minors
    of every stacked matrix go to one `np.linalg.det` over
    (..., col, n-1, n-1).  (0, 1) yields the scalar (1,).
    """
    if rows.ndim < 2 or rows.shape[-1] != rows.shape[-2] + 1:
        raise ParameterError(f"need (..., n-1, n) stacked nulled rows, got shape {rows.shape}")
    n = rows.shape[-1]
    cols = np.arange(n - 1)
    keep = cols + (cols >= np.arange(n)[:, None])  # keep[col]: every column but col
    minors = rows[..., keep].swapaxes(-3, -2)
    return np.linalg.det(minors) * (-1.0) ** (n + 1 + np.arange(n))


def payload_symbols(payloads: np.ndarray, n_chunks: int, n_messages: int) -> np.ndarray:
    """Deterministic unit-power symbols x[m, c] for chunk c of message m,
    the row `payloads[m]` cut into `n_chunks` equal chunks (a fixture, not
    a modem).  Anything but an (n_messages, L) uint8 array with L a
    multiple of `n_chunks` raises ParameterError.

    A chunk's phase is 2 pi v / 2**64, v = sum_i b_i P**(i+1) + q
    P**(step+1) mod 2**64 over its bytes b_i and its position q = m *
    n_chunks + c, P the odd `_PHASE_BASE`: every weight is odd, so a
    change in one byte or in the position moves v.  One uint64 array
    pass, which wraps mod 2**64, maps every chunk.
    """
    is_array = isinstance(payloads, np.ndarray)
    rows, width = payloads.shape if is_array and payloads.ndim == 2 else (-1, 0)
    if not is_array or payloads.dtype != np.uint8 or rows != n_messages or width % n_chunks:
        got = type(payloads).__name__
        if is_array:
            got = f"{payloads.dtype} of shape {payloads.shape}"
        raise ParameterError(
            f"need a ({n_messages}, L) uint8 payload array with L a multiple "
            f"of {n_chunks} chunks, got {got}"
        )
    step = width // n_chunks
    weights = np.cumprod(np.full(step + 1, _PHASE_BASE, dtype=np.uint64))
    v = payloads.reshape(n_messages * n_chunks, step) @ weights[:step]
    v += np.arange(v.size, dtype=np.uint64) * weights[step]
    phase = 2.0 * np.pi * (v.reshape(n_messages, n_chunks) / 2.0**64)
    x = np.empty(phase.shape, dtype=complex)
    x.real = np.cos(phase)
    x.imag = np.sin(phase)
    return x


def build_precoders(w: np.ndarray) -> np.ndarray:
    """Unit-norm precoders W[u, i] of one block from its cofactors w[u, i]:
    unknown u's `neutralizing_precoder` in the block's i-th slot, shape
    (U, slot, n) for n transmitters.  Zero cofactors raise, so the channel
    is resampled."""
    norm = np.sqrt(np.add.reduce((w.conj() * w).real, axis=-1, keepdims=True))
    if np.count_nonzero(norm) != norm.size:
        raise ChannelConditionError("degenerate precoder (zero cofactors)")
    return w / norm


def simulation_bits(config: ShuffleConfig, requested_bits: int) -> int:
    """Least B >= max(requested, 1) that the codec AND the simulator can
    split evenly: `round_up_bits` over the layout's chunks per message.
    s + t = K_r has no layout (it is not simulated), so there one chunk,
    the codec's step alone, applies.
    """
    layout = delivery_layout(config.s, config.t, config.K_r)
    return round_up_bits(config, requested_bits, 1 if layout is None else layout[1])


def partition_slots(config: ShuffleConfig) -> int:
    """Channel slots one partition needs: C(K_r, g) receiver sets times
    C(K_t, t) cooperation groups, C(g-1, s-1) slots each."""
    (n_blocks, gamma, _g, _n_tx), _chunks = _partition_layout(config)
    return n_blocks * gamma


@lru_cache(maxsize=32)
def _block_tables(s: int, t: int, K_r: int, K_t: int) -> tuple[np.ndarray, ...]:
    """The block structure of a partition, which depends on (s, t, K_r,
    K_t) alone: one config-level table, cached and read-only.

    Block b = r * n_coops + c serves receiver set r with coop group c,
    both in lex order; coop group c's first g-s+1 members transmit, and
    `draw_channel` draws the block's gains as H[b].  rx[b]: set r's g
    receiver positions.  ids[b, u]: the `codec.encode_payloads` row of
    set r's u-th dest group's message from group c.  chunk[b, u]: how many
    earlier receiver sets contain that dest group, so the chunk the block
    carries.  wants[k, u]: position k of a receiver set lies in the set's
    u-th s-subset, the u-th dest group in `enum_subsets` order.  Derived
    from it: nulled[u], the g-s positions unknown u is nulled at, and
    wanted[k], the C(g-1, s-1) unknowns position k solves for.
    """
    g, _chunks, _gamma = delivery_layout(s, t, K_r)
    rx = np.array(list(combinations(range(K_r), g)))
    set_masks = (1 << rx).sum(axis=1)
    group_masks = (1 << np.array(list(combinations(range(K_r), s)))).sum(axis=1)
    contains = (set_masks[:, None] & group_masks) == group_masks  # contains[r, d]
    dest = np.nonzero(contains)[1].reshape(len(rx), -1)
    chunk = np.take_along_axis(contains.cumsum(axis=0) - 1, dest, axis=1)
    n = math.comb(K_t, t)
    ids = (np.arange(n)[:, None] * len(group_masks) + dest[:, None]).reshape(len(rx) * n, -1)
    groups = list(combinations(range(g), s))
    wants = np.array([[k in group for group in groups] for k in range(g)])
    nulled = np.nonzero(~wants.T)[1].reshape(len(groups), g - s)
    wanted = np.nonzero(wants)[1].reshape(g, math.comb(g - 1, s - 1))
    tables = (np.repeat(rx, n, 0), ids, np.repeat(chunk, n, 0), wants, nulled, wanted)
    for table in tables:
        table.flags.writeable = False
    return tables


def simulate_partition(
    partition: Partition,
    config: ShuffleConfig,
    channel: ChannelRealization,
    payloads: np.ndarray,
    snr_db: float | None = None,
) -> DeliveryReport:
    """Neutralized delivery of one partition's messages, as one array pass.

    Receiver sets of size g are served in lex order, and within each set
    the cooperation groups in lex order, one block apiece.  A block
    carries, for every dest group inside the set, that message's chunk
    for the set; the coop group's first g-s+1 members transmit it.  Block
    b's gains are `channel.gains[b]`, and a channel of any other shape
    than `draw_channel` gives this config raises ParameterError.  The
    cofactors, message positions and chunk indices of every block come
    from one call or gather each; each block's precoders are normalized by
    its own `build_precoders` call, and each (block, message) reads its
    chunk's symbol from the partition's one `payload_symbols` array.  The
    rest runs over the stacked blocks.  A receiver solves a symbol when
    its relative error is below `TOLERANCE`, or always under `snr_db`,
    where `noise_mse` averages the squared symbol errors instead.  It
    holds a message once it has all of its chunks.
    `payloads` holds the partition's messages by position, as
    `codec.encode_payloads` returns them, and of `partition` only its
    index is read; any other shape raises ParameterError before any
    block's precoders are built.  The report's `held` says which
    receivers lost which messages.
    """
    sigma = None if snr_db is None else check_snr(snr_db)
    shape, n_chunks = _partition_layout(config)
    if channel.gains.shape != shape:
        raise ParameterError(f"channel gains have shape {channel.gains.shape}, need {shape}")
    n_blocks, gamma, g, _n_tx = shape
    slots = n_blocks * gamma
    tables = _block_tables(config.s, config.t, config.K_r, config.K_t)
    rx_pos, ids, chunks, wants, nulled, wanted = tables
    n_messages = math.comb(config.K_t, config.t) * math.comb(config.K_r, config.s)
    symbols = payload_symbols(payloads, n_chunks, n_messages)

    # block b serves receiver positions rx_pos[b]: gains H[b, i, k, l],
    # precoders W[b, u, i, l], and the message position ids[b, u] and
    # transmitted symbol x[b, u] of unknown u, the chunk of its message that
    # rides in the block.
    H = channel.gains
    cofactors = neutralizing_precoder(H[:, :, nulled].transpose(0, 2, 1, 3, 4))
    W = np.array([build_precoders(w) for w in cofactors])
    x = symbols[ids, chunks]

    # G[b, i, k, u]: unknown u's effective gain at receiver position k in slot i
    G = np.einsum("bikl,buil->biku", H, W)
    residual = np.abs(G) / np.linalg.norm(H, axis=-1)[..., None]
    y = np.einsum("biku,bu->bik", G, x)
    if sigma is not None:
        rng = np.random.default_rng(channel.seed ^ 0xA5A5)
        y += sigma * rng.standard_normal((*y.shape, 2)).view(complex)[..., 0] / np.sqrt(2.0)
    # A[b, k]: receiver k's square system, slots by the unknowns it wants
    A = G[:, :, np.arange(g)[:, None], wanted].transpose(0, 2, 1, 3)
    report = DeliveryReport(
        partition=partition.index,
        regime="single_shot" if g == config.K_r else "time_division",
        slots_used=slots,
        max_condition=float(np.linalg.cond(A).max()),
        max_residual=float(residual.max(where=~wants, initial=0.0)),
    )
    if report.max_condition > CONDITION_GUARD:
        raise ChannelConditionError(
            f"condition number {report.max_condition:.3e} exceeds guard {CONDITION_GUARD:.1e}"
        )
    x_hat = np.linalg.solve(A, y.transpose(0, 2, 1)[..., None])[..., 0]
    sent = x[:, wanted]
    err = np.abs(x_hat - sent) / np.abs(sent)
    report.max_symbol_error = float(err.max())
    if sigma is None:
        solved = err < TOLERANCE
    else:
        solved = np.ones(err.shape, dtype=bool)
        with np.errstate(over="ignore"):
            report.noise_mse = float((err * err).sum()) / err.size
        if not math.isfinite(report.noise_mse):
            raise ParameterError(
                f"snr_db {snr_db} drives the noise mean squared error past the largest float"
            )

    solved_at = np.bincount(rx_pos.ravel(), solved.sum(axis=2).ravel(), minlength=config.K_r)
    report.symbols_per_receiver = int(solved_at.min())
    report.measured_dof = Fraction(report.symbols_per_receiver, slots)
    # a receiver that misses any chunk it wants of a message does not hold it
    b, k, w = np.nonzero(~solved)
    report.held = np.ones((config.K_r, len(payloads)), dtype=bool)
    report.held[rx_pos[b, k], ids[b, wanted[k, w]]] = False
    return report


def _channel_seed(seed: int, p: int, attempt: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{p}:{attempt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def simulate_with_resample(
    partition: Partition,
    config: ShuffleConfig,
    payloads: np.ndarray,
    seed: int,
    snr_db: float | None = None,
) -> DeliveryReport:
    """Run a partition; on a condition-guard trip, resample the channel once."""
    def attempt(n: int) -> DeliveryReport:
        channel = draw_channel(config, _channel_seed(seed, partition.index, n))
        return simulate_partition(partition, config, channel, payloads, snr_db)

    try:
        return attempt(0)
    except ChannelConditionError:
        return attempt(1)


@dataclass
class VerificationReport(_Report):
    ok: bool
    failures: list[tuple[int, int, int]]
    partitions: int
    slots_total: int = 0
    max_condition: float = 0.0
    max_residual: float = 0.0
    max_symbol_error: float = 0.0
    measured_dof: Fraction | None = None
    claimed_dof: Fraction | None = None  # what the analytics promise
    params: dict = field(default_factory=dict)  # `ShuffleConfig.summary(seed)`


def _verify_reassembly(placement, store, segments, payloads, held) -> list[tuple[int, int, int]]:
    """Reassemble every required IV per node; return (node, q, n) mismatches.

    Each node decodes all of its blocks at once from `payloads` and its
    row of `held`, and each block is laid out once; an IV missing from
    its block's layout is a mismatch too.
    """
    failures: list[tuple[int, int, int]] = []
    nbytes = placement.params.B // 8
    for k in range(1, placement.params.K + 1):
        blocks = decode_blocks(segments, k, payloads, held[k])
        offsets: dict[NodeSet, dict[tuple[int, int], int]] = {}
        for (q, n) in sorted(required_ivs(placement, k)):
            storage = placement.file_to_nodes[n]
            if storage not in offsets:
                layout = block_ivs(placement, k, storage)
                offsets[storage] = {iv: i * nbytes for i, iv in enumerate(layout)}
            block = blocks[storage]
            pos = offsets[storage].get((q, n))
            if block is None or pos is None or block[pos : pos + nbytes] != store.get(q, n):
                failures.append((k, q, n))
    return failures


def _pipeline(
    params: SystemParams, config: ShuffleConfig, seed: int, corrupt, deliver
) -> VerificationReport:
    """Placement -> map -> segment -> encode -> fault -> deliver -> reassemble.

    `corrupt=(p, i)` flips byte 0 of partition p's i-th message; a p or i
    that is not an integer position among the partitions and a
    partition's messages raises ParameterError before any work starts.
    `deliver(partition, payloads)` gets the partition's (messages, L)
    payload rows and returns its (K_r, messages) `held` mask, and its
    DeliveryReport or None over an ideal channel; of that report only
    five numbers are kept.  Reassembly reads one (all messages, L)
    payload array and one (K+1, all messages) `held` mask, both in
    `message_of` numbering.  The report's `params` names the instance.
    """
    if corrupt is not None:
        n_parts = math.comb(params.K, config.K_t)
        n_msgs = math.comb(config.K_t, config.t) * math.comb(config.K_r, config.s)
        p, i = corrupt
        whole = isinstance(p, numbers.Integral) and isinstance(i, numbers.Integral)
        if not (whole and 1 <= p <= n_parts and 0 <= i < n_msgs):
            raise ParameterError(
                f"corrupt=({p}, {i}) outside partitions [1, {n_parts}] "
                f"and messages [0, {n_msgs - 1}]"
            )
    placement = build_placement(params)
    store = map_phase(placement, params, seed)
    segments = segment_ivs(placement, config, store)
    partitions = segments.partitions
    report = VerificationReport(False, [], len(partitions), params=config.summary(seed))
    n = segments.messages.shape[1]
    payloads = np.empty((len(partitions) * n, segments.data.shape[1]), dtype=np.uint8)
    held = np.ones((params.K + 1, len(payloads)), dtype=bool)
    for part in partitions:
        messages = encode_partition(segments, part, config)
        at = slice((part.index - 1) * n, part.index * n)
        joined = b"".join(m.payload for m in messages)
        payloads[at] = np.frombuffer(joined, dtype=np.uint8).reshape(n, -1)
        if corrupt is not None and corrupt[0] == part.index:
            payloads[at.start + corrupt[1], 0] ^= 0xFF
        got, sim = deliver(part, payloads[at])
        held[list(part.rx), at] = got
        if sim is not None:
            report.slots_total += sim.slots_used
            report.max_condition = max(report.max_condition, sim.max_condition)
            report.max_residual = max(report.max_residual, sim.max_residual)
            report.max_symbol_error = max(report.max_symbol_error, sim.max_symbol_error)
            dof = report.measured_dof
            report.measured_dof = sim.measured_dof if dof is None else min(dof, sim.measured_dof)
    report.failures = _verify_reassembly(placement, store, segments, payloads, held)
    report.ok = not report.failures
    return report


def end_to_end_verify(
    params: SystemParams,
    config: ShuffleConfig,
    seed: int,
    corrupt: tuple[int, int] | None = None,
) -> tuple[bool, VerificationReport]:
    """Placement -> map -> segment -> encode -> channel -> XOR decode -> compare.

    True iff every node reassembles every required IV byte-exactly.
    `corrupt=(p, i)` flips a byte of the i-th message of partition p before
    transmission, for fault-injection tests.  `check_simulable` refuses
    bad input before any work starts.
    """
    check_simulable(config)

    def over_channel(part: Partition, payloads: np.ndarray):
        sim = simulate_with_resample(part, config, payloads, seed)
        return sim.held, sim

    report = _pipeline(params, config, seed, corrupt, over_channel)
    report.claimed_dof = delivery_dof(config.s, config.t, config.K_t, config.K_r)
    return report.ok, report


def ideal_verify(
    params: SystemParams,
    config: ShuffleConfig,
    seed: int,
    corrupt: tuple[int, int] | None = None,
) -> tuple[bool, VerificationReport]:
    """XOR-only verification over an ideal channel (every payload delivered).
    `check_bits` refuses an unsplittable B before any work starts."""
    check_bits(config)
    report = _pipeline(params, config, seed, corrupt, lambda part, payloads: (True, None))
    return report.ok, report
