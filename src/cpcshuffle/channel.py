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

Which receiver positions of a block want which of its C(g, s) messages
depends on (s, g) alone, so it is one config-level table.  Per block the
engine gathers the (slot, receiver, transmitter) gains, builds the
(message, slot, transmitter) precoders in one stacked determinant call
and picks the payload symbols.  Everything else is one array pass over
the partition's stacked blocks: the effective gains, the nulling
residual at the unintended receivers, the received signals, and every
receiver's square system with its condition number and solve.

A message is cut into C(K_r-s, g-s) chunks, one per receiver set that
contains D, so the per-receiver DoF is g / K_r.  Single shot (s+t > K_r)
is the case g = K_r: one receiver set, one chunk, DoF 1.  Time division
(s+t < K_r) has g = s+t-1.  s + t = K_r, the asymptotic-alignment
regime, is not simulated.

Each chunk rides as one unit-power complex symbol derived from its bytes,
and a message is delivered once all of its chunks' symbols solve.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .model import (
    NodeSet,
    ParameterError,
    Partition,
    ShuffleConfig,
    SystemParams,
    enum_partitions,
    enum_subsets,
)
from .codec import (
    CodedMessage,
    block_ivs,
    decode_blocks,
    encode_partition,
    round_up_bits,
    segment_ivs,
    segments_per_block,
)
from .ndt import delivery_dof
from .placement import build_placement, map_phase, required_ivs

DEFAULT_TOLERANCE = 1e-8
CONDITION_GUARD = 1e8


class ChannelConditionError(RuntimeError):
    """A received matrix exceeded the condition guard; resample the channel."""


@dataclass(frozen=True)
class ChannelRealization:
    """i.i.d. CN(0,1) gains h[j, m, d] for receivers j, transmitters m, slots d."""

    K: int
    slots: int
    seed: int
    gains: np.ndarray  # complex, shape (K, K, slots), 0-based internally

    def gain(self, j: int, m: int, d: int) -> complex:
        """Gain from transmitter m to receiver j in slot d (all 1-based)."""
        if not (1 <= j <= self.K and 1 <= m <= self.K and 1 <= d <= self.slots):
            raise ParameterError(
                f"gain ({j}, {m}, {d}) outside nodes [1, {self.K}], slots [1, {self.slots}]"
            )
        return self.gains[j - 1, m - 1, d - 1]

    def block(self, rx: NodeSet, tx: NodeSet, slots: range) -> np.ndarray:
        """Gains H[i, k, l] from tx's l-th to rx's k-th member in the i-th slot
        of the window `slots`, as one C-contiguous (len(slots), |rx|, |tx|) array."""
        a, b = slots.start, slots.stop
        inside = slots.step == 1 and 1 <= a < b <= self.slots + 1
        if not inside or (rx.mask | tx.mask) >> (self.K + 1):
            raise ParameterError(
                f"block {rx.members} x {tx.members} x {slots} outside"
                f" nodes [1, {self.K}], slots [1, {self.slots}]"
            )
        window = self.gains[:, :, a - 1 : b - 1].transpose(2, 0, 1)
        return window.take([j - 1 for j in rx], axis=1).take([m - 1 for m in tx], axis=2)


@dataclass
class DeliveryReport:
    """What a simulated delivery achieved, with its numerical health: the
    worst values over every block of the partition."""

    partition: int
    regime: str
    slots_used: int
    symbols_per_receiver: int = 0
    measured_dof: Fraction = Fraction(0)
    max_condition: float = 0.0
    max_residual: float = 0.0
    max_symbol_error: float = 0.0
    delivered: dict[int, dict[tuple, bytes]] = field(repr=False, default_factory=dict)
    noise_mse: float | None = None

    def summary(self) -> dict:
        return {
            "partition": self.partition,
            "regime": self.regime,
            "slots_used": self.slots_used,
            "symbols_per_receiver": self.symbols_per_receiver,
            "measured_dof": str(self.measured_dof),
            "max_condition": self.max_condition,
            "max_residual": self.max_residual,
            "max_symbol_error": self.max_symbol_error,
            "noise_mse": self.noise_mse,
        }


def draw_channel(K: int, slots: int, seed: int) -> ChannelRealization:
    """Unit-variance circularly symmetric complex Gaussian gains."""
    if slots < 1:
        raise ParameterError(f"slots must be >= 1, got {slots}")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((K, K, slots))
    im = rng.standard_normal((K, K, slots))
    return ChannelRealization(K=K, slots=slots, seed=seed, gains=(re + 1j * im) / np.sqrt(2.0))


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


def payload_symbol(message: CodedMessage, chunk_index: int, n_chunks: int) -> complex:
    """Deterministic unit-power symbol for chunk `chunk_index` of a message
    whose payload is cut into `n_chunks` equal chunks (a fixture, not a modem)."""
    step = len(message.payload) // n_chunks
    chunk = message.payload[chunk_index * step : (chunk_index + 1) * step]
    tag = hashlib.blake2b(
        repr((*message.key, chunk_index)).encode() + chunk, digest_size=8
    ).digest()
    phase = 2.0 * np.pi * (int.from_bytes(tag, "little") / 2**64)
    return complex(np.cos(phase), np.sin(phase))


def build_precoders(H: np.ndarray, nulled: np.ndarray) -> np.ndarray:
    """Unit-norm cofactor precoders W[u, i] of one block with gains H[i, k, l]
    (slot, receiver position, transmitter): unknown u's precoder in the
    block's i-th slot, nulled at the receiver positions `nulled[u]`.

    `nulled` is a (U, n-1) index array for n transmitters; one stacked
    `neutralizing_precoder` call covers every (unknown, slot), and the
    result has shape (U, slot, n).
    """
    w = neutralizing_precoder(H[:, nulled].swapaxes(0, 1))
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    if not norm.all():
        raise ChannelConditionError("degenerate precoder (zero cofactors)")
    return w / norm


def _layout(config: ShuffleConfig) -> tuple[int, int, int]:
    """(g, chunks per message, slots per block) of the delivery scheme.

    Receiver sets have size g = min(K_r, s+t-1); a message is cut into
    one chunk per receiver set containing its dest group, C(K_r-s, g-s);
    a block serves C(g-1, s-1) symbols to each receiver of its set.
    """
    s, t, K_r = config.s, config.t, config.K_r
    g = min(K_r, s + t - 1)
    return g, math.comb(K_r - s, g - s), math.comb(g - 1, s - 1)


def simulation_bits(config: ShuffleConfig, requested_bits: int) -> int:
    """Least B >= requested that the codec AND the simulator can split evenly.

    On top of the codec's segment rule (B a multiple of 8 * segments per
    block), every payload is cut into C(K_r-s, g-s) chunks, so the
    segment byte length must divide by that too.  s + t = K_r is not
    simulated, so there the codec's rule alone applies.
    """
    _g, n_chunks, _gamma = _layout(config)
    if config.s + config.t == config.K_r:
        n_chunks = 1
    eta1, eta2 = config.params.require_symmetric()
    step = 8 * segments_per_block(config)
    # payload bytes per message = eta1*eta2*bits/step; make it a multiple
    # of n_chunks
    k = round_up_bits(config, requested_bits) // step
    need = n_chunks // math.gcd(eta1 * eta2, n_chunks)
    return -(-k // need) * need * step


def partition_slots(config: ShuffleConfig) -> int:
    """Channel slots one partition needs: C(K_r, g) receiver sets times
    C(K_t, t) cooperation groups, C(g-1, s-1) slots each."""
    if config.s + config.t == config.K_r:
        raise ParameterError(
            "s + t = K_r sits in the asymptotic-alignment regime, which is not simulated"
        )
    g, _chunks, gamma = _layout(config)
    return math.comb(config.K_r, g) * math.comb(config.K_t, config.t) * gamma


def _schedule(config: ShuffleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block structure, which depends on (s, g) alone.

    wants[k, u]: receiver position k of a receiver set lies in the set's
    u-th s-subset, the u-th dest group in `enum_subsets` order.  Derived
    from it: nulled[u], the g-s positions unknown u is nulled at, and
    wanted[k], the C(g-1, s-1) unknowns position k solves for.
    """
    g, _chunks, gamma = _layout(config)
    groups = list(combinations(range(g), config.s))
    wants = np.array([[k in group for group in groups] for k in range(g)])
    nulled = np.nonzero(~wants.T)[1].reshape(len(groups), g - config.s)
    return wants, nulled, np.nonzero(wants)[1].reshape(g, gamma)


def simulate_partition(
    partition: Partition,
    config: ShuffleConfig,
    channel: ChannelRealization,
    messages: list[CodedMessage],
    tol: float = DEFAULT_TOLERANCE,
    snr_db: float | None = None,
) -> DeliveryReport:
    """Neutralized delivery of one partition's messages.

    Receiver sets of size g are served in lex order, and within each set
    the cooperation groups in lex order, one block apiece.  A block
    carries, for every dest group inside the set, that message's chunk
    for the set; the coop group's first g-s+1 members transmit it.  A
    receiver holds a message once it has all of its chunks.
    """
    sigma = None
    if snr_db is not None:
        if not math.isfinite(snr_db):
            raise ParameterError(f"snr_db must be finite, got {snr_db}")
        try:
            sigma = 10.0 ** (-snr_db / 20.0)
        except OverflowError:
            raise ParameterError(f"snr_db {snr_db} makes the noise amplitude overflow") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tolerance must be finite and >= 0, got {tol}")
    needed = partition_slots(config)
    if channel.slots < needed:
        raise ParameterError(f"channel has {channel.slots} slots, need {needed}")
    noise = None if sigma is None else (np.random.default_rng(channel.seed ^ 0xA5A5), sigma)
    report = _deliver(partition, config, channel, messages, tol, noise)
    if noise is not None and not math.isfinite(report.noise_mse):
        raise ParameterError(
            f"snr_db {snr_db} drives the noise mean squared error past the largest float"
        )
    return report


def _deliver(
    partition: Partition,
    config: ShuffleConfig,
    channel: ChannelRealization,
    messages: list[CodedMessage],
    tol: float | np.ndarray,
    noise: tuple[np.random.Generator, float] | None,
) -> DeliveryReport:
    """Every block of `simulate_partition`, stacked into one array pass.

    The block loop only gathers each block's gains, builds its precoders
    and picks its payload symbols.  A receiver solves a symbol when its
    relative error is below `tol`, a scalar or one value per block, or
    always under `noise=(rng, sigma)`, where `noise_mse` averages the
    squared symbol errors instead.
    """
    s = config.s
    g, n_chunks, gamma = _layout(config)
    wants, nulled, wanted = _schedule(config)
    rx_sets = enum_subsets(partition.rx, g)
    coop_groups = enum_subsets(partition.tx, config.t)
    active = [NodeSet(coop.members[: g - s + 1]) for coop in coop_groups]
    index: dict[tuple[NodeSet, NodeSet], int] = {}
    for m, msg in enumerate(messages):
        if len(msg.payload) % n_chunks != 0:
            raise ParameterError(
                f"payload of {len(msg.payload)} bytes does not split into {n_chunks} chunks"
            )
        index[(msg.dest_group, msg.coop)] = m

    # per block b: gains H[b, i, k, l], precoders W[b, u, i, l], and the
    # message index ids[b, u] and transmitted symbol x[b, u] of unknown u;
    # chunk c of a message rides in the c-th receiver set containing its group
    H, W, ids, x = [], [], [], []
    next_chunk: Counter = Counter()
    slot0 = 1
    for group in rx_sets:
        dest_groups = enum_subsets(group, s)
        for coop, tx in zip(coop_groups, active):
            h = channel.block(group, tx, range(slot0, slot0 + gamma))
            H.append(h)
            W.append(build_precoders(h, nulled))
            ids.append([index[(dg, coop)] for dg in dest_groups])
            x.append([
                payload_symbol(messages[m], next_chunk[dg], n_chunks)
                for m, dg in zip(ids[-1], dest_groups)
            ])
            slot0 += gamma
        next_chunk.update(dest_groups)
    H, W, ids, x = np.array(H), np.array(W), np.array(ids), np.array(x)

    # G[b, i, k, u]: unknown u's effective gain at receiver position k in slot i
    G = np.einsum("bikl,buil->biku", H, W)
    residual = np.abs(G) / np.linalg.norm(H, axis=-1)[..., None]
    y = np.einsum("biku,bu->bik", G, x)
    if noise is not None:
        rng, sigma = noise
        y += sigma * rng.standard_normal((*y.shape, 2)).view(complex)[..., 0] / np.sqrt(2.0)
    # A[b, k]: receiver k's square system, slots by the unknowns it wants
    A = G[:, :, np.arange(g)[:, None], wanted].transpose(0, 2, 1, 3)
    report = DeliveryReport(
        partition=partition.index,
        regime="single_shot" if g == config.K_r else "time_division",
        slots_used=partition_slots(config),
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
    if noise is None:
        solved = err < np.asarray(tol)[..., None, None]
    else:
        solved = np.ones(err.shape, dtype=bool)
        with np.errstate(over="ignore"):
            report.noise_mse = float((err * err).sum()) / err.size

    # held[j, m]: chunks of message m that receiver j solved
    rx = np.repeat([group.members for group in rx_sets], len(coop_groups), axis=0)
    cells = (rx[:, :, None] * len(messages) + ids[:, wanted])[solved]
    held = np.bincount(cells, minlength=(config.params.K + 1) * len(messages))
    held = held.reshape(-1, len(messages))
    report.symbols_per_receiver = int(held[list(partition.rx)].sum(axis=1).min())
    report.measured_dof = Fraction(report.symbols_per_receiver, report.slots_used)
    report.delivered = {
        j: {msg.key: msg.payload for msg, n in zip(messages, held[j]) if n == n_chunks}
        for j in partition.rx
    }
    return report


def _channel_seed(seed: int, p: int, attempt: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{p}:{attempt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def simulate_with_resample(
    partition: Partition,
    config: ShuffleConfig,
    messages: list[CodedMessage],
    seed: int,
    **kwargs,
) -> DeliveryReport:
    """Run a partition; on a condition-guard trip, resample the channel once."""
    slots = partition_slots(config)
    for attempt in (0, 1):
        channel = draw_channel(
            config.params.K, slots, _channel_seed(seed, partition.index, attempt)
        )
        try:
            return simulate_partition(partition, config, channel, messages, **kwargs)
        except ChannelConditionError:
            if attempt == 1:
                raise
    raise AssertionError("unreachable")


@dataclass
class VerificationReport:
    ok: bool
    failures: list[tuple[int, int, int]]
    partitions: int
    slots_total: int = 0
    max_condition: float = 0.0
    max_residual: float = 0.0
    max_symbol_error: float = 0.0
    measured_dof: Fraction | None = None
    claimed_dof: Fraction | None = None  # what the analytics promise

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "failures": self.failures,
            "partitions": self.partitions,
            "slots_total": self.slots_total,
            "max_condition": self.max_condition,
            "max_residual": self.max_residual,
            "max_symbol_error": self.max_symbol_error,
            "measured_dof": None if self.measured_dof is None else str(self.measured_dof),
            "claimed_dof": None if self.claimed_dof is None else str(self.claimed_dof),
        }


def _verify_reassembly(
    placement,
    store,
    segments,
    delivered: dict[int, dict[tuple, bytes]],
) -> list[tuple[int, int, int]]:
    """Reassemble every required IV per node; return (node, q, n) mismatches.

    Each node decodes all of its blocks at once, and each block is laid
    out once; an IV missing from its block's layout is a mismatch too.
    """
    failures: list[tuple[int, int, int]] = []
    nbytes = placement.params.B // 8
    for k in range(1, placement.params.K + 1):
        blocks = decode_blocks(segments, k, delivered.get(k, {}))
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

    `corrupt=(p, i)` flips a byte of partition p's i-th message.
    `deliver(partition, messages)` returns each receiver's payloads keyed
    by `CodedMessage.key`, and the partition's DeliveryReport, or None
    over an ideal channel; of that report only five numbers are kept.
    """
    placement = build_placement(params)
    store = map_phase(placement, params, seed)
    segments = segment_ivs(placement, config, store)
    partitions = enum_partitions(params.K, config.K_t)
    report = VerificationReport(ok=False, failures=[], partitions=len(partitions))
    delivered: dict[int, dict[tuple, bytes]] = {k: {} for k in range(1, params.K + 1)}
    for part in partitions:
        messages = encode_partition(segments, part, config)
        if corrupt is not None and corrupt[0] == part.index:
            m = messages[corrupt[1]]
            bad = bytes([m.payload[0] ^ 0xFF]) + m.payload[1:]
            messages[corrupt[1]] = CodedMessage(m.partition, m.dest_group, m.coop, bad)
        got, sim = deliver(part, messages)
        for j, payloads in got.items():
            delivered[j].update(payloads)
        if sim is not None:
            report.slots_total += sim.slots_used
            report.max_condition = max(report.max_condition, sim.max_condition)
            report.max_residual = max(report.max_residual, sim.max_residual)
            report.max_symbol_error = max(report.max_symbol_error, sim.max_symbol_error)
            dof = report.measured_dof
            report.measured_dof = sim.measured_dof if dof is None else min(dof, sim.measured_dof)
    report.failures = _verify_reassembly(placement, store, segments, delivered)
    report.ok = not report.failures
    return report


def end_to_end_verify(
    params: SystemParams,
    config: ShuffleConfig,
    seed: int,
    tol: float = DEFAULT_TOLERANCE,
    corrupt: tuple[int, int] | None = None,
) -> tuple[bool, VerificationReport]:
    """Placement -> map -> segment -> encode -> channel -> XOR decode -> compare.

    True iff every node reassembles every required IV byte-exactly.
    `corrupt=(p, i)` flips a byte of the i-th message of partition p before
    transmission, for fault-injection tests.
    """
    def over_channel(part: Partition, messages: list[CodedMessage]):
        sim = simulate_with_resample(part, config, messages, seed, tol=tol)
        return sim.delivered, sim

    report = _pipeline(params, config, seed, corrupt, over_channel)
    report.claimed_dof = delivery_dof(config.s, config.t, config.K_t, config.K_r)
    return report.ok, report


def ideal_verify(
    params: SystemParams,
    config: ShuffleConfig,
    seed: int,
    corrupt: tuple[int, int] | None = None,
) -> tuple[bool, VerificationReport]:
    """XOR-only verification over an ideal channel (every payload delivered)."""
    def every_payload(part: Partition, messages: list[CodedMessage]):
        got: dict[int, dict[tuple, bytes]] = {}
        for m in messages:
            for j in m.dest_group:
                got.setdefault(j, {})[m.key] = m.payload
        return got, None

    report = _pipeline(params, config, seed, corrupt, every_payload)
    return report.ok, report
