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
one config-level table (`_block_tables`), whose messages are the rows of
the codec's position table (`codec._message_positions`).  A partition's
gains are exactly the ones these blocks read, each once, as one (block,
slot, receiver, transmitter) array.  A config's partitions are delivered
in chunks, and the engine works per chunk, not per partition:
`_draw_gains` fills one stacked buffer, each partition's row from its
own seed's generator, as `draw_channel` draws it alone; one
`payload_symbols` pass maps the chunk's stacked payload rows; and
`_deliver` makes one array pass over its stacked blocks and returns one
record of per-partition arrays, which `_pipeline` folds in one scatter.
In that pass one determinant call builds every cofactor precoder, one
`build_precoders` call normalizes them, and the stacked blocks give the
effective gains, the nulling residual, the received signals, and every
receiver's square system A with one inverse (`_inverse`): the guard
reads its Frobenius condition number ||A||_F ||A^-1||_F, and the
receiver decodes x = A^-1 y.  Determinants and inverses of 1 x 1 and
2 x 2 matrices use closed forms (`_det`, `_inverse`), so a block with
at most 3 transmitters and receiver systems of at most 2 x 2 makes no
LAPACK call; 3 x 3 and larger take one stacked `np.linalg.det` or
`np.linalg.inv` call each, and no SVD or LU solve runs.
`STACK_ELEMENTS` bounds a chunk's stacked gains, and a guard trip
resamples only the partition that tripped.  A partition's messages
arrive by position, as the rows of one (messages, L) payload array.

A message is cut into C(K_r-s, g-s) chunks, one per receiver set that
contains D, so the per-receiver DoF is g / K_r.  `model.delivery_layout`
is the one place these counts are computed.  Single shot (s+t > K_r)
is the case g = K_r: one receiver set, one chunk, DoF 1.  Time division
(s+t <= K_r) has g = s+t-1, so s + t = K_r, where the analytics claim an
alignment DoF, realizes (K_r-1)/K_r.

Each chunk rides as one unit-power complex symbol, its phase a polynomial
in its bytes and its position, and a receiver holds a message once it
solves all of its chunks' symbols, each to a relative error below the
fixed `TOLERANCE` of 1e-8.  The channel adds nothing to the received
signals: the NDT is a limit at high signal power, set by the DoF each
receiver realizes, and an exact solve is what measures that DoF.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .model import (
    ParameterError,
    Partition,
    ShuffleConfig,
    SystemParams,
    delivery_layout,
)
from .codec import (
    _message_positions,
    bits_step,
    block_layout,
    check_bits,
    decode,
    encode_partition,  # unused here; perfbench/selftest.py checks this binding
    round_up_bits,
    segment_ivs,
    xor_rows,
)
from .ndt import delivery_dof
from .placement import build_placement, check_seed, map_phase, required_ivs

TOLERANCE = 1e-8
CONDITION_GUARD = 1e8
STACK_ELEMENTS = 1 << 12  # gains in one stacked chunk of partitions
_PHASE_BASE = 0x9E3779B97F4A7C15  # odd: 2**64 over the golden ratio


class ChannelConditionError(RuntimeError):
    """A received matrix exceeded the condition guard; resample the channel."""


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
    held: np.ndarray | None = field(default=None, repr=False, compare=False)


def _partition_layout(config: ShuffleConfig) -> tuple[tuple[int, int, int, int], int]:
    """The shape (blocks, C(g-1, s-1) slots, g receivers, g-s+1
    transmitters) of a partition's gains, and the chunks per message."""
    g, n_chunks, gamma = delivery_layout(config.s, config.t, config.K_r)
    n_blocks = math.comb(config.K_r, g) * math.comb(config.K_t, config.t)
    return (n_blocks, gamma, g, g - config.s + 1), n_chunks


def _draw_gains(config: ShuffleConfig, seeds) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian gains, exactly
    the ones a partition's blocks read, each once, for one partition per
    seed, stacked (partitions, *shape).  Each seed's own generator fills
    its row of one (partitions, 2, *shape) buffer in C order, re then im,
    and one (re + 1j im) / sqrt(2) pass forms every row."""
    shape, _chunks = _partition_layout(config)
    z = np.empty((len(seeds), 2, *shape))
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def draw_channel(config: ShuffleConfig, seed: int) -> np.ndarray:
    """One partition's i.i.d. CN(0,1) gains H[b, i, k, l], from block b's
    l-th transmitter to its k-th receiver in the block's i-th slot, blocks
    in `_block_tables` order, shape `_partition_layout(config)[0]`: the
    one-seed case of `_draw_gains`, its seed checked."""
    check_seed(seed)
    return _draw_gains(config, [seed])[0]


def check_simulable(config: ShuffleConfig) -> None:
    """Refuse, before any work, a B that does not cut IVs, segments and
    channel chunks into bytes."""
    _shape, n_chunks = _partition_layout(config)
    B, step = config.params.B, bits_step(config, n_chunks)
    if B % step:
        raise ParameterError(
            f"B={B} does not split into whole-byte IVs, segments and channel chunks; "
            f"choose B as a multiple of {step}"
        )


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of stacked square matrices (..., n, n): the entry of a
    1 x 1 matrix, ad - bc of a 2 x 2 one, `np.linalg.det` from 3 x 3 up."""
    n = M.shape[-1]
    if n == 0:
        return np.ones(M.shape[:-2], dtype=M.dtype)
    if n == 1:
        return M[..., 0, 0]
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.linalg.det(M)


def neutralizing_precoder(rows: np.ndarray) -> np.ndarray:
    """Cofactors of the bottom row of the matrix whose other rows are `rows`.

    `rows` stacks the nulled receivers' channel rows over n transmitters,
    shape (..., n-1, n).  Each result's inner product with any of its rows
    is a determinant with a repeated row, hence exactly zero.  The n minors
    of every stacked matrix go to one `_det` over (..., col, n-1, n-1):
    closed forms up to n = 3 transmitters (2 x 2 minors), so no LAPACK
    call there, and one `np.linalg.det` from n = 4 up.  (0, 1) yields the
    scalar (1,).
    """
    if rows.ndim < 2 or rows.shape[-1] != rows.shape[-2] + 1:
        raise ParameterError(f"need (..., n-1, n) stacked nulled rows, got shape {rows.shape}")
    n = rows.shape[-1]
    cols = np.arange(n - 1)
    keep = cols + (cols >= np.arange(n)[:, None])  # keep[col]: every column but col
    minors = rows[..., keep].swapaxes(-3, -2)
    return _det(minors) * (-1.0) ** (n + 1 + np.arange(n))


def payload_symbols(payloads: np.ndarray, n_chunks: int, n_messages: int) -> np.ndarray:
    """Deterministic unit-power symbols x[..., m, c] for chunk c of message
    m, the row `payloads[..., m, :]` cut into `n_chunks` equal chunks (a
    fixture, not a modem), for one partition's (n_messages, L) rows or a
    chunk's stacked (partitions, n_messages, L) ones.  Anything but such
    a uint8 array with L a multiple of `n_chunks` raises ParameterError.

    A chunk's phase is 2 pi v / 2**64, v = sum_i b_i P**(i+1) + q
    P**(step+1) mod 2**64 over its bytes b_i and its position q = m *
    n_chunks + c in its partition, P the odd `_PHASE_BASE`: every weight
    is odd, so a change in one byte or in the position moves v.  One
    uint64 array pass, which wraps mod 2**64, maps every chunk.
    """
    is_array = isinstance(payloads, np.ndarray)
    rows, width = payloads.shape[-2:] if is_array and payloads.ndim in (2, 3) else (-1, 0)
    if not is_array or payloads.dtype != np.uint8 or rows != n_messages or width % n_chunks:
        got = type(payloads).__name__
        if is_array:
            got = f"{payloads.dtype} of shape {payloads.shape}"
        raise ParameterError(
            f"need a ({n_messages}, L) uint8 payload array with L a multiple "
            f"of {n_chunks} chunks, got {got}"
        )
    lead, step = payloads.shape[:-2], width // n_chunks
    weights = np.cumprod(np.full(step + 1, _PHASE_BASE, dtype=np.uint64))
    v = payloads.reshape(*lead, n_messages * n_chunks, step) @ weights[:step]
    v += np.arange(n_messages * n_chunks, dtype=np.uint64) * weights[step]
    phase = 2.0 * np.pi * (v.reshape(*lead, n_messages, n_chunks) / 2.0**64)
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
    split evenly: `round_up_bits` over the layout's chunks per message."""
    return round_up_bits(config, requested_bits, _partition_layout(config)[1])


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
    `_draw_gains` draws the block's gains as H[b].  rx[b]: set r's g
    receiver positions.  ids[b, u]: the u-th message from group c whose
    dest group lies in set r, as its row in `codec._message_positions`
    and so in `codec.encode_payloads`.  chunk[b, u]: how many earlier
    receiver sets contain that dest group, so the chunk the block
    carries.  wants[k, u]: position k of a receiver set lies in the set's
    u-th s-subset, the u-th dest group in `enum_subsets` order.  Derived
    from it: nulled[u], the g-s positions unknown u is nulled at, and
    wanted[k], the C(g-1, s-1) unknowns position k solves for.
    """
    g, _chunks, _gamma = delivery_layout(s, t, K_r)
    rx = np.array(list(combinations(range(K_r), g)))
    set_masks = (1 << rx).sum(axis=1)
    dest_masks = (1 << (_message_positions(s, t, K_r, K_t)[:, t:] - K_t)).sum(axis=1)
    contains = (set_masks[:, None] & dest_masks) == dest_masks  # contains[r, message]
    n_blocks = len(rx) * math.comb(K_t, t)
    ids = np.nonzero(contains)[1].reshape(n_blocks, -1)
    chunk = (contains.cumsum(axis=0) - 1)[contains].reshape(n_blocks, -1)
    groups = list(combinations(range(g), s))
    wants = np.array([[k in group for group in groups] for k in range(g)])
    nulled = np.nonzero(~wants.T)[1].reshape(len(groups), g - s)
    wanted = np.nonzero(wants)[1].reshape(g, math.comb(g - 1, s - 1))
    tables = (np.repeat(rx, n_blocks // len(rx), 0), ids, chunk, wants, nulled, wanted)
    for table in tables:
        table.flags.writeable = False
    return tables


def _frobenius_sq(M: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of stacked matrices (..., n, n), each summed
    along one contiguous row of its n * n entries, so a stacked matrix gets
    the value it gets alone."""
    sq = np.square(M.real) + np.square(M.imag)
    return np.add.reduce(sq.reshape(*sq.shape[:-2], -1), axis=-1)


def _inverse(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of each stacked square system A (..., n, n) and its
    Frobenius condition number kappa_F = ||A||_F ||A^-1||_F, which lies
    between the 2-norm condition number and n times it.

    A 1 x 1 system's inverse is 1/a and its kappa_F exactly 1.  Larger
    systems are first divided by their largest |entry| m, which kappa
    does not see and which keeps entries from 1e-300 to 1e300 finite.  A
    2 x 2 system's inverse is then the adjugate over det * m and its
    kappa_F ||A||_F**2 / |det|, each term elementwise; from 3 x 3 up one
    stacked `np.linalg.inv` gives it.  A zero, singular or non-finite
    system has kappa_F inf, except that an exactly singular one from
    3 x 3 up, where LAPACK raises for the whole stack, raises
    ChannelConditionError.
    """
    n = A.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            inverse = 1.0 / A
            finite = np.isfinite(A[..., 0, 0]) & np.isfinite(inverse[..., 0, 0])
            return inverse, np.where(finite, 1.0, np.inf)
        mag = np.abs(A)
        if n == 2:
            m = np.maximum.reduce([mag[..., i // 2, i % 2] for i in range(4)])[..., None, None]
            S, sq = A / m, np.square(mag / m)
            a, b, c, d = S[..., 0, 0], S[..., 0, 1], S[..., 1, 0], S[..., 1, 1]
            det = _det(S)
            adjugate = np.stack([d, -b, -c, a], axis=-1).reshape(S.shape)
            inverse = adjugate / (det[..., None, None] * m)
            kappa = (sq[..., 0, 0] + sq[..., 0, 1] + sq[..., 1, 0] + sq[..., 1, 1]) / np.abs(det)
        else:
            m = mag.max(axis=(-2, -1))[..., None, None]
            S = A / m
            try:
                inverse = np.linalg.inv(S)
            except np.linalg.LinAlgError:
                raise ChannelConditionError("singular receiver system") from None
            kappa = np.sqrt(_frobenius_sq(S) * _frobenius_sq(inverse))
            inverse /= m
    return inverse, np.where(np.isfinite(kappa), kappa, np.inf)


class _Delivered(NamedTuple):
    """One chunk's delivery, row i for its i-th partition: held[i, k, m]
    as in `DeliveryReport.held`, the least symbols any receiver solved,
    the worst condition number, residual and symbol error, and the slots
    and regime every row shares."""

    held: np.ndarray
    least: np.ndarray
    condition: np.ndarray
    residual: np.ndarray
    error: np.ndarray
    slots: int
    regime: str


def _deliver(config, gains, payloads) -> _Delivered:
    """Neutralized delivery of a chunk of partitions, as one array pass.

    Receiver sets of size g are served in lex order, and within each set
    the cooperation groups in lex order, one block apiece.  A block
    carries, for every dest group inside the set, that message's chunk
    for the set; the coop group's first g-s+1 members transmit it.  Block
    b of the i-th partition reads `gains[i, b]`, stacked as `_draw_gains`
    draws them; gains of another shape per partition raise ParameterError.
    Stacking (partition, block) on the leading axis, one cofactor call,
    one `build_precoders` and one `_inverse` serve the chunk, and x_hat =
    A^-1 y is summed elementwise over the slots, the received y = G x
    with nothing added; one `payload_symbols` pass maps every partition's
    chunks.  A receiver solves a symbol when its relative error is below
    `TOLERANCE`, and holds a message once it has all of its chunks.
    `payloads` holds the chunk's rows as `codec.encode_payloads` returns
    them, stacked; a one-partition chunk may pass its (messages, L) rows
    alone, and any other shape raises ParameterError before any precoder
    is built.  A zero cofactor vector, an exactly singular system or a
    condition number past `CONDITION_GUARD` in any partition raises
    ChannelConditionError.
    """
    shape, n_chunks = _partition_layout(config)
    if gains.shape[1:] != shape:
        raise ParameterError(f"channel gains have shape {gains.shape[1:]}, need {shape}")
    n_parts = len(gains)
    n_blocks, gamma, g, _n_tx = shape
    tables = _block_tables(config.s, config.t, config.K_r, config.K_t)
    rx_pos, ids, chunks, wants, nulled, wanted = tables
    n_messages = len(_message_positions(config.s, config.t, config.K_r, config.K_t))
    symbols = payload_symbols(payloads, n_chunks, n_messages)
    symbols = symbols.reshape(n_parts, n_messages, n_chunks)

    # stacked block b = i * n_blocks + j, block j of the i-th partition, has
    # gains H[b, i, k, l], precoders W[b, u, i, l] and transmits x[b, u],
    # the chunk of its partition's message ids[j, u] that rides in it.
    H = gains.reshape(n_parts * n_blocks, *shape[1:])
    W = build_precoders(neutralizing_precoder(H[:, :, nulled].transpose(0, 2, 1, 3, 4)))
    x = symbols[:, ids, chunks].reshape(n_parts * n_blocks, -1)

    # G[b, i, k, u]: unknown u's effective gain at receiver position k in slot i
    G = np.einsum("bikl,buil->biku", H, W)
    residual = np.abs(G) / np.linalg.norm(H, axis=-1)[..., None]
    y = np.einsum("biku,bu->bik", G, x)
    # A[b, k]: receiver k's square system, slots by the unknowns it wants
    A = G[:, :, np.arange(g)[:, None], wanted].transpose(0, 2, 1, 3)
    inverse, condition = _inverse(A)
    condition = condition.reshape(n_parts, -1).max(axis=1)
    if condition.max() > CONDITION_GUARD:
        raise ChannelConditionError(
            f"condition number {condition.max():.3e} exceeds guard {CONDITION_GUARD:.1e}"
        )
    x_hat = sum(inverse[..., i] * y[:, i, :, None] for i in range(gamma))
    sent = x[:, wanted]
    err = np.abs(x_hat - sent) / np.abs(sent)
    solved = err < TOLERANCE

    # receiver position k of the i-th partition counts at i * K_r + k
    at = rx_pos + config.K_r * np.arange(n_parts)[:, None, None]
    solved_at = np.bincount(at.ravel(), solved.sum(axis=2).ravel(), minlength=n_parts * config.K_r)
    # a receiver that misses any chunk it wants of a message does not hold it
    b, k, w = np.nonzero(~solved)
    held = np.ones((n_parts, config.K_r, n_messages), dtype=bool)
    part, block = np.divmod(b, n_blocks)
    held[part, rx_pos[block, k], ids[block, wanted[k, w]]] = False
    residual = residual.reshape(n_parts, -1, *wants.shape)
    return _Delivered(
        held=held,
        least=solved_at.reshape(n_parts, -1).min(axis=1),
        condition=condition,
        residual=residual.max(axis=(1, 2, 3), where=~wants, initial=0.0),
        error=err.reshape(n_parts, -1).max(axis=1),
        slots=n_blocks * gamma,
        regime="single_shot" if g == config.K_r else "time_division",
    )


def _report(partition: Partition, record: _Delivered, row: int = 0) -> DeliveryReport:
    """Row `row` of a chunk record as `partition`'s DeliveryReport."""
    least = int(record.least[row])
    return DeliveryReport(
        partition=partition.index,
        regime=record.regime,
        slots_used=record.slots,
        symbols_per_receiver=least,
        measured_dof=Fraction(least, record.slots),
        max_condition=float(record.condition[row]),
        max_residual=float(record.residual[row]),
        max_symbol_error=float(record.error[row]),
        held=record.held[row],
    )


def simulate_partition(
    partition: Partition,
    config: ShuffleConfig,
    gains: np.ndarray,
    payloads: np.ndarray,
) -> DeliveryReport:
    """Neutralized delivery of one partition's (messages, L) payload rows
    over `draw_channel`'s `gains`: the one-partition case of `_deliver`."""
    record = _deliver(config, gains[None], payloads)
    return _report(partition, record)


def _channel_seed(seed: int, p: int, attempt: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{p}:{attempt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _resampled(partitions, config, payloads, seed, gains=None):
    """Yield (partitions, chunk record) from `_deliver` over the
    partitions' attempt-0 draws, stacked.  On a trip each partition runs
    alone on its row of those draws, and one that trips alone is redrawn
    once, with attempt 1; a second trip raises."""
    if gains is None:
        gains = _draw_gains(config, [_channel_seed(seed, p.index, 0) for p in partitions])
    try:
        record = _deliver(config, gains, payloads)
    except ChannelConditionError:
        if len(partitions) > 1:
            for i, p in enumerate(partitions):
                alone = slice(i, i + 1)
                yield from _resampled([p], config, payloads[alone], seed, gains[alone])
            return
        redrawn = _draw_gains(config, [_channel_seed(seed, partitions[0].index, 1)])
        record = _deliver(config, redrawn, payloads)
    yield partitions, record


def simulate_with_resample(
    partition: Partition,
    config: ShuffleConfig,
    payloads: np.ndarray,
    seed: int,
) -> DeliveryReport:
    """Check the seed and run a partition; on a guard trip, resample the channel once."""
    check_seed(seed)
    [(_parts, record)] = _resampled([partition], config, payloads, seed)
    return _report(partition, record)


def _deliver_chunks(config, seed, partitions, payloads):
    """Yield (partitions, their (n, K_r, messages) `held` masks, their
    chunk record) from `_resampled` over chunks of partitions whose stacked
    gains hold at most `STACK_ELEMENTS` values, one partition at least; a
    chunk that trips yields its partitions one at a time.  `payloads[i]`
    holds the i-th partition's rows."""
    per = max(1, STACK_ELEMENTS // math.prod(_partition_layout(config)[0]))
    for lo in range(0, len(partitions), per):
        chunk = partitions[lo : lo + per]
        for parts, record in _resampled(chunk, config, payloads[lo : lo + per], seed):
            yield parts, record.held, record


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
    """Reassemble every required IV; return (node, q, n) mismatches.

    One `decode` pass recovers every node's blocks from `payloads` and
    `held`.  `block_layout` files every decoded IV under its (q, n), and
    one compare against `store.array` confirms the IVs that match; each
    node's `required_ivs` that none confirms fails, in (node, q, n)
    order.  So an IV the layout files elsewhere fails too.
    """
    params, ivs = placement.params, store.array
    decoded, lost = decode(segments, payloads, held)
    q, n = np.broadcast_arrays(*block_layout(placement, segments.blocks))
    dest = np.array([j for j, _storage in segments.blocks])[:, None, None] - 1
    want = ivs[q, n]
    same = (decoded.reshape(want.shape) == want).all(axis=-1) & ~lost[:, None, None]
    missing = np.zeros((params.K, *ivs.shape[:2]), dtype=bool)
    need = [(k, *iv) for k in range(1, params.K + 1) for iv in required_ivs(placement, k)]
    missing[tuple(np.array(need).T - 1)] = True
    missing[np.broadcast_to(dest, q.shape)[same], q[same], n[same]] = False
    return [(k + 1, i + 1, j + 1) for k, i, j in zip(*(a.tolist() for a in np.nonzero(missing)))]


def _pipeline(
    params: SystemParams, config: ShuffleConfig, seed: int, corrupt, deliver
) -> VerificationReport:
    """Placement -> map -> segment -> encode -> fault -> deliver -> reassemble.

    One `xor_rows` over the segment table's (partitions, messages, s)
    rows encodes the whole config into a (partitions, messages, L)
    payload array, each partition's rows in `_message_pairs` order.
    `corrupt=(p, i)` flips byte 0 of partition p's i-th message; a p or i
    that is not an integer position among the partitions and a
    partition's messages, or a bad seed, raises ParameterError up front.
    `deliver(partitions, payloads)` gets every partition and its
    (messages, L) payload rows, stacked, and yields (a chunk of n
    partitions, their (n, K_r, messages) `held` masks, their `_deliver`
    record or None over an ideal channel).  Each chunk's masks land in one
    scatter and its record's worst values fold into the report, whose
    `measured_dof` is one Fraction at the end.  Reassembly is one `decode`
    pass over one (all messages, L) payload array and one (K+1, all
    messages) `held` mask, messages numbered as the segment table's
    `messages.reshape(-1, s)`; `held` starts all False, so a partition
    that `deliver` does not yield fails.  `params` other than
    `config.params` raise ParameterError up front.
    """
    if params != config.params:
        raise ParameterError(f"params {params} are not the config's {config.params}")
    if corrupt is not None:
        n_parts = math.comb(params.K, config.K_t)
        n_msgs = len(_message_positions(config.s, config.t, config.K_r, config.K_t))
        p, i = corrupt
        whole = isinstance(p, numbers.Integral) and isinstance(i, numbers.Integral)
        if not (whole and 1 <= p <= n_parts and 0 <= i < n_msgs):
            raise ParameterError(
                f"corrupt=({p}, {i}) outside partitions [1, {n_parts}] "
                f"and messages [0, {n_msgs - 1}]"
            )
    check_seed(seed)
    placement = build_placement(params)
    store = map_phase(placement, params, seed)
    segments = segment_ivs(placement, config, store)
    partitions = segments.partitions
    report = VerificationReport(False, [], len(partitions), params=config.summary(seed))
    payloads = xor_rows(segments.data, segments.messages)
    if corrupt is not None:
        payloads[corrupt[0] - 1, corrupt[1], 0] ^= 0xFF
    held = np.zeros((params.K + 1, *payloads.shape[:2]), dtype=bool)
    rx = np.array([part.rx for part in partitions])
    least = []
    for parts, got, sim in deliver(partitions, payloads):
        at = np.array([part.index for part in parts]) - 1
        held[rx[at], at[:, None]] = got
        if sim is not None:
            report.slots_total += sim.slots * len(parts)
            report.max_condition = max(report.max_condition, float(sim.condition.max()))
            report.max_residual = max(report.max_residual, float(sim.residual.max()))
            report.max_symbol_error = max(report.max_symbol_error, float(sim.error.max()))
            least.append(int(sim.least.min()))
            slots = sim.slots
    if least:
        report.measured_dof = Fraction(min(least), slots)
    payloads, held = payloads.reshape(-1, payloads.shape[-1]), held.reshape(params.K + 1, -1)
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

    report = _pipeline(params, config, seed, corrupt, partial(_deliver_chunks, config, seed))
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
    report = _pipeline(
        params, config, seed, corrupt, lambda parts, _rows: [(parts, True, None)]
    )
    return report.ok, report
