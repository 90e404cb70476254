import dataclasses
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cpcshuffle.model import (
    InfeasibleInstance,
    NodeSet,
    ParameterError,
    SystemParams,
    config_violation,
    delivery_layout,
    enum_partitions,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase
from cpcshuffle import channel
from cpcshuffle.codec import (
    _message_pairs,
    block_ivs,
    encode_partition,
    encode_payloads,
    round_up_bits,
    segment_ivs,
)
from cpcshuffle.channel import (
    ChannelConditionError,
    build_precoders,
    draw_channel,
    end_to_end_verify,
    ideal_verify,
    neutralizing_precoder,
    partition_slots,
    simulate_partition,
    simulate_with_resample,
    simulation_bits,
)
from cpcshuffle.model import enum_subsets

WORKED = SystemParams(K=6, N=20, Q=6, r=3, B=48)
CASE_C = SystemParams(K=8, N=28, Q=8, r=2, B=160)


def _prepared(params, K_r, t, seed=0):
    cfg = validate_config(params, K_r=K_r, t=t)
    pl = build_placement(params)
    store = map_phase(pl, params, seed)
    segs = segment_ivs(pl, cfg, store)
    parts = enum_partitions(params.K, cfg.K_t)
    return cfg, segs, parts


def _reference_symbol(payload, m, chunk_index, n_chunks):
    """One chunk's symbol by the per-chunk formula, in Python ints mod 2**64:
    the phase is 2 pi v / 2**64, v = sum_i b_i P**(i+1) + q P**(step+1)
    over the chunk's bytes b_i of message m's `payload`, at position q = m *
    n_chunks + chunk_index, P = 0x9E3779B97F4A7C15."""
    P, mod = 0x9E3779B97F4A7C15, 2**64
    step = len(payload) // n_chunks
    chunk = payload[chunk_index * step : (chunk_index + 1) * step]
    q = m * n_chunks + chunk_index
    v = sum(b * pow(P, i + 1, mod) for i, b in enumerate(chunk)) + q * pow(P, step + 1, mod)
    phase = 2.0 * np.pi * (v % mod / mod)
    return complex(np.cos(phase), np.sin(phase))


def _cn(shape, seed):
    """i.i.d. CN(0,1) values, built the way `draw_channel` builds its gains."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


class TestDrawChannel:
    def test_seed_determinism(self):
        cfg = validate_config(WORKED, K_r=3, t=2)
        a = draw_channel(cfg, seed=11)
        b = draw_channel(cfg, seed=11)
        assert np.array_equal(a.gains, b.gains)

    def test_different_seeds_differ_everywhere(self):
        cfg = validate_config(WORKED, K_r=3, t=2)
        a = draw_channel(cfg, seed=11)
        b = draw_channel(cfg, seed=12)
        assert np.all(a.gains != b.gains)

    def test_unit_variance(self):
        cfg = validate_config(SystemParams(K=9, N=84, Q=9, r=3, B=480), K_r=6, t=2)
        gains = np.concatenate([draw_channel(cfg, seed).gains.ravel() for seed in range(140)])
        assert gains.size == 100_800
        mean_sq = float(np.mean(np.abs(gains) ** 2))
        assert abs(mean_sq - 1.0) < 0.02

    def test_draws_exactly_the_gains_the_blocks_read(self):
        # one (slot, receiver, transmitter) array per block, in
        # `_block_tables` order: g * (g - s + 1) gains per slot, no more,
        # re then im of one standard-normal stream, on every simulatable
        # config with K <= 8
        for K, r, K_r, t in _simulatable_configs(8):
            cfg = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
            g, _chunks, gamma = delivery_layout(cfg.s, t, K_r)
            rx_pos, *_ = channel._block_tables(cfg.s, t, K_r, cfg.K_t)
            ch = draw_channel(cfg, seed=K + r)
            assert ch.gains.shape == (len(rx_pos), gamma, g, g - cfg.s + 1), (K, r, K_r, t)
            assert len(rx_pos) * gamma == partition_slots(cfg)
            assert ch.gains.flags.c_contiguous and ch.seed == K + r
            assert ch.gains.tobytes() == _cn(ch.gains.shape, K + r).tobytes()

    def test_smaller_draw_rejected_before_any_precoder(self, monkeypatch):
        # a channel drawn for another config: (9,3,7,2) draws 35 blocks,
        # (9,3,6,2) reads 60
        params = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(validate_config(params, K_r=7, t=2), seed=2)
        built = []
        monkeypatch.setattr(channel, "neutralizing_precoder", lambda *a: built.append(a))
        monkeypatch.setattr(channel, "build_precoders", lambda *a: built.append(a))
        with pytest.raises(ParameterError) as exc:
            simulate_partition(parts[0], cfg, ch, payloads)
        assert built == []
        assert str(exc.value) == "channel gains have shape (35, 2, 3, 2), need (60, 2, 3, 2)"

    def test_channel_keeps_no_per_draw_state(self):
        assert [f.name for f in dataclasses.fields(channel.ChannelRealization)] == [
            "seed", "gains",
        ]
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        ch = draw_channel(cfg, seed=5)
        before, gains = dict(vars(ch)), ch.gains.copy()
        simulate_partition(parts[0], cfg, ch, encode_payloads(segs, parts[0], cfg))
        assert vars(ch).keys() == before.keys()
        assert all(vars(ch)[name] is value for name, value in before.items())
        assert ch.gains.tobytes() == gains.tobytes()

    def test_simulate_on_a_smaller_draw_rejected(self):
        # a channel drawn for (6,3,3,3), one block of one slot
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(validate_config(WORKED, K_r=3, t=3), seed=5)
        with pytest.raises(ParameterError) as exc:
            simulate_partition(parts[0], cfg, ch, payloads)
        assert str(exc.value) == "channel gains have shape (1, 1, 3, 3), need (3, 2, 3, 2)"
        # this config's number of gains, laid out in another shape
        gains = draw_channel(cfg, seed=5).gains
        for misshapen in (gains.reshape(6, 1, 3, 2), gains.swapaxes(0, 1)):
            ch = channel.ChannelRealization(seed=5, gains=misshapen)
            with pytest.raises(ParameterError, match="need \\(3, 2, 3, 2\\)"):
                simulate_partition(parts[0], cfg, ch, payloads)


class TestNeutralizingPrecoder:
    def test_two_tx_one_null_closed_form(self):
        h = _cn((1, 2), seed=3)
        w = neutralizing_precoder(h)
        assert w[0] == pytest.approx(-h[0, 1])
        assert w[1] == pytest.approx(h[0, 0])

    def test_empty_null_set(self):
        rows = np.empty((0, 1), dtype=complex)
        w = neutralizing_precoder(rows)
        assert w.shape == (1,) and w[0] == 1.0

    @pytest.mark.parametrize("seed", range(100))
    def test_three_tx_two_null_residual(self, seed):
        rows = _cn((2, 3), seed)
        w = neutralizing_precoder(rows)
        wn = w / np.linalg.norm(w)
        for h in rows:
            assert abs(np.dot(h, wn)) < 1e-9 * np.linalg.norm(h)

    def test_size_mismatch(self):
        # two transmitters cannot null two receivers
        rows = _cn((2, 2), seed=0)
        with pytest.raises(ParameterError):
            neutralizing_precoder(rows)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_delete_construction_bit_for_bit(self, seed):
        # the construction before the minors were stacked: each minor by
        # np.delete from one (n-1, n) matrix of nulled rows
        def reference(rows):
            n = rows.shape[1]
            w = np.empty(n, dtype=complex)
            for col in range(n):
                w[col] = (-1) ** (n + col + 1) * np.linalg.det(np.delete(rows, col, axis=1))
            return w

        for n in range(1, 6):
            rows = _cn((3, n - 1, n), seed=seed * 10 + n)  # three slots
            for d in range(3):
                got = neutralizing_precoder(rows[d])
                assert got.dtype == complex
                assert got.tobytes() == reference(rows[d]).tobytes()
            # stacked over every slot and a second axis: each slice is the
            # same construction, bit for bit
            stacked = np.stack([rows, rows[::-1]])
            got = neutralizing_precoder(stacked)
            assert got.shape == (2, 3, n)
            for a, slots in enumerate(((0, 1, 2), (2, 1, 0))):
                for i, d in enumerate(slots):
                    assert got[a, i].tobytes() == reference(rows[d]).tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_precoder_set_residuals(self, seed):
        # one full coop-group block of the 6-node fixture: its gains H[i, k, l]
        # from 2 transmitters to 3 receivers in 2 slots, all precoders, all
        # slots, every null target
        H = draw_channel(validate_config(WORKED, K_r=3, t=2), seed=seed).gains[0]
        groups = list(combinations(range(3), 2))
        nulled = [[k for k in range(3) if k not in dg] for dg in groups]
        vectors = build_precoders(neutralizing_precoder(H[:, nulled].swapaxes(0, 1)))
        assert vectors.shape == (len(groups), 2, 2)
        for dg, per_slot in zip(groups, vectors):
            for d, w in enumerate(per_slot):
                assert np.linalg.norm(w) == pytest.approx(1.0)
                for k in set(range(3)) - set(dg):
                    h = H[d, k]
                    assert abs(np.dot(h, w)) / np.linalg.norm(h) < 1e-9

    @pytest.mark.parametrize(
        "params, K_r, t",
        [(WORKED, 3, 2), (SystemParams(K=9, N=84, Q=9, r=3, B=480), 6, 2)],
        ids=["single_shot", "time_division"],
    )
    def test_report_residual_is_every_nulled_receiver(self, params, K_r, t):
        # the report's residual must be exactly the worst |h.w| / ||h|| over
        # every (message, slot, nulled receiver) of the partition, and its
        # condition number the worst of every receiver's system, recomputed
        # from the per-gain reference blocks
        cfg, segs, parts = _prepared(params, K_r=K_r, t=t)
        for part in parts[:12]:
            ch = draw_channel(cfg, seed=part.index)
            rep = simulate_partition(part, cfg, ch, encode_payloads(segs, part, cfg))
            worst, worst_cond = 0.0, 0.0
            for group, _coop, slots, row, vectors in _reference_blocks(ch, cfg, part):
                for (dg, d), w in vectors.items():
                    # np.abs on an array, as the engine takes it: the scalar
                    # abs of a complex is not always the same float
                    rows = [row(psi, d) for psi in group - dg]
                    gains = np.array([np.einsum("l,l->", h, w) for h in rows], dtype=complex)
                    scales = np.array([np.linalg.norm(h, axis=-1) for h in rows])
                    worst = max(worst, float((np.abs(gains) / scales).max(initial=0.0)))
                for j in group:
                    A = _reference_system(group, cfg.s, j, slots, row, vectors)
                    worst_cond = max(worst_cond, float(np.linalg.cond(A)))
            assert rep.max_residual == worst > 0.0
            assert rep.max_condition == worst_cond > 1.0

    def test_noise_is_drawn_per_block_slot_receiver(self):
        # the noise samples are scalar standard normals drawn in (block, slot,
        # receiver) order, real part first; decoded here one receiver at a time
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        part = parts[0]
        msgs = encode_partition(segs, part, cfg)
        ch = draw_channel(cfg, seed=5)
        rep = simulate_partition(part, cfg, ch, encode_payloads(segs, part, cfg), snr_db=10.0)
        rng, sigma = np.random.default_rng(ch.seed ^ 0xA5A5), 10.0 ** (-10.0 / 20.0)
        by_pair = {(msg.dest_group, msg.coop): m for m, msg in enumerate(msgs)}
        errors = []
        for group, coop, slots, row, vectors in _reference_blocks(ch, cfg, part):
            dest_groups = enum_subsets(group, cfg.s)
            at = {dg: by_pair[(dg, coop)] for dg in dest_groups}
            sym = {dg: _reference_symbol(msgs[m].payload, m, 0, 1) for dg, m in at.items()}
            y = {}
            for d in slots:
                for j in group:
                    noise = complex(rng.standard_normal(), rng.standard_normal())
                    y[(j, d)] = sigma * noise / np.sqrt(2.0) + sum(
                        np.einsum("l,l->", row(j, d), vectors[(dg, d)]) * sym[dg]
                        for dg in dest_groups
                    )
            for j in group:
                A = _reference_system(group, cfg.s, j, slots, row, vectors)
                x_hat = np.linalg.solve(A, np.array([y[(j, d)] for d in slots]))
                wanted = [dg for dg in dest_groups if j in dg]
                errors += [abs(est - sym[dg]) / abs(sym[dg]) for dg, est in zip(wanted, x_hat)]
        assert len(errors) == 3 * partition_slots(cfg)
        assert rep.noise_mse == pytest.approx(np.mean(np.square(errors)), rel=1e-9)
        assert rep.max_symbol_error == pytest.approx(max(errors), rel=1e-9)


def _reference_blocks(ch, cfg, part):
    """Each block of `part` rebuilt per (receiver, slot) in the engine's
    order, block b reading its gains from ch.gains[b]: (receiver set,
    cooperation group, slots, row(j, d), and the unit-norm precoder of each
    (dest group, slot))."""
    s, t = cfg.s, cfg.t
    g = min(cfg.K_r, s + t - 1)
    slots = range(math.comb(g - 1, s - 1))
    blocks = iter(ch.gains)
    for group in enum_subsets(part.rx, g):
        for coop in enum_subsets(part.tx, t):
            H = next(blocks)

            def row(j, d, H=H, group=group):  # receiver j's gains from the transmitters
                return H[d, group.members.index(j)]

            vectors = {}
            for dg in enum_subsets(group, s):
                for d in slots:
                    rows = [row(psi, d) for psi in group - dg]
                    w = neutralizing_precoder(
                        np.array(rows, dtype=complex).reshape(-1, g - s + 1)
                    )
                    vectors[(dg, d)] = w / np.linalg.norm(w, axis=-1)
            yield group, coop, slots, row, vectors


def _reference_system(group, s, j, slots, row, vectors):
    """Receiver j's square system: slots by the dest groups it belongs to."""
    return np.array([
        [np.einsum("l,l->", row(j, d), vectors[(dg, d)])
         for dg in enum_subsets(group, s) if j in dg]
        for d in slots
    ])


class TestBlockSchedule:
    def test_wants_is_dest_group_membership(self):
        # the config-level table equals `j in dest_group` computed per block,
        # on the first and last partition of every simulatable config, K <= 8
        configs = list(_simulatable_configs(8))
        assert len(configs) == 176
        for K, r, K_r, t in configs:
            cfg = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
            s, g = cfg.s, min(K_r, cfg.s + t - 1)
            *_, wants, nulled, wanted = channel._block_tables(s, t, K_r, cfg.K_t)
            parts = enum_partitions(K, cfg.K_t)
            for part in (parts[0], parts[-1]):
                for group in enum_subsets(part.rx, g):
                    for coop in enum_subsets(part.tx, t):
                        dest_groups = enum_subsets(group, s)
                        expected = [[j in dg for dg in dest_groups] for j in group]
                        assert wants.tolist() == expected, (K, r, K_r, t, part.index)
            # every receiver wants one symbol per slot of its block
            assert (wants.sum(axis=1) == math.comb(g - 1, s - 1)).all()
            for u, null in enumerate(nulled):
                assert null.tolist() == [k for k in range(g) if not wants[k, u]]
            for k, want in enumerate(wanted):
                assert want.tolist() == [u for u in range(len(nulled)) if wants[k, u]]

    def test_block_tables_are_the_per_block_lookups(self):
        # the position tables, mapped through a partition's receivers, equal
        # the per-block receivers, (D, B) lookups of message positions and Counter
        # of chunk indices, on the first and last partition of every
        # simulatable config, K <= 8
        for K, r, K_r, t in _simulatable_configs(8):
            cfg = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8), K_r, t)
            s, g = cfg.s, min(K_r, cfg.s + t - 1)
            rx_pos, ids, chunk, *_ = channel._block_tables(s, t, K_r, cfg.K_t)
            n_coops = math.comb(cfg.K_t, t)
            n_blocks = math.comb(K_r, g) * n_coops
            assert ids.shape == chunk.shape == (n_blocks, math.comb(g, s))
            assert rx_pos.shape == (n_blocks, g)
            parts = enum_partitions(K, cfg.K_t)
            for part in (parts[0], parts[-1]):
                rx_nodes = np.array(part.rx.members)
                order = {
                    (dg, coop): e for e, (coop, dg) in enumerate(_message_pairs(part, cfg))
                }
                next_chunk = Counter()
                for i, group in enumerate(enum_subsets(part.rx, g)):
                    dest_groups = enum_subsets(group, s)
                    for c, coop in enumerate(enum_subsets(part.tx, t)):
                        b = i * n_coops + c
                        assert rx_nodes[rx_pos[b]].tolist() == list(group.members)
                        positions = [order[(dg, coop)] for dg in dest_groups]
                        assert ids[b].tolist() == positions, (K, r, K_r, t, i, c)
                        assert chunk[b].tolist() == [next_chunk[dg] for dg in dest_groups]
                    next_chunk.update(dest_groups)
                # every message is cut into one chunk per receiver set holding its group
                assert set(next_chunk.values()) == {delivery_layout(s, t, K_r)[1]}

    def test_tables_are_cached_per_config(self):
        # one read-only tuple per (s, t, K_r, K_t), built once: (10,5,5,2)
        # asked again gets the same tuple; (9,5,7,2) shares its (s, g) =
        # (4, 5) but not its K_r, and gets its own
        a = validate_config(SystemParams(K=10, N=252, Q=10, r=5, B=8), K_r=5, t=2)
        b = validate_config(SystemParams(K=9, N=126, Q=9, r=5, B=8), K_r=7, t=2)
        layouts = [(x.s, delivery_layout(x.s, x.t, x.K_r)[0]) for x in (a, b)]
        assert layouts == [(4, 5), (4, 5)]
        first = channel._block_tables(a.s, a.t, a.K_r, a.K_t)
        assert channel._block_tables(a.s, a.t, a.K_r, a.K_t) is first
        assert channel._block_tables(b.s, b.t, b.K_r, b.K_t) is not first
        assert len(first) == 6
        for table in first:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]


class TestSingleShotDelivery:
    def test_worked_partition(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        rep = simulate_partition(parts[0], cfg, ch, payloads)
        assert rep.measured_dof == 1
        assert rep.slots_used == 6  # 3 cooperation pairs, 2 slots each
        assert rep.symbols_per_receiver == 6
        assert rep.max_residual < 1e-9
        assert rep.max_condition < 1e8
        # no receiver loses any of the nine messages
        assert rep.held.shape == (3, 9) and rep.held.all()

    def test_whole_group_multicast_one_slot(self):
        # s = K_r: every receiver wants every symbol, one slot per group
        params = SystemParams(K=8, N=56, Q=8, r=5, B=80)
        cfg, segs, parts = _prepared(params, K_r=4, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=1)
        rep = simulate_partition(parts[0], cfg, ch, payloads)
        assert rep.measured_dof == 1
        assert rep.slots_used == math.comb(4, 2)  # one slot per coop group

    @pytest.mark.parametrize("seed", range(20))
    def test_symbol_accuracy(self, seed):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=seed)
        rep = simulate_partition(parts[0], cfg, ch, payloads)
        assert rep.max_symbol_error < 1e-8


class TestTimeDivisionDelivery:
    def test_dof_is_r_over_kr(self):
        cfg, segs, parts = _prepared(CASE_C, K_r=5, t=1)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=9)
        rep = simulate_partition(parts[0], cfg, ch, payloads)
        assert rep.measured_dof == Fraction(2, 5)
        assert rep.slots_used == math.comb(5, 2) * 3

    def test_reassembled_payloads_exact(self):
        cfg, segs, parts = _prepared(CASE_C, K_r=5, t=1)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=9)
        rep = simulate_partition(parts[0], cfg, ch, payloads)
        assert rep.held.shape == (5, len(payloads)) and rep.held.all()

    def test_multichunk_split(self):
        # t = 2 with K_r = 6 has s+t = 4 <= 5 and C(K_r-s, t-1) = 4 chunks
        params = SystemParams(K=9, N=84, Q=9, r=3, B=8 * 3 * 5 * 4)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        assert cfg.s + cfg.t <= cfg.K_r - 1
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=2)
        rep = simulate_partition(parts[0], cfg, ch, payloads)
        g = cfg.s + cfg.t - 1
        assert rep.measured_dof == Fraction(g, cfg.K_r)
        assert rep.held.shape == (6, len(payloads)) and rep.held.all()

    def test_one_dropped_chunk_withholds_only_its_message(self, monkeypatch):
        # the first block carries NaN symbols, which no receiver can solve,
        # so each of its messages loses exactly one of its four chunks
        params = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        part = parts[0]
        payloads = encode_payloads(segs, part, cfg)
        pairs = _message_pairs(part, cfg)
        g = cfg.s + cfg.t - 1
        first_rx = enum_subsets(part.rx, g)[0]
        first_coop = enum_subsets(part.tx, cfg.t)[0]
        real_build = channel.build_precoders
        blocks = []

        def record(w):
            blocks.append(w)
            return real_build(w)

        real_symbols = channel.payload_symbols

        def first_block_lost(payloads, n_chunks, n_messages):
            # chunk 0 of a message whose dest group lies in the first
            # receiver set rides in that set's first block
            x = real_symbols(payloads, n_chunks, n_messages)
            for m, (coop, dest_group) in enumerate(pairs):
                if coop == first_coop and dest_group.issubset(first_rx):
                    x[m, 0] = complex("nan")
            return x

        monkeypatch.setattr(channel, "build_precoders", record)
        monkeypatch.setattr(channel, "payload_symbols", first_block_lost)
        ch = draw_channel(cfg, seed=2)
        rep = simulate_partition(part, cfg, ch, payloads)

        assert len(blocks) == partition_slots(cfg) // 2
        dropped = [
            i for i, (coop, dest_group) in enumerate(pairs)
            if coop == first_coop and dest_group.issubset(first_rx)
        ]
        assert len(dropped) == math.comb(g, cfg.s)
        # exactly the receivers of a dropped message lose it
        lost = [
            (k, i) for i, (_coop, dest_group) in enumerate(pairs) for k, j in enumerate(part.rx)
            if i in dropped and j in dest_group
        ]
        assert len(lost) == len(dropped) * cfg.s
        assert [(int(k), int(i)) for k, i in zip(*np.nonzero(~rep.held))] == sorted(lost)
        # a receiver of the first block misses that block's two symbols and
        # nothing more: the other three chunks of its dropped messages count
        full = math.comb(cfg.K_r - 1, g - 1) * math.comb(cfg.K_t, cfg.t) * 2
        assert full == 60
        assert rep.symbols_per_receiver == full - 2
        assert rep.measured_dof == Fraction(full - 2, partition_slots(cfg))


class TestDispatchAndResample:
    def test_alignment_regime_unsupported(self):
        # s + t = K_r is the asymptotic-alignment case, analytics only
        params = SystemParams(K=6, N=20, Q=6, r=3, B=480)
        cfg, segs, parts = _prepared(params, K_r=4, t=1)
        assert cfg.s + cfg.t == cfg.K_r
        refusal = "asymptotic-alignment regime, which is not simulated"
        with pytest.raises(ParameterError, match=refusal):
            partition_slots(cfg)
        with pytest.raises(ParameterError, match=refusal):
            draw_channel(cfg, seed=0)
        # refused before the channel's shape is read
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(validate_config(params, K_r=3, t=1), seed=0)
        with pytest.raises(ParameterError, match=refusal):
            simulate_partition(parts[0], cfg, ch, payloads)
        with pytest.raises(ParameterError, match=refusal):
            simulate_with_resample(parts[0], cfg, payloads, seed=0)

    def test_resample_gives_up_after_two(self, monkeypatch):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        monkeypatch.setattr(channel, "CONDITION_GUARD", 1.0 + 1e-12)
        with pytest.raises(ChannelConditionError):
            simulate_with_resample(parts[0], cfg, payloads, seed=0)

    def test_dispatch_matches_regime(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        assert simulate_partition(parts[0], cfg, ch, payloads).regime == "single_shot"
        cfg, segs, parts = _prepared(CASE_C, K_r=5, t=1)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        assert simulate_partition(parts[0], cfg, ch, payloads).regime == "time_division"


class TestEndToEnd:
    def test_worked_example(self):
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = end_to_end_verify(WORKED, cfg, seed=0)
        assert ok and rep.failures == []
        assert rep.partitions == 20
        assert rep.measured_dof == 1

    def test_summaries_list_nine_fields_and_never_delivered(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        sim = simulate_with_resample(parts[0], cfg, payloads, seed=0).summary()
        assert set(sim) == {
            "partition", "regime", "slots_used", "symbols_per_receiver", "measured_dof",
            "max_condition", "max_residual", "max_symbol_error", "noise_mse",
        }
        _ok, rep = end_to_end_verify(WORKED, cfg, seed=0)
        summary = rep.summary()
        assert set(summary) == {
            "ok", "failures", "partitions", "slots_total", "max_condition",
            "max_residual", "max_symbol_error", "measured_dof", "claimed_dof", "params",
        }
        assert (sim["measured_dof"], summary["measured_dof"], summary["claimed_dof"]) == (
            "1", "1", "1"
        )

    def test_two_node_exchange(self):
        params = SystemParams(K=2, N=2, Q=2, r=1, B=8)
        cfg = validate_config(params, K_r=1, t=1)
        ok, rep = end_to_end_verify(params, cfg, seed=4)
        assert ok

    def test_wide_cooperation(self):
        params = SystemParams(K=8, N=56, Q=8, r=5, B=80)
        cfg = validate_config(params, K_r=4, t=2)
        ok, rep = end_to_end_verify(params, cfg, seed=1)
        assert ok and rep.measured_dof == 1

    def test_time_division_end_to_end(self):
        cfg = validate_config(CASE_C, K_r=5, t=1)
        ok, rep = end_to_end_verify(CASE_C, cfg, seed=2)
        assert ok and rep.measured_dof == Fraction(2, 5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 17, 123])
    def test_seed_invariance(self, seed):
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, _ = end_to_end_verify(WORKED, cfg, seed=seed)
        assert ok

    def test_fault_names_the_damage(self):
        # the corrupted message serves one block per node in D; exactly the
        # required IVs of those s blocks fail, over both paths, and on a
        # chunked time-division instance
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = end_to_end_verify(WORKED, cfg, seed=0, corrupt=(1, 0))
        assert not ok
        # first message of partition 1 is (D={4,5}, B={1,2}); its loss hits
        # node 4's IV of file 3 and node 5's IV of file 2
        assert rep.failures == [(4, 4, 3), (5, 5, 2)]
        time_division = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        for params, K_r, t in [(WORKED, 3, 2), (time_division, 6, 2)]:
            cfg = validate_config(params, K_r, t)
            part = enum_partitions(params.K, cfg.K_t)[1]
            coop, dest_group = _message_pairs(part, cfg)[3]
            pl = build_placement(params)
            damage = [
                (j, q, n)
                for j in dest_group
                for q, n in sorted(block_ivs(pl, j, coop | (dest_group - NodeSet.of(j))))
            ]
            assert len(damage) == cfg.s
            for verify in (end_to_end_verify, ideal_verify):
                ok, rep = verify(params, cfg, seed=0, corrupt=(2, 3))
                assert not ok and rep.failures == damage, (params, verify.__name__)

    def test_ideal_path_matches(self):
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = ideal_verify(WORKED, cfg, seed=0)
        assert ok and rep.failures == []
        ok2, rep2 = ideal_verify(WORKED, cfg, seed=0, corrupt=(2, 3))
        assert not ok2 and rep2.failures

    @pytest.mark.parametrize("verify", [end_to_end_verify, ideal_verify])
    @pytest.mark.parametrize(
        "corrupt",
        [(0, 0), (21, 0), (1, 9), (1, -1), (1.5, 0)],
        ids=[
            "partition_zero",
            "partition_past_last",
            "message_past_last",
            "negative_message",
            "fractional_partition",
        ],
    )
    def test_corrupt_out_of_range_rejected_before_any_work(self, monkeypatch, verify, corrupt):
        # the worked instance has C(6, 3) = 20 partitions of C(3, 2)**2 = 9
        # messages; nothing is placed before the check
        def placed(*args):
            raise AssertionError("placement built before corrupt was checked")

        monkeypatch.setattr(channel, "build_placement", placed)
        cfg = validate_config(WORKED, K_r=3, t=2)
        with pytest.raises(ParameterError, match=r"partitions \[1, 20\] and messages \[0, 8\]"):
            verify(WORKED, cfg, seed=0, corrupt=corrupt)

    @pytest.mark.parametrize("verify", [end_to_end_verify, ideal_verify])
    def test_corrupt_at_the_last_corner_fails_reassembly(self, verify):
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = verify(WORKED, cfg, seed=0, corrupt=(20, 8))
        assert not ok and len(rep.failures) == cfg.s

    def test_iv_missing_from_layout_fails(self, monkeypatch):
        # the check walks the required IVs, not the layout, so an IV the
        # layout drops is reported rather than skipped
        import cpcshuffle.channel as channel_mod

        full = channel_mod.block_ivs
        monkeypatch.setattr(
            channel_mod, "block_ivs", lambda pl, dest, storage: full(pl, dest, storage)[1:]
        )
        cfg = validate_config(CASE_C, K_r=5, t=1)
        ok, rep = ideal_verify(CASE_C, cfg, seed=0)
        assert not ok
        assert (1, 1, 8) in rep.failures and len(rep.failures) == 8 * math.comb(7, 2)

    def test_non_finite_snr_rejected(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        for snr in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="snr_db must be finite"):
                simulate_partition(parts[0], cfg, ch, payloads, snr_db=snr)

    def test_overflowing_noise_amplitude_rejected(self):
        # 10 ** 350 is past the largest float; 10 ** -5e306 underflows to a
        # noiseless 0.0, which is still a float
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        for snr in (-7000.0, -1e308):
            with pytest.raises(ParameterError, match="noise amplitude overflow"):
                simulate_partition(parts[0], cfg, ch, payloads, snr_db=snr)
        loud = simulate_partition(parts[0], cfg, ch, payloads, snr_db=-300.0)
        assert 1e25 < loud.noise_mse < math.inf
        quiet = simulate_partition(parts[0], cfg, ch, payloads, snr_db=1e308)
        assert quiet.noise_mse < 1e-20 and quiet.measured_dof == 1

    def test_overflowing_noise_power_rejected(self):
        # sigma = 1e300 is a float, but the squared symbol errors are not
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        with pytest.raises(ParameterError, match="snr_db -6000.0 drives the noise mean squared"):
            simulate_partition(parts[0], cfg, ch, payloads, snr_db=-6000.0)

    @pytest.mark.parametrize("K, N, Q, r, K_r, t", [(6, 40, 12, 3, 3, 2), (8, 56, 16, 5, 4, 2)])
    def test_withheld_message_fails_exactly_its_block(self, K, N, Q, r, K_r, t):
        # one receiver loses one message of one partition: exactly the
        # required IVs of the one block that message serves there fail
        probe = validate_config(SystemParams(K=K, N=N, Q=Q, r=r, B=8), K_r, t)
        params = SystemParams(K=K, N=N, Q=Q, r=r, B=round_up_bits(probe, 8))
        cfg = validate_config(params, K_r, t)
        lost = {}

        def all_but_one(part, payloads):
            held = np.ones((K_r, len(payloads)), dtype=bool)
            if part.index == 3:
                coop, dest_group = _message_pairs(part, cfg)[-2]
                k = dest_group.members[1]
                held[part.rx.members.index(k), len(payloads) - 2] = False
                lost.update(k=k, storage=coop | (dest_group - NodeSet.of(k)))
            return held, None

        rep = channel._pipeline(params, cfg, 0, None, all_but_one)
        k, storage = lost["k"], lost["storage"]
        layout = block_ivs(build_placement(params), k, storage)
        assert len(layout) == (N // math.comb(K, r)) * (Q // K) > 1
        assert rep.failures == [(k, q, n) for q, n in sorted(layout)]

    def test_bad_tolerance_rejected(self, monkeypatch):
        # the tolerance is the module constant TOLERANCE, not an argument;
        # at 0 no symbol counts as solved
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        monkeypatch.setattr(channel, "TOLERANCE", 0.0)
        assert simulate_partition(parts[0], cfg, ch, payloads).symbols_per_receiver == 0

    def test_what_cannot_be_simulated_is_rejected_before_any_work(self, monkeypatch):
        def placed(*args):
            raise AssertionError("placement built before the config was checked")

        monkeypatch.setattr(channel, "build_placement", placed)
        params = SystemParams(K=6, N=20, Q=6, r=3, B=480)
        cfg = validate_config(params, K_r=4, t=1)
        with pytest.raises(ParameterError, match="asymptotic-alignment regime, which is not"):
            end_to_end_verify(params, cfg, seed=0)
        # 120 bits suit the codec but make one-byte payloads of 4 chunks
        params = SystemParams(K=9, N=84, Q=9, r=3, B=120)
        cfg = validate_config(params, K_r=6, t=2)
        with pytest.raises(ParameterError, match=r"^B=120 .*; choose B as a multiple of 480$"):
            end_to_end_verify(params, cfg, seed=0)

    def test_ideal_path_rejects_an_unsplittable_b_before_any_work(self, monkeypatch):
        def placed(*args):
            raise AssertionError("placement built before B was checked")

        monkeypatch.setattr(channel, "build_placement", placed)
        # eta1 * eta2 = 4 IVs of 12 bits do not fill six whole-byte segments
        params = SystemParams(K=6, N=20, Q=12, r=3, B=12)
        cfg = validate_config(params, K_r=3, t=2)
        short = "B=12 does not split into whole-byte IVs and segments; choose B as a multiple of 24"
        with pytest.raises(InfeasibleInstance, match=f"^{short}$"):
            ideal_verify(params, cfg, seed=0)

    @pytest.mark.parametrize("K, r, K_r, t", [(6, 3, 3, 2), (7, 3, 5, 2)])
    def test_check_simulable_accepts_exactly_the_b_that_split(self, K, r, K_r, t):
        # eta1 * eta2 of 1, 2 and 4: a B is refused iff the map, the codec
        # or the symbol mapper would refuse it, and the named step works
        accepted = []
        for Q in (K, 2 * K, 4 * K):
            for B in range(4, 220, 4):
                params = SystemParams(K=K, N=math.comb(K, r), Q=Q, r=r, B=B)
                cfg = validate_config(params, K_r=K_r, t=t)
                try:
                    channel.check_simulable(cfg)
                    refused = None
                except ParameterError as e:
                    refused = int(str(e).rsplit(" ", 1)[1])
                try:
                    cfg, segs, parts = _prepared(params, K_r=K_r, t=t)
                    _shape, n_chunks = channel._partition_layout(cfg)
                    payloads = encode_payloads(segs, parts[0], cfg)
                    channel.payload_symbols(payloads, n_chunks, len(payloads))
                    runs = True
                except ValueError:
                    runs = False
                assert runs == (refused is None), (Q, B)
                if refused is None:
                    accepted.append((Q, B))
                else:
                    ok = SystemParams(K=K, N=math.comb(K, r), Q=Q, r=r, B=refused)
                    channel.check_simulable(validate_config(ok, K_r=K_r, t=t))
        assert {Q for Q, _B in accepted} == {K, 2 * K, 4 * K}
        # the default B is the least accepted one
        for Q in (K, 2 * K, 4 * K):
            cfg = validate_config(SystemParams(K=K, N=math.comb(K, r), Q=Q, r=r, B=8), K_r, t)
            assert channel.simulation_bits(cfg, 4) == min(B for q, B in accepted if q == Q), Q

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda rows: rows[1:],
            lambda rows: np.concatenate([rows, rows[:1]]),
            lambda rows: rows[:, :-1],
            lambda rows: rows.ravel(),
            lambda rows: rows.astype(np.int64),
            lambda rows: list(rows),
        ],
        ids=[
            "one_row_too_few",
            "one_row_too_many",
            "width_not_in_chunks",
            "one_dimensional",
            "not_bytes",
            "list_of_rows",
        ],
    )
    def test_misshapen_payloads_rejected_before_any_precoder(self, monkeypatch, reshape):
        # messages arrive by position, so the array's shape is all there is
        # to check: one row per message, a width cut into whole chunks
        params = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        payloads = reshape(encode_payloads(segs, parts[0], cfg))
        ch = draw_channel(cfg, seed=0)
        built = []
        monkeypatch.setattr(channel, "neutralizing_precoder", lambda *a: built.append(a))
        monkeypatch.setattr(channel, "build_precoders", lambda *a: built.append(a))
        got = (
            f"{payloads.dtype} of shape {payloads.shape}"
            if isinstance(payloads, np.ndarray) else "list"
        )
        need = f"need a (45, L) uint8 payload array with L a multiple of 4 chunks, got {got}"
        with pytest.raises(ParameterError) as exc:
            simulate_partition(parts[0], cfg, ch, payloads)
        assert str(exc.value) == need
        with pytest.raises(ParameterError) as exc:
            simulate_with_resample(parts[0], cfg, payloads, seed=0)
        assert str(exc.value) == need
        assert built == []  # rejected before any block's precoders are built

    def test_noise_mode_reports_mse(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)
        ch = draw_channel(cfg, seed=5)
        rep = simulate_partition(parts[0], cfg, ch, payloads, snr_db=40.0)
        assert rep.noise_mse is not None and rep.noise_mse > 0

    def test_multichunk_time_division_end_to_end(self):
        # t = 2 in the time-division regime: four chunks per message
        params = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        cfg = validate_config(params, K_r=6, t=2)
        ok, rep = end_to_end_verify(params, cfg, seed=0)
        assert ok and rep.measured_dof == Fraction(1, 2)  # r / K_r


def _simulatable_configs(max_k):
    for K in range(2, max_k + 1):
        for r in range(1, K):
            for K_r in range(1, K):
                for t in range(1, r + 1):
                    if (
                        config_violation(K, r, K_r, t) is None
                        and delivery_layout(r + 1 - t, t, K_r) is not None
                    ):
                        yield K, r, K_r, t


class TestRandomizedEndToEnd:
    def test_sampled_configurations_recover_exactly(self):
        import random

        rng = random.Random(7)
        pool = list(_simulatable_configs(7))
        for K, r, K_r, t in rng.sample(pool, 8):
            probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
            bits = simulation_bits(validate_config(probe, K_r, t), 8)
            params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=bits)
            cfg = validate_config(params, K_r, t)
            ok, rep = end_to_end_verify(params, cfg, seed=rng.randrange(1000))
            assert ok, (K, r, K_r, t, rep.failures[:3])


class TestEngineCoverage:
    def test_every_small_configuration(self):
        # one engine for both regimes: partition 1 of every simulatable
        # configuration with K <= 6, at the CLI's default B
        configs = list(_simulatable_configs(6))
        assert len(configs) == 57
        for K, r, K_r, t in configs:
            probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
            B = simulation_bits(validate_config(probe, K_r, t), 8)
            params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=B)
            cfg, segs, parts = _prepared(params, K_r=K_r, t=t, seed=K + r)
            payloads = encode_payloads(segs, parts[0], cfg)
            rep = simulate_with_resample(parts[0], cfg, payloads, seed=K_r + t)
            where = (K, r, K_r, t)
            assert rep.slots_used == partition_slots(cfg), where
            assert rep.measured_dof == Fraction(min(K_r, cfg.s + t - 1), K_r), where
            assert rep.held.shape == (K_r, len(payloads)) and rep.held.all(), where


def _per_block_partition(partition, cfg, ch, messages, snr_db=None):
    """Reference delivery, one block at a time: block b's gains from
    ch.gains[b], its own cofactor precoders and a Counter of chunk indices;
    the stacked solve after the loop as in the engine."""
    sigma = None if snr_db is None else 10.0 ** (-snr_db / 20.0)
    slots = partition_slots(cfg)
    s = cfg.s
    g, n_chunks, _gamma = delivery_layout(s, cfg.t, cfg.K_r)
    *_, wants, nulled, wanted = channel._block_tables(s, cfg.t, cfg.K_r, cfg.K_t)
    rx_sets = enum_subsets(partition.rx, g)
    coop_groups = enum_subsets(partition.tx, cfg.t)
    index = {(msg.dest_group, msg.coop): m for m, msg in enumerate(messages)}
    assert sorted(index) == sorted((dg, coop) for coop, dg in _message_pairs(partition, cfg))

    H, W, ids, x = [], [], [], []
    next_chunk = Counter()
    blocks = iter(ch.gains)
    for group in rx_sets:
        dest_groups = enum_subsets(group, s)
        for coop in coop_groups:
            h = next(blocks)
            H.append(h)
            w = neutralizing_precoder(h[:, nulled].swapaxes(0, 1))
            norm = np.linalg.norm(w, axis=-1, keepdims=True)
            if not norm.all():
                raise ChannelConditionError("degenerate precoder (zero cofactors)")
            W.append(w / norm)
            ids.append([index[(dg, coop)] for dg in dest_groups])
            x.append([
                _reference_symbol(messages[m].payload, m, next_chunk[dg], n_chunks)
                for m, dg in zip(ids[-1], dest_groups)
            ])
        next_chunk.update(dest_groups)
    H, W, ids, x = np.array(H), np.array(W), np.array(ids), np.array(x)

    G = np.einsum("bikl,buil->biku", H, W)
    residual = np.abs(G) / np.linalg.norm(H, axis=-1)[..., None]
    y = np.einsum("biku,bu->bik", G, x)
    if sigma is not None:
        rng = np.random.default_rng(ch.seed ^ 0xA5A5)
        y += sigma * rng.standard_normal((*y.shape, 2)).view(complex)[..., 0] / np.sqrt(2.0)
    A = G[:, :, np.arange(g)[:, None], wanted].transpose(0, 2, 1, 3)
    report = channel.DeliveryReport(
        partition=partition.index,
        regime="single_shot" if g == cfg.K_r else "time_division",
        slots_used=slots,
        max_condition=float(np.linalg.cond(A).max()),
        max_residual=float(residual.max(where=~wants, initial=0.0)),
    )
    if report.max_condition > channel.CONDITION_GUARD:
        raise ChannelConditionError("condition guard")
    x_hat = np.linalg.solve(A, y.transpose(0, 2, 1)[..., None])[..., 0]
    sent = x[:, wanted]
    err = np.abs(x_hat - sent) / np.abs(sent)
    report.max_symbol_error = float(err.max())
    if sigma is None:
        solved = err < channel.TOLERANCE
    else:
        solved = np.ones(err.shape, dtype=bool)
        report.noise_mse = float((err * err).sum()) / err.size

    rx = np.repeat([group.members for group in rx_sets], len(coop_groups), axis=0)
    held = np.zeros((cfg.params.K + 1, len(messages)), dtype=int)
    np.add.at(held, (rx[:, :, None], ids[:, wanted]), solved)
    report.symbols_per_receiver = int(held[list(partition.rx)].sum(axis=1).min())
    report.measured_dof = Fraction(report.symbols_per_receiver, slots)
    # held: the receiver solved every chunk of the message, or wants none
    report.held = np.array([
        [n == n_chunks or j not in msg.dest_group for msg, n in zip(messages, held[j])]
        for j in partition.rx
    ])
    return report


def _pin_cases():
    for K, r, K_r, t in _simulatable_configs(6):
        yield K, r, K_r, t, "first_and_last"
    yield 9, 3, 6, 2, "first"
    yield 10, 5, 5, 2, "first"


class TestBatchedDeliveryPin:
    @pytest.mark.parametrize("snr_db", [None, 20.0], ids=["noiseless", "snr20"])
    def test_batched_pass_equals_the_per_block_loop(self, snr_db):
        # the engine's one array pass per partition returns the same report
        # as the per-block loop, float fields compared by ==
        cases = list(_pin_cases())
        assert len(cases) == 59
        for K, r, K_r, t, which in cases:
            probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
            B = simulation_bits(validate_config(probe, K_r, t), 8)
            params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=B)
            cfg, segs, parts = _prepared(params, K_r=K_r, t=t, seed=K + r)
            chosen = parts[:1] if which == "first" else [parts[0], parts[-1]]
            for part in chosen:
                msgs = encode_partition(segs, part, cfg)
                payloads = encode_payloads(segs, part, cfg)
                ch = draw_channel(cfg, seed=K_r + t + part.index)
                where = (K, r, K_r, t, part.index)
                try:
                    want = _per_block_partition(part, cfg, ch, msgs, snr_db=snr_db)
                except ChannelConditionError:
                    with pytest.raises(ChannelConditionError):
                        simulate_partition(part, cfg, ch, payloads, snr_db=snr_db)
                    continue
                got = simulate_partition(part, cfg, ch, payloads, snr_db=snr_db)
                assert got == want, where
                assert np.array_equal(got.held, want.held), where


class TestPayloadSymbols:
    def test_one_pass_equals_the_per_chunk_formula(self):
        # every (message, chunk) of the first and last partition, real and
        # imaginary parts compared bit for bit
        cases = list(_simulatable_configs(6)) + [(9, 3, 6, 2), (10, 5, 5, 2)]
        assert len(cases) == 59
        for K, r, K_r, t in cases:
            probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
            B = simulation_bits(validate_config(probe, K_r, t), 8)
            params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=B)
            cfg, segs, parts = _prepared(params, K_r=K_r, t=t, seed=K + r)
            n_chunks = delivery_layout(cfg.s, t, K_r)[1]
            for part in (parts[0], parts[-1]):
                msgs = encode_partition(segs, part, cfg)
                payloads = encode_payloads(segs, part, cfg)
                got = channel.payload_symbols(payloads, n_chunks, len(msgs))
                want = np.array([
                    [_reference_symbol(msg.payload, m, c, n_chunks) for c in range(n_chunks)]
                    for m, msg in enumerate(msgs)
                ])
                where = (K, r, K_r, t, part.index)
                assert got.shape == (len(msgs), n_chunks) and got.dtype == complex, where
                assert got.real.tobytes() == want.real.tobytes(), where
                assert got.imag.tobytes() == want.imag.tobytes(), where

    @pytest.mark.parametrize("K, r, K_r, t", [(9, 3, 6, 2), (10, 5, 5, 2)])
    def test_one_byte_moves_only_its_own_symbol(self, K, r, K_r, t):
        # partition 1 at eight times the default B, so chunks hold several
        # bytes: flipping any one byte of any row changes exactly that
        # (row, chunk) symbol, and identical rows at different positions
        # still get pairwise different symbols
        probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
        B = 8 * simulation_bits(validate_config(probe, K_r, t), 8)
        cfg, segs, parts = _prepared(SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=B), K_r, t)
        n_chunks = delivery_layout(cfg.s, t, K_r)[1]
        payloads = encode_payloads(segs, parts[0], cfg)
        rows, width = payloads.shape
        step = width // n_chunks
        assert step > 1
        base = channel.payload_symbols(payloads, n_chunks, rows)
        for m in range(rows):
            for i in range(width):
                flipped = payloads.copy()
                flipped[m, i] ^= 0xFF
                moved = channel.payload_symbols(flipped, n_chunks, rows) != base
                assert list(zip(*np.nonzero(moved))) == [(m, i // step)], (m, i)
        same = np.repeat(payloads[:1], rows, axis=0)
        assert len(np.unique(channel.payload_symbols(same, n_chunks, rows))) == rows * n_chunks

    def test_payload_that_does_not_split_rejected(self):
        params = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        payloads = encode_payloads(segs, parts[0], cfg)[:, :-1]
        ch = draw_channel(cfg, seed=0)
        with pytest.raises(
            ParameterError, match=r"with L a multiple of 4 chunks, got uint8 of shape \(45, 3\)"
        ):
            simulate_partition(parts[0], cfg, ch, payloads)


class TestBuildPrecoders:
    def test_equals_the_norm_division(self):
        # every block shape (unknowns, slots, transmitters) of the K <= 8
        # layouts, with magnitudes spread as cofactors' are
        shapes = set()
        for K, r, K_r, t in _simulatable_configs(8):
            s = r + 1 - t
            g, _chunks, gamma = delivery_layout(s, t, K_r)
            shapes.add((math.comb(g, s), gamma, g - s + 1))
        assert (1, 1, 1) in shapes and len(shapes) == 10
        rng = np.random.default_rng(3)
        for shape in sorted(shapes):
            for scale in (1e-6, 1.0, 1e6):
                w = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                want = w / np.linalg.norm(w, axis=-1, keepdims=True)
                assert build_precoders(w).tobytes() == want.tobytes(), (shape, scale)

    def test_one_zero_cofactor_vector_raises(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        w[1, 0, 0] = 0.0
        assert build_precoders(w).shape == w.shape  # one zero entry is fine
        w[1, 0] = 0.0
        with pytest.raises(ChannelConditionError, match="zero cofactors"):
            build_precoders(w)
