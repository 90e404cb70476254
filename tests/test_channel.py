import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cpcshuffle.model import (
    NodeSet,
    ParameterError,
    SystemParams,
    enum_partitions,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase
from cpcshuffle import channel
from cpcshuffle.codec import block_ivs, encode_partition, round_up_bits, segment_ivs
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


class TestDrawChannel:
    def test_seed_determinism(self):
        a = draw_channel(4, 3, seed=11)
        b = draw_channel(4, 3, seed=11)
        assert np.array_equal(a.gains, b.gains)

    def test_different_seeds_differ_everywhere(self):
        a = draw_channel(4, 3, seed=11)
        b = draw_channel(4, 3, seed=12)
        assert np.all(a.gains != b.gains)

    def test_unit_variance(self):
        ch = draw_channel(10, 1000, seed=0)  # 1e5 draws
        mean_sq = float(np.mean(np.abs(ch.gains) ** 2))
        assert abs(mean_sq - 1.0) < 0.02

    def test_needs_positive_slots(self):
        with pytest.raises(ParameterError):
            draw_channel(4, 0, seed=0)

    def test_block_is_the_gain_gather(self):
        ch = draw_channel(6, 3, seed=7)
        node_sets = (NodeSet.of(2), NodeSet.of(1, 3, 6), NodeSet.of(2, 4, 5, 6))
        for rx in node_sets + (NodeSet.of(1, 2, 3, 4, 5, 6),):
            for tx in node_sets:
                for slots in (range(1, 2), range(1, 4), range(2, 4), range(3, 4)):
                    H = ch.block(rx, tx, slots)
                    assert H.shape == (len(slots), len(rx), len(tx))
                    assert H.flags.c_contiguous
                    expected = np.array(
                        [[[ch.gain(j, m, d) for m in tx] for j in rx] for d in slots]
                    )
                    assert H.tobytes() == expected.tobytes()

    def test_gain_rejects_indices_outside_the_draw(self):
        # 0 and K + 1 used to wrap to the last node or slot, or run off the end
        ch = draw_channel(4, 2, seed=0)
        for j, m, d in [(0, 1, 1), (5, 1, 1), (1, 0, 1), (1, 5, 1), (1, 1, 0), (1, 1, 3)]:
            with pytest.raises(ParameterError, match="outside nodes"):
                ch.gain(j, m, d)
        assert ch.gain(4, 4, 2) == ch.gains[3, 3, 1]

    def test_block_rejects_indices_outside_the_draw(self):
        ch = draw_channel(4, 2, seed=0)
        rx, tx = NodeSet.of(1, 2), NodeSet.of(3, 4)
        for args in [
            (NodeSet.of(1, 5), tx, range(1, 2)),
            (rx, NodeSet.of(5), range(1, 2)),
            (rx, tx, range(0, 1)),
            (rx, tx, range(0, 2)),
            (rx, tx, range(2, 4)),
            (rx, tx, range(1, 1)),
            (rx, tx, range(1, 3, 2)),
        ]:
            with pytest.raises(ParameterError, match="outside nodes"):
                ch.block(*args)
        assert ch.block(rx, tx, range(1, 3)).shape == (2, 2, 2)

    def test_channel_keeps_no_per_draw_state(self):
        assert [f.name for f in dataclasses.fields(channel.ChannelRealization)] == [
            "K", "slots", "seed", "gains",
        ]
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        before, gains = dict(vars(ch)), ch.gains.copy()
        simulate_partition(parts[0], cfg, ch, encode_partition(segs, parts[0], cfg))
        assert vars(ch).keys() == before.keys()
        assert all(vars(ch)[name] is value for name, value in before.items())
        assert ch.gains.tobytes() == gains.tobytes()

    def test_simulate_on_a_smaller_draw_rejected(self):
        # a channel drawn for fewer nodes than the config's K
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(4, partition_slots(cfg), seed=5)
        with pytest.raises(ParameterError, match="outside nodes \\[1, 4\\]"):
            simulate_partition(parts[0], cfg, ch, msgs)


class TestNeutralizingPrecoder:
    def test_two_tx_one_null_closed_form(self):
        ch = draw_channel(6, 2, seed=3)
        w = neutralizing_precoder(np.array([[ch.gain(4, 1, 1), ch.gain(4, 2, 1)]]))
        assert w[0] == pytest.approx(-ch.gain(4, 2, 1))
        assert w[1] == pytest.approx(ch.gain(4, 1, 1))

    def test_empty_null_set(self):
        ch = draw_channel(3, 1, seed=0)
        rows = ch.block(NodeSet(()), NodeSet.of(2), range(1, 2))[0]
        assert rows.shape == (0, 1)
        w = neutralizing_precoder(rows)
        assert w.shape == (1,) and w[0] == 1.0

    @pytest.mark.parametrize("seed", range(100))
    def test_three_tx_two_null_residual(self, seed):
        ch = draw_channel(6, 1, seed=seed)
        active, nulls = NodeSet.of(1, 2, 3), NodeSet.of(5, 6)
        rows = np.array([[ch.gain(psi, m, 1) for m in active] for psi in nulls])
        w = neutralizing_precoder(rows)
        wn = w / np.linalg.norm(w)
        for h in rows:
            assert abs(np.dot(h, wn)) < 1e-9 * np.linalg.norm(h)

    def test_size_mismatch(self):
        # two transmitters cannot null two receivers
        ch = draw_channel(4, 1, seed=0)
        rows = np.array([[ch.gain(psi, m, 1) for m in (1, 2)] for psi in (3, 4)])
        with pytest.raises(ParameterError):
            neutralizing_precoder(rows)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_delete_construction_bit_for_bit(self, seed):
        # the construction before channels were gathered per block:
        # per-gain rows, each minor by np.delete
        def reference(ch, d, active, nulls):
            n = len(active)
            rows = np.array(
                [[ch.gain(psi, m, d) for m in active] for psi in nulls]
            ).reshape(n - 1, n)
            w = np.empty(n, dtype=complex)
            for col in range(n):
                w[col] = (-1) ** (n + col + 1) * np.linalg.det(np.delete(rows, col, axis=1))
            return w

        rng = np.random.default_rng(seed)
        ch = draw_channel(10, 3, seed=seed)
        for n in range(1, 6):
            nodes = [int(x) for x in rng.permutation(np.arange(1, 11))[: 2 * n - 1]]
            active, nulls = NodeSet.from_iterable(nodes[:n]), NodeSet.from_iterable(nodes[n:])
            d = int(rng.integers(1, 4))
            got = neutralizing_precoder(ch.block(nulls, active, range(d, d + 1))[0])
            assert got.dtype == complex
            assert got.tobytes() == reference(ch, d, active, nulls).tobytes()
            # stacked over every slot and a second axis: each slice is the
            # same construction, bit for bit
            rows = ch.block(nulls, active, range(1, 4))
            stacked = np.stack([rows, rows[::-1]])
            got = neutralizing_precoder(stacked)
            assert got.shape == (2, 3, n)
            for a, slots in enumerate(((1, 2, 3), (3, 2, 1))):
                for i, d in enumerate(slots):
                    assert got[a, i].tobytes() == reference(ch, d, active, nulls).tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_precoder_set_residuals(self, seed):
        # one full coop-group block of the 6-node fixture: all precoders,
        # all slots, every null target
        ch = draw_channel(6, 2, seed=seed)
        receivers, active = NodeSet.of(4, 5, 6), NodeSet.of(1, 2)
        groups = enum_subsets(receivers, 2)
        nulled = [[k for k, j in enumerate(receivers) if j not in dg] for dg in groups]
        vectors = build_precoders(ch.block(receivers, active, range(1, 3)), nulled)
        assert vectors.shape == (len(groups), 2, len(active))
        assert [len(per_slot) for per_slot in vectors] == [2] * len(groups)
        for dg, per_slot in zip(groups, vectors):
            for d, w in zip((1, 2), per_slot):
                assert np.linalg.norm(w) == pytest.approx(1.0)
                for psi in receivers - dg:
                    h = np.array([ch.gain(psi, m, d) for m in active])
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
            ch = draw_channel(params.K, partition_slots(cfg), seed=part.index)
            rep = simulate_partition(part, cfg, ch, encode_partition(segs, part, cfg))
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
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        rep = simulate_partition(part, cfg, ch, msgs, snr_db=10.0)
        rng, sigma = np.random.default_rng(ch.seed ^ 0xA5A5), 10.0 ** (-10.0 / 20.0)
        by_pair = {(m.dest_group, m.coop): m for m in msgs}
        errors = []
        for group, coop, slots, row, vectors in _reference_blocks(ch, cfg, part):
            dest_groups = enum_subsets(group, cfg.s)
            sym = {dg: channel.payload_symbol(by_pair[(dg, coop)], 0, 1) for dg in dest_groups}
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
    """Each block of `part` rebuilt from gain() in the engine's order:
    (receiver set, cooperation group, slots, row(j, d), and the unit-norm
    precoder of each (dest group, slot))."""
    s, t = cfg.s, cfg.t
    g = min(cfg.K_r, s + t - 1)
    gamma = math.comb(g - 1, s - 1)
    slot0 = 1
    for group in enum_subsets(part.rx, g):
        for coop in enum_subsets(part.tx, t):
            active = NodeSet(coop.members[: g - s + 1])
            slots = range(slot0, slot0 + gamma)
            slot0 += gamma

            def row(j, d, active=active):  # receiver j's gains from the transmitters
                return np.array([ch.gain(j, m, d) for m in active])

            vectors = {}
            for dg in enum_subsets(group, s):
                for d in slots:
                    rows = [row(psi, d) for psi in group - dg]
                    w = neutralizing_precoder(
                        np.array(rows, dtype=complex).reshape(-1, len(active))
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
            wants, nulled, wanted = channel._schedule(cfg)
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


class TestSingleShotDelivery:
    def test_worked_partition(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        rep = simulate_partition(parts[0], cfg, ch, msgs)
        assert rep.measured_dof == 1
        assert rep.slots_used == 6  # 3 cooperation pairs, 2 slots each
        assert rep.symbols_per_receiver == 6
        assert rep.max_residual < 1e-9
        assert rep.max_condition < 1e8
        # all nine payloads land at their two receivers
        for m in msgs:
            key = (m.partition, m.dest_group.members, m.coop.members)
            for j in m.dest_group:
                assert rep.delivered[j][key] == m.payload

    def test_whole_group_multicast_one_slot(self):
        # s = K_r: every receiver wants every symbol, one slot per group
        params = SystemParams(K=8, N=56, Q=8, r=5, B=80)
        cfg, segs, parts = _prepared(params, K_r=4, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(8, partition_slots(cfg), seed=1)
        rep = simulate_partition(parts[0], cfg, ch, msgs)
        assert rep.measured_dof == 1
        assert rep.slots_used == math.comb(4, 2)  # one slot per coop group

    @pytest.mark.parametrize("seed", range(20))
    def test_symbol_accuracy(self, seed):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=seed)
        rep = simulate_partition(parts[0], cfg, ch, msgs)
        assert rep.max_symbol_error < 1e-8


class TestTimeDivisionDelivery:
    def test_dof_is_r_over_kr(self):
        cfg, segs, parts = _prepared(CASE_C, K_r=5, t=1)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(8, partition_slots(cfg), seed=9)
        rep = simulate_partition(parts[0], cfg, ch, msgs)
        assert rep.measured_dof == Fraction(2, 5)
        assert rep.slots_used == math.comb(5, 2) * 3

    def test_reassembled_payloads_exact(self):
        cfg, segs, parts = _prepared(CASE_C, K_r=5, t=1)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(8, partition_slots(cfg), seed=9)
        rep = simulate_partition(parts[0], cfg, ch, msgs)
        for m in msgs:
            key = (m.partition, m.dest_group.members, m.coop.members)
            for j in m.dest_group:
                assert rep.delivered[j][key] == m.payload

    def test_multichunk_split(self):
        # t = 2 with K_r = 6 has s+t = 4 <= 5 and C(K_r-s, t-1) = 4 chunks
        params = SystemParams(K=9, N=84, Q=9, r=3, B=8 * 3 * 5 * 4)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        assert cfg.s + cfg.t <= cfg.K_r - 1
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(9, partition_slots(cfg), seed=2)
        rep = simulate_partition(parts[0], cfg, ch, msgs)
        g = cfg.s + cfg.t - 1
        assert rep.measured_dof == Fraction(g, cfg.K_r)
        for m in msgs[:5]:
            key = (m.partition, m.dest_group.members, m.coop.members)
            for j in m.dest_group:
                assert rep.delivered[j][key] == m.payload

    def test_one_dropped_chunk_withholds_only_its_message(self, monkeypatch):
        # the first block runs at tol = 0, where no symbol can match, so
        # each of its messages loses exactly one of its four chunks
        params = SystemParams(K=9, N=84, Q=9, r=3, B=480)
        cfg, segs, parts = _prepared(params, K_r=6, t=2)
        part = parts[0]
        msgs = encode_partition(segs, part, cfg)
        real = channel.ChannelRealization.block
        blocks = []

        def record(self, rx, tx, slots):
            blocks.append(rx)
            return real(self, rx, tx, slots)

        monkeypatch.setattr(channel.ChannelRealization, "block", record)
        ch = draw_channel(9, partition_slots(cfg), seed=2)
        tol = np.full(partition_slots(cfg) // 2, channel.DEFAULT_TOLERANCE)
        tol[0] = 0.0
        rep = channel._deliver(part, cfg, ch, msgs, tol, None)

        g = cfg.s + cfg.t - 1
        first_rx = enum_subsets(part.rx, g)[0]
        first_coop = enum_subsets(part.tx, cfg.t)[0]
        assert blocks[0] == first_rx and len(blocks) == partition_slots(cfg) // 2
        dropped = {
            (m.partition, m.dest_group.members, m.coop.members)
            for m in msgs
            if m.coop == first_coop and m.dest_group.issubset(first_rx)
        }
        assert len(dropped) == math.comb(g, cfg.s)
        for m in msgs:
            key = (m.partition, m.dest_group.members, m.coop.members)
            for j in m.dest_group:
                if key in dropped:
                    assert key not in rep.delivered.get(j, {})
                else:
                    assert rep.delivered[j][key] == m.payload
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
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, 64, seed=0)
        with pytest.raises(ParameterError, match=refusal):
            simulate_partition(parts[0], cfg, ch, msgs)

    def test_resample_gives_up_after_two(self, monkeypatch):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        monkeypatch.setattr(channel, "CONDITION_GUARD", 1.0 + 1e-12)
        with pytest.raises(ChannelConditionError):
            simulate_with_resample(parts[0], cfg, msgs, seed=0)

    def test_dispatch_matches_regime(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        assert simulate_partition(parts[0], cfg, ch, msgs).regime == "single_shot"
        cfg, segs, parts = _prepared(CASE_C, K_r=5, t=1)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(8, partition_slots(cfg), seed=5)
        assert simulate_partition(parts[0], cfg, ch, msgs).regime == "time_division"


class TestEndToEnd:
    def test_worked_example(self):
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = end_to_end_verify(WORKED, cfg, seed=0)
        assert ok and rep.failures == []
        assert rep.partitions == 20
        assert rep.measured_dof == 1

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
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = end_to_end_verify(WORKED, cfg, seed=0, corrupt=(1, 0))
        assert not ok
        # first message of partition 1 is (D={4,5}, B={1,2}); its loss hits
        # node 4's IV of file 3 and node 5's IV of file 2
        assert (4, 4, 3) in rep.failures and (5, 5, 2) in rep.failures

    def test_ideal_path_matches(self):
        cfg = validate_config(WORKED, K_r=3, t=2)
        ok, rep = ideal_verify(WORKED, cfg, seed=0)
        assert ok and rep.failures == []
        ok2, rep2 = ideal_verify(WORKED, cfg, seed=0, corrupt=(2, 3))
        assert not ok2 and rep2.failures

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
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        for snr in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="snr_db must be finite"):
                simulate_partition(parts[0], cfg, ch, msgs, snr_db=snr)

    def test_overflowing_noise_amplitude_rejected(self):
        # 10 ** 350 is past the largest float; 10 ** -5e306 underflows to a
        # noiseless 0.0, which is still a float
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        for snr in (-7000.0, -1e308):
            with pytest.raises(ParameterError, match="noise amplitude overflow"):
                simulate_partition(parts[0], cfg, ch, msgs, snr_db=snr)
        loud = simulate_partition(parts[0], cfg, ch, msgs, snr_db=-300.0)
        assert 1e25 < loud.noise_mse < math.inf
        quiet = simulate_partition(parts[0], cfg, ch, msgs, snr_db=1e308)
        assert quiet.noise_mse < 1e-20 and quiet.measured_dof == 1

    def test_overflowing_noise_power_rejected(self):
        # sigma = 1e300 is a float, but the squared symbol errors are not
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        with pytest.raises(ParameterError, match="snr_db -6000.0 drives the noise mean squared"):
            simulate_partition(parts[0], cfg, ch, msgs, snr_db=-6000.0)

    @pytest.mark.parametrize("K, N, Q, r, K_r, t", [(6, 40, 12, 3, 3, 2), (8, 56, 16, 5, 4, 2)])
    def test_withheld_message_fails_exactly_its_block(self, K, N, Q, r, K_r, t):
        # one receiver loses one message of one partition: exactly the
        # required IVs of the one block that message serves there fail
        probe = validate_config(SystemParams(K=K, N=N, Q=Q, r=r, B=8), K_r, t)
        params = SystemParams(K=K, N=N, Q=Q, r=r, B=round_up_bits(probe, 8))
        cfg = validate_config(params, K_r, t)
        lost = {}

        def all_but_one(part, messages):
            got: dict[int, dict] = {}
            for m in messages:
                for j in m.dest_group:
                    got.setdefault(j, {})[m.key] = m.payload
            if part.index == 2:
                m = messages[-2]
                k = m.dest_group.members[1]
                del got[k][m.key]
                lost.update(k=k, storage=m.coop | (m.dest_group - NodeSet.of(k)))
            return got, None

        rep = channel._pipeline(params, cfg, 0, None, all_but_one)
        k, storage = lost["k"], lost["storage"]
        layout = block_ivs(build_placement(params), k, storage)
        assert len(layout) == (N // math.comb(K, r)) * (Q // K) > 1
        assert rep.failures == [(k, q, n) for q, n in sorted(layout)]

    def test_bad_tolerance_rejected(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        for tol in (float("nan"), float("inf"), -1.0, -1e-12):
            with pytest.raises(ParameterError, match="tolerance must be finite and >= 0"):
                simulate_partition(parts[0], cfg, ch, msgs, tol=tol)
        assert simulate_partition(parts[0], cfg, ch, msgs, tol=0.0).symbols_per_receiver == 0

    def test_noise_mode_reports_mse(self):
        cfg, segs, parts = _prepared(WORKED, K_r=3, t=2)
        msgs = encode_partition(segs, parts[0], cfg)
        ch = draw_channel(6, partition_slots(cfg), seed=5)
        rep = simulate_partition(parts[0], cfg, ch, msgs, snr_db=40.0)
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
                    s = r + 1 - t
                    if s > K_r or t > K - K_r or s + t == K_r:
                        continue
                    yield K, r, K_r, t


class TestRandomizedEndToEnd:
    def test_sampled_configurations_recover_exactly(self):
        import random

        rng = random.Random(7)
        pool = list(_simulatable_configs(7))
        for K, r, K_r, t in rng.sample(pool, 8):
            probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
            cfg0 = validate_config(probe, K_r, t)
            from cpcshuffle.codec import round_up_bits, segments_per_block

            s = r + 1 - t
            n_chunks = math.comb(K_r - s, t - 1) if s + t <= K_r - 1 else 1
            bits = round_up_bits(cfg0, 8)
            # payloads must also split into time-division chunks
            seg_bits = bits // segments_per_block(cfg0)
            while seg_bits % (8 * n_chunks) != 0:
                bits += 8 * segments_per_block(cfg0)
                seg_bits = bits // segments_per_block(cfg0)
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
            msgs = encode_partition(segs, parts[0], cfg)
            rep = simulate_with_resample(parts[0], cfg, msgs, seed=K_r + t)
            where = (K, r, K_r, t)
            assert rep.slots_used == partition_slots(cfg), where
            assert rep.measured_dof == Fraction(min(K_r, cfg.s + t - 1), K_r), where
            for m in msgs:
                key = (m.partition, m.dest_group.members, m.coop.members)
                for j in m.dest_group:
                    assert rep.delivered[j][key] == m.payload, (where, key, j)
