"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import random
from fractions import Fraction

from cpcshuffle.model import (
    SystemParams,
    enum_partitions,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase, required_ivs
from cpcshuffle.codec import (
    decode_segment,
    encode_partition,
    encode_payloads,
    per_partition_load,
    round_up_bits,
    segment_ivs,
    xor_bytes,
)
from cpcshuffle.channel import (
    end_to_end_verify,
    ideal_verify,
    simulate_with_resample,
)
from cpcshuffle.ndt import (
    cpc_minimum,
    fd_crossover_holds,
    gap_ratio,
    lower_bound,
    ndt_bw_hd,
    ndt_cdc,
    ndt_cpc,
    ndt_osl_fd,
    ndt_osl_hd,
)
from cpcshuffle.optimize import brute_force_min, closed_form_min, cross_validate
from segment_reference import block_bytes, segments_by_id

WORKED = SystemParams(K=6, N=20, Q=6, r=3, B=48)


def test_criterion_1_worked_example_reproduction():
    """(K=6, N=20, Q=6, r=3, K_r=3, t=2): construct and verify both paths,
    with per-partition load 1/120 and total NDT 1/6, exactly."""
    cfg = validate_config(WORKED, K_r=3, t=2)

    ok_ideal, rep_ideal = ideal_verify(WORKED, cfg, seed=0)
    assert ok_ideal and rep_ideal.failures == []

    ok_channel, rep_channel = end_to_end_verify(WORKED, cfg, seed=0)
    assert ok_channel and rep_channel.failures == []
    assert rep_channel.measured_dof == 1

    r_p, desired_bits = per_partition_load(cfg)
    assert r_p == Fraction(1, 120)
    assert desired_bits == WORKED.B
    assert ndt_cpc(3, 2, 6, 3).value == Fraction(1, 6)
    print("[criterion 1] PASS: byte-exact on both paths, R_p=1/120, NDT=1/6")


def test_criterion_2_fifty_node_spot_values():
    """CDC(2,50) = 0.48 exactly; optimizer(2,50) within 5e-4 of 0.0544 and
    below CDC(13,50) = 0.056923 (1e-6)."""
    assert ndt_cdc(2, 50).value == Fraction(12, 25)

    best = brute_force_min(2, 50).best_value
    assert abs(float(best) - 0.0544) < 5e-4

    cdc13 = ndt_cdc(13, 50).value
    assert cdc13 == Fraction(37, 650)
    assert abs(float(cdc13) - 0.056923) <= 1e-6
    assert best < cdc13
    print(f"[criterion 2] PASS: CDC(2,50)=0.48, opt(2,50)={float(best):.6f} < "
          f"CDC(13,50)={float(cdc13):.6f}")


def test_criterion_3_closed_form_fixture():
    """(r=5, K=8): NDT1 = 0.065625 at t*=2, NDT2 = 0.06875 at K_r*=6,
    minimum is NDT1, and brute force agrees exactly."""
    from cpcshuffle.optimize import ndt1_value, ndt2_value

    n1, t_star = ndt1_value(5, 8)
    n2, K_r_star = ndt2_value(5, 8)
    assert n1 == Fraction(21, 320) and float(n1) == 0.065625
    assert t_star == 2
    assert n2 == Fraction(11, 160) and float(n2) == 0.06875
    assert K_r_star == 6

    closed = closed_form_min(5, 8)
    assert closed.best_value == n1 and closed.branch == "NDT1"
    assert brute_force_min(5, 8).best_value == n1
    print("[criterion 3] PASS: NDT1(5,8)=0.065625 (t*=2) beats NDT2=0.06875 (K_r*=6)")


def test_criterion_4_closed_form_equals_brute_force():
    """Zero discrepancies over all integer (r, K), 2 <= K <= 30."""
    report = cross_validate(30)
    assert len(report) == sum(K - 1 for K in range(2, 31))
    assert all(cell["agree"] for cell in report)
    print(f"[criterion 4] PASS: {len(report)} grid cells, closed form == brute force")


def test_criterion_5_dominance_suite():
    """Exact dominance over the grid: the t=1 scheme never loses to CDC,
    half-duplex OSL, or half-duplex BW; and it beats full-duplex OSL
    whenever K >= 2(r + 1 + sqrt(r^2 + 1))."""
    crossover_cells = 0
    for K in range(2, 31):
        for r in range(1, K + 1):
            # r = K refuses a pin: the scheme's value there is the unpinned 0
            dbar = cpc_minimum(r, K, t=1 if r < K else None).value
            cdc = ndt_cdc(r, K).value
            assert dbar <= cdc <= ndt_osl_hd(r, K).value
            assert dbar <= ndt_bw_hd(r, K).value
            if fd_crossover_holds(r, K):
                assert dbar <= ndt_osl_fd(r, K).value
                crossover_cells += 1
    print(f"[criterion 5] PASS: dominance exact on K<=30; full-duplex "
          f"crossover verified on {crossover_cells} cells")


def test_criterion_6_lower_bound_sandwich_and_gap():
    """Bound <= optimizer minimum and gap < 3 everywhere on K <= 24; the
    (r=3, K=6) bound is exactly 1/10.  There the optimizer reaches 7/48
    (gap 35/24) while the 6-node illustration configuration itself sits at
    1/6, a ratio of exactly 5/3 -- both comfortably below 3."""
    for K in range(2, 25):
        for r in range(1, K):
            bound = lower_bound(r, K).bound
            best = brute_force_min(r, K).best_value
            assert bound <= best
            assert gap_ratio(r, K) < 3
        assert gap_ratio(K, K) == 1

    assert lower_bound(3, 6).bound == Fraction(1, 10)
    assert gap_ratio(3, 6) == Fraction(35, 24)
    assert ndt_cpc(3, 2, 6, 3).value / lower_bound(3, 6).bound == Fraction(5, 3)
    print("[criterion 6] PASS: sandwich + gap<3 on K<=24; bound(3,6)=0.1, "
          "optimizer gap 35/24, illustration-config gap 5/3")


def _fixture_messages(params, K_r, t, seed):
    cfg = validate_config(params, K_r=K_r, t=t)
    pl = build_placement(params)
    store = map_phase(pl, params, seed)
    segs = segment_ivs(pl, cfg, store)
    part = enum_partitions(params.K, cfg.K_t)[0]
    return cfg, part, encode_payloads(segs, part, cfg)


def test_criterion_7_neutralization_physics():
    """100 seeds on the 6-node fixture and the (K=8, r=5, K_r=4, t=2)
    fixture: residual < 1e-9 relative, condition numbers < 1e8, and
    per-receiver DoF exactly 1; the same bounds and DoF exactly 1/2 on
    the (K=9, r=3, K_r=6, t=2) time-division fixture, whose 2 x 2 systems
    and 1 x 1 minors run in closed form; the (K=8, r=2, K_r=5, t=1)
    time-division fixture measures exactly 2/5 by slot count."""
    cfg6, part6, msgs6 = _fixture_messages(WORKED, 3, 2, seed=0)
    cfg8, part8, msgs8 = _fixture_messages(
        SystemParams(K=8, N=56, Q=8, r=5, B=80), 4, 2, seed=0
    )
    cfg9, part9, msgs9 = _fixture_messages(
        SystemParams(K=9, N=84, Q=9, r=3, B=480), 6, 2, seed=0
    )
    for seed in range(100):
        rep = simulate_with_resample(part6, cfg6, msgs6, seed=seed)
        assert rep.max_residual < 1e-9
        assert rep.max_condition < 1e8
        assert rep.max_symbol_error < 1e-8
        assert rep.measured_dof == 1

        rep8 = simulate_with_resample(part8, cfg8, msgs8, seed=seed)
        assert rep8.max_residual < 1e-9
        assert rep8.max_condition < 1e8
        assert rep8.measured_dof == 1

        rep9 = simulate_with_resample(part9, cfg9, msgs9, seed=seed)
        assert rep9.max_residual < 1e-9
        assert rep9.max_condition < 1e8
        assert rep9.max_symbol_error < 1e-8
        assert rep9.measured_dof == Fraction(1, 2)

    cfgc, partc, msgsc = _fixture_messages(
        SystemParams(K=8, N=28, Q=8, r=2, B=160), 5, 1, seed=0
    )
    for seed in range(10):
        repc = simulate_with_resample(partc, cfgc, msgsc, seed=seed)
        assert repc.measured_dof == Fraction(2, 5)
        assert repc.max_condition < 1e8
    print("[criterion 7] PASS: 100-seed residual/condition/DoF checks, "
          "time-division DoF exactly 1/2 and 2/5")


def _valid_configs(K):
    for r in range(1, K):
        for K_r in range(1, K):
            for t in range(1, r + 1):
                s = r + 1 - t
                if s > K_r or t > K - K_r:
                    continue
                yield r, K_r, t


def test_criterion_8_codec_invariants():
    """Randomized valid configurations with K <= 8: the segment-to-message
    map is injective with s segments per message, every required IV's
    segments carry exactly B bits and reassemble it, and XOR is an
    involution."""
    rng = random.Random(2024)
    pool = [(K, r, K_r, t) for K in range(2, 9) for r, K_r, t in _valid_configs(K)]
    picks = rng.sample(pool, 18)
    # keep the two canonical shapes in the mix
    picks += [(6, 3, 3, 2), (8, 2, 5, 1)]

    for K, r, K_r, t in picks:
        probe = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
        cfg0 = validate_config(probe, K_r, t)
        params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r,
                              B=round_up_bits(cfg0, 8))
        cfg = validate_config(params, K_r, t)
        pl = build_placement(params)
        store = map_phase(pl, params, seed=rng.randrange(2**32))
        segs = segment_ivs(pl, cfg, store)
        by_id = segments_by_id(segs)
        partitions = enum_partitions(K, cfg.K_t)

        seen = set()
        for part in partitions:
            for m in encode_partition(segs, part, cfg):
                ids = m.constituents()
                assert len(ids) == cfg.s
                assert not seen.intersection(ids)
                seen.update(ids)
                assert xor_bytes(m.payload, m.payload) == bytes(len(m.payload))
                for j in m.dest_group:
                    got = decode_segment(m, by_id, j)
                    assert got.data == by_id[got.id].data
        assert seen == set(by_id)

        # bit conservation: every required IV arrives in exactly B bits;
        # the sorted ids are grouped by (dest, storage) once per config
        by_block: dict = {}
        for sid in sorted(by_id, key=lambda s: (s.coop, s.partition)):
            by_block.setdefault((sid.dest, sid.storage), []).append(sid)
        nbytes = params.B // 8
        for k in range(1, K + 1):
            for (q, n) in sorted(required_ivs(pl, k)):
                storage = pl.file_to_nodes[n]
                block = block_bytes(pl, store, k, storage)
                pieces = [by_id[sid].data for sid in by_block.get((k, storage), [])]
                assert b"".join(pieces) == block
                outputs = sorted(pl.reduce_assignment[k])
                files = sorted(
                    n2 for n2, grp in pl.file_to_nodes.items() if grp == storage
                )
                pos = (outputs.index(q) * len(files) + files.index(n)) * nbytes
                assert block[pos:pos + nbytes] == store.get(q, n)
                assert len(store.get(q, n)) * 8 == params.B
    print(f"[criterion 8] PASS: codec invariants hold on {len(picks)} configs")


def test_criterion_9_asymptotics():
    """r = 2: the t=1 scheme strictly decreases along K = 6..500 (sampled)
    and ends below 0.01, while CDC(2,500) is within 0.002 of 1/2."""
    ks = [6, 8, 10, 15, 20, 30, 50, 75, 100, 200, 350, 500]
    values = [cpc_minimum(2, K, t=1).value for K in ks]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 100)

    cdc = ndt_cdc(2, 500).value
    assert abs(cdc - Fraction(1, 2)) <= Fraction(2, 1000)
    print(f"[criterion 9] PASS: strictly decreasing over {ks}, "
          f"final {float(values[-1]):.5f}, CDC(2,500)={float(cdc):.3f}")
