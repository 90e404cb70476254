import itertools
import math

import pytest

from cpcshuffle.model import (
    ConstraintViolation,
    ParameterError,
    Partition,
    SystemParams,
    check_config,
    config_violation,
    delivery_layout,
    enum_partitions,
    enum_subsets,
    t_range,
    validate_config,
)


class TestEnumSubsets:
    def test_small_exhaustive(self):
        out = enum_subsets((1, 2, 3), 2)
        assert out == [(1, 2), (1, 3), (2, 3)]

    def test_six_choose_three(self):
        assert len(enum_subsets((1, 2, 3, 4, 5, 6), 3)) == 20

    def test_empty_set_convention(self):
        assert enum_subsets((1, 2, 3, 4), 0) == [()]

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            enum_subsets((1, 2, 3), 4)
        with pytest.raises(ParameterError):
            enum_subsets((1, 2, 3), -1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_match_binomial(self, n):
        ground = tuple(range(1, n + 1))
        for k in range(n + 1):
            assert len(enum_subsets(ground, k)) == math.comb(n, k)

    def test_deterministic(self):
        a = enum_subsets(tuple(range(1, 8)), 3)
        b = enum_subsets(tuple(range(1, 8)), 3)
        assert a == b


class TestEnumPartitions:
    def test_six_three(self):
        parts = enum_partitions(6, 3)
        assert len(parts) == 20
        assert parts[0].tx == (1, 2, 3)
        assert parts[0].rx == (4, 5, 6)
        assert parts[0].index == 1

    def test_two_one(self):
        parts = enum_partitions(2, 1)
        assert [(p.tx, p.rx) for p in parts] == [((1,), (2,)), ((2,), (1,))]

    def test_eight_four(self):
        parts = enum_partitions(8, 4)
        assert len(parts) == math.comb(8, 4) == 70
        assert all(len(p.tx) == len(p.rx) == 4 for p in parts)

    def test_rx_is_complement(self):
        for p in enum_partitions(5, 2):
            assert tuple(sorted(p.tx + p.rx)) == tuple(range(1, 6))
            assert set(p.tx).isdisjoint(p.rx)

    @pytest.mark.parametrize("K,K_t", [(5, 2), (6, 3), (7, 4)])
    def test_completeness(self, K, K_t):
        # every node transmits in C(K-1, K_t-1) partitions and receives in
        # C(K-1, K_r-1) of them
        parts = enum_partitions(K, K_t)
        K_r = K - K_t
        for k in range(1, K + 1):
            assert sum(k in p.tx for p in parts) == math.comb(K - 1, K_t - 1)
            assert sum(k in p.rx for p in parts) == math.comb(K - 1, K_r - 1)

    def test_numbering_is_lex_order(self):
        # partition p transmits from the p-th lex K_t-subset of [1..K]
        for K in range(2, 11):
            for K_t in range(1, K):
                parts = enum_partitions(K, K_t)
                lex = list(itertools.combinations(range(1, K + 1), K_t))
                assert [p.tx for p in parts] == lex
                assert [p.index for p in parts] == list(range(1, math.comb(K, K_t) + 1))

    def test_bad_group_size(self):
        with pytest.raises(ParameterError):
            enum_partitions(4, 0)
        with pytest.raises(ParameterError):
            enum_partitions(4, 4)


class TestPartition:
    def test_rejects_bad_members(self):
        # a node set is a strictly increasing tuple of positive ints, on
        # either side of the split
        for bad in [(2, 1), (1, 1), (0, 1), (-1, 2), (1.0, 2)]:
            with pytest.raises(ParameterError):
                Partition(index=1, tx=bad, rx=(3, 4))
            with pytest.raises(ParameterError):
                Partition(index=1, tx=(3, 4), rx=bad)

    def test_rejects_overlapping_sides(self):
        with pytest.raises(ParameterError, match="disjoint"):
            Partition(index=1, tx=(1, 2), rx=(2, 3))


class TestSystemParams:
    def test_eta_values(self):
        p = SystemParams(K=6, N=20, Q=6, r=3, B=48)
        assert p.require_symmetric() == (1, 1)

    def test_rejects_bad_load(self):
        with pytest.raises(ParameterError):
            SystemParams(K=4, N=4, Q=4, r=5, B=8)
        with pytest.raises(ParameterError):
            SystemParams(K=4, N=4, Q=4, r=0, B=8)

    def test_node_cap(self):
        with pytest.raises(ParameterError):
            SystemParams(K=65, N=65, Q=65, r=1, B=8)


class TestValidateConfig:
    def test_worked_example(self):
        p = SystemParams(K=6, N=20, Q=6, r=3, B=48)
        cfg = validate_config(p, K_r=3, t=2)
        assert cfg.s == 2 and cfg.K_t == 3

    def test_multicast_group_too_big(self):
        p = SystemParams(K=6, N=20, Q=6, r=3, B=48)
        with pytest.raises(ConstraintViolation) as exc:
            validate_config(p, K_r=2, t=1)
        assert exc.value.constraint == "s <= K_r"

    def test_wide_receiver_group(self):
        p = SystemParams(K=8, N=56, Q=8, r=5, B=80)
        cfg = validate_config(p, K_r=6, t=1)
        assert cfg.s == 5

    def test_cooperation_exceeds_transmitters(self):
        p = SystemParams(K=6, N=20, Q=6, r=3, B=48)
        with pytest.raises(ConstraintViolation) as exc:
            validate_config(p, K_r=5, t=2)
        assert exc.value.constraint == "t <= K - K_r"

    def test_rule_returns_s(self):
        assert check_config(6, 3, 3, 2) == 2
        assert check_config(8, 5, 6, 1) == 5
        assert config_violation(6, 3, 3, 2) is None

    def test_rule_names_each_inequality(self):
        cases = {
            (6, 3, 0, 1): "1 <= K_r <= K",
            (6, 3, 7, 1): "1 <= K_r <= K",
            (6, 3, 3, 0): "t >= 1",
            (6, 3, 3, 4): "s = r+1-t >= 1",
            (6, 3, 2, 1): "s <= K_r",
            (6, 3, 5, 2): "t <= K - K_r",
            (6, 3, 6, 1): "t <= K - K_r",  # K_r = K leaves no transmitter
        }
        for (K, r, K_r, t), constraint in cases.items():
            assert config_violation(K, r, K_r, t) == constraint
            with pytest.raises(ConstraintViolation) as exc:
                check_config(K, r, K_r, t)
            assert exc.value.constraint == constraint

    def test_t_range_is_the_rule_solved_for_t(self):
        # the scan walks t_range instead of asking the rule of every t; it
        # must hold exactly the t the rule accepts, K_r out of range included
        for K in range(1, 31):
            for r in range(1, K + 1):
                for K_r in range(-1, K + 2):
                    accepted = t_range(K, r, K_r)
                    for t in range(-1, r + 2):
                        assert (t in accepted) == (config_violation(K, r, K_r, t) is None), (
                            K, r, K_r, t)

    def test_nonpositive_t(self):
        p = SystemParams(K=6, N=20, Q=6, r=3, B=48)
        with pytest.raises(ConstraintViolation):
            validate_config(p, K_r=3, t=0)
        with pytest.raises(ConstraintViolation):
            validate_config(p, K_r=3, t=4)


class TestDeliveryLayout:
    def test_rejects_s_outside_1_to_K_r_and_t_below_1(self):
        # (5, 1, 3) used to reach math.comb's "n must be a non-negative
        # integer"; (0, 3, 3) passed as the s + t = K_r case
        for s, t, K_r in [(5, 1, 3), (4, 2, 3), (0, 3, 3), (-1, 5, 3), (2, 0, 3), (1, -2, 4)]:
            with pytest.raises(ParameterError, match=f"got s={s}, t={t}, K_r={K_r}"):
                delivery_layout(s, t, K_r)
        assert delivery_layout(2, 2, 3) == (3, 1, 2)  # single shot, the worked instance
        assert delivery_layout(1, 2, 6) == (2, 5, 1)  # time division, g = s + t - 1
        assert delivery_layout(2, 1, 3) == (2, 1, 1)  # s + t = K_r: time division, g = K_r - 1
