import math

import pytest

from cpcshuffle.model import InfeasibleInstance, ParameterError, SystemParams
from cpcshuffle.placement import (
    build_placement,
    map_phase,
    required_iv_count,
    required_ivs,
)

WORKED = SystemParams(K=6, N=20, Q=6, r=3, B=48)

# file placement of the 6-node worked instance, as listed in the source
WORKED_STORAGE = {
    1: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
    2: {1, 2, 3, 4, 11, 12, 13, 14, 15, 16},
    3: {1, 5, 6, 7, 11, 12, 13, 17, 18, 19},
    4: {2, 5, 8, 9, 11, 14, 15, 17, 18, 20},
    5: {3, 6, 8, 10, 12, 14, 16, 17, 19, 20},
    6: {4, 7, 9, 10, 13, 15, 16, 18, 19, 20},
}


class TestBuildPlacement:
    def test_worked_example_storage(self):
        pl = build_placement(WORKED)
        assert {k: set(v) for k, v in pl.node_to_files.items()} == WORKED_STORAGE
        assert {k: set(v) for k, v in pl.reduce_assignment.items()} == {
            k: {k} for k in range(1, 7)
        }

    def test_disjoint_split(self):
        pl = build_placement(SystemParams(K=2, N=2, Q=2, r=1, B=8))
        assert set(pl.node_to_files[1]) == {1}
        assert set(pl.node_to_files[2]) == {2}

    def test_pairwise_placement_counts(self):
        pl = build_placement(SystemParams(K=4, N=6, Q=4, r=2, B=8))
        assert all(len(files) == 3 for files in pl.node_to_files.values())
        # each of the 6 pairs stores exactly eta1 = 1 file
        groups = [g.members for g in pl.file_to_nodes.values()]
        assert sorted(groups) == sorted(set(groups)) and len(groups) == 6

    def test_every_group_gets_eta1_files(self):
        params = SystemParams(K=5, N=20, Q=5, r=3, B=8)
        pl = build_placement(params)
        eta1, _ = params.require_symmetric()
        per_group: dict = {}
        for n, g in pl.file_to_nodes.items():
            per_group.setdefault(g, 0)
            per_group[g] += 1
        assert set(per_group.values()) == {eta1}
        assert len(per_group) == math.comb(5, 3)

    def test_computation_load_identity(self):
        for params in (WORKED, SystemParams(K=4, N=6, Q=4, r=2, B=8)):
            pl = build_placement(params)
            assert sum(len(f) for f in pl.node_to_files.values()) == params.r * params.N

    def test_infeasible_eta(self):
        with pytest.raises(InfeasibleInstance):
            build_placement(SystemParams(K=6, N=19, Q=6, r=3, B=48))
        with pytest.raises(InfeasibleInstance):
            build_placement(SystemParams(K=6, N=20, Q=7, r=3, B=48))


class TestMapPhase:
    def test_deterministic_across_nodes_and_calls(self):
        pl = build_placement(WORKED)
        a = map_phase(pl, WORKED, seed=7)
        b = map_phase(pl, WORKED, seed=7)
        assert a.values == b.values
        assert map_phase(pl, WORKED, seed=8).values != a.values

    def test_node_one_holds_sixty_ivs(self):
        pl = build_placement(WORKED)
        assert WORKED.Q * len(pl.node_to_files[1]) == 60

    def test_total_ivs_with_multiplicity(self):
        pl = build_placement(WORKED)
        total = sum(WORKED.Q * len(pl.node_to_files[k]) for k in range(1, 7))
        assert total == WORKED.r * WORKED.N * WORKED.Q == 360

    def test_value_length_is_b_bytes(self):
        pl = build_placement(WORKED)
        store = map_phase(pl, WORKED, seed=0)
        assert all(len(v) == WORKED.B // 8 for v in store.values.values())

    def test_b_must_be_byte_aligned(self):
        params = SystemParams(K=2, N=2, Q=2, r=1, B=12)
        pl = build_placement(params)
        with pytest.raises(ParameterError):
            map_phase(pl, params, seed=0)

    def test_seed_must_fit_64_bits(self):
        # the seed keys the IV hash as 8 unsigned bytes
        pl = build_placement(WORKED)
        for seed in (-1, 2**64):
            with pytest.raises(ParameterError, match="seed must lie in"):
                map_phase(pl, WORKED, seed=seed)
        assert len(map_phase(pl, WORKED, seed=2**64 - 1).values) == WORKED.N * WORKED.Q


class TestRequiredIvs:
    def test_node_four_needs_ten(self):
        pl = build_placement(WORKED)
        need = required_ivs(pl, 4)
        assert len(need) == 10
        assert all(q == 4 for q, _ in need)
        assert {n for _, n in need} == set(range(1, 21)) - WORKED_STORAGE[4]

    def test_full_replication_needs_nothing(self):
        params = SystemParams(K=3, N=3, Q=3, r=3, B=8)
        pl = build_placement(params)
        assert required_ivs(pl, 2) == set()

    def test_pairwise_instance(self):
        pl = build_placement(SystemParams(K=4, N=6, Q=4, r=2, B=8))
        assert len(required_ivs(pl, 1)) == 3

    def test_count_formula(self):
        for params in (WORKED, SystemParams(K=4, N=6, Q=4, r=2, B=8),
                       SystemParams(K=5, N=20, Q=10, r=2, B=8)):
            pl = build_placement(params)
            for k in range(1, params.K + 1):
                assert len(required_ivs(pl, k)) == required_iv_count(params)

    def test_every_need_is_computable_by_r_nodes(self):
        pl = build_placement(WORKED)
        for k in range(1, 7):
            for _, n in required_ivs(pl, k):
                holders = pl.file_to_nodes[n]
                assert len(holders) == WORKED.r and k not in holders
