import math
from fractions import Fraction

import pytest

from cpcshuffle import ndt
from cpcshuffle.model import ConstraintViolation, ParameterError
from cpcshuffle.ndt import (
    asymptotics_check,
    c_coefficient,
    cpc_minimum,
    cpc_t1_minimum,
    delivery_dof,
    fd_crossover_holds,
    gap_ratio,
    hull_value,
    lower_bound,
    lower_hull,
    ndt_bw_fd,
    ndt_bw_hd,
    ndt_cdc,
    ndt_cpc,
    ndt_cpc_fractional,
    ndt_osl_fd,
    ndt_osl_hd,
    ndt_uncoded,
    scheme_point,
)


class TestBaselines:
    def test_cdc_values(self):
        assert ndt_cdc(3, 6).value == Fraction(1, 6)
        assert ndt_cdc(2, 50).value == Fraction(12, 25)  # 0.48

    def test_uncoded_vanishes_at_full_load(self):
        assert ndt_uncoded(6, 6).value == 0

    def test_osl_half_duplex_doubles(self):
        assert ndt_osl_hd(2, 50).value == 2 * ndt_osl_fd(2, 50).value
        assert ndt_osl_hd(2, 50).value == Fraction(2, 4) * (1 - Fraction(2, 50))

    def test_osl_min_clamps_at_k(self):
        # 2r > K: the DoF saturates at K
        assert ndt_osl_fd(5, 8).value == Fraction(1, 8) * (1 - Fraction(5, 8))

    def test_bw_piecewise(self):
        # r >= K/2 branch
        assert ndt_bw_fd(3, 6).value == (1 - Fraction(3, 6)) * Fraction(1, 6)
        # r < K/2 branch
        r, K = 2, 6
        expect = (1 - Fraction(r, K)) * Fraction(
            r * (K - 1) + K - r - 1, r * (K - 1) ** 2 + r * (K - 2)
        )
        assert ndt_bw_fd(r, K).value == expect
        assert ndt_bw_hd(r, K).value == 2 * expect

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            ndt_cdc(0, 6)
        with pytest.raises(ParameterError):
            ndt_cdc(7, 6)

    def test_zero_iff_full_load(self):
        for K in (2, 5, 9):
            for fn in (ndt_uncoded, ndt_cdc, ndt_osl_hd, ndt_bw_hd):
                assert fn(K, K).value == 0
                assert all(fn(r, K).value > 0 for r in range(1, K))


class TestDof:
    def test_single_shot_branch(self):
        assert delivery_dof(2, 2, 3, 3) == 1

    def test_alignment_branch(self):
        # s + t = K_r: C(2,0) C(3,2) * 2 = 6 gives 6/7
        assert delivery_dof(1, 2, 3, 3) == Fraction(6, 7)

    def test_time_division_branch(self):
        # brute-force both candidates of the max
        s, t, K_t, K_r = 2, 1, 3, 5
        d_prime = Fraction(s * K_t, s * K_t + K_r - s)  # t' = 1 term
        assert delivery_dof(s, t, K_t, K_r) == max(d_prime, Fraction(s + t - 1, K_r))

    def test_domain(self):
        with pytest.raises(ParameterError):
            delivery_dof(4, 1, 3, 3)
        with pytest.raises(ParameterError):
            delivery_dof(1, 4, 3, 3)
        # the time-division branch validates too: s = 0, and t > K_t
        with pytest.raises(ParameterError):
            delivery_dof(0, 2, 3, 5)
        with pytest.raises(ParameterError):
            delivery_dof(1, 4, 3, 6)


class TestSchemeNdt:
    def test_worked_example(self):
        assert ndt_cpc(3, 2, 6, 3).value == Fraction(1, 6)

    def test_spread_receivers(self):
        assert ndt_cpc(2, 1, 6, 4).value == Fraction(1, 4)

    def test_full_load_sentinel(self):
        assert cpc_minimum(6, 6).value == 0
        assert cpc_minimum(6, 6).K_r == 0

    def test_invalid_config(self):
        with pytest.raises(ConstraintViolation):
            ndt_cpc(3, 1, 6, 2)  # s=3 > K_r=2

    @pytest.mark.parametrize("K", range(2, 11))
    def test_piecewise_equals_load_over_dof_everywhere(self, K):
        # the identity is asserted inside ndt_cpc; sweep every valid config
        for r in range(1, K):
            for K_r in range(1, K):
                for t in range(1, r + 1):
                    s = r + 1 - t
                    if s > K_r or t > K - K_r:
                        continue
                    assert ndt_cpc(r, t, K, K_r).value > 0


class TestFractional:
    def test_envelope_at_vertices(self):
        # where the integer optimum lies on its own lower hull the envelope
        # reproduces it; true at these sampled points
        for r, K in [(1, 4), (2, 6), (3, 6), (2, 50), (5, 8)]:
            assert ndt_cpc_fractional(r, K).value == cpc_minimum(r, K).value

    def test_envelope_never_exceeds_pointwise(self):
        for K in range(2, 15):
            for r in range(1, K + 1):
                assert ndt_cpc_fractional(r, K).value <= cpc_minimum(r, K).value

    def test_memory_sharing_can_beat_pure_scheme(self):
        # at r = K - 2 mixing the r = K-3 and r = K-1 schemes wins
        assert ndt_cpc_fractional(7, 9).value < cpc_minimum(7, 9).value

    def test_midpoint_below_chord(self):
        r = Fraction(5, 2)
        chord = (cpc_minimum(2, 6).value + cpc_minimum(3, 6).value) / 2
        assert ndt_cpc_fractional(r, 6).value <= chord

    def test_near_full_load(self):
        K = 6
        val = ndt_cpc_fractional(Fraction(2 * K - 1, 2), K).value
        assert val <= cpc_minimum(K - 1, K).value / 2

    def test_domain(self):
        with pytest.raises(ParameterError):
            ndt_cpc_fractional(Fraction(1, 2), 6)


class TestHull:
    def test_hull_of_convex_points_keeps_all(self):
        pts = [(Fraction(i), Fraction(i * i)) for i in range(5)]
        assert lower_hull(pts) == pts

    def test_hull_drops_interior(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(5)), (Fraction(2), Fraction(0))]
        hull = lower_hull(pts)
        assert hull == [pts[0], pts[2]]
        assert hull_value(hull, Fraction(1)) == 0

    def test_interpolation(self):
        hull = [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))]
        assert hull_value(hull, Fraction(1)) == 1
        with pytest.raises(ParameterError):
            hull_value(hull, Fraction(3))


class TestLowerBound:
    def test_high_load_branch(self):
        m = lower_bound(3, 6)
        assert m.lb1 == Fraction(1, 12)
        assert m.lb2 == Fraction(1, 10)
        assert m.bound == Fraction(1, 10)

    def test_envelope_branch(self):
        m = lower_bound(2, 6)
        assert m.lb1 == Fraction(13, 90)
        assert m.lb2 == Fraction(2, 15)
        assert m.bound == Fraction(13, 90)
        assert m.envelope_at_r[3] == Fraction(1, 5)

    def test_unit_load_branch(self):
        m = lower_bound(1, 4)
        assert m.lb1 == Fraction(3, 8)
        assert m.bound == Fraction(3, 8)

    @pytest.mark.parametrize("K", range(2, 51))
    def test_coefficients_convex_and_nonincreasing(self, K):
        for t in range(1, K // 2 + 1):
            vals = [c_coefficient(K, t, i) for i in range(1, K + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(
                vals[i - 1] - vals[i] >= vals[i] - vals[i + 1]
                for i in range(1, K - 1)
            )

    def test_envelope_equals_the_lower_hull(self):
        for K in range(2, 21):
            hulls = {
                t: lower_hull([(Fraction(i), c_coefficient(K, t, i)) for i in range(1, K + 1)])
                for t in range(1, K // 2 + 1)
            }
            for num in range(6, 6 * K + 1):
                r = Fraction(num, 6)
                envelope = lower_bound(r, K).envelope_at_r
                assert envelope == {t: hull_value(h, r) for t, h in hulls.items()}, (K, r)

    def test_builds_no_table_and_no_hull(self, monkeypatch):
        calls = []

        def counted(K, t, i):
            calls.append((t, i))
            return c_coefficient(K, t, i)

        def refuse(*_args):
            raise AssertionError("lower_bound must not build a hull")

        monkeypatch.setattr(ndt, "c_coefficient", counted)
        monkeypatch.setattr(ndt, "lower_hull", refuse)
        monkeypatch.setattr(ndt, "hull_value", refuse)
        model = lower_bound(2, 50)
        assert len(calls) <= 2 * 25
        assert sorted(model.envelope_at_r) == list(range(1, 26))


class TestGap:
    def test_fixture_ratio(self):
        # the optimizer beats the illustration configuration at (3, 6):
        # 7/48 against 1/6, so the optimizer gap is 35/24 while the
        # illustration's own ratio is (1/6) / (1/10) = 5/3
        assert gap_ratio(3, 6) == Fraction(35, 24)
        assert ndt_cpc(3, 2, 6, 3).value / lower_bound(3, 6).bound == Fraction(5, 3)

    def test_unit_load_under_two(self):
        assert gap_ratio(1, 20) < 2

    def test_full_load_convention(self):
        assert gap_ratio(6, 6) == 1

    def test_grid_below_three(self):
        for K in range(2, 13):
            for r in range(1, K + 1):
                assert gap_ratio(r, K) < 3


class TestFractionalSandwich:
    def test_bound_below_envelope_at_half_integers(self):
        for K in range(3, 13):
            for num in range(2, 2 * K):
                r = Fraction(num, 2)
                assert lower_bound(r, K).bound <= ndt_cpc_fractional(r, K).value


class TestAsymptotics:
    def test_r2_trend(self):
        rep = asymptotics_check(2, [10, 50, 100, 500])
        assert rep.decreasing
        assert rep.final_value < Fraction(1, 100)
        assert rep.cdc_limit_gap <= Fraction(2, 1000)

    def test_crossover_predicate_matches_float(self):
        for r in range(1, 12):
            threshold = 2 * (r + 1 + math.sqrt(r * r + 1))
            for K in range(2, 60):
                assert fd_crossover_holds(r, K) == (K >= threshold or
                                                    abs(K - threshold) < 1e-9)

    def test_crossover_implies_beating_full_duplex(self):
        for r in range(1, 6):
            for K in range(r + 1, 41):
                if fd_crossover_holds(r, K):
                    assert cpc_t1_minimum(r, K) <= ndt_osl_fd(r, K).value


class TestDominance:
    @pytest.mark.parametrize("K", [35, 40])
    def test_holds_beyond_acceptance_grid(self, K):
        for r in range(1, K + 1):
            dbar = cpc_t1_minimum(r, K)
            assert dbar <= ndt_cdc(r, K).value <= ndt_osl_hd(r, K).value
            assert dbar <= ndt_bw_hd(r, K).value

    def test_equality_at_boundary(self):
        # r = K - 1 is the knife edge: exact tie with CDC
        for K in range(2, 12):
            assert cpc_t1_minimum(K - 1, K) == ndt_cdc(K - 1, K).value


class TestSchemePoint:
    def test_dispatch(self):
        assert scheme_point("CDC", 2, 50).value == Fraction(12, 25)
        assert scheme_point("CPC", 2, 50).K_r == 29
        assert scheme_point("LowerBound", 3, 6).value == Fraction(1, 10)
        with pytest.raises(ParameterError):
            scheme_point("nope", 2, 50)
