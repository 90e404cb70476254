import hashlib
import math
from fractions import Fraction

import pytest

from cpcshuffle import ndt
from cpcshuffle.model import ConstraintViolation, ParameterError, check_config, config_violation
from cpcshuffle.ndt import (
    c_coefficient,
    cpc_minimum,
    delivery_dof,
    fd_crossover_holds,
    gap_ratio,
    lower_bound,
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


# Readable Fraction transcriptions of d', tau, the delivery DoF, the scheme
# NDT and its scan. The module computes the NDT once, as load over DoF on
# integer pairs; the paper's piecewise NDT and the binomial form of d' live
# only here, each asserted equal to the form the module uses.

def _ref_dprime(s, t, K_t, K_r):
    """d' by the full t' loop, and the loop's winning unreduced (n, d) pair:
    the first t' that reaches the maximum."""
    best, pair = Fraction(0), None
    for tp in range(1, t + 1):
        n = s * (K_t - tp + 1)
        d = n + (K_r - s - tp + 1)
        simple = Fraction(n, d)
        num = math.comb(K_r - 1, s - 1) * math.comb(K_t, tp) * math.comb(K_r - s, tp - 1) * tp
        den = num + math.comb(K_r - 1, s) * math.comb(K_r - s - 1, tp - 1) * math.comb(K_t, tp - 1)
        assert simple == Fraction(num, den)
        if simple > best:
            best, pair = simple, (n, d)
    return best, pair


def _ref_tau_factor(r, t, K, K_r):
    return max(
        Fraction((r + 1 - t) * (K - K_r - j + 1),
                 (r + 1 - t) * (K - K_r - j + 1) + (K_r + t - r - j))
        for j in range(1, t + 1)
    )


def _ref_delivery_dof(s, t, K_t, K_r):
    check_config(K_t + K_r, s + t - 1, K_r, t)
    if s + t >= K_r + 1:
        return Fraction(1)
    if s + t == K_r:
        a = math.comb(K_r - 1, s - 1) * math.comb(K_t, t) * t
        return Fraction(a, a + 1)
    return max(_ref_dprime(s, t, K_t, K_r)[0], Fraction(s + t - 1, K_r))


def _ref_ndt_cpc(r, t, K, K_r):
    s = check_config(K, r, K_r, t)
    base = Fraction(1, K_r) * (1 - Fraction(r, K))
    if r >= K_r:
        value = base
    elif r == K_r - 1:
        value = base * (1 + Fraction(1, math.comb(r, t) * math.comb(K - K_r, t) * t))
    else:
        value = base * min(1 / _ref_tau_factor(r, t, K, K_r), Fraction(K_r, r))
    assert value == base / _ref_delivery_dof(s, t, K - K_r, K_r)
    return ndt.NdtPoint(ndt.CPC, K, Fraction(r), value, K_r=K_r, t=t, s=s)


def _ref_minimum(r, K, t=None):
    if r == K:
        if t is not None:
            return None
        return ndt.NdtPoint(ndt.CPC, K, Fraction(r), Fraction(0), K_r=0, t=0, s=0)
    best = None
    for kr in range(1, K + 1):
        for tt in range(1, r + 1) if t is None else (t,):
            if config_violation(K, r, kr, tt) is None:
                point = _ref_ndt_cpc(r, tt, K, kr)
                if best is None or point.value < best.value:
                    best = point
    return best


class TestIntegerPairKernel:
    # K <= 50: the grid of the fig2-fig5 presets and cross_validate(40)
    @pytest.mark.parametrize("K", range(2, 51))
    def test_formulas_equal_the_fraction_reference(self, K):
        for r in range(1, K):
            for K_r in range(1, K + 1):
                for t in range(1, r + 1):
                    if config_violation(K, r, K_r, t) is not None:
                        continue
                    s, K_t = r + 1 - t, K - K_r
                    assert ndt_cpc(r, t, K, K_r) == _ref_ndt_cpc(r, t, K, K_r)
                    assert delivery_dof(s, t, K_t, K_r) == _ref_delivery_dof(s, t, K_t, K_r)
                    if s + t < K_r:
                        dprime, pair = _ref_dprime(s, t, K_t, K_r)
                        assert Fraction(*ndt._dprime_pair(s, t, K_t, K_r)) == dprime
                        # the closed form picks the loop's t', not just its value
                        assert ndt._dprime_pair(s, t, K_t, K_r) == pair

    @pytest.mark.parametrize("K", range(2, 31))
    def test_scan_equals_the_fraction_reference(self, K):
        for r in range(1, K + 1):
            for t in (None, 1, 2, 3):
                expected = _ref_minimum(r, K, t)
                if expected is None:
                    with pytest.raises(ParameterError):
                        cpc_minimum(r, K, t=t)
                else:
                    assert cpc_minimum(r, K, t=t) == expected

    def test_full_load_refuses_every_pin(self):
        # r = K has no valid (K_r, t): a pin is refused with the text the
        # CLI gives there, and the unpinned scan keeps its value-0 sentinel
        for pin, named in (({"t": 7}, "t=7"), ({"K_r": 9}, "K_r=9"), ({"K_r": 2, "t": 1}, "K_r=2, t=1")):
            with pytest.raises(ParameterError) as refused:
                cpc_minimum(4, 4, **pin)
            assert str(refused.value) == f"no valid configuration with {named} for r=4, K=4"
        assert cpc_minimum(4, 4) == ndt.NdtPoint(ndt.CPC, 4, Fraction(4), Fraction(0), K_r=0, t=0, s=0)

    # (r, t, K, K_r) in the r >= K_r, r = K_r - 1 and r < K_r - 1 branches
    # of the reference's piecewise NDT: a drifted DoF transcription must
    # show as a difference from the reference in each
    @pytest.mark.parametrize("config", [(3, 2, 6, 3), (2, 1, 6, 3), (2, 1, 6, 4)])
    def test_load_dof_guard_fires_in_each_branch(self, monkeypatch, config):
        r, t, K, K_r = config
        expected = _ref_ndt_cpc(r, t, K, K_r)
        assert ndt_cpc(r, t, K, K_r) == expected
        assert cpc_minimum(r, K, K_r=K_r, t=t) == expected
        real = ndt._dof_pair

        def drifted(s, t, K_t, K_r):
            n, d = real(s, t, K_t, K_r)
            return n, d + 1

        monkeypatch.setattr(ndt, "_dof_pair", drifted)
        assert ndt_cpc(r, t, K, K_r).value != expected.value
        assert cpc_minimum(r, K, K_r=K_r, t=t).value != expected.value
        assert cpc_minimum(r, K).value != _ref_minimum(r, K).value

    def test_scan_builds_no_fraction_outside_its_points(self, monkeypatch):
        # the scan compares integer pairs; only the winner's r and value
        # become Fractions, and only the winner becomes an NdtPoint
        fractions, points = [], []
        real_point = ndt.NdtPoint

        def counted_fraction(*args):
            fractions.append(args)
            return Fraction(*args)

        def counted_point(*args, **kwargs):
            points.append(args)
            return real_point(*args, **kwargs)

        monkeypatch.setattr(ndt, "Fraction", counted_fraction)
        monkeypatch.setattr(ndt, "NdtPoint", counted_point)
        for r in range(1, 50):
            fractions.clear()
            points.clear()
            cpc_minimum(r, 50)
            assert len(fractions) == 2
            assert len(points) == 1

    def test_unreduced_ties_compare_equal(self):
        # (r, K) = (1, 3): 2/3 and 4/6 tie; the smaller K_r wins, reduced
        assert ndt._cpc_pair(1, 1, 3, 1, 1) == (2, 3)
        assert ndt._cpc_pair(1, 1, 3, 2, 1) == (4, 6)
        best = cpc_minimum(1, 3)
        assert (best.K_r, best.t, best.s) == (1, 1, 1)
        assert best.value == Fraction(2, 3)
        # (r, K) = (2, 4): (K_r, t) = (2, 1), (2, 2) and (3, 1) tie
        assert ndt._cpc_pair(2, 1, 4, 2, 2) == (2, 8)
        assert ndt._cpc_pair(2, 2, 4, 2, 1) == (2, 8)
        assert ndt._cpc_pair(2, 1, 4, 3, 2) == (6, 24)
        best = cpc_minimum(2, 4)
        assert (best.K_r, best.t) == (2, 1)
        assert best.value == Fraction(1, 4)

    def test_value_never_falls_in_t_away_from_K_r_r_plus_1(self):
        # the rule that lets cpc_minimum evaluate one t per row: in every
        # accepted row but K_r = r + 1 the value never falls as t grows,
        # and rows K_r <= r are flat at the load (K - r)/(K K_r)
        for K in range(2, 31):
            for r in range(1, K):
                for K_r in range(1, K + 1):
                    row = [ndt_cpc(r, t, K, K_r).value for t in range(1, r + 1)
                           if config_violation(K, r, K_r, t) is None]
                    if K_r <= r:
                        assert row == [Fraction(K - r, K * K_r)] * len(row)
                    elif K_r >= r + 2:
                        assert all(a <= b for a, b in zip(row, row[1:]))
        # the exception is needed: at (K, r, K_r) = (7, 2, 3) the row's
        # minimum is its last t, not its first
        row = [ndt_cpc(2, t, 7, 3).value for t in (1, 2)]
        assert row == [Fraction(15, 56), Fraction(65, 252)]
        assert cpc_minimum(2, 7, K_r=3).t == 2

    def test_scan_returns_its_winners_point(self):
        for K in range(2, 31):
            for r in range(1, K):
                best = cpc_minimum(r, K)
                assert best == ndt_cpc(r, best.t, K, best.K_r)


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

    def test_envelope_digest(self):
        # pins the envelope on the 1/2 and 1/3 load grids, 2 <= K <= 12
        rows = []
        for K in range(2, 13):
            for r in sorted({Fraction(n, d) for d in (2, 3) for n in range(d, d * K + 1)}):
                rows.append(f"{K},{r},{ndt_cpc_fractional(r, K).value}\n")
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == "419109c96e4e4a716883a93be787687de24e399bef619aee535eb0f9aca7f63f"


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

    def test_coefficient_rejects_t_outside_1_to_K(self):
        # t = 5 > K = 3 used to raise a bare ZeroDivisionError, t <= 0 gave 0
        for K, t, i in [(3, 5, 2), (3, 4, 1), (3, 0, 1), (3, -1, 2), (6, 7, 1)]:
            with pytest.raises(ParameterError, match=f"got t={t}, i={i}"):
                c_coefficient(K, t, i)
        assert c_coefficient(3, 3, 2) == 0 and c_coefficient(3, 1, 1) == Fraction(2, 3)

    def test_envelope_equals_the_least_chord(self):
        for K in range(2, 21):
            coefficients = {
                t: [c_coefficient(K, t, i) for i in range(1, K + 1)]
                for t in range(1, K // 2 + 1)
            }
            for num in range(6, 6 * K + 1):
                r = Fraction(num, 6)
                envelope = lower_bound(r, K).envelope_at_r
                expected = {t: ndt._least_chord(f, r) for t, f in coefficients.items()}
                assert envelope == expected, (K, r)

    def test_builds_no_table_and_no_hull(self, monkeypatch):
        calls = []

        def counted(K, t, i):
            calls.append((t, i))
            return c_coefficient(K, t, i)

        def refuse(*_args):
            raise AssertionError("lower_bound must not scan chords")

        monkeypatch.setattr(ndt, "c_coefficient", counted)
        monkeypatch.setattr(ndt, "_least_chord", refuse)
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
                    assert cpc_minimum(r, K, t=1).value <= ndt_osl_fd(r, K).value


class TestDominance:
    @pytest.mark.parametrize("K", [35, 40])
    def test_holds_beyond_acceptance_grid(self, K):
        for r in range(1, K + 1):
            # r = K refuses a pin: the scheme's value there is the unpinned 0
            dbar = cpc_minimum(r, K, t=1 if r < K else None).value
            assert dbar <= ndt_cdc(r, K).value <= ndt_osl_hd(r, K).value
            assert dbar <= ndt_bw_hd(r, K).value

    def test_equality_at_boundary(self):
        # r = K - 1 is the knife edge: exact tie with CDC
        for K in range(2, 12):
            assert cpc_minimum(K - 1, K, t=1).value == ndt_cdc(K - 1, K).value


class TestSchemePoint:
    def test_dispatch(self):
        assert scheme_point("CDC", 2, 50).value == Fraction(12, 25)
        assert scheme_point("CPC", 2, 50).K_r == 29
        assert scheme_point("LowerBound", 3, 6).value == Fraction(1, 10)
        with pytest.raises(ParameterError):
            scheme_point("nope", 2, 50)
