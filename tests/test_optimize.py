import argparse
import math
from fractions import Fraction

import pytest

from cpcshuffle import ndt
from cpcshuffle.cli import _sweep_grid
from cpcshuffle.model import (
    ConstraintViolation,
    ParameterError,
    SystemParams,
    check_config,
    validate_config,
)
from cpcshuffle.ndt import cpc_minimum, ndt_cpc
from cpcshuffle.optimize import (
    brute_force_min,
    closed_form_min,
    cross_validate,
    ndt1_value,
    ndt2_value,
    optimal_K_r,
    optimal_t,
    t1_optimal_regime,
)


class TestClosedForms:
    def test_cooperation_pays_at_high_load(self):
        n1, t_star = ndt1_value(5, 8)
        n2, K_r_star = ndt2_value(5, 8)
        assert (n1, t_star) == (Fraction(21, 320), 2)   # 0.065625
        assert (n2, K_r_star) == (Fraction(11, 160), 6)  # 0.06875
        best = closed_form_min(5, 8)
        assert best.best_value == Fraction(21, 320)
        assert best.branch == "NDT1" and best.t_star == 2

    def test_unit_load_receiver_split(self):
        assert optimal_K_r(1, 7) == 4
        assert closed_form_min(1, 7).best_value == brute_force_min(1, 7).best_value

    def test_fifty_nodes(self):
        assert optimal_K_r(2, 50) == 29
        n2, _ = ndt2_value(2, 50)
        assert abs(float(n2) - 0.0544) < 5e-4

    def test_exact_floor_beats_float_floor(self):
        # naive floor((A - isqrt(S)) / M) would give 30 here, not 29
        assert optimal_K_r(2, 50) == 29

    def test_optimal_t_formula(self):
        assert optimal_t(5, 8) == 2
        assert optimal_t(2, 50) == 2
        assert optimal_t(3, 6) == 2

    def test_full_load_sentinel(self):
        out = closed_form_min(4, 4)
        assert out.best_value == 0 and out.K_r_star == 0
        assert brute_force_min(4, 4).best_value == 0


class TestBruteForce:
    def test_worked_example_instance(self):
        # the illustration's (K_r=3, t=2) configuration achieves 1/6, but the
        # optimizer finds 7/48 at (K_r=4, t=1)
        assert ndt_cpc(3, 2, 6, 3).value == Fraction(1, 6)
        best = brute_force_min(3, 6)
        assert best.best_value == Fraction(7, 48)
        assert (best.K_r_star, best.t_star) == (4, 1)

    def test_tie_breaking_prefers_small_K_r_then_t(self, monkeypatch):
        calls = []
        real = ndt._cpc_pair

        def recording_cpc_pair(r, t, K, K_r, s):
            calls.append((K_r, t))
            return real(r, t, K, K_r, s)

        monkeypatch.setattr(ndt, "_cpc_pair", recording_cpc_pair)
        for K in range(2, 16):
            for r in range(1, K):
                calls.clear()
                best = brute_force_min(r, K)
                scanned = list(calls)  # the ndt_cpc calls below use the same seam
                values = {}  # hand-filtered reference: (K_r, t) -> NDT
                for K_r in range(1, K):
                    for t in range(1, r + 1):
                        s = r + 1 - t
                        if s > K_r or t > K - K_r:
                            continue
                        v = ndt_cpc(r, t, K, K_r).value
                        values[(K_r, t)] = v
                        assert v >= best.best_value
                        if v == best.best_value:
                            assert (K_r, t) >= (best.K_r_star, best.t_star)
                assert list(values) == _accepted(K, r)
                # the scan visits (r, 1), every accepted t at K_r = r + 1
                # and the first accepted t of each row K_r >= r + 2; the
                # monotone-in-t rule rules out the rest
                first = {}
                for K_r, t in values:
                    first.setdefault(K_r, t)
                visits = [(r, 1)] + [(K_r, t) for K_r, t in values if K_r == r + 1]
                visits += [(K_r, t) for K_r, t in first.items() if K_r >= r + 2]
                assert scanned == visits
                # both validators reject the rest, naming the same inequality
                params = SystemParams(K=K, N=math.comb(K, r), Q=K, r=r, B=8)
                for K_r, t in set(_box(K, r)) - set(values):
                    with pytest.raises(ConstraintViolation) as via_model:
                        validate_config(params, K_r, t)
                    with pytest.raises(ConstraintViolation) as via_ndt:
                        ndt_cpc(r, t, K, K_r)
                    assert via_model.value.constraint == via_ndt.value.constraint
                # one coordinate pinned, in range or not
                for K_r in range(0, K + 2):
                    _assert_pinned_minimum(r, K, values, K_r=K_r)
                for t in range(0, r + 2):
                    _assert_pinned_minimum(r, K, values, t=t)

    def test_monotone_in_load(self):
        for K in range(2, 21):
            vals = [brute_force_min(r, K).best_value for r in range(1, K + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_boundary_r_is_k_minus_one(self):
        for K in range(2, 15):
            best = brute_force_min(K - 1, K)
            closed = closed_form_min(K - 1, K)
            assert best.best_value == closed.best_value
            assert best.best_value == Fraction(1, (K - 1) * K)


def _box(K, r):
    """Every (K_r, t) the rule could accept, with a margin on each side."""
    return [(K_r, t) for K_r in range(-1, K + 2) for t in range(-1, r + 3)]


def _accepted(K, r):
    accepted = []
    for K_r, t in _box(K, r):
        try:
            check_config(K, r, K_r, t)
        except ConstraintViolation:
            continue
        accepted.append((K_r, t))
    return accepted


def _assert_pinned_minimum(r, K, values, **pin):
    """cpc_minimum with one pin is the minimum over the hand-filtered pairs
    that match it, ties on the smaller K_r, then the smaller t."""
    (name, fixed), = pin.items()
    index = 0 if name == "K_r" else 1
    matching = {pair: v for pair, v in values.items() if pair[index] == fixed}
    if not matching:
        with pytest.raises(ParameterError):
            cpc_minimum(r, K, **pin)
        return
    low = min(matching.values())
    point = cpc_minimum(r, K, **pin)
    assert point.value == low
    assert (point.K_r, point.t) == min(p for p, v in matching.items() if v == low)


class TestT1Regime:
    def test_examples(self):
        assert t1_optimal_regime(5, 8) is False
        assert t1_optimal_regime(2, 5) is True
        assert t1_optimal_regime(3, 20) is True
        assert brute_force_min(3, 20).t_star == 1

    def test_regime_forces_t1(self):
        for K in range(2, 31):
            for r in range(1, K):
                if t1_optimal_regime(r, K):
                    best = brute_force_min(r, K)
                    assert best.t_star == 1 or best.r == best.K  # sentinel aside
                    if r < K:
                        n2, _ = ndt2_value(r, K)
                        assert best.best_value == n2

    def test_unit_load_always_qualifies(self):
        assert t1_optimal_regime(1, 100) is True

    def test_rejects_r_outside_one_to_K(self):
        assert t1_optimal_regime(5, 5) is True
        assert t1_optimal_regime(8, 8) is False
        for r, K in [(5, 3), (0, 6), (-1, 6)]:
            with pytest.raises(ParameterError):
                t1_optimal_regime(r, K)


class TestReportedParamsAchieveValue:
    def test_closed_form_params_are_real_configs(self):
        # the (K_r*, t*) pair reported must evaluate to the reported value;
        # enforced inside closed_form_min, swept here
        for K in range(2, 31):
            for r in range(1, K):
                out = closed_form_min(r, K)
                assert ndt_cpc(r, out.t_star, K, out.K_r_star).value == out.best_value

    def test_brute_force_params_achieve_value(self):
        for K in range(2, 21):
            for r in range(1, K):
                out = brute_force_min(r, K)
                assert ndt_cpc(r, out.t_star, K, out.K_r_star).value == out.best_value


class TestCrossValidation:
    def test_small_grid_clean(self):
        report = cross_validate(12)
        assert all(cell["agree"] for cell in report)
        assert len(report) == sum(K - 1 for K in range(2, 13))

    def test_grid_bound_is_checked(self):
        assert [(c["r"], c["K"], c["agree"]) for c in cross_validate(2)] == [(1, 2, True)]
        for k_max in (1, 0, -5, 51):
            with pytest.raises(ParameterError):
                cross_validate(k_max)

    def test_preset_cells_past_forty_agree(self):
        # every fig2-fig4 cell above K = 40, which cross_validate(40) misses
        cells = {
            (r, K)
            for preset in ("fig2", "fig3", "fig4")
            for r, K, _t, _all in _sweep_grid(argparse.Namespace(preset=preset))
            if 40 < K and r < K
        }
        assert len(cells) == 85
        for r, K in sorted(cells):
            assert brute_force_min(r, K).best_value == closed_form_min(r, K).best_value, (r, K)

    def test_single_point(self):
        brute = brute_force_min(5, 8)
        closed = closed_form_min(5, 8)
        assert brute.best_value == closed.best_value == Fraction(21, 320)
