"""Minimize the scheme NDT over (K_r, t): exact scan vs closed forms.

The closed forms come in two branches: NDT1 fixes K_r = r + 1 and picks
the best cooperation size t*, NDT2 fixes t = 1 and picks the best
receiver-group size K_r* from an exact integer-floored root expression.
`cross_validate` checks the minimum of the two against the exact
scan over the whole (r, K) grid, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import ParameterError, check_load
from .ndt import cpc_minimum, ndt_cpc

NDT1 = "NDT1"
NDT2 = "NDT2"
TIE = "tie"


@dataclass(frozen=True)
class OptimumParams:
    r: int
    K: int
    best_value: Fraction
    K_r_star: int
    t_star: int
    branch: str | None = None


def _floor_sub_sqrt(A: int, S: int, M: int) -> int:
    """floor((A - sqrt(S)) / M) computed without floating point.

    q is feasible iff q*M <= A - sqrt(S), i.e. A - q*M >= 0 and
    (A - q*M)^2 >= S; return the largest feasible q.
    """
    if M <= 0 or S < 0:
        raise ParameterError("need M > 0 and S >= 0")

    def feasible(q: int) -> bool:
        rest = A - q * M
        return rest >= 0 and rest * rest >= S

    q = (A - math.isqrt(S)) // M
    while not feasible(q):
        q -= 1
    while feasible(q + 1):
        q += 1
    return q


def optimal_t(r: int, K: int) -> int:
    """t* = floor(1 + (-r^2 + rK - r)/K), the best cooperation size at K_r = r+1."""
    return 1 + (-r * r + r * K - r) // K


def optimal_K_r(r: int, K: int) -> int:
    """K_r*, the best receiver-group size at t = 1 (exact integer floor)."""
    if r == 1:
        return (K + 1) // 2
    # floor(( (2rK - r - 1) - sqrt(4r(K-1)(K-r) + (r-1)^2) ) / (2(r-1)))
    A = 2 * r * K - r - 1
    S = 4 * r * (K - 1) * (K - r) + (r - 1) ** 2
    return _floor_sub_sqrt(A, S, 2 * (r - 1))


def ndt1_value(r: int, K: int) -> tuple[Fraction | None, int]:
    """NDT1 and its t*; None when K_r = r + 1 admits no transmitter group."""
    t_star = optimal_t(r, K)
    denom = math.comb(r, t_star) * math.comb(K - r - 1, t_star) * t_star
    if denom == 0:
        return None, t_star
    value = Fraction(1, r + 1) * (1 - Fraction(r, K)) * (1 + Fraction(1, denom))
    return value, t_star


def ndt2_value(r: int, K: int) -> tuple[Fraction, int]:
    """NDT2 and its K_r* (the t = 1 branch)."""
    K_r = optimal_K_r(r, K)
    K_t = K - K_r
    value = (
        Fraction(1, r)
        * (1 - Fraction(r, K))
        * Fraction(K_t * r + K_r - r, K_t * K_r)
    )
    return value, K_r


def brute_force_min(r: int, K: int) -> OptimumParams:
    """Argmin over all valid (K_r, t), by exact comparisons.

    `cpc_minimum` evaluates only the pairs its monotone-in-t rule does not
    rule out; the minimum is still the one over every valid pair.  Ties
    prefer smaller K_r, then smaller t.  r = K returns the no-shuffle
    sentinel (value 0, K_r = t = 0).  It names no branch (`branch` is
    None); `closed_form_min` does.
    """
    point = cpc_minimum(r, K)
    return OptimumParams(r, K, point.value, point.K_r, point.t)


def closed_form_min(r: int, K: int) -> OptimumParams:
    """min(NDT1, NDT2) with the argmin parameters; ties report `tie`."""
    check_load(r, K)
    if r == K:
        return OptimumParams(r, K, Fraction(0), 0, 0)
    n1, t_star = ndt1_value(r, K)
    n2, K_r_star = ndt2_value(r, K)
    if n1 is None or n2 < n1:
        out = OptimumParams(r, K, n2, K_r_star, 1, branch=NDT2)
    elif n1 < n2:
        out = OptimumParams(r, K, n1, r + 1, t_star, branch=NDT1)
    else:
        out = OptimumParams(r, K, n1, K_r_star, 1, branch=TIE)
    # the reported parameters must actually achieve the reported value
    achieved = ndt_cpc(r, out.t_star, K, out.K_r_star).value
    if achieved != out.best_value:
        raise AssertionError(
            f"closed form reports {out.best_value} but (K_r={out.K_r_star}, "
            f"t={out.t_star}) achieves {achieved} at r={r}, K={K}"
        )
    return out


def t1_optimal_regime(r: int, K: int) -> bool:
    """True when t = 1 is provably optimal: K <= 5 or K past both exact
    thresholds r+4+4/(r-1) and (r+4+sqrt(r^2+16r))/2.  r = 1 always
    qualifies (t has no other choice)."""
    check_load(r, K)
    if r == 1 or K <= 5:
        return True
    cond1 = (K - r - 4) * (r - 1) >= 4
    lhs = 2 * K - r - 4
    cond2 = lhs >= 0 and lhs * lhs >= r * r + 16 * r
    return cond1 and cond2


def cross_validate(K_max: int) -> list[dict]:
    """Compare closed form against brute force on 2 <= K <= K_max,
    1 <= r <= K-1; raise with a witness on the first mismatch."""
    if K_max < 2:
        raise ParameterError(f"cross-validation grid needs K_max >= 2, got {K_max}")
    if K_max > 50:
        raise ParameterError("cross-validation grid is capped at K_max = 50")
    report = []
    for K in range(2, K_max + 1):
        for r in range(1, K):
            brute = brute_force_min(r, K)
            closed = closed_form_min(r, K)
            agree = brute.best_value == closed.best_value
            report.append(
                {
                    "r": r,
                    "K": K,
                    "brute": str(brute.best_value),
                    "closed": str(closed.best_value),
                    "K_r": closed.K_r_star,
                    "t": closed.t_star,
                    "agree": agree,
                }
            )
            if not agree:
                raise AssertionError(
                    f"closed form {closed.best_value} != brute force "
                    f"{brute.best_value} at r={r}, K={K} "
                    f"(brute argmin K_r={brute.K_r_star}, t={brute.t_star})"
                )
    return report
