"""Closed-form normalized-delivery-time analytics, all in exact rationals.

Covers the baseline schemes (uncoded TDMA, CDC, one-shot linear and BW in
full- and half-duplex form), the per-receiver DoF of the cooperative
X-multicast channel, the coded-parallel scheme's piecewise NDT with its
fractional-load envelope, the information-theoretic lower bound, and the
achievable-to-bound gap.  Values are Fractions end to end; dominance and
sandwich comparisons downstream are knife-edge equalities at boundaries
(for example r = K - 1), so nothing here touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import ParameterError, check_config, config_violation

UNCODED_TDMA = "UncodedTDMA"
CDC = "CDC"
OSL_FD = "OSL_FD"
OSL_HD = "OSL_HD"
BW_FD = "BW_FD"
BW_HD = "BW_HD"
CPC = "CPC"
LOWER_BOUND = "LowerBound"


@dataclass(frozen=True)
class NdtPoint:
    scheme: str
    K: int
    r: Fraction
    value: Fraction
    K_r: int | None = None
    t: int | None = None
    s: int | None = None

    def csv_row(self) -> list:
        return [
            self.scheme,
            self.K,
            str(self.r),
            self.K_r if self.K_r is not None else "",
            self.t if self.t is not None else "",
            str(self.value),
        ]


def _check_domain(r, K: int) -> Fraction:
    r = Fraction(r)
    if not 1 <= r <= K:
        raise ParameterError(f"r must lie in [1, K={K}], got {r}")
    return r


def ndt_uncoded(r, K: int) -> NdtPoint:
    """Each node broadcasts its raw IVs in turn: 1 - r/K."""
    r = _check_domain(r, K)
    return NdtPoint(UNCODED_TDMA, K, r, 1 - r / K)


def ndt_cdc(r, K: int) -> NdtPoint:
    """Coded multicast over a shared link: (1/r)(1 - r/K)."""
    r = _check_domain(r, K)
    return NdtPoint(CDC, K, r, (1 - r / K) / r)


def ndt_osl_fd(r, K: int) -> NdtPoint:
    """One-shot linear delivery, full duplex: (1 - r/K)/min(K, 2r)."""
    r = _check_domain(r, K)
    return NdtPoint(OSL_FD, K, r, (1 - r / K) / min(Fraction(K), 2 * r))


def ndt_osl_hd(r, K: int) -> NdtPoint:
    """Half-duplex conversion of the one-shot linear scheme (factor 2)."""
    r = _check_domain(r, K)
    return NdtPoint(OSL_HD, K, r, 2 * (1 - r / K) / min(Fraction(K), 2 * r))


def _bw_factor(r: Fraction, K: int) -> Fraction:
    if 2 * r >= K:
        return Fraction(1, K)
    return Fraction(r * (K - 1) + K - r - 1, r * (K - 1) ** 2 + r * (K - 2))


def ndt_bw_fd(r, K: int) -> NdtPoint:
    """Full-duplex cooperative-alignment baseline, piecewise at r = K/2."""
    r = _check_domain(r, K)
    return NdtPoint(BW_FD, K, r, (1 - r / K) * _bw_factor(r, K))


def ndt_bw_hd(r, K: int) -> NdtPoint:
    """Factor-2 half-duplex conversion of the BW baseline (a comparison
    convention, not a constructed half-duplex scheme)."""
    r = _check_domain(r, K)
    return NdtPoint(BW_HD, K, r, 2 * (1 - r / K) * _bw_factor(r, K))


def _dprime(s: int, t: int, K_t: int, K_r: int) -> Fraction:
    """Neutralize-then-align DoF, maximized over the sub-cooperation size t'.

    Computed from both the simplified fraction and the raw binomial ratio;
    the two must agree term by term (guards transcription drift).
    """
    best = Fraction(0)
    for tp in range(1, t + 1):
        simple = Fraction(
            s * (K_t - tp + 1), s * (K_t - tp + 1) + (K_r - s - tp + 1)
        )
        num = (
            math.comb(K_r - 1, s - 1)
            * math.comb(K_t, tp)
            * math.comb(K_r - s, tp - 1)
            * tp
        )
        den = num + (
            math.comb(K_r - 1, s)
            * math.comb(K_r - s - 1, tp - 1)
            * math.comb(K_t, tp - 1)
        )
        binomial = Fraction(num, den)
        if simple != binomial:
            raise AssertionError(
                f"DoF forms disagree at t'={tp}: {simple} vs {binomial}"
            )
        best = max(best, simple)
    return best


def delivery_dof(s: int, t: int, K_t: int, K_r: int) -> Fraction:
    """The analytics' claimed per-receiver DoF of the C(K_t,t) x C(K_r,s)
    cooperative X-multicast channel: 1 when s+t > K_r, an alignment
    fraction a/(a+1) at s+t = K_r, and max(d', (s+t-1)/K_r) below that.

    `verify` reports it as `claimed_dof`, and the scheme NDT is built on
    it.  It is not what the channel engine realizes: that is
    min(K_r, s+t-1)/K_r, so the two differ wherever d' wins and at
    s+t = K_r.
    """
    check_config(K_t + K_r, s + t - 1, K_r, t)  # K = K_t + K_r, r = s + t - 1
    if s + t >= K_r + 1:
        return Fraction(1)
    if s + t == K_r:
        a = math.comb(K_r - 1, s - 1) * math.comb(K_t, t) * t
        return Fraction(a, a + 1)
    return max(_dprime(s, t, K_t, K_r), Fraction(s + t - 1, K_r))


def tau_factor(r: int, t: int, K: int, K_r: int) -> Fraction:
    """max over j in [1..t] of 1 / (1 + (K_r+t-r-j) / ((r+1-t)(K-K_r-j+1)))."""
    best = Fraction(0)
    for j in range(1, t + 1):
        best = max(
            best,
            Fraction((r + 1 - t) * (K - K_r - j + 1),
                     (r + 1 - t) * (K - K_r - j + 1) + (K_r + t - r - j)),
        )
    return best


def ndt_cpc(r: int, t: int, K: int, K_r: int) -> NdtPoint:
    """Per-configuration NDT of the coded parallel scheme, three cases in K_r.

    Also recomputed as (1/K_r)(1 - r/K) / delivery DoF; the two must match
    exactly (load-over-DoF identity).
    """
    s = check_config(K, r, K_r, t)
    base = Fraction(1, K_r) * (1 - Fraction(r, K))
    if r >= K_r:
        value = base
    elif r == K_r - 1:
        value = base * (1 + Fraction(1, math.comb(r, t) * math.comb(K - K_r, t) * t))
    else:
        value = base * min(1 / tau_factor(r, t, K, K_r), Fraction(K_r, r))
    check = base / delivery_dof(s, t, K - K_r, K_r)
    if value != check:
        raise AssertionError(
            f"NDT piecewise form {value} disagrees with load/DoF form {check} "
            f"at r={r}, t={t}, K={K}, K_r={K_r}"
        )
    return NdtPoint(CPC, K, Fraction(r), value, K_r=K_r, t=t, s=s)


def cpc_minimum(r: int, K: int, K_r: int | None = None, t: int | None = None) -> NdtPoint:
    """Exhaustive minimum of ndt_cpc over the (K_r, t) the model rule
    accepts, with either coordinate optionally pinned; ties prefer the
    smaller K_r, then the smaller t.  r = K needs no shuffle: value 0 with
    sentinel K_r = 0."""
    if not 1 <= r <= K:
        raise ParameterError(f"r must lie in [1, K={K}], got {r}")
    if r == K:
        return NdtPoint(CPC, K, Fraction(r), Fraction(0), K_r=0, t=0, s=0)
    best: NdtPoint | None = None
    for kr in range(1, K + 1) if K_r is None else (K_r,):
        for tt in range(1, r + 1) if t is None else (t,):
            if config_violation(K, r, kr, tt) is not None:
                continue
            point = ndt_cpc(r, tt, K, kr)
            if best is None or point.value < best.value:
                best = point
    if best is None:
        raise ParameterError(f"no valid configuration with K_r={K_r}, t={t} for r={r}, K={K}")
    return best


def cpc_t1_minimum(r: int, K: int) -> Fraction:
    """The t = 1 restriction of the scheme, minimized over K_r."""
    return cpc_minimum(r, K, t=1).value


def lower_hull(points: Sequence[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Lower convex hull of points with strictly increasing x, exact."""
    hull: list[tuple[Fraction, Fraction]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep hull turning upward: drop middle point when it is above
            # (or on) the chord from hull[-2] to p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_value(hull: Sequence[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Evaluate a lower hull at x by linear interpolation."""
    if not hull[0][0] <= x <= hull[-1][0]:
        raise ParameterError(f"x={x} outside hull domain [{hull[0][0]}, {hull[-1][0]}]")
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            if x == x1:
                return y1
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return hull[-1][1]


def ndt_cpc_fractional(r, K: int) -> NdtPoint:
    """Memory-share the scheme across floor(r) and ceil(r): the lower convex
    envelope of the integer-load optima, evaluated at rational r."""
    r = _check_domain(r, K)
    pts = [(Fraction(rho), cpc_minimum(rho, K).value) for rho in range(1, K + 1)]
    value = hull_value(lower_hull(pts), r)
    return NdtPoint(CPC, K, r, value)


def c_coefficient(K: int, t: int, i: int) -> Fraction:
    """C_t(i): cut-set coefficient of the converse bound, zero past i = t."""
    if not 1 <= i <= K:
        raise ParameterError(f"i must lie in [1, K={K}], got {i}")
    if i > t:
        return Fraction(0)
    return Fraction(math.comb(K - i, t - i) * (K - t), math.comb(K, t) * t)


@dataclass(frozen=True)
class LowerBoundModel:
    K: int
    r: Fraction
    envelope_at_r: dict[int, Fraction]
    lb1: Fraction
    lb2: Fraction

    @property
    def bound(self) -> Fraction:
        return max(self.lb1, self.lb2)


def lower_bound(r, K: int) -> LowerBoundModel:
    """Information-theoretic NDT lower bound: max of the cut-set bound lb1
    (three branches in r, with a per-t lower convex envelope of C_t) and
    the max-DoF bound lb2 = (1-r/K)/(K-1).

    The envelope of C_t at r is the chord between i = floor(r) and
    i = ceil(r), because C_t is already convex and non-increasing in i.
    For i < t, consecutive differences of C_t shrink by the factor
    (K-i-1)/(t-i) >= 1; at i = t they fall from K-t to 1 (in units of
    C_t(t)), and they are 0 after that.
    """
    r = _check_domain(r, K)
    if K < 2:
        raise ParameterError("lower bound needs K >= 2")
    lo, hi = math.floor(r), math.ceil(r)
    envelope_at_r: dict[int, Fraction] = {}
    for t in range(1, K // 2 + 1):
        c_lo, c_hi = c_coefficient(K, t, lo), c_coefficient(K, t, hi)
        envelope_at_r[t] = c_lo + (r - lo) * (c_hi - c_lo)

    if r == 1:
        lb1 = Fraction(1, K) * (2 - Fraction(2, K))
    elif r < math.ceil(Fraction(K, 2)):
        lb1 = Fraction(1, K) * (1 - r / K + max(envelope_at_r.values()))
    else:
        lb1 = Fraction(1, K) * (1 - r / K)
    lb2 = Fraction(1, K - 1) * (1 - r / K)
    return LowerBoundModel(K=K, r=r, envelope_at_r=envelope_at_r, lb1=lb1, lb2=lb2)


def gap_ratio(r, K: int) -> Fraction:
    """Achievable optimum over the lower bound; 1 at r = K by convention
    (both sides vanish)."""
    r = _check_domain(r, K)
    if r == K:
        return Fraction(1)
    return _cpc_point(r, K).value / lower_bound(r, K).bound


def fd_crossover_holds(r: int, K: int) -> bool:
    """Exact test of K >= 2(r + 1 + sqrt(r^2 + 1)), where the half-duplex
    scheme already beats the full-duplex one-shot baseline."""
    lhs = K - 2 * r - 2
    return lhs >= 0 and lhs * lhs >= 4 * (r * r + 1)


@dataclass(frozen=True)
class TrendReport:
    r: int
    rows: tuple[tuple[int, Fraction, Fraction, Fraction], ...]  # (K, cpc_t1, cdc, osl_hd)
    decreasing: bool
    final_value: Fraction
    cdc_limit_gap: Fraction  # |cdc(last K) - 1/r|


def asymptotics_check(r: int, k_values: Iterable[int]) -> TrendReport:
    """Track the t = 1 scheme against CDC and half-duplex OSL along a K
    ladder: the scheme value must eventually fall toward zero while the
    baselines flatten out at 1/r."""
    ks = sorted(set(k_values))
    rows = []
    for K in ks:
        rows.append(
            (K, cpc_t1_minimum(r, K), ndt_cdc(r, K).value, ndt_osl_hd(r, K).value)
        )
    decreasing = all(a[1] > b[1] for a, b in zip(rows, rows[1:]))
    last_k = ks[-1]
    return TrendReport(
        r=r,
        rows=tuple(rows),
        decreasing=decreasing,
        final_value=rows[-1][1],
        cdc_limit_gap=abs(rows[-1][2] - Fraction(1, r)),
    )


def _cpc_point(r, K: int) -> NdtPoint:
    """The scheme's optimum: exact at integer r, memory-shared between."""
    r = _check_domain(r, K)
    if r.denominator == 1:
        return cpc_minimum(int(r), K)
    return ndt_cpc_fractional(r, K)


def _bound_point(r, K: int) -> NdtPoint:
    r = _check_domain(r, K)
    return NdtPoint(LOWER_BOUND, K, r, lower_bound(r, K).bound)


_SCHEME_TABLE = {
    UNCODED_TDMA: ndt_uncoded,
    CDC: ndt_cdc,
    OSL_FD: ndt_osl_fd,
    OSL_HD: ndt_osl_hd,
    BW_FD: ndt_bw_fd,
    BW_HD: ndt_bw_hd,
    CPC: _cpc_point,
    LOWER_BOUND: _bound_point,
}
SCHEMES = tuple(_SCHEME_TABLE)


def scheme_point(scheme: str, r, K: int) -> NdtPoint:
    """Evaluate any labeled scheme (or the bound) at (r, K)."""
    if scheme not in _SCHEME_TABLE:
        raise ParameterError(f"unknown scheme {scheme!r}")
    return _SCHEME_TABLE[scheme](r, K)
