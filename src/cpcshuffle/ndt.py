"""Closed-form normalized-delivery-time analytics, all in exact rationals.

Covers the baseline schemes (uncoded TDMA, CDC, one-shot linear and BW in
full- and half-duplex form), the per-receiver DoF of the cooperative
X-multicast channel, the coded-parallel scheme's NDT (its load over that
DoF) with its fractional-load envelope, the information-theoretic lower
bound, and the achievable-to-bound gap.  Between integer loads the scheme
is memory-shared, so its curve there is the lower convex envelope of the
integer-load optima: the least chord from an optimum at or below r to one
at or above r.  At an integer load the reported value is the scan minimum
there, not the envelope.  The two differ where the optima are not convex
in r: on 58 integer cells with K <= 50 the scan minimum lies above the
envelope, first at (K, r) = (9, 7) with 2/63 against 53/1680, by at most
1.3%.  The scan minimum is exact over every accepted (K_r, t), but it
evaluates only the pairs that a proven monotone-in-t rule does not rule
out: one t per K_r row, every t at K_r = r + 1 (see `cpc_minimum`).
The scheme NDT is computed once, as load over the DoF, on exact
integer (numerator, denominator) pairs compared by cross-multiplication;
nothing is cross-checked at run time (the paper's piecewise form and the
binomial d' are test references).  Every public function returns
Fractions.  Dominance and sandwich comparisons downstream are knife-edge
equalities at boundaries (for example r = K - 1), so nothing here touches
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import ParameterError, check_config, check_load, t_range

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


def ndt_uncoded(r, K: int) -> NdtPoint:
    """Each node broadcasts its raw IVs in turn: 1 - r/K."""
    r = check_load(r, K)
    return NdtPoint(UNCODED_TDMA, K, r, 1 - r / K)


def ndt_cdc(r, K: int) -> NdtPoint:
    """Coded multicast over a shared link: (1/r)(1 - r/K)."""
    r = check_load(r, K)
    return NdtPoint(CDC, K, r, (1 - r / K) / r)


def ndt_osl_fd(r, K: int) -> NdtPoint:
    """One-shot linear delivery, full duplex: (1 - r/K)/min(K, 2r)."""
    r = check_load(r, K)
    return NdtPoint(OSL_FD, K, r, (1 - r / K) / min(Fraction(K), 2 * r))


def ndt_osl_hd(r, K: int) -> NdtPoint:
    """Half-duplex conversion of the one-shot linear scheme (factor 2)."""
    r = check_load(r, K)
    return NdtPoint(OSL_HD, K, r, 2 * (1 - r / K) / min(Fraction(K), 2 * r))


def _bw_factor(r: Fraction, K: int) -> Fraction:
    if 2 * r >= K:
        return Fraction(1, K)
    return Fraction(r * (K - 1) + K - r - 1, r * (K - 1) ** 2 + r * (K - 2))


def ndt_bw_fd(r, K: int) -> NdtPoint:
    """Full-duplex cooperative-alignment baseline, piecewise at r = K/2."""
    r = check_load(r, K)
    return NdtPoint(BW_FD, K, r, (1 - r / K) * _bw_factor(r, K))


def ndt_bw_hd(r, K: int) -> NdtPoint:
    """Factor-2 half-duplex conversion of the BW baseline (a comparison
    convention, not a constructed half-duplex scheme)."""
    r = check_load(r, K)
    return NdtPoint(BW_HD, K, r, 2 * (1 - r / K) * _bw_factor(r, K))


def _dprime_pair(s: int, t: int, K_t: int, K_r: int) -> tuple[int, int]:
    """Neutralize-then-align DoF d', maximized over the sub-cooperation
    size t', as an unreduced (numerator, denominator) pair, for s + t < K_r.

    The t' term s(K_t-t'+1) / (s(K_t-t'+1) + K_r-s-t'+1), the simplified
    binomial ratio, is s/(s + v/u) with u = K_t-t'+1 >= 1 and v = K_r-s-t'+1
    >= 2, and v/u has t'-derivative ((K_r-s) - K_t)/u^2.  So the term is
    monotone: its maximum sits at t' = t when K_r - s < K_t and at t' = 1
    otherwise, a constant term keeping t' = 1 as the full t' loop does.  The
    test suite checks the binomial form and the loop's pair against this.
    """
    tp = t if K_r - s < K_t else 1
    n = s * (K_t - tp + 1)
    return n, n + K_r - s - tp + 1


def _dof_pair(s: int, t: int, K_t: int, K_r: int) -> tuple[int, int]:
    """`delivery_dof` as an unreduced pair, without validation."""
    if s + t >= K_r + 1:
        return 1, 1
    if s + t == K_r:
        a = math.comb(K_r - 1, s - 1) * math.comb(K_t, t) * t
        return a, a + 1
    n, d = _dprime_pair(s, t, K_t, K_r)
    if n * K_r >= (s + t - 1) * d:  # max(d', (s+t-1)/K_r)
        return n, d
    return s + t - 1, K_r


def delivery_dof(s: int, t: int, K_t: int, K_r: int) -> Fraction:
    """The analytics' claimed per-receiver DoF of the C(K_t,t) x C(K_r,s)
    cooperative X-multicast channel: 1 when s+t > K_r, an alignment
    fraction a/(a+1) at s+t = K_r, and max(d', (s+t-1)/K_r) below that.

    `verify` reports it as `claimed_dof`, and the scheme NDT is built on
    it.  It is not what the channel engine realizes: that is g/K_r, with
    g = min(K_r, s+t-1) read from `model.delivery_layout`, so the two
    differ wherever d' wins and at s+t = K_r, which the engine runs as
    time division at (K_r-1)/K_r against the alignment claim a/(a+1).
    """
    check_config(K_t + K_r, s + t - 1, K_r, t)  # K = K_t + K_r, r = s + t - 1
    return Fraction(*_dof_pair(s, t, K_t, K_r))


def _cpc_pair(r: int, t: int, K: int, K_r: int, s: int) -> tuple[int, int]:
    """`ndt_cpc`'s value, the load (1/K_r)(1 - r/K) over the delivery DoF,
    as an unreduced (numerator, denominator) pair on a configuration the
    model rule has already accepted, with s = r + 1 - t.

    Every denominator is positive on an accepted configuration, so
    cross-multiplication orders these pairs as the values they stand for;
    `cpc_minimum` compares them that way.
    """
    dof_n, dof_d = _dof_pair(s, t, K - K_r, K_r)
    return (K - r) * dof_d, K_r * K * dof_n


def ndt_cpc(r: int, t: int, K: int, K_r: int) -> NdtPoint:
    """Per-configuration NDT of the coded parallel scheme: the load
    (1/K_r)(1 - r/K) over `delivery_dof`, computed once as an integer pair;
    only the value becomes a Fraction.  The paper's three-case form in K_r
    is the same value; the test suite checks the two agree.
    """
    s = check_config(K, r, K_r, t)
    return NdtPoint(CPC, K, Fraction(r), Fraction(*_cpc_pair(r, t, K, K_r, s)), K_r=K_r, t=t, s=s)


def no_valid_config(r: int, K: int, K_r: int | None, t: int | None) -> ParameterError:
    """The refusal of pins that no valid (K_r, t) at (r, K) fits, naming each pin."""
    pinned = ", ".join(f"{n}={v}" for n, v in (("K_r", K_r), ("t", t)) if v is not None)
    return ParameterError(f"no valid configuration with {pinned} for r={r}, K={K}")


def cpc_minimum(r: int, K: int, K_r: int | None = None, t: int | None = None) -> NdtPoint:
    """Exact minimum of ndt_cpc over every (K_r, t) the model rule
    accepts, with either coordinate optionally pinned; ties prefer the
    smaller K_r, then the smaller t.  r = K needs no shuffle: value 0
    with sentinel K_r = 0, and since no (K_r, t) is valid there, any pin
    is refused.

    The scan evaluates only the accepted pairs (the t of `model.t_range`)
    that the following rule does not rule out.  In every row but
    K_r = r + 1 the value never falls as t grows, so a row's first
    accepted t is its minimum, and the strict < keeps it on a tie.  With
    s = r + 1 - t and K_t = K - K_r, the value is the load over the DoF,
    so it rises as the DoF falls:
    - K_r <= r: s + t = r + 1 > K_r, so the DoF is 1 for every t and the
      value (K - r)/(K K_r) falls strictly as K_r grows.  Row K_r = r
      accepts t = 1 when r < K, so with t unpinned (r, 1) beats every
      row K_r < r and the rows start at K_r = r.
    - K_r >= r + 2: the DoF is max(d', r/K_r), and r/K_r does not depend
      on t.  d'(s, t) is the largest f(s, t') over t' <= t, with
      f = s u/(s u + w), u = K_t - t' + 1 and w = K_r - s - t' + 1 >= 2.
      f rises with s, so going from t to t + 1 (s to s - 1) lowers every
      f(., t') with t' <= t, and the new term f(s - 1, t + 1) has the w
      of f(s, t) and the smaller product (s - 1)(K_t - t) < s(K_t - t + 1).
      So d'(s - 1, t + 1) <= d'(s, t).
    - K_r = r + 1 is the exception, and its row is scanned in full: the
      DoF a/(a + 1), a = C(r, t) C(K_t, t) t, is not monotone in t; at
      (K, r, K_r) = (7, 2, 3) the value is 15/56 at t = 1 and 65/252 at
      t = 2.
    The rule belongs to `_dof_pair`; a scan over another DoF must prove
    its own."""
    check_load(r, K)
    if r == K:
        if K_r is not None or t is not None:
            raise no_valid_config(r, K, K_r, t)
        return NdtPoint(CPC, K, Fraction(r), Fraction(0), K_r=0, t=0, s=0)
    # (num, den, K_r, t); a strict < keeps the first of a tie
    best: tuple[int, int, int, int] | None = None
    first_row = r if t is None else 1  # with t unpinned, (r, 1) beats rows K_r < r
    for kr in range(first_row, K + 1) if K_r is None else (K_r,):
        accepted = t_range(K, r, kr)
        if t is not None:
            accepted = (t,) if t in accepted else ()
        for tt in accepted if kr == r + 1 else accepted[:1]:
            num, den = _cpc_pair(r, tt, K, kr, r + 1 - tt)
            if best is None or num * best[1] < best[0] * den:
                best = num, den, kr, tt
    if best is None:
        raise no_valid_config(r, K, K_r, t)
    num, den, kr, tt = best
    return NdtPoint(CPC, K, Fraction(r), Fraction(num, den), K_r=kr, t=tt, s=r + 1 - tt)


def _least_chord(f: list[Fraction], x: Fraction) -> Fraction:
    """Lower convex envelope at x of the points (i, f[i-1]), i = 1..len(f).

    In one dimension a convex combination needs only two points, so this is
    the least chord from a point at or left of x to one at or right of x; a
    point on x is its own chord.
    """
    return min(
        f[a - 1] if a == b else f[a - 1] + (x - a) * (f[b - 1] - f[a - 1]) / (b - a)
        for a in range(1, math.floor(x) + 1)
        for b in range(math.ceil(x), len(f) + 1)
    )


def ndt_cpc_fractional(r, K: int) -> NdtPoint:
    """Memory-share the scheme between two integer loads: the lower convex
    envelope of the integer-load optima, evaluated at rational r."""
    r = check_load(r, K)
    optima = [cpc_minimum(rho, K).value for rho in range(1, K + 1)]
    return NdtPoint(CPC, K, r, _least_chord(optima, r))


def c_coefficient(K: int, t: int, i: int) -> Fraction:
    """C_t(i): cut-set coefficient of the converse bound, zero past i = t."""
    if not (1 <= t <= K and 1 <= i <= K):
        raise ParameterError(f"t and i must lie in [1, K={K}], got t={t}, i={i}")
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
    the max-DoF bound lb2 = (1-r/K)/(K-1).  Both are 0 at r = K, where
    nothing is shuffled, for every K.

    The envelope of C_t at r is the chord between i = floor(r) and
    i = ceil(r), because C_t is already convex and non-increasing in i.
    For i < t, consecutive differences of C_t shrink by the factor
    (K-i-1)/(t-i) >= 1; at i = t they fall from K-t to 1 (in units of
    C_t(t)), and they are 0 after that.
    """
    r = check_load(r, K)
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
    lb2 = Fraction(0) if r == K else Fraction(1, K - 1) * (1 - r / K)
    return LowerBoundModel(K=K, r=r, envelope_at_r=envelope_at_r, lb1=lb1, lb2=lb2)


def gap_ratio(r, K: int) -> Fraction:
    """Achievable optimum over the lower bound; 1 at r = K by convention
    (both sides vanish)."""
    r = check_load(r, K)
    if r == K:
        return Fraction(1)
    return _cpc_point(r, K).value / lower_bound(r, K).bound


def fd_crossover_holds(r: int, K: int) -> bool:
    """Exact test of K >= 2(r + 1 + sqrt(r^2 + 1)), where the half-duplex
    scheme already beats the full-duplex one-shot baseline."""
    lhs = K - 2 * r - 2
    return lhs >= 0 and lhs * lhs >= 4 * (r * r + 1)


def _cpc_point(r, K: int) -> NdtPoint:
    """The scheme's optimum: exact at integer r, memory-shared between."""
    r = check_load(r, K)
    if r.denominator == 1:
        return cpc_minimum(int(r), K)
    return ndt_cpc_fractional(r, K)


def _bound_point(r, K: int) -> NdtPoint:
    model = lower_bound(r, K)
    return NdtPoint(LOWER_BOUND, K, model.r, model.bound)


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
