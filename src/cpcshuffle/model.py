"""Problem-instance types and subset/partition combinatorics.

Everything downstream (placement, codec, channel simulation, analytics)
works in terms of the types defined here.  A node set is an ascending
tuple of node indices in [1..K], as `itertools.combinations` yields it.
All values are immutable and all enumerations are deterministic: subsets
and partitions are produced in lexicographic order so that partition
indices, scheme dumps and test fixtures are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

MAX_NODES = 64  # desk-scale guard; binomials stay exact far below this

Nodes = tuple[int, ...]  # a node set: strictly increasing node indices


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class ConstraintViolation(ParameterError):
    """A shuffle-configuration inequality failed; `constraint` names it."""

    def __init__(self, constraint: str, detail: str):
        super().__init__(f"{constraint}: {detail}")
        self.constraint = constraint


class InfeasibleInstance(ValueError):
    """Instance parameters do not admit the symmetric construction."""


class InternalInvariantError(RuntimeError):
    """A scheme-construction invariant broke; indicates a bug, not bad input."""


def check_members(nodes: Nodes) -> None:
    """Refuse a node set that is not a strictly increasing tuple of
    positive integers."""
    below = 0
    for x in nodes:
        if not isinstance(x, int) or x < 1:
            raise ParameterError(f"node indices must be positive integers: {nodes}")
        if x <= below:
            raise ParameterError(f"members must be strictly increasing: {nodes}")
        below = x


def check_nodes(K: int) -> None:
    """The one K-range guard: raise unless 1 <= K <= MAX_NODES."""
    if not 1 <= K <= MAX_NODES:
        raise ParameterError(f"K must lie in [1, {MAX_NODES}], got {K}")


def check_load(r, K: int) -> Fraction:
    """Return the computation load r as a Fraction, or raise unless 1 <= r <= K."""
    r = Fraction(r)
    if not 1 <= r <= K:
        raise ParameterError(f"r must lie in [1, K={K}], got {r}")
    return r


@dataclass(frozen=True)
class SystemParams:
    """The (K, N, Q, r, B) problem instance.

    K nodes, N input files, Q output functions, computation load r
    (every file is mapped at r nodes), and B bits per intermediate value.
    eta1 = N / C(K, r) files per storage group and eta2 = Q / K outputs
    per node; both must be positive integers for the symmetric scheme.
    """

    K: int
    N: int
    Q: int
    r: int
    B: int

    def __post_init__(self):
        check_nodes(self.K)
        check_load(self.r, self.K)
        if self.N < 1 or self.Q < 1 or self.B < 1:
            raise ParameterError("N, Q and B must all be >= 1")

    @property
    def eta1(self) -> Fraction:
        return Fraction(self.N, math.comb(self.K, self.r))

    @property
    def eta2(self) -> Fraction:
        return Fraction(self.Q, self.K)

    def require_symmetric(self) -> tuple[int, int]:
        """Return (eta1, eta2) as ints, or raise if the instance is asymmetric."""
        e1, e2 = self.eta1, self.eta2
        if e1.denominator != 1 or e1 == 0:
            raise InfeasibleInstance(
                f"N={self.N} is not a positive multiple of C({self.K},{self.r})"
            )
        if e2.denominator != 1 or e2 == 0:
            raise InfeasibleInstance(f"Q={self.Q} is not a positive multiple of K={self.K}")
        return int(e1), int(e2)


@dataclass(frozen=True)
class Partition:
    """One transmitter/receiver split of the K half-duplex nodes."""

    index: int
    tx: Nodes
    rx: Nodes

    def __post_init__(self):
        check_members(self.tx)
        check_members(self.rx)
        if not set(self.tx).isdisjoint(self.rx):
            raise ParameterError("tx and rx must be disjoint")


@dataclass(frozen=True)
class ShuffleConfig:
    """A validated (K_r, t) shuffle configuration for a problem instance.

    s = r + 1 - t receivers share each coded message; t transmitters
    cooperate on it.  Construct through :func:`validate_config`.
    """

    params: SystemParams
    K_r: int
    t: int

    @property
    def s(self) -> int:
        return self.params.r + 1 - self.t

    @property
    def K_t(self) -> int:
        return self.params.K - self.K_r

    def summary(self, seed: int) -> dict:
        """The `params` object reports name a run by: K, N, Q, r, B, K_r, t, s, seed."""
        p = self.params
        return dict(K=p.K, N=p.N, Q=p.Q, r=p.r, B=p.B, K_r=self.K_r, t=self.t, s=self.s, seed=seed)


def delivery_layout(s: int, t: int, K_r: int) -> tuple[int, int, int]:
    """(g, chunks per message, slots per block) of the delivery scheme.

    Receiver sets have size g = min(K_r, s+t-1); a message is cut into
    one chunk per receiver set containing its dest group, C(K_r-s, g-s);
    a block serves C(g-1, s-1) symbols to each receiver of its set.
    """
    if not 1 <= s <= K_r or t < 1:
        raise ParameterError(f"need 1 <= s <= K_r and t >= 1, got s={s}, t={t}, K_r={K_r}")
    g = min(K_r, s + t - 1)
    return g, math.comb(K_r - s, g - s), math.comb(g - 1, s - 1)


def enum_subsets(ground: Nodes, k: int) -> list[Nodes]:
    """All size-k subsets of the ascending `ground` in lexicographic order."""
    if not 0 <= k <= len(ground):
        raise ParameterError(f"subset size {k} out of range [0, {len(ground)}]")
    return list(combinations(ground, k))


def enum_partitions(K: int, K_t: int) -> list[Partition]:
    """All C(K, K_t) transmitter/receiver partitions, indexed 1..C(K,K_t).

    Partition p has the p-th lexicographic size-K_t transmitter set; the
    receivers are its complement.  This is the only place partitions are
    numbered.
    """
    check_nodes(K)
    if not 1 <= K_t <= K - 1:
        raise ParameterError(f"K_t must lie in [1, K-1], got K_t={K_t}, K={K}")
    everyone = tuple(range(1, K + 1))
    # complementing reverses lex order: the p-th lex transmitter set
    # leaves the p-th last lex (K - K_t)-subset to receive
    receivers = reversed(list(combinations(everyone, K - K_t)))
    return [
        Partition(index=p, tx=tx, rx=rx)
        for p, (tx, rx) in enumerate(zip(enum_subsets(everyone, K_t), receivers), start=1)
    ]


def config_violation(K: int, r: int, K_r: int, t: int) -> str | None:
    """The one (K_r, t) validity rule: the first inequality that fails, or
    None.  s = r + 1 - t.

    K - K_r <= K - s is not listed: it is s <= K_r restated.
    """
    s = r + 1 - t
    if not 1 <= K_r <= K:
        return "1 <= K_r <= K"
    if t < 1:
        return "t >= 1"
    if s < 1:
        return "s = r+1-t >= 1"
    if s > K_r:
        return "s <= K_r"
    if t > K - K_r:
        return "t <= K - K_r"
    return None


def t_range(K: int, r: int, K_r: int) -> range:
    """Exactly the t that :func:`config_violation` accepts at (K, r, K_r):
    the rule solved for t, max(1, r+1-K_r) <= t <= min(r, K-K_r), which is
    empty when K_r lies outside [1, K]."""
    return range(max(1, r + 1 - K_r), min(r, K - K_r) + 1)


def check_config(K: int, r: int, K_r: int, t: int) -> int:
    """Return s = r + 1 - t, or raise ConstraintViolation naming the
    inequality :func:`config_violation` reports."""
    failed = config_violation(K, r, K_r, t)
    if failed is not None:
        raise ConstraintViolation(failed, f"K={K}, r={r}, K_r={K_r}, t={t}, s={r + 1 - t}")
    return r + 1 - t


def validate_config(params: SystemParams, K_r: int, t: int) -> ShuffleConfig:
    """Return the config for `params` once :func:`check_config` accepts it."""
    check_config(params.K, params.r, K_r, t)
    return ShuffleConfig(params=params, K_r=K_r, t=t)
