"""Symmetric file placement and synthetic intermediate-value generation.

Files are dealt out in blocks of eta1 to the size-r node subsets in
lexicographic order, so every size-r subset stores exactly eta1 files and
every node stores rN/K of them.  Map outputs are synthesized with a keyed
hash so that the same (seed, q, n) always yields the same bytes no matter
which node computes them, so downstream decodability checks are exact
byte comparisons.  `map_phase` writes them straight into the store's one
(Q, N, B/8) uint8 array, which every layer reads; the per-IV `values`
mapping is built from it only when asked for.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    InternalInvariantError,
    NodeSet,
    ParameterError,
    SystemParams,
    enum_subsets,
    full_set,
)


@dataclass(frozen=True)
class PlacementMap:
    """Where every file lives and which outputs every node reduces.

    file_to_nodes[n] is the size-r storage group of file n (1-based);
    node_to_files[k] is its inverse; group_files[U.mask] lists the eta1
    files stored exactly at storage group U, ascending; reduce_assignment[k]
    is the block of eta2 output indices node k is responsible for.
    """

    params: SystemParams
    file_to_nodes: dict[int, NodeSet]
    node_to_files: dict[int, frozenset[int]]
    group_files: dict[int, tuple[int, ...]]
    reduce_assignment: dict[int, frozenset[int]]


@dataclass(frozen=True)
class IVStore:
    """All intermediate values v[q, n], each B bits, v[q, n] the row
    [q-1, n-1] of one read-only (Q, N, B/8) uint8 array.

    Values are globally deterministic given the seed, so the store is
    shared and equals every store of the same params and seed; locality
    ("node k holds (q, n)") is a placement question: node k holds every q
    for the files in `node_to_files[k]`.
    """

    params: SystemParams
    seed: int
    array: np.ndarray = field(compare=False, repr=False)

    def get(self, q: int, n: int) -> bytes:
        return self.array[q - 1, n - 1].tobytes()

    @cached_property
    def values(self) -> dict[tuple[int, int], bytes]:
        """Every v[q, n] keyed by (q, n), built from `array` on first use."""
        p = self.params
        return {(q, n): self.get(q, n) for q in range(1, p.Q + 1) for n in range(1, p.N + 1)}


def build_placement(params: SystemParams) -> PlacementMap:
    """Assign files to size-r subsets in lex order, outputs in contiguous blocks."""
    eta1, eta2 = params.require_symmetric()
    groups = enum_subsets(full_set(params.K), params.r)
    starts = range(1, params.N + 1, eta1)
    group_files = {g.mask: tuple(range(n, n + eta1)) for g, n in zip(groups, starts)}
    file_to_nodes = {n: group for group in groups for n in group_files[group.mask]}
    node_to_files: dict[int, set[int]] = {k: set() for k in range(1, params.K + 1)}
    for n, group in file_to_nodes.items():
        for k in group:
            node_to_files[k].add(n)
    reduce_assignment = {
        k: frozenset(range((k - 1) * eta2 + 1, k * eta2 + 1)) for k in range(1, params.K + 1)
    }
    stored = params.r * params.N // params.K
    for k, files in node_to_files.items():
        if len(files) != stored:
            raise InternalInvariantError(
                f"node {k} stores {len(files)} files, expected rN/K={stored}"
            )
    frozen = {k: frozenset(v) for k, v in node_to_files.items()}
    return PlacementMap(params, file_to_nodes, frozen, group_files, reduce_assignment)


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64), which keys every IV's hash."""
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")


def map_phase(placement: PlacementMap, params: SystemParams, seed: int) -> IVStore:
    """Synthesize every IV v[q, n] as the first B/8 bytes of the blake2b
    digests of (q, n, counter), counter 0, 1, ..., keyed by the seed, and
    write them in (q, n) order straight into the store's array."""
    if params.B % 8 != 0:
        raise ParameterError(f"B must be a multiple of 8 bits, got {params.B}")
    check_seed(seed)
    Q, N, nbytes = params.Q, params.N, params.B // 8
    # a copy of the keyed state spares hashing the key block once per digest
    keyed = hashlib.blake2b(digest_size=32, key=seed.to_bytes(8, "little"))
    pack, counters = struct.Struct("<QQQ").pack, range(-(-nbytes // 32))
    digests = []
    for q, n, counter in itertools.product(range(1, Q + 1), range(1, N + 1), counters):
        h = keyed.copy()
        h.update(pack(q, n, counter))
        digests.append(h.digest())
    stream = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(Q, N, -1)
    array = np.ascontiguousarray(stream[..., :nbytes])
    array.flags.writeable = False
    return IVStore(params=params, seed=seed, array=array)


def required_ivs(placement: PlacementMap, k: int) -> set[tuple[int, int]]:
    """The (q, n) pairs node k needs from others: its outputs, non-local files.

    Count: C(K-1, r) * eta1 * eta2 pairs.
    """
    params = placement.params
    if not 1 <= k <= params.K:
        raise ParameterError(f"node {k} out of range [1, {params.K}]")
    mine = placement.node_to_files[k]
    return {
        (q, n)
        for q in placement.reduce_assignment[k]
        for n in range(1, params.N + 1)
        if n not in mine
    }


def required_iv_count(params: SystemParams) -> int:
    """C(K-1, r) * eta1 * eta2: how many IV pairs each node must receive."""
    eta1, eta2 = params.require_symmetric()
    return math.comb(params.K - 1, params.r) * eta1 * eta2
