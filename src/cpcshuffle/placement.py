"""Symmetric file placement and synthetic intermediate-value generation.

Files are dealt out in blocks of eta1 to the size-r node subsets in
lexicographic order, so every size-r subset stores exactly eta1 files and
every node stores rN/K of them.  Map outputs are synthesized with a keyed
hash so that the same (seed, q, n) always yields the same bytes no matter
which node computes them, so downstream decodability checks are exact
byte comparisons.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
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
    """All intermediate values v[q, n], each B bits, keyed by (q, n).

    Values are globally deterministic given the seed, so the store is
    shared; locality ("node k holds (q, n)") is a placement question and
    is answered through `at_node`.
    """

    params: SystemParams
    seed: int
    values: dict[tuple[int, int], bytes]

    def get(self, q: int, n: int) -> bytes:
        return self.values[(q, n)]

    @cached_property
    def array(self) -> np.ndarray:
        """Every v[q, n] as row [q-1, n-1] of one read-only (Q, N, B/8) uint8 array."""
        p = self.params
        joined = b"".join(self.get(q, n) for q in range(1, p.Q + 1) for n in range(1, p.N + 1))
        return np.frombuffer(joined, dtype=np.uint8).reshape(p.Q, p.N, -1)

    def at_node(self, placement: PlacementMap, k: int) -> dict[tuple[int, int], bytes]:
        """The IVs node k computed locally: every q, for its stored files."""
        return {
            (q, n): self.values[(q, n)]
            for q in range(1, self.params.Q + 1)
            for n in sorted(placement.node_to_files[k])
        }


def build_placement(params: SystemParams) -> PlacementMap:
    """Assign files to size-r subsets in lex order, outputs in contiguous blocks."""
    eta1, eta2 = params.require_symmetric()
    groups = enum_subsets(full_set(params.K), params.r)
    file_to_nodes: dict[int, NodeSet] = {}
    node_to_files: dict[int, set[int]] = {k: set() for k in range(1, params.K + 1)}
    group_files: dict[int, tuple[int, ...]] = {}
    n = 1
    for group in groups:
        group_files[group.mask] = tuple(range(n, n + eta1))
        for _ in range(eta1):
            file_to_nodes[n] = group
            for k in group:
                node_to_files[k].add(n)
            n += 1
    reduce_assignment = {
        k: frozenset(range((k - 1) * eta2 + 1, k * eta2 + 1)) for k in range(1, params.K + 1)
    }
    per_node = params.r * params.N // params.K
    for k, files in node_to_files.items():
        if len(files) != per_node:
            raise InternalInvariantError(
                f"node {k} stores {len(files)} files, expected rN/K={per_node}"
            )
    return PlacementMap(
        params=params,
        file_to_nodes=file_to_nodes,
        node_to_files={k: frozenset(v) for k, v in node_to_files.items()},
        group_files=group_files,
        reduce_assignment=reduce_assignment,
    )


def _iv_bytes(seed: int, q: int, n: int, nbytes: int) -> bytes:
    """Keyed-hash expansion of (q, n) to nbytes, counter mode."""
    key = seed.to_bytes(8, "little", signed=False)
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        h = hashlib.blake2b(
            struct.pack("<QQQ", q, n, counter), digest_size=32, key=key
        )
        out.extend(h.digest())
        counter += 1
    return bytes(out[:nbytes])


def map_phase(placement: PlacementMap, params: SystemParams, seed: int) -> IVStore:
    """Synthesize every IV v[q, n] as seed-keyed hash bytes of length B/8."""
    if params.B % 8 != 0:
        raise ParameterError(f"B must be a multiple of 8 bits, got {params.B}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    nbytes = params.B // 8
    values = {
        (q, n): _iv_bytes(seed, q, n, nbytes)
        for q in range(1, params.Q + 1)
        for n in range(1, params.N + 1)
    }
    return IVStore(params=params, seed=seed, values=values)


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
