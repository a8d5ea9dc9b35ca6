"""Exact counting by exhaustive subset sweep.

This is the referee every closed form and recurrence is checked against, so
it stays deliberately dumb: enumerate subsets, test the definition. Subsets
are ``uint32`` bitmasks (bit k is vertex k + 1) swept in fixed-size chunks;
one kernel, :func:`_weak_ok` or its dominating-set twin :func:`_dom_ok`,
tests a whole chunk at once with in-place numpy passes over the vertices.
Counting queries tally each chunk's hits by popcount as Python ints, so
counts are independent of the partitioning and cannot overflow. Listing and
minimum queries filter one cached array of a graph's hit masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .graph import Graph, is_connected

DEFAULT_CAP = 24
HARD_CAP = 30
# 2**16 masks (256 KiB per working buffer) stay in cache; 2**20 ran half as fast
_CHUNK_BITS = 16


class CapacityError(Exception):
    """Raised when a graph exceeds the subset-sweep cap."""


@dataclass(frozen=True)
class CountTable:
    """Counts of weakly connected dominating sets by cardinality.

    ``counts[k]`` is the number of such sets of size k + 1; cardinalities run
    1..order. ``connected`` is False for a disconnected input, in which case
    every entry is zero.
    """

    order: int
    counts: tuple[int, ...]
    connected: bool = True

    def __post_init__(self) -> None:
        if len(self.counts) != self.order:
            raise ValueError("counts length must equal order")

    def count(self, i: int) -> int:
        """Count at cardinality i, 0 outside 1..order."""
        if 1 <= i <= self.order:
            return self.counts[i - 1]
        return 0

    def total(self) -> int:
        return sum(self.counts)

    def min_size(self) -> int | None:
        """Smallest cardinality with a non-zero count, None if all zero."""
        for i, c in enumerate(self.counts, start=1):
            if c:
                return i
        return None


def check_cap(g: Graph, cap: int) -> None:
    """CapacityError when g is above ``cap``; ValueError for a cap above HARD_CAP."""
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds the hard limit {HARD_CAP}")
    if g.order > cap:
        raise CapacityError(
            f"order {g.order} exceeds the subset-sweep cap {cap} "
            f"(2**{g.order} subsets); raise the cap up to {HARD_CAP} to proceed"
        )


def _weak_ok(adj: list[int], masks: np.ndarray) -> np.ndarray:
    """Per mask S: does keeping the edges that meet S connect every vertex
    to vertex 1?

    Reachability spreads from vertex 1 vertex by vertex, forward then
    backward, until a pass changes nothing. A reached vertex v reaches its
    kept neighbours: ``adj[v]`` when v is in S, otherwise ``adj[v] & S``.
    """
    n = len(adj)
    reach = np.ones_like(masks)
    prev = np.empty_like(masks)
    kept = np.empty_like(masks)
    bit = np.empty_like(masks)
    seq = [*range(n), *range(n - 2, -1, -1)]
    while True:
        np.copyto(prev, reach)
        for v in seq:
            np.bitwise_and(masks, adj[v], out=kept)
            np.right_shift(masks, v, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.multiply(bit, adj[v], out=bit)
            np.bitwise_or(kept, bit, out=kept)
            np.right_shift(reach, v, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.multiply(kept, bit, out=kept)
            np.bitwise_or(reach, kept, out=reach)
        if np.array_equal(prev, reach):
            return reach == (1 << n) - 1


def _dom_ok(adj: list[int], masks: np.ndarray) -> np.ndarray:
    """Per mask S: do the closed neighbourhoods of S cover every vertex?"""
    covered = np.zeros_like(masks)
    bit = np.empty_like(masks)
    for v, nbrs in enumerate(adj):
        np.right_shift(masks, v, out=bit)
        np.bitwise_and(bit, 1, out=bit)
        np.multiply(bit, nbrs | 1 << v, out=bit)
        np.bitwise_or(covered, bit, out=covered)
    return covered == (1 << len(adj)) - 1


def _sweep(adj: list[int], pred: Callable, chunk_bits: int = _CHUNK_BITS) -> Iterator[np.ndarray]:
    """The non-empty subsets passing ``pred``, one ascending chunk at a time."""
    n = len(adj)
    step = 1 << min(chunk_bits, n)
    for lo in range(0, 1 << n, step):
        masks = np.arange(max(lo, 1), lo + step, dtype=np.uint32)
        yield masks[pred(adj, masks)]


def _tally(n: int, chunks: Iterator[np.ndarray]) -> list[int]:
    """counts[k] = number of hits of popcount k, over every chunk."""
    counts = [0] * (n + 1)
    for hits in chunks:
        per_size = np.bincount(np.bitwise_count(hits), minlength=n + 1)
        counts = [c + int(b) for c, b in zip(counts, per_size)]
    return counts


def sweep_counts(order: int, edges: frozenset[tuple[int, int]], chunk_bits: int = _CHUNK_BITS) -> list[int]:
    """Raw subset sweep: counts[k] = number of k-subsets whose weakly induced
    spanning subgraph is connected. Exposed with a chunk-size knob so the
    partition-independence contract is testable."""
    adj = Graph(order, frozenset(edges)).neighbor_masks()
    return _tally(order, _sweep(adj, _weak_ok, chunk_bits))


@lru_cache(maxsize=4)
def _hits(g: Graph, pred: Callable) -> np.ndarray:
    """Every non-empty subset of g passing ``pred``, ascending, read-only."""
    hits = np.concatenate(list(_sweep(g.neighbor_masks(), pred)))
    hits.flags.writeable = False
    return hits


def _of_size(g: Graph, pred: Callable, k: int) -> np.ndarray:
    """The k-subsets of g passing ``pred``, ascending, as a new array."""
    hits = _hits(g, pred)
    return hits[np.bitwise_count(hits) == k]


# far above the 1138 distinct graphs that all fifteen verify suites sweep
# together at their default sizes, so no run loses a hit to eviction
@lru_cache(maxsize=4096)
def _count_table_cached(g: Graph) -> CountTable:
    if not is_connected(g):
        return CountTable(g.order, (0,) * g.order, connected=False)
    counts = sweep_counts(g.order, g.edges)
    return CountTable(g.order, tuple(counts[1:]), connected=True)


def count_table(g: Graph, cap: int = DEFAULT_CAP) -> CountTable:
    """Full count table for g by brute force.

    Disconnected graphs get the all-zero table with ``connected`` False (no
    subset can weakly connect them), so composition code can proceed
    uniformly. Orders above ``cap`` raise :class:`CapacityError`.
    """
    check_cap(g, cap)
    return _count_table_cached(g)


def enumerate_wcds(g: Graph, i: int, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All weakly connected dominating sets of cardinality i, as sorted
    tuples in lexicographic order. Empty outside 1..order."""
    check_cap(g, cap)
    if i < 1 or i > g.order:
        return []
    sets = _of_size(g, _weak_ok, i)
    labels = np.empty((len(sets), i), dtype=np.uint8)
    for j in range(i):  # peel off the lowest member, ascending
        low = sets & -sets
        labels[:, j] = np.bitwise_count(low - 1) + 1
        sets ^= low
    return sorted(map(tuple, labels.tolist()))


def gamma_w(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum size of a weakly connected dominating set.

    Undefined (ValueError) for disconnected graphs.
    """
    k = count_table(g, cap).min_size()
    if k is None:
        raise ValueError("gamma_w undefined: graph is disconnected")
    return k


def gamma(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum size of an ordinary dominating set."""
    check_cap(g, cap)
    return int(np.bitwise_count(_hits(g, _dom_ok)).min())


def dominating_counts(g: Graph, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Counts of ordinary dominating sets by cardinality (index i - 1).

    Companion to :func:`count_table` used by the verification layer to
    diagnose composition formulas whose one-part terms should count
    dominating sets rather than weakly connected ones.
    """
    check_cap(g, cap)
    return tuple(_tally(g.order, _sweep(g.neighbor_masks(), _dom_ok))[1:])


def has_minimum_wcds_containing(g: Graph, v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether some minimum-size weakly connected dominating set contains v."""
    return bool(np.any(_of_size(g, _weak_ok, gamma_w(g, cap)) & (1 << (v - 1))))


def has_minimum_dominating_containing(g: Graph, v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether some minimum-size ordinary dominating set contains v."""
    return bool(np.any(_of_size(g, _dom_ok, gamma(g, cap)) & (1 << (v - 1))))
