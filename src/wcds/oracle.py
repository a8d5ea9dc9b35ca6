"""Exact counting by exhaustive subset sweep.

This is the referee every closed form and recurrence is checked against, so
it stays deliberately dumb: enumerate subsets, test each one. Subsets are
``uint32`` bitmasks (bit k is vertex k + 1) swept in fixed-size chunks; one
kernel, :func:`_weak_ok` or its dominating-set twin :func:`_dom_ok`, tests a
whole chunk at once with in-place numpy passes over the vertices.
:func:`_weak_ok` rests on a lemma: for non-empty S the weakly induced
subgraph is connected iff S dominates and S is connected through links
between members at distance at most 2. So it keeps the dominating masks
first and connects only those; :func:`graph.weak_reach` stays the literal
definition the tests compare it with. Counting queries tally each chunk's
hits by popcount as Python ints, so counts are independent of the
partitioning and cannot overflow. Listing filters one cached array of a
graph's hit masks.

Minimum queries sweep cardinality layers instead: :func:`_layer` makes the
masks of one popcount, and :func:`_least_layer` tests layer after layer,
upward from a degree bound below which no subset can pass, and stops at the
first layer with a hit. gamma_w of K_n tests n masks, not 2**n. Membership
in a minimum set reads the hits of that least layer alone.

A query on one graph sweeps that graph alone. :func:`sweep_stack` sweeps
many small graphs at once instead: graphs of one order n form a stack, each
vertex's neighbour masks become a (graphs, 1) column, and the same kernel
tests a (graphs, 2**n) mask array, 2**16 (graph, mask) pairs a call. The
extension suites of the verify module use it: a pendant-path instance has
order 11 at most, so one call covers dozens of graphs where a lone sweep
would pay the per-call overhead for 2**11 masks. The count rows it makes go
through the same popcount tally into the cache that :func:`count_table`
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import _member_mask
from .graph import Graph, is_connected

DEFAULT_CAP = 24
HARD_CAP = 30
# 2**16 masks (256 KiB per working buffer) stay in cache; 2**20 ran half as fast
_CHUNK_BITS = 16


class CapacityError(Exception):
    """Raised when a graph exceeds the subset-sweep cap or the frontier DP's
    width bound."""


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


def check_hard_limit(cap: int) -> None:
    """ValueError for a cap outside 1..HARD_CAP."""
    if cap < 1:
        raise ValueError(f"cap {cap} must be at least 1")
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds the hard limit {HARD_CAP}")


def check_cap(order: int, cap: int) -> None:
    """CapacityError when ``order`` is above ``cap``, so for every order when
    the cap is below 1; ValueError for a cap above HARD_CAP."""
    if cap > HARD_CAP:
        check_hard_limit(cap)
    if order > cap:
        raise CapacityError(
            f"order {order} exceeds the subset-sweep cap {cap} "
            f"(2**{order} subsets); raise the cap up to {HARD_CAP} to proceed"
        )


def _weak_ok(adj: list[int], masks: np.ndarray) -> np.ndarray:
    """Per non-empty mask S: is the weakly induced subgraph of S connected?

    It is exactly when S dominates and S is connected in the graph on S that
    joins two members at distance at most 2 (the lemma in the README). So
    one pass of :func:`_dom_ok` keeps the dominating masks, and on those
    alone reach spreads from each mask's lowest member through ``N2[v] & S``
    (:func:`_near`), vertex by vertex, forward then backward. After each
    half pass a mask retires: a hit when its reach is S, a miss when its
    reach did not grow. A half pass that adds nothing has visited every
    reached member (the backward half skips only the last vertex, which the
    forward half before it visited last), so the reach is closed. Later
    passes touch only the masks still growing.

    ``adj`` holds int neighbour masks, or (graphs, 1) columns for a
    (graphs, masks) array (:func:`_stack_hits`); then each surviving mask
    gathers its own graph's N2 values, and keeps them through retirements.
    """
    n = len(adj)
    ok = _dom_ok(adj, masks).reshape(-1)
    live = np.flatnonzero(ok)
    s = masks.reshape(-1)[live]
    near = _near(adj)
    if masks.ndim > 1:  # one row of N2 values per surviving mask
        near = np.stack(near).reshape(n, -1)[:, live // masks.shape[1]]
    reach = s & -s
    half, other = range(n), range(n - 2, -1, -1)
    while live.size:
        prev = reach.copy()
        bit = np.empty_like(reach)
        for v in half:
            np.right_shift(reach, v, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.multiply(bit, near[v], out=bit)
            np.bitwise_and(bit, s, out=bit)
            np.bitwise_or(reach, bit, out=reach)
        spans = reach == s
        grew = reach != prev
        ok[live[~(spans | grew)]] = False
        busy = grew & ~spans
        live, s, reach = live[busy], s[busy], reach[busy]
        if masks.ndim > 1:
            near = near[:, busy]
        half, other = other, half
    return ok.reshape(masks.shape)


def _near(adj: list) -> list:
    """Per vertex v, the mask of N2[v], the vertices at distance at most 2
    from v, v included. Ints from int neighbour masks, columns from
    columns."""
    out = []
    for v, nbrs in enumerate(adj):
        near = nbrs | 1 << v
        for u, other in enumerate(adj):
            near = near | (nbrs >> u & 1) * other
        out.append(near)
    return out


def _dom_ok(adj: list[int], masks: np.ndarray) -> np.ndarray:
    """Per mask S: does S meet the closed neighbourhood of every vertex?
    The least of the intersections is 0 exactly when some vertex is not
    dominated."""
    least = np.full_like(masks, np.iinfo(masks.dtype).max)
    meet = np.empty_like(masks)
    for v, nbrs in enumerate(adj):
        np.bitwise_and(masks, nbrs | 1 << v, out=meet)
        np.minimum(least, meet, out=least)
    return least != 0


def _sweep(adj: list[int], pred: Callable, chunk_bits: int = _CHUNK_BITS) -> Iterator[np.ndarray]:
    """The non-empty subsets passing ``pred``, one ascending chunk at a time."""
    n = len(adj)
    step = 1 << min(chunk_bits, n)
    for lo in range(0, 1 << n, step):
        masks = np.arange(max(lo, 1), lo + step, dtype=np.uint32)
        yield masks[pred(adj, masks)]


@lru_cache(maxsize=_CHUNK_BITS + 1)
def _by_popcount(bits: int) -> tuple[np.ndarray, ...]:
    """The masks below 2**bits grouped by popcount, each group ascending and
    read-only. Built on first use, so importing builds nothing."""
    masks = np.arange(1 << bits, dtype=np.uint32)
    sizes = np.bitwise_count(masks)
    groups = tuple(masks[sizes == j] for j in range(bits + 1))
    for group in groups:
        group.flags.writeable = False
    return groups


def _layer(n: int, k: int) -> Iterator[np.ndarray]:
    """The n-bit masks of popcount k, each once, in chunks of about
    2**_CHUNK_BITS (in no particular order). A mask is a high part of
    popcount k - j above a low part of popcount j in the low _CHUNK_BITS
    bits; each chunk crosses a batch of high parts with every low part."""
    low_bits = min(n, _CHUNK_BITS)
    lows, highs = _by_popcount(low_bits), _by_popcount(n - low_bits)
    for j in range(max(0, k - (n - low_bits)), min(k, low_bits) + 1):
        low, high = lows[j], highs[k - j][:, None]
        batch = max(1, (1 << _CHUNK_BITS) // low.size)
        for lo in range(0, len(high), batch):
            yield ((high[lo : lo + batch] << low_bits) | low).ravel()


def _layer_floor(adj: list[int], need: int, reach: int) -> int:
    """The least k >= 1 whose k largest values of degree + ``reach`` sum to
    at least ``need``: when each member of S accounts for at most its
    degree + ``reach`` of ``need`` things, no smaller S accounts for all."""
    room = sorted((nbrs.bit_count() + reach for nbrs in adj), reverse=True)
    k = 1
    while k < len(adj) and sum(room[:k]) < need:
        k += 1
    return k


def _least_layer(adj: list[int], pred: Callable, need: int, reach: int) -> int:
    """The least k such that some k-subset passes ``pred``, found by testing
    the layers of :func:`_layer` upward from :func:`_layer_floor`. The
    callers' graphs always pass with S = V, so some layer up to n hits.

    The two floors are one-line lemmas:

    - gamma_w: ``need`` n - 1, ``reach`` 0. The weakly induced subgraph of
      a hit S is connected and spans all n vertices, so it has at least
      n - 1 edges; every kept edge meets S, so the degrees over S sum to at
      least n - 1.
    - gamma: ``need`` n, ``reach`` 1. The closed neighbourhood of v covers
      at most deg v + 1 vertices, and S must cover all n.
    """
    n = len(adj)
    for k in range(_layer_floor(adj, need, reach), n + 1):
        if any(pred(adj, masks).any() for masks in _layer(n, k)):
            return k
    raise ValueError("no subset passes")


def _least_hits(adj: list[int], pred: Callable, need: int, reach: int) -> np.ndarray:
    """Every subset passing ``pred`` in the least layer that
    :func:`_least_layer` finds."""
    k = _least_layer(adj, pred, need, reach)
    return np.concatenate([masks[pred(adj, masks)] for masks in _layer(len(adj), k)])


def _stack_hits(adjs: list[list[int]], pred: Callable) -> list[np.ndarray]:
    """The non-empty subsets passing ``pred``, ascending, of each graph of one
    order n, given by its neighbour masks. A kernel call takes at most
    2**_CHUNK_BITS (graph, mask) pairs: 2**(_CHUNK_BITS - n) whole graphs at
    once, each vertex's masks a (graphs, 1) column. Above order _CHUNK_BITS
    each graph is swept alone."""
    n = len(adjs[0])
    if n > _CHUNK_BITS:
        return [np.concatenate(list(_sweep(adj, pred))) for adj in adjs]
    masks = np.arange(1 << n, dtype=np.uint32)
    per_call = 1 << (_CHUNK_BITS - n)
    out = []
    for lo in range(0, len(adjs), per_call):
        cols = np.array(adjs[lo : lo + per_call], dtype=np.uint32).T[:, :, None].copy()
        ok = pred(list(cols), np.tile(masks, (cols.shape[1], 1)))
        ok[:, 0] = False  # the empty set
        out.extend(masks[row] for row in ok)
    return out


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
def _hits(g: Graph) -> np.ndarray:
    """Every weakly connected dominating set of g as a mask, ascending,
    read-only."""
    hits = np.concatenate(list(_sweep(g.neighbor_masks(), _weak_ok)))
    hits.flags.writeable = False
    return hits


def _in_a_minimum(sets: np.ndarray, v: int) -> bool:
    """Whether some smallest of the (non-empty) masks ``sets`` holds vertex v."""
    sizes = np.bitwise_count(sets)
    return bool(np.any(sets[sizes == sizes.min()] & 1 << (v - 1)))


# count tables that sweep_stack has just made, on their way into the cache below
_arriving: dict[Graph, CountTable] = {}


# far above the 592 distinct graphs that all fifteen verify suites, run in
# one process at their default sizes and seed, put in it (an extension suite
# alone puts 464), so no run loses a hit to eviction
@lru_cache(maxsize=4096)
def _count_table_cached(g: Graph) -> CountTable:
    if g in _arriving:
        return _arriving.pop(g)
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
    check_cap(g.order, cap)
    return _count_table_cached(g)


def sweep_stack(graphs: Iterable[Graph], pred: Callable = _weak_ok, cap: int = DEFAULT_CAP) -> dict[Graph, np.ndarray]:
    """The non-empty subsets passing ``pred`` (:func:`_weak_ok` or
    :func:`_dom_ok`), ascending, of each distinct graph, swept in stacks of
    one order. With :func:`_weak_ok` each graph's count table enters the
    cache of :func:`count_table` as well. An order above ``cap`` raises
    :class:`CapacityError`, naming the largest, before any sweep."""
    by_order: dict[int, list[Graph]] = {}
    for g in dict.fromkeys(graphs):
        by_order.setdefault(g.order, []).append(g)
    if by_order:
        check_cap(max(by_order), cap)
    out = {}
    for n, group in sorted(by_order.items()):
        for g, hits in zip(group, _stack_hits([g.neighbor_masks() for g in group], pred)):
            out[g] = hits
            if pred is _weak_ok:
                # S = V keeps every edge, so it is a hit exactly when g is connected
                connected = hits.size > 0 and int(hits[-1]) == (1 << n) - 1
                _arriving[g] = CountTable(n, tuple(_tally(n, [hits])[1:]), connected)
                _count_table_cached(g)
                _arriving.pop(g, None)  # left over when g was cached already
    return out


def _as_tuples(sets: np.ndarray, i: int) -> list[tuple[int, ...]]:
    """Masks of cardinality i as sorted tuples of vertex labels, in
    lexicographic order. Empties ``sets``; callers pass a fresh array."""
    labels = np.empty((len(sets), i), dtype=np.uint8)
    for j in range(i):  # peel off the lowest member, ascending
        low = sets & -sets
        labels[:, j] = np.bitwise_count(low - 1) + 1
        sets ^= low
    return sorted(map(tuple, labels.tolist()))


def enumerate_wcds(g: Graph, i: int, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All weakly connected dominating sets of cardinality i, as sorted
    tuples in lexicographic order. Empty outside 1..order."""
    check_cap(g.order, cap)
    if i < 1 or i > g.order:
        return []
    hits = _hits(g)
    return _as_tuples(hits[np.bitwise_count(hits) == i], i)


def _check_connected(g: Graph, cap: int) -> None:
    """The cap check, then ValueError when g is disconnected, where no set
    weakly connects it."""
    check_cap(g.order, cap)
    if not is_connected(g):
        raise ValueError("gamma_w undefined: graph is disconnected")


def gamma_w(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum size of a weakly connected dominating set.

    Undefined (ValueError) for disconnected graphs.
    """
    _check_connected(g, cap)
    return _least_layer(g.neighbor_masks(), _weak_ok, g.order - 1, 0)


def gamma(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum size of an ordinary dominating set."""
    check_cap(g.order, cap)
    return _least_layer(g.neighbor_masks(), _dom_ok, g.order, 1)


def dominating_counts(g: Graph, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Counts of ordinary dominating sets by cardinality (index i - 1).

    Companion to :func:`count_table` used by the verification layer to
    diagnose composition formulas whose one-part terms should count
    dominating sets rather than weakly connected ones.
    """
    check_cap(g.order, cap)
    return tuple(_tally(g.order, _sweep(g.neighbor_masks(), _dom_ok))[1:])


def has_minimum_wcds_containing(g: Graph, v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether some minimum-size weakly connected dominating set contains v.
    ValueError for v outside 1..order."""
    _check_connected(g, cap)
    _member_mask(g, (v,))
    return _in_a_minimum(_least_hits(g.neighbor_masks(), _weak_ok, g.order - 1, 0), v)


def has_minimum_dominating_containing(g: Graph, v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether some minimum-size ordinary dominating set contains v.
    ValueError for v outside 1..order."""
    check_cap(g.order, cap)
    _member_mask(g, (v,))
    return _in_a_minimum(_least_hits(g.neighbor_masks(), _dom_ok, g.order, 1), v)
