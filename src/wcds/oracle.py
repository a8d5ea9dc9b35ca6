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
definition the tests compare it with. Counting queries tally each kernel
call's hits by popcount into int64 cells that hold at most 2**30, so
counts are independent of the partitioning and cannot overflow.

Minimum queries sweep cardinality layers instead: :func:`_layer` makes the
masks of one popcount, and :func:`_least_layers` tests layer after layer,
upward from a degree bound below which no subset can pass, and stops at the
first layer with a hit. gamma_w of K_n tests n masks, not 2**n. Listing
sets of size i sweeps layer i alone, and refuses more than ``LISTING_MAX``
sets before it builds a tuple; membership in a minimum set lists layers
upward from the same bound and reads the first with a hit, listed once.

Many small graphs are queried as stacks: graphs of one order n form a
stack, each vertex's neighbour masks become a (graphs, 1) column, and the
same kernel tests a (graphs, masks) array, where one graph alone would pay
the per-call overhead for a few masks. One loop, :func:`_calls`, makes
every kernel call of every query, at most 2**16 (graph, mask) pairs a
call. :func:`sweep_stack` returns each graph's hits (the extension
suites of the verify module), :func:`count_stack` tallies its count row
call by call (the join suite), and :func:`gamma_w_stack` and
:func:`gamma_stack` run one least-layer pass per stack, where a graph
retires at its first layer with a hit (the join, corona and path/cycle
minimum suites). A query on one graph is the one-graph case of the same
routines: :func:`count_table`, :func:`sweep_counts` and
:func:`dominating_counts` tally a stack of one graph. No query result is
memoised; a caller that needs a row twice keeps it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import _member_mask
from .graph import Graph, is_connected, weak_reach

DEFAULT_CAP = 24
HARD_CAP = 30
# the most sets one listing holds: they are built whole as tuples, and C28's
# 1,027,208 sets of size 19 peaked at 488 MiB, where K30's C(30, 15) would need tens of GB
LISTING_MAX = 1 << 20
# 2**16 masks (256 KiB per working buffer) stay in cache; 2**20 ran half as fast
_CHUNK_BITS = 16
_DISCONNECTED = "gamma_w undefined: graph is disconnected"


class CapacityError(Exception):
    """Raised past a bound: the subset-sweep cap, the frontier DP's live
    table (``frontier.MAX_FRONTIER_WORDS``), ``LISTING_MAX`` listed sets, the
    family rows' ``verify.MAX_ROW_WORDS``, and the all-graphs order limit of
    8."""


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
        hint = f"raise the cap up to {HARD_CAP} to proceed" if order <= HARD_CAP else f"the sweep's hard limit is {HARD_CAP}"
        raise CapacityError(f"order {order} exceeds the subset-sweep cap {cap} (2**{order} subsets); {hint}")


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
    (graphs, masks) array (:func:`_calls`); then each surviving mask
    reads its own graph's N2 values, one vertex at a time, so the working
    arrays stay a few per surviving mask whatever the order.
    """
    n = len(adj)
    ok = _dom_ok(adj, masks).reshape(-1)
    live = np.flatnonzero(ok)
    s = masks.reshape(-1)[live]
    stacked = masks.ndim > 1
    near = _near(np.concatenate(adj, axis=1) if stacked else np.array([adj], dtype=np.uint32))
    if stacked:  # each surviving mask's graph g
        graph = live // masks.shape[1]
    else:  # the one graph's column, as ints
        near = near[:, 0].tolist()
    reach = s & -s
    half, other = range(n), range(n - 2, -1, -1)
    while live.size:
        prev = reach.copy()
        bit = np.empty_like(reach)
        cell = np.empty_like(reach) if stacked else None
        for v in half:
            np.right_shift(reach, v, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.multiply(bit, np.take(near[v], graph, out=cell) if stacked else near[v], out=bit)
            np.bitwise_and(bit, s, out=bit)
            np.bitwise_or(reach, bit, out=reach)
        spans = reach == s
        grew = reach != prev
        ok[live[~(spans | grew)]] = False
        busy = grew & ~spans
        live, s, reach = live[busy], s[busy], reach[busy]
        if stacked:
            graph = graph[busy]
        half, other = other, half
    return ok.reshape(masks.shape)


def _near(nbrs: np.ndarray) -> np.ndarray:
    """near[v, g], the mask of N2[v] in graph g, the vertices at distance
    at most 2 from v, v included, from the (graphs, n) neighbour masks."""
    n = nbrs.shape[1]
    # links[g, v, u]: u is a neighbour of v in graph g
    links = nbrs[:, :, None] >> np.arange(n, dtype=np.uint32) & 1
    near = np.bitwise_or.reduce(links * nbrs[:, None, :], axis=2) | nbrs | 1 << np.arange(n, dtype=np.uint32)
    return np.ascontiguousarray(near.T)  # rows that np.take reads in place


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


def _layer_floor(adj: list[int], pred: Callable) -> int:
    """The least layer that can hold a subset passing ``pred``: the least
    k >= 1 whose k largest values of degree + ``reach`` sum to at least
    ``need``, since when each member of S accounts for at most its
    degree + ``reach`` of ``need`` things, no smaller S accounts for all.

    For :func:`_weak_ok` on order n, ``need`` is n - 1 and ``reach`` 0: the
    weakly induced subgraph of a hit S is connected and spans all n
    vertices, so it has at least n - 1 edges; every kept edge meets S, so
    the degrees over S sum to at least n - 1. For :func:`_dom_ok`, ``need``
    is n and ``reach`` 1: the closed neighbourhood of v covers at most
    deg v + 1 vertices, and S must cover all n. That floor is the lower of
    the two, so any other kernel gets it."""
    need, reach = (len(adj) - 1, 0) if pred is _weak_ok else (len(adj), 1)
    room = sorted((nbrs.bit_count() + reach for nbrs in adj), reverse=True)
    k = 1
    while k < len(adj) and sum(room[:k]) < need:
        k += 1
    return k


def _calls(adjs: list[list[int]], pred: Callable, chunks: Iterable[np.ndarray]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The kernel calls that test ``pred`` on each chunk of masks in each
    graph of a stack of one order, given by its neighbour masks, chunk by
    chunk. Yields the index of the call's first graph, the chunk and its
    flags, one row per graph. A call takes at most 2**_CHUNK_BITS (graph,
    mask) pairs and at least one graph. One graph passes its int neighbour
    masks and the flat chunk, as a lone query does; more pass (graphs, 1)
    columns and a row of the chunk each."""
    for masks in chunks:
        per_call = max(1, (1 << _CHUNK_BITS) // masks.size)
        for first in range(0, len(adjs), per_call):
            batch = adjs[first : first + per_call]
            if len(batch) == 1:
                yield first, masks, pred(batch[0], masks)[None]
            else:
                cols = np.array(batch, dtype=np.uint32).T[:, :, None].copy()
                yield first, masks, pred(list(cols), np.tile(masks, (len(batch), 1)))


def _least_layers(adjs: list[list[int]], pred: Callable) -> list[int]:
    """Per graph of a stack of one order n, given by its neighbour masks,
    the least k such that some k-subset passes ``pred``. The layers of
    :func:`_layer` are tested upward from the least :func:`_layer_floor` in
    the stack (a graph tested below its own floor finds nothing), each chunk
    against the graphs without a hit yet. A graph retires at its first layer
    with a hit, and the pass stops when every graph has; a stack of one
    graph is a lone query. The callers' graphs always pass with S = V, so
    some layer up to n hits each."""
    n = len(adjs[0])
    least = [0] * len(adjs)
    todo = list(range(len(adjs)))
    for k in range(min(_layer_floor(adj, pred) for adj in adjs), n + 1):
        for masks in _layer(n, k):
            for first, _, ok in _calls([adjs[i] for i in todo], pred, (masks,)):
                for i, hit in zip(todo[first:], ok.any(axis=1)):
                    if hit:
                        least[i] = k
            todo = [i for i in todo if not least[i]]
            if not todo:
                return least
    raise ValueError("no subset passes")


def _layer_hits(adj: list[int], pred: Callable, k: int, most: float = float("inf")) -> np.ndarray:
    """Every k-subset passing ``pred``, as a fresh array, in no particular
    order. :class:`CapacityError` as soon as the chunks' hits pass ``most``."""
    hits, found = [], 0
    for _, masks, ok in _calls([adj], pred, _layer(len(adj), k)):
        hits.append(masks[ok[0]])
        found += hits[-1].size
        if found > most:
            n = len(adj)
            raise CapacityError(f"more than {most} sets of size {k} to list, of C({n}, {k}) = {comb(n, k)}; the listing bound is {most}")
    return np.concatenate(hits)


def _least_hits(adj: list[int], pred: Callable) -> np.ndarray:
    """Every subset passing ``pred`` of the least layer that holds one, from
    one upward walk of :func:`_layer_hits` from :func:`_layer_floor`; the
    callers' graphs pass with S = V."""
    k = _layer_floor(adj, pred)
    while not (hits := _layer_hits(adj, pred, k)).size:
        k += 1
    return hits


def _sweep(adjs: list[list[int]], pred: Callable) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """:func:`_calls` over every subset of each graph of a stack of one
    order n, ascending, the empty set included (it never passes: its least
    intersection in :func:`_dom_ok` is 0, and :func:`_weak_ok` keeps only
    masks that pass ``_dom_ok``); above order _CHUNK_BITS a chunk fills a
    call, so each graph has its own."""
    n = len(adjs[0])
    step = 1 << min(n, _CHUNK_BITS)
    return _calls(adjs, pred, (np.arange(lo, lo + step, dtype=np.uint32) for lo in range(0, 1 << n, step)))


def _stack_hits(adjs: list[list[int]], pred: Callable) -> list[np.ndarray]:
    """The non-empty subsets passing ``pred``, ascending, of each graph of a
    stack of one order (:func:`_sweep`)."""
    hits: list[list[np.ndarray]] = [[] for _ in adjs]
    for first, masks, ok in _sweep(adjs, pred):
        for i, row in enumerate(ok, first):
            hits[i].append(masks[row])
    return [np.concatenate(h) for h in hits]


def _stack_rows(adjs: list[list[int]], pred: Callable) -> list[tuple[int, ...]]:
    """Per graph of a stack of one order n, counts[k - 1] = number of
    k-subsets passing ``pred``, tallied call by call (:func:`_sweep`),
    so no hit outlives its call."""
    n = len(adjs[0])
    counts = np.zeros((len(adjs), n + 1), dtype=np.int64)
    for first, masks, ok in _sweep(adjs, pred):
        # cell (graph row, popcount) of each hit, as one flat index
        cells = np.arange(len(ok))[:, None] * (n + 1) + np.bitwise_count(masks)
        counts[first : first + len(ok)] += np.bincount(cells[ok], minlength=len(ok) * (n + 1)).reshape(-1, n + 1)
    return [tuple(row[1:]) for row in counts.tolist()]


def _count_row(n: int, hits: np.ndarray) -> tuple[int, ...]:
    """counts[k - 1] = number of the masks ``hits`` of popcount k, for
    k = 1..n."""
    return tuple(np.bincount(np.bitwise_count(hits), minlength=n + 1)[1:].tolist())


def sweep_counts(order: int, edges: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Raw subset sweep: row[k - 1] = number of k-subsets whose weakly
    induced spanning subgraph is connected, for k = 1..order."""
    adj = Graph(order, frozenset(edges)).neighbor_masks()
    return _stack_rows([adj], _weak_ok)[0]


def _in_a_minimum(sets: np.ndarray, v: int) -> bool:
    """Whether some smallest of the (non-empty) masks ``sets`` holds vertex v."""
    sizes = np.bitwise_count(sets)
    return bool(np.any(sets[sizes == sizes.min()] & 1 << (v - 1)))


def count_table(g: Graph, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """The count row of g by brute force: row[i - 1] weakly connected
    dominating sets of size i, for i = 1..order.

    A connected graph's row ends in 1 (S = V). A disconnected graph gets the
    all-zero row with no sweep, since no subset can weakly connect it, so
    composition code can proceed uniformly. Orders above ``cap`` raise
    :class:`CapacityError`.
    """
    check_cap(g.order, cap)
    return sweep_counts(g.order, g.edges) if is_connected(g) else (0,) * g.order


def _stacked(graphs: Iterable[Graph], cap: int, query: Callable[[list[list[int]]], list]) -> list:
    """``query``'s value for each of ``graphs``, in their order. The graphs
    of one order form a stack, given to ``query`` as their neighbour masks;
    only the masks are kept, so a caller may build the graphs on the fly.
    An order above ``cap`` raises :class:`CapacityError`, naming the
    largest, before any query."""
    by_order: dict[int, list[tuple[int, list[int] | None]]] = {}
    for i, g in enumerate(graphs):
        # an order above the cap is refused below, before its masks are read
        by_order.setdefault(g.order, []).append((i, g.neighbor_masks() if g.order <= cap else None))
    if by_order:
        check_cap(max(by_order), cap)
    out = [None] * sum(map(len, by_order.values()))
    for _, stack in sorted(by_order.items()):
        for (i, _), value in zip(stack, query([adj for _, adj in stack])):
            out[i] = value
    return out


def sweep_stack(graphs: Iterable[Graph], pred: Callable = _weak_ok, cap: int = DEFAULT_CAP) -> dict[Graph, np.ndarray]:
    """The non-empty subsets passing ``pred`` (:func:`_weak_ok` or
    :func:`_dom_ok`), ascending, of each distinct graph, swept in stacks of
    one order. An order above ``cap`` raises :class:`CapacityError`, naming
    the largest, before any sweep."""
    distinct = list(dict.fromkeys(graphs))
    return dict(zip(distinct, _stacked(distinct, cap, lambda adjs: _stack_hits(adjs, pred))))


def count_stack(graphs: Iterable[Graph], pred: Callable = _weak_ok, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """The count row of each graph, in order, as :func:`count_table`
    (``pred`` :func:`_weak_ok`) or :func:`dominating_counts`
    (:func:`_dom_ok`) give it: counts[i - 1] subsets of size i pass. Swept
    in stacks of one order and tallied call by call, so the memory follows
    the stack, not the hits; the cap as for :func:`sweep_stack`."""
    return _stacked(graphs, cap, lambda adjs: _stack_rows(adjs, pred))


def gamma_w_stack(graphs: Iterable[Graph], cap: int = DEFAULT_CAP) -> list[int]:
    """:func:`gamma_w` of each graph, in order, from one least-layer pass
    per stack of one order; the cap as for :func:`sweep_stack`, then
    ValueError for a disconnected graph."""

    def least(adjs: list[list[int]]) -> list[int]:
        full = (1 << len(adjs[0])) - 1
        if any(weak_reach(adj, full) != full for adj in adjs):
            raise ValueError(_DISCONNECTED)
        return _least_layers(adjs, _weak_ok)

    return _stacked(graphs, cap, least)


def gamma_stack(graphs: Iterable[Graph], cap: int = DEFAULT_CAP) -> list[int]:
    """:func:`gamma` of each graph, in order, from one least-layer pass per
    stack of one order; the cap as for :func:`sweep_stack`."""
    return _stacked(graphs, cap, lambda adjs: _least_layers(adjs, _dom_ok))


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
    tuples in lexicographic order. Empty outside 1..order. More than
    ``LISTING_MAX`` sets raise :class:`CapacityError`, counted chunk by
    chunk before any tuple is built."""
    check_cap(g.order, cap)
    if i < 1 or i > g.order:
        return []
    return _as_tuples(_layer_hits(g.neighbor_masks(), _weak_ok, i, LISTING_MAX), i)


def gamma_w(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum size of a weakly connected dominating set.

    Undefined (ValueError) for disconnected graphs.
    """
    return gamma_w_stack([g], cap)[0]


def gamma(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum size of an ordinary dominating set."""
    return gamma_stack([g], cap)[0]


def dominating_counts(g: Graph, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Counts of ordinary dominating sets by cardinality (index i - 1).

    Companion to :func:`count_table` used by the verification layer to
    diagnose composition formulas whose one-part terms should count
    dominating sets rather than weakly connected ones.
    """
    return count_stack([g], _dom_ok, cap)[0]


def has_minimum_wcds_containing(g: Graph, v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether some minimum-size weakly connected dominating set contains v.
    ValueError for v outside 1..order."""
    check_cap(g.order, cap)
    if not is_connected(g):
        raise ValueError(_DISCONNECTED)
    _member_mask(g, (v,))
    return _in_a_minimum(_least_hits(g.neighbor_masks(), _weak_ok), v)


def has_minimum_dominating_containing(g: Graph, v: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether some minimum-size ordinary dominating set contains v.
    ValueError for v outside 1..order."""
    check_cap(g.order, cap)
    _member_mask(g, (v,))
    return _in_a_minimum(_least_hits(g.neighbor_masks(), _dom_ok), v)
