"""Exact counting by a frontier DP over a vertex order: the second exact
counter, independent of the subset sweep in :mod:`wcds.oracle`.

S is a weakly connected dominating set iff the spanning subgraph of the
edges that meet S is connected; such an S dominates, because every vertex
outside S keeps an edge, and that edge's other end is in S. The DP places
the vertices one at a time. After each step the frontier is the placed
vertices that still have an unplaced neighbour. A state records, for each
frontier vertex, whether it is in S and a canonical label of its component
in the kept edges placed so far; each state carries the polynomial in x
that counts the partial sets reaching it by size, as a list of Python ints.
A component with no frontier vertex can never grow again, so it kills the
state unless it is the whole graph.

With frontier width w there are at most 2^w * Bell(w) states, so work and
memory follow the width of the order, not 2^order. Kawahara et al.,
"Frontier-based search for enumerating all constrained subgraphs with
compressed representation", IEICE Trans. Fundamentals E100-A(9), 2017;
Cygan et al., *Parameterized Algorithms* (2015), ch. 7.
"""

from __future__ import annotations

from .graph import Graph, is_connected
from .oracle import CapacityError, CountTable

# 2**7 * Bell(7) = 112 256 states fit, width 8 (1 059 840) does not; at
# order 30 a state holds at most 31 coefficients
MAX_FRONTIER_STATES = 1 << 17


def bell(k: int) -> int:
    """The number of partitions of a k-set (Bell triangle)."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def projected_states(width: int) -> int:
    """Upper bound on live DP states at frontier width ``width``: 2^w * Bell(w)."""
    return (1 << width) * bell(width)


def frontier_order(g: Graph) -> tuple[tuple[int, ...], int]:
    """A vertex order for the DP and its width, the largest frontier it leaves.

    Greedy over all unplaced vertices: place next the one that leaves the
    smallest frontier, ties to the most placed neighbours, then to the
    lowest label. Builds no DP state.
    """
    adj = g.neighbor_masks()
    unplaced = (1 << g.order) - 1
    frontier: list[int] = []
    order: list[int] = []
    width = 0
    for _ in range(g.order):
        # frontier vertices whose last unplaced neighbour is v leave with v
        leaving: dict[int, int] = {}
        for u in frontier:
            rest = adj[u] & unplaced
            if rest & (rest - 1) == 0:
                leaving[rest] = leaving.get(rest, 0) + 1
        placed = ~unplaced
        best = None
        rest = unplaced
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            size = len(frontier) - leaving.get(bit, 0) + (adj[v] & unplaced & ~bit != 0)
            key = (size, -(adj[v] & placed).bit_count(), v)
            if best is None or key < best:
                best = key
        size, _, v = best
        unplaced &= ~(1 << v)
        frontier = [u for u in (*frontier, v) if adj[u] & unplaced]
        order.append(v + 1)
        width = max(width, size)
    return tuple(order), width


def _place(states: dict, frontier: list[int], v: int, adj: list[int], unplaced: int) -> tuple[dict, list[int]]:
    """One DP step: put v (0-based) in or out of S, keep its edges to the
    frontier, drop the vertices with no unplaced neighbour left."""
    ext = [*frontier, v]
    w = len(frontier)
    linked = [i for i, u in enumerate(frontier) if adj[v] >> u & 1]
    kept = [i for i, u in enumerate(ext) if adj[u] & unplaced]
    nxt: dict = {}
    for (members, comps), poly in states.items():
        for inside in (0, 1):
            ext_members = (*members, inside)
            labels = [*comps, w]  # comps are canonical 0..w-1, so w is fresh
            for i in linked:
                if inside or members[i]:
                    a, b = labels[i], labels[w]
                    if a != b:
                        labels = [a if x == b else x for x in labels]
            every = set(labels)
            if every != {labels[i] for i in kept} and (unplaced or len(every) > 1):
                continue  # a component closed before it spanned the graph
            canon: dict[int, int] = {}
            key = (
                tuple(ext_members[i] for i in kept),
                tuple(canon.setdefault(labels[i], len(canon)) for i in kept),
            )
            grown = [0, *poly] if inside else [*poly, 0]
            old = nxt.get(key)
            nxt[key] = grown if old is None else [a + b for a, b in zip(old, grown)]
    return nxt, [ext[i] for i in kept]


def count_table_frontier(g: Graph) -> CountTable:
    """Full count table for g by the frontier DP; equals ``count_table(g)``.

    Disconnected graphs get the all-zero table with ``connected`` False. A
    width whose projected states exceed :data:`MAX_FRONTIER_STATES` raises
    :class:`CapacityError` before any state is built. There is no order cap.
    """
    if not is_connected(g):
        return CountTable(g.order, (0,) * g.order, connected=False)
    order, width = frontier_order(g)
    if projected_states(width) > MAX_FRONTIER_STATES:
        raise CapacityError(
            f"frontier width {width} allows up to 2**{width} * Bell({width}) = "
            f"{projected_states(width)} DP states, above the bound of {MAX_FRONTIER_STATES}"
        )
    adj = g.neighbor_masks()
    unplaced = (1 << g.order) - 1
    states: dict = {((), ()): [1]}
    frontier: list[int] = []
    for label in order:
        unplaced &= ~(1 << (label - 1))
        states, frontier = _place(states, frontier, label - 1, adj, unplaced)
    (poly,) = states.values()
    return CountTable(g.order, tuple(poly[1:]), connected=True)
