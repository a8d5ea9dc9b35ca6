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

States are keyed by frontier position, not by vertex label, so a step
reads only its signature (:func:`_steps`): the frontier width, the
positions the new vertex links to, the positions of frontier + [v] that
stay, and whether any vertex is left unplaced. Two graphs whose first k
signatures are equal therefore have equal state tables after k steps.
:func:`_frontier_rows` counts a sequence of graphs in one pass on that
lemma: each row resumes from a snapshot of the row before, taken where
their signatures part, so C_{n+1} runs 2 steps after C_n instead of
n + 1. It holds the live state table and at most one snapshot.

With frontier width w there are at most 2^w * Bell(w) states, so work and
memory follow the width of the order, not 2^order. Kawahara et al.,
"Frontier-based search for enumerating all constrained subgraphs with
compressed representation", IEICE Trans. Fundamentals E100-A(9), 2017;
Cygan et al., *Parameterized Algorithms* (2015), ch. 7.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .graph import Graph, is_connected
from .oracle import CapacityError, CountTable

# 2**7 * Bell(7) = 112 256 states fit, width 8 (1 059 840) does not; at
# order 30 a state holds at most 31 coefficients
MAX_FRONTIER_STATES = 1 << 17

# a plan is what frontier_order returns: the vertex order and its width
Plan = tuple[tuple[int, ...], int]


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


def frontier_order(g: Graph) -> Plan:
    """A vertex order for the DP and its width, the largest frontier it leaves.

    Greedy: place next the unplaced vertex that leaves the smallest
    frontier, ties to the most placed neighbours, then to the lowest label.
    Builds no DP state.

    While the frontier F is not empty, only the unplaced neighbours of F are
    scored; the choice is the same as over every unplaced vertex. A vertex
    v with no placed neighbour is no frontier vertex's last unplaced
    neighbour, so placing it frees nobody, and unless v is isolated it
    joins the frontier: it leaves |F| + 1 with 0 placed neighbours. A
    neighbour of F leaves at most |F| + 1 with at least one placed
    neighbour, so its key is smaller. No isolated vertex is left by then:
    while F is empty every unplaced vertex is scored, an isolated one
    leaves 0 and any other 1, so the isolated vertices come first.
    """
    adj = g.neighbor_masks()
    unplaced = (1 << g.order) - 1
    frontier: list[int] = []
    order: list[int] = []
    width = 0
    for _ in range(g.order):
        # frontier vertices whose last unplaced neighbour is v leave with v
        leaving: dict[int, int] = {}
        near = 0
        for u in frontier:
            rest = adj[u] & unplaced
            near |= rest
            if rest & (rest - 1) == 0:
                leaving[rest] = leaving.get(rest, 0) + 1
        placed = ~unplaced
        best = None
        rest = near if frontier else unplaced
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


def _steps(g: Graph, order: tuple[int, ...]) -> list[tuple]:
    """The signature of each DP step along ``order``: the frontier width w,
    the frontier positions the new vertex links to, the positions of
    frontier + [v] that stay (v is position w), and whether any vertex is
    left unplaced. A step reads nothing else of g."""
    adj = g.neighbor_masks()
    unplaced = (1 << g.order) - 1
    frontier: list[int] = []
    steps = []
    for label in order:
        v = label - 1
        unplaced &= ~(1 << v)
        ext = [*frontier, v]
        linked = tuple(i for i, u in enumerate(frontier) if adj[v] >> u & 1)
        kept = tuple(i for i, u in enumerate(ext) if adj[u] & unplaced)
        steps.append((len(frontier), linked, kept, unplaced != 0))
        frontier = [ext[i] for i in kept]
    return steps


def _place(states: dict, step: tuple) -> dict:
    """One DP step with signature ``step``: put the new vertex in or out of
    S, keep its edges to the frontier, drop the positions that do not stay.
    Builds a new table and leaves ``states`` as it was."""
    w, linked, kept, more = step
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
            if every != {labels[i] for i in kept} and (more or len(every) > 1):
                continue  # a component closed before it spanned the graph
            canon: dict[int, int] = {}
            key = (
                tuple(ext_members[i] for i in kept),
                tuple(canon.setdefault(labels[i], len(canon)) for i in kept),
            )
            grown = [0, *poly] if inside else [*poly, 0]
            old = nxt.get(key)
            nxt[key] = grown if old is None else [a + b for a, b in zip(old, grown)]
    return nxt


def count_table_frontier(g: Graph) -> CountTable:
    """Full count table for g by the frontier DP; equals ``count_table(g)``.

    Disconnected graphs get the all-zero table with ``connected`` False. A
    width whose projected states exceed :data:`MAX_FRONTIER_STATES` raises
    :class:`CapacityError` before any state is built. There is no order cap.
    """
    return next(_frontier_rows([(g, frontier_order(g))]))


def _shared(a: list[tuple] | None, b: list[tuple] | None) -> int:
    """How many leading step signatures a and b have in common."""
    k = 0
    for x, y in zip(a or (), b or ()):
        if x != y:
            break
        k += 1
    return k


def _row_steps(row: tuple[Graph, Plan] | None) -> list[tuple] | None:
    """The step signatures of a planned row; None for no row or a
    disconnected graph, which runs no step."""
    if row is None or not is_connected(row[0]):
        return None
    return _steps(row[0], row[1][0])


def _frontier_rows(planned: Iterable[tuple[Graph, Plan]]) -> Iterator[CountTable]:
    """Count tables of the graphs in ``planned``, pairs of a graph and the
    plan :func:`frontier_order` gives for it, one at a time and in order.

    Each row resumes from a snapshot of the row before, taken after the k
    steps whose signatures the two rows share, and runs only the steps after
    it; the snapshot of a row that resumed past its successor's k is the
    empty table. Only the live table and that one snapshot are held. A
    row's width is checked against :data:`MAX_FRONTIER_STATES` when the row
    is reached, so the rows before a refused one are yielded first.
    """
    rows = iter(planned)
    after = next(rows, None)
    after_steps = _row_steps(after)
    start, resume = None, 0  # the table this row resumes from, after `resume` steps
    while after is not None:
        (g, (_, width)), steps = after, after_steps
        after = next(rows, None)
        after_steps = _row_steps(after)
        if steps is None:
            yield CountTable(g.order, (0,) * g.order, connected=False)
            start, resume = None, 0
            continue
        if projected_states(width) > MAX_FRONTIER_STATES:
            raise CapacityError(
                f"frontier width {width} allows up to 2**{width} * Bell({width}) = "
                f"{projected_states(width)} DP states, above the bound of {MAX_FRONTIER_STATES}"
            )
        keep = _shared(steps, after_steps)
        if keep < resume:
            keep = 0  # the table after `keep` steps is gone; the next row starts afresh
        states = start if resume else {((), ()): [1]}
        start = snapshot = None
        for k in range(resume, len(steps)):
            if k == keep:
                snapshot = states
            states = _place(states, steps[k])
        if keep == len(steps):
            snapshot = states
        (poly,) = states.values()
        yield CountTable(g.order, tuple(poly[1:]), connected=True)
        start, resume = snapshot, keep
