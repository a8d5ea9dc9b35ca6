"""Exact counting by a frontier DP over a vertex order: the second exact
counter, independent of the subset sweep in :mod:`wcds.oracle`.

S is a weakly connected dominating set iff the spanning subgraph of the
edges that meet S is connected; such an S dominates, because every vertex
outside S keeps an edge, and that edge's other end is in S. The DP places
the vertices one at a time. After each step the frontier is the placed
vertices that still have an unplaced neighbour. A state's key is one flat
tuple: for each frontier vertex whether it is in S, then for each a
canonical label of its component in the kept edges placed so far. Each
state carries the polynomial in x that counts the partial sets reaching it
by size, as a list of Python ints. A component with no frontier vertex can
never grow again, so it kills the state unless it is the whole graph.

States are keyed by frontier position, not by vertex label, so a step
reads only its signature (:func:`_plan`): the frontier width, the
positions the new vertex links to, the positions of frontier + [v] that
stay, and whether any vertex is left unplaced. Two graphs whose first k
signatures are equal therefore have equal state tables after k steps.
:func:`_frontier_rows` counts a sequence of graphs in one pass on that
lemma: each row resumes from a snapshot of the row before, taken where
their signatures part, so C_{n+1} runs 2 steps after C_n instead of
n + 1. Equal signatures also apply the same map to each state key, so
each step is compiled: a state key's two successors are worked out once
per signature and then read. The pass holds the live state table, at most
one snapshot, and the maps of signatures that run next.

The named families need no search for their order. :func:`family_plan`
writes the plan of a path, cycle, star or wheel from (family, n) alone as
a word, prefix · bulk^k · suffix, over shared signature tuples, and that
of K_n, or of a member too small for its word, which is complete, as its
n steps; it equals ``_plan(build_family(family, n))``. So the
DP counts no family row from a built graph or a greedy order: the greedy
stays the reference and serves the graphs that are given as graphs.

With frontier width w there are at most 2^w * Bell(w) states, so work and
memory follow the width of the order, not 2^order. The live table is often
far smaller (K_n's peaks at 2^(n-1) states), so the DP's one bound is
checked on the table each step builds (:func:`_check_table`). Kawahara et al.,
"Frontier-based search for enumerating all constrained subgraphs with
compressed representation", IEICE Trans. Fundamentals E100-A(9), 2017;
Cygan et al., *Parameterized Algorithms* (2015), ch. 7.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import add

from .graph import Graph, family_order
from .oracle import CapacityError, CountTable

# the most 64-bit words a live state table may hold (_check_table). 2**21 is
# the least power of two that admits K_16 (32,768 states, 57 MiB VmHWM) and the
# 8x8 grid (20,561 states, 64 MiB); K_17 and K_30 are refused at step 16 with
# 65,536 states at 87 MiB, the 9x9 grid at step 30 at 48 MiB
MAX_FRONTIER_WORDS = 1 << 21

# a plan is what _plan and family_plan return: the vertex order, its width,
# and the signature of each step, None for a disconnected graph
Plan = tuple[tuple[int, ...], int, list[tuple] | None]


def _plan(g: Graph) -> Plan:
    """A vertex order for the DP, its width (the largest frontier it
    leaves), and the signature of each step along it; in the positions that
    stay, v is position w. A graph is disconnected iff its frontier empties
    while vertices are unplaced; its signatures are None. Builds no DP
    state.

    Greedy: place next the unplaced vertex that leaves the smallest
    frontier, ties to the most placed neighbours, then to the lowest label.
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
    steps: list[tuple] = []
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
        width = max(width, size)
        unplaced &= ~(1 << v)
        ext = (*frontier, v)
        kept = tuple([i for i, u in enumerate(ext) if adj[u] & unplaced])
        steps.append((len(frontier), tuple([i for i, u in enumerate(frontier) if adj[v] >> u & 1]), kept, unplaced != 0))
        frontier = [ext[i] for i in kept]
        order.append(v + 1)
    connected = all(kept or not more for _, _, kept, more in steps)
    return tuple(order), width, steps if connected else None


# the step signatures of the family words (see _plan): the first and the last
# vertex, then a path, a star leaf, a cycle and a wheel's hub and rim
_FIRST = (0, (), (0,), True)
_LAST = (1, (0,), (), False)
_PATH = (1, (0,), (1,), True)
_LEAF = (1, (0,), (0,), True)
_OPEN = (1, (0,), (0, 1), True)
_ARC = (2, (1,), (0, 2), True)
_CLOSE = (2, (0, 1), (), False)
_HUB = (2, (0, 1), (0, 1, 2), True)
_RIM_FIRST = (3, (1, 2), (0, 2, 3), True)
_RIM = (3, (1, 2), (0, 1, 3), True)
_SPOKE_LAST = (3, (0, 1, 2), (), False)
# family -> (width, prefix, bulk, suffix); a member of lower order than
# prefix and suffix (P_1 = C_1 = K_1, C_2 = K_2, W_4 = K_4) is complete
_WORDS = {
    "path": (1, (_FIRST,), _PATH, (_LAST,)),
    "star": (1, (_FIRST,), _LEAF, (_LAST,)),
    "cycle": (2, (_FIRST, _OPEN), _ARC, (_CLOSE,)),
    "wheel": (3, (_FIRST, _OPEN, _HUB, _RIM_FIRST), _RIM, (_SPOKE_LAST,)),
}


def family_plan(family: str, n: int) -> Plan:
    """``_plan(build_family(family, n))`` for a named family member, written
    from (family, n) alone: no graph is built and no vertex scored. A path,
    cycle, star or wheel reads its word, prefix · bulk^k · suffix; the order
    is 1..order, except W_n = (1, 2, n, 3, ..., n - 1) (the hub third). A
    member of lower order than its word's prefix and suffix is complete and
    takes K_n's plan: step i links to the whole frontier of i and keeps it
    and the new vertex until the last step, so its width is n - 1.
    ValueError for an unknown family and for n below the family's start."""
    order = family_order(family, n)
    if family != "complete":
        width, prefix, bulk, suffix = _WORDS[family]
        if order >= len(prefix) + len(suffix):
            vertices = (1, 2, n, *range(3, n)) if family == "wheel" else tuple(range(1, order + 1))
            return vertices, width, [*prefix, *[bulk] * (order - len(prefix) - len(suffix)), *suffix]
    full = tuple(range(order))  # the steps' positions are slices of one tuple, sharing its ints
    steps = [(i, full[:i], full[: i + 1] if i < order - 1 else (), i < order - 1) for i in range(order)]
    return tuple(range(1, order + 1)), order - 1, steps


def _successors(step: tuple, key: tuple) -> tuple:
    """The keys state ``key`` goes to in a step with signature ``step``, the
    new vertex out of S and then in S; None where a component closed before
    it spanned the graph."""
    w, linked, kept, more = step
    members, comps = key[:w], key[w:]
    out = []
    for inside in (0, 1):
        ext_members = (*members, inside)
        labels = [*comps, w]  # comps are canonical 0..w-1, so w is fresh
        for i in linked:
            if inside or members[i]:
                a, b = labels[i], labels[w]
                if a != b:
                    labels = [a if x == b else x for x in labels]
        stay = [labels[i] for i in kept]
        every = set(labels)
        if len(every) != len(set(stay)) and (more or len(every) > 1):
            out.append(None)
        else:
            canon: dict[int, int] = {}
            out.append(tuple([ext_members[i] for i in kept] + [canon.setdefault(x, len(canon)) for x in stay]))
    return tuple(out)


def _place(states: dict, step: tuple, compiled: dict) -> dict:
    """One DP step with signature ``step``: a new table, ``states`` left as it
    was. ``compiled`` maps the state keys met under this signature to their
    :func:`_successors`; a key met for the first time is added."""
    nxt: dict = {}
    for key, poly in states.items():
        # a pair of successors is never falsy, so each is worked out once
        out, inside = compiled.get(key) or compiled.setdefault(key, _successors(step, key))
        if out is not None:
            old = nxt.get(out)
            nxt[out] = [*poly, 0] if old is None else [*map(add, old, poly), old[-1]]
        if inside is not None:
            old = nxt.get(inside)
            nxt[inside] = [0, *poly] if old is None else [old[0], *map(add, old[1:], poly)]
    return nxt


def count_table_frontier(g: Graph) -> CountTable:
    """Full count table for g by the frontier DP; equals ``count_table(g)``.

    Disconnected graphs get the all-zero table with ``connected`` False. A
    step whose table passes :data:`MAX_FRONTIER_WORDS` raises
    :class:`CapacityError` (see :func:`_check_table`), and so does an order
    whose one-state table passes it, before the vertex order is searched.
    There is no order cap.
    """
    _check_table(1, g.order, 0, 0)  # every table holds a state: refuse before the greedy
    return next(_frontier_rows([_plan(g)]))


def _shared(a: list[tuple] | None, b: list[tuple] | None) -> int:
    """How many leading step signatures a and b have in common."""
    k = 0
    for x, y in zip(a or (), b or ()):
        if x != y:
            break
        k += 1
    return k


def _check_table(live: int, order: int, kept: int, step: int) -> None:
    """CapacityError when ``live`` states after step ``step`` of an
    order-``order`` row pass :data:`MAX_FRONTIER_WORDS`: each holds order +
    1 coefficients below 2^order, ⌈order / 64⌉ words each, and a key of 2
    entries per ``kept`` frontier vertex."""
    words = live * ((order + 1) * -(-order // 64) + 2 * kept)
    if words > MAX_FRONTIER_WORDS:
        raise CapacityError(
            f"step {step} of {order} holds {live} live DP states, {words} words, above the bound of {MAX_FRONTIER_WORDS}"
        )


def _frontier_rows(plans: Iterable[Plan]) -> Iterator[CountTable]:
    """Count tables of the graphs whose plans by :func:`_plan` are
    ``plans``, one at a time and in order.

    Each row resumes from a snapshot of the row before, taken after the k
    steps whose signatures the two rows share, and runs only the steps after
    it; the snapshot of a row that resumed past its successor's k is the
    empty table. A step's compiled map is kept only while the row's next
    step or a step the next row runs has its signature.

    Each step's table is checked by :func:`_check_table`; the step that
    passes the bound raises :class:`CapacityError`, so the rows before a
    refused one are yielded first. A step at most doubles the live states,
    so a refused table is about twice the bound at most.
    """
    rows = iter(plans)
    after = next(rows, None)
    start, resume = None, 0  # the table this row resumes from, after `resume` steps
    compiled: dict[tuple, dict] = {}  # signature -> its map
    while after is not None:
        (order, _, steps), after = after, next(rows, None)
        if steps is None:
            yield CountTable(len(order), (0,) * len(order), connected=False)
            start, resume = None, 0
            continue
        after_steps = after and after[2]
        keep = _shared(steps, after_steps)
        if keep < resume:
            keep = 0  # the table after `keep` steps is gone; the next row starts afresh
        wanted = set(after_steps[keep:] if after_steps else ())  # the steps the next row runs
        states = start if resume else {(): [1]}
        start = snapshot = None
        for k in range(resume, len(steps)):
            if k == keep:
                snapshot = states
            states = _place(states, steps[k], compiled.setdefault(steps[k], {}))
            _check_table(len(states), len(order), len(steps[k][2]), k + 1)
            if steps[k] not in wanted and steps[k + 1 : k + 2] != steps[k : k + 1]:
                del compiled[steps[k]]
        if keep == len(steps):
            snapshot = states
        (poly,) = states.values()
        yield CountTable(len(order), tuple(poly[1:]), connected=True)
        start, resume = snapshot, keep
