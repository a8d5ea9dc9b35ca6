"""Simple undirected graphs on vertex labels 1..order, plus the constructions
(join, corona, pendant-path extension, named families) that the counting and
verification layers operate on.

A Graph is its order and its edges: values are immutable and hash by
both, so they can key dicts. A named family member is named by (family, n);
:func:`build_family` builds it, :func:`family_order` and
:func:`family_label` give its order and display name without building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

FAMILIES = ("path", "cycle", "complete", "star", "wheel")


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 1..order.

    ``edges`` holds sorted 2-tuples (u, v) with u < v. Construct via
    :func:`make_graph` unless the edges are already canonical.
    """

    order: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"graph order must be >= 1, got {self.order}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.order):
                raise ValueError(f"edge ({u}, {v}) is not canonical for order {self.order}")

    def vertices(self) -> range:
        return range(1, self.order + 1)

    def neighbor_masks(self) -> list[int]:
        """Adjacency as bitmasks; bit k stands for vertex k + 1."""
        adj = [0] * self.order
        for u, v in self.edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return adj

    def label(self) -> str:
        """Short display name by order and size; a named family member's is
        :func:`family_label`."""
        return f"G(n={self.order},m={len(self.edges)})"


@dataclass(frozen=True)
class RootedGraph:
    """A base graph with a chosen root and a pendant path of ``extension_length``
    new vertices to be attached at the root."""

    base: Graph
    root: int
    extension_length: int

    def __post_init__(self) -> None:
        if not (1 <= self.root <= self.base.order):
            raise ValueError(f"root {self.root} outside 1..{self.base.order}")
        if self.extension_length < 0:
            raise ValueError("extension length must be >= 0")


def make_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an arbitrary edge iterable.

    Pairs are normalized to (min, max) and duplicates collapse. Self-loops and
    labels outside 1..order are rejected.
    """
    if order < 1:
        raise ValueError(f"graph order must be >= 1, got {order}")
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= order) or not (1 <= v <= order):
            raise ValueError(f"edge ({u}, {v}) outside 1..{order}")
        canon.add((u, v) if u < v else (v, u))
    return Graph(order, frozenset(canon))


def family_start(family: str) -> int:
    """The least size of a named family: 4 for the wheel, 1 for the rest."""
    return 4 if family == "wheel" else 1


def family_order(family: str, n: int) -> int:
    """The order of ``build_family(family, n)``, without building it:
    ValueError for an unknown family or a size out of range."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    start = family_start(family)
    if n < start:
        raise ValueError(f"wheel requires n >= {start}, got {n}" if family == "wheel" else f"family size must be >= {start}, got {n}")
    return n + 1 if family == "star" else n


def family_label(family: str, n: int) -> str:
    """The short display name of ``build_family(family, n)``, such as P5."""
    return {"path": "P", "cycle": "C", "complete": "K", "star": "S", "wheel": "W"}[family] + str(n)


def build_family(family: str, n: int) -> Graph:
    """Construct a named family member.

    path(n): vertices 1..n in a line. cycle(n): path plus the closing edge,
    with cycle(1) = complete(1) and cycle(2) = complete(2). complete(n): all
    pairs. star(n): center 1 with n leaves, order n + 1. wheel(n): cycle(n - 1)
    joined with a single hub (vertex n), n >= 4.
    """
    family_order(family, n)  # the refusals
    if family == "wheel":
        return join(build_family("cycle", n - 1), build_family("complete", 1))
    if family == "path":
        return Graph(n, frozenset((i, i + 1) for i in range(1, n)))
    if family == "cycle":
        edges = [(i, i + 1) for i in range(1, n)]
        if n >= 3:
            edges.append((1, n))
        return Graph(n, frozenset(edges))
    if family == "complete":
        return Graph(n, frozenset(combinations(range(1, n + 1), 2)))
    # star: center 1, leaves 2..n+1
    return Graph(n + 1, frozenset((1, leaf) for leaf in range(2, n + 2)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every cross edge. Vertices of h are
    relabeled to order(g)+1 .. order(g)+order(h)."""
    off = g.order
    edges = set(g.edges)
    edges.update((u + off, v + off) for u, v in h.edges)
    edges.update((u, w + off) for u in g.vertices() for w in h.vertices())
    return Graph(g.order + h.order, frozenset(edges))


def corona(g: Graph, h: Graph) -> Graph:
    """One fresh copy of h per vertex of g, fully joined to that vertex.

    The copy for vertex i occupies the label block directly after g and the
    previous copies. h must be non-empty (every graph here has order >= 1, so
    this only documents the contract).
    """
    edges = set(g.edges)
    for i in g.vertices():
        base = g.order + (i - 1) * h.order
        edges.update((u + base, v + base) for u, v in h.edges)
        edges.update((i, base + w) for w in h.vertices())
    return Graph(g.order + g.order * h.order, frozenset(edges))


def realize_extension(rg: RootedGraph) -> Graph:
    """Attach the pendant path: new vertices order(base)+1 .. order(base)+m in
    path order, first one adjacent to the root. m = 0 returns the base as is."""
    m = rg.extension_length
    if m == 0:
        return rg.base
    off = rg.base.order
    edges = set(rg.base.edges)
    edges.add((rg.root, off + 1) if rg.root < off + 1 else (off + 1, rg.root))
    edges.update((off + k, off + k + 1) for k in range(1, m))
    return Graph(off + m, frozenset(edges))


def delete_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    u, v = edge
    e = (u, v) if u < v else (v, u)
    if e not in g.edges:
        raise ValueError(f"edge {e} not present")
    return Graph(g.order, g.edges - {e})


def weak_reach(adj: list[int], mask: int) -> int:
    """Bitmask of the vertices reachable from vertex 1 when only the edges
    meeting ``mask`` are kept; ``adj`` holds the neighbour masks of
    :meth:`Graph.neighbor_masks`. With ``mask`` every vertex, every edge is
    kept."""
    reach = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            v = b.bit_length() - 1
            nxt |= adj[v] if (mask >> v) & 1 else adj[v] & mask
        frontier = nxt & ~reach
        reach |= frontier
    return reach


def is_connected(g: Graph) -> bool:
    full = (1 << g.order) - 1
    return weak_reach(g.neighbor_masks(), full) == full


def read_edge_list(lines: str | Iterable[str], admit: Callable[[int], None] = lambda order: None) -> tuple[Graph, dict[int, int]]:
    """Parse the edge-list text format, given whole or as lines (such as an
    open file, read one line at a time).

    An optional first line ``n <order>`` fixes the order; otherwise the order
    is the largest label seen. Lines are ``u v`` pairs, ``#`` starts a
    comment, blank lines are skipped. Labels must be non-negative; without
    a header, files that use label 0 are renumbered to 1..k in sorted label
    order, and with one, labels must lie in 1..order. Each distinct edge is
    held once however often it is repeated. Returns the graph and the
    original-to-normalized label mapping.

    ``admit`` is called with the header's order, and without a header with
    each new count of distinct labels; both are lower bounds on the order.
    It may raise to refuse the graph, and then no further line is read.
    """
    header: int | None = None
    pairs: set[tuple[int, int]] = set()  # as (min, max): a repeated line adds nothing
    labels: set[int] = set()
    seen_any = False
    for lineno, raw in enumerate(lines.splitlines() if isinstance(lines, str) else lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not seen_any and parts[0] == "n":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed order header")
            try:
                header = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer order in {line!r}") from None
            admit(header)
            seen_any = True
            continue
        seen_any = True
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer label in {line!r}") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative label")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if header is not None and not (1 <= u <= header and 1 <= v <= header):
            raise ValueError(f"edge ({u}, {v}) outside 1..{header}")
        pairs.add((u, v) if u < v else (v, u))
        known = len(labels)
        labels.update((u, v))
        if header is None and len(labels) > known:
            admit(len(labels))

    if header is None and not labels:
        raise ValueError("no edges and no order header")
    if header is None and 0 in labels:
        mapping = {lab: k for k, lab in enumerate(sorted(labels), start=1)}
        # the renumbering keeps label order, so each pair stays (min, max)
        return Graph(len(labels), frozenset((mapping[u], mapping[v]) for u, v in pairs)), mapping
    mapping = {lab: lab for lab in sorted(labels)}
    return Graph(max(labels) if header is None else header, frozenset(pairs)), mapping


def write_edge_list(g: Graph) -> str:
    lines = [f"n {g.order}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
