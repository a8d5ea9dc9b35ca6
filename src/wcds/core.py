"""The defining predicates.

A subset S of the vertices weakly dominates a graph when the spanning
subgraph that keeps exactly the edges with at least one endpoint in S is
connected on the full vertex set. Vertex subsets are plain iterables of
1-based labels; canonical form elsewhere is a sorted tuple.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, weak_reach


def _member_mask(g: Graph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        if not (1 <= v <= g.order):
            raise ValueError(f"vertex {v} outside 1..{g.order}")
        mask |= 1 << (v - 1)
    return mask


def mask_is_wcds(order: int, adj: list[int], mask: int) -> bool:
    """Bitmask form of :func:`is_wcds` for hot loops. ``mask`` must be non-zero."""
    return weak_reach(adj, mask) == (1 << order) - 1


def weakly_induced(g: Graph, s: Iterable[int]) -> Graph:
    """The spanning subgraph keeping exactly the edges with an endpoint in s.

    All vertices survive; vertices not touched by a kept edge become isolated.
    """
    mask = _member_mask(g, s)
    kept = frozenset(e for e in g.edges if (mask >> (e[0] - 1)) & 1 or (mask >> (e[1] - 1)) & 1)
    return Graph(g.order, kept)


def is_wcds(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is a weakly connected dominating set of g.

    The empty set is rejected: these sets are non-empty by definition. For the
    one-vertex graph, {1} qualifies.
    """
    mask = _member_mask(g, s)
    if mask == 0:
        raise ValueError("a weakly connected dominating set must be non-empty")
    return mask_is_wcds(g.order, g.neighbor_masks(), mask)


def is_dominating(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex outside s has a neighbor in s."""
    mask = _member_mask(g, s)
    adj = g.neighbor_masks()
    for v in range(g.order):
        if not (mask >> v) & 1 and not adj[v] & mask:
            return False
    return True
