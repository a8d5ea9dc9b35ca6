"""Ground truth for the benchmark's output checks, computed without wcds.

Graphs are ``(order, edges)`` pairs: vertices 1..order, edges a tuple of
``(u, v)`` with ``u < v``. The family constructions follow the labelling that
the wcds command line documents (path 1..n in line order, star centre 1,
wheel hub n), so that record keys naming a root vertex mean the same vertex
here. Two kinds of truth live here:

* rules: closed forms and small dynamic programmes for the families the
  paper treats (path, cycle, star, wheel, complete graph, join);
* brute force: a union-find test of the definition, and exhaustive or
  sampled counts built on it; for graphs of order up to about 20, a
  vectorised pass over all 2^n subsets (``full_rows``) that applies the
  definition to every subset at once.

A set S is weakly connected dominating when the spanning subgraph keeping
every edge with an endpoint in S is connected.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

# Connected labeled graphs on 1..7 vertices (OEIS A001187).
CONNECTED_LABELED = (1, 1, 4, 38, 728, 26704, 1866256)


def choose(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


# --- constructions ------------------------------------------------------------


def path(n: int) -> tuple[int, tuple]:
    return n, tuple((i, i + 1) for i in range(1, n))


def cycle(n: int) -> tuple[int, tuple]:
    order, edges = path(n)
    return order, edges + ((1, n),) if n >= 3 else edges


def complete(n: int) -> tuple[int, tuple]:
    return n, tuple(combinations(range(1, n + 1), 2))


def star(leaves: int) -> tuple[int, tuple]:
    return leaves + 1, tuple((1, v) for v in range(2, leaves + 2))


def wheel(n: int) -> tuple[int, tuple]:
    """Rim cycle on 1..n-1, hub n."""
    _, rim = cycle(n - 1)
    return n, rim + tuple((v, n) for v in range(1, n))


def join(g: tuple[int, tuple], h: tuple[int, tuple]) -> tuple[int, tuple]:
    (n1, e1), (n2, e2) = g, h
    cross = tuple((u, n1 + w) for u in range(1, n1 + 1) for w in range(1, n2 + 1))
    return n1 + n2, e1 + tuple((u + n1, v + n1) for u, v in e2) + cross


def corona(g: tuple[int, tuple], h: tuple[int, tuple]) -> tuple[int, tuple]:
    """One copy of h per vertex i of g, in label blocks after g, joined to i."""
    (n1, e1), (n2, e2) = g, h
    edges = list(e1)
    for i in range(1, n1 + 1):
        base = n1 + (i - 1) * n2
        edges += [(u + base, v + base) for u, v in e2]
        edges += [(i, base + w) for w in range(1, n2 + 1)]
    return n1 + n1 * n2, tuple(edges)


def extend(g: tuple[int, tuple], root: int, m: int) -> tuple[int, tuple]:
    """Hang a pendant path of m new vertices on root, first one next to it."""
    n, e = g
    new = tuple((n + k, n + k + 1) for k in range(1, m))
    return n + m, e + (((root, n + 1),) if m else ()) + new


FAMILY_PREFIX = {"P": path, "C": cycle, "K": complete, "S": star, "W": wheel}


def named_graphs(max_order: int, prefixes: str = "PCKSW") -> list[str]:
    """Labels of the distinct family graphs up to ``max_order``, families in
    the order given, the first label winning (C3 is K3, S1 is P2, W4 is K4)."""
    labels, seen = [], set()
    for prefix in prefixes:
        for n in range(4 if prefix == "W" else 1, max_order + 1):
            order, edges = FAMILY_PREFIX[prefix](n)
            if order > max_order:
                break
            if (order, frozenset(edges)) not in seen:
                seen.add((order, frozenset(edges)))
                labels.append(f"{prefix}{n}")
    return labels


def by_label(label: str) -> tuple[int, tuple]:
    """Graph for a family label such as ``P4``, ``C5``, ``K3``, ``S2``, ``W5``."""
    return FAMILY_PREFIX[label[0]](int(label[1:]))


# --- rules --------------------------------------------------------------------


def path_row(n: int) -> list[int]:
    """The path rule: C(j+1, n-j) sets of size j."""
    return [choose(j + 1, n - j) for j in range(1, n + 1)]


def complete_row(n: int) -> list[int]:
    return [choose(n, i) for i in range(1, n + 1)]


def star_row(leaves: int) -> list[int]:
    """Sets holding the centre, plus the set of all leaves."""
    return [choose(leaves, i - 1) + (i == leaves) for i in range(1, leaves + 2)]


def _cyclic_counts(n: int, accept) -> list[int]:
    """Counts by number of ones of the binary cyclic strings of length n >= 3
    that ``accept(window)`` for every cyclic window of three positions."""
    counts = [0] * (n + 1)
    # state: first two bits, last two bits -> list of counts by ones
    states: dict[tuple[int, int, int, int], list[int]] = {}
    for a in (0, 1):
        for b in (0, 1):
            row = [0] * (n + 1)
            row[a + b] = 1
            states[(a, b, a, b)] = row
    for _ in range(n - 2):
        nxt: dict[tuple[int, int, int, int], list[int]] = {}
        for (a, b, x, y), row in states.items():
            for z in (0, 1):
                if not accept((x, y, z)):
                    continue
                out = nxt.setdefault((a, b, y, z), [0] * (n + 1))
                for k, c in enumerate(row):
                    if c:
                        out[k + z] += c
        states = nxt
    for (a, b, x, y), row in states.items():
        if accept((x, y, a)) and accept((y, a, b)):
            for k, c in enumerate(row):
                counts[k] += c
    return counts


def cycle_row(n: int) -> list[int]:
    """The cycle rule: at most one cyclically adjacent pair of non-members
    (each such pair is an edge the set drops). C1 and C2 are K1 and K2."""
    if n <= 2:
        return complete_row(n)
    # no dropped edge: no window holds two adjacent non-members
    row = _cyclic_counts(n, lambda w: (w[0] or w[1]) and (w[1] or w[2]))
    # one dropped edge, n places for it: its two ends are non-members, their
    # other neighbours members, and the k members on the remaining n - 2
    # positions leave k - 1 gaps for the other n - 2 - k non-members
    for k in range(1, n - 1):
        row[k] += n * choose(k - 1, n - 2 - k)
    return row[1:]


def cycle_dominating_row(m: int) -> list[int]:
    """Dominating sets of the cycle C_m (m >= 3) by size, index i - 1: no
    three cyclically consecutive non-members."""
    counts = _cyclic_counts(m, lambda w: any(w))
    return counts[1:]


def wheel_row(n: int) -> list[int]:
    """The wheel rule: C(n-1, i-1) sets holding the hub, plus the rim sets
    that dominate the rim cycle."""
    rim = cycle_dominating_row(n - 1)
    return [choose(n - 1, i - 1) + (rim[i - 1] if i <= n - 1 else 0) for i in range(1, n + 1)]


def join_row(dom_g: list[int], dom_h: list[int]) -> list[int]:
    """The corrected join rule: a set inside one part must dominate that part,
    and any set meeting both parts qualifies."""
    n1, n2 = len(dom_g), len(dom_h)
    row = []
    for i in range(1, n1 + n2 + 1):
        one_sided = (dom_g[i - 1] if i <= n1 else 0) + (dom_h[i - 1] if i <= n2 else 0)
        row.append(one_sided + sum(choose(n1, a) * choose(n2, i - a) for a in range(1, i)))
    return row


def path_cycle_domination_number(n: int) -> int:
    """gamma of P_n and C_n: ceil(n/3)."""
    return -(-n // 3)


def first_nonzero(row: list[int]) -> int:
    return next(i for i, c in enumerate(row, start=1) if c)


# --- brute force ----------------------------------------------------------------


def neighbours(g: tuple[int, tuple]) -> list[list[int]]:
    """Neighbour lists indexed 0..order-1."""
    n, edges = g
    nb: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nb[u - 1].append(v - 1)
        nb[v - 1].append(u - 1)
    return nb


def is_wcds(nb: list[list[int]], members) -> bool:
    """Union-find test: join every edge with an endpoint among ``members``
    (0-based), then ask for a single component."""
    parent = list(range(len(nb)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = len(nb)
    for v in members:
        for w in nb[v]:
            a, b = find(v), find(w)
            if a != b:
                parent[a] = b
                parts -= 1
    return parts == 1


def dominates(nb: list[list[int]], members) -> bool:
    inside = set(members)
    return all(v in inside or any(w in inside for w in nb[v]) for v in range(len(nb)))


def count_row(g: tuple[int, tuple], sizes=None) -> list[int]:
    """Weakly connected dominating sets by size (index i - 1), by testing
    every subset of the requested sizes (all sizes by default)."""
    n = g[0]
    nb = neighbours(g)
    row = [0] * n
    for i in sizes or range(1, n + 1):
        row[i - 1] = sum(1 for s in combinations(range(n), i) if is_wcds(nb, s))
    return row


def dominating_row(g: tuple[int, tuple]) -> list[int]:
    n = g[0]
    nb = neighbours(g)
    return [sum(1 for s in combinations(range(n), i) if dominates(nb, s)) for i in range(1, n + 1)]


def minimum_size(g: tuple[int, tuple], test) -> int:
    """Smallest size of a vertex set passing ``test(nb, members)``."""
    n = g[0]
    nb = neighbours(g)
    for i in range(1, n + 1):
        if any(test(nb, s) for s in combinations(range(n), i)):
            return i
    raise ValueError("no vertex set passes")


def is_connected(g: tuple[int, tuple]) -> bool:
    return is_wcds(neighbours(g), range(g[0]))


@lru_cache(maxsize=8)
def full_rows(g: tuple[int, tuple]) -> tuple[list[int], list[int]]:
    """Weakly connected dominating and dominating sets by size (index i - 1),
    over every subset of the vertices at once: bit v of a mask is vertex
    v + 1. For each mask, spread reachability from vertex 1 along the kept
    edges (an edge is kept when an endpoint is in the mask) until nothing
    changes; the mask qualifies when everything is reached."""
    n = g[0]
    nb = neighbours(g)
    adj = [sum(1 << w for w in nb[v]) for v in range(n)]
    full = (1 << n) - 1
    masks = np.arange(1 << n, dtype=np.uint32)
    members = [((masks >> v) & 1).astype(bool) for v in range(n)]
    # from v, a kept edge leads to every neighbour when v is in the mask,
    # else only to neighbours in the mask
    step = [np.where(members[v], np.uint32(adj[v]), masks & np.uint32(adj[v])) for v in range(n)]
    reach = np.ones(1 << n, dtype=np.uint32)
    while True:
        before = reach.copy()
        for v in range(n):
            reach |= np.where((reach >> v) & 1 == 1, step[v], np.uint32(0))
        if np.array_equal(before, reach):
            break
    covered = masks.copy()
    for v in range(n):
        covered |= np.where(members[v], np.uint32(adj[v]), np.uint32(0))
    sizes = np.bitwise_count(masks)
    wcds = np.bincount(sizes[reach == full], minlength=n + 1)
    dom = np.bincount(sizes[covered == full], minlength=n + 1)
    return [int(c) for c in wcds[1:]], [int(c) for c in dom[1:]]
