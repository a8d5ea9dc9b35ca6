"""Closed forms, recurrences, and constructive procedures for structured
graph families.

Everything here implements a stated counting identity exactly as given, with
no silent corrections. The verify module compares each identity against the
exhaustive counter and reports disagreement; a handful of the identities are
known to disagree on specific instances, and that disagreement is surfaced,
not patched.

Degenerate-cycle conventions C_1 = K_1 and C_2 = K_2 apply throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

from .graph import Graph, RootedGraph, is_connected, realize_extension
from .oracle import DEFAULT_CAP, CountTable, count_table, enumerate_wcds


class RecurrenceAssumptionError(Exception):
    """Raised when the pendant-path construction hits the family pattern its
    case analysis declares impossible (longer-prefix family non-empty,
    shorter-prefix family empty, within size bounds)."""


@dataclass(frozen=True)
class ExtensionTables:
    """Count tables for the pendant-path extensions G(0)..G(m).

    ``base0`` and ``base1`` come from the exhaustive counter; every later row
    is produced by the two-step recurrence
    rows[k](i) = rows[k-1](i-1) + rows[k-2](i-1) for i >= 2.
    """

    base0: CountTable
    base1: CountTable
    rows: tuple[CountTable, ...]

    def __post_init__(self) -> None:
        if self.base1.order != self.base0.order + 1:
            raise ValueError("base1 must extend base0 by one vertex")
        for idx, table in enumerate(self.rows):
            if table.order != self.base0.order + 2 + idx:
                raise ValueError("rows must grow by one vertex each")

    @property
    def m(self) -> int:
        return len(self.rows) + 1

    def row(self, k: int) -> CountTable:
        """Table of G(k) for 0 <= k <= m."""
        if k == 0:
            return self.base0
        if k == 1:
            return self.base1
        return self.rows[k - 2]


def _choose(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def count_complete(n: int, i: int) -> int:
    """Sets of cardinality i in a complete graph of order n: every non-empty
    subset works, so this is a plain binomial."""
    if n < 1:
        raise ValueError("order must be positive")
    if i < 1 or i > n:
        return 0
    return _choose(n, i)


def count_star(n: int, i: int) -> int:
    """Counts for a star with n leaves (order n + 1).

    Sets containing the center keep every edge; the only center-free set
    that works is all n leaves at once.
    """
    if n < 1:
        raise ValueError("leaf count must be positive")
    if i < 1 or i > n + 1:
        return 0
    if i == n + 1:
        return 1
    if i == n:
        return n + 1
    return _choose(n, i - 1)


def count_path_closed(n: int, j: int) -> int:
    """Closed form for paths: choose(j+1, n-j).

    The binomial zero-convention makes the value 0 below half the order, so
    callers may loop j over 1..n uniformly.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if j < 1 or j > n:
        return 0
    return _choose(j + 1, n - j)


def count_path_recurrence(n: int) -> CountTable:
    """Full path table built from the two-step recurrence
    a[k][j] = a[k-1][j-1] + a[k-2][j-1].

    The internal grid carries a j = 0 column seeded 1 for the single-vertex
    row and 0 elsewhere; without it the recurrence loses the size-1 counts
    of odd paths.
    """
    if n < 1:
        raise ValueError("order must be positive")
    rows: list[list[int]] = [[], [1, 1], [0, 2, 1]]
    for k in range(3, n + 1):
        prev, prev2 = rows[k - 1], rows[k - 2]

        def at(row: list[int], j: int) -> int:
            return row[j] if 0 <= j < len(row) else 0

        rows.append([0] + [at(prev, j - 1) + at(prev2, j - 1) for j in range(1, k + 1)])
    return CountTable(n, tuple(rows[n][1:]), connected=True)


def count_cycle_top(n: int, i: int) -> int:
    """Cycle counts at the top cardinalities: choose(n, i) for the last three
    cells, (n+1)n(n-4)/6 one below that. Only these cases are covered;
    anything else is rejected rather than guessed."""
    if n >= 4 and n - 2 <= i <= n:
        return _choose(n, i)
    if n >= 6 and i == n - 3:
        return (n + 1) * n * (n - 4) // 6
    raise ValueError(
        "count_cycle_top covers cardinalities n-2..n for n >= 4 "
        "and n-3 for n >= 6 only"
    )


def count_join(table_g: CountTable, table_h: CountTable, i: int) -> int:
    """Stated composition for the join of two connected graphs: one-part
    terms taken from each part's own count table, plus all two-part splits
    with i_1, i_2 >= 1 counted as free binomial choices.

    Implemented exactly as stated. The verify module's join suite shows the
    one-part terms undercount (membership in the join depends on domination
    of the part, a weaker condition), so do not treat this as ground truth;
    :func:`count_join_dominating` is the corrected rule.
    """
    if i < 1:
        return 0
    return table_g.count(i) + table_h.count(i) + _join_cross(table_g.order, table_h.order, i)


def count_join_dominating(dom_g: tuple[int, ...], dom_h: tuple[int, ...], i: int) -> int:
    """Sets of cardinality i that are weakly connected dominating in the
    join of G and H, from the parts' dominating-set counts (``dom_g[i - 1]``
    sets of cardinality i dominate G; the tuple's length is G's order).

    On a join every dominating set is weakly connected, so this is the
    domination polynomial of the join, D(G v H, x) = ((1+x)^n1 - 1)((1+x)^n2
    - 1) + D(G, x) + D(H, x) (Alikhani & Peng, "Introduction to domination
    polynomial of a graph", Ars Combin. 114, 2014). It is the stated join
    composition with dominating one-part terms in place of weakly connected
    ones, which is why that composition and the wheel rule undercount. A
    wheel is its rim joined with K1, so ``dom_h = (1,)``.
    """
    if i < 1:
        return 0
    n1, n2 = len(dom_g), len(dom_h)
    one_part = (dom_g[i - 1] if i <= n1 else 0) + (dom_h[i - 1] if i <= n2 else 0)
    return one_part + _join_cross(n1, n2, i)


def _join_cross(n1: int, n2: int, i: int) -> int:
    """Sets of cardinality i in a join with at least one vertex in each part."""
    return sum(_choose(n1, i1) * _choose(n2, i - i1) for i1 in range(1, i))


def count_wheel(n: int, i: int, cycle_table: CountTable) -> int:
    """Stated wheel counts from the rim cycle's table: 1 at cardinality 1,
    rim count plus hub-assisted binomial above that.

    Inherits the join composition's one-part undercount (the hub-free term
    should count dominating rim sets); the verify module reports where it
    diverges from the exhaustive counter.
    """
    if n < 4:
        raise ValueError("wheel order must be at least 4")
    if cycle_table.order != n - 1:
        raise ValueError(f"cycle table has order {cycle_table.order}, expected {n - 1}")
    if i < 1 or i > n:
        return 0
    if i == 1:
        return 1
    return cycle_table.count(i) + _choose(n - 1, i - 1)


def gamma_w_path(n: int) -> int:
    """floor(n/2), except order 1 where a non-empty set forces 1."""
    if n < 1:
        raise ValueError("order must be positive")
    return 1 if n == 1 else n // 2


def gamma_w_cycle(n: int) -> int:
    """Same as paths, under the C_1 = K_1 and C_2 = K_2 conventions."""
    if n < 1:
        raise ValueError("order must be positive")
    return 1 if n == 1 else n // 2


def gamma_w_corona(g: Graph) -> int:
    """For a corona over g, the minimum is |V(g)| whatever is hung on it."""
    if g.order < 2:
        raise ValueError("corona base must have order at least 2")
    if not is_connected(g):
        raise ValueError("corona base must be connected")
    return g.order


def gamma_w_join(gamma_g: int, gamma_h: int) -> int:
    """1 when either part has a dominating vertex, else 2."""
    if gamma_g < 1 or gamma_h < 1:
        raise ValueError("domination numbers are at least 1")
    return 1 if gamma_g == 1 or gamma_h == 1 else 2


def gamma_w_extension(gw_base: int, root_in_some_gw_set: bool, m: int) -> int:
    """Stated shift formula for a pendant path of length m hung on a root:
    the saving of one depends on whether some minimum set of the base
    contains the root. Counterexamples exist (the verify module reports
    them with both readings of the flag); implemented as stated."""
    if gw_base < 1:
        raise ValueError("gamma_w of the base is at least 1")
    if m < 0:
        raise ValueError("extension length must be non-negative")
    if m == 0:
        return gw_base
    if root_in_some_gw_set:
        return gw_base + (m - 1) // 2
    return gw_base + m // 2


def count_extension_table(rg: RootedGraph, cap: int = DEFAULT_CAP) -> ExtensionTables:
    """Tables for G(0)..G(m): the first two rows from the exhaustive counter,
    the rest by the two-step recurrence.

    The recurrence is stated for cardinalities i >= 2 only. The i = 1 column
    is filled directly: 0 once the pendant path has length >= 2 and the base
    has order >= 2 (no vertex is adjacent to everything), and the
    single-vertex-base column follows the path seeds (value 1 exactly at
    total order 3).
    """
    m = rg.extension_length
    if m < 2:
        raise ValueError("the recurrence needs extension length at least 2")
    n0 = rg.base.order
    base0 = count_table(rg.base, cap)
    base1 = count_table(realize_extension(RootedGraph(rg.base, rg.root, 1)), cap)
    rows: list[CountTable] = []

    def row(k: int) -> CountTable:
        if k == 0:
            return base0
        if k == 1:
            return base1
        return rows[k - 2]

    for k in range(2, m + 1):
        order_k = n0 + k
        if n0 >= 2:
            first = 0
        else:
            first = 1 if k == 2 else 0
        counts = [first] + [
            row(k - 1).count(i - 1) + row(k - 2).count(i - 1)
            for i in range(2, order_k + 1)
        ]
        rows.append(CountTable(order_k, tuple(counts), connected=base0.connected))
    return ExtensionTables(base0, base1, tuple(rows))


def build_extension_wcds(
    rg: RootedGraph, i: int, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """Constructs the full family of weakly connected dominating sets of
    G(m) of cardinality i by recursion on the pendant path.

    Each set of G(k) either ends in the last path vertex (lifted from
    G(k-1)) or in the one before it (lifted from G(k-2)); the two branches
    are disjoint. Recursion bottoms out at exhaustive enumeration on G(0)
    and G(1). Two boundary rules keep the recursion exact:

    * cardinality 0 on a single vertex counts the empty set once (the
      covering convention that also seeds the path recurrence's grid);
    * when i - 1 exceeds the order of G(k-2) the shorter-prefix family is
      empty for size reasons alone, and every set must come from the longer
      prefix. Inside the size bound that one-sided pattern is impossible,
      and hitting it raises :class:`RecurrenceAssumptionError`.

    Returns sorted tuples in lexicographic order, same canonical form as
    the exhaustive enumerator, so families compare with plain equality.
    """
    m = rg.extension_length
    if m < 2:
        raise ValueError("the construction needs extension length at least 2")
    n0 = rg.base.order

    @cache
    def fam(k: int, j: int) -> tuple[tuple[int, ...], ...]:
        if j < 0 or j > n0 + k:
            return ()
        if j == 0:
            return ((),) if n0 + k == 1 else ()
        if k <= 1:
            realized = realize_extension(RootedGraph(rg.base, rg.root, k))
            return tuple(enumerate_wcds(realized, j, cap))
        f1 = fam(k - 1, j - 1)
        f2 = fam(k - 2, j - 1)
        if f1 and not f2 and j - 1 <= n0 + k - 2:
            raise RecurrenceAssumptionError(
                f"at prefix {k}, cardinality {j}: the longer-prefix "
                "family is non-empty while the shorter one is empty "
                "within size bounds; the case analysis assumes this "
                "cannot happen"
            )
        # labels of G(k-1) stay below n0 + k and those of G(k-2) below
        # n0 + k - 1, so each lifted tuple is already sorted
        return tuple(sorted([x + (n0 + k,) for x in f1] + [x + (n0 + k - 1,) for x in f2]))

    return list(fam(m, i))


def boxes_count(n: int, j: int) -> int:
    """Arrangements of j objects in n boxes in a row, at most one per box,
    no two adjacent boxes empty: choose(j+1, n-j)."""
    if n < 1:
        raise ValueError("box count must be positive")
    if j < 0 or j > n:
        return 0
    return _choose(j + 1, n - j)


def boxes_brute(n: int, j: int) -> int:
    """Same count by direct enumeration of occupancy patterns."""
    if n < 1:
        raise ValueError("box count must be positive")
    if j < 0 or j > n:
        return 0
    total = 0
    for combo in combinations(range(n), j):
        occupied = set(combo)
        if any(p not in occupied and p + 1 not in occupied for p in range(n - 1)):
            continue
        total += 1
    return total
