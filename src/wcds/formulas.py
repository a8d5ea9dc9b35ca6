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

from collections.abc import Iterator
from math import comb

import numpy as np

from .graph import Graph, RootedGraph, family_start, is_connected, realize_extension
from .oracle import DEFAULT_CAP, _as_tuples, _count_row, count_table, sweep_stack


class RecurrenceAssumptionError(Exception):
    """Raised when the pendant-path construction hits the family pattern its
    case analysis declares impossible (longer-prefix family non-empty,
    shorter-prefix family empty, within size bounds)."""


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


def _pendant_rows(row0: tuple[int, ...], row1: tuple[int, ...], m: int) -> Iterator[tuple[int, ...]]:
    """Yields the count rows of G(0)..G(m), where G(k) hangs one more path
    vertex on G(k-1), from the rows of G(0) and G(1) by the two-step
    recurrence rows[k](i) = rows[k-1](i-1) + rows[k-2](i-1). It holds two
    rows at a time, so a caller that keeps only the last row stays small.

    The recurrence is stated for i >= 2; read at i = 1 it needs the counts
    of the empty set. That is its one boundary rule: the empty set counts
    once on a single vertex and nowhere else, so column i = 1 is 1 exactly
    at order 3, where G(k-2) is a single vertex and lifts to the centre of
    the 3-path, and 0 at every other order.
    """
    yield from (row0, row1)[: m + 1]
    prev2, prev = row0, row1
    for _ in range(2, m + 1):
        # cell i >= 2 sums cell i - 1 of the two earlier rows; the shorter
        # one has no cell at the largest cardinality
        first = 1 if len(prev) == 2 else 0  # the new row has order 3
        prev2, prev = prev, (first,) + tuple(a + b for a, b in zip(prev, prev2 + (0,)))
        yield prev


def count_path_recurrence(n: int) -> tuple[int, ...]:
    """The path's count row, row[i - 1] sets of size i, by the two-step
    recurrence of :func:`_pendant_rows`: a path is a pendant path on one
    vertex. It starts from the stated rows P1 = (1,) and P2 = (2, 1), not
    from the exhaustive counter, so it stays an independent method."""
    if n < 1:
        raise ValueError("order must be positive")
    for row in _pendant_rows((1,), (2, 1), n - 1):
        pass  # keep the last row only
    return row


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


def count_join(row_g: tuple[int, ...], row_h: tuple[int, ...], i: int) -> int:
    """Stated composition for the join of two connected graphs, from the
    parts' count rows (``row_g[i - 1]`` weakly connected dominating sets of
    G of cardinality i): one-part terms taken from each part's own row, plus
    all two-part splits with i_1, i_2 >= 1 counted as free binomial choices.
    That is :func:`count_join_dominating`'s arithmetic on the parts' weakly
    connected rows in place of their dominating rows.

    Implemented exactly as stated. The verify module's join suite shows the
    one-part terms undercount (membership in the join depends on domination
    of the part, a weaker condition), so do not treat this as ground truth;
    :func:`count_join_dominating` is the corrected rule.
    """
    return count_join_dominating(row_g, row_h, i)


def count_join_dominating(dom_g: tuple[int, ...], dom_h: tuple[int, ...], i: int) -> int:
    """Sets of cardinality i that are weakly connected dominating in the
    join of G and H, from the parts' dominating-set counts (``dom_g[i - 1]``
    sets of cardinality i dominate G; the tuple's length is G's order).

    On a join every dominating set is weakly connected, so this is the
    domination polynomial of the join, D(G v H, x) = ((1+x)^n1 - 1)((1+x)^n2
    - 1) + D(G, x) + D(H, x) (Alikhani & Peng, "Introduction to domination
    polynomial of a graph", Ars Combin. 114, 2014): the one-part terms, and
    the sets with at least one vertex in each part. It is the stated join
    composition with dominating one-part terms in place of weakly connected
    ones, which is why that composition and the wheel rule undercount. A
    wheel is its rim joined with K1, so ``dom_h = (1,)``.
    """
    if i < 1:
        return 0
    n1, n2 = len(dom_g), len(dom_h)
    one_part = (dom_g[i - 1] if i <= n1 else 0) + (dom_h[i - 1] if i <= n2 else 0)
    return one_part + sum(_choose(n1, i1) * _choose(n2, i - i1) for i1 in range(1, i))


def count_wheel(n: int, i: int, cycle_row: tuple[int, ...]) -> int:
    """Stated wheel counts from the rim cycle's count row (``cycle_row[i -
    1]`` sets of cardinality i, order n - 1): 1 at cardinality 1, rim count
    plus hub-assisted binomial above that.

    Inherits the join composition's one-part undercount (the hub-free term
    should count dominating rim sets); the verify module reports where it
    diverges from the exhaustive counter.
    """
    if n < family_start("wheel"):
        raise ValueError(f"wheel order must be at least {family_start('wheel')}")
    if len(cycle_row) != n - 1:
        raise ValueError(f"cycle row has order {len(cycle_row)}, expected {n - 1}")
    if i < 1 or i > n:
        return 0
    if i == 1:
        return 1
    return (cycle_row[i - 1] if i < n else 0) + _choose(n - 1, i - 1)


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


def count_extension_table(rg: RootedGraph, cap: int = DEFAULT_CAP) -> tuple[tuple[int, ...], ...]:
    """The count rows of G(0)..G(m), indexed by k: the first two from the
    exhaustive counter, the rest by the two-step recurrence of
    :func:`_pendant_rows`."""
    m = rg.extension_length
    if m < 2:
        raise ValueError("the recurrence needs extension length at least 2")
    base1 = realize_extension(RootedGraph(rg.base, rg.root, 1))
    return tuple(_pendant_rows(count_table(rg.base, cap), count_table(base1, cap), m))


def _pendant_families(
    rg: RootedGraph, hits0: np.ndarray, hits1: np.ndarray
) -> Iterator[tuple[np.ndarray, dict[int, RecurrenceAssumptionError]]]:
    """Yields, for k = 0..m, the family of weakly connected dominating sets
    of G(k) built from ``hits0`` and ``hits1``, the ascending hit masks of
    G(0) and G(1): one ascending mask array (bit l - 1 is vertex l), and
    the cardinalities at which the construction refuses, each with its
    error. It holds two prefixes at a time, as :func:`_pendant_rows` does.

    Each set of G(k) of size j either ends in the last path vertex, lifted
    from a set of G(k-1) of size j - 1, or in the one before it, lifted from
    a set of G(k-2); the two branches are disjoint. So a step is two ORs and
    a concatenation: the lifted G(k-2) sets stay below 2**(order - 1) and
    the lifted G(k-1) sets hold that bit, so the result stays ascending.
    Two boundary rules keep the recursion exact:

    * cardinality 0 on a single vertex counts the empty set once (the
      convention behind the recurrence's i = 1 boundary rule, see
      :func:`_pendant_rows`);
    * when j - 1 exceeds the order of G(k-2) the shorter-prefix family is
      empty for size reasons alone, and every set must come from the longer
      prefix. Inside the size bound that one-sided pattern is impossible.

    Where it happens anyway, the construction refuses (k, j) with a
    :class:`RecurrenceAssumptionError`, and so every (k', j') whose
    recursion reaches it: each takes the error of its longer prefix first,
    as a depth-first recursion from it would meet them. Whether a family is
    empty is read from the count rows of :func:`_pendant_rows`, run from the
    tallies of ``hits0`` and ``hits1``: a family no refusal reaches has
    exactly the size the recurrence gives it.
    """
    n0 = rg.base.order
    rows = _pendant_rows(*(_count_row(n0 + k, h) for k, h in enumerate((hits0, hits1))), rg.extension_length)
    if n0 == 1:
        hits0 = np.concatenate((np.zeros(1, dtype=np.uint32), hits0))  # the empty set
    prev2 = prev = None  # the (family, refusals, count row) of G(k-2) and G(k-1)
    for k, row in enumerate(rows):
        if k < 2:
            fam, refused = (hits0, hits1)[k], {}
        else:
            (fam2, refused2, row2), (fam1, refused1, row1) = prev2, prev
            order = n0 + k  # of G(k), and the label of its last path vertex
            refused = {}
            # cardinality 1 lifts sets of size 0: G(k-1) has none, so no
            # refusal starts or reaches there
            for j in range(2, order + 1):
                in_bounds = j - 1 <= order - 2  # G(k-2) has sets of size j - 1
                error = refused1.get(j - 1) or (refused2.get(j - 1) if in_bounds else None)
                if error is None and in_bounds and row1[j - 2] and not row2[j - 2]:
                    error = RecurrenceAssumptionError(
                        f"at prefix {k}, cardinality {j}: the longer-prefix "
                        "family is non-empty while the shorter one is empty "
                        "within size bounds; the case analysis assumes this "
                        "cannot happen"
                    )
                if error is not None:
                    refused[j] = error
            fam = np.concatenate((fam2 | 1 << (order - 2), fam1 | 1 << (order - 1)))
        yield fam, refused
        prev2, prev = prev, (fam, refused, row)


def build_extension_wcds(
    rg: RootedGraph, i: int, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """The family of weakly connected dominating sets of G(m) of
    cardinality i, constructed by recursion on the pendant path (see
    :func:`_pendant_families`) from the swept sets of G(0) and G(1). Raises
    :class:`RecurrenceAssumptionError` when the recursion meets a pattern
    its case analysis declares impossible.

    Returns sorted tuples in lexicographic order, same canonical form as
    the exhaustive enumerator, so families compare with plain equality.
    """
    if rg.extension_length < 2:
        raise ValueError("the construction needs extension length at least 2")
    g0, g1 = (realize_extension(RootedGraph(rg.base, rg.root, k)) for k in (0, 1))
    hits = sweep_stack((g0, g1), cap=cap)
    for fam, refused in _pendant_families(rg, hits[g0], hits[g1]):
        pass  # keep the last prefix, G(m), only
    if i in refused:
        raise refused[i]
    return _as_tuples(fam[np.bitwise_count(fam) == i], i) if i >= 0 else []


def boxes_count(n: int, j: int) -> int:
    """Arrangements of j objects in n boxes in a row, at most one per box,
    no two adjacent boxes empty: choose(j+1, n-j)."""
    if n < 1:
        raise ValueError("box count must be positive")
    if j < 0 or j > n:
        return 0
    return _choose(j + 1, n - j)


def boxes_brute(n: int, j: int) -> int:
    """Same count by direct enumeration of occupancy patterns: bit p of a
    pattern is box p occupied, and a pattern passes when no two adjacent
    boxes are both empty. Patterns are swept 2**16 at a time."""
    if n < 1:
        raise ValueError("box count must be positive")
    if j < 0 or j > n:
        return 0
    step = 1 << min(n, 16)
    total = 0
    for lo in range(0, 1 << n, step):
        m = np.arange(lo, lo + step, dtype=np.uint32)
        ok = (~m & ~(m >> 1) & (1 << (n - 1)) - 1) == 0
        total += int(np.count_nonzero(np.bitwise_count(m[ok]) == j))
    return total
