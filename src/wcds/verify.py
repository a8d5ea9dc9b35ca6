"""Cross-checking engine.

Reproduces the embedded reference tables, runs every stated identity against
the exhaustive counter, and sweeps all labeled graphs of small order for the
structural checks. Reports are plain records with exact integer comparisons;
a failing record means the stated identity and the exhaustive count disagree
on that instance, and the record's detail says why where the cause is known.

Every suite is one entry of ``SUITES`` (record builder and default sizes),
and ``verify_formula_suite`` runs each of them. All randomized suites draw
from a fixed default seed so reports are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from . import formulas
from .frontier import _frontier_rows, count_table_frontier, family_plan
from .graph import Graph, RootedGraph, build_family, corona, family_label, family_order, family_start, join, make_graph, realize_extension
from .oracle import (
    DEFAULT_CAP,
    CapacityError,
    CountTable,
    _as_tuples,
    _count_row,
    _dom_ok,
    _in_a_minimum,
    check_cap,
    count_stack,
    count_table,
    dominating_counts,
    gamma_stack,
    gamma_w_stack,
    sweep_stack,
)

DEFAULT_SEED = 1729

# the counting methods of ``family_rows`` and ``table_by_method``, spelled as ``wcds count --method``
METHODS = ("oracle", "frontier", "formula", "recurrence")

# Frozen reference rows. Cardinalities run 1..n; zero entries are cells the
# source layout leaves blank. Any disagreement between these rows and the
# exhaustive counter is a hard failure.
REFERENCE_PATH_TABLE: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (2, 1),
    3: (1, 3, 1),
    4: (0, 3, 4, 1),
    5: (0, 1, 6, 5, 1),
    6: (0, 0, 4, 10, 6, 1),
    7: (0, 0, 1, 10, 15, 7, 1),
    8: (0, 0, 0, 5, 20, 21, 8, 1),
    9: (0, 0, 0, 1, 15, 35, 28, 9, 1),
    10: (0, 0, 0, 0, 6, 35, 56, 36, 10, 1),
}

REFERENCE_CYCLE_TABLE: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (2, 1),
    3: (3, 3, 1),
    4: (0, 6, 4, 1),
    5: (0, 5, 10, 5, 1),
    6: (0, 0, 14, 15, 6, 1),
    7: (0, 0, 7, 28, 21, 7, 1),
    8: (0, 0, 0, 26, 48, 28, 8, 1),
    9: (0, 0, 0, 9, 63, 75, 36, 9, 1),
    10: (0, 0, 0, 0, 42, 125, 110, 45, 10, 1),
    11: (0, 0, 0, 0, 11, 121, 220, 154, 55, 11, 1),
    12: (0, 0, 0, 0, 0, 62, 276, 357, 208, 66, 12, 1),
    13: (0, 0, 0, 0, 0, 13, 208, 546, 546, 273, 78, 13, 1),
    14: (0, 0, 0, 0, 0, 0, 86, 539, 980, 798, 350, 91, 14, 1),
}


class UnsupportedMethodError(ValueError):
    """Requested counting method does not apply to the given graph."""


@dataclass(frozen=True)
class CheckRecord:
    """One exact comparison: what the claim under test predicts versus what
    exhaustive computation finds."""

    key: str
    source: str
    claimed_value: int | str
    oracle_value: int | str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    records: tuple[CheckRecord, ...]
    skipped: int
    wall_time: float

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failures(self) -> int:
        return len(self.records) - self.passes

    def all_passed(self) -> bool:
        return self.failures == 0

    def failing(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "passes": self.passes,
            "failures": self.failures,
            "skipped": self.skipped,
            "records": [vars(r) for r in self.records],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        lines = [
            f"# verification: {self.suite}",
            "",
            f"{self.passes} passed, {self.failures} failed, {self.skipped} skipped.",
            "",
        ]
        if self.failures == 0:
            lines.append("All checks passed.")
        else:
            lines.append("| instance | source | claimed | exhaustive | detail |")
            lines.append("| --- | --- | --- | --- | --- |")
            for r in self.failing():
                lines.append(
                    f"| {r.key} | {r.source} | {r.claimed_value} "
                    f"| {r.oracle_value} | {r.detail} |"
                )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "source", "claimed", "exhaustive", "passed", "detail"])
        for r in self.records:
            writer.writerow(
                [r.key, r.source, r.claimed_value, r.oracle_value, r.passed, r.detail]
            )
        return buf.getvalue()


def _finish(suite: str, records: list[CheckRecord], skipped: int, t0: float) -> VerificationReport:
    return VerificationReport(suite, tuple(records), skipped, time.perf_counter() - t0)


def _check(key: str, source: str, claimed: int | str, exhaustive: int | str, detail: str = "") -> CheckRecord:
    """A record whose verdict is plain equality of claim and exhaustive value."""
    return CheckRecord(key, source, claimed, exhaustive, claimed == exhaustive, detail)


def _agree(key: str, source: str, claimed: int, exhaustive: int, values: dict[str, int]) -> CheckRecord:
    """A record that passes when every named value is equal; when they
    differ its detail lists them as ``name value, ...``."""
    passed = len(set(values.values())) == 1
    detail = "" if passed else ", ".join(f"{name} {v}" for name, v in values.items())
    return CheckRecord(key, source, claimed, exhaustive, passed, detail)


def _suite_path_table(max_n: int, cap: int, **_) -> list[CheckRecord]:
    """Path counts four ways: reference row, exhaustive counter, closed form,
    recurrence. Beyond the reference rows (n > 10) the comparison is
    three-way with the exhaustive counter as referee."""
    records: list[CheckRecord] = []
    sizes = range(1, max_n + 1)
    for n, actual, closed, rec in zip(sizes, *(family_rows("path", sizes, m, cap) for m in ("oracle", "formula", "recurrence"))):
        for j in range(1, n + 1):
            o, c = actual[j - 1], closed[j - 1]
            values = {"exhaustive": o, "closed form": c, "recurrence": rec[j - 1]}
            if n <= 10:
                ref = REFERENCE_PATH_TABLE[n][j - 1]
                source = "reference row + closed form + recurrence"
                records.append(_agree(f"path n={n} j={j}", source, ref, o, {"reference": ref, **values}))
            else:
                records.append(_agree(f"path n={n} j={j}", "closed form + recurrence", c, o, values))
    return records


def _suite_cycle_table(max_n: int, cap: int, **_) -> list[CheckRecord]:
    """Cycle counts against the reference rows (n <= 14), plus the top-cell
    closed forms and the one-step shift identity on exhaustive values."""
    records: list[CheckRecord] = []
    sizes = range(1, max_n + 1)
    rows = dict(zip(sizes, family_rows("cycle", sizes, "oracle", cap)))
    for n in range(1, min(max_n, 14) + 1):
        for j in range(1, n + 1):
            ref = REFERENCE_CYCLE_TABLE[n][j - 1]
            records.append(_check(f"cycle n={n} j={j}", "reference row", ref, rows[n][j - 1]))
    for n in range(4, max_n + 1):
        tops = ([n - 3] if n >= 6 else []) + [n - 2, n - 1, n]
        for i in tops:
            c = formulas.count_cycle_top(n, i)
            records.append(_check(f"cycle n={n} i={i}", "top-cell closed form", c, rows[n][i - 1]))
    for n in range(7, max_n + 1):
        prev = rows[n - 1]
        claimed = prev[n - 5] + prev[n - 4] - 1
        records.append(_check(f"cycle n={n} shift", "one-step shift identity", claimed, rows[n][n - 4]))
    return records


# --- dense tables over every labeled graph of a fixed small order ----------
#
# A labelled graph of order k is its edge mask G: bit b is the b-th pair of
# combinations(range(k), 2). A vertex subset S is a mask as well (bit v is
# vertex v). The flags of one subset over every graph are a packed bit plane:
# bit G & 63 of its 64-bit word G >> 6 says whether S is weakly connected
# dominating in G. The words are read as one axis of length 2 per pair from
# 6 on, highest first: a pair b >= 6 is bit b - 6 of the word index, and a
# pair below 6 is a bit inside each word. Fixing the axes of some pairs
# (``_fix``) gives every subset's plane as a view of the connectivity table.
#
# Whether S is weakly connected dominating in G depends on the graph alone,
# not on its labels: for every permutation p of the vertices, S is one in G
# iff p(S) is one in p(G), and G -> p(G) is a bijection on the labelled
# graphs of order k that keeps connectivity. So every subset of one size
# (every (S, v) with v outside S, every pair) has the same counts over all
# graphs, and the checks count one of each, scaled by how many there are.

# the largest order of the packed connectivity table, 32 MiB at order 8, and
# the most bytes of it the checks read at once: they walk it in slices
# (``_slices``), so below order 8 one slice is the whole table
_DENSE_MAX_ORDER = 8
_SLICE_BYTES = 1 << 19


@dataclass(frozen=True)
class _DenseTables:
    """Connectivity of every labelled graph of one order, as a bit plane
    indexed by edge mask, and the pairs in bit order. Each subset's plane is
    a view of it (``_plane``): a disconnected graph has no flag in any plane,
    and the least size of a subset with a flag in a connected graph is its
    gamma_w."""

    order: int
    pairs: tuple[tuple[int, int], ...]
    conn: np.ndarray  # packed 64-bit words, at least one; the bits past the last graph are 0


def _check_dense_order(max_order: int) -> None:
    """Refuse all-graphs tables above ``_DENSE_MAX_ORDER`` before allocating
    any: the checks read them a slice at a time, but conn is built whole."""
    if max_order > _DENSE_MAX_ORDER:
        graphs = 1 << (max_order * (max_order - 1) // 2)
        raise CapacityError(
            f"order {max_order} needs all-graphs tables over {graphs} labelled graphs: "
            f"{graphs // 8} bytes of packed connectivity; the limit is order {_DENSE_MAX_ORDER}"
        )


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


# _WITHOUT[b], b < 6: the graphs without pair b in a 64-bit plane word, as
# a mask: bits i with bit b of i clear
_WITHOUT = tuple(np.uint64(sum(1 << i for i in range(64) if not i >> b & 1)) for b in range(6))


def _fix(axes: np.ndarray, bits: Iterable[int], at: int) -> np.ndarray:
    """The view of ``axes``, flags read as one axis of length 2 per bit of
    their index, highest first, with the axis of each of ``bits`` fixed at
    index ``at``. The fixed axes keep length 1, so the view broadcasts back
    onto ``axes`` and keeps its ``ndim``, from which a bit's axis is found."""
    index = [slice(None)] * axes.ndim
    for i in bits:
        index[axes.ndim - 1 - i] = slice(at, at + 1)
    return axes[(..., *index)]


def _words(t: _DenseTables) -> np.ndarray:
    """conn with one axis per pair from 6 on (0-d below order 5)."""
    return t.conn.reshape((2,) * max(0, len(t.pairs) - 6))


def _slices(t: _DenseTables) -> Iterator[tuple[tuple[int, int], ...]]:
    """The slices the checks walk ``t`` in, each at most ``_SLICE_BYTES`` of
    conn: every setting of the axes of the pairs just below the top pair,
    as (bit of the word index, index) of each. The top pair (k - 2, k - 1)
    keeps its axis, as the deletion check pairs G - e with G along it."""
    top = len(t.pairs) - 7  # the top pair's bit of the word index
    axes = min(max(0, top), ((t.conn.nbytes - 1) // _SLICE_BYTES).bit_length())
    for i in range(1 << axes):
        yield tuple((top - 1 - j, i >> j & 1) for j in range(axes))


def _plane(t: _DenseTables, s: int, cut: tuple[tuple[int, int], ...] = ()) -> np.ndarray:
    """The plane of the non-empty subset S, mask ``s``, over the graphs of
    the slice ``cut`` (all of them by default), with one axis per pair from
    6 on. S is weakly connected dominating in G iff G minus the pairs inside
    T = V - S is connected, so the plane is conn with the axes of T's pairs
    fixed at 0 and the other axes of the slice at its indices: a view,
    copied only when a pair below 6 lies inside T, and then projected along
    it inside each word."""
    inside = [b for b, (u, v) in enumerate(t.pairs) if not (s >> u | s >> v) & 1]
    high = [b - 6 for b in inside if b >= 6]
    plane = _fix(_words(t), [a for a, at in cut if at and a not in high], 1)
    plane = _fix(plane, [*high, *(a for a, at in cut if not at)], 0)
    low = [b for b in inside if b < 6]
    if low:
        plane = plane.copy()
    for b in low:
        # keep the bits of the graphs without pair b, and add them shifted
        # by 2**b onto those with it: the two sets of bits do not overlap
        plane &= _WITHOUT[b]
        plane *= np.uint64(1 + (1 << (1 << b)))
    return plane


@lru_cache(maxsize=_DENSE_MAX_ORDER)
def _dense_tables(k: int) -> _DenseTables:
    pairs = tuple(combinations(range(k), 2))
    n_graphs = 1 << len(pairs)
    conn = np.zeros(max(1, n_graphs >> 6), dtype="<u8")
    if k <= 3:  # a graph of order <= 3 is connected iff it has k - 1 edges or more
        connected = np.bitwise_count(np.arange(n_graphs)) >= k - 1
        conn.view(np.uint8)[:1] = np.packbits(connected, bitorder="little")
    else:
        # Vertex 0's pairs are the low k - 1 bits of G: its neighbours N,
        # bit v - 1 for vertex v. The rest, G >> (k - 1), is a graph of
        # order k - 1 on vertices 1..k-1 with its pairs in the same order.
        # G is connected iff N is not empty and the rest, with N made a
        # clique, is connected: over every rest, the order-(k - 1) flags
        # with the axes of the clique's pairs fixed at 1.
        prev = _dense_tables(k - 1)
        flags = np.unpackbits(prev.conn.view(np.uint8), count=1 << len(prev.pairs), bitorder="little")
        flags = flags.reshape((2,) * len(prev.pairs))
        # by_n[rest, N >> 3]: bit N & 7 is the flag of rest << (k - 1) | N
        by_n = conn.view(np.uint8).reshape(flags.size, -1)
        byte = np.empty_like(flags)
        for j in range(by_n.shape[1]):  # byte j of every rest: N = 8j .. 8j + 7
            byte[...] = 0
            for n in range(max(1, 8 * j), 8 * j + 8):
                clique = [b for b, (u, v) in enumerate(prev.pairs) if n >> u & n >> v & 1]
                byte |= _fix(flags, clique, 1) << (n & 7)
            by_n[:, j] = byte.reshape(-1)
    return _DenseTables(k, pairs, conn)


def _violations(t: _DenseTables, s: int, cut: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """The graphs G of the slice ``cut`` of ``t`` in which S = {0, ..., s - 1}
    is weakly connected dominating and S + s is not, and those in which S is
    and some vertex v >= s has no pair to S. S's plane fixes every axis that
    the plane of S + s fixes, so their difference has the latter's shape. A
    view with fixed axes is constant along them: each word of an array
    stands for the slice's words over its size."""
    words = t.conn.size >> len(cut)
    plane = _plane(t, (1 << s) - 1, cut)
    apart = ~_plane(t, (1 << s + 1) - 1, cut)
    apart &= plane
    closure = _popcount(apart) * words // apart.size
    del apart  # freed before the lonely mask is built
    lonely = np.zeros_like(plane)
    for v in range(s, t.order):
        to_s = [t.pairs.index((u, v)) for u in range(s)]
        if any((p - 6, 1) in cut for p in to_s):
            continue  # every graph of the slice has a pair from v to S
        # the graphs without v's pairs to S: the bits of _WITHOUT of its pairs
        # below 6, in the words at index 0 of the axes of the others (none
        # lies inside V - S, so only the slice fixes one, at 0)
        alone = _fix(lonely, [p - 6 for p in to_s if p >= 6], 0)
        alone |= np.bitwise_and.reduce([~np.uint64(0), *(_WITHOUT[p] for p in to_s if p < 6)])
    lonely &= plane
    return closure, _popcount(lonely) * words // lonely.size


def _canonical_violations(t: _DenseTables) -> tuple[int, int]:
    """Upward-closure and domination violations over the graphs of ``t``.
    Closure counts the (S, v, G) with S weakly connected dominating in G, v
    outside S and S + v not; domination counts the (S, G) with S weakly
    connected dominating in G and some vertex outside S undominated. By the
    relabelling lemma (see above), every (S, v) with |S| = s counts as
    S = {0, ..., s - 1} and v = s do, and every S as {0, ..., s - 1}: summed
    over s and the slices, closure is C(k, s) * (k - s) times the first of
    ``_violations``, and domination C(k, s) times the second."""
    k = t.order
    closure = domination = 0
    for cut in _slices(t):
        for s in range(1, k):
            apart, lonely = _violations(t, s, cut)
            closure += comb(k, s) * (k - s) * apart
            domination += comb(k, s) * lonely
    return closure, domination


def _within(t: _DenseTables, cut: tuple[tuple[int, int], ...] = ()) -> np.ndarray:
    """The cumulative planes of ``t`` over the slice ``cut``, flat: within[g]
    holds the graphs with gamma_w <= g, the OR of the planes of size <= g;
    within[k] is the connected graphs. Adding pairs keeps a graph connected,
    so every plane lies inside conn: once a row is conn, so is every later
    row, and the planes of the larger sizes are not read."""
    k = t.order
    conn = _plane(t, (1 << k) - 1, cut)
    within = np.zeros((k + 1, conn.size), dtype=np.uint64)
    by_size = within.reshape(k + 1, *conn.shape)
    for g in range(1, k + 1):
        row = by_size[g, ...]
        row[...] = by_size[g - 1]
        if not np.array_equal(row, conn):
            for members in combinations(range(k), g):
                row |= _plane(t, sum(1 << v for v in members), cut)
    return within


def _window_counts(t: _DenseTables, cut: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    """``_deletion_counts`` of the top pair over the slice ``cut`` of ``t``."""
    b = len(t.pairs) - 1
    aligned = _WITHOUT[b] if b < 6 else ~np.uint64(0)  # the bits of (G - e, G) pairs
    # a deletion breaks the window where, at some g, G - e is within g and G
    # is not, or G is within g - 1 and G - e is not within g. As G within
    # g - 1 implies G within g, that is where (G - e within g or G within
    # g - 1) differs from (G - e and G within g).
    broken = below = 0  # below: G within g - 1
    for row in _within(t, cut)[1:]:
        # the graphs without the top pair and the same graphs with it, aligned:
        # for b >= 6 the two halves, for b < 6 at _WITHOUT[b]'s bits
        half = row.size // 2
        without, with_ = (row[:half], row[half:]) if b >= 6 else (row, row >> np.uint64(1 << b))
        broken |= (without | below) ^ (without & with_)
        below = with_
    valid = without & with_ & aligned  # G and G - e connected, from within[k]
    return _popcount(broken & valid), _popcount(valid), _popcount(with_ & ~without & aligned)


def _deletion_counts(t: _DenseTables) -> tuple[int, int, int]:
    """Single-edge deletions over the graphs of ``t``: G has a pair e and
    G - e is the same graph without it. Returns the deletions with G and
    G - e connected where gamma_w(G - e) is neither gamma_w(G) nor
    gamma_w(G) + 1, the deletions with both connected, and those with G
    connected and G - e not. By the relabelling lemma every pair has the
    same three counts, so they are counted for the top pair (k - 2, k - 1),
    whose bit is the highest of G, a slice at a time, and multiplied by the
    number of pairs."""
    bad, checked, skipped = zip(*(_window_counts(t, cut) for cut in _slices(t)))
    return tuple(len(t.pairs) * sum(counts) for counts in (bad, checked, skipped))


def _suite_structural(max_n: int, **_) -> list[CheckRecord]:
    """Two definitional consequences swept over every connected labeled graph
    up to order ``max_n``: supersets of a weakly connected dominating set
    stay in the family, and membership implies ordinary domination (order
    >= 2). Orders above ``_DENSE_MAX_ORDER`` (8) raise
    :class:`CapacityError`."""
    _check_dense_order(max_n)
    records: list[CheckRecord] = []
    for k in range(1, max_n + 1):
        eng = _dense_tables(k)
        swept = f"{_popcount(eng.conn)} connected graphs swept"
        closure_bad, dom_bad = _canonical_violations(eng)
        records.append(_check(f"order {k} upward closure", "superset preservation", 0, closure_bad, swept))
        if k >= 2:
            records.append(
                _check(f"order {k} domination implication", "membership implies domination", 0, dom_bad, swept)
            )
    return records


def _suite_edge_deletion(max_n: int, **_) -> tuple[list[CheckRecord], int]:
    """Deleting an edge that keeps a labeled graph of order 2..``max_n``
    connected never lowers gamma_w and raises it by at most one. Also
    returns the number of disconnecting deletions skipped. Orders above
    ``_DENSE_MAX_ORDER`` (8) raise :class:`CapacityError`; the cumulative
    planes are held a slice at a time."""
    _check_dense_order(max_n)
    records: list[CheckRecord] = []
    total_skipped = 0
    for k in range(2, max_n + 1):
        bad, checked, skipped = _deletion_counts(_dense_tables(k))
        total_skipped += skipped
        detail = f"{checked} connectivity-preserving deletions checked, {skipped} disconnecting deletions skipped"
        records.append(_check(f"order {k} deletion bounds", "single-edge stability window", 0, bad, detail))
    return records, total_skipped


# --- instance builders ------------------------------------------------------


def _named_family_graphs(
    max_order: int,
    families: tuple[str, ...] = ("path", "cycle", "complete", "star", "wheel"),
) -> list[tuple[str, Graph]]:
    """Distinct labeled graphs from the named families up to ``max_order``,
    first label wins on duplicates (C_3 and K_3 are the same graph)."""
    out: dict[Graph, str] = {}
    for fam in families:
        for n in range(family_start(fam), max_order + 1):
            if family_order(fam, n) > max_order:
                break
            out.setdefault(build_family(fam, n), family_label(fam, n))  # C_3 equals K_3
    return [(label, g) for g, label in out.items()]


def _random_connected(rng: random.Random, max_order: int, min_order: int) -> Graph:
    """Random connected graph: a uniform random labeled tree, decoded from a
    random Prüfer sequence, plus each extra pair with probability one half.
    At order 2 the sequence is empty and the tree is the edge 1-2."""
    n = rng.randint(min_order, max_order)
    if n == 1:
        return make_graph(1, [])
    edges: set[tuple[int, int]] = set()
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [0] + [1] * n
    for x in seq:
        degree[x] += 1
    for x in seq:
        leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(1, n + 1) if degree[w] == 1)
    edges.add((u, v))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < 0.5:
                edges.add((u, v))
    return make_graph(n, edges)


def _join_instances(max_order: int, random_count: int, seed: int) -> Iterator[tuple[str, Graph, Graph]]:
    """Every ordered pair of named path, cycle and complete graphs of order
    <= ``max_order``, then ``random_count`` random connected pairs drawn one
    at a time."""
    named = _named_family_graphs(max_order, families=("path", "cycle", "complete"))
    for a, g in named:
        for b, h in named:
            yield f"{a}+{b}", g, h
    rng = random.Random(seed)
    for idx in range(random_count):
        g = _random_connected(rng, max_order, min_order=1)
        h = _random_connected(rng, max_order, min_order=1)
        yield f"random{idx + 1}", g, h


# the pendant path lengths m of the extension suites' instances
_LENGTHS = range(2, 7)


def _extension_chains(random_count: int, seed: int) -> Iterator[tuple[list[tuple[str, RootedGraph, range]], tuple[Graph, ...]]]:
    """The instances of the three extension suites by chain: every named
    base of order <= 5 and ``random_count`` random connected ones, drawn one
    at a time, and every root. Yields each (base, root) chain's instances,
    pendant paths of length m = 2..6 ascending, with its G(0)..G(6), which
    they share. An instance is its record key, its rooted graph and the
    cardinalities checked on G(m); cardinality 1 is left out on a
    single-vertex base, where the recurrence is not stated for it."""
    rng = random.Random(seed)
    randoms = ((f"random{i + 1}", _random_connected(rng, 5, min_order=2)) for i in range(random_count))
    for label, base in chain(_named_family_graphs(5), randoms):
        least = 1 if base.order >= 2 else 2
        for root in range(1, base.order + 1):
            instances = [
                (f"{label} root={root} m={m}", RootedGraph(base, root, m), range(least, base.order + m + 1)) for m in _LENGTHS
            ]
            yield instances, tuple(realize_extension(RootedGraph(base, root, k)) for k in range(_LENGTHS[-1] + 1))


# instances per window (stacked sweep, least-layer pass), so that the suites'
# memory follows the window, not the random pool
_WINDOW = 256


def _windows(items: Iterable, size: int) -> Iterator[list]:
    """``items`` ``size`` at a time, drawn one window at a time."""
    items = iter(items)
    while window := list(islice(items, size)):
        yield window


def _extension_windows(random_count: int, seed: int, cap: int) -> Iterator[tuple[list[tuple], dict[Graph, np.ndarray]]]:
    """``_extension_chains`` up to ``_WINDOW`` instances at a time, with the
    weakly connected dominating sets of every graph in the window from one
    stacked sweep per order."""
    for window in _windows(_extension_chains(random_count, seed), _WINDOW // len(_LENGTHS)):
        yield window, sweep_stack(chain.from_iterable(graphs for _, graphs in window), cap=cap)


def _per_part(window: list[tuple[str, Graph, Graph]], query: Callable[[list[Graph]], list]) -> dict[Graph, object]:
    """``query``'s value for each distinct part g or h of a join window."""
    parts = list(dict.fromkeys(x for _, g, h in window for x in (g, h)))
    return dict(zip(parts, query(parts)))


# --- formula suites ---------------------------------------------------------


# the closed form (size parameter, cardinality) -> count of each family whose
# full row has one; the stated wheel row composes its rim's row instead. Only
# ``family_rows`` reads them
_CLOSED_FORMS: dict[str, Callable[[int, int], int]] = {
    "path": formulas.count_path_closed,
    "complete": formulas.count_complete,
    "star": formulas.count_star,
}


def _family_cells(family: str, size: str, source: str, *, max_n: int, cap: int, **_) -> list[CheckRecord]:
    """Every cell of the count rows of ``family`` at sizes 1..``max_n``
    against the family's closed-form row (:func:`family_rows`)."""
    records = []
    sizes = range(1, max_n + 1)
    for n, actual, stated in zip(sizes, family_rows(family, sizes, "oracle", cap), family_rows(family, sizes, "formula")):
        for i, (claimed, o) in enumerate(zip(stated, actual), start=1):
            records.append(_check(f"{family} {size}={n} i={i}", source, claimed, o))
    return records


def _suite_wheel(max_n: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    sizes = range(4, max_n + 1)
    for n, actual, stated in zip(sizes, family_rows("wheel", sizes, "oracle", cap), family_rows("wheel", sizes, "formula")):
        dom_rim = dominating_counts(build_family("cycle", n - 1), cap)
        for i, (claimed, o) in enumerate(zip(stated, actual), start=1):
            detail = ""
            if claimed != o:
                # the wheel is the join of its rim with K1
                corrected = formulas.count_join_dominating(dom_rim, (1,), i)
                note = "matches exhaustive" if corrected == o else "still off"
                detail = (
                    "hub-free term counts weakly connected rim sets; counting "
                    f"dominating rim sets instead gives {corrected} ({note})"
                )
            records.append(_check(f"wheel n={n} i={i}", "rim-table composition", claimed, o, detail))
    return records


def _suite_join(max_n: int, random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for window in _windows(_join_instances(max_n, random_count, seed), _WINDOW):
        # the count rows of the window's parts and joins and the parts'
        # dominating rows, each from stacked sweeps of one order; the joins
        # are built on the fly, and only their neighbour masks are kept
        rows = _per_part(window, partial(count_stack, cap=cap))
        dominating = _per_part(window, partial(count_stack, pred=_dom_ok, cap=cap))
        joined = count_stack((join(g, h) for _, g, h in window), cap=cap)
        for (key, g, h), actual_row in zip(window, joined):
            tg, th = (CountTable(x.order, rows[x]) for x in (g, h))
            claimed_row = tuple(formulas.count_join(tg, th, i) for i in range(1, len(actual_row) + 1))
            mismatches = []
            for i, (claimed, o) in enumerate(zip(claimed_row, actual_row), start=1):
                if claimed != o:
                    corrected = formulas.count_join_dominating(dominating[g], dominating[h], i)
                    note = "matches" if corrected == o else "still off"
                    mismatches.append(
                        f"i={i}: stated {claimed}, exhaustive {o}, "
                        f"dominating-set one-part terms give {corrected} ({note})"
                    )
            detail = "; ".join(mismatches)
            records.append(_check(key, "join composition", str(claimed_row), str(actual_row), detail))
    return records


def _suite_corona_gamma(cap: int, **_) -> list[CheckRecord]:
    bases = (("path", 2), ("path", 3), ("cycle", 3), ("cycle", 4), ("complete", 3))
    pairs = [(b, h) for b in bases for h in (("complete", 1), ("complete", 2), ("path", 3))]
    gw = gamma_w_stack((corona(build_family(*b), build_family(*h)) for b, h in pairs), cap)
    return [
        _check(f"corona({family_label(*b)},{family_label(*h)})", "base-order rule", formulas.gamma_w_corona(build_family(*b)), value)
        for (b, h), value in zip(pairs, gw)
    ]


def _suite_join_gamma(max_n: int, random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for window in _windows(_join_instances(max_n, random_count, seed), _WINDOW):
        gam = _per_part(window, partial(gamma_stack, cap=cap))
        gw = gamma_w_stack((join(g, h) for _, g, h in window), cap)
        records += [
            _check(key, "dominating-vertex rule", formulas.gamma_w_join(gam[g], gam[h]), value)
            for (key, g, h), value in zip(window, gw)
        ]
    return records


def _suite_gamma_path_cycle(max_n: int, cap: int, **_) -> list[CheckRecord]:
    cases = [
        (fam, n, fn)
        for n in range(1, max_n + 1)
        for fam, fn in (("path", formulas.gamma_w_path), ("cycle", formulas.gamma_w_cycle))
    ]
    gw = gamma_w_stack((build_family(fam, n) for fam, n, _ in cases), cap)
    return [_check(f"{fam} n={n}", f"half-order-{fam}", fn(n), value) for (fam, n, fn), value in zip(cases, gw)]


def _suite_extension_recurrence(random_count: int, seed: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for window, hits in _extension_windows(random_count, seed, cap):
        for instances, graphs in window:
            # the count rows of G(0)..G(6), tallied from the window's hits,
            # and the chain's rows by the recurrence, in one run to m = 6
            actual = [_count_row(g.order, hits[g]) for g in graphs]
            rows = formulas._pendant_rows(actual[0], actual[1], len(graphs) - 1)
            for (key, _, cards), row, exhaustive in zip(instances, islice(rows, _LENGTHS[0], None), actual[_LENGTHS[0] :]):
                mism = [
                    f"i={i}: recurrence {row[i - 1]}, exhaustive {exhaustive[i - 1]}"
                    for i in cards
                    if row[i - 1] != exhaustive[i - 1]
                ]
                records.append(CheckRecord(key, "two-step recurrence", str(row), str(exhaustive), not mism, "; ".join(mism)))
    return records


def _suite_extension_constructive(random_count: int, seed: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for window, hits in _extension_windows(random_count, seed, cap):
        for instances, graphs in window:
            walk = formulas._pendant_families(instances[-1][1], hits[graphs[0]], hits[graphs[1]])
            for (key, _, cards), (built, refused), g in zip(instances, islice(walk, _LENGTHS[0], None), graphs[_LENGTHS[0] :]):
                records.append(_constructive_record(key, cards, built, refused, hits[g]))
    return records


def _constructive_record(
    key: str, cards: range, built: np.ndarray, refused: dict[int, Exception], truth: np.ndarray
) -> CheckRecord:
    """The record of one constructed family of G(m), ``built`` with its
    refused cardinalities, against the swept one, ``truth``, over the
    cardinalities ``cards``. Both are ascending mask arrays, so equal arrays
    and no refusal pass at once; the cardinalities are compared one by one
    only to say where they differ."""
    truth_row = np.bincount(np.bitwise_count(truth), minlength=cards.stop)
    truth_total = int(truth_row[cards.start :].sum())
    if not refused and np.array_equal(built, truth):
        return CheckRecord(key, "pendant-path construction", truth_total, truth_total, True)
    built_sizes, truth_sizes = np.bitwise_count(built), np.bitwise_count(truth)
    built_total = 0
    mism = []
    for i in cards:
        if i in refused:
            mism.append(f"i={i}: construction refused ({refused[i]})")
            continue
        family, swept = built[built_sizes == i], truth[truth_sizes == i]
        built_total += family.size
        if not np.array_equal(family, swept):
            if family.size == swept.size:
                extra = next(iter(_as_tuples(np.setdiff1d(family, swept), i)), None)
                mism.append(f"i={i}: same count but different sets, e.g. construction includes {extra}")
            else:
                mism.append(f"i={i}: construction yields {family.size} sets, exhaustive {swept.size}")
    return CheckRecord(key, "pendant-path construction", built_total, truth_total, not mism, "; ".join(mism))


def _suite_extension_gamma(random_count: int, seed: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for window, hits in _extension_windows(random_count, seed, cap):
        dominating = sweep_stack((graphs[0] for _, graphs in window), _dom_ok, cap)
        for instances, graphs in window:
            # the window's hits hold every weakly connected dominating set of
            # each G(k), so gamma_w is their least popcount; G(0)'s and the
            # root flags serve the whole chain
            g0, root = graphs[0], instances[0][1].root
            gw_base = int(np.bitwise_count(hits[g0]).min())
            flag_w = _in_a_minimum(hits[g0], root)
            flag_d = _in_a_minimum(dominating[g0], root)
            for (key, rg, _), g in zip(instances, graphs[_LENGTHS[0] :]):
                gw_m = int(np.bitwise_count(hits[g]).min())
                predicted_w = formulas.gamma_w_extension(gw_base, flag_w, rg.extension_length)
                predicted_d = formulas.gamma_w_extension(gw_base, flag_d, rg.extension_length)
                records.append(
                    _check(
                        key,
                        "pendant shift formula",
                        predicted_w,
                        gw_m,
                        f"root in a minimum weakly connected dominating set: "
                        f"{flag_w} (predicts {predicted_w}); root in a minimum "
                        f"dominating set: {flag_d} (predicts {predicted_d})",
                    )
                )
    return records


def _suite_boxes(max_n: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    sizes = range(1, max_n + 1)
    for n, row in zip(sizes, family_rows("path", sizes, "oracle", cap)):
        for j in range(0, n + 1):
            closed = formulas.boxes_count(n, j)
            dw = row[j - 1] if j else 0
            values = {"occupancy enumeration": formulas.boxes_brute(n, j), "binomial": closed, "path sets": dw}
            records.append(_agree(f"boxes n={n} j={j}", "occupancy identity", closed, dw, values))
    return records


# --- the suite registry -----------------------------------------------------


class Suite(NamedTuple):
    """One ``wcds verify`` suite. ``build`` takes the keyword arguments
    ``max_n``, ``random_count``, ``seed`` and ``cap`` and returns its
    records, or its records and a count of skipped instances. ``max_n`` is
    the default size and ``min_n`` the least size that yields a record, both
    None when the suite reads no size; ``random_count`` is the default size
    of the random instance pool, None when the suite draws none.
    ``largest_order`` maps ``max_n`` to the largest order the suite sweeps
    subsets of, so an order above the cap is refused before any record; it
    is None for the all-graphs suites, which the cap does not bound.
    ``random_max`` is the largest pool the suite accepts, so that a run
    stays within seconds and a few tens of MB."""

    build: Callable[..., list[CheckRecord] | tuple[list[CheckRecord], int]]
    max_n: int | None
    min_n: int | None
    random_count: int | None
    largest_order: Callable[[int | None], int] | None
    random_max: int | None = None


SUITES: dict[str, Suite] = {
    "path_table": Suite(_suite_path_table, 10, 1, None, lambda n: n),
    "cycle_table": Suite(_suite_cycle_table, 14, 1, None, lambda n: n),
    "structural": Suite(_suite_structural, 7, 1, None, None),
    "complete": Suite(partial(_family_cells, "complete", "n", "binomial closed form"), 10, 1, None, lambda n: n),
    "star": Suite(partial(_family_cells, "star", "leaves", "center/leaves closed form"), 9, 1, None, lambda n: n + 1),
    "wheel": Suite(_suite_wheel, 14, 4, None, lambda n: n),
    "join": Suite(_suite_join, 5, 1, 20, lambda n: 2 * n, 10_000),
    "corona_gamma": Suite(_suite_corona_gamma, None, None, None, lambda _: 16),  # corona(C4, P3)
    "join_gamma": Suite(_suite_join_gamma, 5, 1, 20, lambda n: 2 * n, 10_000),
    "gamma_path_cycle": Suite(_suite_gamma_path_cycle, 20, 1, None, lambda n: n),
    # a base of order 5 with a pendant path of 6; each random base is
    # checked at every root and five path lengths
    "extension_recurrence": Suite(_suite_extension_recurrence, None, None, 10, lambda _: 11, 1_000),
    "extension_constructive": Suite(_suite_extension_constructive, None, None, 10, lambda _: 11, 1_000),
    "extension_gamma": Suite(_suite_extension_gamma, None, None, 10, lambda _: 11, 1_000),
    "boxes": Suite(_suite_boxes, 15, 1, None, lambda n: n),
    "edge_deletion_bounds": Suite(_suite_edge_deletion, 7, 2, None, None),
}


def _size(
    suite: str, name: str, value: int | None, default: int | None, least: int | None, most: int | None = None
) -> int | None:
    """``value`` or the suite's default for the size ``name``; refuses a size
    the suite does not read, one below ``least`` or one above ``most``."""
    if default is None:
        if value is not None:
            raise ValueError(f"suite {suite} takes no {name}")
        return None
    if value is None:
        return default
    if value < least:
        raise ValueError(f"{name} must be at least {least} for suite {suite}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most} for suite {suite}, got {value}")
    return value


def verify_formula_suite(
    suite: str,
    *,
    max_n: int | None = None,
    random_count: int | None = None,
    seed: int = DEFAULT_SEED,
    cap: int = DEFAULT_CAP,
) -> VerificationReport:
    """Run one registered suite (see ``SUITES``) and return its report.

    ``max_n`` bounds the instance size (order, leaf count, or wheel order
    depending on the suite), ``random_count`` the random instance pool drawn
    from ``seed``; each defaults to the suite's own. A size the suite does
    not read, one too small to yield a record, or a pool above the suite's
    ``random_max`` raises ``ValueError`` before any instance is drawn; a
    size whose largest graph is above ``cap`` raises :class:`CapacityError`
    before any sweep.
    """
    spec = SUITES.get(suite)
    if spec is None:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    max_n = _size(suite, "max_n", max_n, spec.max_n, spec.min_n)
    random_count = _size(suite, "random_count", random_count, spec.random_count, 0, spec.random_max)
    if spec.largest_order is not None:
        check_cap(spec.largest_order(max_n), cap)
    t0 = time.perf_counter()
    out = spec.build(max_n=max_n, random_count=random_count, seed=seed, cap=cap)
    records, skipped = out if isinstance(out, tuple) else (out, 0)
    return _finish(suite, records, skipped, t0)


def verify_path_table(max_n: int | None = None, cap: int = DEFAULT_CAP) -> VerificationReport:
    """The ``path_table`` suite."""
    return verify_formula_suite("path_table", max_n=max_n, cap=cap)


def verify_cycle_table(max_n: int | None = None, cap: int = DEFAULT_CAP) -> VerificationReport:
    """The ``cycle_table`` suite."""
    return verify_formula_suite("cycle_table", max_n=max_n, cap=cap)


def verify_structural(max_order: int | None = None) -> VerificationReport:
    """The ``structural`` suite; orders above 8 raise :class:`CapacityError`."""
    return verify_formula_suite("structural", max_n=max_order)


def table_by_method(source: Graph | tuple[str, int], method: str, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Full count row of a graph or of a named family member ``(family,
    n)`` by one of ``METHODS``: ``oracle`` (the subset sweep, refused above
    ``cap``), ``frontier`` (the frontier DP, refused at a step whose table
    passes its bound), ``formula`` and ``recurrence`` (the stated rows,
    see :func:`family_rows`). A pair's row comes from :func:`family_rows`;
    a graph read as a graph, from an edge list say, supports ``oracle`` and
    ``frontier`` only."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(source, Graph):
        family, n = source
        return family_rows(family, [n], method, cap)[0]
    if method == "oracle":
        return count_table(source, cap).counts
    if method == "frontier":
        return count_table_frontier(source).counts
    raise UnsupportedMethodError(_unsupported(method, source.label()))


# the largest family size that ``family_rows`` evaluates by ``formula`` or
# ``recurrence``: K_2000's closed row, 2000 binomials of up to 600 digits,
# takes about 0.2 s, the path recurrence to 2000 about 0.2 s and W_2000 with
# its rim's DP about 0.8 s (README)
FORMULA_MAX_N = 2000
# the most 64-bit words of counts that ``family_rows`` returns, a row of order
# n counted as n cells below 2^n, so ⌈n / 64⌉ words each. A table of n rows
# grows as n^3 (the path table to 1000 took 143 MiB, to 2000 852 MiB); 2**17
# words admit one row to order 2880 and the path, cycle and wheel tables to
# 277 at 33-37 MiB VmHWM, and keep every stated row to FORMULA_MAX_N
MAX_ROW_WORDS = 1 << 17


def _unsupported(method: str, label: str) -> str:
    if method == "recurrence":
        return f"no recurrence covers {label}"
    return f"no closed form covers the full table of {label}"


def family_rows(family: str, sizes: Iterable[int], method: str, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """The full count row of ``build_family(family, n)`` for each n of
    ``sizes``, in order, by one of ``METHODS``:

    - ``oracle`` sweeps each built graph;
    - ``frontier`` runs the frontier DP on the :func:`family_plan` of each
      size in one pass, each row resumed from the row before;
    - ``formula`` evaluates the closed forms of paths, complete graphs and
      stars, and the stated wheel composition over its rim's row, all rims
      from one resumed DP pass; ``recurrence`` the path recurrence.

    Only ``oracle`` builds a graph, and none runs the greedy vertex order.
    Every size is refused before any row is counted: ValueError for a size
    below the family's start, :class:`UnsupportedMethodError` for a stated
    method that does not cover the family, and :class:`CapacityError` for
    an order above ``cap`` (``oracle``), a size above ``FORMULA_MAX_N``
    (``formula``, ``recurrence``) or rows past ``MAX_ROW_WORDS`` (every
    method). The DP refuses a row at the step its table passes its bound."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    stated = method in ("formula", "recurrence")
    covered = family == "path" if method == "recurrence" else family in _CLOSED_FORMS or family == "wheel"
    passed, words = [], 0  # each size is refused as it is read, so a long refused range is never held
    for n in sizes:
        order = family_order(family, n)
        if method == "oracle":
            check_cap(order, cap)
        elif stated and not covered:
            raise UnsupportedMethodError(_unsupported(method, family_label(family, n)))
        elif stated and n > FORMULA_MAX_N:
            raise CapacityError(f"family size {n} exceeds {FORMULA_MAX_N}, the largest the closed forms and the recurrence evaluate")
        words += order * -(-order // 64)
        if words > MAX_ROW_WORDS:
            raise CapacityError(f"the rows to size {n} take up to {words} words, above the bound of {MAX_ROW_WORDS}")
        passed.append(n)
    sizes = passed
    if method == "oracle":
        return [count_table(build_family(family, n), cap).counts for n in sizes]
    if method == "frontier":
        return [t.counts for t in _frontier_rows([family_plan(family, n) for n in sizes])]
    if method == "recurrence":
        return [formulas.count_path_recurrence(n).counts for n in sizes]
    if family == "wheel":
        rims = _frontier_rows([family_plan("cycle", n - 1) for n in sizes])
        return [tuple(formulas.count_wheel(n, i, rim) for i in range(1, n + 1)) for n, rim in zip(sizes, rims)]
    closed = _CLOSED_FORMS[family]
    return [tuple(closed(n, i) for i in range(1, family_order(family, n) + 1)) for n in sizes]


def cross_check(
    source: Graph | tuple[str, int], methods: tuple[str, ...] | list[str], cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Compute the full count table of a graph or of a named family member
    ``(family, n)`` by each requested method and compare cell for cell.
    See :func:`table_by_method` for what each method covers."""
    t0 = time.perf_counter()
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    label = source.label() if isinstance(source, Graph) else family_label(*source)
    tables = {method: table_by_method(source, method, cap) for method in methods}
    records = []
    for i in range(1, len(tables[methods[0]]) + 1):
        vals = [(m, tables[m][i - 1]) for m in methods]
        passed = len({v for _, v in vals}) == 1
        claimed: int | str = vals[0][1] if passed else "; ".join(f"{m}={v}" for m, v in vals)
        oracle_value = dict(vals).get("oracle", vals[0][1])
        records.append(CheckRecord(f"{label} i={i}", "+".join(methods), claimed, oracle_value, passed))
    return _finish(f"cross-check {label}", records, 0, t0)
