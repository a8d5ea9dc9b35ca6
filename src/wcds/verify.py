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
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from . import formulas
from .frontier import count_table_frontier
from .graph import Graph, RootedGraph, build_family, corona, join, make_graph, realize_extension
from .oracle import (
    DEFAULT_CAP,
    CapacityError,
    _as_tuples,
    _dom_ok,
    _in_a_minimum,
    check_cap,
    count_table,
    dominating_counts,
    gamma,
    gamma_w,
    sweep_stack,
)

DEFAULT_SEED = 1729

# the counting methods of ``table_by_method``, spelled as ``wcds count --method``
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


class UnsupportedMethodError(Exception):
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
    for n in range(1, max_n + 1):
        actual = count_table(build_family("path", n), cap)
        rec = formulas.count_path_recurrence(n)
        for j in range(1, n + 1):
            o = actual.count(j)
            c = formulas.count_path_closed(n, j)
            values = {"exhaustive": o, "closed form": c, "recurrence": rec.count(j)}
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
    for n in range(1, min(max_n, 14) + 1):
        actual = count_table(build_family("cycle", n), cap)
        for j in range(1, n + 1):
            ref = REFERENCE_CYCLE_TABLE[n][j - 1]
            records.append(_check(f"cycle n={n} j={j}", "reference row", ref, actual.count(j)))
    for n in range(4, max_n + 1):
        actual = count_table(build_family("cycle", n), cap)
        tops = ([n - 3] if n >= 6 else []) + [n - 2, n - 1, n]
        for i in tops:
            c = formulas.count_cycle_top(n, i)
            records.append(_check(f"cycle n={n} i={i}", "top-cell closed form", c, actual.count(i)))
    for n in range(7, max_n + 1):
        cur = count_table(build_family("cycle", n), cap)
        prev = count_table(build_family("cycle", n - 1), cap)
        claimed = prev.count(n - 4) + prev.count(n - 3) - 1
        records.append(_check(f"cycle n={n} shift", "one-step shift identity", claimed, cur.count(n - 3)))
    return records


# --- dense tables over every labeled graph of a fixed small order ----------
#
# A labelled graph of order k is its edge mask G: bit b is the b-th pair of
# combinations(range(k), 2). A vertex subset S is a mask as well (bit v is
# vertex v). The flags of one subset over every graph are a packed bit plane:
# bit G & 7 of byte G >> 3 of plane S, which is bit G & 63 of its 64-bit word
# G >> 6, says whether S is weakly connected dominating in G.

# 64-bit plane words per step of the structural checks; larger steps raise
# the peak of a run by several MB
_PLANE_CHUNK = 1 << 10
_DENSE_MAX_ORDER = 7


@dataclass(frozen=True)
class _DenseTables:
    """Arrays over every labelled graph of one order, indexed by edge mask:
    connectivity and the bit plane of each vertex subset. A disconnected
    graph has no flag in any plane, and the least size of a subset with a
    flag in a connected graph is its gamma_w."""

    order: int
    pairs: tuple[tuple[int, int], ...]
    conn: np.ndarray
    planes: np.ndarray  # uint8 (2**order, bytes): planes[S] is S's plane, plane 0 is empty


def _check_dense_order(max_order: int) -> None:
    """Refuse all-graphs tables above ``_DENSE_MAX_ORDER`` before allocating any."""
    if max_order > _DENSE_MAX_ORDER:
        graphs = 1 << (max_order * (max_order - 1) // 2)
        # what a cached _DenseTables keeps per labelled graph: conn (1 byte)
        # and one bit in each of the 2**order planes
        size = graphs * (1 + (1 << max_order) // 8)
        raise CapacityError(
            f"order {max_order} needs all-graphs tables over {graphs} labelled graphs, "
            f"at least {size} bytes ({size / 2**30:.1f} GiB); the limit is order {_DENSE_MAX_ORDER}"
        )


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


# _WITHOUT[b], b < 6: the graphs without pair b in a 64-bit plane word, as
# a mask: bits i with bit b of i clear
_WITHOUT = tuple(np.uint64(sum(1 << i for i in range(64) if not i >> b & 1)) for b in range(6))


def _project(words: np.ndarray, b: int) -> None:
    """Give, in place, every graph with pair b the flag of the same graph
    without it, in one plane's 64-bit words."""
    if b >= 6:  # [:, 1] are the words of the graphs with pair b, [:, 0] those without
        blocks = words.reshape(-1, 2, 1 << (b - 6))
        blocks[:, 1] = blocks[:, 0]
    else:
        without = words & _WITHOUT[b]
        np.left_shift(without, np.uint64(1 << b), out=words)
        words |= without


def _halves(words: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The flags in one plane's 64-bit words of the graphs without pair b
    and of the same graphs with it, aligned: for b < 6 at the bits of the
    graphs without it, the other bits 0; for b >= 6 as the two halves of
    each block of words."""
    if b >= 6:
        blocks = words.reshape(-1, 2, 1 << (b - 6))
        return blocks[:, 0], blocks[:, 1]
    return words & _WITHOUT[b], words >> np.uint64(1 << b) & _WITHOUT[b]


def _free_words(b: int, words: np.ndarray) -> np.ndarray:
    """The graphs without pair b, as the 64-bit plane words at indices ``words``."""
    if b < 6:
        return np.full(words.size, _WITHOUT[b])
    return np.where(words >> (b - 6) & 1 == 1, np.uint64(0), ~np.uint64(0))


@lru_cache(maxsize=_DENSE_MAX_ORDER)
def _dense_tables(k: int) -> _DenseTables:
    pairs = tuple(combinations(range(k), 2))
    n_graphs = 1 << len(pairs)
    if k <= 2:  # the complete graph is the one connected graph
        conn = np.arange(n_graphs) == n_graphs - 1
    else:
        # Vertex 0's pairs are the low k - 1 bits of G: its neighbours N,
        # bit v - 1 for vertex v. The rest, G >> (k - 1), is a graph of
        # order k - 1 on vertices 1..k-1 with its pairs in the same order.
        # G is connected iff N is not empty and the rest, with N made a
        # clique, is connected.
        prev = _dense_tables(k - 1)
        rest = np.arange(prev.conn.size)
        by_n = np.zeros((1 << (k - 1), prev.conn.size), dtype=bool)  # by_n[N, rest]
        for n in range(1, 1 << (k - 1)):
            clique = sum(1 << b for b, (u, v) in enumerate(prev.pairs) if n >> u & n >> v & 1)
            by_n[n] = prev.conn[rest | clique]
        conn = by_n.T.reshape(-1)  # conn[rest << (k - 1) | N]

    # S is weakly connected dominating in G iff G minus the pairs inside
    # T = V - S is connected. With x the top vertex of T, that is the flag of
    # S + x in G minus the pairs (y, x), y in T - x: project the plane of
    # S + x, built first since S + x > S, along those pairs.
    everything = (1 << k) - 1
    packed = np.packbits(conn, bitorder="little")
    planes = np.zeros((1 << k, max(8, n_graphs >> 3)), dtype=np.uint8)  # at least one 64-bit word
    words = planes.view("<u8")
    for s in range(everything, 0, -1):
        t = everything ^ s
        if t & (t - 1) == 0:  # no pair inside T
            planes[s, : packed.size] = packed
            continue
        x = t.bit_length() - 1
        words[s] = words[s | 1 << x]
        for y in range(x):
            if t >> y & 1:
                _project(words[s], pairs.index((y, x)))
    return _DenseTables(k, pairs, conn, planes)


def _violations(t: _DenseTables) -> tuple[int, int]:
    """Upward-closure and domination violations over the connected graphs of
    ``t``. Closure counts the (S, v, G) with S weakly connected dominating
    in G, v outside S and S + v not; domination counts the (S, G) with S
    weakly connected dominating in G and some vertex outside S undominated.
    A disconnected graph has no flags (its spanning subgraphs are all
    disconnected), so every graph can be counted."""
    k = t.order
    words = t.planes.view("<u8")  # the bits past the last graph are 0
    closure = domination = 0
    for lo in range(0, words.shape[1], _PLANE_CHUNK):
        flags = words[:, lo : lo + _PLANE_CHUNK]
        span = np.arange(lo, lo + flags.shape[1], dtype=np.uint64)
        free = {p: _free_words(b, span) for b, p in enumerate(t.pairs)}
        # lonely[S]: the graphs where some vertex outside S has no neighbour in S
        lonely = np.zeros_like(flags)
        apart = np.empty_like(flags[: 1 << (k - 1)])
        for v in range(k):
            # [:, 0] are the subsets without v, [:, 1] the same subsets with v
            by_v = flags.reshape(-1, 2, 1 << v, flags.shape[1])
            closure += _popcount(by_v[:, 0] & ~by_v[:, 1])
            # apart[S]: the graphs where v has no neighbour in S, S a subset
            # of the other vertices in order; the i-th of them, u, fills
            # rows 2**i .. 2**(i+1) - 1 from rows 0 .. 2**i - 1
            apart[0] = ~np.uint64(0)
            for i, u in enumerate(u for u in range(k) if u != v):
                np.bitwise_and(apart[: 1 << i], free[min(u, v), max(u, v)], out=apart[1 << i : 2 << i])
            lonely.reshape(by_v.shape)[:, 0] |= apart.reshape(by_v[:, 0].shape)
        domination += _popcount(flags & lonely)
    return closure, domination


def _deletion_counts(t: _DenseTables) -> tuple[int, int, int]:
    """Single-edge deletions over the graphs of ``t``: G has pair b and
    G - e is the same graph without it. Returns the deletions with G and
    G - e connected where gamma_w(G - e) is neither gamma_w(G) nor
    gamma_w(G) + 1, the deletions with both connected, and those with G
    connected and G - e not."""
    k = t.order
    words = t.planes.view("<u8")
    # within[g]: the graphs with gamma_w <= g, the OR of the planes of size
    # <= g; within[k] is the connected graphs
    within = np.zeros((k + 1, words.shape[1]), dtype=np.uint64)
    for s in range(1, 1 << k):
        within[s.bit_count()] |= words[s]
    for g in range(1, k + 1):
        within[g] |= within[g - 1]
    bad = checked = skipped = 0
    for b in range(len(t.pairs)):
        # a deletion breaks the window where, at some g, G - e is within g
        # and G is not, or G is within g and G - e is not within g + 1
        broken = below = 0  # below: G within g - 1
        for g in range(1, k + 1):
            without, with_ = _halves(within[g], b)
            broken |= below & ~without
            broken |= without & ~with_
            below = with_
        valid = without & with_  # within[k]: G and G - e connected
        bad += _popcount(broken & valid)
        checked += _popcount(valid)
        skipped += _popcount(with_ & ~without)
    return bad, checked, skipped


def _suite_structural(max_n: int, **_) -> list[CheckRecord]:
    """Two definitional consequences swept over every connected labeled graph
    up to order ``max_n``: supersets of a weakly connected dominating set
    stay in the family, and membership implies ordinary domination (order
    >= 2). Orders above 7 raise :class:`CapacityError`."""
    _check_dense_order(max_n)
    records: list[CheckRecord] = []
    for k in range(1, max_n + 1):
        eng = _dense_tables(k)
        swept = f"{int(np.count_nonzero(eng.conn))} connected graphs swept"
        closure_bad, dom_bad = _violations(eng)
        records.append(_check(f"order {k} upward closure", "superset preservation", 0, closure_bad, swept))
        if k >= 2:
            records.append(
                _check(f"order {k} domination implication", "membership implies domination", 0, dom_bad, swept)
            )
    return records


def _suite_edge_deletion(max_n: int, **_) -> tuple[list[CheckRecord], int]:
    """Deleting an edge that keeps a labeled graph of order 2..``max_n``
    connected never lowers gamma_w and raises it by at most one. Also
    returns the number of disconnecting deletions skipped."""
    _check_dense_order(max_n)
    records: list[CheckRecord] = []
    total_skipped = 0
    for k in range(2, max_n + 1):
        bad, checked, skipped = _deletion_counts(_dense_tables(k))
        total_skipped += skipped
        records.append(
            _check(
                f"order {k} deletion bounds",
                "single-edge stability window",
                0,
                bad,
                f"{checked} connectivity-preserving deletions checked, "
                f"{skipped} disconnecting deletions skipped",
            )
        )
    return records, total_skipped


# --- instance builders ------------------------------------------------------


def _named_family_graphs(
    max_order: int,
    families: tuple[str, ...] = ("path", "cycle", "complete", "star", "wheel"),
) -> list[tuple[str, Graph]]:
    """Distinct labeled graphs from the named families up to ``max_order``,
    first label wins on duplicates (C_3 and K_3 are the same graph)."""
    out: list[tuple[str, Graph]] = []
    seen: set[tuple[int, frozenset]] = set()
    for fam in families:
        start = 4 if fam == "wheel" else 1
        for n in range(start, max_order + 1):
            g = build_family(fam, n)
            if g.order > max_order:
                break
            fp = (g.order, g.edges)
            if fp in seen:
                continue
            seen.add(fp)
            out.append((g.label(), g))
    return out


def _random_connected(rng: random.Random, max_order: int, min_order: int = 2) -> Graph:
    """Random connected graph: a uniform random labeled tree plus each extra
    pair with probability one half."""
    n = rng.randint(min_order, max_order)
    if n == 1:
        return make_graph(1, [])
    edges: set[tuple[int, int]] = set()
    if n == 2:
        edges.add((1, 2))
    else:
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


def _extension_instances(random_count: int, seed: int) -> Iterator[tuple[str, RootedGraph, range]]:
    """The instances of the three extension suites: every named base of
    order <= 5 and ``random_count`` random connected ones, every root, and
    pendant paths of length m = 2..6. Yields the record key, the rooted
    graph and the cardinalities checked on G(m); cardinality 1 is left out
    on a single-vertex base, where the recurrence is not stated for it."""
    rng = random.Random(seed)
    randoms = ((f"random{i + 1}", _random_connected(rng, 5, min_order=2)) for i in range(random_count))
    for label, base in chain(_named_family_graphs(5), randoms):
        for root in range(1, base.order + 1):
            for m in range(2, 7):
                cards = range(1 if base.order >= 2 else 2, base.order + m + 1)
                yield f"{label} root={root} m={m}", RootedGraph(base, root, m), cards


# extension instances per stacked sweep, so that the suites' memory follows
# the window, not the random pool
_WINDOW = 256


def _extension_windows(random_count: int, seed: int, cap: int) -> Iterator[tuple[list[tuple], dict[Graph, np.ndarray]]]:
    """``_extension_instances`` ``_WINDOW`` at a time, each instance with its
    G(0), G(1) and G(m) appended, and the weakly connected dominating sets
    of every graph in the window from one stacked sweep per order. Their
    count tables enter the cache of ``count_table`` on the way."""
    instances = _extension_instances(random_count, seed)
    while window := list(islice(instances, _WINDOW)):
        window = [
            (key, rg, cards, tuple(realize_extension(RootedGraph(rg.base, rg.root, k)) for k in (0, 1, rg.extension_length)))
            for key, rg, cards in window
        ]
        yield window, sweep_stack(chain.from_iterable(graphs for *_, graphs in window), cap=cap)


# --- formula suites ---------------------------------------------------------


# the closed form (size parameter, cardinality) -> count of each family whose
# full row has one; the wheel's needs its rim table, see ``table_by_method``
_CLOSED_FORMS: dict[str, Callable[[int, int], int]] = {
    "path": formulas.count_path_closed,
    "complete": formulas.count_complete,
    "star": formulas.count_star,
}


def _family_cells(family: str, size: str, source: str, *, max_n: int, cap: int, **_) -> list[CheckRecord]:
    """Every cell of the count rows of ``family`` at sizes 1..``max_n``
    against the family's closed form in ``_CLOSED_FORMS``."""
    claim = _CLOSED_FORMS[family]
    records = []
    for n in range(1, max_n + 1):
        g = build_family(family, n)
        actual = count_table(g, cap)
        for i in range(1, g.order + 1):
            records.append(_check(f"{family} {size}={n} i={i}", source, claim(n, i), actual.count(i)))
    return records


def _suite_wheel(max_n: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for n in range(4, max_n + 1):
        rim = build_family("cycle", n - 1)
        rim_table = count_table(rim, cap)
        dom_rim = dominating_counts(rim, cap)
        actual = count_table(build_family("wheel", n), cap)
        for i in range(1, n + 1):
            claimed = formulas.count_wheel(n, i, rim_table)
            o = actual.count(i)
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
    for key, g, h in _join_instances(max_n, random_count, seed):
        tg = count_table(g, cap)
        th = count_table(h, cap)
        joined = join(g, h)
        actual_row = count_table(joined, cap).counts
        dom_g = dominating_counts(g, cap)
        dom_h = dominating_counts(h, cap)
        claimed_row = tuple(formulas.count_join(tg, th, i) for i in range(1, joined.order + 1))
        mismatches = []
        for i, (claimed, o) in enumerate(zip(claimed_row, actual_row), start=1):
            if claimed != o:
                corrected = formulas.count_join_dominating(dom_g, dom_h, i)
                note = "matches" if corrected == o else "still off"
                mismatches.append(
                    f"i={i}: stated {claimed}, exhaustive {o}, "
                    f"dominating-set one-part terms give {corrected} ({note})"
                )
        detail = "; ".join(mismatches)
        records.append(_check(key, "join composition", str(claimed_row), str(actual_row), detail))
    return records


def _suite_corona_gamma(cap: int, **_) -> list[CheckRecord]:
    bases = [build_family(*b) for b in (("path", 2), ("path", 3), ("cycle", 3), ("cycle", 4), ("complete", 3))]
    hats = [build_family(*h) for h in (("complete", 1), ("complete", 2), ("path", 3))]
    return [
        _check(
            f"corona({bg.label()},{hg.label()})",
            "base-order rule",
            formulas.gamma_w_corona(bg),
            gamma_w(corona(bg, hg), cap),
        )
        for bg in bases
        for hg in hats
    ]


def _suite_join_gamma(max_n: int, random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    return [
        _check(
            key,
            "dominating-vertex rule",
            formulas.gamma_w_join(gamma(g, cap), gamma(h, cap)),
            gamma_w(join(g, h), cap),
        )
        for key, g, h in _join_instances(max_n, random_count, seed)
    ]


def _suite_gamma_path_cycle(max_n: int, cap: int, **_) -> list[CheckRecord]:
    return [
        _check(f"{fam} n={n}", f"half-order-{fam}", fn(n), gamma_w(build_family(fam, n), cap))
        for n in range(1, max_n + 1)
        for fam, fn in (("path", formulas.gamma_w_path), ("cycle", formulas.gamma_w_cycle))
    ]


def _suite_extension_recurrence(random_count: int, seed: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for window, _ in _extension_windows(random_count, seed, cap):
        for key, rg, cards, (_, _, gm) in window:
            row = formulas.count_extension_table(rg, cap)[-1]
            actual = count_table(gm, cap)
            mism = [
                f"i={i}: recurrence {row.count(i)}, exhaustive {actual.count(i)}"
                for i in cards
                if row.count(i) != actual.count(i)
            ]
            claimed, exhaustive = str(row.counts), str(actual.counts)
            records.append(CheckRecord(key, "two-step recurrence", claimed, exhaustive, not mism, "; ".join(mism)))
    return records


def _suite_extension_constructive(random_count: int, seed: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for window, hits in _extension_windows(random_count, seed, cap):
        for key, rg, cards, (g0, g1, gm) in window:
            families = formulas._pendant_families(rg, hits[g0], hits[g1])
            sizes = np.bitwise_count(hits[gm])
            built_total = 0
            truth_total = 0
            mism = []
            for i in cards:
                truth = hits[gm][sizes == i]
                truth_total += truth.size
                built = families[i]
                if isinstance(built, formulas.RecurrenceAssumptionError):
                    mism.append(f"i={i}: construction refused ({built})")
                    continue
                built_total += built.size
                if not np.array_equal(built, truth):
                    if built.size == truth.size:
                        extra = next(iter(_as_tuples(np.setdiff1d(built, truth), i)), None)
                        mism.append(
                            f"i={i}: same count but different sets, "
                            f"e.g. construction includes {extra}"
                        )
                    else:
                        mism.append(
                            f"i={i}: construction yields {built.size} sets, "
                            f"exhaustive {truth.size}"
                        )
            detail = "; ".join(mism)
            records.append(CheckRecord(key, "pendant-path construction", built_total, truth_total, not mism, detail))
    return records


def _suite_extension_gamma(random_count: int, seed: int, cap: int, **_) -> list[CheckRecord]:
    records = []
    for window, hits in _extension_windows(random_count, seed, cap):
        dominating = sweep_stack((g0 for *_, (g0, _, _) in window), _dom_ok, cap)
        for key, rg, _cards, (g0, _, gm) in window:
            # the window's hits hold every weakly connected dominating set of
            # G(0) and G(m), so gamma_w is their least popcount
            gw_base, gw_m = (int(np.bitwise_count(hits[g]).min()) for g in (g0, gm))
            flag_w = _in_a_minimum(hits[g0], rg.root)
            flag_d = _in_a_minimum(dominating[g0], rg.root)
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
    for n in range(1, max_n + 1):
        path_table = count_table(build_family("path", n), cap)
        for j in range(0, n + 1):
            closed = formulas.boxes_count(n, j)
            dw = path_table.count(j)
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
    is None for the all-graphs suites, which the cap does not bound."""

    build: Callable[..., list[CheckRecord] | tuple[list[CheckRecord], int]]
    max_n: int | None
    min_n: int | None
    random_count: int | None
    largest_order: Callable[[int | None], int] | None


SUITES: dict[str, Suite] = {
    "path_table": Suite(_suite_path_table, 10, 1, None, lambda n: n),
    "cycle_table": Suite(_suite_cycle_table, 14, 1, None, lambda n: n),
    "structural": Suite(_suite_structural, 7, 1, None, None),
    "complete": Suite(partial(_family_cells, "complete", "n", "binomial closed form"), 10, 1, None, lambda n: n),
    "star": Suite(partial(_family_cells, "star", "leaves", "center/leaves closed form"), 9, 1, None, lambda n: n + 1),
    "wheel": Suite(_suite_wheel, 14, 4, None, lambda n: n),
    "join": Suite(_suite_join, 5, 1, 20, lambda n: 2 * n),
    "corona_gamma": Suite(_suite_corona_gamma, None, None, None, lambda _: 16),  # corona(C4, P3)
    "join_gamma": Suite(_suite_join_gamma, 5, 1, 20, lambda n: 2 * n),
    "gamma_path_cycle": Suite(_suite_gamma_path_cycle, 20, 1, None, lambda n: n),
    # a base of order 5 with a pendant path of 6
    "extension_recurrence": Suite(_suite_extension_recurrence, None, None, 10, lambda _: 11),
    "extension_constructive": Suite(_suite_extension_constructive, None, None, 10, lambda _: 11),
    "extension_gamma": Suite(_suite_extension_gamma, None, None, 10, lambda _: 11),
    "boxes": Suite(_suite_boxes, 15, 1, None, lambda n: n),
    "edge_deletion_bounds": Suite(_suite_edge_deletion, 7, 2, None, None),
}


def _size(suite: str, name: str, value: int | None, default: int | None, least: int | None) -> int | None:
    """``value`` or the suite's default for the size ``name``; refuses a size
    the suite does not read, or one below ``least``."""
    if default is None:
        if value is not None:
            raise ValueError(f"suite {suite} takes no {name}")
        return None
    if value is None:
        return default
    if value < least:
        raise ValueError(f"{name} must be at least {least} for suite {suite}, got {value}")
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
    not read, or one too small to yield a record, raises ``ValueError``; a
    size whose largest graph is above ``cap`` raises :class:`CapacityError`
    before any sweep.
    """
    spec = SUITES.get(suite)
    if spec is None:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    max_n = _size(suite, "max_n", max_n, spec.max_n, spec.min_n)
    random_count = _size(suite, "random_count", random_count, spec.random_count, 0)
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
    """The ``structural`` suite; orders above 7 raise :class:`CapacityError`."""
    return verify_formula_suite("structural", max_n=max_order)


def table_by_method(g: Graph, method: str, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Full count row of g by one of ``METHODS``: ``oracle`` (any graph,
    the subset sweep), ``frontier`` (any graph, the frontier DP, refused
    above its width bound), ``formula`` (paths, complete graphs, stars,
    wheels; wheels get their rim table wired in here), ``recurrence``
    (paths). Family recognition uses construction metadata, so graphs read
    from edge lists only support ``oracle`` and ``frontier``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n = g.order
    if method == "oracle":
        return count_table(g, cap).counts
    if method == "frontier":
        check_cap(n, cap)
        return count_table_frontier(g).counts
    if method == "recurrence":
        if g.family != "path":
            raise UnsupportedMethodError(f"no recurrence covers {g.label()}")
        return formulas.count_path_recurrence(n).counts
    if g.family == "wheel":
        rim_table = count_table(build_family("cycle", n - 1), cap)
        return tuple(formulas.count_wheel(n, i, rim_table) for i in range(1, n + 1))
    if g.family not in _CLOSED_FORMS:
        raise UnsupportedMethodError(f"no closed form covers the full table of {g.label()}")
    closed = _CLOSED_FORMS[g.family]
    return tuple(closed(g.family_n, i) for i in range(1, n + 1))


def cross_check(
    g: Graph, methods: tuple[str, ...] | list[str], cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Compute g's full count table by each requested method and compare
    cell for cell. See table_by_method for what each method covers."""
    t0 = time.perf_counter()
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    n = g.order
    tables = {method: table_by_method(g, method, cap) for method in methods}
    records = []
    for i in range(1, n + 1):
        vals = [(m, tables[m][i - 1]) for m in methods]
        passed = len({v for _, v in vals}) == 1
        claimed: int | str = vals[0][1] if passed else "; ".join(f"{m}={v}" for m, v in vals)
        oracle_value = dict(vals).get("oracle", vals[0][1])
        records.append(
            CheckRecord(f"{g.label()} i={i}", "+".join(methods), claimed, oracle_value, passed)
        )
    return _finish(f"cross-check {g.label()}", records, 0, t0)
