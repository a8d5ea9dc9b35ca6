"""Cross-checking engine.

Reproduces the embedded reference tables, runs every stated identity against
the exhaustive counter, and sweeps all labeled graphs of small order for the
structural checks. Reports are plain records with exact integer comparisons;
a failing record means the stated identity and the exhaustive count disagree
on that instance, and the record's detail says why where the cause is known.

All randomized suites draw from a fixed default seed so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import formulas
from .formulas import _choose
from .graph import Graph, RootedGraph, build_family, corona, join, make_graph, realize_extension
from .oracle import (
    DEFAULT_CAP,
    CapacityError,
    count_table,
    dominating_counts,
    enumerate_wcds,
    gamma,
    gamma_w,
    has_minimum_dominating_containing,
    has_minimum_wcds_containing,
)

DEFAULT_SEED = 1729

FORMULA_SUITES = (
    "complete",
    "star",
    "wheel",
    "join",
    "corona_gamma",
    "join_gamma",
    "gamma_path_cycle",
    "extension_recurrence",
    "extension_constructive",
    "extension_gamma",
    "boxes",
    "edge_deletion_bounds",
)

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
    passes: int
    failures: int
    skipped: int
    wall_time: float

    def __post_init__(self) -> None:
        got = sum(1 for r in self.records if r.passed)
        if self.passes != got or self.failures != len(self.records) - got:
            raise ValueError("summary counts must match the record tallies")

    def all_passed(self) -> bool:
        return self.failures == 0

    def failing(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_json(self, include_wall_time: bool = False) -> str:
        payload: dict = {
            "suite": self.suite,
            "passes": self.passes,
            "failures": self.failures,
            "skipped": self.skipped,
            "records": [asdict(r) for r in self.records],
        }
        if include_wall_time:
            payload["wall_time_s"] = round(self.wall_time, 3)
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
    recs = tuple(records)
    passes = sum(1 for r in recs if r.passed)
    return VerificationReport(
        suite=suite,
        records=recs,
        passes=passes,
        failures=len(recs) - passes,
        skipped=skipped,
        wall_time=time.perf_counter() - t0,
    )


def verify_path_table(max_n: int = 10, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Path counts four ways: reference row, exhaustive counter, closed form,
    recurrence. Beyond the reference rows (n > 10) the comparison is
    three-way with the exhaustive counter as referee."""
    t0 = time.perf_counter()
    records: list[CheckRecord] = []
    for n in range(1, max_n + 1):
        actual = count_table(build_family("path", n), cap)
        rec = formulas.count_path_recurrence(n)
        for j in range(1, n + 1):
            o = actual.count(j)
            r = rec.count(j)
            c = formulas.count_path_closed(n, j)
            if n <= 10:
                ref = REFERENCE_PATH_TABLE[n][j - 1]
                passed = o == ref == r == c
                claimed: int | str = ref
                source = "reference row + closed form + recurrence"
                detail = "" if passed else f"reference {ref}, exhaustive {o}, closed form {c}, recurrence {r}"
            else:
                passed = o == r == c
                claimed = c
                source = "closed form + recurrence"
                detail = "" if passed else f"exhaustive {o}, closed form {c}, recurrence {r}"
            records.append(
                CheckRecord(f"path n={n} j={j}", source, claimed, o, passed, detail)
            )
    return _finish("path_table", records, 0, t0)


def verify_cycle_table(max_n: int = 14, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Cycle counts against the reference rows (n <= 14), plus the top-cell
    closed forms and the one-step shift identity on exhaustive values."""
    t0 = time.perf_counter()
    records: list[CheckRecord] = []
    for n in range(1, min(max_n, 14) + 1):
        actual = count_table(build_family("cycle", n), cap)
        for j in range(1, n + 1):
            ref = REFERENCE_CYCLE_TABLE[n][j - 1]
            o = actual.count(j)
            records.append(
                CheckRecord(
                    f"cycle n={n} j={j}",
                    "reference row",
                    ref,
                    o,
                    ref == o,
                )
            )
    for n in range(4, max_n + 1):
        actual = count_table(build_family("cycle", n), cap)
        tops = ([n - 3] if n >= 6 else []) + [n - 2, n - 1, n]
        for i in tops:
            c = formulas.count_cycle_top(n, i)
            o = actual.count(i)
            records.append(
                CheckRecord(f"cycle n={n} i={i}", "top-cell closed form", c, o, c == o)
            )
    for n in range(7, max_n + 1):
        cur = count_table(build_family("cycle", n), cap)
        prev = count_table(build_family("cycle", n - 1), cap)
        claimed = prev.count(n - 4) + prev.count(n - 3) - 1
        o = cur.count(n - 3)
        records.append(
            CheckRecord(f"cycle n={n} shift", "one-step shift identity", claimed, o, claimed == o)
        )
    return _finish("cycle_table", records, 0, t0)


# --- dense tables over every labeled graph of a fixed small order ----------
#
# A labelled graph of order k is its edge mask G: bit b is the b-th pair of
# combinations(range(k), 2). A vertex subset S is a mask as well (bit v is
# vertex v), and one flag per subset packs into a 128-bit word per graph,
# split over two uint64 arrays: bit S of ``w_lo`` for S < 64, bit S - 64 of
# ``w_hi`` otherwise.

# graphs per step of the table build and of the structural checks; the
# working arrays of one step stay in cache
_DENSE_CHUNK = 1 << 16
_DENSE_MAX_ORDER = 7


@dataclass(frozen=True)
class _DenseTables:
    """Arrays over every labelled graph of one order, indexed by edge mask:
    each vertex's neighbour mask, connectivity, the packed flags of the
    weakly connected dominating sets, and their minimum cardinality (0 on a
    disconnected graph)."""

    order: int
    pairs: tuple[tuple[int, int], ...]
    nbr: np.ndarray  # uint8 (order, graphs): nbr[v, G] is v's neighbour mask
    conn: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    gw: np.ndarray


def _check_dense_order(max_order: int) -> None:
    """Refuse all-graphs tables above ``_DENSE_MAX_ORDER`` before allocating any."""
    if max_order > _DENSE_MAX_ORDER:
        graphs = 1 << (max_order * (max_order - 1) // 2)
        # what a cached _DenseTables keeps per labelled graph: w_lo and w_hi
        # (8 bytes each), conn and gw (1 byte each), one nbr byte per vertex
        size = graphs * (18 + max_order)
        raise CapacityError(
            f"order {max_order} needs all-graphs tables over {graphs} labelled graphs, "
            f"at least {size} bytes ({size / 2**30:.1f} GiB); the limit is order {_DENSE_MAX_ORDER}"
        )


def _pack(flags: np.ndarray) -> np.ndarray:
    """Rows of at most 128 subset flags as (rows, 2) uint64 words: bit S of
    row r's 128-bit word is ``flags[r, S]``."""
    padded = np.zeros((flags.shape[0], 128), dtype=bool)
    padded[:, : flags.shape[1]] = flags
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _connected(nbr: np.ndarray) -> np.ndarray:
    """Per graph: does vertex 0 reach every vertex? ``nbr`` holds the
    (order, graphs) neighbour masks. Reachability spreads vertex by vertex,
    forward then backward, until a pass changes nothing, as in
    ``oracle._weak_ok``."""
    k = nbr.shape[0]
    reach = np.ones(nbr.shape[1], dtype=np.uint8)
    prev = np.empty_like(reach)
    bit = np.empty_like(reach)
    seq = [*range(k), *range(k - 2, -1, -1)]
    while True:
        np.copyto(prev, reach)
        for v in seq:
            np.right_shift(reach, v, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.multiply(bit, nbr[v], out=bit)
            np.bitwise_or(reach, bit, out=reach)
        if np.array_equal(prev, reach):
            return reach == (1 << k) - 1


@lru_cache(maxsize=_DENSE_MAX_ORDER)
def _dense_tables(k: int) -> _DenseTables:
    pairs = tuple(combinations(range(k), 2))
    n_graphs = 1 << len(pairs)
    nbr = np.zeros((k, n_graphs), dtype=np.uint8)
    for b, (u, v) in enumerate(pairs):  # [:, 1] are the graphs with bit b set
        nbr[u].reshape(-1, 2, 1 << b)[:, 1] |= np.uint8(1 << v)
        nbr[v].reshape(-1, 2, 1 << b)[:, 1] |= np.uint8(1 << u)
    # S is weakly connected dominating in G iff G & keep[S], the edges of G
    # that meet S, is connected
    keep = [
        sum(1 << b for b, (u, v) in enumerate(pairs) if s >> u & 1 or s >> v & 1)
        for s in range(1 << k)
    ]
    subsets = np.arange(1 << k)
    of_size = _pack(np.bitwise_count(subsets) == np.arange(k + 1)[:, None])

    conn = np.empty(n_graphs, dtype=bool)
    w_lo = np.empty(n_graphs, dtype=np.uint64)
    w_hi = np.empty(n_graphs, dtype=np.uint64)
    gw = np.zeros(n_graphs, dtype=np.int8)
    step = min(_DENSE_CHUNK, n_graphs)
    planes = np.empty((16, step), dtype=np.uint8)  # byte j: the flags of S = 8j .. 8j + 7
    idx = np.empty(step, dtype=np.intp)
    flag = np.empty(step, dtype=np.uint8)
    conn_bytes = conn.view(np.uint8)
    for lo in range(0, n_graphs, step):
        part = slice(lo, lo + step)
        conn[part] = _connected(nbr[:, part])
        # G & keep[S] <= G: every graph gathered here has its conn already
        graphs = np.arange(lo, lo + step, dtype=np.intp)
        planes.fill(0)
        for s in range(1, 1 << k):
            np.bitwise_and(graphs, keep[s], out=idx)
            np.take(conn_bytes, idx, out=flag, mode="clip")
            np.multiply(flag, 1 << (s & 7), out=flag)  # a uint8 shift runs ten times slower
            np.bitwise_or(planes[s >> 3], flag, out=planes[s >> 3])
        words = planes.T.copy().view("<u8")
        w_lo[part] = words[:, 0]
        w_hi[part] = words[:, 1]
        for size in range(k, 0, -1):  # the smallest size with a flag is written last
            hit = (w_lo[part] & of_size[size, 0]) | (w_hi[part] & of_size[size, 1])
            np.copyto(gw[part], size, where=hit != 0)
    return _DenseTables(k, pairs, nbr, conn, w_lo, w_hi, gw)


def _violations(t: _DenseTables) -> tuple[int, int]:
    """Upward-closure and domination violations over the connected graphs of
    ``t``. Closure counts the (S, v, G) with S weakly connected dominating
    in G, v outside S and S + v not; domination counts the (S, G) with S
    weakly connected dominating in G and some vertex outside S undominated.
    A disconnected graph has no flags (its spanning subgraphs are all
    disconnected), so every graph can be counted."""
    k = t.order
    subsets = np.arange(1 << k)
    holds = (subsets >> np.arange(k)[:, None]) & 1 == 1  # holds[v, S]: v is in S
    lack = _pack(~holds)
    meets = (subsets[:, None] & subsets) != 0  # meets[m, S]: S meets the mask m
    # cover[v][m]: the subsets that hold v or meet v's neighbour mask m
    cover = [_pack(holds[v] | meets).T.copy() for v in range(k)]
    closure = domination = 0
    for lo in range(0, t.conn.size, _DENSE_CHUNK):
        part = slice(lo, lo + _DENSE_CHUNK)
        w_lo = t.w_lo[part]
        w_hi = t.w_hi[part]
        for v in range(k):
            if v < 6:  # S + v is bit S + 2**v of the word that holds S
                closure += _popcount(w_lo & lack[v, 0] & ~(w_lo >> (1 << v)))
                closure += _popcount(w_hi & lack[v, 1] & ~(w_hi >> (1 << v)))
            else:  # every S < 64 lacks vertex 6, and S + 6 is bit S of w_hi
                closure += _popcount(w_lo & ~w_hi)
        d_lo = np.full(w_lo.size, ~np.uint64(0))
        d_hi = d_lo.copy()
        for v in range(k):
            m = t.nbr[v, part].astype(np.intp)  # take is slow on uint8 indices
            d_lo &= np.take(cover[v][0], m)
            d_hi &= np.take(cover[v][1], m)
        domination += _popcount(w_lo & ~d_lo) + _popcount(w_hi & ~d_hi)
    return closure, domination


def verify_structural(max_order: int = 7) -> VerificationReport:
    """Two definitional consequences swept over every connected labeled graph
    up to ``max_order``: supersets of a weakly connected dominating set stay
    in the family, and membership implies ordinary domination (order >= 2).
    Orders above 7 raise :class:`CapacityError`.
    """
    _check_dense_order(max_order)
    t0 = time.perf_counter()
    records: list[CheckRecord] = []
    for k in range(1, max_order + 1):
        eng = _dense_tables(k)
        n_graphs = int(np.count_nonzero(eng.conn))
        closure_bad, dom_bad = _violations(eng)
        records.append(
            CheckRecord(
                f"order {k} upward closure",
                "superset preservation",
                0,
                closure_bad,
                closure_bad == 0,
                f"{n_graphs} connected graphs swept",
            )
        )
        if k >= 2:
            records.append(
                CheckRecord(
                    f"order {k} domination implication",
                    "membership implies domination",
                    0,
                    dom_bad,
                    dom_bad == 0,
                    f"{n_graphs} connected graphs swept",
                )
            )
    return _finish("structural", records, 0, t0)


def _suite_edge_deletion(max_order: int) -> tuple[list[CheckRecord], int]:
    _check_dense_order(max_order)
    records: list[CheckRecord] = []
    total_skipped = 0
    for k in range(2, max_order + 1):
        eng = _dense_tables(k)
        checked = 0
        skipped = 0
        bad = 0
        for b in range(len(eng.pairs)):
            # [:, 1] are the graphs with pair b, [:, 0] the same graphs without it
            conn = eng.conn.reshape(-1, 2, 1 << b)
            gw = eng.gw.reshape(-1, 2, 1 << b)
            valid = conn[:, 1] & conn[:, 0]
            ok = (gw[:, 0] - 1 <= gw[:, 1]) & (gw[:, 1] <= gw[:, 0])
            bad += int(np.count_nonzero(valid & ~ok))
            checked += int(np.count_nonzero(valid))
            skipped += int(np.count_nonzero(conn[:, 1] & ~conn[:, 0]))
        total_skipped += skipped
        records.append(
            CheckRecord(
                f"order {k} deletion bounds",
                "single-edge stability window",
                0,
                bad,
                bad == 0,
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
    prefix = {"path": "P", "cycle": "C", "complete": "K", "star": "S", "wheel": "W"}
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
            out.append((f"{prefix[fam]}{n}", g))
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


def _join_instances(
    max_order: int, random_count: int, seed: int
) -> list[tuple[str, Graph, Graph]]:
    named = _named_family_graphs(max_order, families=("path", "cycle", "complete"))
    out = [(f"{a}+{b}", g, h) for a, g in named for b, h in named]
    rng = random.Random(seed)
    for idx in range(random_count):
        g = _random_connected(rng, max_order, min_order=1)
        h = _random_connected(rng, max_order, min_order=1)
        out.append((f"random{idx + 1}", g, h))
    return out


def _extension_instances(random_count: int, seed: int) -> list[tuple[str, Graph]]:
    named = _named_family_graphs(5)
    rng = random.Random(seed)
    named += [
        (f"random{i + 1}", _random_connected(rng, 5, min_order=2))
        for i in range(random_count)
    ]
    return named


# --- formula suites ---------------------------------------------------------


def _suite_complete(max_n: int, cap: int) -> list[CheckRecord]:
    records = []
    for n in range(1, max_n + 1):
        actual = count_table(build_family("complete", n), cap)
        for i in range(1, n + 1):
            c = formulas.count_complete(n, i)
            o = actual.count(i)
            records.append(
                CheckRecord(f"complete n={n} i={i}", "binomial closed form", c, o, c == o)
            )
    return records


def _suite_star(max_n: int, cap: int) -> list[CheckRecord]:
    records = []
    for n in range(1, max_n + 1):
        actual = count_table(build_family("star", n), cap)
        for i in range(1, n + 2):
            c = formulas.count_star(n, i)
            o = actual.count(i)
            records.append(
                CheckRecord(f"star leaves={n} i={i}", "center/leaves closed form", c, o, c == o)
            )
    return records


def _suite_wheel(max_n: int, cap: int) -> list[CheckRecord]:
    records = []
    for n in range(4, max_n + 1):
        rim = build_family("cycle", n - 1)
        rim_table = count_table(rim, cap)
        dom_rim = dominating_counts(rim, cap)
        actual = count_table(build_family("wheel", n), cap)
        for i in range(1, n + 1):
            claimed = formulas.count_wheel(n, i, rim_table)
            o = actual.count(i)
            passed = claimed == o
            detail = ""
            if not passed:
                if i == 1:
                    corrected = dom_rim[0] + 1
                else:
                    corrected = (dom_rim[i - 1] if i <= n - 1 else 0) + _choose(n - 1, i - 1)
                note = "matches exhaustive" if corrected == o else "still off"
                detail = (
                    "hub-free term counts weakly connected rim sets; counting "
                    f"dominating rim sets instead gives {corrected} ({note})"
                )
            records.append(
                CheckRecord(f"wheel n={n} i={i}", "rim-table composition", claimed, o, passed, detail)
            )
    return records


def _join_corrected(
    dom_g: tuple[int, ...], dom_h: tuple[int, ...], n1: int, n2: int, i: int
) -> int:
    one_sided = (dom_g[i - 1] if 1 <= i <= n1 else 0) + (dom_h[i - 1] if 1 <= i <= n2 else 0)
    cross = sum(_choose(n1, i1) * _choose(n2, i - i1) for i1 in range(1, i))
    return one_sided + cross


def _suite_join(max_n: int, random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for key, g, h in _join_instances(max_n, random_count, seed):
        tg = count_table(g, cap)
        th = count_table(h, cap)
        joined = join(g, h)
        actual = count_table(joined, cap)
        dom_g = dominating_counts(g, cap)
        dom_h = dominating_counts(h, cap)
        claimed_row = tuple(formulas.count_join(tg, th, i) for i in range(1, joined.order + 1))
        actual_row = actual.counts
        mismatches = []
        for i in range(1, joined.order + 1):
            if claimed_row[i - 1] != actual_row[i - 1]:
                corrected = _join_corrected(dom_g, dom_h, g.order, h.order, i)
                note = "matches" if corrected == actual_row[i - 1] else "still off"
                mismatches.append(
                    f"i={i}: stated {claimed_row[i - 1]}, exhaustive {actual_row[i - 1]}, "
                    f"dominating-set one-part terms give {corrected} ({note})"
                )
        records.append(
            CheckRecord(
                key,
                "join composition",
                str(claimed_row),
                str(actual_row),
                not mismatches,
                "; ".join(mismatches),
            )
        )
    return records


def _suite_corona_gamma(cap: int) -> list[CheckRecord]:
    bases = [
        ("P2", build_family("path", 2)),
        ("P3", build_family("path", 3)),
        ("C3", build_family("cycle", 3)),
        ("C4", build_family("cycle", 4)),
        ("K3", build_family("complete", 3)),
    ]
    hats = [
        ("K1", build_family("complete", 1)),
        ("K2", build_family("complete", 2)),
        ("P3", build_family("path", 3)),
    ]
    records = []
    for bl, bg in bases:
        for hl, hg in hats:
            claimed = formulas.gamma_w_corona(bg)
            o = gamma_w(corona(bg, hg), cap)
            records.append(
                CheckRecord(
                    f"corona({bl},{hl})", "base-order rule", claimed, o, claimed == o
                )
            )
    return records


def _suite_join_gamma(max_n: int, random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for key, g, h in _join_instances(max_n, random_count, seed):
        claimed = formulas.gamma_w_join(gamma(g, cap), gamma(h, cap))
        o = gamma_w(join(g, h), cap)
        records.append(
            CheckRecord(key, "dominating-vertex rule", claimed, o, claimed == o)
        )
    return records


def _suite_gamma_path_cycle(max_n: int, cap: int) -> list[CheckRecord]:
    records = []
    for n in range(1, max_n + 1):
        for fam, fn in (("path", formulas.gamma_w_path), ("cycle", formulas.gamma_w_cycle)):
            claimed = fn(n)
            o = gamma_w(build_family(fam, n), cap)
            records.append(
                CheckRecord(f"{fam} n={n}", f"half-order-{fam}", claimed, o, claimed == o)
            )
    return records


def _suite_extension_recurrence(random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for label, base in _extension_instances(random_count, seed):
        for root in range(1, base.order + 1):
            tabs = formulas.count_extension_table(RootedGraph(base, root, 6), cap)
            for k in range(2, 7):
                realized = realize_extension(RootedGraph(base, root, k))
                actual = count_table(realized, cap)
                row = tabs.row(k)
                cards = list(range(2, realized.order + 1))
                if base.order >= 2:
                    cards = [1] + cards
                mism = [
                    f"i={i}: recurrence {row.count(i)}, exhaustive {actual.count(i)}"
                    for i in cards
                    if row.count(i) != actual.count(i)
                ]
                records.append(
                    CheckRecord(
                        f"{label} root={root} m={k}",
                        "two-step recurrence",
                        str(row.counts),
                        str(actual.counts),
                        not mism,
                        "; ".join(mism),
                    )
                )
    return records


def _suite_extension_constructive(random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for label, base in _extension_instances(random_count, seed):
        for root in range(1, base.order + 1):
            for m in range(2, 7):
                rg = RootedGraph(base, root, m)
                realized = realize_extension(rg)
                if realized.order > 12:
                    continue
                cards = list(range(2, realized.order + 1))
                if base.order >= 2:
                    cards = [1] + cards
                built_total = 0
                truth_total = 0
                mism = []
                for i in cards:
                    truth = enumerate_wcds(realized, i, cap)
                    try:
                        built = formulas.build_extension_wcds(rg, i, cap)
                    except formulas.RecurrenceAssumptionError as exc:
                        mism.append(f"i={i}: construction refused ({exc})")
                        truth_total += len(truth)
                        continue
                    built_total += len(built)
                    truth_total += len(truth)
                    if built != truth:
                        if len(built) == len(truth):
                            extra = next(iter(set(built) - set(truth)), None)
                            mism.append(
                                f"i={i}: same count but different sets, "
                                f"e.g. construction includes {extra}"
                            )
                        else:
                            mism.append(
                                f"i={i}: construction yields {len(built)} sets, "
                                f"exhaustive {len(truth)}"
                            )
                records.append(
                    CheckRecord(
                        f"{label} root={root} m={m}",
                        "pendant-path construction",
                        built_total,
                        truth_total,
                        not mism,
                        "; ".join(mism),
                    )
                )
    return records


def _suite_extension_gamma(random_count: int, seed: int, cap: int) -> list[CheckRecord]:
    records = []
    for label, base in _extension_instances(random_count, seed):
        gw_base = gamma_w(base, cap)
        for root in range(1, base.order + 1):
            flag_w = has_minimum_wcds_containing(base, root, cap)
            flag_d = has_minimum_dominating_containing(base, root, cap)
            for m in range(2, 7):
                predicted_w = formulas.gamma_w_extension(gw_base, flag_w, m)
                predicted_d = formulas.gamma_w_extension(gw_base, flag_d, m)
                o = gamma_w(realize_extension(RootedGraph(base, root, m)), cap)
                records.append(
                    CheckRecord(
                        f"{label} root={root} m={m}",
                        "pendant shift formula",
                        predicted_w,
                        o,
                        predicted_w == o,
                        f"root in a minimum weakly connected dominating set: "
                        f"{flag_w} (predicts {predicted_w}); root in a minimum "
                        f"dominating set: {flag_d} (predicts {predicted_d})",
                    )
                )
    return records


def _suite_boxes(max_n: int, cap: int) -> list[CheckRecord]:
    records = []
    for n in range(1, max_n + 1):
        path_table = count_table(build_family("path", n), cap)
        for j in range(0, n + 1):
            brute = formulas.boxes_brute(n, j)
            closed = formulas.boxes_count(n, j)
            dw = path_table.count(j)
            passed = brute == closed == dw
            detail = (
                ""
                if passed
                else f"occupancy enumeration {brute}, binomial {closed}, path sets {dw}"
            )
            records.append(
                CheckRecord(
                    f"boxes n={n} j={j}", "occupancy identity", closed, dw, passed, detail
                )
            )
    return records


def verify_formula_suite(
    suite: str,
    *,
    max_n: int | None = None,
    random_count: int | None = None,
    seed: int = DEFAULT_SEED,
    cap: int = DEFAULT_CAP,
) -> VerificationReport:
    """Run one named identity suite and return its report.

    ``max_n`` bounds the instance size (order, leaf count, or wheel order
    depending on the suite; suite-specific default when omitted).
    ``random_count`` and ``seed`` control the randomized instance pools.
    """
    t0 = time.perf_counter()
    skipped = 0
    if suite == "complete":
        records = _suite_complete(max_n or 10, cap)
    elif suite == "star":
        records = _suite_star(max_n or 9, cap)
    elif suite == "wheel":
        records = _suite_wheel(max_n or 14, cap)
    elif suite == "join":
        records = _suite_join(max_n or 5, 20 if random_count is None else random_count, seed, cap)
    elif suite == "corona_gamma":
        records = _suite_corona_gamma(cap)
    elif suite == "join_gamma":
        records = _suite_join_gamma(max_n or 5, 20 if random_count is None else random_count, seed, cap)
    elif suite == "gamma_path_cycle":
        records = _suite_gamma_path_cycle(max_n or 20, cap)
    elif suite == "extension_recurrence":
        records = _suite_extension_recurrence(10 if random_count is None else random_count, seed, cap)
    elif suite == "extension_constructive":
        records = _suite_extension_constructive(10 if random_count is None else random_count, seed, cap)
    elif suite == "extension_gamma":
        records = _suite_extension_gamma(10 if random_count is None else random_count, seed, cap)
    elif suite == "boxes":
        records = _suite_boxes(max_n or 15, cap)
    elif suite == "edge_deletion_bounds":
        records, skipped = _suite_edge_deletion(max_n or 7)
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(FORMULA_SUITES)}")
    return _finish(suite, records, skipped, t0)


def table_by_method(g: Graph, method: str, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Full count row of g by one method: ``oracle`` (any graph),
    ``closed_form`` (paths, complete graphs, stars, wheels; wheels get
    their rim table wired in here), ``recurrence`` (paths). Family
    recognition uses construction metadata, so graphs read from edge
    lists only support ``oracle``."""
    n = g.order
    fam = g.family
    if method == "oracle":
        return count_table(g, cap).counts
    if method == "closed_form":
        if fam == "path":
            return tuple(formulas.count_path_closed(n, j) for j in range(1, n + 1))
        if fam == "complete":
            return tuple(formulas.count_complete(n, i) for i in range(1, n + 1))
        if fam == "star":
            leaves = g.family_n
            assert leaves is not None
            return tuple(formulas.count_star(leaves, i) for i in range(1, n + 1))
        if fam == "wheel":
            rim_table = count_table(build_family("cycle", n - 1), cap)
            return tuple(formulas.count_wheel(n, i, rim_table) for i in range(1, n + 1))
        raise UnsupportedMethodError(f"no closed form covers the full table of {g.label()}")
    if method == "recurrence":
        if fam != "path":
            raise UnsupportedMethodError(f"no recurrence covers {g.label()}")
        return formulas.count_path_recurrence(n).counts
    raise ValueError(f"unknown method {method!r}")


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
        if m not in ("oracle", "closed_form", "recurrence"):
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
