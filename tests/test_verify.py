import json
import os
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest

from wcds import (
    DEFAULT_CAP,
    DEFAULT_SEED,
    CapacityError,
    CheckRecord,
    RootedGraph,
    UnsupportedMethodError,
    build_family,
    count_extension_table,
    count_table,
    cross_check,
    gamma_w,
    is_connected,
    is_wcds,
    make_graph,
    table_by_method,
    verify_formula_suite,
    verify_structural,
    verify_path_table,
    verify_cycle_table,
)
from wcds import formulas, oracle, verify
from wcds.cli import run


def test_path_table_small():
    r = verify_path_table(6)
    assert r.all_passed()
    assert len(r.records) == 21
    assert r.suite == "path_table"


def test_cycle_table_small():
    r = verify_cycle_table(6)
    assert r.all_passed()
    # 21 reference cells, top cells for n = 4..6, no shift rows below n = 7
    assert len(r.records) == 21 + 3 + 3 + 4


def test_structural_small():
    r = verify_structural(4)
    assert r.all_passed()
    assert len(r.records) == 7


def test_all_graphs_suites_refuse_order_eight_before_building(monkeypatch, capsys):
    real = verify._dense_tables

    def guarded(k):
        # order 8 has 2**28 graphs, 2**36 plane bits to stream
        assert k < 8, f"_dense_tables({k}) reached"
        return real(k)

    monkeypatch.setattr(verify, "_dense_tables", guarded)
    # 2**28 graphs, a bit in each of 256 planes, 32 MiB of packed connectivity
    refusal = r"order 8 .* 268435456 labelled graphs: 68719476736 plane bits .* 33554432 bytes"
    with pytest.raises(CapacityError, match=refusal):
        verify_structural(8)
    with pytest.raises(CapacityError, match=refusal):
        verify_formula_suite("edge_deletion_bounds", max_n=8)
    for suite in ("structural", "edge_deletion_bounds"):
        assert run(["verify", "--suite", suite, "--max-n", "8"]) == 3
        assert capsys.readouterr().out == ""


def _bit(words, g):
    """Bit g of a packed plane."""
    return words[g >> 6] >> np.uint64(g & 63) & np.uint64(1) == 1


def _flag(planes, g, s):
    """Bit g of subset s's plane."""
    return _bit(planes[s], g)


def _planes(blocks):
    """Every subset's whole plane, from a stream of plane blocks."""
    return np.concatenate([flags.copy() for _, flags in blocks], axis=1)


def _planted(t, block, clear=(), plant=()):
    """The plane blocks of t with the flag of S in graph G cleared for each
    (G, S) in ``clear`` and set for each in ``plant``."""
    for j, flags in verify._plane_blocks(t, block):
        words = flags.shape[1]
        for pairs, value in ((clear, 0), (plant, 1)):
            for g, s in pairs:
                if (g >> 6) // words == j:
                    bit = np.uint64(1 << (g & 63))
                    w = (g >> 6) % words
                    flags[s, w] = flags[s, w] | bit if value else flags[s, w] & ~bit
        yield j, flags


def _blocks(t):
    """The block sizes a stream of t's planes is checked at: the whole
    planes as one block, and blocks small enough that the pairs from
    6 + log2(block) up select the block of a graph (at least one such pair
    from order 5 on)."""
    return len(t.conn), max(1, len(t.conn) >> 6)


def _sample_graphs(k):
    """Every edge mask of order k <= 5; at orders 6 and 7, where the suites
    run, the empty and complete graphs and 300 seeded edge masks."""
    n_graphs = 1 << k * (k - 1) // 2
    if k <= 5:
        return range(n_graphs)
    return [0, n_graphs - 1, *random.Random(k).sample(range(1, n_graphs - 1), 300)]


def test_connected_graph_counts_match_oeis_a001187():
    # connected labelled graphs on k nodes (Harary & Palmer, Graphical Enumeration)
    for k, connected in enumerate((1, 1, 4, 38, 728, 26704, 1866256), start=1):
        assert verify._popcount(verify._dense_tables(k).conn) == connected


def test_dense_tables_match_the_scalar_predicates():
    for k in range(1, 8):
        t = verify._dense_tables(k)
        assert t.pairs == tuple(combinations(range(k), 2))
        planes = _planes(verify._plane_blocks(t, _blocks(t)[1]))
        for g in _sample_graphs(k):
            graph = make_graph(k, [(u + 1, v + 1) for b, (u, v) in enumerate(t.pairs) if g >> b & 1])
            connected = is_connected(graph)
            assert _bit(t.conn, g) == connected
            assert not _flag(planes, g, 0)
            flagged = []
            for s in range(1, 1 << k):
                members = [v + 1 for v in range(k) if s >> v & 1]
                assert _flag(planes, g, s) == is_wcds(graph, members), (k, g, s)
                if _flag(planes, g, s):
                    flagged.append(len(members))
            # the least flagged size is gamma_w; a disconnected graph has no flag
            assert min(flagged, default=None) == (gamma_w(graph) if connected else None)


def test_checks_do_not_depend_on_the_block_size():
    for k in range(1, 8):
        t = verify._dense_tables(k)
        one, small = _blocks(t)
        # pairs from 6 + log2(small) up pick a block
        assert k < 5 or small.bit_length() + 5 < len(t.pairs)
        assert np.array_equal(_planes(verify._plane_blocks(t, one)), _planes(verify._plane_blocks(t, small)))
        assert verify._violations(t, verify._plane_blocks(t, one)) == verify._violations(
            t, verify._plane_blocks(t, small)
        )
        within = verify._within(t, verify._plane_blocks(t, one))
        assert np.array_equal(within, verify._within(t, verify._plane_blocks(t, small)))
        # within[g]: the graphs with gamma_w <= g
        assert verify._popcount(within[k]) == verify._popcount(t.conn)
        assert verify._popcount(within[0]) == 0
        if k >= 2:
            assert verify._deletion_counts(t, verify._plane_blocks(t, one)) == verify._deletion_counts(
                t, verify._plane_blocks(t, small)
            )


def test_blocks_without_violations_are_not_counted_one_by_one(monkeypatch):
    # the whole-block test must pass every block of the real planes, or
    # the one-by-one count would run on all of them
    def refuse(t, j, flags):
        raise AssertionError(f"block {j} of order {t.order} counted one by one")

    monkeypatch.setattr(verify, "_count_violations", refuse)
    for k in range(1, 8):
        t = verify._dense_tables(k)
        for block in _blocks(t):
            assert verify._violations(t, verify._plane_blocks(t, block)) == (0, 0)


def _scalar_violations(t, planes, graphs):
    """Per-(S, v) recount of the closure and domination violations on the
    given graphs, reading neighbours from the pairs."""
    closure = domination = 0
    for g in graphs:
        if not _bit(t.conn, g):
            continue
        adj = [0] * t.order
        for b, (u, v) in enumerate(t.pairs):
            if g >> b & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for s in range(1, 1 << t.order):
            if not _flag(planes, g, s):
                continue
            outside = [v for v in range(t.order) if not s >> v & 1]
            closure += sum(not _flag(planes, g, s | 1 << v) for v in outside)
            domination += any(not adj[v] & s for v in outside)
    return closure, domination


def _edge_mask(t, edges):
    return sum(1 << t.pairs.index(e) for e in edges)


def test_packed_checks_count_planted_violations():
    t = verify._dense_tables(4)
    assert verify._violations(t, verify._plane_blocks(t)) == (0, 0)
    complete = _edge_mask(t, t.pairs)
    path = _edge_mask(t, [(0, 1), (1, 2), (2, 3)])
    # {0, 1} stops being a WCDS of K4; {0}, which misses vertex 3, becomes one of P4
    planted = partial(_planted, t, 1, clear=[(complete, 0b0011)], plant=[(path, 0b0001)])
    counts = verify._violations(t, planted())
    assert counts == _scalar_violations(t, _planes(planted()), range(1 << len(t.pairs)))
    assert counts[0] > 0 and counts[1] > 0


def test_packed_checks_count_violations_on_projected_planes():
    # the planes of {2, 3, 4} (outside it (0, 1), pair 0, and (5, 6), pair 20)
    # and of {1, 3, 4} (outside it (0, 2), pair 1, and (2, 5), pair 13) are
    # projected along pairs below 6, inside each 64-bit word, and 6 or above,
    # by whole words or, at the small block size, by picking a block
    t = verify._dense_tables(7)
    complete = _edge_mask(t, t.pairs)
    path = _edge_mask(t, [(v, v + 1) for v in range(6)])
    k7, p7 = make_graph(7, [(u + 1, v + 1) for u, v in t.pairs]), build_family("path", 7)
    for block in (verify._BLOCK, *_blocks(t)):
        assert verify._violations(t, verify._plane_blocks(t, block)) == (0, 0)
        # both graphs lie past the first block, if there are several
        assert block == len(t.conn) or min(complete, path) >> 6 >= block
        planes = _planes(verify._plane_blocks(t, block))
        assert _flag(planes, complete, 0b0011100) and is_wcds(k7, [3, 4, 5])
        assert not _flag(planes, path, 0b0011010) and not is_wcds(p7, [2, 4, 5])
        # {2, 3, 4} leaves K7's family while its supersets stay; {1, 3, 4},
        # which misses the top vertex 6 alone, joins the family of P7
        planted = partial(_planted, t, block, clear=[(complete, 0b0011100)], plant=[(path, 0b0011010)])
        # all violations sit in the two planted graphs
        counts = verify._violations(t, planted())
        assert counts == _scalar_violations(t, _planes(planted()), [complete, path])
        assert counts[0] > 0 and counts[1] > 0


def test_domination_check_finds_violations_that_keep_the_closure():
    # every superset of {0, ..., k - 4} joins the family of P_k: the family
    # stays upward closed, so only the domination test can see the sets
    # that leave k - 2 or k - 1 undominated. Each of those two has a high
    # pair to a vertex of V - N[v] at the small block size.
    for k in (6, 7):
        t = verify._dense_tables(k)
        path = _edge_mask(t, [(v, v + 1) for v in range(k - 1)])
        head = (1 << (k - 3)) - 1
        supersets = [(path, s) for s in range(1 << k) if s & head == head]
        for block in _blocks(t):
            assert block == len(t.conn) or path >> 6 >= block
            planted = partial(_planted, t, block, plant=supersets)
            counts = verify._violations(t, planted())
            assert counts == _scalar_violations(t, _planes(planted()), [path])
            assert counts[0] == 0 and counts[1] > 0


def _scalar_deletion_counts(t, planes):
    """Per-pair recount of the deletion window from the least flagged size
    of each graph (no flag: disconnected)."""
    n_graphs = 1 << len(t.pairs)
    flags = np.unpackbits(planes.view(np.uint8), axis=1, count=n_graphs, bitorder="little").astype(bool)
    sizes = np.bitwise_count(np.arange(1 << t.order))[:, None]
    least = np.where(flags, sizes, t.order + 1).min(axis=0).tolist()
    bad = checked = skipped = 0
    for b in range(len(t.pairs)):
        for g in range(n_graphs):
            if not g >> b & 1 or least[g] > t.order:
                continue
            deleted = least[g ^ 1 << b]
            if deleted > t.order:
                skipped += 1
                continue
            checked += 1
            bad += not least[g] <= deleted <= least[g] + 1
    return bad, checked, skipped


def test_deletion_counts_match_a_scalar_recount_on_planted_flags():
    t = verify._dense_tables(6)
    cycle = _edge_mask(t, [(v, v + 1) for v in range(5)] + [(0, 5)])
    chorded_star = _edge_mask(t, [(0, v) for v in range(1, 6)] + [(1, 3)])
    pendant_square = _edge_mask(t, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 5), (2, 4)])
    assert gamma_w(build_family("cycle", 6)) == 3
    for block in _blocks(t):
        counts = verify._deletion_counts(t, verify._plane_blocks(t, block))
        assert counts == _scalar_deletion_counts(t, _planes(verify._plane_blocks(t, block)))
        assert counts[0] == 0 and counts[1] > 0 and counts[2] > 0
        # {0} becomes a WCDS of C6, whose edge deletions (pairs 0, 4 and 5
        # below 6, pairs 9, 12 and 14 above, which at the small block size
        # select C6's block) leave paths of gamma_w 3: a rise of 2
        assert block == len(t.conn) or cycle >> 6 >= block and 5 + block.bit_length() <= 9
        rise = partial(_planted, t, block, plant=[(cycle, 0b000001)])
        counts = verify._deletion_counts(t, rise())
        assert counts == _scalar_deletion_counts(t, _planes(rise()))
        assert counts[0] > 0
        # {0}, the one minimum of the star plus (1, 3), and {0, 2}, the one
        # minimum of the square 0123 with pendants 5 on 0 and 4 on 2, leave
        # their families: deleting (1, 3) (pair 6) drops gamma_w from 2 to 1,
        # deleting (0, 1) (pair 0) from 3 to 2
        drop = partial(_planted, t, block, clear=[(chorded_star, 0b000001), (pendant_square, 0b000101)])
        counts = verify._deletion_counts(t, drop())
        assert counts == _scalar_deletion_counts(t, _planes(drop()))
        assert counts[0] > 0


def test_dense_tables_and_checks_peak_under_5_mb():
    # 256 KiB of packed order-7 connectivity are kept; a block's planes
    # (1 MiB), the closure test's copy of them and the 2 MiB of cumulative
    # planes of the deletion check are the working arrays
    tracemalloc.start()
    try:
        t = verify._dense_tables.__wrapped__(7)
        verify._violations(t, verify._plane_blocks(t))
        verify._deletion_counts(t, verify._plane_blocks(t))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**6


# runs one wcds command in this interpreter, then prints its peak RSS in kB
_PEAK = (
    "import sys; from wcds.cli import run; run(sys.argv[1:]); "
    "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_all_graphs_suites_peak_within_10_mib_of_a_small_suite():
    src = str(Path(verify.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def peak_kib(suite):
        argv = [sys.executable, "-c", _PEAK, "verify", "--suite", suite]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        return int(proc.stdout.splitlines()[-1])

    small = peak_kib("path_table")
    for suite in ("structural", "edge_deletion_bounds"):
        assert peak_kib(suite) - small < 10 * 1024, suite


def test_complete_suite_small():
    r = verify_formula_suite("complete", max_n=5)
    assert r.all_passed()
    assert len(r.records) == 15


def test_wheel_suite_flags_mismatches_with_diagnosis():
    r = verify_formula_suite("wheel", max_n=7)
    assert not r.all_passed()
    for rec in r.failing():
        assert "matches exhaustive" in rec.detail


def test_join_suite_is_reproducible():
    a = verify_formula_suite("join", max_n=3, random_count=2, seed=11)
    b = verify_formula_suite("join", max_n=3, random_count=2, seed=11)
    assert a.records == b.records
    c = verify_formula_suite("join", max_n=3, random_count=2, seed=12)
    assert a.records != c.records


def _join_peak(random_count):
    tracemalloc.start()
    try:
        verify_formula_suite("join", max_n=8, random_count=random_count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_join_suite_memory_follows_the_window_not_the_pool():
    # joins up to order 16, 256 instances a window: about 4 MiB of kernel
    # buffers and window; ten times the pool adds only its records (the
    # count cache that held every join's row grew by 1.7 MiB here)
    small, large = _join_peak(30), _join_peak(300)
    assert large < 5 * 2**20
    assert large - small < 2**20


def test_join_gamma_stays_layered_at_order_twenty_four(monkeypatch):
    # the joins have gamma_w at most 2, so the weak kernel sees layers 1
    # and 2 alone, never a sweep of 2**24 masks
    seen = []
    real = oracle._weak_ok
    monkeypatch.setattr(oracle, "_weak_ok", lambda adj, masks: seen.append(masks) or real(adj, masks))
    r = verify_formula_suite("join_gamma", max_n=12, random_count=100)
    assert len(r.records) == 31 * 31 + 100 and r.all_passed()
    assert max(masks.size for masks in seen) <= 2**16
    assert {int(k) for masks in seen for k in np.unique(np.bitwise_count(masks))} <= {1, 2}
    assert sum(masks.size for masks in seen) < 10**6


def test_random_pools_are_drawn_lazily():
    tracemalloc.start()
    try:
        joins = list(islice(verify._join_instances(5, 10**5, 1), 125))  # 100 named pairs, 25 random
        first_random_base = next(key for key, _, _ in verify._extension_instances(10**5, 1) if key.startswith("random"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert joins[-1][0] == "random25"
    assert first_random_base == "random1 root=1 m=2"
    assert peak < 2 * 2**20


def test_extension_recurrence_tallies_its_rows_from_the_stacked_hits(monkeypatch, sweep_calls):
    def no_count_table(*args, **kwargs):
        raise AssertionError("count_table called")

    with monkeypatch.context() as m:
        m.setattr(verify, "count_table", no_count_table)
        m.setattr(formulas, "count_table", no_count_table)
        report = verify_formula_suite("extension_recurrence")
    assert sweep_calls == []
    # each claimed row is the last row of the public extension table
    instances = verify._extension_instances(verify.SUITES["extension_recurrence"].random_count, DEFAULT_SEED)
    for r, (key, rg, _) in zip(report.records, instances, strict=True):
        assert r.key == key and r.claimed_value == str(count_extension_table(rg)[-1].counts), key


def test_extension_suites_sweep_a_window_before_drawing_more(monkeypatch):
    drawn = []
    real = verify._extension_instances

    def spy(random_count, seed):
        for instance in real(random_count, seed):
            drawn.append(instance)
            yield instance

    class FirstSweep(Exception):
        pass

    def first_sweep(*args, **kwargs):
        raise FirstSweep(len(drawn))

    monkeypatch.setattr(verify, "_extension_instances", spy)
    monkeypatch.setattr(verify, "sweep_stack", first_sweep)
    for suite in ("extension_recurrence", "extension_constructive", "extension_gamma"):
        drawn.clear()
        # the largest pool, 1000 random bases, holds over 10**4 instances
        with pytest.raises(FirstSweep) as first:
            verify_formula_suite(suite, random_count=verify.SUITES[suite].random_max)
        assert 0 < first.value.args[0] <= verify._WINDOW


# G(m) of the 3-path rooted at an end is a path; its 3-sets at m = 2, with
# the path 3-2-1-4-5, are these six
_P3_END = RootedGraph(build_family("path", 3), 1, 2)
_P5_TRIPLES = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5)]


def _masks(sets):
    return np.array(sorted(sum(1 << (v - 1) for v in s) for s in sets), dtype=np.uint32)


def _constructive_records(monkeypatch, plant):
    """The constructive suite's records for the 3-path rooted at vertex 1,
    with ``plant(rg, hits0, hits1, real)`` in place of the construction
    ``real`` there: the walk over the prefixes of that one chain."""
    real = formulas._pendant_families

    def planted(rg, hits0, hits1):
        return plant(rg, hits0, hits1, real) if rg.base == _P3_END.base and rg.root == 1 else real(rg, hits0, hits1)

    monkeypatch.setattr(formulas, "_pendant_families", planted)
    records = verify._suite_extension_constructive(random_count=0, seed=DEFAULT_SEED, cap=DEFAULT_CAP)
    return {r.key: r for r in records if r.key.startswith("P3 root=1 ")}


def _triples_at_prefix(walk, m, triples):
    """The prefixes of ``walk`` with the 3-sets of G(m) replaced by ``triples``."""
    for k, (family, refused) in enumerate(walk):
        if k == m:
            family = np.sort(np.concatenate((family[np.bitwise_count(family) != 3], _masks(triples))))
        yield family, refused


def test_constructive_suite_details_a_dropped_and_a_swapped_set(monkeypatch):
    assert formulas.build_extension_wcds(_P3_END, 3) == _P5_TRIPLES

    def dropped(rg, hits0, hits1, real):
        return _triples_at_prefix(real(rg, hits0, hits1), _P3_END.extension_length, _P5_TRIPLES[1:])

    records = _constructive_records(monkeypatch, dropped)
    bad = records.pop("P3 root=1 m=2")
    assert (bad.passed, bad.claimed_value, bad.oracle_value) == (False, 12, 13)
    assert bad.detail == "i=3: construction yields 5 sets, exhaustive 6"
    assert all(r.passed for r in records.values())

    def swapped(rg, hits0, hits1, real):
        # (1, 4, 5) is the smaller tuple, (2, 3, 5) the smaller mask
        triples = _P5_TRIPLES[:4] + [(1, 4, 5), (2, 3, 5)]
        return _triples_at_prefix(real(rg, hits0, hits1), _P3_END.extension_length, triples)

    bad = _constructive_records(monkeypatch, swapped)["P3 root=1 m=2"]
    assert (bad.passed, bad.claimed_value, bad.oracle_value) == (False, 13, 13)
    assert bad.detail == "i=3: same count but different sets, e.g. construction includes (1, 4, 5)"


def test_constructive_suite_reports_a_refusal_where_the_sets_agree(monkeypatch):
    # a refusal at G(2)'s cardinality 3 fails the record even though the
    # built family still equals the swept one
    error = formulas.RecurrenceAssumptionError("planted")

    def refuse(rg, hits0, hits1, real):
        for k, (family, refused) in enumerate(real(rg, hits0, hits1)):
            yield family, {**refused, 3: error} if k == _P3_END.extension_length else refused

    records = _constructive_records(monkeypatch, refuse)
    bad = records.pop("P3 root=1 m=2")
    assert (bad.passed, bad.claimed_value, bad.oracle_value) == (False, 13 - 6, 13)
    assert bad.detail == "i=3: construction refused (planted)"
    assert all(r.passed for r in records.values())


def test_constructive_suite_refuses_every_cardinality_that_reaches_a_failed_step(monkeypatch):
    # without the 2-sets of G(0) = P3, step (k, j) = (2, 3) lifts the three
    # 2-sets of G(1) but finds no shorter-prefix family inside the size bound
    def without_pairs(rg, hits0, hits1, real):
        return real(rg, hits0[np.bitwise_count(hits0) != 2], hits1)

    records = _constructive_records(monkeypatch, without_pairs)
    reason = (
        "construction refused (at prefix 2, cardinality 3: the longer-prefix family is non-empty "
        "while the shorter one is empty within size bounds; the case analysis assumes this cannot happen)"
    )

    def reaches(k, j):  # the recursion from (k, j) meets (2, 3)
        if k < 2 or not 1 <= j <= 3 + k:
            return False
        return (k, j) == (2, 3) or reaches(k - 1, j - 1) or reaches(k - 2, j - 1)

    for m in range(2, 7):
        r = records[f"P3 root=1 m={m}"]
        refused = [i for i in range(1, 4 + m) if reaches(m, i)]
        assert refused and not r.passed
        assert r.detail == "; ".join(f"i={i}: {reason}" for i in refused)
        row = count_table(build_family("path", 3 + m)).counts  # G(m) is a path
        assert (r.claimed_value, r.oracle_value) == (sum(row) - sum(row[i - 1] for i in refused), sum(row))


def test_boxes_suite_reports_the_lone_clash():
    r = verify_formula_suite("boxes", max_n=3)
    assert r.failures == 1
    assert r.failing()[0].key == "boxes n=1 j=0"


def test_edge_deletion_suite_counts_skips():
    r = verify_formula_suite("edge_deletion_bounds", max_n=4)
    assert r.all_passed()
    assert r.skipped > 0
    assert "disconnecting deletions skipped" in r.records[-1].detail


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_formula_suite("nonsense")


def test_runner_resolves_defaults_and_refuses_sizes_a_suite_never_reads(monkeypatch):
    specs = dict(verify.SUITES)
    calls = []

    def build(**kwargs):
        calls.append(kwargs)
        return [CheckRecord("k", "s", 0, 0, True)]

    monkeypatch.setattr(verify, "SUITES", {name: spec._replace(build=build) for name, spec in specs.items()})
    for name, spec in specs.items():
        verify_formula_suite(name, seed=5)  # every suite takes a seed
        assert calls.pop() == {"max_n": spec.max_n, "random_count": spec.random_count, "seed": 5, "cap": DEFAULT_CAP}
        if spec.max_n is None:
            with pytest.raises(ValueError, match=f"suite {name} takes no max_n"):
                verify_formula_suite(name, max_n=5)
        if spec.random_count is None:
            with pytest.raises(ValueError, match=f"suite {name} takes no random_count"):
                verify_formula_suite(name, random_count=0)
        else:
            verify_formula_suite(name, random_count=0)
            assert calls.pop()["random_count"] == 0
            with pytest.raises(ValueError, match=f"random_count must be at least 0 for suite {name}, got -1"):
                verify_formula_suite(name, random_count=-1)
    assert calls == []


@pytest.mark.parametrize("suite", [name for name, spec in verify.SUITES.items() if spec.min_n is not None])
def test_least_size_is_the_smallest_that_yields_a_record(suite):
    spec = verify.SUITES[suite]
    assert verify_formula_suite(suite, max_n=spec.min_n, random_count=0 if spec.random_count else None).records
    below = spec.build(max_n=spec.min_n - 1, random_count=0, seed=DEFAULT_SEED, cap=DEFAULT_CAP)
    assert (below[0] if isinstance(below, tuple) else below) == []
    with pytest.raises(ValueError, match=f"max_n must be at least {spec.min_n} for suite {suite}"):
        verify_formula_suite(suite, max_n=spec.min_n - 1)


@pytest.mark.parametrize("suite", [name for name, spec in verify.SUITES.items() if spec.largest_order is not None])
def test_largest_order_is_the_order_the_suite_sweeps(suite):
    spec = verify.SUITES[suite]
    sizes = {"max_n": spec.min_n, "random_count": 0 if spec.random_count is not None else None, "seed": DEFAULT_SEED}
    order = spec.largest_order(spec.min_n)
    assert spec.build(**sizes, cap=order)
    with pytest.raises(CapacityError, match=f"order {order} exceeds the subset-sweep cap {order - 1}"):
        spec.build(**sizes, cap=order - 1)


def test_cross_check_path_three_ways():
    r = cross_check(build_family("path", 6), ("oracle", "formula", "recurrence"))
    assert r.all_passed()
    assert len(r.records) == 6


def test_cross_check_cycle_oracle_row():
    r = cross_check(build_family("cycle", 7), ("oracle",))
    assert [rec.oracle_value for rec in r.records] == [0, 0, 7, 28, 21, 7, 1]


def test_cross_check_rejects_unrecognized_family():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    with pytest.raises(UnsupportedMethodError):
        cross_check(g, ("oracle", "formula"))
    with pytest.raises(UnsupportedMethodError):
        table_by_method(build_family("cycle", 5), "recurrence")


def test_table_by_method_wheel_wires_its_own_rim():
    row = table_by_method(build_family("wheel", 5), "formula")
    assert row == (1, 10, 10, 5, 1)


def test_report_serializations():
    r = verify_formula_suite("complete", max_n=3)
    payload = json.loads(r.to_json())
    assert payload["suite"] == "complete"
    assert payload["failures"] == 0
    assert "wall_time_s" not in payload
    csv_text = r.to_csv()
    assert csv_text.splitlines()[0] == "key,source,claimed,exhaustive,passed,detail"
    assert len(csv_text.splitlines()) == len(r.records) + 1
    assert "All checks passed." in r.to_markdown()


def test_markdown_shows_failing_rows():
    r = verify_formula_suite("boxes", max_n=1)
    assert "| boxes n=1 j=0 |" in r.to_markdown()


def test_cross_check_refuses_an_unknown_method_before_any_sweep(sweep_calls):
    with pytest.raises(ValueError, match="unknown method 'closed_form'"):
        cross_check(build_family("path", 6), ("oracle", "closed_form"))
    assert sweep_calls == []
