import json
import os
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from itertools import combinations, islice, permutations
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


def test_all_graphs_suites_refuse_orders_above_their_tables_before_building(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_dense_tables", partial(pytest.fail, "_dense_tables reached"))
    # both suites read packed connectivity a slice at a time, but build it
    # whole: 2**36 graphs at order 9, 2**33 bytes
    refusal = r"order 9 .* 68719476736 labelled graphs: 8589934592 bytes of packed connectivity; the limit is order 8$"
    with pytest.raises(CapacityError, match=refusal):
        verify_formula_suite("edge_deletion_bounds", max_n=9)
    with pytest.raises(CapacityError, match=refusal):
        verify_structural(9)
    for suite in ("structural", "edge_deletion_bounds"):
        assert run(["verify", "--suite", suite, "--max-n", "9"]) == 3
        assert capsys.readouterr().out == ""


def _bit(words, g):
    """Bit g of a packed plane."""
    return words[g >> 6] >> np.uint64(g & 63) & np.uint64(1) == 1


def _flag(planes, g, s):
    """Bit g of subset s's plane."""
    return _bit(planes[s], g)


def _planes(t):
    """Every subset's whole plane, each ``_plane`` view broadcast back onto
    conn's words; the empty set's row is 0, as it dominates no graph."""
    planes = np.zeros((1 << t.order, t.conn.size), dtype=np.uint64)
    for s in range(1, 1 << t.order):
        planes[s].reshape(verify._words(t).shape)[...] = verify._plane(t, s)
    return planes


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
    # order 8 from order 7's table, uncached: 32 MiB, freed with the test.
    # The build adds order 7's unpacked flags and a byte column of 2 MiB each
    tracemalloc.start()
    try:
        t = verify._dense_tables.__wrapped__(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    assert verify._popcount(t.conn) == 251548592
    assert all(np.shares_memory(verify._plane(t, (1 << s) - 1), t.conn) for s in range(1, 9))
    assert verify._canonical_violations(t) == (0, 0)


def test_dense_tables_match_the_scalar_predicates():
    for k in range(1, 8):
        t = verify._dense_tables(k)
        assert t.pairs == tuple(combinations(range(k), 2))
        planes = _planes(t)
        for g in _sample_graphs(k):
            graph = make_graph(k, [(u + 1, v + 1) for b, (u, v) in enumerate(t.pairs) if g >> b & 1])
            connected = is_connected(graph)
            assert _bit(t.conn, g) == connected
            flagged = []
            for s in range(1, 1 << k):
                members = [v + 1 for v in range(k) if s >> v & 1]
                assert _flag(planes, g, s) == is_wcds(graph, members), (k, g, s)
                if _flag(planes, g, s):
                    flagged.append(len(members))
            # the least flagged size is gamma_w; a disconnected graph has no flag
            assert min(flagged, default=None) == (gamma_w(graph) if connected else None)
        # within[g] holds the graphs with gamma_w <= g: none at g = 0, and
        # the connected graphs at g = k
        within = verify._within(t)
        assert not within[0].any()
        assert np.array_equal(within[k], t.conn)


def test_cumulative_planes_are_the_or_of_the_planes_of_each_size():
    # the planes that test_dense_tables_match_the_scalar_predicates checks
    for k in range(1, 8):
        t = verify._dense_tables(k)
        planes, within = _planes(t), verify._within(t)
        sizes = np.bitwise_count(np.arange(1 << k))
        for g in range(k + 1):
            assert np.array_equal(within[g], np.bitwise_or.reduce(planes[sizes <= g], axis=0)), (k, g)


def test_cumulative_rows_hold_the_gamma_w_distribution(monkeypatch):
    # every plane lies inside conn, as adding pairs keeps a graph connected:
    # the premise of the stop in _within
    for k in range(1, 8):
        t = verify._dense_tables(k)
        assert not any((verify._plane(t, s) & ~verify._words(t)).any() for s in range(1, 1 << k)), k
    # the graphs with gamma_w = g are those in within[g] and not in
    # within[g - 1], summed over the slices
    for k in range(1, 7):
        t = verify._dense_tables(k)
        flags = np.unpackbits(t.conn.view(np.uint8), count=1 << len(t.pairs), bitorder="little")
        edges = [[(u + 1, v + 1) for b, (u, v) in enumerate(t.pairs) if g >> b & 1] for g in np.flatnonzero(flags)]
        gammas = oracle.gamma_w_stack(make_graph(k, e) for e in edges)
        expected = [gammas.count(g) for g in range(1, k + 1)]
        assert sum(expected) == (1, 1, 4, 38, 728, 26704)[k - 1]
        for slices in (1, 4):
            rows = np.zeros(k, dtype=np.int64)
            monkeypatch.setattr(verify, "_SLICE_BYTES", t.conn.nbytes // slices)
            for cut in verify._slices(t):
                within = verify._within(t, cut)
                rows += [verify._popcount(within[g] & ~within[g - 1]) for g in range(1, k + 1)]
            assert rows.tolist() == expected, (k, slices)


def test_prefix_planes_are_views_of_conn():
    # the plane of {0, ..., s - 1} fixes the axes of the pairs inside
    # {s, ..., k - 1}, the last pairs: it is copied only when one of them is
    # below 6, a bit inside each word. At order 8 none is, so the structural
    # suite copies no plane there (see the order-8 test above)
    for k in range(1, 8):
        t = verify._dense_tables(k)
        for s in range(1, k + 1):
            inside = [t.pairs.index(p) for p in combinations(range(s, k), 2)]
            shared = np.shares_memory(verify._plane(t, (1 << s) - 1), t.conn)
            assert shared == all(b >= 6 for b in inside), (k, s)


def _with_conn(t, keep):
    """t with its connectivity replaced by ``keep(edges, connected)``, a
    property of each graph's edge count and connectivity, which
    relabelling keeps."""
    n_graphs = 1 << len(t.pairs)
    connected = np.unpackbits(t.conn.view(np.uint8), count=n_graphs, bitorder="little").astype(bool)
    conn = np.zeros_like(t.conn)
    flags = keep(np.bitwise_count(np.arange(n_graphs)), connected)
    conn.view(np.uint8)[: -(-n_graphs // 8)] = np.packbits(flags, bitorder="little")
    return verify._DenseTables(t.order, t.pairs, conn)


def _unpacked(t, planes):
    """Every subset's plane as a row of booleans, one a graph."""
    return np.unpackbits(planes.view(np.uint8), axis=1, count=1 << len(t.pairs), bitorder="little").astype(bool)


def _scalar_violations(t, planes):
    """Per-(S, v) recount of the closure and domination violations over
    every graph, from the whole planes and each graph's pairs."""
    flags = _unpacked(t, planes)
    graphs = np.arange(flags.shape[1])
    closure = domination = 0
    for s in range(1, 1 << t.order):
        outside = [v for v in range(t.order) if not s >> v & 1]
        closure += sum(int((flags[s] & ~flags[s | 1 << v]).sum()) for v in outside)
        # v is undominated where none of its pairs to S is in the graph
        lonely = np.zeros_like(flags[s])
        for v in outside:
            to_s = sum(1 << t.pairs.index((min(u, v), max(u, v))) for u in range(t.order) if s >> u & 1)
            lonely |= graphs & to_s == 0
        domination += int((flags[s] & lonely).sum())
    return closure, domination


def test_packed_checks_count_planted_violations():
    # the real tables have no violation; two properties of the edge count,
    # and connectivity without the 60 labelled copies of C6, planted as
    # connectivity have many, alike by both routes: the canonical subsets,
    # and every subset's projected plane
    for k in range(1, 7):
        t = verify._dense_tables(k)
        assert verify._canonical_violations(t) == (0, 0) == _scalar_violations(t, _planes(t))
        mod_3, even = _with_conn(t, lambda e, c: e % 3 == 0), _with_conn(t, lambda e, c: (e >= k - 1) & (e % 2 == 0))
        for planted in (mod_3, even):
            counts = verify._canonical_violations(planted)
            assert counts == _scalar_violations(planted, _planes(planted)), k
            assert k < 5 or counts[0] > 0 and counts[1] > 0
        assert k < 3 or min(verify._canonical_violations(mod_3)) > 0
    no_c6 = _without_copies_of_c6(verify._dense_tables(6))
    counts = verify._canonical_violations(no_c6)
    assert counts == _scalar_violations(no_c6, _planes(no_c6))
    assert counts[0] > 0
    # the mod-3 property at order 7
    assert verify._canonical_violations(_with_conn(verify._dense_tables(7), lambda e, c: e % 3 == 0)) == (
        213483606,
        31454220,
    )


def test_domination_check_finds_violations_that_keep_the_closure():
    # at least k - 1 edges, planted as connectivity, is kept by adding
    # edges: every superset of a flagged set is flagged, and only the
    # domination check sees the sets that leave a vertex alone
    for k in range(4, 7):
        planted = _with_conn(verify._dense_tables(k), lambda e, c: e >= k - 1)
        counts = verify._canonical_violations(planted)
        assert counts == _scalar_violations(planted, _planes(planted))
        assert counts[0] == 0 and counts[1] > 0


def _scalar_deletion_counts(t, planes):
    """Per-pair recount of the deletion window from the least flagged size
    of each graph (no flag: disconnected): (bad, checked, skipped) of each
    pair."""
    flags = _unpacked(t, planes)
    sizes = np.bitwise_count(np.arange(1 << t.order))[:, None]
    least = np.where(flags, sizes, t.order + 1).min(axis=0)
    graphs = np.arange(flags.shape[1])
    counts = []
    for b in range(len(t.pairs)):
        g = graphs[(graphs >> b & 1 == 1) & (least <= t.order)]
        deleted, kept = least[g ^ 1 << b], least[g]
        within = deleted <= t.order
        bad = within & ((deleted < kept) | (deleted > kept + 1))
        counts.append((int(bad.sum()), int(within.sum()), int((~within).sum())))
    return counts


def _without_copies_of_c6(t):
    """Order 6's tables with the 60 labelled copies of C6 planted as
    disconnected."""
    pairs = list(combinations(range(6), 2))
    copies = {sum(1 << pairs.index(tuple(sorted((p[i - 1], p[i])))) for i in range(6)) for p in permutations(range(6))}
    assert len(copies) == 60
    not_c6 = np.ones(1 << len(pairs), dtype=bool)
    not_c6[list(copies)] = False
    return _with_conn(t, lambda e, c: c & not_c6)


def test_deletion_counts_match_a_scalar_recount_on_planted_flags():
    for k in range(2, 7):
        t = verify._dense_tables(k)
        mod_3 = _with_conn(t, lambda e, c: e % 3 == 0)
        plants = [t, mod_3] + ([_with_conn(t, lambda e, c: c & (e % 3 != 0))] if k == 6 else [])
        for planted in plants:
            # each pair's window counts are the same, as relabelling maps any
            # pair onto any other, so the top pair's times the pairs is the total
            per_pair = _scalar_deletion_counts(planted, _planes(planted))
            assert len(set(per_pair)) == 1, (k, per_pair)
            counts = verify._deletion_counts(planted)
            assert counts == tuple(len(t.pairs) * x for x in per_pair[-1])
            # the planted properties break the window from order 4 on
            assert (counts[0] > 0) == (planted is not t and k >= 4)


def _plants(k):
    """Order k's tables and every planted table of this module at order k,
    by name."""
    t = verify._dense_tables(k)
    plants = {
        "real": t,
        "mod_3": _with_conn(t, lambda e, c: e % 3 == 0),
        "even": _with_conn(t, lambda e, c: (e >= k - 1) & (e % 2 == 0)),
        "min_edges": _with_conn(t, lambda e, c: e >= k - 1),
        "not_mod_3": _with_conn(t, lambda e, c: c & (e % 3 != 0)),
    }
    if k == 6:
        plants["no_c6"] = _without_copies_of_c6(t)
    return plants


# (closure, domination) and (bad, checked, skipped) of order 7's plants as
# the checks count them over whole planes; no scalar recount runs there
_ORDER_7 = {
    "real": ((0, 0), (0, 18926544, 1338288)),
    "mod_3": ((213483606, 31454220), (895965, 22020096, 0)),
    "even": ((177306192, 27662411), (59577, 21564396, 325584)),
    "min_edges": ((0, 46045692), (0, 21564396, 325584)),
    "not_mod_3": ((105589512, 0), (33180, 18674439, 1489551)),
}


def test_checks_do_not_depend_on_the_slice_count(monkeypatch):
    for k in range(1, 8):
        for name, t in _plants(k).items():
            if k < 7:
                planes = _planes(t)
                per_pair = _scalar_deletion_counts(t, planes)[-1] if k >= 2 else None
                expected = _scalar_violations(t, planes), per_pair and tuple(len(t.pairs) * x for x in per_pair)
            else:
                expected = _ORDER_7[name]
            for slices in (1, 2, 4, 8):
                monkeypatch.setattr(verify, "_SLICE_BYTES", t.conn.nbytes // slices)
                # only the axes of the pairs from 6 on below the top pair are cut
                assert len(list(verify._slices(t))) == min(slices, 1 << max(0, len(t.pairs) - 7)), (k, slices)
                counts = verify._canonical_violations(t), verify._deletion_counts(t) if k >= 2 else None
                assert counts == expected, (k, name, slices)


def test_order_eight_deletion_check_holds_one_slice_at_a_time():
    # 2**28 graphs: 32 MiB of packed connectivity, read 512 KiB at a time.
    # Whole, the cumulative planes would be nine of 32 MiB; a slice holds
    # nine rows of 512 KiB, one copied plane and a few half rows
    t = verify._dense_tables.__wrapped__(8)
    tracemalloc.start()
    try:
        counts = verify._deletion_counts(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (0, 3463311488, 116737600)
    assert peak < 8 * 2**20


def test_dense_tables_and_checks_peak_under_5_mb():
    # 256 KiB of packed order-7 connectivity are kept. The canonical checks
    # add one plane-sized array at a time, at most that again; the deletion
    # check holds the 2 MiB of cumulative planes and at most one copied
    # plane, and its window test a few half planes of 128 KiB
    tracemalloc.start()
    try:
        t = verify._dense_tables.__wrapped__(7)
        tracemalloc.reset_peak()
        verify._canonical_violations(t)
        canonical = tracemalloc.get_traced_memory()[1]
        verify._deletion_counts(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert canonical < 2**20
    assert peak < 3.5 * 2**20


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
        chains = verify._extension_chains(10**5, 1)
        first_random_base = next(instances[0][0] for instances, _ in chains if instances[0][0].startswith("random"))
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
    chains = verify._extension_chains(verify.SUITES["extension_recurrence"].random_count, DEFAULT_SEED)
    instances = (instance for chain, _ in chains for instance in chain)
    for r, (key, rg, _) in zip(report.records, instances, strict=True):
        assert r.key == key and r.claimed_value == str(count_extension_table(rg)[-1].counts), key


def test_extension_suites_sweep_a_window_before_drawing_more(monkeypatch):
    drawn = []
    real = verify._extension_chains

    def spy(random_count, seed):
        for instances, graphs in real(random_count, seed):
            drawn.extend(instances)
            yield instances, graphs

    class FirstSweep(Exception):
        pass

    def first_sweep(*args, **kwargs):
        raise FirstSweep(len(drawn))

    monkeypatch.setattr(verify, "_extension_chains", spy)
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
    r = cross_check(("path", 6), ("oracle", "formula", "recurrence"))
    assert r.all_passed()
    assert len(r.records) == 6
    assert r.suite == "cross-check P6" and r.records[0].key == "P6 i=1"


def test_cross_check_cycle_oracle_row():
    r = cross_check(build_family("cycle", 7), ("oracle",))
    assert [rec.oracle_value for rec in r.records] == [0, 0, 7, 28, 21, 7, 1]


def test_cross_check_rejects_unrecognized_family():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    with pytest.raises(UnsupportedMethodError):
        cross_check(g, ("oracle", "formula"))
    with pytest.raises(UnsupportedMethodError):
        table_by_method(("cycle", 5), "recurrence")
    # a graph is its order and edges: the stated rows take a (family, n) pair
    for method in ("formula", "recurrence"):
        assert table_by_method(("path", 5), method) == (0, 1, 6, 5, 1)
        with pytest.raises(UnsupportedMethodError, match=r"G\(n=5,m=4\)"):
            table_by_method(build_family("path", 5), method)


def test_table_by_method_wheel_wires_its_own_rim():
    row = table_by_method(("wheel", 5), "formula")
    assert row == (1, 10, 10, 5, 1)


@pytest.mark.parametrize(
    "family, sizes, method, error",
    (
        ("path", range(20, 26), "oracle", "order 25 exceeds the subset-sweep cap 24"),
        ("star", range(20, 25), "frontier", "order 25 exceeds the subset-sweep cap 24"),
        ("complete", range(1, 10), "frontier", "frontier width 8 allows"),
        ("path", (1999, 2000, 2001), "formula", "family size 2001 exceeds 2000"),
        ("path", (1999, 2001), "recurrence", "family size 2001 exceeds 2000"),
        ("wheel", (1999, 2000, 2001), "formula", "family size 2001 exceeds 2000"),
        ("cycle", (3, 4), "recurrence", "no recurrence covers C3"),
        ("wheel", (5, 3), "formula", "wheel requires n >= 4, got 3"),
    ),
)
def test_family_rows_refuse_every_size_before_any_row(monkeypatch, family, sizes, method, error):
    def counted(*args):
        raise AssertionError("a row was counted")

    monkeypatch.setattr(verify, "count_table", counted)
    monkeypatch.setattr(verify, "_frontier_rows", counted)
    monkeypatch.setattr(formulas, "count_path_recurrence", counted)
    monkeypatch.setitem(verify._CLOSED_FORMS, "path", counted)
    with pytest.raises(ValueError if "requires" in error else (CapacityError, UnsupportedMethodError), match=error):
        verify.family_rows(family, sizes, method)


def test_family_rows_refuse_a_long_range_without_holding_it():
    # the first size above the cap raises while only the sizes before it are held
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="order 25 exceeds the subset-sweep cap 24"):
            verify.family_rows("path", range(1, 10**6 + 1), "oracle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("family", ("path", "cycle", "complete", "star", "wheel"))
def test_family_rows_agree_by_every_method_that_covers_them(family):
    sizes = range(4, 9)  # K_9's width 8 is above the DP's bound
    rows = verify.family_rows(family, sizes, "oracle")
    assert rows == [count_table(build_family(family, n)).counts for n in sizes]
    assert verify.family_rows(family, sizes, "frontier") == rows
    if family != "cycle":
        stated = verify.family_rows(family, sizes, "formula")
        if family == "wheel":  # the stated composition holds for W_5 and W_6 alone
            assert [a == b for a, b in zip(stated, rows)] == [False, True, True, False, False]
        else:
            assert stated == rows


def test_the_stated_wheel_row_reads_its_rim_from_the_frontier_dp(monkeypatch):
    # the row equals the composition over the swept rim, and past the sweep's
    # cap it still needs no graph, no count_table and no subset kernel
    rims = {n: count_table(build_family("cycle", n - 1)) for n in range(4, 25)}
    swept = {n: tuple(formulas.count_wheel(n, i, rim) for i in range(1, n + 1)) for n, rim in rims.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the stated wheel row swept or built a graph")

    for module, name in ((verify, "count_table"), (verify, "build_family"), (oracle, "_weak_ok"), (oracle, "_dom_ok")):
        monkeypatch.setattr(module, name, refuse)
    for n, row in zip(range(4, 201), verify.family_rows("wheel", range(4, 201), "formula"), strict=True):
        assert len(row) == n
        if n in swept:
            assert row == swept[n], n


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
