import random
import re
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcds import (
    CapacityError,
    build_family,
    count_table,
    dominating_counts,
    enumerate_wcds,
    gamma,
    gamma_w,
    has_minimum_dominating_containing,
    has_minimum_wcds_containing,
    is_connected,
    is_dominating,
    is_wcds,
    make_graph,
)
from wcds import oracle
from wcds.core import mask_is_wcds
from wcds.oracle import sweep_counts


def test_count_rows_frozen():
    assert count_table(build_family("path", 5)).counts == (0, 1, 6, 5, 1)
    assert count_table(build_family("cycle", 6)).counts == (0, 0, 14, 15, 6, 1)
    assert count_table(build_family("complete", 3)).counts == (3, 3, 1)
    assert count_table(build_family("complete", 1)).counts == (1,)


def test_count_table_metadata():
    t = count_table(build_family("path", 4))
    assert t.order == 4
    assert t.count(0) == 0 and t.count(7) == 0
    assert t.total() == 8
    assert t.min_size() == 2
    assert t.connected


def test_disconnected_graph_has_empty_table():
    t = count_table(make_graph(4, [(1, 2), (3, 4)]))
    assert t.counts == (0, 0, 0, 0)
    assert not t.connected


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", range(2, 16))
def test_path_totals_are_fibonacci(n):
    # path sets biject with vertex covers, whose count is a Fibonacci number
    assert count_table(build_family("path", n)).total() == _fib(n + 2)


def _lone_hits(g, pred):
    # one kernel call over every non-empty mask of g
    masks = np.arange(1, 1 << g.order, dtype=np.uint32)
    return masks[pred(g.neighbor_masks(), masks)]


def test_sweep_is_chunk_size_independent(monkeypatch):
    g = build_family("wheel", 8)
    expected = [0, *oracle._count_row(8, _lone_hits(g, oracle._weak_ok))]
    for bits in (20, 16, 3, 1):
        monkeypatch.setattr(oracle, "_CHUNK_BITS", bits)
        assert sweep_counts(8, g.edges) == expected, bits


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_every_query_matches_the_scalar_predicates(g):
    # reference: the scalar definitions of core over every combination
    n = g.order
    by_size = {i: list(combinations(g.vertices(), i)) for i in range(1, n + 1)}
    weak = {i: [s for s in sets if is_wcds(g, s)] for i, sets in by_size.items()}
    dom = {i: [s for s in sets if is_dominating(g, s)] for i, sets in by_size.items()}

    assert sweep_counts(n, g.edges)[1:] == [len(weak[i]) for i in weak]
    assert count_table(g).counts == tuple(len(weak[i]) for i in weak)
    assert dominating_counts(g) == tuple(len(dom[i]) for i in dom)
    for i in range(0, n + 2):
        assert enumerate_wcds(g, i) == weak.get(i, [])

    gw = min((i for i, sets in weak.items() if sets), default=None)
    gd = min(i for i, sets in dom.items() if sets)
    assert gamma(g) == gd
    for v in g.vertices():
        assert has_minimum_dominating_containing(g, v) == any(v in s for s in dom[gd])
    if gw is None:
        with pytest.raises(ValueError, match="disconnected"):
            gamma_w(g)
        with pytest.raises(ValueError, match="disconnected"):
            has_minimum_wcds_containing(g, 1)
    else:
        assert gamma_w(g) == gw
        for v in g.vertices():
            assert has_minimum_wcds_containing(g, v) == any(v in s for s in weak[gw])


def test_declared_numpy_floor_has_bitwise_count():
    # np.bitwise_count, which the sweep uses, first shipped in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    (spec,) = [d for d in meta["project"]["dependencies"] if re.match(r"numpy\b", d)]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", spec.replace(" ", ""))
    assert floor and tuple(map(int, floor.groups())) >= (2, 0), spec


def test_enumerate_lists_lexicographically():
    assert enumerate_wcds(build_family("path", 4), 2) == [(1, 3), (2, 3), (2, 4)]
    assert enumerate_wcds(build_family("path", 4), 9) == []
    assert enumerate_wcds(build_family("path", 4), 0) == []


def test_enumerate_matches_count():
    g = build_family("wheel", 6)
    t = count_table(g)
    for i in range(1, 7):
        assert len(enumerate_wcds(g, i)) == t.count(i)


def test_gamma_w_values():
    assert gamma_w(build_family("complete", 5)) == 1
    assert gamma_w(build_family("star", 6)) == 1
    assert gamma_w(build_family("path", 7)) == 3
    assert gamma_w(make_graph(1, [])) == 1


def test_gamma_w_rejects_disconnected_input():
    with pytest.raises(ValueError, match="disconnected"):
        gamma_w(make_graph(3, [(1, 2)]))


def test_plain_domination_number():
    assert gamma(build_family("path", 7)) == 3
    assert gamma(build_family("cycle", 6)) == 2
    assert gamma(build_family("complete", 4)) == 1


def test_dominating_counts_frozen():
    assert dominating_counts(build_family("star", 3)) == (1, 3, 4, 1)
    assert dominating_counts(build_family("cycle", 5)) == (0, 5, 10, 5, 1)


def test_dominating_sets_are_at_least_as_many():
    for fam, n in (("path", 6), ("cycle", 7), ("wheel", 6)):
        g = build_family(fam, n)
        wc = count_table(g).counts
        dom = dominating_counts(g)
        assert all(d >= w for d, w in zip(dom, wc))


def test_every_graph_has_an_odd_number_of_dominating_sets():
    # Brouwer's theorem, V itself counted: the lone and stacked domination
    # sweeps must both give odd totals on every graph, connected or not
    rng = random.Random(14)
    pairs = {n: list(combinations(range(1, n + 1), 2)) for n in range(6, 15)}
    densities = (0.2, 0.5, 0.8)
    randoms = [make_graph(n, [p for p in pairs[n] if rng.random() < d]) for n in range(6, 15) for d in densities]
    graphs = [g for n in range(1, 6) for g in _labelled_graphs(n)] + randoms
    for g, row in zip(graphs, oracle.count_stack(graphs, pred=oracle._dom_ok), strict=True):
        assert sum(dominating_counts(g)) % 2 == 1, g
        assert sum(row) % 2 == 1, g


def _path_domination_rows(n):
    # D(P_n, x) = x (D(P_{n-1}, x) + D(P_{n-2}, x) + D(P_{n-3}, x)) from
    # P1 = x, P2 = x^2 + 2x and P3 = x^3 + 3x^2 + x (Alikhani & Peng), as
    # coefficient rows of x^1..x^n
    rows = [(1,), (2, 1), (1, 3, 1)]
    for k in range(4, n + 1):
        a, b, c = (r + (0,) * (k - 1 - len(r)) for r in rows[-3:])
        rows.append((0, *(x + y + z for x, y, z in zip(a, b, c))))
    return rows[n - 1]


@pytest.mark.parametrize("n", range(17, 21))
def test_path_dominating_counts_past_one_kernel_chunk(n):
    assert dominating_counts(build_family("path", n)) == _path_domination_rows(n)


def test_dominating_totals_are_odd_past_one_kernel_chunk():
    rng = random.Random(18)
    dense = make_graph(18, [p for p in combinations(range(1, 19), 2) if rng.random() < 0.7])
    for g in (build_family("cycle", 20), build_family("wheel", 20), build_family("star", 19), dense):
        assert sum(dominating_counts(g)) % 2 == 1, g


def test_capacity_guard():
    with pytest.raises(CapacityError):
        count_table(make_graph(25, [(i, i + 1) for i in range(1, 25)]))
    with pytest.raises(ValueError):
        count_table(build_family("path", 3), cap=31)
    with pytest.raises(CapacityError):
        gamma_w(build_family("path", 8), cap=5)
    assert gamma_w(build_family("path", 8), cap=8) == 4


def test_membership_in_minimum_sets():
    p3 = build_family("path", 3)
    assert has_minimum_wcds_containing(p3, 2)
    assert not has_minimum_wcds_containing(p3, 1)
    p4 = build_family("path", 4)
    assert has_minimum_wcds_containing(p4, 1)
    assert has_minimum_dominating_containing(p3, 2)
    assert not has_minimum_dominating_containing(p3, 3)


@settings(max_examples=25)
@given(st.integers(2, 9))
def test_top_cardinalities_on_cycles(n):
    # the whole vertex set always qualifies, and one vertex less still does
    t = count_table(build_family("cycle", n))
    assert t.count(n) == 1
    assert t.count(n - 1) == n if n >= 3 else t.count(n - 1) == 2


def _assert_stack_matches_lone_sweeps(graphs, pred):
    # the stacked hits against one lone kernel call over every mask of each
    # graph, and their tally against the lone count of the same kind
    hits = oracle.sweep_stack(graphs, pred)
    assert set(hits) == set(graphs)
    lone_count = (lambda g: count_table(g).counts) if pred is oracle._weak_ok else dominating_counts
    for g in graphs:
        assert np.array_equal(hits[g], _lone_hits(g, pred)), g
        assert oracle._count_row(g.order, hits[g]) == lone_count(g), g


def _labelled_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    return [make_graph(n, [p for b, p in enumerate(pairs) if edges >> b & 1]) for edges in range(1 << len(pairs))]


@pytest.mark.parametrize("pred", [oracle._weak_ok, oracle._dom_ok], ids=["weak", "dom"])
def test_stacked_sweep_matches_on_every_labelled_graph_to_order_five(pred):
    _assert_stack_matches_lone_sweeps([g for n in range(1, 6) for g in _labelled_graphs(n)], pred)


@settings(max_examples=60, deadline=None)
@given(st.lists(_graphs(), min_size=1, max_size=12), st.sampled_from([oracle._weak_ok, oracle._dom_ok]))
def test_stacked_sweep_matches_on_mixed_orders(graphs, pred):
    _assert_stack_matches_lone_sweeps(graphs, pred)


@pytest.mark.parametrize("pred", [oracle._weak_ok, oracle._dom_ok], ids=["weak", "dom"])
def test_stacked_sweep_splits_an_order_across_kernel_calls(pred):
    # 2**(16 - 10) = 64 graphs of order 10 fill one call, so 150 take three
    rng = random.Random(10)
    pairs = list(combinations(range(1, 11), 2))
    graphs = [make_graph(10, [p for p in pairs if rng.random() < 0.3]) for _ in range(150)]
    assert len(set(graphs)) > 2 * 64 and not all(map(is_connected, graphs))
    _assert_stack_matches_lone_sweeps(graphs, pred)


def test_stacked_sweep_refuses_the_largest_order_above_the_cap_first():
    with pytest.raises(CapacityError, match=r"order 7 exceeds the subset-sweep cap 5"):
        oracle.sweep_stack([build_family("path", 6), build_family("path", 7), build_family("path", 3)], cap=5)


def _least_popcount(hits):
    return int(np.bitwise_count(hits).min())


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_least_layers_equal_lone_minimums_on_every_labelled_graph(n):
    # one stack per order, against the lone queries and the least popcount
    # of the whole sweep
    graphs = _labelled_graphs(n)
    connected = [g for g in graphs if is_connected(g)]
    weak = oracle.sweep_stack(connected)
    dom = oracle.sweep_stack(graphs, oracle._dom_ok)
    assert oracle.gamma_stack(graphs) == [gamma(g) for g in graphs] == [_least_popcount(dom[g]) for g in graphs]
    assert oracle.gamma_w_stack(connected) == [gamma_w(g) for g in connected]
    assert oracle.gamma_w_stack(connected) == [_least_popcount(weak[g]) for g in connected]


def _stack_graphs():
    # per order 6..18: three random graphs at three densities and one with
    # an isolated vertex; the order-18 ones do not fit 16-bit stacks
    rng = random.Random(21)
    graphs = []
    for n in range(6, 19):
        pairs = list(combinations(range(1, n + 1), 2))
        graphs += [make_graph(n, [e for e in pairs if rng.random() < p]) for p in (0.2, 0.4, 0.7)]
        isolated = rng.randint(1, n)
        graphs.append(make_graph(n, [e for e in pairs if isolated not in e and rng.random() < 0.5]))
    return graphs


def test_stacked_least_layers_equal_lone_minimums_across_sixteen_bits():
    graphs = _stack_graphs()
    connected = [g for g in graphs if is_connected(g)]
    assert len(connected) >= 2 * 13 and len(graphs) - len(connected) >= 13
    rng = random.Random(5)
    rng.shuffle(graphs)  # orders interleaved in the input
    assert oracle.gamma_stack(graphs) == [gamma(g) for g in graphs]
    assert oracle.gamma_w_stack(connected) == [gamma_w(g) for g in connected]
    # and against the least size of the whole sweeps, up to order 14
    small = [g for g in graphs if g.order <= 14]
    assert oracle.gamma_stack(small) == [next(i for i, c in enumerate(dominating_counts(g), 1) if c) for g in small]
    small = [g for g in connected if g.order <= 14]
    assert oracle.gamma_w_stack(small) == [count_table(g).min_size() for g in small]


def test_stacked_gamma_w_refuses_a_disconnected_graph_after_the_cap():
    graphs = [build_family("path", 4), make_graph(4, [(1, 2)])]
    with pytest.raises(ValueError, match="gamma_w undefined: graph is disconnected"):
        oracle.gamma_w_stack(graphs)
    with pytest.raises(CapacityError, match=r"order 9 exceeds the subset-sweep cap 8"):
        oracle.gamma_w_stack([*graphs, build_family("path", 9)], cap=8)


def test_stacked_count_rows_equal_the_lone_counts():
    graphs = [g for n in range(1, 6) for g in _labelled_graphs(n)] + _stack_graphs()
    assert oracle.count_stack(graphs) == [count_table(g).counts for g in graphs]
    assert oracle.count_stack(graphs, oracle._dom_ok) == [dominating_counts(g) for g in graphs]


@pytest.mark.parametrize("pred", [oracle._weak_ok, oracle._dom_ok], ids=["weak", "dom"])
def test_a_stack_above_sixteen_bits_equals_its_lone_sweeps(monkeypatch, pred):
    # above order 16 each call is one graph's chunk, taken chunk by chunk
    # across the stack; each graph still gets its own hits and rows
    graphs = [build_family("cycle", 17), build_family("star", 16), make_graph(17, [(1, v) for v in range(2, 18)] + [(2, 3)])]
    stacks = []
    real = oracle._calls
    monkeypatch.setattr(oracle, "_calls", lambda adjs, *rest: stacks.append(len(adjs)) or real(adjs, *rest))
    _assert_stack_matches_lone_sweeps(graphs, pred)
    assert oracle.count_stack(graphs, pred) == [oracle.count_stack([g], pred)[0] for g in graphs]
    assert 3 in stacks  # the stack was swept as one


def test_lone_minimums_test_int_masks_one_graph_at_a_time(monkeypatch):
    # a stack of one graph is the lone query: int neighbour masks and 1-d
    # mask chunks, as before stacking
    seen = []
    real = oracle._dom_ok
    monkeypatch.setattr(oracle, "_dom_ok", lambda adj, masks: seen.append((type(adj[0]), masks.ndim)) or real(adj, masks))
    for g in (build_family("path", 9), build_family("wheel", 18)):
        seen.clear()
        gamma(g), gamma_w(g)
        assert seen and set(seen) == {(int, 1)}


@pytest.mark.parametrize("n", range(1, 21))
def test_layer_yields_every_k_subset_once(n):
    # from order 17 up a mask is a high part above the low 16 bits
    everything = np.arange(1 << n, dtype=np.uint32)
    sizes = np.bitwise_count(everything)
    for k in range(n + 1):
        masks = np.concatenate([*oracle._layer(n, k), np.empty(0, np.uint32)])
        assert np.array_equal(np.sort(masks), everything[sizes == k]), k


@pytest.mark.parametrize("k", [0, 1, 2, 28, 29, 30])
def test_layer_at_order_thirty(k):
    masks = np.concatenate(list(oracle._layer(30, k)))
    assert masks.size == np.unique(masks).size == comb(30, k)
    assert np.all(np.bitwise_count(masks) == k) and int(masks.max()) < 1 << 30


@pytest.mark.parametrize("n", range(1, 7))
def test_layer_floors_never_pass_the_exhaustive_minimum(n):
    # the floor lemmas of _layer_floor, on every labelled graph of order n
    graphs = _labelled_graphs(n)
    adjs = [g.neighbor_masks() for g in graphs]
    weak = oracle._stack_hits(adjs, oracle._weak_ok)
    dom = oracle._stack_hits(adjs, oracle._dom_ok)
    for adj, w, d in zip(adjs, weak, dom):
        assert oracle._layer_floor(adj, oracle._dom_ok) <= np.bitwise_count(d).min(), adj
        if w.size:  # connected
            assert oracle._layer_floor(adj, oracle._weak_ok) <= np.bitwise_count(w).min(), adj


@pytest.mark.parametrize("query, kernel", [(gamma_w, "_weak_ok"), (gamma, "_dom_ok")])
def test_minimum_of_k30_tests_at_most_30_masks(query, kernel, monkeypatch):
    seen = []
    real = getattr(oracle, kernel)
    monkeypatch.setattr(oracle, kernel, lambda adj, masks: seen.append(masks.size) or real(adj, masks))
    assert query(build_family("complete", 30), cap=30) == 1
    assert 0 < sum(seen) <= 30


def _scalar_weak(adj):
    # the scalar definition on every non-empty mask
    n = len(adj)
    return np.array([mask_is_wcds(n, adj, m) for m in range(1, 1 << n)])


def test_weak_kernel_matches_the_definition_on_every_labelled_graph_to_order_five():
    for n in range(1, 6):
        adjs = [g.neighbor_masks() for g in _labelled_graphs(n)]
        masks = np.arange(1 << n, dtype=np.uint32)  # mask 0 too: neither kernel passes it
        stacked = oracle._stack_hits(adjs, oracle._weak_ok)
        for adj, hits in zip(adjs, stacked):
            expected = np.concatenate([[False], _scalar_weak(adj)])
            assert not oracle._dom_ok(adj, masks)[0], adj
            assert np.array_equal(oracle._weak_ok(adj, masks), expected), adj
            assert np.array_equal(hits, masks[expected]), adj


def _seeded_graphs():
    # two graphs of each order 6..14: a random one at one of three densities,
    # and a graph with an isolated vertex or a path with shuffled labels
    rng = random.Random(17)
    graphs = []
    for n in range(6, 15):
        pairs = list(combinations(range(1, n + 1), 2))
        p = (0.15, 0.3, 0.6)[n % 3]
        graphs.append(make_graph(n, [e for e in pairs if rng.random() < p]))
        if n % 2:
            isolated = rng.randint(1, n)
            graphs.append(make_graph(n, [e for e in pairs if isolated not in e and rng.random() < 0.4]))
        else:
            labels = rng.sample(range(1, n + 1), n)
            graphs.append(make_graph(n, list(zip(labels, labels[1:]))))
    return graphs


def test_seeded_graphs_include_the_awkward_cases():
    graphs = _seeded_graphs()
    assert not all(map(is_connected, graphs))
    assert any(any(nbrs == 0 for nbrs in g.neighbor_masks()) for g in graphs)


@pytest.mark.parametrize("g", _seeded_graphs(), ids=lambda g: f"n{g.order}e{len(g.edges)}")
def test_weak_kernel_matches_the_definition_at_every_chunk_size(g, monkeypatch):
    # masks that settle in different passes share a chunk, or do not
    adj = g.neighbor_masks()
    expected = np.arange(1, 1 << g.order, dtype=np.uint32)[_scalar_weak(adj)]
    for bits in range(3, 17):
        monkeypatch.setattr(oracle, "_CHUNK_BITS", bits)
        (hits,) = oracle._stack_hits([adj], oracle._weak_ok)
        assert np.array_equal(hits, expected), bits


def test_one_stack_mixes_graphs_that_settle_at_once_and_late():
    # vertex 1 of the star reaches every member in one step; a path whose
    # labels run back and forth takes many half passes
    rng = random.Random(3)
    for n in (9, 12):
        labels = rng.sample(range(1, n + 1), n)
        snake = make_graph(n, list(zip(labels, labels[1:])))
        graphs = [build_family("star", n - 1), snake, build_family("cycle", n), make_graph(n, [(1, 2)])]
        adjs = [g.neighbor_masks() for g in graphs]
        masks = np.arange(1, 1 << n, dtype=np.uint32)
        for adj, hits in zip(adjs, oracle._stack_hits(adjs, oracle._weak_ok)):
            assert np.array_equal(hits, masks[_scalar_weak(adj)]), adj


@pytest.mark.parametrize(
    "g, s, dominating, weak",
    [
        (build_family("path", 3), (1, 3), True, True),  # joined through vertex 2
        (build_family("path", 3), (1,), False, False),
        (build_family("path", 6), (2, 5), True, False),  # 2 and 5 are 3 apart
        (make_graph(1, []), (1,), True, True),
    ],
)
def test_weak_kernel_pinned_cases(g, s, dominating, weak):
    adj, masks = g.neighbor_masks(), np.array([sum(1 << (v - 1) for v in s)], dtype=np.uint32)
    assert oracle._dom_ok(adj, masks).tolist() == [dominating] and is_dominating(g, s) is dominating
    assert oracle._weak_ok(adj, masks).tolist() == [weak] and is_wcds(g, s) is weak


@pytest.mark.parametrize("query", [has_minimum_wcds_containing, has_minimum_dominating_containing])
@pytest.mark.parametrize("v", [0, -1, 5])
def test_membership_refuses_a_vertex_outside_the_graph(query, v):
    with pytest.raises(ValueError, match=rf"vertex {v} outside 1\.\.4"):
        query(build_family("path", 4), v)


def test_membership_sweeps_only_the_least_layer(monkeypatch):
    seen = []
    real = oracle._weak_ok
    monkeypatch.setattr(oracle, "_weak_ok", lambda adj, masks: seen.append(masks) or real(adj, masks))
    g = build_family("path", 7)  # {2, 4, 6} is its one minimum set
    assert [has_minimum_wcds_containing(g, v) for v in g.vertices()] == [v in (2, 4, 6) for v in g.vertices()]
    assert {int(k) for masks in seen for k in np.bitwise_count(masks)} == {3}
    sets = [s for s in combinations(g.vertices(), 3) if is_dominating(g, s)]
    assert [has_minimum_dominating_containing(g, v) for v in g.vertices()] == [
        any(v in s for s in sets) for v in g.vertices()
    ]


@pytest.mark.parametrize(
    "query, kernel, least, calls",
    [(has_minimum_wcds_containing, "_weak_ok", 10, 6), (has_minimum_dominating_containing, "_dom_ok", 7, 5)],
)
def test_membership_lists_the_least_layer_once(monkeypatch, query, kernel, least, calls):
    # on C20 both floors are the minimum itself (gamma_w 10, gamma 7), so
    # one walk lists that layer once: the masks tested are its masks, each once
    seen = []
    real = getattr(oracle, kernel)
    monkeypatch.setattr(oracle, kernel, lambda adj, masks: seen.append(masks) or real(adj, masks))
    assert query(build_family("cycle", 20), 1)
    tested = np.concatenate(seen)
    assert tested.size == np.unique(tested).size == comb(20, least)
    assert len(seen) == calls


def test_enumerate_sweeps_only_its_layer(monkeypatch):
    g = build_family("cycle", 9)
    row = count_table(g).counts  # read before the kernel is watched
    seen = []
    real = oracle._weak_ok
    monkeypatch.setattr(oracle, "_weak_ok", lambda adj, masks: seen.append(masks) or real(adj, masks))
    for i in range(1, 10):
        seen.clear()
        assert len(enumerate_wcds(g, i)) == row[i - 1]
        assert {int(k) for masks in seen for k in np.bitwise_count(masks)} == {i}, i


def test_enumerate_refuses_a_listing_at_the_chunk_that_passes_the_bound(monkeypatch):
    # K20 has C(20, 10) = 184,756 sets of size 10, several chunks of 2**16 masks
    calls = []
    real = oracle._weak_ok
    monkeypatch.setattr(oracle, "_weak_ok", lambda adj, masks: calls.append(masks.size) or real(adj, masks))
    monkeypatch.setattr(oracle, "LISTING_MAX", 1)
    with pytest.raises(CapacityError, match=r"more than 1 sets of size 10 to list, of C\(20, 10\) = 184756"):
        enumerate_wcds(build_family("complete", 20), 10)
    assert len(calls) == 1 and calls[0] < comb(20, 10)


def test_enumerate_peaks_with_its_layer_not_the_graph():
    # K22 has 2**22 - 1 weakly connected dominating sets; its 3-sets are 1,540
    g = build_family("complete", 22)
    tracemalloc.start()
    try:
        sets = enumerate_wcds(g, 3, cap=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sets) == comb(22, 3)
    assert peak < 2 * 2**20
