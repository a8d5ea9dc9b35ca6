"""The frontier DP against the subset sweep, its vertex order and width,
its up-front refusal, and row sequences that resume from shared steps."""

import random
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wcds import (
    CapacityError,
    build_family,
    count_table,
    count_table_frontier,
    cross_check,
    frontier_order,
    is_connected,
    make_graph,
)
from wcds import frontier
from wcds.cli import run
from wcds.graph import FAMILIES

FAMILY_WIDTH = {"path": 1, "cycle": 2, "star": 1, "wheel": 3}


def _same(g):
    dp, sweep = count_table_frontier(g), count_table(g)
    assert dp.connected == sweep.connected
    assert dp.counts == sweep.counts


def test_every_labelled_graph_to_order_five():
    seen = 0
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            _same(make_graph(n, [p for k, p in enumerate(pairs) if bits >> k & 1]))
            seen += 1
    assert seen == 1 + 2 + 8 + 64 + 1024


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from((0.1, 0.25, 0.5, 0.75, 1.0)))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [p for p, r in zip(pairs, keep) if r < density])


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_random_graphs_match_the_sweep(g):
    # dense order-12 graphs reach width 11, far above the refusal bound, yet
    # hold at most 2^11 live states; lift the bound to compare them too
    with mock.patch.object(frontier, "MAX_FRONTIER_STATES", frontier.projected_states(g.order)):
        _same(g)


@pytest.mark.parametrize("family", sorted(FAMILY_WIDTH))
def test_sparse_families_to_order_twenty(family):
    start = 4 if family == "wheel" else 1
    for n in range(start, 21 if family != "star" else 20):
        g = build_family(family, n)
        order, width = frontier_order(g)
        assert sorted(order) == list(g.vertices())
        assert width <= FAMILY_WIDTH[family]
        _same(g)


def test_order_and_width_of_small_cases():
    assert frontier_order(make_graph(1, [])) == ((1,), 0)
    assert frontier_order(build_family("path", 4)) == ((1, 2, 3, 4), 1)
    # the hub joins the frontier before the rim grows past three
    order, width = frontier_order(build_family("wheel", 8))
    assert order[:3] == (1, 2, 8) and width == 3
    assert frontier_order(build_family("complete", 6))[1] == 5


def test_disconnected_graph_gets_the_zero_table():
    t = count_table_frontier(make_graph(4, [(1, 2), (3, 4)]))
    assert not t.connected and t.counts == (0, 0, 0, 0)


def test_bell_and_projected_states():
    assert [frontier.bell(k) for k in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert frontier.projected_states(3) == 8 * 5


def test_cross_check_oracle_against_frontier():
    # the last graph is a triangle with a pendant path of two on each corner
    spider = make_graph(9, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (2, 6), (6, 7), (3, 8), (8, 9)])
    for g in (build_family("wheel", 9), build_family("star", 7), build_family("complete", 6), spider):
        assert cross_check(g, ("oracle", "frontier")).all_passed()


def test_wide_graph_is_refused_before_any_state(capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(frontier, "_place", lambda *a: steps.append(a))
    assert run(["count", "--family", "complete", "--n", "16", "--method", "frontier"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frontier width 15" in captured.err
    assert f"bound of {frontier.MAX_FRONTIER_STATES}" in captured.err
    assert steps == []
    with pytest.raises(CapacityError, match="frontier width 8"):
        count_table_frontier(build_family("complete", 9))
    assert steps == []


def test_widest_accepted_width_is_seven():
    assert frontier.projected_states(7) <= frontier.MAX_FRONTIER_STATES < frontier.projected_states(8)
    assert count_table_frontier(build_family("complete", 8)) == count_table(build_family("complete", 8))


def test_long_cycles_and_wheels_beyond_the_sweep():
    # order 60 is far beyond the subset sweep; the top cells follow from the
    # definition: the whole set, every set missing one vertex, and for the
    # wheel the hub alone
    c = count_table_frontier(build_family("cycle", 60))
    assert c.count(60) == 1 and c.count(59) == 60 and c.min_size() == 30
    w = count_table_frontier(build_family("wheel", 60))
    assert w.count(1) == 1 and w.count(60) == 1 and w.count(59) == 60


def test_command_line_keeps_the_order_cap(capsys):
    # the DP has no order cap of its own; the command line still applies --cap
    assert run(["count", "--family", "cycle", "--n", "25", "--method", "frontier"]) == 3
    assert "order 25 exceeds the subset-sweep cap 24" in capsys.readouterr().err
    assert run(["count", "--family", "cycle", "--n", "25", "--method", "frontier", "--cap", "25", "--i", "25"]) == 0
    assert capsys.readouterr().out == "1\n"


def _greedy_over_every_vertex(g):
    """The greedy order scoring every unplaced vertex at every step: the
    reference that :func:`frontier_order`'s restricted scan must equal."""
    adj = g.neighbor_masks()
    unplaced = (1 << g.order) - 1
    frontier_: list[int] = []
    order: list[int] = []
    width = 0
    for _ in range(g.order):
        leaving: dict[int, int] = {}
        for u in frontier_:
            rest = adj[u] & unplaced
            if rest & (rest - 1) == 0:
                leaving[rest] = leaving.get(rest, 0) + 1
        placed = ~unplaced
        best = None
        rest = unplaced
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            size = len(frontier_) - leaving.get(bit, 0) + (adj[v] & unplaced & ~bit != 0)
            key = (size, -(adj[v] & placed).bit_count(), v)
            if best is None or key < best:
                best = key
        size, _, v = best
        unplaced &= ~(1 << v)
        frontier_ = [u for u in (*frontier_, v) if adj[u] & unplaced]
        order.append(v + 1)
        width = max(width, size)
    return tuple(order), width


def _random_graph(rng, n, density):
    return make_graph(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < density])


def test_restricted_greedy_equals_the_full_scan_on_every_small_graph():
    for n in range(1, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = make_graph(n, [p for k, p in enumerate(pairs) if bits >> k & 1])
            assert frontier_order(g) == _greedy_over_every_vertex(g), g.edges


def test_restricted_greedy_equals_the_full_scan_on_random_graphs_and_families():
    rng = random.Random(19)
    shapes = {"isolated": 0, "disconnected": 0}
    for _ in range(600):
        n = rng.randint(2, 24)
        g = _random_graph(rng, n, rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)))
        adj = g.neighbor_masks()
        shapes["isolated"] += 0 in adj
        shapes["disconnected"] += not is_connected(g)
        assert frontier_order(g) == _greedy_over_every_vertex(g), g.edges
    assert min(shapes.values()) >= 50, shapes
    for family in FAMILIES:
        for n in range(4 if family == "wheel" else 1, 61):
            g = build_family(family, n)
            assert frontier_order(g) == _greedy_over_every_vertex(g), (family, n)


def _rows(graphs):
    return list(frontier._frontier_rows([frontier._plan(g) for g in graphs]))


def test_a_row_sequence_equals_each_one_graph_dp():
    # repeats, a shorter cycle after a longer one, unrelated graphs, a
    # disconnected graph and K1 in one pass, and the cycle's repeated step
    # coming back after an unrelated graph and after a disconnected one: a
    # snapshot that a later step changed, one taken at the wrong step, or a
    # transition read under another signature gives a wrong row
    disconnected = make_graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    seq = [
        build_family("cycle", 9),
        build_family("cycle", 12),
        build_family("cycle", 7),
        build_family("cycle", 12),
        build_family("path", 12),
        build_family("wheel", 10),
        disconnected,
        make_graph(1, []),
        _random_graph(random.Random(7), 10, 0.3),
        build_family("cycle", 11),
        build_family("wheel", 9),
        build_family("cycle", 10),
        disconnected,
        build_family("cycle", 13),
    ]
    rows = _rows(seq)
    assert len(rows) == len(seq)
    for g, row in zip(seq, rows):
        assert row == count_table_frontier(g) == count_table(g)
    assert not rows[6].connected and not rows[12].connected


def test_shared_steps_are_run_once(monkeypatch):
    steps = []
    real = frontier._place
    monkeypatch.setattr(frontier, "_place", lambda states, step, compiled: steps.append(step) or real(states, step, compiled))
    c12 = build_family("cycle", 12)
    _rows([c12, c12, c12])
    # the second and third C12 read the first one's final table
    assert len(steps) == 12
    steps.clear()
    _rows([build_family("path", n) for n in range(3, 13)])
    # P_n and P_{n+1} share their first n - 1 steps
    assert len(steps) == 3 + 2 * 9


@pytest.mark.parametrize(
    "family, top, steps, state_steps, transitions",
    (("path", 20, 39, 76, 6), ("cycle", 20, 39, 274, 22), ("star", 19, 38, 75, 5), ("wheel", 20, 36, 418, 41)),
)
def test_benchmark_tables_run_few_steps(capsys, monkeypatch, family, top, steps, state_steps, transitions):
    # each row resumes from the row before, and a step whose signature ran
    # just before, in this row or the last, reads its transitions instead
    # of working them out
    calls, worked = [], []
    real, successors = frontier._place, frontier._successors
    monkeypatch.setattr(frontier, "_place", lambda states, step, compiled: calls.append(len(states)) or real(states, step, compiled))
    monkeypatch.setattr(frontier, "_successors", lambda step, key: worked.append(key) or successors(step, key))
    rows = []
    real_rows = frontier._frontier_rows

    def counted(plans):
        rows.extend(plans)
        return real_rows(plans)

    monkeypatch.setattr("wcds.cli._frontier_rows", counted)
    assert run(["table", "--family", family, "--max-n", str(top)]) == 0
    capsys.readouterr()
    assert len(calls) == steps <= top + 2 * len(rows)
    assert sum(calls) == state_steps and len(worked) <= transitions
    # one row at a time the DP runs every row's order in full
    assert sum(len(order) for order, _, _ in rows) > 4 * steps


def test_wide_graph_in_a_sequence_is_refused_before_its_states(monkeypatch):
    before = [build_family("cycle", 9), build_family("wheel", 8)]
    calls = []
    real = frontier._place
    monkeypatch.setattr(frontier, "_place", lambda states, step, compiled: calls.append(step) or real(states, step, compiled))
    alone = _rows(before)
    ran = len(calls)
    calls.clear()
    rows = frontier._frontier_rows([frontier._plan(g) for g in (*before, build_family("complete", 9), build_family("cycle", 10))])
    assert [next(rows), next(rows)] == alone == [count_table(g) for g in before]
    assert len(calls) == ran
    with pytest.raises(CapacityError, match="frontier width 8"):
        next(rows)
    assert len(calls) == ran


def _grid(rows, cols):
    label = lambda i, j: i * cols + j + 1
    edges = [(label(i, j), label(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(label(i, j), label(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return make_graph(rows * cols, edges)


def _peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sequence_holds_at_most_one_snapshot():
    # grids with four columns and a growing number of rows share most of
    # their steps; the pass holds the live table and one snapshot, so its
    # peak stays within twice the largest one-graph peak
    grids = [_grid(k, 4) for k in range(4, 9)]
    assert {frontier_order(g)[1] for g in grids} == {4}
    single = max(_peak(lambda: count_table_frontier(g)) for g in grids)
    assert _peak(lambda: _rows(grids)) < 2 * single
    assert _rows(grids) == [count_table_frontier(g) for g in grids]


def test_a_lone_grid_holds_the_live_table_and_few_maps():
    # the 7x7 grid runs at width 7 and works out most transitions afresh;
    # a map outlives its step only while the next step shares its signature,
    # so the traced peak stays within 1.5 times the 5.5 MiB the DP peaked at
    # before it compiled its steps
    g = _grid(7, 7)
    assert frontier_order(g)[1] == 7
    assert _peak(lambda: count_table_frontier(g)) < 1.5 * 5.5 * 2**20
