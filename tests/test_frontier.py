"""The frontier DP against the subset sweep, its vertex order and width, and
its up-front refusal."""

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
    make_graph,
)
from wcds import frontier
from wcds.cli import run

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
