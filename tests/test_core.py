from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from wcds import build_family, is_dominating, is_wcds, make_graph


def test_single_vertex_graph():
    g = make_graph(1, [])
    assert is_wcds(g, {1})
    assert is_dominating(g, {1})


def test_empty_set_is_rejected():
    g = build_family("path", 3)
    with pytest.raises(ValueError):
        is_wcds(g, set())
    assert not is_dominating(g, set())


def test_path_middle_pair():
    g = build_family("path", 4)
    assert is_wcds(g, {2, 3})
    # both endpoints: each end edge survives but the two halves never meet
    assert not is_wcds(g, {1, 4})
    assert is_dominating(g, {1, 4})


def test_star_center_alone():
    g = build_family("star", 5)
    assert is_wcds(g, {1})
    assert not is_wcds(g, {2})


def _wcds_by_hand(g, s):
    # independent restatement: keep edges meeting s, then BFS over everything
    kept = [(u, v) for u, v in g.edges if u in s or v in s]
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for u, v in kept:
                y = v if u == x else u if v == x else None
                if y is not None and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(seen) != g.order:
        return False
    return all(v in s or any((min(v, w), max(v, w)) in g.edges for w in s) for v in range(1, g.order + 1))


@given(st.integers(2, 6), st.data())
def test_membership_agrees_with_naive_restatement(n, data):
    pairs = list(combinations(range(1, n + 1), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    g = make_graph(n, edges)
    members = data.draw(st.sets(st.integers(1, n), min_size=1))
    assert is_wcds(g, members) == _wcds_by_hand(g, members)


@given(st.integers(1, 7))
def test_full_vertex_set_works_on_connected_families(n):
    g = build_family("cycle", n)
    assert is_wcds(g, set(range(1, n + 1)))
