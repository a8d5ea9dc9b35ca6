import re
from itertools import combinations
from pathlib import Path

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
    is_dominating,
    is_wcds,
    make_graph,
)
from wcds import oracle
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


def test_sweep_is_chunk_size_independent():
    g = build_family("wheel", 8)
    edges = sorted(g.edges)
    expected = sweep_counts(8, edges, chunk_bits=20)
    assert sweep_counts(8, edges, chunk_bits=3) == expected
    assert sweep_counts(8, edges, chunk_bits=1) == expected


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


def test_count_cache_is_bounded():
    maxsize = oracle._count_table_cached.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


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
