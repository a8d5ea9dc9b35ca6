import dataclasses
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from wcds import (
    Graph,
    build_family,
    corona,
    delete_edge,
    is_connected,
    join,
    make_graph,
    read_edge_list,
    realize_extension,
    write_edge_list,
    RootedGraph,
)


def test_path_and_cycle_shapes():
    p5 = build_family("path", 5)
    assert p5.order == 5
    assert p5.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
    c5 = build_family("cycle", 5)
    assert len(c5.edges) == 5
    assert (1, 5) in c5.edges


def test_degenerate_cycles_collapse_to_smallest_graphs():
    # order-1 and order-2 "cycles" are defined as the complete graphs
    assert build_family("cycle", 1) == build_family("complete", 1)
    assert build_family("cycle", 2) == build_family("complete", 2)


def test_star_center_is_vertex_one():
    s4 = build_family("star", 4)
    assert s4.order == 5
    assert s4.edges == frozenset({(1, 2), (1, 3), (1, 4), (1, 5)})


def test_smallest_wheel_is_complete():
    assert build_family("wheel", 4).edges == build_family("complete", 4).edges
    with pytest.raises(ValueError):
        build_family("wheel", 3)


def test_wheel_hub_touches_every_rim_vertex():
    w6 = build_family("wheel", 6)
    assert w6.order == 6
    hub = 6
    assert all((min(u, hub), max(u, hub)) in w6.edges for u in range(1, 6))
    assert len(w6.edges) == 10


def test_join_adds_every_cross_edge():
    g = join(build_family("path", 2), build_family("path", 3))
    assert g.order == 5
    cross = {(u, v) for u in (1, 2) for v in (3, 4, 5)}
    assert cross <= g.edges
    assert len(g.edges) == 1 + 2 + 6


def test_corona_order_and_pendant_blocks():
    g = corona(build_family("path", 2), build_family("complete", 2))
    # each base vertex gets a private copy of the hat, fully wired to it
    assert g.order == 2 + 2 * 2
    assert (1, 3) in g.edges and (1, 4) in g.edges and (3, 4) in g.edges
    assert (2, 5) in g.edges and (2, 6) in g.edges and (5, 6) in g.edges
    assert (1, 5) not in g.edges


def test_realize_extension_appends_a_path_at_the_root():
    rg = RootedGraph(build_family("path", 3), 1, 2)
    g = realize_extension(rg)
    assert g.order == 5
    assert (1, 4) in g.edges and (4, 5) in g.edges
    assert (3, 4) not in g.edges


def test_realize_extension_of_length_zero_is_the_base():
    base = build_family("cycle", 4)
    assert realize_extension(RootedGraph(base, 2, 0)).edges == base.edges


def test_rooted_graph_rejects_bad_root():
    with pytest.raises(ValueError):
        RootedGraph(build_family("path", 3), 4, 1)


def test_delete_edge():
    g = delete_edge(build_family("cycle", 4), (2, 1))
    assert (1, 2) not in g.edges
    assert is_connected(g)
    with pytest.raises(ValueError):
        delete_edge(g, (1, 2))


def test_is_connected():
    assert is_connected(make_graph(1, []))
    assert not is_connected(make_graph(3, [(1, 2)]))
    assert is_connected(build_family("path", 9))


def test_make_graph_validates_endpoints():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        make_graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        make_graph(0, [])


def test_edge_list_round_trip():
    g = build_family("wheel", 5)
    h, mapping = read_edge_list(write_edge_list(g))
    assert h.edges == g.edges
    assert h.order == g.order
    assert mapping == {v: v for v in range(1, 6)}


def test_edge_list_header_and_comments():
    g, _ = read_edge_list("# a triangle plus an isolated vertex\nn 4\n1 2\n2 3\n1 3\n")
    assert g.order == 4
    assert len(g.edges) == 3


def test_edge_list_renumbers_zero_based_input():
    g, mapping = read_edge_list("0 1\n1 2\n")
    assert g.order == 3
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert mapping[0] == 1


def test_edge_list_rejects_garbage():
    for text in ("1\n", "1 2 3\n", "a b\n", "n 2\n1 3\n"):
        with pytest.raises(ValueError):
            read_edge_list(text)


def test_edge_list_names_the_line_of_a_non_integer_order():
    with pytest.raises(ValueError) as exc:
        read_edge_list("n abc\n1 2\n")
    assert str(exc.value) == "line 1: non-integer order in 'n abc'"
    with pytest.raises(ValueError) as exc:
        read_edge_list("# order first\n\nn 2.5  # two and a half\n")
    assert str(exc.value) == "line 3: non-integer order in 'n 2.5'"


@pytest.mark.parametrize("line", ("1 2\n", "1 0\n"), ids=("plain", "renumbered"))
def test_a_repeated_edge_is_held_once_however_often_it_is_read(line):
    # 200,000 copies of one line peak at about 1.4 KiB traced; a list of
    # every line's pair would take 12.2 MiB
    tracemalloc.start()
    try:
        g, _ = read_edge_list(line for _ in range(200000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.order, g.edges) == (2, frozenset({(1, 2)}))
    assert peak < 2**16


@given(st.sampled_from(["path", "cycle", "complete", "star"]), st.integers(1, 9))
def test_family_graphs_are_connected(family, n):
    assert is_connected(build_family(family, n))


@given(st.integers(4, 10))
def test_wheel_degree_sum_counts_edges_twice(n):
    g = build_family("wheel", n)
    degs = [nbrs.bit_count() for nbrs in g.neighbor_masks()]
    assert sum(degs) == 2 * len(g.edges)
    assert max(degs) == n - 1


def test_a_graph_is_its_order_and_edges():
    # a named family member is named by (family, n) where it is needed, not tagged on the graph
    assert [f.name for f in dataclasses.fields(Graph)] == ["order", "edges"]
    assert build_family("wheel", 6) == join(build_family("cycle", 5), build_family("complete", 1))
