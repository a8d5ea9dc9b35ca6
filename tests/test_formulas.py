import random
import tracemalloc
from functools import cache
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wcds import (
    RecurrenceAssumptionError,
    RootedGraph,
    boxes_brute,
    boxes_count,
    build_extension_wcds,
    build_family,
    count_complete,
    count_cycle_top,
    count_extension_table,
    count_join,
    count_join_dominating,
    count_path_closed,
    count_path_recurrence,
    count_star,
    count_table,
    count_wheel,
    dominating_counts,
    gamma_w_corona,
    gamma_w_cycle,
    gamma_w_extension,
    gamma_w_join,
    gamma_w_path,
    join,
    make_graph,
    realize_extension,
)
from wcds import formulas, oracle
from wcds.verify import REFERENCE_PATH_TABLE


def test_closed_form_reproduces_reference_rows():
    for n, row in REFERENCE_PATH_TABLE.items():
        assert tuple(count_path_closed(n, j) for j in range(1, n + 1)) == row


def test_recurrence_reproduces_reference_rows():
    for n, row in REFERENCE_PATH_TABLE.items():
        assert count_path_recurrence(n).counts == row


def test_closed_form_is_zero_outside_the_window():
    assert count_path_closed(6, 2) == 0
    assert count_path_closed(6, 0) == 0
    assert count_path_closed(6, 7) == 0


def test_recurrence_makes_no_sweep(sweep_calls):
    # the path recurrence starts from stated rows, not from the counter
    assert count_path_recurrence(12).counts == tuple(count_path_closed(12, j) for j in range(1, 13))
    assert sweep_calls == []


@given(st.integers(1, 12), st.integers(0, 13))
def test_closed_form_equals_recurrence(n, j):
    assert count_path_closed(n, j) == count_path_recurrence(n).count(j)


@given(st.integers(1, 10), st.integers(0, 11))
def test_complete_counts_are_binomials(n, i):
    expected = comb(n, i) if 1 <= i <= n else 0
    assert count_complete(n, i) == expected


def test_star_counts():
    # center plus any leaves; leaf-only sets work only when every leaf is in
    assert tuple(count_star(3, i) for i in range(1, 5)) == (1, 3, 4, 1)
    assert count_star(5, 5) == 6
    assert count_star(5, 6) == 1
    assert count_star(5, 7) == 0


def test_cycle_top_cells():
    assert count_cycle_top(12, 12) == 1
    assert count_cycle_top(12, 11) == 12
    assert count_cycle_top(12, 10) == 66
    assert count_cycle_top(12, 9) == 208
    assert count_cycle_top(6, 3) == 14


def test_cycle_top_rejects_cells_off_the_diagonal():
    with pytest.raises(ValueError):
        count_cycle_top(10, 5)
    with pytest.raises(ValueError):
        count_cycle_top(5, 2)
    with pytest.raises(ValueError):
        count_cycle_top(3, 1)


def test_join_composition_where_it_holds():
    k2 = count_table(build_family("complete", 2))
    assert tuple(count_join(k2, k2, i) for i in range(1, 5)) == (4, 6, 4, 1)


def test_join_composition_states_the_published_rule():
    # transcription check, not ground truth: the one-part terms use the
    # weakly connected counts even though that undercounts some joins
    p1 = count_table(build_family("path", 1))
    p4 = count_table(build_family("path", 4))
    assert count_join(p1, p4, 2) == 7
    realized = join(build_family("path", 1), build_family("path", 4))
    assert count_table(realized).count(2) == 8


def _labelled_graphs(max_order):
    for n in range(1, max_order + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield make_graph(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def _join_row_by_rule(g, h):
    dom_g, dom_h = dominating_counts(g), dominating_counts(h)
    return tuple(count_join_dominating(dom_g, dom_h, i) for i in range(1, g.order + h.order + 1))


def test_dominating_join_rule_on_every_pair_to_order_three():
    # disconnected parts included: their joins are connected all the same
    small = list(_labelled_graphs(3))
    assert len(small) == 1 + 2 + 8
    for g in small:
        for h in small:
            assert _join_row_by_rule(g, h) == count_table(join(g, h)).counts, (g, h)


def test_dominating_join_rule_on_seeded_random_pairs():
    rng = random.Random(2014)

    def draw():
        n = rng.randint(1, 5)
        p = rng.choice((0.2, 0.5, 0.8))
        return make_graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])

    for _ in range(60):
        g, h = draw(), draw()
        assert _join_row_by_rule(g, h) == count_table(join(g, h)).counts, (g, h)


def test_dominating_join_rule_with_one_vertex_gives_the_wheel():
    # a wheel is its rim joined with K1, which has one dominating set
    for n in range(4, 15):
        dom_rim = dominating_counts(build_family("cycle", n - 1))
        row = tuple(count_join_dominating(dom_rim, (1,), i) for i in range(1, n + 1))
        assert row == count_table(build_family("wheel", n)).counts, n


def test_dominating_join_rule_where_the_stated_rule_fails():
    # P1 + P4 at i = 2: the 4-path has 3 weakly connected pairs but 4
    # dominating ones, so the stated rule gives 7 and the sweep 8
    p1, p4 = build_family("path", 1), build_family("path", 4)
    assert count_join(count_table(p1), count_table(p4), 2) == 7
    assert count_join_dominating(dominating_counts(p1), dominating_counts(p4), 2) == 8
    assert count_join_dominating((1,), (1,), 0) == 0
    assert count_join_dominating((1,), (1,), 3) == 0


def test_wheel_composition_contract():
    c9 = count_table(build_family("cycle", 9))
    assert count_wheel(10, 4, c9) == 93
    assert count_wheel(10, 1, c9) == 1
    assert count_wheel(10, 10, c9) == comb(9, 9)
    assert count_wheel(10, 11, c9) == 0
    with pytest.raises(ValueError):
        count_wheel(10, 4, count_table(build_family("cycle", 8)))


@pytest.mark.parametrize("n,value", [(1, 1), (2, 1), (3, 1), (7, 3), (20, 10)])
def test_half_order_values(n, value):
    assert gamma_w_path(n) == value
    assert gamma_w_cycle(n) == value


def test_corona_rule_takes_the_base_order():
    assert gamma_w_corona(build_family("cycle", 4)) == 4
    with pytest.raises(ValueError):
        gamma_w_corona(build_family("path", 1))
    with pytest.raises(ValueError):
        gamma_w_corona(make_graph(4, [(1, 2), (3, 4)]))


def test_join_rule_needs_one_dominating_vertex():
    assert gamma_w_join(1, 3) == 1
    assert gamma_w_join(3, 1) == 1
    assert gamma_w_join(2, 2) == 2
    assert gamma_w_join(4, 5) == 2


def test_extension_shift_rule():
    assert gamma_w_extension(2, True, 0) == 2
    assert gamma_w_extension(1, True, 2) == 1
    assert gamma_w_extension(1, False, 2) == 2
    assert gamma_w_extension(2, True, 5) == 4
    assert gamma_w_extension(2, False, 5) == 4


def test_extension_table_rows_frozen():
    # base is the 3-path rooted at its center; rows checked against the
    # exhaustive counter once and pinned here
    tabs = count_extension_table(RootedGraph(build_family("path", 3), 2, 4))
    assert [t.counts for t in tabs] == [
        (1, 3, 1),
        (1, 3, 4, 1),
        (0, 2, 6, 5, 1),
        (0, 1, 5, 10, 6, 1),
        (0, 0, 3, 11, 15, 7, 1),
    ]


def test_extension_table_needs_two_steps():
    with pytest.raises(ValueError):
        count_extension_table(RootedGraph(build_family("path", 3), 2, 1))


def test_built_families_frozen():
    rg = RootedGraph(build_family("path", 3), 1, 2)
    assert build_extension_wcds(rg, 2) == [(2, 4)]
    assert build_extension_wcds(rg, 3) == [
        (1, 2, 4),
        (1, 2, 5),
        (1, 3, 4),
        (1, 3, 5),
        (2, 3, 4),
        (2, 4, 5),
    ]


def test_built_family_from_a_single_vertex_base():
    rg = RootedGraph(build_family("complete", 1), 1, 2)
    assert build_extension_wcds(rg, 2) == [(1, 2), (1, 3), (2, 3)]
    # only one branch of the recurrence exists at the top cardinality
    assert build_extension_wcds(rg, 3) == [(1, 2, 3)]


def _depth_first_families(rg, hits0, hits1):
    """The construction as a depth-first recursion on sets of masks, one
    cardinality at a time: G(m)'s family of size i, or the message of the
    RecurrenceAssumptionError the recursion meets first."""
    n0 = rg.base.order

    @cache
    def fam(k, j):
        if j < 0 or j > n0 + k:
            return frozenset()
        if j == 0:
            return frozenset({0} if n0 + k == 1 else ())
        if k <= 1:
            return frozenset(int(h) for h in (hits0, hits1)[k] if bin(int(h)).count("1") == j)
        f1, f2 = fam(k - 1, j - 1), fam(k - 2, j - 1)
        if f1 and not f2 and j - 1 <= n0 + k - 2:
            raise RecurrenceAssumptionError(f"at prefix {k}, cardinality {j}")
        return frozenset({s | 1 << (n0 + k - 1) for s in f1} | {s | 1 << (n0 + k - 2) for s in f2})

    def outcome(i):
        try:
            return sorted(fam(rg.extension_length, i))
        except RecurrenceAssumptionError as exc:
            return str(exc)

    return [outcome(i) for i in range(n0 + rg.extension_length + 1)]


@pytest.mark.parametrize("seed", range(4))
def test_pendant_families_match_a_depth_first_recursion(seed):
    # dropping random sets of G(0) and G(1) plants refusals at several steps
    # at once, so the first one a depth-first recursion meets must be kept
    rng = random.Random(seed)
    bases = [build_family("complete", 1), build_family("path", 3), build_family("star", 3), build_family("wheel", 5)]
    refused = 0
    for base in bases:
        for root in base.vertices():
            hits = oracle.sweep_stack(realize_extension(RootedGraph(base, root, k)) for k in (0, 1))
            for m in range(2, 7):
                rg = RootedGraph(base, root, m)
                keep = rng.random()
                hits0, hits1 = (h[np.array([rng.random() < keep for _ in h], dtype=bool)] for h in hits.values())
                # every prefix of the walk, one cardinality at a time
                for k, (family, errors) in enumerate(formulas._pendant_families(rg, hits0, hits1)):
                    sizes = np.bitwise_count(family)
                    built = [
                        str(errors[j]).split(":")[0] if j in errors else family[sizes == j].tolist()
                        for j in range(base.order + k + 1)
                    ]
                    assert built == _depth_first_families(RootedGraph(base, root, k), hits0, hits1), (rg, k)
                    refused += len(errors)
    assert refused > 0


def test_path_recurrence_keeps_two_rows():
    # holding all 2000 rows of big ints peaked at about 128 MB
    tracemalloc.start()
    try:
        row = count_path_recurrence(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.counts == tuple(count_path_closed(2000, j) for j in range(1, 2001))
    assert peak < 2 * 2**20


def test_boxes_small_cases():
    assert boxes_brute(1, 0) == 1
    assert boxes_count(1, 0) == 1
    assert boxes_brute(2, 0) == 0
    assert boxes_brute(3, 2) == 3
    assert boxes_count(3, 2) == 3
    assert boxes_brute(4, 4) == 1


@given(st.integers(1, 9), st.integers(0, 9))
def test_boxes_enumeration_matches_binomial(n, j):
    assume(j <= n)
    assert boxes_brute(n, j) == boxes_count(n, j)


@given(st.integers(2, 14))
def test_path_row_total_is_fibonacci(n):
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    assert sum(count_path_closed(n, j) for j in range(1, n + 1)) == a
