"""Acceptance gate: fifteen numbered checks, exact integer equality only.

Each check pits a stated identity or structural property against the
exhaustive counter at the stated sizes. Three stated identities are wrong on
concrete instances: the join composition, the wheel composition, and one
boundary cell of the ball-arrangement identity. The package keeps them as
stated, and ``wcds verify`` reports them failing with exit status 1. Their
criteria (6, 7 and 13) pin the reproduction's finding instead of the
statement: the exact counterexamples, and the corrected rule holding on every
instance. See the README for the analysis of each refuted identity.
"""

import ast
from functools import lru_cache
from math import comb

from wcds import (
    DEFAULT_SEED,
    build_family,
    count_table,
    dominating_counts,
    verify_formula_suite,
)
from wcds.verify import _join_instances


@lru_cache(maxsize=None)
def _suite(name, **kwargs):
    return verify_formula_suite(name, **kwargs)


def _digest(report, limit=6):
    lines = [f"{report.failures} of {len(report.records)} checks failed:"]
    for rec in report.failing()[:limit]:
        lines.append(f"  {rec.key}: claimed {rec.claimed_value}, exhaustive {rec.oracle_value}")
        if rec.detail:
            lines.append(f"    {rec.detail}")
    if report.failures > limit:
        lines.append(f"  ... and {report.failures - limit} more")
    return "\n".join(lines)


def test_c01_path_reference_table_four_ways():
    r = _suite("path_table", max_n=10)
    assert len(r.records) == 55
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c02_cycle_reference_table():
    r = _suite("cycle_table", max_n=14)
    rows = [rec for rec in r.records if rec.source == "reference row"]
    assert len(rows) == 105
    assert all(rec.passed for rec in rows), _digest(r)


def test_c03_path_closed_form_to_twenty():
    r = _suite("path_table", max_n=20)
    assert len(r.records) == 210
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c04_cycle_top_cells_and_shift_to_twenty():
    r = _suite("cycle_table", max_n=20)
    tops = [rec for rec in r.records if rec.source == "top-cell closed form"]
    shifts = [rec for rec in r.records if rec.source == "one-step shift identity"]
    assert len(tops) == 66 and len(shifts) == 14
    assert all(rec.passed for rec in tops + shifts), _digest(r)


def test_c05_half_order_domination_numbers():
    r = _suite("gamma_path_cycle", max_n=20)
    assert len(r.records) == 40
    ok = r.all_passed()
    assert ok, _digest(r)


def _join_row(one_g, one_h, n1, n2):
    """Composition row for the join of an order-n1 and an order-n2 part:
    one-part terms from the given per-cardinality counts (index i - 1), plus
    every split with at least one vertex on each side."""
    row = []
    for i in range(1, n1 + n2 + 1):
        one_part = (one_g[i - 1] if i <= n1 else 0) + (one_h[i - 1] if i <= n2 else 0)
        cross = sum(comb(n1, i1) * comb(n2, i - i1) for i1 in range(1, i))
        row.append(one_part + cross)
    return tuple(row)


def test_c06_join_count_composition():
    # The stated composition takes its one-part terms from weakly connected
    # counts and is refuted by the sweep; with dominating-set counts it holds.
    r = _suite("join")
    instances = list(_join_instances(5, 20, DEFAULT_SEED))
    assert [key for key, _, _ in instances] == [rec.key for rec in r.records]
    assert len(r.records) == 120
    predicted = set()
    for (key, g, h), rec in zip(instances, r.records):
        stated = _join_row(count_table(g).counts, count_table(h).counts, g.order, h.order)
        corrected = _join_row(dominating_counts(g), dominating_counts(h), g.order, h.order)
        assert ast.literal_eval(rec.claimed_value) == stated, key
        assert ast.literal_eval(rec.oracle_value) == corrected, key
        if stated != corrected:
            predicted.add(key)
    assert {rec.key for rec in r.failing()} == predicted, _digest(r)
    # every per-cardinality diagnosis reports a match, so none reads "still off"
    diagnoses = [part for rec in r.failing() for part in rec.detail.split("; ")]
    assert all(part.endswith("(matches)") for part in diagnoses), _digest(r)

    # smallest clash, by hand: a 4-path has 3 weakly connected pairs but 4
    # dominating pairs, and a single vertex joined to it adds 4 cross pairs
    p4 = build_family("path", 4)
    assert count_table(p4).count(2) == 3 and dominating_counts(p4)[1] == 4
    (clash,) = [rec for rec in r.records if rec.key == "P1+P4"]
    assert not clash.passed
    assert ast.literal_eval(clash.claimed_value)[1] == 0 + 3 + 4
    assert ast.literal_eval(clash.oracle_value)[1] == 0 + 4 + 4
    assert clash.detail == (
        "i=2: stated 7, exhaustive 8, dominating-set one-part terms give 8 (matches)"
    )


def test_c07_wheel_count_composition():
    # The stated wheel rule inherits the join's weakly connected hub-free
    # term and is refuted by the sweep; with dominating rim sets it holds.
    r = _suite("wheel")
    by_key = {rec.key: rec for rec in r.records}
    assert len(r.records) == len(by_key) == 99
    predicted = set()
    for n in range(4, 15):
        rim = build_family("cycle", n - 1)
        wcds_rim = count_table(rim)
        dom_rim = dominating_counts(rim)
        for i in range(1, n + 1):
            key = f"wheel n={n} i={i}"
            if i == 1:
                stated, corrected = 1, dom_rim[0] + 1
            else:
                hub_sets = comb(n - 1, i - 1)
                stated = wcds_rim.count(i) + hub_sets
                corrected = (dom_rim[i - 1] if i <= n - 1 else 0) + hub_sets
            rec = by_key[key]
            assert rec.claimed_value == stated, key
            assert rec.oracle_value == corrected, key
            if stated != corrected:
                predicted.add(key)
    assert {rec.key for rec in r.failing()} == predicted, _digest(r)
    assert all(rec.detail.endswith("(matches exhaustive)") for rec in r.failing()), _digest(r)

    # every vertex of the order-4 wheel is universal, not just the hub; the
    # 6-cycle rim has no weakly connected pair but 3 dominating (opposite) pairs
    for key, claimed, exhaustive in (("wheel n=4 i=1", 1, 4), ("wheel n=7 i=2", 6, 9)):
        rec = by_key[key]
        assert not rec.passed
        assert (rec.claimed_value, rec.oracle_value) == (claimed, exhaustive)


def test_c08_corona_domination_number():
    r = _suite("corona_gamma")
    assert len(r.records) == 15
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c09_join_domination_number():
    r = _suite("join_gamma")
    assert len(r.records) == 120
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c10_extension_recurrence():
    r = _suite("extension_recurrence")
    assert len(r.records) > 400
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c11_extension_constructed_families():
    r = _suite("extension_constructive")
    assert len(r.records) == len(_suite("extension_recurrence").records)
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c12_extension_domination_shift_fully_flagged():
    # the shift formula is allowed to miss; every miss must carry both
    # root-membership flags and both resulting predictions, so that no
    # failure is left undiagnosed
    r = _suite("extension_gamma")
    assert len(r.records) == len(_suite("extension_recurrence").records)
    unexplained = [
        rec
        for rec in r.failing()
        if "weakly connected dominating set:" not in rec.detail
        or "minimum dominating set:" not in rec.detail
        or "predicts" not in rec.detail
    ]
    assert not unexplained, _digest(r)


def test_c13_ball_arrangement_identity():
    # For n >= 2 the empty arrangement leaves adjacent boxes empty, and for
    # j >= 1 the identity is the path closed form, so the only clash is the
    # empty arrangement of a single box against the empty set of a 1-path.
    r = _suite("boxes", max_n=15)
    assert len(r.records) == sum(n + 1 for n in range(1, 16))
    assert [rec.key for rec in r.failing()] == ["boxes n=1 j=0"], _digest(r)
    (clash,) = r.failing()
    assert (clash.claimed_value, clash.oracle_value) == (1, 0)
    assert clash.detail == "occupancy enumeration 1, binomial 1, path sets 0"


def test_c14_upward_closure_and_domination_implication():
    r = _suite("structural", max_n=7)
    assert len(r.records) == 13
    ok = r.all_passed()
    assert ok, _digest(r)


def test_c15_edge_deletion_stability_window():
    r = _suite("edge_deletion_bounds", max_n=7)
    assert r.skipped > 0
    ok = r.all_passed()
    assert ok, _digest(r)
