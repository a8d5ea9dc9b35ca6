import json

import pytest

from wcds import (
    CapacityError,
    CheckRecord,
    UnsupportedMethodError,
    VerificationReport,
    build_family,
    cross_check,
    make_graph,
    table_by_method,
    verify_formula_suite,
    verify_structural,
    verify_path_table,
    verify_cycle_table,
)
from wcds import verify
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
        # the order-8 tables hold 2**28 entries per array, several GiB in all
        assert k < 8, f"_dense_tables({k}) reached"
        return real(k)

    monkeypatch.setattr(verify, "_dense_tables", guarded)
    with pytest.raises(CapacityError, match=r"order 8 .* 6979321856 bytes"):
        verify_structural(8)
    with pytest.raises(CapacityError, match=r"order 8 .* 6979321856 bytes"):
        verify_formula_suite("edge_deletion_bounds", max_n=8)
    for suite in ("structural", "edge_deletion_bounds"):
        assert run(["verify", "--suite", suite, "--max-n", "8"]) == 3
        assert capsys.readouterr().out == ""


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


def test_cross_check_path_three_ways():
    r = cross_check(build_family("path", 6), ("oracle", "closed_form", "recurrence"))
    assert r.all_passed()
    assert len(r.records) == 6


def test_cross_check_cycle_oracle_row():
    r = cross_check(build_family("cycle", 7), ("oracle",))
    assert [rec.oracle_value for rec in r.records] == [0, 0, 7, 28, 21, 7, 1]


def test_cross_check_rejects_unrecognized_family():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    with pytest.raises(UnsupportedMethodError):
        cross_check(g, ("oracle", "closed_form"))
    with pytest.raises(UnsupportedMethodError):
        table_by_method(build_family("cycle", 5), "recurrence")


def test_table_by_method_wheel_wires_its_own_rim():
    row = table_by_method(build_family("wheel", 5), "closed_form")
    assert row == (1, 10, 10, 5, 1)


def test_report_serializations():
    r = verify_formula_suite("complete", max_n=3)
    payload = json.loads(r.to_json())
    assert payload["suite"] == "complete"
    assert payload["failures"] == 0
    assert "wall_time_s" not in payload
    assert "wall_time_s" in json.loads(r.to_json(include_wall_time=True))
    csv_text = r.to_csv()
    assert csv_text.splitlines()[0] == "key,source,claimed,exhaustive,passed,detail"
    assert len(csv_text.splitlines()) == len(r.records) + 1
    assert "All checks passed." in r.to_markdown()


def test_markdown_shows_failing_rows():
    r = verify_formula_suite("boxes", max_n=1)
    assert "| boxes n=1 j=0 |" in r.to_markdown()


def test_report_tallies_are_validated():
    rec = CheckRecord("k", "s", 1, 1, True)
    with pytest.raises(ValueError):
        VerificationReport("x", (rec,), passes=0, failures=1, skipped=0, wall_time=0.0)
