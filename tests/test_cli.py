import io
import json
from functools import lru_cache

import pytest

import wcds.oracle as oracle
from wcds.cli import run


def test_count_single_cell(capsys):
    assert run(["count", "--family", "cycle", "--n", "12", "--i", "6"]) == 0
    assert capsys.readouterr().out == "62\n"


def test_count_full_row_markdown(capsys):
    assert run(["count", "--family", "path", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2] == "| 4 |  | 3 | 4 | 1 |"


def test_count_formula_method_agrees_with_oracle(capsys):
    run(["count", "--family", "star", "--n", "4", "--method", "formula", "--format", "csv"])
    formula = capsys.readouterr().out
    run(["count", "--family", "star", "--n", "4", "--method", "oracle", "--format", "csv"])
    assert formula == capsys.readouterr().out


def test_count_recurrence_rejects_non_paths(capsys):
    assert run(["count", "--family", "cycle", "--n", "5", "--method", "recurrence"]) == 2
    assert "error:" in capsys.readouterr().err


def test_table_reproduces_reference_layout(capsys):
    assert run(["table", "--family", "path", "--max-n", "3"]) == 0
    assert capsys.readouterr().out == (
        "| n \\ j | 1 | 2 | 3 |\n"
        "| --- | --- | --- | --- |\n"
        "| 1 | 1 |  |  |\n"
        "| 2 | 2 | 1 |  |\n"
        "| 3 | 1 | 3 | 1 |\n"
    )


def test_table_csv_keeps_explicit_zeros(capsys):
    run(["table", "--family", "path", "--max-n", "4", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,1,2,3,4"
    assert lines[4] == "4,0,3,4,1"


def test_table_json_row_objects(capsys):
    run(["table", "--family", "cycle", "--max-n", "4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "cycle"
    assert payload["rows"][3] == {"n": 4, "counts": [0, 6, 4, 1]}


def test_gamma_with_both_numbers(capsys):
    assert run(["gamma", "--family", "wheel", "--n", "9", "--with-gamma"]) == 0
    assert capsys.readouterr().out == "gamma_w 1\ngamma 1\n"


def test_gamma_disconnected_input_fails_with_usage_status(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n3 4\n"))
    assert run(["gamma", "--input", "-"]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_enumerate_prints_sorted_sets(capsys):
    assert run(["enumerate", "--family", "path", "--n", "4", "--i", "2"]) == 0
    assert capsys.readouterr().out == "1 3\n2 3\n2 4\n"


def test_exactly_one_source_required(capsys, tmp_path):
    assert run(["gamma", "--family", "path"]) == 2
    assert run(["gamma"]) == 2
    f = tmp_path / "g.edges"
    f.write_text("1 2\n")
    assert run(["gamma", "--family", "path", "--n", "2", "--input", str(f)]) == 2
    assert run(["gamma", "--input", str(tmp_path / "missing.edges")]) == 2
    capsys.readouterr()


def test_capacity_exit_status(capsys):
    assert run(["gamma", "--family", "path", "--n", "9", "--cap", "6"]) == 3
    capsys.readouterr()


def test_table_refuses_an_over_cap_order_before_any_sweep(capsys, monkeypatch):
    calls = []
    real = oracle.sweep_counts
    monkeypatch.setattr(oracle, "sweep_counts", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    # an empty count cache, so rows cached by other tests would sweep too
    fresh = lru_cache(maxsize=None)(oracle._count_table_cached.__wrapped__)
    monkeypatch.setattr(oracle, "_count_table_cached", fresh)
    assert run(["table", "--family", "star", "--max-n", "10", "--cap", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order 11 exceeds the subset-sweep cap 10" in captured.err
    assert calls == []


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("WCDS_ORACLE_CAP", "6")
    assert run(["gamma", "--family", "path", "--n", "9"]) == 3
    monkeypatch.setenv("WCDS_ORACLE_CAP", "not-a-number")
    assert run(["gamma", "--family", "path", "--n", "9"]) == 2
    capsys.readouterr()


def test_verify_exit_reflects_suite_outcome(capsys):
    assert run(["verify", "--suite", "path_table", "--max-n", "4"]) == 0
    assert run(["verify", "--suite", "wheel", "--max-n", "7"]) == 1
    capsys.readouterr()
    # the refuted join composition stays red at the command line
    assert run(["verify", "--suite", "join", "--max-n", "4", "--random-count", "0"]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| P1+P4 |")]
    assert len(rows) == 1 and "stated 7, exhaustive 8" in rows[0]


def test_verify_json_is_machine_readable(capsys):
    assert run(["verify", "--suite", "boxes", "--max-n", "2", "--format", "json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["failures"] == 1
    assert "wall time" in captured.err


def test_usage_errors_exit_with_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["count", "--family", "dodecahedron", "--n", "3"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_wheel_table_starts_at_four(capsys):
    assert run(["table", "--family", "wheel", "--max-n", "3"]) == 2
    assert run(["table", "--family", "wheel", "--max-n", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("4,")


def test_wheel_formula_row_is_stated_with_a_note(capsys):
    # the stated wheel composition is wrong at n = 7, i = 2 (6, the sweep gives 9):
    # stdout keeps the stated row, stderr points at the suite that refutes it
    assert run(["count", "--family", "wheel", "--n", "7", "--method", "formula"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "| n \\ j | 1 | 2 | 3 | 4 | 5 | 6 | 7 |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| 7 | 1 | 6 | 29 | 35 | 21 | 7 | 1 |\n"
    )
    assert "wcds verify --suite wheel" in captured.err
    assert run(["count", "--family", "wheel", "--n", "7", "--method", "formula", "--i", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "6\n"
    assert "wcds verify --suite wheel" in captured.err
    run(["count", "--family", "wheel", "--n", "7"])
    run(["count", "--family", "star", "--n", "4", "--method", "formula"])
    assert capsys.readouterr().err == ""
