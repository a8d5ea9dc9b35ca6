import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wcds.cli as cli
import wcds.frontier as frontier
import wcds.oracle as oracle
import wcds.verify as verify
from wcds.cli import run
from wcds.frontier import count_table_frontier
from wcds.graph import FAMILIES, build_family, family_label, family_order, family_start, make_graph
from wcds.oracle import DEFAULT_CAP, count_table
from wcds.verify import DEFAULT_SEED, METHODS, SUITES

ROOT = Path(__file__).resolve().parent.parent


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


def test_gamma_of_the_order_thirty_complete_graph_sweeps_one_layer(capsys):
    # 2**30 subsets under the hard cap; the layered minimum stops at size 1
    assert run(["gamma", "--family", "complete", "--n", "30", "--cap", "30", "--with-gamma"]) == 0
    assert capsys.readouterr().out == "gamma_w 1\ngamma 1\n"


def test_gamma_disconnected_input_fails_with_usage_status(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n3 4\n"))
    assert run(["gamma", "--input", "-"]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_enumerate_prints_sorted_sets(capsys):
    assert run(["enumerate", "--family", "path", "--n", "4", "--i", "2"]) == 0
    assert capsys.readouterr().out == "1 3\n2 3\n2 4\n"


def test_a_listing_above_the_bound_is_refused_before_any_tuple(capsys, monkeypatch):
    # K8 has C(8, 4) = 70 sets of size 4: listed under a bound of 70, refused under 69
    argv = ["enumerate", "--family", "complete", "--n", "8", "--i", "4"]
    monkeypatch.setattr(oracle, "LISTING_MAX", 70)
    assert run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 70
    monkeypatch.setattr(oracle, "LISTING_MAX", 69)
    monkeypatch.setattr(oracle, "_as_tuples", lambda *args: pytest.fail("tuples built"))
    assert run(argv) == 3
    assert capsys.readouterr() == ("", "error: more than 69 sets of size 4 to list, of C(8, 4) = 70; the listing bound is 69\n")


def test_the_benchmark_listings_stay_under_the_listing_bound(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for seed in (1, 2, 3):
        for command in workloads.graph_queries(seed, tmp_path):
            if command.kind == "enumerate":
                row = count_table(make_graph(*command.graph), command.graph[0])
                assert row[command.info["i"] - 1] <= oracle.LISTING_MAX, command.argv


def test_exactly_one_source_required(capsys, tmp_path):
    assert run(["gamma", "--family", "path"]) == 2
    assert run(["gamma"]) == 2
    f = tmp_path / "g.edges"
    f.write_text("1 2\n")
    assert run(["gamma", "--family", "path", "--n", "2", "--input", str(f)]) == 2
    assert run(["gamma", "--input", str(tmp_path / "missing.edges")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sub", (["gamma"], ["count"], ["enumerate", "--i", "2"]))
def test_n_without_family_is_refused(capsys, tmp_path, sub):
    # --n sizes a named family; an edge list has its own order, so --n beside --input is an error
    f = tmp_path / "g.edges"
    f.write_text("1 2\n2 3\n")
    assert run([*sub, "--input", str(f), "--n", "7"]) == 2
    assert capsys.readouterr() == ("", "error: --n needs --family\n")


def test_an_unsupported_method_is_a_usage_error(capsys, tmp_path):
    assert issubclass(verify.UnsupportedMethodError, ValueError)
    f = tmp_path / "g.edges"
    f.write_text("1 2\n2 3\n")
    assert run(["count", "--input", str(f), "--method", "formula"]) == 2
    assert capsys.readouterr() == ("", "error: no closed form covers the full table of G(n=3,m=2)\n")


@pytest.mark.parametrize(
    "text,message",
    (
        ("n 4 5\n1 2\n", "line 1: malformed order header"),
        ("1 -2\n", "line 1: negative label"),
        ("# only a comment\n", "no edges and no order header"),
        # with a header, labels are not renumbered: 0 lies outside 1..order
        ("n 4\n0 1\n", "edge (0, 1) outside 1..4"),
    ),
    ids=("malformed-header", "negative-label", "comment-only", "label-0-with-a-header"),
)
def test_a_malformed_edge_list_file_is_refused_with_its_reason(capsys, tmp_path, text, message):
    f = tmp_path / "g.edges"
    f.write_text(text)
    assert run(["count", "--input", str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: bad edge list: {message}\n")


def _least_refused_order():
    """The least order whose one-state DP table passes the DP's bound: no
    method admits a graph of this order or more."""
    n = 1
    while True:
        try:
            frontier._check_table(1, n, 0, 0)
        except oracle.CapacityError:
            return n
        n += 1


@pytest.mark.parametrize("header", ("", "n 500000\n"), ids=("labels", "header"))
@pytest.mark.parametrize("method", ("oracle", "frontier"))
def test_an_edge_list_past_every_bound_is_refused_as_it_is_read(capsys, tmp_path, header, method):
    # a path of order 500,000 is refused at its header, or without one at the
    # line whose label makes 25 distinct ones (the sweep's cap) or 11,585
    # (every method's bound), before the graph is built
    least = _least_refused_order()
    assert least == 11585
    f = tmp_path / "path.edges"
    f.write_text(header + "".join(f"{i} {i + 1}\n" for i in range(1, 500000)))
    tracemalloc.start()
    try:
        assert run(["count", "--input", str(f), "--method", method]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    if method == "oracle":
        order = 500000 if header else DEFAULT_CAP + 1
        hint = f"the sweep's hard limit is {oracle.HARD_CAP}" if header else f"raise the cap up to {oracle.HARD_CAP} to proceed"
        assert captured.err == (
            f"error: an input of order {order} or more is beyond the subset sweep: "
            f"order {order} exceeds the subset-sweep cap {DEFAULT_CAP} (2**{order} subsets); {hint}\n"
        )
        return
    order = 500000 if header else least
    words = (order + 1) * -(-order // 64)
    assert captured.err == (
        f"error: an input of order {order} or more is beyond every method: "
        f"step 0 of {order} holds 1 live DP states, {words} words, above the bound of {frontier.MAX_FRONTIER_WORDS}\n"
    )


def test_renumbered_labels_print_a_note_and_the_same_row(capsys, tmp_path):
    zero, one = tmp_path / "zero.edges", tmp_path / "one.edges"
    zero.write_text("0 1\n1 2\n")
    one.write_text("1 2\n2 3\n")
    assert run(["count", "--input", str(one)]) == 0
    expected = capsys.readouterr()
    assert expected.err == ""
    assert run(["count", "--input", str(zero)]) == 0
    assert capsys.readouterr() == (expected.out, "note: input labels renumbered to 1..3\n")


def test_python_dash_m_wcds_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "wcds", "--help"], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == cli._help(cli.COMMANDS)


def test_a_reader_closing_stdout_early_ends_with_status_141_and_no_stderr():
    # about 230 KB of sets, past the 64 KiB a pipe buffers, so a write fails
    # after the reader has gone
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "wcds", "enumerate", "--family", "path", "--n", "22", "--i", "14"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.readline() == b"1 2 3 4 5 6 7 9 11 13 15 17 19 21\n"
        child.stdout.close()
        assert (child.wait(), child.stderr.read()) == (141, b"")


def test_capacity_exit_status(capsys):
    assert run(["gamma", "--family", "path", "--n", "9", "--cap", "6"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "n, cap, hint",
    (
        (25, "24", "raise the cap up to 30 to proceed"),
        (30, "29", "raise the cap up to 30 to proceed"),
        (31, "24", "the sweep's hard limit is 30"),
        (31, "30", "the sweep's hard limit is 30"),
    ),
)
def test_the_cap_refusal_hints_at_a_raise_only_where_one_helps(capsys, n, cap, hint):
    # no cap sweeps an order above the hard limit, so none is suggested there
    assert run(["gamma", "--family", "path", "--n", str(n), "--cap", cap]) == 3
    assert capsys.readouterr() == ("", f"error: order {n} exceeds the subset-sweep cap {cap} (2**{n} subsets); {hint}\n")


@pytest.mark.parametrize(
    "argv,order",
    (
        (["gamma", "--family", "complete", "--n", "1000"], 1000),
        (["enumerate", "--family", "star", "--n", "24", "--i", "3"], 25),  # star(n) has n + 1 vertices
        (["count", "--family", "wheel", "--n", "25"], 25),
        (["count", "--family", "path", "--n", "25", "--method", "oracle"], 25),
    ),
)
def test_over_cap_family_is_refused_before_it_is_built(capsys, monkeypatch, argv, order):
    def no_build(*args):
        raise AssertionError("build_family called")

    monkeypatch.setattr(cli, "build_family", no_build)
    monkeypatch.setattr(verify, "build_family", no_build)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: order {order} exceeds the subset-sweep cap 24 (2**{order} subsets)" in captured.err


@pytest.mark.parametrize(
    "argv",
    (
        ["count", "--family", "complete", "--n", "600", "--method", "formula", "--i", "300"],
        ["count", "--family", "star", "--n", "40", "--method", "formula", "--format", "csv"],
        ["count", "--family", "path", "--n", "300", "--method", "formula", "--format", "json"],
        ["count", "--family", "path", "--n", "300", "--method", "recurrence", "--i", "200"],
        ["count", "--family", "wheel", "--n", "12", "--method", "formula"],
    ),
)
def test_formula_and_recurrence_counts_build_no_family_graph(capsys, monkeypatch, argv):
    # the rows equal those of the family's own family_rows
    family, n, method = argv[2], int(argv[4]), argv[6]
    (counts,) = verify.family_rows(family, [n], method)
    for module in (cli, verify):
        monkeypatch.setattr(module, "build_family", lambda *args: pytest.fail("build_family called"))
    assert run(argv) == 0
    out = capsys.readouterr().out
    if "--i" in argv:
        assert out == f"{counts[int(argv[-1]) - 1]}\n"
    else:
        fmt = argv[-1] if "--format" in argv else "md"
        assert out == cli._render_rows([(family_order(family, n), counts)], fmt, family_label(family, n))


@pytest.mark.parametrize("family, n", (("path", 20), ("cycle", 20), ("complete", 8), ("star", 19), ("wheel", 20)))
@pytest.mark.parametrize("fmt", ("md", "json"))
def test_frontier_counts_of_a_family_build_no_graph_and_run_no_greedy(capsys, monkeypatch, family, n, fmt):
    g = build_family(family, n)
    expected = cli._render_rows([(g.order, count_table_frontier(g))], fmt, family_label(family, n))

    def refused(*args):
        raise AssertionError("a family row built a graph or ran the greedy")

    for module, name in ((cli, "build_family"), (verify, "build_family"), (frontier, "_plan")):
        monkeypatch.setattr(module, name, refused)
    assert run(["count", "--family", family, "--n", str(n), "--method", "frontier", "--format", fmt]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize(
    "argv",
    (
        ["count", "--family", "complete", "--n", "2881", "--method", "formula"],
        ["count", "--family", "star", "--n", "1000000000", "--method", "formula", "--i", "2"],
        ["count", "--family", "path", "--n", "2881", "--method", "recurrence"],
        ["count", "--family", "wheel", "--n", "5000", "--method", "formula"],
        ["count", "--family", "wheel", "--n", "2881", "--method", "formula"],
    ),
)
def test_formula_and_recurrence_refuse_a_size_above_the_bound(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_family", lambda *args: pytest.fail("build_family called"))
    monkeypatch.setattr(verify, "build_family", lambda *args: pytest.fail("build_family called"))
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the rows to size ")
    assert captured.err.endswith(f" words, above the bound of {verify.MAX_ROW_WORDS}\n")


@pytest.mark.parametrize("n", (25, 26, 2000))
def test_the_stated_wheel_row_takes_no_cap(capsys, n):
    # the rim row comes from the frontier DP, so only MAX_ROW_WORDS bounds n,
    # not the default cap 24 (the rim of W_26 has order 25)
    assert run(["count", "--family", "wheel", "--n", str(n), "--method", "formula", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == ",".join(["n", *map(str, range(1, n + 1))])
    cells = row.split(",")
    assert cells[:2] == [str(n), "1"] and cells[-2:] == [str(n), "1"]


def test_formula_and_recurrence_refuse_an_uncovered_family_of_any_size(capsys):
    for family, method in (("cycle", "formula"), ("complete", "recurrence")):
        assert run(["count", "--family", family, "--n", "100000", "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: no " in captured.err


def test_table_refuses_an_over_cap_order_before_any_sweep(capsys, sweep_calls):
    # complete rows are swept, so --cap bounds their table; the DP rows read no cap
    assert run(["table", "--family", "complete", "--max-n", "11", "--cap", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order 11 exceeds the subset-sweep cap 10" in captured.err
    assert sweep_calls == []
    assert run(["table", "--family", "star", "--max-n", "10", "--cap", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "| 10 | " + " | ".join(map(str, count_table(build_family("star", 10)))) + " |"


@pytest.mark.parametrize(
    "argv,order,cap",
    (
        (["complete", "--max-n", "25"], 25, 24),
        (["star", "--max-n", "24"], 25, 24),  # star(n) has n + 1 vertices
        (["join", "--max-n", "13"], 26, 24),  # the join of two order-13 graphs
        (["corona_gamma", "--cap", "15"], 16, 15),  # corona(C4, P3)
    ),
)
def test_verify_refuses_an_over_cap_order_before_any_sweep(capsys, sweep_calls, argv, order, cap):
    assert run(["verify", "--suite", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"order {order} exceeds the subset-sweep cap {cap}" in captured.err
    assert sweep_calls == []


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


@pytest.mark.parametrize(
    "argv,message",
    (
        # --max-n 0 used to run the default size, and these sizes no records at all
        (["complete", "--max-n", "0"], "max_n must be at least 1 for suite complete, got 0"),
        (["complete", "--max-n", "-3"], "max_n must be at least 1 for suite complete, got -3"),
        (["wheel", "--max-n", "3"], "max_n must be at least 4 for suite wheel, got 3"),
        (["edge_deletion_bounds", "--max-n", "1"], "max_n must be at least 2 for suite edge_deletion_bounds, got 1"),
        (["join", "--random-count", "-1"], "random_count must be at least 0 for suite join, got -1"),
        # size flags the suite never reads
        (["corona_gamma", "--max-n", "5"], "suite corona_gamma takes no max_n"),
        (["extension_recurrence", "--max-n", "5"], "suite extension_recurrence takes no max_n"),
        (["path_table", "--random-count", "3"], "suite path_table takes no random_count"),
        (["structural", "--random-count", "0"], "suite structural takes no random_count"),
    ),
)
def test_verify_refuses_sizes_that_check_nothing(capsys, argv, message):
    assert run(["verify", "--suite", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("suite", [name for name, spec in SUITES.items() if spec.random_count is not None])
def test_verify_refuses_a_random_pool_above_its_bound(monkeypatch, capsys, suite):
    def no_draws(*args, **kwargs):
        raise AssertionError("a random instance was drawn")

    monkeypatch.setattr(verify, "_random_connected", no_draws)
    most = SUITES[suite].random_max
    assert run(["verify", "--suite", suite, "--random-count", str(most + 1)]) == 2
    captured = capsys.readouterr()
    message = f"random_count must be at most {most} for suite {suite}, got {most + 1}"
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_usage_errors_exit_with_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["count", "--family", "dodecahedron", "--n", "3"]) == 2
    assert run([]) == 2
    capsys.readouterr()
    # the hard limit holds for every subcommand, also where the cap bounds nothing
    for argv in (
        ["gamma", "--family", "path", "--n", "5"],
        ["verify", "--suite", "structural"],
        ["verify", "--suite", "edge_deletion_bounds"],
        ["count", "--family", "path", "--n", "5", "--method", "formula"],
        ["count", "--family", "path", "--n", "5", "--method", "recurrence"],
    ):
        assert run([*argv, "--cap", "31"]) == 2
        assert capsys.readouterr() == ("", "error: cap 31 exceeds the hard limit 30\n")
    # and so does the floor: a cap below 1 is a usage error, not an order above the cap
    for argv, cap in (
        (["gamma", "--family", "path", "--n", "5"], "-1"),
        (["gamma", "--family", "path", "--n", "5"], "0"),
        (["verify", "--suite", "structural", "--max-n", "3"], "0"),
        (["count", "--family", "path", "--n", "5", "--method", "formula"], "0"),
    ):
        assert run([*argv, "--cap", cap]) == 2
        assert capsys.readouterr() == ("", f"error: cap {cap} must be at least 1\n")


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


@pytest.mark.parametrize("fmt", ("md", "csv", "json"))
def test_table_bytes_equal_the_sweep_rows(capsys, monkeypatch, fmt):
    dp_rows = {}
    real = verify._frontier_rows

    def counted(plans):
        dp_rows[family] = len(plans)
        return real(plans)

    monkeypatch.setattr(verify, "_frontier_rows", counted)
    for family in FAMILIES:
        assert run(["table", "--family", family, "--max-n", "12", "--format", fmt]) == 0
        start = 4 if family == "wheel" else 1
        rows = [(n, oracle.count_table(build_family(family, n))) for n in range(start, 13)]
        assert capsys.readouterr().out == cli._render_rows(rows, fmt, family)
    # every path, cycle, star and wheel row comes from the DP, every complete row from the sweep
    assert dp_rows == {"path": 12, "cycle": 12, "star": 12, "wheel": 9}


def test_sparse_family_tables_build_no_graph_and_run_no_greedy(capsys, monkeypatch):
    expected = {}
    for family in ("path", "cycle", "star", "wheel"):
        assert run(["table", "--family", family, "--max-n", "14", "--format", "csv"]) == 0
        expected[family] = capsys.readouterr().out

    def refused(*args):
        raise AssertionError("a table row took a path its family does not take")

    monkeypatch.setattr(cli, "build_family", refused)
    monkeypatch.setattr(verify, "build_family", refused)
    monkeypatch.setattr(frontier, "_plan", refused)
    for family in ("path", "cycle", "star", "wheel"):
        assert run(["table", "--family", family, "--max-n", "14", "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected[family]
    monkeypatch.undo()
    # a complete table sweeps every row: no plan, no DP, one count_table call per row
    monkeypatch.setattr(frontier, "_plan", refused)
    monkeypatch.setattr(verify, "_frontier_rows", refused)
    calls = []
    monkeypatch.setattr(verify, "count_table", lambda g, cap: calls.append(g.order) or count_table(g, cap))
    for fmt in ("md", "csv", "json"):
        calls.clear()
        assert run(["table", "--family", "complete", "--max-n", "16", "--format", fmt]) == 0
        rows = [(n, count_table(build_family("complete", n))) for n in range(1, 17)]
        assert capsys.readouterr().out == cli._render_rows(rows, fmt, "complete")
        assert calls == list(range(1, 17))


@pytest.mark.parametrize("family, top", (("complete", 25),))
def test_table_over_the_cap_is_refused_before_any_row(capsys, monkeypatch, family, top):
    monkeypatch.setattr(verify, "_frontier_rows", lambda plans: pytest.fail("a row was counted"))
    monkeypatch.setattr(verify, "count_table", lambda g, cap: pytest.fail("a row was counted"))
    assert run(["table", "--family", family, "--max-n", str(top)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 25 exceeds the subset-sweep cap 24 (2**25 subsets); raise the cap up to 30 to proceed\n"


def _row_words(family, top):
    """The words ``family_rows`` counts for the table of ``family`` to ``top``."""
    start = family_start(family)
    return sum(family_order(family, n) * -(-family_order(family, n) // 64) for n in range(start, top + 1))


@pytest.mark.parametrize("family, top", (("path", 278), ("cycle", 278), ("star", 277), ("wheel", 278)))
def test_a_table_past_the_row_bound_is_refused_before_any_row(capsys, monkeypatch, family, top):
    # each row of order n holds n counts below 2^n; the table to top - 1 fits the bound
    assert _row_words(family, top - 1) <= verify.MAX_ROW_WORDS < _row_words(family, top)
    monkeypatch.setattr(verify, "_frontier_rows", lambda plans: pytest.fail("a row was counted"))
    monkeypatch.setattr(verify, "family_plan", lambda *a: pytest.fail("a row was planned"))
    assert run(["table", "--family", family, "--max-n", str(top)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    words = _row_words(family, top)
    assert captured.err == f"error: the rows to size {top} take up to {words} words, above the bound of {verify.MAX_ROW_WORDS}\n"


def test_a_table_to_a_billion_is_refused_with_empty_stdout(capsys):
    # the sizes are read one at a time, so the refused range is never held
    tracemalloc.start()
    try:
        assert run(["table", "--family", "path", "--max-n", "1000000000"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the rows to size 278 take up to {_row_words('path', 278)} words, above the bound of {verify.MAX_ROW_WORDS}\n"


def test_the_wheel_table_to_200_begins_with_the_table_to_20(capsys):
    # the DP rows need no cap: rows 4..20 of the table to 200 render to the
    # bytes of the table to 20, whose sha256 the golden corpus pins
    assert run(["table", "--family", "wheel", "--max-n", "200", "--format", "json"]) == 0
    rows = [(r["n"], r["counts"]) for r in json.loads(capsys.readouterr().out)["rows"]]
    assert [n for n, _ in rows] == list(range(4, 201))
    assert run(["table", "--family", "wheel", "--max-n", "20"]) == 0
    assert capsys.readouterr().out == cli._render_rows(rows[:17], "md", "wheel")
    golden = json.loads((ROOT / "tests" / "golden" / "stdout.json").read_text())["table --family wheel --max-n 20"]
    rendered = cli._render_rows(rows[:17], "md", "wheel").encode()
    assert hashlib.sha256(rendered).hexdigest() == golden["sha256"]
    n, counts = rows[-1]
    assert counts[0] == 1 and counts[-2:] == [n, 1]


def test_count_labels_its_row_by_order_and_table_by_size(capsys):
    # the star with 3 leaves has 4 vertices: count's row is 4, table's is 3
    assert run(["count", "--family", "star", "--n", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "| 4 | 1 | 3 | 4 | 1 |"
    assert run(["table", "--family", "star", "--max-n", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "| 3 | 1 | 3 | 4 | 1 |"
    assert run(["count", "--family", "star", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [{"n": 4, "counts": [1, 3, 4, 1]}]
    assert run(["table", "--family", "star", "--max-n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][-1] == {"n": 3, "counts": [1, 3, 4, 1]}


def test_a_raised_cap_prints_the_order_25_wheel_row(capsys):
    assert run(["table", "--family", "wheel", "--max-n", "25", "--cap", "30", "--format", "csv"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "25," + ",".join(map(str, count_table_frontier(build_family("wheel", 25))))


@pytest.mark.parametrize("family, top", (("path", 24), ("cycle", 24), ("star", 23), ("wheel", 24)))
def test_table_rows_equal_one_graph_dps_to_order_24(capsys, family, top):
    # a table's DP rows come from one pass, each resumed from the steps it
    # shares with the row before; a fresh one-graph DP and, to order 16,
    # the sweep referee each row
    start = 4 if family == "wheel" else 1
    rows = []
    for n in range(start, top + 1):
        g = build_family(family, n)
        row = count_table_frontier(g)
        if g.order <= 16:
            assert row == oracle.count_table(g)
        rows.append((n, row))
    for fmt in ("md", "csv", "json"):
        assert run(["table", "--family", family, "--max-n", str(top), "--cap", "24", "--format", fmt]) == 0
        assert capsys.readouterr().out == cli._render_rows(rows, fmt, family)


@pytest.mark.parametrize("argv", (["--family", "wheel", "--n", "11"], ["--family", "star", "--n", "6", "--i", "3"]))
def test_count_frontier_method_agrees_with_oracle(capsys, argv):
    assert run(["count", *argv, "--method", "frontier", "--format", "json"]) == 0
    frontier_out = capsys.readouterr().out
    assert run(["count", *argv, "--method", "oracle", "--format", "json"]) == 0
    assert frontier_out == capsys.readouterr().out


# The argparse parser that ``cli.COMMANDS`` replaced, kept verbatim as the
# reference of the differential checks below.
def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES, help="named graph family")
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--input", metavar="FILE", help="edge-list file, '-' for stdin")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="oracle order cap override")
    p.add_argument(
        "--format",
        choices=("md", "csv", "json"),
        default="md",
        dest="fmt",
        help="output format for tables and reports",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcds",
        description="Count, enumerate and verify weakly connected dominating sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gamma", help="weakly connected domination number")
    _add_source_args(p)
    _add_common_args(p)
    p.add_argument("--with-gamma", action="store_true", help="also print the domination number")

    p = sub.add_parser("count", help="count sets of one cardinality, or the full table")
    _add_source_args(p)
    _add_common_args(p)
    p.add_argument("--i", type=int, default=None, help="cardinality; omit for the full table")
    p.add_argument(
        "--method",
        choices=METHODS,
        default="oracle",
        help="counting method: oracle (subset sweep), frontier (frontier DP); "
        "formula and recurrence need a recognized family",
    )

    p = sub.add_parser("enumerate", help="list every set of one cardinality")
    _add_source_args(p)
    _add_common_args(p)
    p.add_argument("--i", type=int, required=True, help="cardinality")

    p = sub.add_parser("table", help="count tables for a family over a range of sizes")
    _add_common_args(p)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--max-n", type=int, default=10, dest="max_n")

    p = sub.add_parser("verify", help="run a named verification suite")
    _add_common_args(p)
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--random-count", type=int, default=None, dest="random_count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _quiet(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _reference(argv):
    """The reference's attributes for ``argv``, or its (exit status, stdout) when it refuses.
    Besides abbreviations (see ``_argvs``), one difference is deliberate: gamma and enumerate
    take no --format, which they never read, so a --format there is a usage error."""
    if argv[:1] in (["gamma"], ["enumerate"]) and any(t.partition("=")[0] == "--format" for t in argv):
        return 2, ""
    result, out, _ = _quiet(lambda: vars(_build_parser().parse_args(argv)))
    if not isinstance(result, dict):
        return result, out
    if result["subcommand"] in ("gamma", "enumerate"):
        del result["fmt"]
    return result


def _parsed(argv):
    """``cli._parse``'s attributes for ``argv``, or ``run``'s (exit status, stdout) when it refuses."""
    try:
        return vars(cli._parse(argv))
    except ValueError:
        status, out, err = _quiet(lambda: run(argv))
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return status, out


def _readme_command_lines():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line\n\n```\n")[1].split("```")[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


_CORPUS = (
    ["count", "--family=cycle", "--n=12", "--i=6"],
    ["verify", "--suite=join", "--seed=-5", "--format=json", "--max-n=4", "--random-count=0"],
    ["gamma", "--family", "path", "--n", "5", "--cap", "-1"],
    ["count", "--family", "path", "--n", "-3"],
    ["gamma", "--input", "-", "--with-gamma", "--with-gamma"],
    ["enumerate", "--input=-", "--i", "2"],
    ["table", "--family", "path", "--max-n", "3", "--family", "star", "--max-n", "4"],
    ["count", "--family", "path", "--n", "5", "--method", "formula", "--method", "oracle", "--format", "csv"],
    ["gamma", "--input", "-1.5"],
    ["gamma", "--input", "-x y"],
    ["gamma", "--input", ""],
    ["count", "--family", "path", "--n", " 7 ", "--i", "+2"],
    # refused by both
    [],
    ["frobnicate"],
    ["--family", "path"],
    ["gamma", "--bogus"],
    ["gamma", "--n"],
    ["gamma", "--n", "--family", "path"],
    ["gamma", "--input", "-x"],
    ["gamma", "--n", "-1.5"],
    ["gamma", "--n", "five"],
    ["gamma", "--n="],
    ["gamma", "--with-gamma=yes"],
    ["gamma", "--with-gamma="],
    ["gamma", "--family", "dodecahedron"],
    ["gamma", "--format", "xml"],
    ["gamma", "stray"],
    ["gamma", "--family", "path", "5"],
    ["enumerate", "--family", "path", "--n", "4"],
    ["table", "--max-n", "4"],
    ["verify"],
    ["verify", "--suite", "join", "--n", "3"],
    ["table", "--family", "path", "--i", "3"],
)


def test_readme_and_corpus_command_lines_parse_as_the_reference_does():
    lines = _readme_command_lines()
    assert len(lines) == 9 and all(lines)
    for argv in (*lines, *_CORPUS):
        assert _parsed(argv) == _reference(argv), argv


def test_benchmark_command_lines_parse_as_the_reference_does(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for make in workloads.WORKLOADS.values():
        for command in make(1, tmp_path):
            parsed = _parsed(command.argv)
            assert isinstance(parsed, dict) and parsed == _reference(command.argv), command.argv


_OPTIONS = {option: spec for _, _, options in cli.COMMANDS.values() for option, spec in options.items()}


def _valid(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.integers(-3, 30).map(str) if kind is int else st.sampled_from(["-", "g.edges"])


@st.composite
def _argvs(draw):
    """Mostly well-formed command lines: a subcommand's own options and values,
    with some junk values, options of other subcommands, missing values and
    stray tokens."""
    sub = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    known = cli.COMMANDS.get(sub, (None, None, {}))[2]
    junk = st.one_of(st.sampled_from(["-", "-1", "", "x"]), st.text("abz019_.-= ", max_size=5))
    argv = [sub]
    for option, (kind, _, required, _) in known.items():
        if required and draw(st.integers(0, 5)):
            argv += [option, draw(_valid(kind))]
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(sorted(known) * 3 + sorted(_OPTIONS)))
        kind = _OPTIONS[option][0]
        value = draw(st.one_of(_valid(kind), junk) if draw(st.integers(0, 3)) == 0 else _valid(kind))
        form = draw(st.sampled_from(("next",) * 5 + ("=",) * 3 + ("missing", "stray")))
        if kind is bool and form in ("next", "="):
            form = draw(st.sampled_from(("missing",) * 4 + (form,)))
        argv += {"next": [option, value], "=": [f"{option}={value}"], "missing": [option], "stray": [value]}[form]
    # the reference reads '--' as the end of options and a prefix of an option
    # name as that option; abbreviations are refused on purpose
    assume("--" not in argv)
    names = [t.partition("=")[0] for t in argv if t.startswith("--")]
    assume(not any(t not in known and any(o.startswith(t) for o in known) for t in names))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_parse_equals_the_reference_or_both_refuse(argv):
    assert _parsed(argv) == _reference(argv)


@pytest.mark.parametrize(
    "argv,near",
    (
        (["gamma", "--family", "path", "--n", "5", "--i", "3"], "--input"),
        (["verify", "--suite", "path_table", "--s", "3"], "--suite or --seed"),
        (["table", "--fam=path"], "--family"),
    ),
)
def test_abbreviated_options_are_refused(capsys, argv, near):
    # the reference read the first --i as --input, so the source check failed far from the typo
    assert run(argv) == 2
    option = argv[-1 if "=" in argv[-1] else -2].partition("=")[0]
    message = f"unknown option {option} for {argv[0]}; options are not abbreviated, did you mean {near}?"
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", (["--help"], ["-h"], *([s, "--help"] for s in cli.COMMANDS), ["gamma", "--n", "5", "-h"]))
def test_help_lists_every_option_with_its_help_and_choices(capsys, argv):
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: wcds SUBCOMMAND")
    subs = list(cli.COMMANDS) if argv[0].startswith("-") else [argv[0]]
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("wcds ")] == [f"wcds {s}" for s in subs]
    for sub in subs:
        _, about, options = cli.COMMANDS[sub]
        section = out.split(f"\nwcds {sub}: ")[1].split("\n\n")[0].splitlines()
        assert section[0] == about
        assert [line.split()[0] for line in section[1:]] == list(options)
        for line, (kind, default, required, text) in zip(section[1:], options.values()):
            assert text in line
            assert not isinstance(kind, tuple) or "{" + ",".join(kind) + "}" in line
            assert ("(required)" in line) == required


def _flag_cells(kind, default, required):
    value = ", ".join(kind) if isinstance(kind, tuple) else {bool: "flag", int: "integer", str: "file"}[kind]
    return value, "—" if default is None or kind is bool else str(default), "yes" if required else "no"


def test_readme_flag_table_lists_exactly_the_options_of_the_cli():
    text = (ROOT / "README.md").read_text()
    rows = text.split("| option | subcommands | value | default | required | bound |\n| --- | --- | --- | --- | --- | --- |\n")[1]
    # the largest random pool of the join suites and of the extension suites, one each
    pools = [{s.random_max for name, s in SUITES.items() if name.startswith(kind)} for kind in ("join", "extension")]
    assert [len(pool) for pool in pools] == [1, 1] and sum(s.random_max is not None for s in SUITES.values()) == 5
    # the numbers each row's bound quotes, besides its exit statuses, and the constants they are
    quoted = {
        ("--n", "gamma"): [DEFAULT_CAP, verify.MAX_ROW_WORDS],
        ("--input", "gamma"): [DEFAULT_CAP, _least_refused_order()],
        ("--cap", "gamma"): [1, oracle.HARD_CAP],
        ("--i", "enumerate"): [oracle.LISTING_MAX],
        ("--method", "count"): [frontier.MAX_FRONTIER_WORDS],
        ("--max-n", "table"): [verify.MAX_ROW_WORDS],
        ("--max-n", "verify"): [verify._DENSE_MAX_ORDER],
        ("--random-count", "verify"): [pool.pop() for pool in pools],
    }
    listed = {}
    for row in rows.split("\n\n")[0].splitlines():
        option, subs, *cells, bound = (cell.strip() for cell in row.strip("|").split("|"))
        assert re.search(r"exit [23]", bound), row
        numbers = [int(x) for x in re.findall(r"\d+", re.sub(r"exit [23]", "", bound))]
        assert numbers == quoted.pop((option.strip("`"), subs.split(", ")[0]), []), row
        for sub in subs.split(", "):
            assert (sub, option.strip("`")) not in listed, row
            listed[sub, option.strip("`")] = tuple(cells)
    assert listed == {
        (sub, option): _flag_cells(*spec[:3])
        for sub, (_, _, options) in cli.COMMANDS.items()
        for option, spec in options.items()
    }
    assert not quoted, quoted
