import io
import json

import pytest

import wcds.cli as cli
import wcds.oracle as oracle
import wcds.verify as verify
from wcds.cli import run
from wcds.frontier import count_table_frontier
from wcds.graph import FAMILIES, build_family
from wcds.verify import SUITES


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


@pytest.mark.parametrize(
    "argv,order",
    (
        (["gamma", "--family", "complete", "--n", "1000"], 1000),
        (["enumerate", "--family", "star", "--n", "24", "--i", "3"], 25),  # star(n) has n + 1 vertices
        (["count", "--family", "wheel", "--n", "25"], 25),
        (["count", "--family", "path", "--n", "25", "--method", "frontier"], 25),
    ),
)
def test_over_cap_family_is_refused_before_it_is_built(capsys, monkeypatch, argv, order):
    def no_build(*args):
        raise AssertionError("build_family called")

    monkeypatch.setattr(cli, "build_family", no_build)
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
    # the rows equal those of the built graph's table_by_method
    n, method = int(argv[4]), argv[6]
    g = build_family(argv[2], n)
    monkeypatch.setattr(cli, "build_family", lambda *args: pytest.fail("build_family called"))
    assert run(argv) == 0
    out = capsys.readouterr().out
    counts = verify.table_by_method(g, method)
    if "--i" in argv:
        assert out == f"{counts[int(argv[-1]) - 1]}\n"
    else:
        assert out == cli._render_rows([(g.order, counts)], argv[-1] if "--format" in argv else "md", g.label())


@pytest.mark.parametrize(
    "argv",
    (
        ["count", "--family", "complete", "--n", "2001", "--method", "formula"],
        ["count", "--family", "star", "--n", "1000000000", "--method", "formula", "--i", "2"],
        ["count", "--family", "path", "--n", "2001", "--method", "recurrence"],
        ["count", "--family", "wheel", "--n", "5000", "--method", "formula"],
    ),
)
def test_formula_and_recurrence_refuse_a_size_above_the_bound(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_family", lambda *args: pytest.fail("build_family called"))
    monkeypatch.setattr(verify, "build_family", lambda *args: pytest.fail("build_family called"))
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds {verify.FORMULA_MAX_N}, the largest the closed forms and the recurrence evaluate" in captured.err


def test_formula_and_recurrence_refuse_an_uncovered_family_of_any_size(capsys):
    for family, method in (("cycle", "formula"), ("complete", "recurrence")):
        assert run(["count", "--family", family, "--n", "100000", "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: no " in captured.err


def test_table_refuses_an_over_cap_order_before_any_sweep(capsys, sweep_calls):
    assert run(["table", "--family", "star", "--max-n", "10", "--cap", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order 11 exceeds the subset-sweep cap 10" in captured.err
    assert sweep_calls == []


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
    dp_rows = []
    real = cli._frontier_rows

    def counted(planned):
        dp_rows.extend(g.family for g, _ in planned)
        return real(planned)

    monkeypatch.setattr(cli, "_frontier_rows", counted)
    for family in FAMILIES:
        assert run(["table", "--family", family, "--max-n", "12", "--format", fmt]) == 0
        start = 4 if family == "wheel" else 1
        rows = [(n, oracle.count_table(build_family(family, n)).counts) for n in range(start, 13)]
        assert capsys.readouterr().out == cli._render_rows(rows, fmt, family)
    # the DP takes a row when order * 2^w * Bell(w) < 2^order: every path but
    # P2, cycles of order 1 and 6+, stars of order 3+, wheels of order 9+;
    # complete graphs only at order 1, width 0, and sweep every other row
    assert {f: dp_rows.count(f) for f in FAMILIES} == {
        "path": 11, "cycle": 8, "complete": 1, "star": 11, "wheel": 4,
    }


@pytest.mark.parametrize("family, top", (("path", 24), ("cycle", 24), ("star", 23), ("wheel", 24)))
def test_table_rows_equal_one_graph_dps_to_order_24(capsys, family, top):
    # a table's DP rows come from one pass, each resumed from the steps it
    # shares with the row before; a fresh one-graph DP and, to order 16,
    # the sweep referee each row
    start = 4 if family == "wheel" else 1
    rows = []
    for n in range(start, top + 1):
        g = build_family(family, n)
        row = count_table_frontier(g).counts
        if g.order <= 16:
            assert row == oracle.count_table(g).counts
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
