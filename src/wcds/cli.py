"""Command-line front end.

Five subcommands: gamma, count, enumerate, table, verify. Graphs come
either from a named family (--family with --n) or from an edge-list file
(--input, "-" for stdin). All data goes to stdout and is byte-stable for
fixed arguments and seed; wall-clock timings go to stderr only.

Exit status: 0 success / all checks pass, 1 verification failure, 2 usage
or input error, 3 order cap or frontier-width bound exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .frontier import _frontier_rows, frontier_order, projected_states
from .graph import FAMILIES, Graph, build_family, family_label, family_order, read_edge_list
from .oracle import (
    CapacityError,
    DEFAULT_CAP,
    check_cap,
    check_hard_limit,
    count_table,
    enumerate_wcds,
    gamma,
    gamma_w,
)
from .verify import (
    DEFAULT_SEED,
    METHODS,
    SUITES,
    UnsupportedMethodError,
    family_table,
    table_by_method,
    verify_formula_suite,
)


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


def _family_source(args: argparse.Namespace) -> tuple[str, int] | None:
    """The (family, n) of a --family source, None for --input; ValueError
    unless exactly one source is given."""
    if args.input is not None and args.family is not None:
        raise ValueError("give exactly one graph source: --family with --n, or --input")
    if args.input is not None:
        return None
    if args.family is None:
        raise ValueError("give exactly one graph source: --family with --n, or --input")
    if args.n is None:
        raise ValueError("--family needs --n")
    return args.family, args.n


def _load_graph(args: argparse.Namespace) -> Graph:
    source = _family_source(args)
    if source is None:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read {args.input}: {exc.strerror}")
        try:
            g, mapping = read_edge_list(text)
        except ValueError as exc:
            raise ValueError(f"bad edge list: {exc}")
        if any(old != new for old, new in mapping.items()):
            print(f"note: input labels renumbered to 1..{g.order}", file=sys.stderr)
        return g
    # refuse before building: K_n alone has n(n - 1)/2 edges
    check_cap(family_order(*source), args.cap)
    return build_family(*source)


def _render_rows(rows: list[tuple[int, tuple[int, ...]]], fmt: str, label: str) -> str:
    max_j = max(len(counts) for _, counts in rows)
    if fmt == "md":
        out = [
            "| n \\ j | " + " | ".join(str(j) for j in range(1, max_j + 1)) + " |",
            "| --- |" + " --- |" * max_j,
        ]
        for n, counts in rows:
            cells = [str(c) if c else "" for c in counts]
            cells += [""] * (max_j - len(cells))
            out.append(f"| {n} | " + " | ".join(cells) + " |")
        return "\n".join(out) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n"] + [str(j) for j in range(1, max_j + 1)])
        for n, counts in rows:
            writer.writerow([n] + list(counts) + [""] * (max_j - len(counts)))
        return buf.getvalue()
    payload = {
        "label": label,
        "rows": [{"n": n, "counts": list(counts)} for n, counts in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_gamma(args: argparse.Namespace, cap: int) -> int:
    g = _load_graph(args)
    print(f"gamma_w {gamma_w(g, cap)}")
    if args.with_gamma:
        print(f"gamma {gamma(g, cap)}")
    return 0


def _cmd_count(args: argparse.Namespace, cap: int) -> int:
    source = _family_source(args)
    if source is not None and args.method in ("formula", "recurrence"):
        # these read (family, n) alone, so no graph is built
        family, order, label = source[0], family_order(*source), family_label(*source)
        counts = family_table(*source, args.method, cap)
    else:
        g = _load_graph(args)
        family, order, label = g.family, g.order, g.label()
        counts = table_by_method(g, args.method, cap)
    if args.method == "formula" and family == "wheel":
        print(
            "note: the formula method follows the stated wheel composition, which the sweep refutes; "
            "`wcds verify --suite wheel` shows the counterexamples",
            file=sys.stderr,
        )
    if args.i is not None:
        print(counts[args.i - 1] if 1 <= args.i <= order else 0)
        return 0
    sys.stdout.write(_render_rows([(order, counts)], args.fmt, label))
    return 0


def _cmd_enumerate(args: argparse.Namespace, cap: int) -> int:
    g = _load_graph(args)
    for s in enumerate_wcds(g, args.i, cap):
        print(" ".join(str(v) for v in s))
    return 0


def _table_rows(graphs: list[Graph], cap: int) -> list[tuple[int, ...]]:
    """The count rows of ``graphs``, in order. A row goes to the frontier DP
    when its projected work, order * 2^w * Bell(w) states, is below the
    sweep's 2^order masks, else to the sweep. The DP rows run as one
    sequence through ``_frontier_rows``, so each resumes from the steps it
    shares with the DP row before it."""
    planned = [(g, frontier_order(g)) for g in graphs]
    by_dp = [g.order * projected_states(plan[1]) < 1 << g.order for g, plan in planned]
    dp = _frontier_rows([row for row, use in zip(planned, by_dp) if use])
    return [next(dp).counts if use else count_table(g, cap).counts for g, use in zip(graphs, by_dp)]


def _cmd_table(args: argparse.Namespace, cap: int) -> int:
    start = 4 if args.family == "wheel" else 1
    if args.max_n < start:
        raise ValueError(f"--max-n must be at least {start} for family {args.family}")
    graphs = []
    for n in range(start, args.max_n + 1):
        g = build_family(args.family, n)
        check_cap(g.order, cap)  # refuse before sweeping any row
        graphs.append(g)
    rows = zip(range(start, args.max_n + 1), _table_rows(graphs, cap))
    sys.stdout.write(_render_rows(list(rows), args.fmt, args.family))
    return 0


def _cmd_verify(args: argparse.Namespace, cap: int) -> int:
    report = verify_formula_suite(
        args.suite, max_n=args.max_n, random_count=args.random_count, seed=args.seed, cap=cap
    )
    if args.fmt == "md":
        sys.stdout.write(report.to_markdown())
    elif args.fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json() + "\n")
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.all_passed() else 1


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    dispatch = {
        "gamma": _cmd_gamma,
        "count": _cmd_count,
        "enumerate": _cmd_enumerate,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    try:
        check_hard_limit(args.cap)  # every subcommand, whether or not it reads the cap
        return dispatch[args.subcommand](args, args.cap)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnsupportedMethodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
