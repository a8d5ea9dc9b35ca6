"""Command-line front end.

Five subcommands: gamma, count, enumerate, table, verify. One option table,
``COMMANDS``, declares each one's handler and options; ``_parse`` reads argv
by it and ``_help`` renders ``--help`` from it. Graphs come either from a
named family (--family with --n) or from an edge-list file (--input, "-" for
stdin). All data goes to stdout and is byte-stable for fixed arguments and
seed; wall-clock timings go to stderr only.

Exit status: 0 success / all checks pass, 1 verification failure, 2 usage
or input error (every ValueError, from the parser or a command, leaves
through one branch of ``run``), 3 order cap, frontier-width bound, listing
bound (``oracle.LISTING_MAX`` sets), family size bound
(``verify.FORMULA_MAX_N``) or all-graphs order limit (order 8) exceeded.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from types import SimpleNamespace

from .graph import FAMILIES, Graph, build_family, family_label, family_order, family_start, read_edge_list
from .oracle import CapacityError, DEFAULT_CAP, check_cap, check_hard_limit, enumerate_wcds, gamma, gamma_w
from .verify import DEFAULT_SEED, METHODS, SUITES, family_rows, table_by_method, verify_formula_suite


def _family_source(args: SimpleNamespace) -> tuple[str, int] | None:
    """The (family, n) of a --family source, None for --input; ValueError
    unless exactly one source is given, and --n comes with --family."""
    if (args.input is None) == (args.family is None):
        raise ValueError("give exactly one graph source: --family with --n, or --input")
    if (args.family is None) != (args.n is None):
        raise ValueError("--family needs --n" if args.n is None else "--n needs --family")
    return None if args.family is None else (args.family, args.n)


def _read_input(path: str) -> Graph:
    """The graph of the edge-list file ``path``, "-" for stdin."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}")
    try:
        g, mapping = read_edge_list(text)
    except ValueError as exc:
        raise ValueError(f"bad edge list: {exc}")
    if any(old != new for old, new in mapping.items()):
        print(f"note: input labels renumbered to 1..{g.order}", file=sys.stderr)
    return g


def _load_graph(args: SimpleNamespace) -> Graph:
    source = _family_source(args)
    if source is None:
        return _read_input(args.input)
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


def _cmd_gamma(args: SimpleNamespace) -> int:
    g = _load_graph(args)
    print(f"gamma_w {gamma_w(g, args.cap)}")
    if args.with_gamma:
        print(f"gamma {gamma(g, args.cap)}")
    return 0


def _cmd_count(args: SimpleNamespace) -> int:
    family = _family_source(args)
    source = family or _read_input(args.input)
    counts = table_by_method(source, args.method, args.cap)
    if args.method == "formula" and family and family[0] == "wheel":
        print(
            "note: the formula method follows the stated wheel composition, which the sweep refutes; "
            "`wcds verify --suite wheel` shows the counterexamples",
            file=sys.stderr,
        )
    if args.i is not None:
        print(counts[args.i - 1] if 1 <= args.i <= len(counts) else 0)
        return 0
    label = family_label(*family) if family else source.label()
    sys.stdout.write(_render_rows([(len(counts), counts)], args.fmt, label))
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    g = _load_graph(args)
    for s in enumerate_wcds(g, args.i, args.cap):
        print(" ".join(str(v) for v in s))
    return 0


def _cmd_table(args: SimpleNamespace) -> int:
    start = family_start(args.family)
    if args.max_n < start:
        raise ValueError(f"--max-n must be at least {start} for family {args.family}")
    sizes = range(start, args.max_n + 1)
    # the sweep for complete rows, whose DP width grows with n; the DP for the rest
    rows = family_rows(args.family, sizes, "oracle" if args.family == "complete" else "frontier", args.cap)
    sys.stdout.write(_render_rows(list(zip(sizes, rows)), args.fmt, args.family))
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    report = verify_formula_suite(
        args.suite, max_n=args.max_n, random_count=args.random_count, seed=args.seed, cap=args.cap
    )
    if args.fmt == "md":
        sys.stdout.write(report.to_markdown())
    elif args.fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json() + "\n")
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.all_passed() else 1


_CAP = {"--cap": (int, DEFAULT_CAP, False, "oracle order cap override")}
_FORMAT = {"--format": (("md", "csv", "json"), "md", False, "output format for tables and reports")}
_SOURCE = {
    "--family": (FAMILIES, None, False, "named graph family"),
    "--n": (int, None, False, "family size parameter"),
    "--input": (str, None, False, "edge-list file, '-' for stdin"),
    **_CAP,
}
# subcommand -> (handler, help, option -> (int, str, a choices tuple or bool for a flag; default; required; help))
COMMANDS = {
    "gamma": (_cmd_gamma, "weakly connected domination number", {
        **_SOURCE, "--with-gamma": (bool, False, False, "also print the domination number")}),
    "count": (_cmd_count, "count sets of one cardinality, or the full table", {
        **_SOURCE, **_FORMAT, "--i": (int, None, False, "cardinality; omit for the full table"),
        "--method": (METHODS, "oracle", False, "counting method: oracle (subset sweep), frontier (frontier DP); "
                     "formula and recurrence need a recognized family")}),
    "enumerate": (_cmd_enumerate, "list every set of one cardinality", {**_SOURCE, "--i": (int, None, True, "cardinality")}),
    "table": (_cmd_table, "count tables for a family over a range of sizes", {
        **_CAP, **_FORMAT, "--family": (FAMILIES, None, True, "named graph family"),
        "--max-n": (int, 10, False, "largest size parameter, one row per size")}),
    "verify": (_cmd_verify, "run a named verification suite", {
        **_CAP, **_FORMAT, "--suite": (tuple(SUITES), None, True, "suite name"),
        "--max-n": (int, None, False, "largest size the suite checks; omit for the suite's default"),
        "--random-count": (int, None, False, "random instances drawn; omit for the suite's default"),
        "--seed": (int, DEFAULT_SEED, False, "seed of the random instances")}),
}
# the next token is an option's value unless it reads as one (argparse's rule: '-', -1, 'a b' are values)
_OPTION_LIKE = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ ]+")


def _help(names) -> str:
    """Each subcommand of ``names`` with its options: value or choices, default or required, and help."""
    lines = ["usage: wcds SUBCOMMAND [OPTION [VALUE]]...", "Count, enumerate and verify weakly connected dominating sets."]
    for name in names:
        lines.append(f"\nwcds {name}: {COMMANDS[name][1]}")
        for option, (kind, default, required, about) in COMMANDS[name][2].items():
            value = " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else {bool: "", int: " INT", str: " FILE"}[kind]
            note = " (required)" if required else "" if default is None or kind is bool else f" (default {default})"
            lines.append(f"  {option}{value}  {about}{note}")
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace:
    """The values of ``argv`` under the attribute names of ``COMMANDS``. Option names
    match whole, a value is the next token or follows "=", and a repeated option's last
    value wins. A usage error raises ValueError."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"the subcommand is one of {', '.join(COMMANDS)}" + (f", not {argv[0]!r}" if argv else ""))
    sub, tokens, options = argv[0], iter(argv[1:]), COMMANDS[argv[0]][2]
    values = {option: spec[1] for option, spec in options.items()}
    for token in tokens:
        option, eq, value = token.partition("=")
        if option not in options:
            near = " or ".join(o for o in options if o.startswith(option) and option.startswith("--"))
            hint = f"; options are not abbreviated, did you mean {near}?" if near else ""
            what = f"option {option}" if token[:1] == "-" else f"argument {token!r}"
            raise ValueError(f"unknown {what} for {sub}{hint}")
        kind = options[option][0]
        if kind is bool and eq:
            raise ValueError(f"{option} takes no value")
        if kind is not bool and not eq:
            value = next(tokens, None)
            if value is None or _OPTION_LIKE.fullmatch(value):
                raise ValueError(f"{option} needs a value")
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{option} is one of {', '.join(kind)}, not {value!r}")
        try:
            values[option] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            raise ValueError(f"{option} needs an integer, not {value!r}") from None
    missing = [option for option, spec in options.items() if spec[2] and values[option] is None]
    if missing:
        raise ValueError(f"{sub} needs {' and '.join(missing)}")
    return SimpleNamespace(subcommand=sub, **{o[2:].replace("-", "_").replace("format", "fmt"): v for o, v in values.items()})


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help([argv[0]] if argv[0] in COMMANDS else COMMANDS))
        return 0
    try:
        args = _parse(argv)
        check_hard_limit(args.cap)  # every subcommand, whether or not it reads the cap
        return COMMANDS[args.subcommand][0](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
