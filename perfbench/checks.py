"""Output checks for every benchmark command, computed without wcds.

``check(cmd, stdout, status, rng)`` returns a list of problems; an empty
list means the output is right and the exit status is the one the check
predicts. Counts are compared against the rules in ``rules.py``; the
graphs of the count, gamma and enumerate commands that no rule covers get
their full rows by brute force over every subset. Verify records on
instances the benchmark cannot rebuild get properties every correct answer
has, and the brute-force suites a seeded sample rechecked by brute force.
"""

from __future__ import annotations

import ast
import json
import random
import re

import rules

# how many records of a brute-force suite are rechecked per command
SAMPLE_RECORDS = 12


def parse_md_rows(text: str) -> list[tuple[int, list[int]]]:
    """Rows of the markdown count table; blank cells are zero."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("| n \\ j |"):
        raise ValueError("not a count table")
    rows = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows.append((int(cells[0]), [int(c) if c else 0 for c in cells[1:]]))
    return rows


def _trimmed(cells: list[int], order: int) -> list[int] | None:
    """The first ``order`` cells, or None when a later cell is non-zero."""
    return None if any(cells[order:]) else cells[:order]


TABLE_RULES = {"path": rules.path_row, "cycle": rules.cycle_row, "star": rules.star_row, "wheel": rules.wheel_row}


def check_table(cmd, out: str) -> list[str]:
    rows = parse_md_rows(out)
    fam, start, top = cmd.info["family"], cmd.info["start"], cmd.info["max_n"]
    if [n for n, _ in rows] != list(range(start, top + 1)):
        return [f"rows {[n for n, _ in rows]} instead of {start}..{top}"]
    problems = []
    for n, cells in rows:
        want = TABLE_RULES[fam](n)
        if _trimmed(cells, len(want)) != want:
            problems.append(f"{fam} n={n}: {cells} against the rule {want}")
    return problems


def _row_properties(row: list[int]) -> list[str]:
    """What every count row of a connected graph of order >= 2 satisfies:
    cells within C(n, i), the full set and every (n-1)-set qualify, and
    upward closure: each qualifying i-set has n - i qualifying supersets, each
    (i+1)-set at most i + 1 subsets."""
    n = len(row)
    problems = [f"i={i}: {c} > C({n},{i})" for i, c in enumerate(row, 1) if not 0 <= c <= rules.choose(n, i)]
    if row[-1] != 1 or (n >= 2 and row[-2] != n):
        problems.append(f"top cells {row[-2:]} instead of [{n}, 1]")
    for i in range(1, n):
        if row[i] * (i + 1) < row[i - 1] * (n - i):
            problems.append(f"i={i}->{i + 1}: {row[i - 1]} then {row[i]} breaks upward closure")
    return problems


def check_count(cmd, out: str) -> list[str]:
    rows = parse_md_rows(out)
    n = cmd.graph[0]
    if len(rows) != 1 or rows[0][0] != n:
        return [f"expected one row for order {n}"]
    row = _trimmed(rows[0][1], n)
    want = cmd.info["row"] if "row" in cmd.info else rules.full_rows(cmd.graph)[0]
    return [] if row == want else [f"row {row} against the benchmark's {want}"]


def check_gamma(cmd, out: str) -> list[str]:
    got = dict(line.split() for line in out.splitlines())
    if "row" in cmd.info:
        want = {"gamma_w": str(rules.first_nonzero(cmd.info["row"])), "gamma": str(cmd.info["gamma"])}
    else:
        # the smallest non-empty size of the full brute-force rows
        wcds_row, dom_row = rules.full_rows(cmd.graph)
        want = {"gamma_w": str(rules.first_nonzero(wcds_row)), "gamma": str(rules.first_nonzero(dom_row))}
    return [] if got == want else [f"{got} instead of {want}"]


def check_enumerate(cmd, out: str) -> list[str]:
    """Every listed set qualifies, the listing is sorted and distinct, and it
    is as long as the count of the rule or the brute force, so none is
    missing."""
    n, i = cmd.graph[0], cmd.info["i"]
    sets = [tuple(int(v) for v in line.split()) for line in out.splitlines()]
    problems = []
    if any(len(s) != i or list(s) != sorted(set(s)) or s[0] < 1 or s[-1] > n for s in sets):
        problems.append(f"a listed set is not {i} sorted distinct vertices of 1..{n}")
        return problems
    if any(a >= b for a, b in zip(sets, sets[1:])):
        problems.append("listing not sorted and distinct")
    nb = rules.neighbours(cmd.graph)
    bad = [s for s in sets if not rules.is_wcds(nb, [v - 1 for v in s])]
    if bad:
        problems.append(f"{len(bad)} listed sets fail the union-find test, e.g. {bad[0]}")
    want = cmd.info["count"] if "count" in cmd.info else rules.full_rows(cmd.graph)[0][i - 1]
    if len(sets) != want:
        problems.append(f"{len(sets)} sets listed, {want} expected")
    return problems


# --- verify suites ----------------------------------------------------------------


def _value(v):
    """Record values are ints or printed tuples."""
    return tuple(ast.literal_eval(v)) if isinstance(v, str) else v


def _dominating_row(label: str) -> list[int]:
    return rules.dominating_row(rules.by_label(label))


def _extension(key: str):
    label, root, m = re.fullmatch(r"(\w+) root=(\d+) m=(\d+)", key).groups()
    base = rules.by_label(label)
    return base, rules.extend(base, int(root), int(m))


def _constructive_total(key: str) -> int:
    base, g = _extension(key)
    row = rules.count_row(g)
    return sum(row if base[0] >= 2 else row[1:])


def _rule(pattern, fn):
    """Truth for a record key: ``fn`` of the key's numbers (and words)."""
    return lambda key: fn(*(int(x) if x and x.isdigit() else x for x in re.fullmatch(pattern, key).groups()))


RULE_TRUTH = {
    "path_table": _rule(r"path n=(\d+) j=(\d+)", lambda n, j: rules.path_row(n)[j - 1]),
    "cycle_table": _rule(
        r"cycle n=(\d+) (?:[ij]=(\d+)|(shift))",
        lambda n, i, shift: rules.cycle_row(n)[n - 4 if shift else i - 1],
    ),
    "complete": _rule(r"complete n=(\d+) i=(\d+)", lambda n, i: rules.choose(n, i)),
    "star": _rule(r"star leaves=(\d+) i=(\d+)", lambda n, i: rules.star_row(n)[i - 1]),
    "wheel": _rule(r"wheel n=(\d+) i=(\d+)", lambda n, i: rules.wheel_row(n)[i - 1]),
    "gamma_path_cycle": _rule(
        r"(path|cycle) n=(\d+)",
        lambda fam, n: rules.first_nonzero(rules.path_row(n) if fam == "path" else rules.cycle_row(n)),
    ),
    "boxes": _rule(r"boxes n=(\d+) j=(\d+)", lambda n, j: rules.path_row(n)[j - 1] if j else 0),
    "structural": _rule(r"order (\d+) (?:upward closure|domination implication)", lambda k: 0),
    "edge_deletion_bounds": _rule(r"order (\d+) deletion bounds", lambda k: 0),
    "corona_gamma": _rule(
        r"corona\((\w+),(\w+)\)",
        lambda a, b: rules.minimum_size(rules.corona(rules.by_label(a), rules.by_label(b)), rules.is_wcds),
    ),
    # named joins only; random instances fall to the properties below
    "join": _rule(
        r"([PCK]\d+)\+([PCK]\d+)",
        lambda a, b: tuple(rules.join_row(_dominating_row(a), _dominating_row(b))),
    ),
    "join_gamma": _rule(
        r"([PCK]\d+)\+([PCK]\d+)",
        lambda a, b: rules.minimum_size(rules.join(rules.by_label(a), rules.by_label(b)), rules.is_wcds),
    ),
}

SAMPLED_TRUTH = {
    "extension_recurrence": lambda key: tuple(rules.count_row(_extension(key)[1])),
    "extension_constructive": _constructive_total,
    "extension_gamma": lambda key: rules.minimum_size(_extension(key)[1], rules.is_wcds),
}


def _record_properties(suite: str, rec: dict) -> list[str]:
    """Checks that hold for every record, also where the instance is one of
    the program's own random graphs and cannot be rebuilt here."""
    oracle = _value(rec["oracle_value"])
    key = rec["key"]
    if suite in ("join", "extension_recurrence"):
        return [f"{key}: {p}" for p in _row_properties(list(oracle))]
    if suite == "join_gamma" and oracle not in (1, 2):
        # a vertex from each part always qualifies in a join
        return [f"{key}: gamma_w {oracle} of a join outside 1..2"]
    if suite == "structural":
        k = int(key.split()[1])
        if rec["detail"] != f"{rules.CONNECTED_LABELED[k - 1]} connected graphs swept":
            return [f"{key}: {rec['detail']!r}, expected {rules.CONNECTED_LABELED[k - 1]} graphs"]
    return []


def expected_keys(suite: str, info: dict) -> set[str] | None:
    """Every record key the suite must report at the command's sizes; for the
    pools of random instances only their labels are known (None: not
    enumerated). A missing record would be work the program skipped."""
    n = info.get("max_n")
    rand = [f"random{k}" for k in range(1, info.get("random_count", 0) + 1)]
    rows = lambda fmt, tops: {fmt.format(n=a, i=b) for a in tops for b in range(1, a + 1)}
    if suite == "path_table":
        return rows("path n={n} j={i}", range(1, n + 1))
    if suite == "cycle_table":
        return (rows("cycle n={n} j={i}", range(1, min(n, 14) + 1))
                | {f"cycle n={a} i={i}" for a in range(4, n + 1) for i in range(max(a - 3, 1) if a >= 6 else a - 2, a + 1)}
                | {f"cycle n={a} shift" for a in range(7, n + 1)})
    if suite == "structural":
        return {f"order {k} upward closure" for k in range(1, n + 1)} | {f"order {k} domination implication" for k in range(2, n + 1)}
    if suite == "edge_deletion_bounds":
        return {f"order {k} deletion bounds" for k in range(2, n + 1)}
    if suite == "complete":
        return rows("complete n={n} i={i}", range(1, n + 1))
    if suite == "star":
        return {f"star leaves={a} i={i}" for a in range(1, n + 1) for i in range(1, a + 2)}
    if suite == "wheel":
        return rows("wheel n={n} i={i}", range(4, n + 1))
    if suite in ("join", "join_gamma"):
        named = rules.named_graphs(n, "PCK")
        return {f"{a}+{b}" for a in named for b in named} | set(rand)
    if suite == "corona_gamma":
        return {f"corona({a},{b})" for a in ("P2", "P3", "C3", "C4", "K3") for b in ("K1", "K2", "P3")}
    if suite == "gamma_path_cycle":
        return {f"{fam} n={a}" for fam in ("path", "cycle") for a in range(1, n + 1)}
    if suite == "boxes":
        return {f"boxes n={a} j={j}" for a in range(1, n + 1) for j in range(a + 1)}
    return None


def sampled_records(suite: str, records: list[dict], rng: random.Random) -> set[int]:
    """Indices of the records a brute-force suite rebuilds and recounts."""
    if suite not in SAMPLED_TRUTH:
        return set()
    named = [i for i, r in enumerate(records) if not r["key"].startswith("random")]
    return set(rng.sample(named, min(SAMPLE_RECORDS, len(named))))


def check_verify(cmd, out: str, status: int, rng) -> list[str]:
    suite = cmd.info["suite"]
    report = json.loads(out)
    records = report["records"]
    problems = []
    if report["suite"] != suite or not records:
        problems.append(f"report for {report['suite']!r} with {len(records)} records")
    passes = sum(1 for r in records if r["passed"])
    if (report["passes"], report["failures"]) != (passes, len(records) - passes):
        problems.append("summary counts differ from the records")
    keys = [r["key"] for r in records]
    want = expected_keys(suite, cmd.info)
    if len(set(keys)) != len(keys) or (want is not None and set(keys) != want):
        problems.append(f"{len(keys)} records, {len(set(keys) ^ (want or set(keys)))} keys missing or unexpected")
    if suite.startswith("extension"):
        named = {f"{label} root={r} m={m}" for label in rules.named_graphs(5)
                 for r in range(1, rules.by_label(label)[0] + 1) for m in range(2, 7)}
        labels = {k.split()[0] for k in keys} - set(rules.named_graphs(5))
        if not named <= set(keys) or labels != {f"random{k}" for k in range(1, cmd.info["random_count"] + 1)}:
            problems.append("named extension instances missing or random pool mislabelled")
    picks = sampled_records(suite, records, rng)
    any_fails = False
    for idx, rec in enumerate(records):
        problems += _record_properties(suite, rec)
        truth = None
        if suite in RULE_TRUTH and not rec["key"].startswith("random"):
            truth = RULE_TRUTH[suite](rec["key"])
        elif idx in picks:
            truth = SAMPLED_TRUTH[suite](rec["key"])
        oracle = _value(rec["oracle_value"])
        if truth is not None and oracle != truth:
            problems.append(f"{rec['key']}: exhaustive {oracle}, benchmark {truth}")
        holds = _value(rec["claimed_value"]) == (oracle if truth is None else truth)
        any_fails |= not holds
        if rec["passed"] != holds:
            problems.append(f"{rec['key']}: passed={rec['passed']}, the claim {'holds' if holds else 'fails'}")
    if status != int(any_fails):
        problems.append(f"exit status {status}, expected {int(any_fails)}")
    return problems


CHECKS = {
    "table": check_table,
    "count": check_count,
    "gamma": check_gamma,
    "enumerate": check_enumerate,
}


def check(cmd, out: str, status: int, rng: random.Random) -> list[str]:
    """Problems with one command's stdout and exit status (empty: correct)."""
    try:
        if cmd.kind == "verify":
            return check_verify(cmd, out, status, rng)
        problems = CHECKS[cmd.kind](cmd, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, SyntaxError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems + ([] if status == 0 else [f"exit status {status}, expected 0"])
