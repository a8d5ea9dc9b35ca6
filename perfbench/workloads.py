"""The benchmark's workloads: fixed lists of wcds commands and their inputs.

Every input comes from the workload seed through the benchmark's own
``random.Random``; nothing here calls the program's generators. Each command
carries what its output check needs (see ``checks.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import rules

# Every verify suite with its default sizes, spelled out so that the
# expected records follow from the command line alone.
SUITE_SIZES = {
    "path_table": {"max_n": 10},
    "cycle_table": {"max_n": 14},
    "structural": {"max_n": 7},
    "complete": {"max_n": 10},
    "star": {"max_n": 9},
    "wheel": {"max_n": 14},
    "join": {"max_n": 5, "random_count": 20},
    "corona_gamma": {},
    "join_gamma": {"max_n": 5, "random_count": 20},
    "gamma_path_cycle": {"max_n": 20},
    "extension_recurrence": {"random_count": 10},
    "extension_constructive": {"random_count": 10},
    "extension_gamma": {"random_count": 10},
    "boxes": {"max_n": 15},
    "edge_deletion_bounds": {"max_n": 7},
}
SUITES = tuple(SUITE_SIZES)


@dataclass
class Command:
    argv: list[str]
    kind: str  # table | count | gamma | enumerate | verify
    graph: tuple[int, tuple] | None = None
    info: dict = field(default_factory=dict)


def random_connected(rng: random.Random, n: int, m: int) -> tuple[int, tuple]:
    """Connected graph with exactly m edges: a random attachment tree on a
    shuffled vertex order, plus uniformly drawn extra pairs."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = set()
    for k in range(1, n):
        u, v = perm[k], perm[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return n, tuple(sorted(edges))


def edge_list_text(g: tuple[int, tuple]) -> str:
    n, edges = g
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def family_tables(seed: int, workdir: Path) -> list[Command]:
    """One ``wcds table`` per sparse family, each up to order 20."""
    specs = [("path", 20, 1), ("cycle", 20, 1), ("star", 19, 1), ("wheel", 20, 4)]
    return [
        Command(["table", "--family", fam, "--max-n", str(top)], "table", info={"family": fam, "start": start, "max_n": top})
        for fam, top, start in specs
    ]


def graph_queries(seed: int, workdir: Path) -> list[Command]:
    """Sparse family graphs of order 18-20 and two seeded random connected
    graphs (orders 18 and 19, half of all pairs as edges), read from files."""
    rng = random.Random(seed)
    dense = {}
    for n in (18, 19):
        g = random_connected(rng, n, n * (n - 1) // 4)
        path = workdir / f"dense{n}.edges"
        path.write_text(edge_list_text(g))
        dense[n] = (g, str(path))
    c20, p18, p20 = rules.cycle(20), rules.path(18), rules.path(20)
    fam = lambda name, n: ["--family", name, "--n", str(n)]
    (g18, f18), (g19, f19) = dense[18], dense[19]
    return [
        Command(["gamma", *fam("cycle", 20), "--with-gamma"], "gamma", c20, {"row": rules.cycle_row(20), "gamma": rules.path_cycle_domination_number(20)}),
        Command(["enumerate", *fam("cycle", 20), "--i", "12"], "enumerate", c20, {"i": 12, "count": rules.cycle_row(20)[11]}),
        Command(["enumerate", *fam("cycle", 20), "--i", "10"], "enumerate", c20, {"i": 10, "count": rules.cycle_row(20)[9]}),
        Command(["count", *fam("path", 18)], "count", p18, {"row": rules.path_row(18)}),
        Command(["enumerate", *fam("path", 20), "--i", "11"], "enumerate", p20, {"i": 11, "count": rules.path_row(20)[10]}),
        Command(["gamma", "--input", f18, "--with-gamma"], "gamma", g18),
        Command(["count", "--input", f18], "count", g18),
        Command(["enumerate", "--input", f18, "--i", "7"], "enumerate", g18, {"i": 7}),
        Command(["enumerate", "--input", f19, "--i", "7"], "enumerate", g19, {"i": 7}),
    ]


def verify_suites(seed: int, workdir: Path) -> list[Command]:
    """Every ``wcds verify`` suite at its default sizes, JSON output, with a
    suite seed drawn from the workload seed."""
    rng = random.Random(seed)
    return [verify_command(suite, rng.randrange(1, 1 << 31), sizes) for suite, sizes in SUITE_SIZES.items()]


def verify_command(suite: str, seed: int, sizes: dict) -> Command:
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--format", "json"]
    for name, value in sizes.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return Command(argv, "verify", info={"suite": suite, **sizes})


WORKLOADS = {
    "family_tables": family_tables,
    "graph_queries": graph_queries,
    "verify_suites": verify_suites,
}
