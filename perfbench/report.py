"""Reference figures for the README.

usage: python3 perfbench/report.py baseline
       python3 perfbench/report.py layers

``baseline`` times the rows of the ROADMAP's baseline table REPEAT times,
each call in a fresh interpreter (cold caches, fresh allocator), and prints
the median. ``layers`` runs each workload PAIRS times untraced and traced
(seeds 1, 2, ...), alternating which goes first, and prints each layer's
share of the median traced wall time and the tracing overhead (median
traced minus median untraced ``wall_s``).
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rules  # noqa: E402
from steadiness import one_run  # noqa: E402
from workloads import WORKLOADS, random_connected  # noqa: E402

REPEAT = 3
PAIRS = 3


def _graph(family: str, n: int):
    from wcds import build_family, make_graph

    if family == "random":
        order, edges = random_connected(random.Random(n), n, {18: 87, 20: 100}[n])
        return make_graph(order, edges)
    return build_family(family, n)


def _row(name: str) -> float:
    """Time one baseline row in this interpreter."""
    from wcds import oracle, verify

    kind, family, n = name.split(":")
    g = _graph(family, int(n)) if family != "-" else None
    t0 = time.perf_counter()
    if kind == "sweep_counts":
        oracle.sweep_counts(g.order, g.edges)
    elif kind == "dominating_counts":
        oracle.dominating_counts(g)
    elif kind == "gamma_w":
        oracle.gamma_w(g)
    elif kind == "enumerate_wcds":
        assert len(oracle.enumerate_wcds(g, 12)) == rules.cycle_row(20)[11]
    elif kind == "dense_tables":
        verify._dense_tables(int(n))
    return time.perf_counter() - t0


BASELINE_ROWS = (
    ("sweep_counts:path:20", "`sweep_counts` path 20"),
    ("sweep_counts:cycle:20", "`sweep_counts` cycle 20"),
    ("sweep_counts:wheel:20", "`sweep_counts` wheel 20"),
    ("sweep_counts:random:18", "`sweep_counts` random connected 18 (87 edges)"),
    ("sweep_counts:random:20", "`sweep_counts` random connected 20 (100 edges)"),
    ("dominating_counts:path:20", "`dominating_counts` path 20"),
    ("gamma_w:cycle:20", "`gamma_w` cycle 20"),
    ("enumerate_wcds:cycle:20", "`enumerate_wcds` cycle 20, i = 12"),
    ("dense_tables:-:7", "`_dense_tables(7)`"),
)


def baseline() -> None:
    print("| layer and instance | median s | runs |")
    print("| --- | --- | --- |")
    for name, label in BASELINE_ROWS:
        times = []
        for _ in range(REPEAT):
            out = subprocess.run([sys.executable, __file__, "_row", name], capture_output=True, text=True, check=True)
            times.append(float(out.stdout))
        print(f"| {label} | {statistics.median(times):.3f} | {', '.join(f'{t:.3f}' for t in times)} |", flush=True)


# Layer metrics that do not overlap, so their shares add up to at most 1.
EXCLUSIVE = (
    "oracle.sweep_counts.self_s",
    "oracle.gamma.self_s",
    "oracle.enumerate_wcds.self_s",
    "oracle.has_minimum_wcds_containing.self_s",
    "oracle.has_minimum_dominating_containing.self_s",
    "oracle.dominating_counts.self_s",
    "verify.dense_tables.self_s",
    "verify.render.self_s",
    "formulas.self_s",
    "graph.self_s",
    "cli.self_s",
)


def layers() -> None:
    for wl in WORKLOADS:
        plain, traced = [], []
        for k in range(PAIRS):  # alternate which side runs first
            for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                metrics = one_run(wl, 1 + k, trace)["metrics"]
                (traced if trace else plain).append({key: v["value"] for key, v in metrics.items()})
        med = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        untraced = statistics.median(p["wall_s"] for p in plain)
        total = med["trace.wall_s"]
        suites = sum(v for k, v in med.items() if k.startswith("verify.suite."))
        shares = [(k, med[k]) for k in EXCLUSIVE] + [("verify.suite.*.self_s", suites)]
        shares.append(("(unattributed)", total - sum(v for _, v in shares)))
        print(f"\n{wl}: {PAIRS} pairs, median untraced wall_s {untraced:.3f}, traced {total:.3f}, "
              f"overhead {total - untraced:+.3f} s ({total / untraced - 1:+.1%}); untraced "
              + ", ".join(f"{p['wall_s']:.3f}" for p in plain) + "; traced "
              + ", ".join(f"{t['trace.wall_s']:.3f}" for t in traced))
        for k, v in sorted(shares, key=lambda kv: -kv[1]):
            if v > 0.0005 * total:
                print(f"  {k:48s} {v:8.3f} s  {v / total:6.1%}")
        print("  " + json.dumps({k: round(v, 4) for k, v in med.items()}))


def main() -> int:
    what = sys.argv[1:2]
    if what == ["_row"]:
        print(_row(sys.argv[2]))
    elif what == ["baseline"]:
        baseline()
    elif what == ["layers"]:
        layers()
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
