"""Steadiness check: two interleaved sets of runs of the same code.

usage: python3 perfbench/steadiness.py [--fixed-seed]

For each workload, runs ``run.py`` 2 x RUNS times for BENCHMARK.json's
``run_seconds``, alternating set A and set B. By default each run has its
own seed (set A seeds 1..RUNS, set B seeds 101..), as when two commits are
compared over many seeds, so the spread holds both input and machine
variance. With ``--fixed-seed`` every run has seed 1, so the spread is the
machine's alone. Prints, per workload, set and end-to-end metric, the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(Q3 - Q1) / median, then the change of B's median against A's. The share of
failed commands must be equal in both sets. Raw results go to
perfbench/work/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
RUNS = 10


def one_run(workload: str, seed: int, trace: int = 0) -> dict:
    """The result line of one ``run.py`` call."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixed-seed", action="store_true", help="seed 1 for every run")
    fixed = ap.parse_args().fixed_seed
    raw: dict[str, dict[str, list[dict]]] = {}
    for wl in WORKLOADS:
        sets = {"A": [], "B": []}
        for k in range(RUNS):
            order = ("A", "B") if k % 2 == 0 else ("B", "A")
            for side in order:
                seed = 1 if fixed else (1 if side == "A" else 101) + k
                sets[side].append(one_run(wl, seed))
                print(f"{wl} {side} seed {seed}: " + ", ".join(
                    f"{m} {v['value']:.4f}" for m, v in sets[side][-1]["metrics"].items()), flush=True)
        raw[wl] = sets
    (BENCH / "work").mkdir(exist_ok=True)
    (BENCH / "work" / "steadiness.json").write_text(json.dumps(raw, indent=1))
    print(f"\n{RUNS} runs per set of {RUN_SECONDS} s, " + ("every run seed 1" if fixed else "set A seeds 1.., set B seeds 101.."))
    print("\n| workload | metric | set | median | Q1 | Q3 | spread | B vs A | failed share |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for wl, sets in raw.items():
        shares = {s: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for s, runs in sets.items()}
        for metric in sets["A"][0]["metrics"]:
            stats = {s: summarize([r["metrics"][metric]["value"] for r in runs]) for s, runs in sets.items()}
            change = stats["B"][0] / stats["A"][0] - 1
            for s in ("A", "B"):
                med, q1, q3, spread = stats[s]
                tail = f"{change:+.2%}" if s == "B" else ""
                print(f"| {wl} | {metric} | {s} | {med:.4f} | {q1:.4f} | {q3:.4f} | {spread:.2%} | {tail} | {shares[s]:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
