"""Run one benchmark workload against the wcds sources of this checkout.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the workload's commands run one at a time in
a fixed order, each in a fresh interpreter (``child.py``), in whole rounds
until S seconds have passed. Outputs are checked afterwards (``checks.py``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, end to end with ``--trace 0`` and per layer with
``--trace 1``:

  wall_s       sum over the commands of the time from the end of
               ``import wcds.cli`` to the command's return (median over the
               rounds per command)
  setup_s      launch of the interpreter to the end of ``import wcds.cli``,
               median over every command of the run
  peak_rss_mb  largest peak resident set of any command, MiB
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path("perfbench") / "work"  # relative to ROOT, so command lines stay short


def run_command(argv: list[str], trace: bool) -> dict:
    """One command in a fresh interpreter; its timings, stdout and status."""
    result_path = WORK / "result.json"
    result_path.unlink(missing_ok=True)
    child = [sys.executable, str(CHILD), str(result_path), str(SRC), "1" if trace else "0", *argv]
    with open(WORK / "stderr.txt", "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(child, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    try:
        res = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        res = {"crashed": True, "status": proc.returncode}
    if res["crashed"] or res["status"] != proc.returncode:
        sys.stderr.write((WORK / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:])
        return {"crashed": True, "status": proc.returncode, "out": out, "rss_mb": usage.ru_maxrss / 1024}
    return {
        "crashed": False,
        "status": res["status"],
        "out": out,
        "wall_s": res["t_end"] - res["t_imported"],
        "setup_s": res["t_imported"] - launch,
        "interpreter_s": res["t_start"] - launch,
        "import_s": res["t_imported"] - res["t_start"],
        "rss_mb": usage.ru_maxrss / 1024,
        "layers": res.get("layers", {}),
    }


def measure(commands, seconds: float, trace: bool) -> list[list[dict]]:
    """Whole rounds of the command list until ``seconds`` have passed."""
    rounds: list[list[dict]] = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        rounds.append([run_command(cmd.argv, trace) for cmd in commands])
    return rounds


def check_outputs(commands, rounds, seed: int) -> tuple[int, bool]:
    """Check each distinct (stdout, status) of each command once; returns the
    number of failed executions and whether every output read was right."""
    failed, correct = 0, True
    for idx, cmd in enumerate(commands):
        verdicts: dict[tuple, list[str]] = {}
        for rnd in rounds:
            r = rnd[idx]
            if r["crashed"]:
                failed += 1
                print(f"crashed: wcds {' '.join(cmd.argv)}", file=sys.stderr)
                continue
            key = (r["status"], hashlib.sha256(r["out"]).hexdigest())
            if key not in verdicts:
                rng = random.Random(f"{seed}:{idx}")
                verdicts[key] = checks.check(cmd, r["out"].decode(), r["status"], rng)
                for problem in verdicts[key][:5]:
                    print(f"wcds {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
            if verdicts[key]:
                failed += 1
                correct = False
    return failed, correct


def end_to_end(rounds) -> dict[str, tuple[float, str]]:
    ok = [r for rnd in rounds for r in rnd if not r["crashed"]]
    walls = ([r["wall_s"] for r in runs if not r["crashed"]] for runs in zip(*rounds))
    wall = sum(statistics.median(w) for w in walls if w)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for rnd in rounds for r in rnd), "MB"),
    }


def per_layer(rounds) -> dict[str, tuple[float, str]]:
    by_round = []
    for rnd in rounds:
        raw: dict[str, float] = defaultdict(float)
        for r in rnd:
            for k, v in r.get("layers", {}).items():
                raw[k] += v
        by_round.append(spans.layer_metrics(raw))
    metrics = {name: (statistics.median(m[name][0] for m in by_round), unit) for name, (_, unit) in by_round[0].items()}
    ok = [r for rnd in rounds for r in rnd if not r["crashed"]]
    metrics["setup.interpreter_s"] = (statistics.median(r["interpreter_s"] for r in ok), "s")
    metrics["setup.import_s"] = (statistics.median(r["import_s"] for r in ok), "s")
    metrics["trace.wall_s"] = (end_to_end(rounds)["wall_s"][0], "s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "wcds" / "cli.py").is_file():
        print(f"no wcds sources under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    commands = WORKLOADS[args.workload](args.seed, WORK)
    rounds = measure(commands, args.seconds, bool(args.trace))
    failed, correct = check_outputs(commands, rounds, args.seed)
    if all(r["crashed"] for rnd in rounds for r in rnd):
        print("every command crashed", file=sys.stderr)
        return 1
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    for idx, cmd in enumerate(commands):
        walls = [rnd[idx].get("wall_s", float("nan")) for rnd in rounds]
        print(f"{statistics.median(walls):8.3f} s  wcds {' '.join(cmd.argv)}")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(commands)} commands")
    result = {
        "correct": correct,
        "attempted": len(commands) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
