"""Golden stdout corpus: the sha256 of stdout and the exit status of 54
``wcds`` commands, re-run in one process through ``cli.run``.

The corpus holds every ``wcds verify --suite X --format md|csv|json`` at
default sizes, the five seeded suites at ``--seed 2 --format json``, and the
four ``wcds table`` commands of the benchmark. A golden may change only in a
change that sets out to change stdout and says so in CHANGES.md.

The benchmark's tracer (``perfbench/spans.py``) wraps wcds functions by
name, so a last test installs it on ``src/`` in a fresh interpreter.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wcds.cli import run
from wcds.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "tests" / "golden" / "stdout.json").read_text())


@pytest.mark.parametrize("command", tuple(CORPUS))
def test_stdout_matches_the_golden(capsys, command):
    status = run(command.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), status) == (
        CORPUS[command]["sha256"],
        CORPUS[command]["exit"],
    )


def test_corpus_covers_every_registered_suite():
    for suite, spec in SUITES.items():
        for fmt in ("md", "csv", "json"):
            assert f"verify --suite {suite} --format {fmt}" in CORPUS
        if spec.random_count is not None:
            assert f"verify --suite {suite} --seed 2 --format json" in CORPUS


def test_benchmark_tracer_binds_every_name_it_wraps():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    code = "import spans, wcds; spans.install(); print(wcds.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(ROOT / "src" / "wcds" / "__init__.py")
