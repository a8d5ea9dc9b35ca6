import re

import pytest

import wcds.oracle as oracle

_acceptance: list[tuple[int, str, str]] = []


@pytest.fixture
def sweep_calls(monkeypatch):
    """The ``sweep_counts`` calls a test makes."""
    calls = []
    real = oracle.sweep_counts
    monkeypatch.setattr(oracle, "sweep_counts", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def pytest_runtest_logreport(report):
    # one summary line per acceptance criterion, printed at the end
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    m = re.search(r"::test_c(\d+)_(\w+)", report.nodeid)
    if not m:
        return
    _acceptance.append((int(m.group(1)), m.group(2).replace("_", " "), report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, outcome in sorted(_acceptance):
        label = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        dots = "." * max(2, 56 - len(desc))
        terminalreporter.line(f"criterion {num:2d}  {desc} {dots} {label}")
