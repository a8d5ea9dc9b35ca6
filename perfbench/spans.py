"""Spans for the traced run: timing wrappers around each wcds layer.

``install()`` wraps the public functions of ``wcds.graph``, ``wcds.oracle``,
``wcds.formulas`` and the suite entry points of ``wcds.verify``, plus
``verify._dense_tables`` (the all-graphs tables have no public entry), the
report renderers and ``cli.run``. A wrapper replaces the function at every
name a wcds module binds it to, so ``verify.count_table`` and
``oracle.count_table`` are both caught. Each call records a span (name,
start, end, parent) in memory; ``Tracer.summary()`` reduces them to sums
when the command ends. Time in an unwrapped helper counts towards its
nearest wrapped caller, so a layer's self time is its spans' time minus
the time of the spans they caused.

``layer_metrics`` turns the summed sums of one round of commands into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from workloads import SUITES

GRAPH = (
    "make_graph",
    "build_family",
    "join",
    "corona",
    "realize_extension",
    "delete_edge",
    "is_connected",
    "read_edge_list",
    "write_edge_list",
)
ORACLE = (
    "count_table",
    "sweep_counts",
    "enumerate_wcds",
    "gamma_w",
    "gamma",
    "dominating_counts",
    "has_minimum_wcds_containing",
    "has_minimum_dominating_containing",
)
SUITE_ENTRIES = {
    "verify_path_table": "path_table",
    "verify_cycle_table": "cycle_table",
    "verify_structural": "structural",
}
RENDERERS = ("to_markdown", "to_csv", "to_json")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # name, start, end, parent index, sweep size
        self.stack: list[int] = []
        self.masks_tested = 0
        self.dense_graphs = 0

    def wrap(self, name, fn, note=None):
        """Wrap fn in a span; ``name`` may be a function of the call's
        arguments, ``note`` a function returning a value stored with it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name(*args, **kwargs) if callable(name) else name, clock(), 0.0, stack[-1] if stack else -1, note(*args) if note else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def count_masks(self, fn):
        """Around ``core.mask_is_wcds``: masks that ``enumerate_wcds`` and
        ``has_minimum_wcds_containing`` test. ``gamma`` tests its
        combinations itself and is not counted."""

        @functools.wraps(fn)
        def wrapper(*args):
            self.masks_tested += 1
            return fn(*args)

        return wrapper

    def count_dense(self, fn):
        """Around ``_dense_tables``: graphs built on a cache miss."""

        @functools.wraps(fn)
        def wrapper(k):
            misses = fn.cache_info().misses
            out = fn(k)
            if fn.cache_info().misses > misses:
                self.dense_graphs += 1 << (k * (k - 1) // 2)
            return out

        return wrapper

    def summary(self) -> dict[str, float]:
        """Sums over this command's spans, keyed ``self.<span>``,
        ``calls.<span>`` and a few derived counters."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, parent, note) in enumerate(self.spans):
            own = t1 - t0 - child[idx]
            out["self." + name] += own
            out["calls." + name] += 1
            if name == "oracle.sweep_counts":
                order, edges = note
                kind = "sparse" if edges <= 2 * order else "dense"
                out[f"sweep.{kind}.msubsets"] += (1 << order) / 1e6
                out[f"sweep.{kind}.s"] += own
            if name == "oracle.gamma_w" and not self._inside(parent, "oracle.gamma_w"):
                out["oracle.gamma_w.s"] += t1 - t0
        out["oracle.walkers.masks_tested"] = self.masks_tested
        out["verify.dense_tables.graphs"] = self.dense_graphs
        return dict(out)

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def install() -> Tracer:
    """Wrap every layer of the imported wcds package; returns the tracer."""
    import wcds
    import wcds.cli as cli
    from wcds import core, formulas, graph, oracle, verify

    tr = Tracer()
    swaps = {}
    for fn_name in GRAPH:
        swaps[getattr(graph, fn_name)] = tr.wrap("graph." + fn_name, getattr(graph, fn_name))
    for fn_name in ORACLE:
        note = (lambda order, edges, *rest: (order, len(edges))) if fn_name == "sweep_counts" else None
        swaps[getattr(oracle, fn_name)] = tr.wrap("oracle." + fn_name, getattr(oracle, fn_name), note)
    for fn_name, fn in vars(formulas).items():
        if inspect.isfunction(fn) and fn.__module__ == formulas.__name__ and not fn_name.startswith("_"):
            swaps[fn] = tr.wrap("formulas." + fn_name, fn)
    for fn_name, suite in SUITE_ENTRIES.items():
        swaps[getattr(verify, fn_name)] = tr.wrap("verify.suite." + suite, getattr(verify, fn_name))
    swaps[verify.verify_formula_suite] = tr.wrap(
        lambda suite, **kw: "verify.suite." + suite, verify.verify_formula_suite
    )
    swaps[verify._dense_tables] = tr.wrap("verify.dense_tables", tr.count_dense(verify._dense_tables))
    swaps[core.mask_is_wcds] = tr.count_masks(core.mask_is_wcds)
    swaps[cli.run] = tr.wrap("cli.run", cli.run)
    by_id = {id(old): new for old, new in swaps.items()}
    for mod in (wcds, cli, core, formulas, graph, oracle, verify):
        for attr, val in list(vars(mod).items()):
            if id(val) in by_id:
                setattr(mod, attr, by_id[id(val)])
    for meth in RENDERERS:
        setattr(verify.VerificationReport, meth, tr.wrap("verify.render", getattr(verify.VerificationReport, meth)))
    return tr


ORACLE_SELF = (
    "gamma",
    "enumerate_wcds",
    "has_minimum_wcds_containing",
    "has_minimum_dominating_containing",
    "dominating_counts",
)


def layer_metrics(raw: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the sums of one round."""
    g = lambda key: raw.get(key, 0.0)
    prefixed = lambda kind, prefix: sum(v for k, v in raw.items() if k.startswith(f"{kind}.{prefix}"))
    rate = lambda kind: g(f"sweep.{kind}.msubsets") / g(f"sweep.{kind}.s") if g(f"sweep.{kind}.s") else 0.0
    ct_calls = g("calls.oracle.count_table")
    m = {
        "oracle.sweep_counts.self_s": (g("self.oracle.sweep_counts"), "s"),
        "oracle.sweep_counts.calls": (g("calls.oracle.sweep_counts"), "count"),
        "oracle.sweep_counts.msubsets": (g("sweep.sparse.msubsets") + g("sweep.dense.msubsets"), "Msubsets"),
        "oracle.sweep_counts.sparse_msubsets_per_s": (rate("sparse"), "Msubsets/s"),
        "oracle.sweep_counts.dense_msubsets_per_s": (rate("dense"), "Msubsets/s"),
        "oracle.count_table.calls": (ct_calls, "count"),
        "oracle.count_table.hit_ratio": (
            (ct_calls - g("calls.oracle.sweep_counts")) / ct_calls if ct_calls else 0.0,
            "ratio",
        ),
        "oracle.gamma_w.s": (g("oracle.gamma_w.s"), "s"),
    }
    for fn_name in ORACLE_SELF:
        m[f"oracle.{fn_name}.self_s"] = (g(f"self.oracle.{fn_name}"), "s")
    m["oracle.walkers.masks_tested"] = (g("oracle.walkers.masks_tested"), "count")
    m["verify.dense_tables.self_s"] = (g("self.verify.dense_tables"), "s")
    m["verify.dense_tables.graphs"] = (g("verify.dense_tables.graphs"), "count")
    m["verify.structural.self_s"] = (
        g("self.verify.suite.structural") + g("self.verify.suite.edge_deletion_bounds"),
        "s",
    )
    for suite in SUITES:
        m[f"verify.suite.{suite}.self_s"] = (g(f"self.verify.suite.{suite}"), "s")
    m["verify.render.self_s"] = (g("self.verify.render"), "s")
    m["formulas.self_s"] = (prefixed("self", "formulas."), "s")
    m["formulas.build_extension_wcds.self_s"] = (g("self.formulas.build_extension_wcds"), "s")
    m["graph.self_s"] = (prefixed("self", "graph."), "s")
    m["graph.calls"] = (prefixed("calls", "graph."), "count")
    m["cli.self_s"] = (g("self.cli.run"), "s")
    return m
