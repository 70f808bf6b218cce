"""Span tracing of kbfdr's layers, installed from outside the package.

The tracer replaces module attributes of kbfdr with timing wrappers for the
length of a traced pass and restores them afterwards; kbfdr itself is not
edited.  Every wrapper is installed where the caller looks the name up at
call time (``simulate`` calls ``domino_p`` through its own module globals,
the engine finds its local tests through ``engine.simes`` and so on).

Spans (name, pass, start, end, parent) and counts are kept in memory and
written out when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover.  Local-test calls are too many to keep
one by one (hundreds of thousands per table1 pass): they are counted and
their time is charged to the enclosing span, but no span is stored for each.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) -> layer name.
LAYERS = {
    ("kbfdr.simulate", "gen_instance"): "simulate.gen_instance",
    ("kbfdr.simulate", "emit_table"): "simulate.emit_table",
    ("kbfdr.simulate", "domino_p"): "engine.decide",
    ("kbfdr.simulate", "domino_e"): "engine.decide",
    ("kbfdr.simulate", "bh_procedure"): "baselines",
    ("kbfdr.simulate", "holm_procedure"): "baselines",
    ("kbfdr.simulate", "run_sample"): "metrics.run_sample",
    ("kbfdr.metrics", "aggregate"): "metrics.aggregate",
    ("kbfdr.engine", "sort_evidence"): "core.sort_evidence",
    ("kbfdr.engine", "reject_by_rank"): "core.reject_by_rank",
    ("kbfdr.engine", "check_condition_rectangular"): "engine.check",
    ("kbfdr.engine", "domino_e_mean_reduction_check"): "engine.check",
    ("kbfdr.engine", "domino_p_fast_harmonic"): "engine.fast_scan",
    ("kbfdr.engine", "bonferroni_k"): "local_tests",
    ("kbfdr.engine", "simes"): "local_tests",
    ("kbfdr.engine", "harmonic_mean_test"): "local_tests",
    ("kbfdr.engine", "e_average"): "local_tests",
    ("kbfdr.engine", "e_closure_k"): "local_tests",
    ("kbfdr.baselines", "sort_evidence"): "core.sort_evidence",
    ("kbfdr.baselines", "reject_by_rank"): "core.reject_by_rank",
    ("kbfdr.cli", "read_evidence_csv"): "cli.read",
    ("kbfdr.cli", "bh"): "baselines",
    ("kbfdr.cli", "holm_k"): "baselines",
}

# Layers whose individual calls are counted but not stored as spans.
UNSTORED = frozenset({"local_tests"})


def _observe(layer, result, counts):
    """Counts read off a layer's return value."""
    if layer == "engine.check":
        counts["engine.members"] += result.evaluated_subsets
    elif layer == "engine.decide" and result.boundary_rank == 0:
        # No candidate rank passed, so the trivial fallback set came back.
        counts["engine.fallbacks"] += 1
    elif layer == "cli.read":
        counts["cli.rows"] += result.m


class Tracer:
    """Spans and counts of one benchmark run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.pass_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cols = {
            "name": array("i"), "pass": array("i"), "parent": array("i"),
            "start": array("d"), "end": array("d"),
        }
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list = []

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        return parent

    def _leave(self, layer, parent, start, end):
        _, covered = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        self.counts[layer + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if layer in UNSTORED:
            return
        name_id = self._name_ids.setdefault(layer, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(layer)
        cols = self._cols
        cols["name"].append(name_id)
        cols["pass"].append(self.pass_id)
        cols["parent"].append(parent)
        cols["start"].append(start - self.t0)
        cols["end"].append(end - self.t0)

    @contextmanager
    def span(self, layer):
        """A span opened by the benchmark itself (the root of a pass)."""
        parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(layer, parent, start, time.perf_counter())

    def wrap(self, layer, fn):
        perf_counter = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(layer, parent, start, perf_counter())
            _observe(layer, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced kbfdr attribute; ``uninstall`` undoes it."""
        import importlib

        for (module_name, attr), layer in LAYERS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self):
        """Self times and counts of the pass that just ended; starts the next.

        The span stack is cleared too: a pass stopped by its budget can
        leave a span open.
        """
        self_s, counts = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        self._stack.clear()
        self.pass_id += 1
        return self_s, counts

    def write(self, path):
        payload = {
            "names": self.names,
            "columns": {key: list(col) for key, col in self._cols.items()},
            "note": "times in seconds from the start of the run; parent -1 "
                    "marks a root span; local-test calls are not stored",
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def layer_metrics(self_s, counts):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    decisions = counts.get("engine.decide.calls", 0)
    checks = counts.get("engine.check.calls", 0)
    return {
        "simulate.gen_instance_s": self_s.get("simulate.gen_instance", 0.0),
        "simulate.emit_table_s": self_s.get("simulate.emit_table", 0.0),
        "simulate.grid_self_s": self_s.get("simulate.grid", 0.0),
        "core.sort_evidence_s": self_s.get("core.sort_evidence", 0.0),
        "core.reject_by_rank_s": self_s.get("core.reject_by_rank", 0.0),
        "core.reject_by_rank_calls": counts.get("core.reject_by_rank.calls", 0),
        "engine.decide_s": self_s.get("engine.decide", 0.0),
        "engine.decisions": decisions,
        "engine.check_s": self_s.get("engine.check", 0.0),
        "engine.checks": checks,
        "engine.members": counts.get("engine.members", 0),
        "engine.checks_per_decision": checks / decisions if decisions else 0.0,
        "engine.fast_scan_s": self_s.get("engine.fast_scan", 0.0),
        "engine.fallbacks": counts.get("engine.fallbacks", 0),
        "local_tests.s": self_s.get("local_tests", 0.0),
        "local_tests.calls": counts.get("local_tests.calls", 0),
        "baselines.s": self_s.get("baselines", 0.0),
        "baselines.calls": counts.get("baselines.calls", 0),
        "metrics.run_sample_s": self_s.get("metrics.run_sample", 0.0),
        "metrics.aggregate_s": self_s.get("metrics.aggregate", 0.0),
        "cli.read_s": self_s.get("cli.read", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.rows": counts.get("cli.rows", 0),
        "cli.bytes_out": counts.get("cli.bytes_out", 0),
    }
