"""Span tracing for the benchmark's traced passes.

``Tracer.installed()`` wraps the public entry points of every cscwalls module
(``TRACED``) in each cscwalls module that binds the name, so a call made
through ``from .develop import develop_ids`` in ``antitorus`` is traced as well
as one made in ``develop``.  Each call appends one span to an in-memory list:
name, parent span, start, end and a work count taken from its arguments or
result.  Nothing is written while tracing; ``layer_metrics`` turns the spans of
one pass into the per-layer metrics after the pass has ended.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
from contextlib import contextmanager
from math import comb
from time import perf_counter

#: Public entry points wrapped in the traced passes, per module.
TRACED = {
    "complexes": ("load_complex", "validate_csc", "serialize_complex", "enumerate_csc"),
    "develop": ("parse_word", "fill_rectangle", "develop_ids", "stream_mismatch_ids"),
    "antitorus": (
        "commuting_powers_search",
        "find_periodic_top",
        "overlap_at_height",
        "overlap_gamma",
        "periodic_candidates",
        "screen_anti_torus",
    ),
    "obstruction": ("projection_diameter", "obstruction_table", "well_separation"),
    "staircase": (
        "build_staircase",
        "walls",
        "contact_graph",
        "contact_distance",
        "nonacyl_certificate",
        "contact_graph_dot",
    ),
    "cli": ("main",),
}

#: Per-layer metrics: name -> unit.  Metrics in seconds (and the rate derived
#: from them) are timings; every other metric is a work count that must repeat
#: exactly on identical inputs.
METRICS = {
    "develop.calls": "count",
    "develop.cells": "count",
    "develop.self_s": "s",
    "develop.ns_per_cell": "ns/cell",
    "antitorus.pigeonhole_s": "s",
    "antitorus.pigeonhole_self_s": "s",
    "antitorus.pigeonhole_steps": "count",
    "antitorus.pigeonhole_budget_frac": "ratio",
    "antitorus.stream_s": "s",
    "antitorus.stream_cols": "count",
    "antitorus.stream_budget_frac": "ratio",
    "antitorus.screen_s": "s",
    "antitorus.screen_self_s": "s",
    "antitorus.screen_queries": "count",
    "antitorus.screen_yield": "ratio",
    "complexes.census_s": "s",
    "complexes.census_classes": "count",
    "obstruction.table_s": "s",
    "obstruction.rows": "count",
    "obstruction.failures": "count",
    "obstruction.wellsep_self_s": "s",
    "obstruction.wellsep_triples": "count",
    "staircase.build_s": "s",
    "staircase.squares": "count",
    "staircase.walls_s": "s",
    "staircase.walls": "count",
    "staircase.graph_self_s": "s",
    "staircase.contact_edges": "count",
    "staircase.bfs_s": "s",
    "staircase.bfs_calls": "count",
    "staircase.cert_self_s": "s",
    "cli.emit_s": "s",
    "cli.artifact_bytes": "B",
}

TIMING_UNITS = ("s", "ns/cell")


# -- work counts read off one call: info(result, *args, **kwargs) -------------


def _cells(result, tables, bottom_ids, left_ids, backend=None):
    return len(bottom_ids) * len(left_ids)


def _stream(result, tables, period_ids, side_ids, max_cols, backend=None):
    cols = result + 1 if result >= 0 else max_cols  # the mismatch column is developed too
    return cols, max_cols, len(side_ids)


def _pigeonhole(result, query, n, i_max=None):
    if i_max is None:
        i_max = sys.modules["cscwalls.antitorus"].DEFAULT_I_MAX
    return result[1], i_max


def _emitted_bytes(result, run, payload, args, kind, default_format="json"):
    out = getattr(args, "out", None)
    return os.path.getsize(out) if out else 0


INFO = {
    "complexes.enumerate_csc": lambda result, *a, **k: len(result),
    "develop.develop_ids": _cells,
    "develop.stream_mismatch_ids": _stream,
    "antitorus.commuting_powers_search": lambda result, *a, **k: result is None,
    "antitorus.find_periodic_top": _pigeonhole,
    "obstruction.obstruction_table": lambda result, *a, **k: (len(result.rows), len(result.failures)),
    "obstruction.well_separation": lambda result, *a, **k: result.L,
    "staircase.build_staircase": lambda result, *a, **k: len(result.squares),
    "staircase.walls": lambda result, *a, **k: len(result),
    "staircase.contact_graph": lambda result, *a, **k: sum(map(len, result.neighbors.values())) // 2,
    "cli.emit": _emitted_bytes,
}


def _drained(fn):
    """enumerate_csc is a generator: drain it so its work falls inside its span."""

    def drained(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return drained


class Tracer:
    """In-memory span recorder; spans are [name, parent index, start, end, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(result, *args, **kwargs)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """One span per resumption, so the consumer's work between items is not
        counted and a consumer that stops early causes no extra work."""
        spans, stack, end = self.spans, self._stack, object()

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
                    stack.append(len(spans))
                    spans.append(rec)
                    rec[2] = perf_counter()
                    try:
                        item = next(it, end)
                    finally:
                        rec[3] = perf_counter()
                        stack.pop()
                    if item is end:
                        return
                    yield item
            finally:
                it.close()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block."""
        modules = {modname: importlib.import_module(f"cscwalls.{modname}") for modname in TRACED}
        package = [m for k, m in list(sys.modules.items()) if k == "cscwalls" or k.startswith("cscwalls.")]
        saved = []
        for modname, names in TRACED.items():
            module = modules[modname]
            for name in names:
                fn = getattr(module, name)
                span = f"{modname}.{name}"
                if name == "screen_anti_torus":
                    wrapped = self._wrap_generator(span, fn)
                elif name == "enumerate_csc":
                    wrapped = self._wrap(span, _drained(fn))
                else:
                    wrapped = self._wrap(span, fn)
                for m in package:
                    if vars(m).get(name) is fn:
                        saved.append((m, name, fn))
                        setattr(m, name, wrapped)
        run_cls = sys.modules["cscwalls.cli"].Run
        saved.append((run_cls, "emit", run_cls.emit))
        run_cls.emit = self._wrap("cli.emit", run_cls.emit)
        try:
            yield self
        finally:
            for obj, name, fn in reversed(saved):
                setattr(obj, name, fn)


def _durations(spans):
    """(duration, self time) of every span."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans):
    """Per-layer metrics (``METRICS``) of the spans of one pass."""
    n = len(spans)
    dur, self_s = _durations(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    # Spans are appended in call order, so a parent precedes its children.
    in_screen = [False] * n
    for i, s in enumerate(spans):
        in_screen[i] = s[0] == "antitorus.screen_anti_torus" or (s[1] >= 0 and in_screen[s[1]])

    def of(name):
        return by_name.get(name, [])

    def infos(name):  # a call that raised has no work count
        return [spans[i][4] for i in of(name) if spans[i][4] is not None]

    def total(idx, values):
        return sum(values[i] for i in idx)

    kernel = of("develop.develop_ids") + of("develop.stream_mismatch_ids")
    streams = infos("develop.stream_mismatch_ids")
    cells = sum(infos("develop.develop_ids")) + sum(cols * height for cols, _, height in streams)
    pigeon = of("antitorus.find_periodic_top")
    steps = infos("antitorus.find_periodic_top")
    queries = [spans[i][4] for i in of("antitorus.commuting_powers_search") if in_screen[i]]
    screen_self = [i for i in range(n) if in_screen[i] and spans[i][0].startswith("antitorus.")]
    tables = infos("obstruction.obstruction_table")
    wellsep = of("obstruction.well_separation")

    return {
        "develop.calls": len(kernel),
        "develop.cells": cells,
        "develop.self_s": total([i for i in range(n) if spans[i][0].startswith("develop.")], self_s),
        "develop.ns_per_cell": total(kernel, self_s) / cells * 1e9 if cells else 0.0,
        "antitorus.pigeonhole_s": total(pigeon, dur),
        "antitorus.pigeonhole_self_s": total(pigeon, self_s),
        "antitorus.pigeonhole_steps": sum(m for m, _ in steps),
        "antitorus.pigeonhole_budget_frac": max((m / i_max for m, i_max in steps), default=0.0),
        "antitorus.stream_s": total(of("antitorus.overlap_at_height"), dur),
        "antitorus.stream_cols": sum(cols for cols, _, _ in streams),
        "antitorus.stream_budget_frac": max((cols / budget for cols, budget, _ in streams), default=0.0),
        "antitorus.screen_s": total(of("antitorus.screen_anti_torus"), dur),
        "antitorus.screen_self_s": total(screen_self, self_s),
        "antitorus.screen_queries": len(queries),
        "antitorus.screen_yield": queries.count(True) / len(queries) if queries else 0.0,
        "complexes.census_s": total(of("complexes.enumerate_csc"), dur),
        "complexes.census_classes": sum(infos("complexes.enumerate_csc")),
        "obstruction.table_s": total(of("obstruction.obstruction_table"), dur),
        "obstruction.rows": sum(rows for rows, _ in tables),
        "obstruction.failures": sum(fails for _, fails in tables),
        "obstruction.wellsep_self_s": total(wellsep, self_s),
        "obstruction.wellsep_triples": sum(comb(L, 3) for L in infos("obstruction.well_separation")),
        "staircase.build_s": total(of("staircase.build_staircase"), dur),
        "staircase.squares": sum(infos("staircase.build_staircase")),
        "staircase.walls_s": total(of("staircase.walls"), dur),
        "staircase.walls": sum(infos("staircase.walls")),
        "staircase.graph_self_s": total(of("staircase.contact_graph"), self_s),
        "staircase.contact_edges": sum(infos("staircase.contact_graph")),
        "staircase.bfs_s": total(of("staircase.contact_distance"), dur),
        "staircase.bfs_calls": len(of("staircase.contact_distance")),
        "staircase.cert_self_s": total(of("staircase.nonacyl_certificate"), self_s),
        "cli.emit_s": total(of("cli.emit"), dur),
        "cli.artifact_bytes": sum(infos("cli.emit")),
    }


def span_table(spans):
    """(name, calls, total s, self s) per span name, largest self time first."""
    rows = {}
    dur, self_s = _durations(spans)
    for i, s in enumerate(spans):
        row = rows.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += self_s[i]
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])
