"""Spans recorded from outside msbc, around the calls into its modules.

``install`` replaces public entry points of each ``msbc`` module with
pass-through wrappers that open a span, call the original with the same
arguments and hand back its result unchanged; the package source is never
edited.  A span holds its name, start, end, parent and op id.  The first
component of a span name is its layer, named after the ``msbc`` module the
wrapped function lives in.  Spans stay in memory until the op ends, then
``write`` stores them once and ``layer_metrics`` reduces them to the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("normalform", "series", "linalg", "system", "boundary", "solvers", "cli")
SOLVE_MODES = ("micro", "macro-dirichlet", "macro-robin", "macro-robin-linear")
SOLVE_N = (300, 600, 1200)
SOLVE_COUNTERS = ("nfev", "njev", "nlu")
_BC_MODE_NAMES = {
    "dirichlet-heuristic": "macro-dirichlet",
    "robin-derived": "macro-robin",
    "robin-linearised": "macro-robin-linear",
}


class Span:
    """One recorded call, as the analysis functions read it."""

    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent=None, op=0, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs if attrs is not None else {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


class Tracer:
    """In-memory span recorder for one op; spans nest by call order.

    Spans are kept in flat arrays rather than one object each: an op can
    record 10^5 spans, and that many small objects would make the
    interpreter's cyclic garbage collector, not the traced code, dominate
    the tracing overhead.
    """

    def __init__(self, op_id=0):
        self.op_id = op_id
        self._names = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._attrs = {}
        self._stack = []
        self._patches = []

    def open(self, name):
        i = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(i)
        self._starts.append(time.perf_counter())
        return i

    def close(self, i):
        self._ends[i] = time.perf_counter()
        self._stack.pop()

    def attrs(self, i):
        return self._attrs.setdefault(i, {})

    @property
    def spans(self):
        return [Span(name, self._starts[i], self._ends[i],
                     None if self._parents[i] < 0 else self._parents[i],
                     self.op_id, self._attrs.get(i))
                for i, name in enumerate(self._names)]

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a span-recording pass-through.

        ``note(attrs, args, kwargs, result)`` may record attributes on the
        span; it also runs when the call raises, with ``result`` None.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as ex:
                tracer.attrs(i)["error"] = "%s: %s" % (type(ex).__name__, ex)
                raise
            finally:
                tracer.close(i)
                if note is not None:
                    note(tracer.attrs(i), args, kwargs, result)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def _note_construct(attrs, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    attrs["variant"] = system.label.rsplit("-", 1)[-1]
    if result is not None:
        transform, evolution, report = result
        attrs["terms"] = sum(len(c.terms) for c in transform.series) \
            + sum(len(c.terms) for c in evolution.series)
        attrs["kept"] = len(report.kept())
        attrs["removed"] = len(report.removed())


def _note_cross(attrs, args, kwargs, result):
    if result is not None:
        attrs["discrepancy"] = result.max_discrepancy


def _note_solve(mode):
    def note(attrs, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        attrs["mode"] = mode or _BC_MODE_NAMES.get(cfg.bc_mode, cfg.bc_mode)
        attrs["n"] = cfg.grid.n
    return note


def _note_ivp(attrs, args, kwargs, result):
    if result is not None:
        for key in SOLVE_COUNTERS:
            attrs[key] = int(getattr(result, key))
        attrs["status"] = int(result.status)


def install(tracer):
    """Wrap the public entry points of every msbc layer."""
    from msbc import boundary, cli, linalg, normalform, series, solvers, system

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(normalform, "construct", "normalform.construct", _note_construct)
    tracer.wrap(normalform, "cross_validate_embeddings", "normalform.cross_validate",
                _note_cross)
    tracer.wrap(series.TruncatedSeries, "substitute", "series.substitute")
    tracer.wrap(series.TruncatedSeries, "evaluate", "series.evaluate")
    # boundary imported the reversion by name, so wrap the name it calls
    tracer.wrap(boundary, "solve_implicit_system", "series.solve_implicit")
    tracer.wrap(linalg, "eigen", "linalg.eigen")
    tracer.wrap(system, "build_embedding", "system.build_embedding")
    tracer.wrap(boundary, "derive_boundary_conditions", "boundary.derive")
    tracer.wrap(boundary.RobinBC, "P_at", "boundary.closure")
    tracer.wrap(boundary.RobinBC, "R_at", "boundary.closure")
    tracer.wrap(solvers, "solve_microscale", "solvers.solve", _note_solve("micro"))
    tracer.wrap(solvers, "solve_macroscale", "solvers.solve", _note_solve(None))
    tracer.wrap(solvers, "solve_ivp", "solvers.solve_ivp", _note_ivp)
    tracer.wrap(solvers, "interior_error", "solvers.interior_error")


def _union(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, start, end):
    """Self time of every span, and the part of [start, end] no span covers.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Returns (list of self times, unattributed).
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span.parent].append(i)

    def covered(kids, lo, hi):
        return _union([(max(spans[k].start, lo), min(spans[k].end, hi))
                       for k in kids if spans[k].end > lo and spans[k].start < hi])

    own = [span.end - span.start - covered(children[i], span.start, span.end)
           for i, span in enumerate(spans)]
    return own, (end - start) - covered(children[None], start, end)


def solve_key(mode, n, what):
    return "solvers.%s.n%d.%s" % (mode, n, what)


def metric_names():
    """Every per-layer metric, in report order."""
    names = [
        "normalform.construct_A_s", "normalform.construct_B_s",
        "normalform.cross_validate_self_s", "normalform.construct_A_calls",
        "normalform.terms_A", "normalform.terms_B", "normalform.kept",
        "normalform.removed", "normalform.cross_discrepancy",
        "series.substitute_s", "series.substitute_calls", "series.solve_implicit_s",
        "series.evaluate_s", "series.evaluate_calls",
        "linalg.eigen_s", "linalg.eigen_calls",
        "system.build_embedding_s",
        "boundary.derive_s", "boundary.closure_s", "boundary.closure_calls",
    ]
    for mode in SOLVE_MODES:
        for n in SOLVE_N:
            names.append(solve_key(mode, n, "wall_s"))
            names.extend(solve_key(mode, n, c) for c in SOLVE_COUNTERS)
    names += ["solvers.interior_error_s", "cli.bytes_written"]
    names += ["%s.self_s" % layer for layer in LAYERS]
    names += ["trace.op_s", "trace.unattributed_s", "trace.overhead_s"]
    return names


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "B"
    if name == "normalform.cross_discrepancy":
        return "1"
    return "count"


_INCLUSIVE = ("series.substitute", "series.solve_implicit", "series.evaluate", "linalg.eigen",
              "system.build_embedding", "boundary.derive", "boundary.closure",
              "solvers.interior_error")
_COUNTED = ("series.substitute", "series.evaluate", "linalg.eigen", "boundary.closure")


def layer_metrics(spans, start, end):
    """Per-layer figures of one op whose timed region is [start, end].

    Time metrics ending in ``_s`` sum the outermost spans of one name (a
    span nested in a span of the same name is not counted twice); layer
    ``self_s`` values plus ``trace.unattributed_s`` add up to
    ``trace.op_s``.  Metrics of layers the op never entered are 0.
    """
    out = dict.fromkeys(metric_names(), 0)
    own, unattributed = self_times(spans, start, end)

    def outermost(i):
        name = spans[i].name
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return False
            p = spans[p].parent
        return True

    for i, span in enumerate(spans):
        dur = span.end - span.start
        out["%s.self_s" % span.layer] += own[i]
        if span.name in _INCLUSIVE and outermost(i):
            out[span.name + "_s"] += dur
        if span.name in _COUNTED:
            out[span.name + "_calls"] += 1
        if span.name == "normalform.construct":
            v = span.attrs["variant"]
            out["normalform.construct_%s_s" % v] += dur
            if v == "A":
                out["normalform.construct_A_calls"] += 1
                out["normalform.kept"] = span.attrs.get("kept", 0)
                out["normalform.removed"] = span.attrs.get("removed", 0)
            out["normalform.terms_%s" % v] = span.attrs.get("terms", 0)
        elif span.name == "normalform.cross_validate":
            out["normalform.cross_validate_self_s"] += own[i]
            out["normalform.cross_discrepancy"] = span.attrs.get("discrepancy", 0)
        elif span.name == "solvers.solve":
            mode, n = span.attrs["mode"], span.attrs["n"]
            if mode in SOLVE_MODES and n in SOLVE_N:
                out[solve_key(mode, n, "wall_s")] += dur
        elif span.name == "solvers.solve_ivp" and span.parent is not None:
            parent = spans[span.parent]
            mode, n = parent.attrs.get("mode"), parent.attrs.get("n")
            if mode in SOLVE_MODES and n in SOLVE_N:
                for c in SOLVE_COUNTERS:
                    out[solve_key(mode, n, c)] += span.attrs.get(c, 0)
    out["trace.op_s"] = end - start
    out["trace.unattributed_s"] = unattributed
    return out

