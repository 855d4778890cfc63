"""Per-layer tracing for the benchmark, installed from outside the program.

:func:`install` wraps the public entry point of each layer of ``repro``
(listed in :data:`LAYERS`) so every call records a :class:`Span`: name,
start, end, parent and the phase (``setup`` or ``run``) it started in.
Spans are kept in memory by the :class:`Tracer` and written out once, at
the end of the run (:meth:`Tracer.write`).  A span's *self time* is its
duration minus the durations of its direct children.

Generator entry points (enumeration) are timed per ``next()`` call: the
span's duration is the time spent inside the generator, not the time the
consumer held it open.

The program itself is not edited: wrappers replace the attribute in the
defining module or class and in every ``repro`` module that imported the
same function by name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time


class Span:
    __slots__ = ("id", "parent", "name", "phase", "start", "end", "busy", "attrs")

    def __init__(self, span_id, parent, name, phase, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.phase = phase
        self.start = start
        self.end = start
        #: nanoseconds spent inside a generator span (None for calls)
        self.busy = None
        self.attrs = {}

    @property
    def duration_ns(self) -> int:
        return self.busy if self.busy is not None else self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "phase": self.phase,
            "start_ns": self.start,
            "end_ns": self.end,
            "duration_ns": self.duration_ns,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        return Span(next(self._ids), parent, name, self.phase, time.perf_counter_ns())

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self._close(span)

    def wrap_call(self, original, name, before=None, after=None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                if before is not None:
                    before(span, args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result

        return traced

    def wrap_generator(self, original, name):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            span.busy = 0
            span.attrs["items"] = 0
            inner = original(*args, **kwargs)
            try:
                while True:
                    stack = tracer._stack()
                    stack.append(span)
                    started = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.busy += time.perf_counter_ns() - started
                        stack.pop()
                    span.attrs["items"] += 1
                    yield item
            finally:
                inner.close()
                tracer._close(span)

        return traced

    def self_times(self) -> dict[int, int]:
        """Span id → self time in nanoseconds."""
        children: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0) + span.duration_ns
        return {
            span.id: max(0, span.duration_ns - children.get(span.id, 0))
            for span in self.spans
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _replace_everywhere(owner, attr: str, wrapper) -> None:
    """Set *owner.attr* to *wrapper*; for a module-level function, also
    rebind every ``repro`` module that imported it by name."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _nodes_before(span, args):
    span.attrs["nodes0"] = args[0].slp.num_nodes()
    span.attrs["chars"] = len(args[2])


def _nodes_after(span, args, result):
    span.attrs["nodes"] = args[0].slp.num_nodes() - span.attrs.pop("nodes0")


def _chars(span, args):
    span.attrs["chars"] = len(args[1])


def _plan_miss(span, args):
    span.attrs["miss"] = args[1] not in args[0]


def _det_states(span, args, result):
    span.attrs["states"] = args[0].det.num_states


def _returned(span, args, result):
    span.attrs["returned"] = result


#: (module, class or None, attribute, span name, kind, before, after):
#: the public entry point of each layer the per-layer metrics read
LAYERS = [
    ("repro.db", "SpannerDB", "add_document", "db.add_document", "call", _nodes_before, _nodes_after),
    ("repro.db", "SpannerDB", "edit", "db.edit", "call", None, _returned),
    ("repro.query.executor", "QuerySession", "plan", "query.plan", "call", None, None),
    ("repro.query.executor", "QuerySession", "execute_plan", "query.execute_plan", "call", None, None),
    ("repro.query.executor", None, "build_automaton", "automata.build_automaton", "call", None, None),
    ("repro.kernels.plan", "PlanCache", "get_or_compile", "plan.get_or_compile", "call", _plan_miss, None),
    ("repro.regex.compile", None, "spanner_from_regex", "regex.spanner_from_regex", "call", None, None),
    ("repro.slp.spanner_eval", "SLPSpannerEvaluator", "__init__", "automata.determinize", "call", None, _det_states),
    ("repro.slp.spanner_eval", "SLPSpannerEvaluator", "preprocess", "eval.preprocess", "call", None, _returned),
    ("repro.slp.spanner_eval", "SLPSpannerEvaluator", "enumerate", "eval.enumerate", "generator", None, None),
    ("repro.slp.build", None, "repair_node", "slp.repair_node", "call", _chars, None),
    ("repro.slp.balance", None, "rebalance", "slp.rebalance", "call", None, None),
    ("repro.slp.cde", None, "apply_cde", "slp.apply_cde", "call", None, None),
    ("repro.slp.slp", "SLP", "append_text", "slp.append_text", "call", None, None),
    ("repro.stream.windowed", "WindowedSpannerStream", "ingest", "stream.ingest", "call", None, None),
    ("repro.stream.windowed", "WindowedSpannerStream", "evaluate", "stream.evaluate", "call", None, None),
    ("repro.parallel.fold", None, "text_entry", "stream.text_entry", "call", None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` (once per process)."""
    for module_name, class_name, attr, name, kind, before, after in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = getattr(owner, attr)
        if kind == "generator":
            wrapper = tracer.wrap_generator(original, name)
        else:
            wrapper = tracer.wrap_call(original, name, before, after)
        _replace_everywhere(owner, attr, wrapper)


def percentile(values, q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _slope(points) -> float:
    """Least-squares slope of log(y) on log(x); 0.0 unless the sizes span
    at least a factor of two."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if not points or max(x for x, _ in points) - min(x for x, _ in points) < math.log(2):
        return 0.0
    mean_x = _mean([x for x, _ in points])
    mean_y = _mean([y for _, y in points])
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the recorded spans plus the workload's own
    figures in *extra* (serve results, plan-cache and store statistics,
    stream windows).  Times are per call in seconds unless the name says
    otherwise; spans of the timed phase only, except the SLP build layer,
    which also counts set-up (it is what set-up spends its time on)."""
    self_ns = tracer.self_times()
    run: dict[str, list[Span]] = {}
    every: dict[str, list[Span]] = {}
    for span in tracer.spans:
        every.setdefault(span.name, []).append(span)
        if span.phase == "run":
            run.setdefault(span.name, []).append(span)

    def seconds(name, spans=None):
        spans = run.get(name, []) if spans is None else spans
        return _mean([s.duration_ns / 1e9 for s in spans])

    repairs = every.get("slp.repair_node", [])
    adds = every.get("db.add_document", [])
    compiles = [s for s in run.get("plan.get_or_compile", []) if s.attrs.get("miss")]
    builds = run.get("automata.build_automaton", [])
    build_ids = {s.id for s in builds}
    top_builds = [s for s in builds if s.parent not in build_ids]
    build_self = sum(self_ns[s.id] for s in builds)
    fresh_preprocess = [s for s in run.get("eval.preprocess", []) if s.attrs.get("returned")]
    enumerations = run.get("eval.enumerate", [])
    enum_self = sum(self_ns[s.id] for s in enumerations)
    enum_items = sum(s.attrs["items"] for s in enumerations)
    evaluations = run.get("stream.evaluate", [])
    tenth = max(1, len(evaluations) // 10)
    serve = extra.get("serve", {})
    return {
        "serve.queue_ms": serve.get("queue_ms", 0.0),
        "serve.exec_ms": serve.get("exec_ms", 0.0),
        "serve.retries": serve.get("retries", 0),
        "serve.degraded": serve.get("degraded", 0),
        "serve.shed": serve.get("shed", 0),
        "query.plan_s": seconds("query.plan"),
        "query.execute_s": seconds("query.execute_plan"),
        "plan.compile_s": seconds("plan.get_or_compile", compiles),
        "plan.hit_ratio": extra.get("plan_hit_ratio", 0.0),
        "plan.evictions": extra.get("plan_evictions", 0),
        "plan.bytes": extra.get("plan_bytes", 0),
        "regex.compile_s": seconds("regex.spanner_from_regex"),
        "automata.algebra_s": build_self / 1e9 / len(top_builds) if top_builds else 0.0,
        "automata.determinize_s": seconds("automata.determinize"),
        "automata.det_states": _mean(
            [s.attrs["states"] for s in run.get("automata.determinize", [])]
        ),
        "slp.repair_s": seconds("slp.repair_node", repairs),
        "slp.rebalance_s": seconds("slp.rebalance", every.get("slp.rebalance", [])),
        "slp.nodes_per_kchar": _mean(
            [1000 * s.attrs["nodes"] / s.attrs["chars"] for s in adds if s.attrs.get("chars")]
        ),
        "slp.repair_exponent": _slope(
            [(s.attrs["chars"], s.duration_ns) for s in repairs]
        ),
        "slp.cde_s": seconds("slp.apply_cde"),
        "slp.cde_fresh_matrices": _mean(
            [s.attrs["returned"] for s in run.get("db.edit", [])]
        ),
        "eval.preprocess_s": seconds("eval.preprocess", fresh_preprocess),
        "eval.fresh_entries": _mean([s.attrs["returned"] for s in fresh_preprocess]),
        "eval.enumerate_s": enum_self / 1e9 / len(enumerations) if enumerations else 0.0,
        "eval.us_per_tuple": enum_self / 1e3 / enum_items if enum_items else 0.0,
        "eval.cache_bytes": extra.get("cache_bytes", 0),
        "eval.sealed_nodes": extra.get("sealed_nodes", 0),
        "slp.append_s": seconds("slp.append_text"),
        "stream.ingest_s": seconds("stream.ingest"),
        "stream.guard_fold_s": seconds("stream.text_entry"),
        "stream.evaluate_s": seconds("stream.evaluate"),
        "stream.evaluate_growth": (
            _mean([s.duration_ns for s in evaluations[-tenth:]])
            / _mean([s.duration_ns for s in evaluations[:tenth]])
            if evaluations
            else 0.0
        ),
        "stream.frontier_tuples": extra.get("frontier_tuples", 0),
        "stream.queue_ms": extra.get("stream_queue_ms", 0.0),
        "stream.gen_late_ms": extra.get("gen_late_ms", 0.0),
    }

