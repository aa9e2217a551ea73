"""Span recorder and the instrumentation that feeds it (traced runs only).

A span is one timed call into a layer: name, start, end, the span that
caused it (``parent``) and the request it belongs to. Spans of one
service request share a request id, including the compile or execute
job the service runs for it on a worker thread: the benchmark's event
loop copies the caller's context into every executor job
(:class:`ContextLoop`), so a job span's parent is the request span that
dispatched it.

Spans stay in memory for the whole run and are written out once at the
end (:meth:`SpanRecorder.write`). A span's self time is its duration
minus the part of its interval that its child spans cover
(:func:`self_times`).

:func:`instrument` wraps the public functions of each layer from
outside — module attributes and class methods are swapped for timing
wrappers, and :meth:`Instrumentation.restore` puts the originals back.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: int
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        out = {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request": self.request, "thread": self.thread,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class SpanRecorder:
    """Collects spans and counters in memory for one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )

    @contextmanager
    def span(self, name: str, new_request: bool = False):
        """Time the body as one span; yields a dict for span attributes."""
        parent, request = self._current.get()
        with self._lock:
            sid = next(self._ids)
            if new_request:
                request = next(self._requests)
        token = self._current.set((sid, request))
        attrs: Dict[str, Any] = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.add(Span(sid, name, start, end, parent, request,
                          threading.get_ident(), attrs or None))

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")


def _covered(interval: Tuple[float, float],
             others: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in others if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _covered((s.start, s.end), children.get(s.sid, ()))
        for s in spans
    }


#: Spans that are a service job run on a worker thread for a request.
JOB_SPANS = ("runtime.resilient_compile", "runtime.execute")


def request_waits(spans: List[Span]) -> List[float]:
    """Per service request: time not covered by its compile/execute job.

    A request's jobs are the job spans carrying its request id. A
    single-flight joiner runs no job of its own; it is attributed the
    leader's compile job for the same fingerprint where the two overlap.
    """
    requests = [s for s in spans if s.name == "service.frontdoor"]
    jobs: Dict[Optional[int], List[Span]] = defaultdict(list)
    for s in spans:
        if s.name in JOB_SPANS:
            jobs[s.request].append(s)
    fingerprint = {
        r.request: (r.attrs or {}).get("fingerprint") for r in requests
    }
    compile_jobs_by_fp: Dict[str, List[Span]] = defaultdict(list)
    for rid, js in jobs.items():
        fp = fingerprint.get(rid)
        if fp:
            compile_jobs_by_fp[fp].extend(
                j for j in js if j.name == "runtime.resilient_compile"
            )
    waits = []
    for r in requests:
        own = jobs.get(r.request, [])
        if not own:
            fp = fingerprint.get(r.request)
            own = compile_jobs_by_fp.get(fp, []) if fp else []
        cover = _covered((r.start, r.end), [(j.start, j.end) for j in own])
        waits.append(r.duration - cover)
    return waits


class ContextLoop(asyncio.SelectorEventLoop):
    """An event loop whose executor jobs run in a copy of the caller's
    context, so spans opened inside a job know their request."""

    def run_in_executor(self, executor, func, *args):
        ctx = contextvars.copy_context()
        return super().run_in_executor(executor, ctx.run, func, *args)


class Instrumentation:
    """The set of swapped attributes; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _timed(recorder: SpanRecorder, name: str, fn: Callable,
           on_result: Optional[Callable[[Dict, Any], None]] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, result)
            return result

    return wrapper


#: (module, attribute, span name) for functions a layer's callers bind
#: by name: every import site on the measured paths is swapped.
_FUNCTIONS = (
    ("repro.service.frontdoor", "parse_module", "ir.parse"),
    ("repro.service.server", "parse_module", "ir.parse"),
    ("repro.runtime.resilience.driver", "parse_module", "ir.parse"),
    ("repro.ir.pass_manager", "verify", "ir.verify"),
    ("repro.codegen.cache", "module_fingerprint", "codegen.fingerprint"),
    ("repro.service.server", "module_fingerprint", "codegen.fingerprint"),
    ("repro.analysis.analyzer", "analyze_module", "analysis.analyze"),
    ("repro.runtime.resilience.execution", "execute_kernel",
     "runtime.execute"),
    ("repro.service.server", "execute_kernel", "runtime.execute"),
    ("repro.frontend", "analyze_function", "frontend.build"),
)

#: (module, class, method, span name) for methods.
_METHODS = (
    ("repro.codegen.executor", "CompiledKernel", "__call__",
     "codegen.kernel"),
    ("repro.ir.pass_manager", "PassManager", "run", "core.lower"),
    ("repro.runtime.resilience.driver", "ResilientPassManager", "run",
     "core.lower"),
    ("repro.analysis.analyzer", "AnalysisGate", "__call__", "analysis.gate"),
    ("repro.analysis.tv", "TranslationValidator", "begin", "analysis.tv"),
    ("repro.analysis.tv", "TranslationValidator", "after_pass",
     "analysis.tv"),
    ("repro.runtime.resilience.driver", "ResilientCompiler", "compile",
     "runtime.resilient_compile"),
    ("repro.frontend", "StencilProgram", "build_module", "frontend.build"),
    ("repro.frontend", "StencilProgram", "attach", "frontend.build"),
)

#: Counts read off each wavefront dispatch's returned stats and kept
#: on its ``runtime.dispatch`` span.
DISPATCH_FIELDS = (
    "groups", "parallel_groups", "inline_groups", "sequential_groups",
    "worker_failures",
)


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every measured layer entry point; call before set-up so
    kernels compiled afterwards bind the wrapped dispatcher."""
    inst = Instrumentation()
    for mod_name, attr, span_name in _FUNCTIONS:
        mod = importlib.import_module(mod_name)
        inst.swap(mod, attr, _timed(recorder, span_name, getattr(mod, attr)))

    def source_bytes(attrs, kernel):
        attrs["source_bytes"] = len(kernel.source)

    for mod_name in ("repro.codegen.executor", "repro.core.pipeline"):
        mod = importlib.import_module(mod_name)
        inst.swap(mod, "compile_function", _timed(
            recorder, "codegen.emit", mod.compile_function, source_bytes
        ))
    for mod_name, cls_name, method, span_name in _METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        inst.swap(cls, method, _timed(recorder, span_name,
                                      getattr(cls, method)))

    def dispatch_counts(attrs, stats):
        for name in DISPATCH_FIELDS:
            attrs[name] = getattr(stats, name)
        attrs["refusals"] = int(stats.refusal is not None)

    parallel = importlib.import_module("repro.runtime.parallel")
    inst.swap(parallel, "dispatch_wavefronts", _timed(
        recorder, "runtime.dispatch", parallel.dispatch_wavefronts,
        dispatch_counts,
    ))
    return inst
