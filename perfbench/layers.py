"""The metric catalogue and the per-layer metrics of a traced run.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` declares;
every workload measures every one of them (``selftest.py`` checks the
two agree). Layer metrics that only some workloads can produce — the
compile service's front door, wait and counters, wire parsing,
resilient compiles, gate/validator passes and the ``@stencil``
frontend — and counts that are 0 on every workload of correct code
(the prover's DRAM bytes, dispatch refusals and worker failures) are
printed and written to the run file as ``extra`` metrics instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from common import Metric, percentile
from spans import SpanRecorder, Span, request_waits, self_times

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("ir.verify_ms_p50", "ms", "lower"),
    ("codegen.fingerprint_ms_p50", "ms", "lower"),
    ("codegen.cache.hit_rate", "ratio", "higher"),
    ("codegen.cache.hits", "count", "higher"),
    ("codegen.cache.misses", "count", "lower"),
    ("codegen.emit_ms_p50", "ms", "lower"),
    ("codegen.source_bytes", "B", "lower"),
    ("codegen.kernel_ms_p50", "ms", "lower"),
    ("core.lower_ms_p50", "ms", "lower"),
    ("analysis.analyze_ms_p50", "ms", "lower"),
    ("analysis.perf.flops_per_step", "flop", "lower"),
    ("analysis.perf.l2_bytes_per_step", "B", "lower"),
    ("analysis.perf.intensity", "flop/B", "higher"),
    ("analysis.perf.gflops_achieved", "GFLOP/s", "higher"),
    ("runtime.execute_ms_p50", "ms", "lower"),
    ("runtime.dispatch.parallel_groups", "count", "higher"),
    ("runtime.dispatch.sequential_groups", "count", "lower"),
    ("runtime.dispatch.parallel_ratio", "ratio", "higher"),
)

#: Per-layer span name -> (metric, statistic) where the statistic is the
#: span's duration or its self time.
_TIMED = (
    ("ir.verify", "ir.verify_ms_p50", "duration"),
    ("codegen.fingerprint", "codegen.fingerprint_ms_p50", "duration"),
    ("codegen.emit", "codegen.emit_ms_p50", "duration"),
    ("codegen.kernel", "codegen.kernel_ms_p50", "duration"),
    ("core.lower", "core.lower_ms_p50", "self"),
    ("analysis.analyze", "analysis.analyze_ms_p50", "duration"),
    ("runtime.execute", "runtime.execute_ms_p50", "duration"),
)

_EXTRA_TIMED = (
    ("service.frontdoor", "service.frontdoor_ms_p50", "self"),
    ("ir.parse", "ir.parse_ms_p50", "duration"),
    ("runtime.resilient_compile", "runtime.resilient_compile_ms_p50",
     "duration"),
    ("analysis.gate", "analysis.gate_ms_p50", "duration"),
    ("analysis.tv", "analysis.tv_ms_p50", "duration"),
    ("frontend.build", "frontend.build_ms_p50", "duration"),
)


def _p50(spans: List[Span], stat: str, selfs: Dict[int, float]) -> Metric:
    values = [
        (selfs[s.sid] if stat == "self" else s.duration) * 1e3 for s in spans
    ]
    return Metric(percentile(values, 50) if values else 0.0, "ms",
                  len(values))


def _in(spans: List[Span], lo: float, hi: float) -> List[Span]:
    return [s for s in spans if s.start >= lo and s.end <= hi]


def span_table(recorder: SpanRecorder,
               times: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Per span name over the measured window: calls, total and self
    time (ms), and the median duration and self time per call."""
    spans = _in(recorder.spans, times["setup_start"], times["loop_end"])
    selfs = self_times(spans)
    table: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"dur": [], "self": []})
        row["dur"].append(s.duration * 1e3)
        row["self"].append(selfs[s.sid] * 1e3)
    return {
        name: {"calls": len(r["dur"]), "total_ms": sum(r["dur"]),
               "self_ms": sum(r["self"]),
               "p50_ms": percentile(r["dur"], 50),
               "self_p50_ms": percentile(r["self"], 50)}
        for name, r in sorted(table.items())
    }


def layer_metrics(
    recorder: SpanRecorder,
    times: Dict[str, float],
    cache_stats: Any,
    service_stats: Optional[Dict[str, Any]],
    prover: Tuple[float, float, float],
    steps_per_call: int,
) -> Tuple[Dict[str, Metric], Dict[str, Metric]]:
    """Declared per-layer metrics and extras from one traced run.

    Spans count from the start of set-up to the end of the timed loop
    (``times``); dispatch counts are per kernel call of the timed loop.
    ``prover`` is the static (flops, DRAM bytes, L2 bytes) of one step;
    a kernel call advances ``steps_per_call`` steps.
    """
    spans = _in(recorder.spans, times["setup_start"], times["loop_end"])
    loop = _in(spans, times["loop_start"], times["loop_end"])
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    out: Dict[str, Metric] = {}
    for span_name, metric, stat in _TIMED:
        out[metric] = _p50(by_name.get(span_name, []), stat, selfs)

    hits, misses = cache_stats.hits, cache_stats.misses
    out["codegen.cache.hits"] = Metric(hits, "count")
    out["codegen.cache.misses"] = Metric(misses, "count")
    out["codegen.cache.hit_rate"] = Metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    sizes = [(s.attrs or {}).get("source_bytes", 0)
             for s in by_name.get("codegen.emit", [])]
    out["codegen.source_bytes"] = Metric(
        percentile(sizes, 50) if sizes else 0, "B", len(sizes))

    kernel_ms = out["codegen.kernel_ms_p50"].value
    kernel_s_per_step = kernel_ms / 1e3 / steps_per_call
    flops, dram, l2 = prover
    out["analysis.perf.flops_per_step"] = Metric(flops, "flop")
    out["analysis.perf.l2_bytes_per_step"] = Metric(l2, "B")
    out["analysis.perf.intensity"] = Metric(
        flops / (dram or l2) if (dram or l2) else 0.0, "flop/B")
    out["analysis.perf.gflops_achieved"] = Metric(
        flops / kernel_s_per_step / 1e9 if kernel_s_per_step else 0.0,
        "GFLOP/s")

    calls = max(1, sum(1 for s in loop if s.name == "codegen.kernel"))
    dispatch: Dict[str, int] = {}
    for s in loop:
        if s.name == "runtime.dispatch":
            for key, value in (s.attrs or {}).items():
                dispatch[key] = dispatch.get(key, 0) + value
    groups = dispatch.get("groups", 0)
    out["runtime.dispatch.parallel_groups"] = Metric(
        dispatch.get("parallel_groups", 0) / calls, "count")
    out["runtime.dispatch.sequential_groups"] = Metric(
        dispatch.get("sequential_groups", 0) / calls, "count")
    out["runtime.dispatch.parallel_ratio"] = Metric(
        dispatch.get("parallel_groups", 0) / groups if groups else 0.0,
        "ratio")

    extra: Dict[str, Metric] = {
        "analysis.perf.dram_bytes_per_step": Metric(dram, "B"),
        "runtime.dispatch.refusals": Metric(dispatch.get("refusals", 0),
                                            "count"),
        "runtime.dispatch.worker_failures": Metric(
            dispatch.get("worker_failures", 0), "count"),
    }
    if service_stats is not None:
        st = service_stats
        extra["service.single_flight_hit_rate"] = Metric(
            float(st["single_flight_hit_rate"]), "ratio")
        extra["service.shed"] = Metric(sum(st["shed"].values()), "count")
        extra["service.rejected"] = Metric(
            st["rejected_backpressure"] + st["rejected_draining"], "count")
    for span_name, metric, stat in _EXTRA_TIMED:
        group = by_name.get(span_name, [])
        if group:
            extra[metric] = _p50(group, stat, selfs)
    waits = [w * 1e3 for w in request_waits(spans)]
    if waits:
        extra["service.wait_ms_p50"] = Metric(percentile(waits, 50), "ms",
                                              len(waits))
    return out, extra
