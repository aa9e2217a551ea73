"""Self-tests of the benchmark itself (not of the program under test).

    python3 perfbench/selftest.py            # all checks, ~2 minutes
    python3 perfbench/selftest.py --quick    # checks 1-3 only

1. The span recorder on a synthetic span tree: self times, request
   waits (including a single-flight joiner), and parent/request
   propagation from an event-loop task into an executor job.
2. Windowed timings: every percentile window holds ten samples beyond
   the percentile, and a run too short for one reports none; a timed
   loop short of one p90 window when its seconds are up runs on, within
   its stretch.
3. The metric catalogue in ``layers.py`` matches ``BENCHMARK.json``.
4. Determinism: per workload, two traced runs with one seed and a fixed
   number of operations report identical computed counts (prover flops
   and bytes, generated source bytes, dispatch group counts, cache hits
   and misses); a second seed changes the generated inputs but not the
   set of metric names.
5. Without the program (a directory holding only ``BENCHMARK.json`` and
   ``perfbench/``) the benchmark exits non-zero and prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    MAX_STRETCH, MIN_OPS, loop_open, percentile, timing_metrics,
)
from layers import END_TO_END, PER_LAYER
from spans import ContextLoop, Span, SpanRecorder, request_waits, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Counts that must repeat exactly for a fixed seed and operation count.
DETERMINISTIC = (
    "analysis.perf.flops_per_step", "analysis.perf.dram_bytes_per_step",
    "analysis.perf.l2_bytes_per_step", "codegen.source_bytes",
    "runtime.dispatch.parallel_groups", "runtime.dispatch.sequential_groups",
    "codegen.cache.hits", "codegen.cache.misses",
)
#: Operations per determinism run: a few solver calls; two full request
#: blocks (two cold compiles) for the service.
MAX_OPS = {"heat3d-solve": 3, "lusgs-solve": 3, "compile-service": 40}


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def test_span_tree() -> None:
    # request 1: [0, 10] with children parse [1, 2] and a job [3, 8]
    # that itself has a child [4, 5]; request 2: a joiner [5, 9] of
    # request 1's fingerprint with no job of its own.
    spans = [
        Span(1, "service.frontdoor", 0.0, 10.0, None, 1, 1,
             {"fingerprint": "f"}),
        Span(2, "ir.parse", 1.0, 2.0, 1, 1, 1),
        Span(3, "runtime.resilient_compile", 3.0, 8.0, 1, 1, 2),
        Span(4, "core.lower", 4.0, 5.0, 3, 1, 2),
        Span(5, "service.frontdoor", 5.0, 9.0, None, 2, 1,
             {"fingerprint": "f"}),
    ]
    selfs = self_times(spans)
    check(selfs == {1: 4.0, 2: 1.0, 3: 4.0, 4: 1.0, 5: 4.0},
          f"self times of the synthetic tree ({selfs})")
    waits = request_waits(spans)
    check(waits == [5.0, 1.0],
          f"request waits, joiner attributed the leader's job ({waits})")
    overlapping = [Span(1, "a", 0.0, 10.0, None, None, 1),
                   Span(2, "b", 1.0, 6.0, 1, None, 2),
                   Span(3, "c", 4.0, 8.0, 1, None, 3)]
    check(self_times(overlapping)[1] == 3.0,
          "self time counts overlapping children once")


def test_context_propagation() -> None:
    recorder = SpanRecorder()

    def job():
        with recorder.span("runtime.execute"):
            pass

    async def request():
        with recorder.span("service.frontdoor", new_request=True):
            await asyncio.get_running_loop().run_in_executor(None, job)

    async def main():
        await asyncio.gather(request(), request())

    with asyncio.Runner(loop_factory=ContextLoop) as runner:
        runner.run(main())
    req = {s.request: s for s in recorder.named("service.frontdoor")}
    jobs = recorder.named("runtime.execute")
    check(len(req) == 2 and len(jobs) == 2
          and all(j.parent == req[j.request].sid for j in jobs),
          "executor jobs inherit their request's span and id")


def test_timing_windows() -> None:
    # 150 operations 10 ms apart, latency = index: the p50 takes 7 runs
    # of >= 21 (ten beyond each median), the p90 one run of 150.
    ops = [(0.01 * (i + 0.5), float(i)) for i in range(150)]
    m = timing_metrics(ops, 0.0, 1.5)
    check((m["op_ms_p50"].windows, m["op_ms_p50"].per_window,
           m["op_ms_p90"].windows, m["op_ms_p90"].per_window)
          == (7, 21, 1, 150),
          "percentile windows leave ten samples beyond the percentile")
    check(abs(m["ops_per_s"].value - 100.0) < 1e-9
          and m["op_ms_p90"].value == percentile([o[1] for o in ops], 90),
          "whole-loop throughput and whole-run p90")
    short = timing_metrics(ops[:99], 0.0, 0.99)
    check(math.isnan(short["op_ms_p90"].value)
          and short["op_ms_p90"].windows == 0,
          "a p90 of 99 samples is not reported")
    now = time.perf_counter()
    check(loop_open(now, 30.0, 0)
          and not loop_open(now - 31.0, 30.0, MIN_OPS)
          and loop_open(now - 31.0, 30.0, MIN_OPS - 1)
          and not loop_open(now - 30.0 * MAX_STRETCH - 1.0, 30.0, 1)
          and not loop_open(now, 30.0, 3, max_ops=3),
          "a loop short of one p90 window runs on, within its stretch")


def test_catalogue() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"], m["better"])
                    for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"], m["better"])
                      for m in bench["per_layer"]]
    check(declared_e2e == list(END_TO_END),
          "BENCHMARK.json end_to_end matches layers.END_TO_END")
    check(declared_layer == list(PER_LAYER),
          "BENCHMARK.json per_layer matches layers.PER_LAYER")


def _run(workload: str, seed: int, max_ops: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "600", "--trace", "1",
           "--max-ops", str(max_ops)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def _record(workload: str, seed: int) -> dict:
    path = OUT / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def _layer_value(record: dict, name: str) -> float:
    return (record["per_layer"].get(name) or record["extra"][name])["value"]


def test_determinism(workload: str) -> None:
    records = []
    for seed in (101, 101, 202):
        proc = _run(workload, seed, MAX_OPS[workload])
        check(proc.returncode == 0,
              f"{workload} seed {seed} ran clean ({proc.stderr[-300:]})")
        records.append(_record(workload, seed))
    a, b, c = records
    for name in DETERMINISTIC:
        va, vb = _layer_value(a, name), _layer_value(b, name)
        check(va == vb, f"{workload}: {name} repeats for one seed ({va})")
    check(a["inputs_digest"] == b["inputs_digest"],
          f"{workload}: one seed generates the same inputs")
    check(a["inputs_digest"] != c["inputs_digest"],
          f"{workload}: another seed generates other inputs")
    check(set(a["metrics"]) == set(c["metrics"])
          and set(a["end_to_end"]) == set(c["end_to_end"]),
          f"{workload}: the metric names do not depend on the seed")


def test_without_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat3d-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the program: non-zero exit and no result")


def main() -> None:
    test_span_tree()
    test_context_propagation()
    test_timing_windows()
    test_catalogue()
    if "--quick" in sys.argv:
        return
    test_without_program()
    for workload in MAX_OPS:
        test_determinism(workload)


if __name__ == "__main__":
    main()
