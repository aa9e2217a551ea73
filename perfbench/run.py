"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload heat3d-solve --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the same workload with every layer's entry points
timed and prints the per-layer metrics, plus the tracing overhead
against the untraced result of the same workload, seed and code. Results,
spans and the environment record go to ``.perfbench_out/``. The last
line of standard output is one JSON object; the exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("heat3d-solve", "lusgs-solve", "compile-service")

#: Everything any workload or the instrumentation touches; importing it
#: up front makes ``setup_s`` charge imports the same way every run.
MODULES = (
    "numpy",
    "repro.analysis.analyzer", "repro.analysis.corpus",
    "repro.analysis.perf.lint", "repro.analysis.tv",
    "repro.baselines.elsa", "repro.cfdlib.heat", "repro.cfdlib.lusgs",
    "repro.codegen.cache", "repro.codegen.certificates",
    "repro.codegen.executor", "repro.codegen.interpreter",
    "repro.core.pipeline", "repro.frontend", "repro.ir.parser",
    "repro.runtime.parallel", "repro.runtime.resilience.driver",
    "repro.runtime.resilience.execution", "repro.service",
    "repro.service.frontdoor",
)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="also stop after this many operations "
                        "(selftest.py's determinism check)")
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up once, print the seconds taken "
                        "and exit (one of the fresh-process set-ups that "
                        "setup_s is the median of)")
    return p.parse_args(argv)


def _setup_once(workload: str) -> float:
    """One set-up in this fresh process; seconds since it started."""
    if workload == "compile-service":
        from serving import setup_service

        async def once():
            service, _, _ = await setup_service()
            elapsed = time.perf_counter() - _START
            await service.drain()
            return elapsed

        return asyncio.run(once())
    from solvers import CASES, setup_solve

    setup_solve(CASES[workload]())
    return time.perf_counter() - _START


def _fresh_setups(workload: str, trace: int) -> list:
    """Seconds to import and set up, in SETUP_REPS fresh processes run
    one after another (each is waited for), instrumented if traced."""
    from common import SETUP_REPS

    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", "0", "--seconds", "0", "--trace",
             str(trace), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def _fmt(name, m) -> str:
    n = ""
    if m.samples is not None:
        per = (f", median of {m.windows} windows of >= {m.per_window}"
               if m.windows else "")
        n = f"  (n={m.samples}{per})"
    return f"  {name:44s} {m.value:14.6g} {m.unit}{n}"


def _code_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _overhead(workload: str, seed: int, digest: str,
              traced: dict) -> dict:
    """Traced minus untraced, relative, per end-to-end metric, against
    the untraced result in OUT of this workload and seed, if it was
    measured on the same code."""
    path = OUT / f"{workload}-seed{seed}-trace0.json"
    if not path.is_file():
        return {}
    base = json.loads(path.read_text())
    if base.get("code_digest") != digest:
        return {}
    base = base["metrics"]
    out = {}
    for name, m in traced.items():
        ref = base.get(name, {}).get("value")
        if ref and math.isfinite(m.value):
            out[name] = {"traced": m.value, "untraced": ref,
                         "relative": m.value / ref - 1.0}
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        importlib.import_module(name)
    from common import Metric, median
    from layers import END_TO_END, PER_LAYER, layer_metrics, span_table
    from spans import SpanRecorder, instrument

    import_s = time.perf_counter() - _START
    if args.setup_only:
        if args.trace:
            instrument(SpanRecorder())
        print(json.dumps({"setup_s": _setup_once(args.workload)}))
        return 0
    fresh = _fresh_setups(args.workload, args.trace)
    digest = _code_digest()

    recorder = instrumentation = None
    if args.trace:
        recorder = SpanRecorder()
        instrumentation = instrument(recorder)
    try:
        if args.workload == "compile-service":
            from serving import run_service

            result = run_service(args.seed, args.seconds, recorder,
                                 args.max_ops)
        else:
            from solvers import run_solve

            result = run_solve(args.workload, args.seed, args.seconds,
                               args.max_ops)
    finally:
        if instrumentation is not None:
            instrumentation.restore()

    e2e = {"setup_s": Metric(median(fresh), "s", len(fresh)),
           **result["e2e"]}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "code_digest": digest,
        "env": result["env"],
        "inputs_digest": result["inputs_digest"],
        "setup": {"fresh_process_s": fresh, "import_s": import_s,
                  "in_process_s": result["setup_s"]},
        "end_to_end": {k: vars(v) for k, v in e2e.items()},
        "detail": {k: vars(v) for k, v in result["detail"].items()},
        "checks": result["checks"].to_json(),
    }
    if args.trace:
        per_layer, extra = layer_metrics(
            recorder, result["times"], result["cache_stats"],
            result["service_stats"], result["prover"](),
            result["steps_per_call"],
        )
        metrics = per_layer
        declared = PER_LAYER
        record["per_layer"] = {k: vars(v) for k, v in per_layer.items()}
        record["extra"] = {k: vars(v) for k, v in extra.items()}
        record["spans"] = span_table(recorder, result["times"])
        record["tracing_overhead"] = _overhead(args.workload, args.seed,
                                               digest, e2e)
    else:
        metrics = e2e
        declared = END_TO_END

    checks = result["checks"]
    correct = checks.correct and all(
        math.isfinite(metrics[name].value) for name, _, _ in declared
    )
    final = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name].value
                   if math.isfinite(metrics[name].value) else 0.0,
                   "unit": unit}
            for name, unit, _ in declared
        },
    }
    record["metrics"] = final["metrics"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if recorder is not None:
        recorder.write(OUT / f"{stem}.spans.jsonl")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = result["env"]
    print(f"  env: {env['cpu_model']}, nproc={env['nproc']}, "
          f"threads={env['threads']}, caches={env['caches']}, "
          f"python {env['python']}, numpy {env['numpy']}, working set "
          f"{env['working_set_bytes']} B "
          f"({env['working_set_over_llc'] or 0:.3g} x LLC)")
    print("end-to-end" + (" (traced)" if args.trace else "") + ":")
    for name, m in e2e.items():
        print(_fmt(name, m))
    print("workload detail (not gated):")
    for name, m in result["detail"].items():
        print(_fmt(name, m))
    if args.trace:
        print("per-layer:")
        for name, m in per_layer.items():
            print(_fmt(name, m))
        print("per-layer, not declared (this workload only, or 0 on "
              "correct code):")
        for name, m in extra.items():
            print(_fmt(name, m))
        print("self time by span (set-up + timed loop):")
        print(f"  {'span':28s} {'calls':>7s} {'total ms':>11s} "
              f"{'self ms':>11s} {'p50 ms':>9s} {'self p50':>9s}")
        for name, row in record["spans"].items():
            print(f"  {name:28s} {row['calls']:7d} {row['total_ms']:11.1f} "
                  f"{row['self_ms']:11.1f} {row['p50_ms']:9.3f} "
                  f"{row['self_p50_ms']:9.3f}")
        overhead = record["tracing_overhead"]
        if overhead:
            print("tracing overhead (traced vs untraced, same seed and "
                  "code):")
            for name, o in overhead.items():
                print(f"  {name:44s} {o['relative']:+.2%}")
        else:
            print("tracing overhead: no untraced result of this workload, "
                  f"seed and code in {OUT.name}/ to compare with")
        print(f"  spans: {len(recorder.spans)} written to "
              f"{OUT.name}/{stem}.spans.jsonl")
    c = record["checks"]
    print(f"checks: attempted={c['attempted']} failed={c['failed']} "
          f"error_rate={c['error_rate']:.4g} "
          f"reference_comparisons={c['reference_comparisons']} "
          f"tamper_detected={c['tamper_detected']}")
    for note in c["notes"]:
        print(f"  FAIL {note}")
    print(json.dumps(final))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
