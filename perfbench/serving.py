"""The ``compile-service`` workload: a closed loop of wire-format
requests into one in-process compile service.

Two clients share one seeded request schedule and each sends its next
request only after the previous reply arrived. A request is one JSON
line (IR text plus options), decoded and handed to
``repro.service.frontdoor.handle_request``; the reply is encoded back
to a line and decoded by the client. One ``CompileService`` with
``THREADS`` workers serves both clients.

The schedule repeats blocks of :data:`BLOCK` requests in seeded order:

* warm compiles of the lint corpus (``build_corpus()``) at its own
  shapes and options, all compiled once during set-up;
* execute requests of the small 2D corpus kernels on seeded inputs;
* one cold compile per block: a corpus kernel family at a seeded shape
  never requested before, with the analysis gate and per-pass
  translation validation on. Families are taken round-robin, so every
  seed pays the same mix of compile costs.

The mix is an assumption; no traffic to the service has been recorded.
It stands for a build or test loop in front of the service: most
requests re-submit kernels compiled before (a rebuild of unchanged
code), some run a small kernel to check it, and a few bring a kernel at
a problem size never seen. The lint corpus's LU-SGS entry is left out
of the warm set, also by assumption: that loop rebuilds small kernels,
while a 55 kB LU-SGS module stands for a client that compiles once and
then runs long, as ``lusgs-solve`` does.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    THREADS, Checks, Metric, environment, loop_open, peak_rss_mib,
    percentile, tail_ok, tamper_self_test, timing_metrics,
)

#: Requests per schedule block, by kind: an assumed mix (see above).
BLOCK = {"warm": 14, "exec": 5, "cold": 1}
#: Execute replies re-checked by the checked interpreter per run
#: (first, last, and seeded others); cold kernels re-executed likewise.
EXEC_CHECKS = 12
COLD_CHECKS = 4
RTOL = 1e-9
ATOL = 1e-12

#: Corpus entries that are requested warm but never executed (3D
#: kernels, too large for an execute request's JSON arguments).
NO_EXEC = ("heat3d_implicit", "euler_lusgs")
WARM_EXCLUDED = ("euler_lusgs",)

#: Options added to every cold compile: verified compilation.
VERIFIED = {"check_level": "after-pipeline", "validate_passes": True}


def _gs5(u, b, i, j):
    u[i, j] = (b[i, j] + u[i - 1, j] + u[i, j - 1]
               + u[i, j + 1] + u[i + 1, j]) / 4.0


@dataclass
class Kernel:
    """One compilable request target: IR text, entry and options."""

    name: str
    ir: str
    entry: str
    options: Dict[str, Any]
    #: Argument shapes of the entry function.
    shapes: List[Tuple[int, ...]]

    def request(self, op: str, **extra) -> Dict[str, Any]:
        return {"op": op, "ir": self.ir, "entry": self.entry,
                "options": self.options, **extra}


def _options_json(options) -> Dict[str, Any]:
    return {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(options).items()
    }


def _kernel(name: str, module, entry: str, options) -> Kernel:
    from repro.ir.printer import print_module

    (fn,) = [op for op in module.walk()
             if op.name == "func.func" and op.sym_name == entry]
    shapes = [tuple(a.type.shape) for a in fn.arguments]
    return Kernel(name, print_module(module), entry, _options_json(options),
                  shapes)


def build_hot_set() -> List[Kernel]:
    """The warm set: every lint-corpus entry but the excluded ones."""
    from repro.analysis.corpus import build_corpus

    return [
        _kernel(e.name, e.build(), e.entry, e.options)
        for entries in build_corpus().values() for e in entries
        if e.name not in WARM_EXCLUDED
    ]


def _exec_set(hot: List[Kernel]) -> List[Kernel]:
    return [k for k in hot if not k.name.startswith(NO_EXEC)
            and len(k.shapes) == 3]


# ---- cold families -----------------------------------------------------------


def _cold_families():
    """(name, draw) pairs; ``draw(rng)`` returns ``(shape_key, build,
    options, entry)`` for one fresh cold compile."""
    from repro.core import frontend
    from repro.core.pipeline import CompileOptions, ablation_options
    from repro.core.stencil import (
        gauss_seidel_6pt_3d, gauss_seidel_9pt_2d, jacobi_5pt_2d, sor_5pt_2d,
    )

    def gs5(rng):
        from repro.frontend import analyze_function

        n, m = int(rng.integers(24, 72)), int(rng.integers(24, 72))

        def build():
            program, report = analyze_function(_gs5)
            if program is None:
                raise RuntimeError(report.render())
            return program.build_module((n, m), iterations=2)

        opts = CompileOptions(subdomain_sizes=(n // 2, m), parallel=True)
        return (n, m), build, opts, "kernel"

    def sor(rng):
        n, m = int(rng.integers(16, 80)), int(rng.integers(16, 80))
        return (n, m), lambda: frontend.build_stencil_kernel(
            sor_5pt_2d(), (n, m), frontend.sor_body(1.5, 4.0)
        ), CompileOptions(vectorize=int(rng.choice([8, 16, 32]))), "kernel"

    def jacobi(rng):
        n, m = int(rng.integers(16, 80)), int(rng.integers(16, 80))
        return (n, m), lambda: frontend.build_stencil_kernel(
            jacobi_5pt_2d(), (n, m), frontend.identity_body(4.0)
        ), CompileOptions(vectorize=int(rng.choice([8, 16, 32]))), "kernel"

    def gs9(rng):
        n, m = int(rng.integers(16, 64)), int(rng.integers(16, 64))
        return (n, m), lambda: frontend.build_stencil_kernel(
            gauss_seidel_9pt_2d(), (n, m),
            frontend.weighted_body([1.0] * 8, 8.0),
        ), CompileOptions(vectorize=int(rng.choice([8, 16, 32]))), "kernel"

    def heat(tr):
        def draw(rng):
            from repro.cfdlib.heat import build_heat3d_module

            n, d = int(rng.integers(10, 26)), int(rng.integers(1, 4))
            i = n - 2
            sub = max(1, i // d)
            return (n, d), lambda: build_heat3d_module(n, 1), ablation_options(
                tr, (sub, i, i), (sub, max(1, i // 2), i), vf=i,
            ), "heat"
        return draw

    def symmetric(rng):
        n, d = int(rng.integers(8, 24)), int(rng.integers(1, 3))
        return (n, d), lambda: frontend.build_symmetric_sweep_kernel(
            gauss_seidel_6pt_3d(), (n, n, n), frontend.identity_body(6.0)
        ), CompileOptions(subdomain_sizes=(n // (2 * d), n // 2, n),
                          parallel=True, vectorize=0), "symmetric_kernel"

    return [("gs5-frontend", gs5), ("sor", sor), ("jacobi", jacobi),
            ("gs9", gs9), ("heat3d-Tr1", heat("Tr1")),
            ("heat3d-Tr3", heat("Tr3")), ("symmetric-3d", symmetric)]


# ---- the schedule ------------------------------------------------------------


@dataclass
class Spec:
    """One scheduled request and what its reply must satisfy."""

    index: int
    kind: str
    #: Position among the requests of its kind.
    ordinal: int
    kernel: Kernel
    line: Optional[str]
    args: Optional[List[np.ndarray]] = None
    #: Filled by the client.
    reply: Optional[Dict[str, Any]] = None
    end: float = 0.0
    latency: float = 0.0
    #: An execute reply kept for the interpreter re-check.
    keep: bool = False

    def strip(self) -> None:
        """Drop the request line, arguments and returned values once
        they are no longer needed, so the benchmark's own memory stays
        out of ``peak_rss_mb``."""
        self.line = None
        if not self.keep:
            self.args = None
            if self.reply is not None:
                self.reply.pop("values", None)


class Schedule:
    """The seeded request sequence, generated lazily."""

    def __init__(self, seed: int, hot: List[Kernel]) -> None:
        self.rng = np.random.default_rng(seed)
        self.hot = hot
        self.warm_order = [hot[i] for i in self.rng.permutation(len(hot))]
        self.exec_set = _exec_set(hot)
        self.families = _cold_families()
        self.used = set()
        self.counts = {"warm": 0, "exec": 0, "cold": 0}
        self.pending: List[str] = []
        self.index = 0
        self.hash = hashlib.sha256()
        #: Execute ordinals re-checked: the first and seeded others (the
        #: last one completed is kept too, see ``_serve``).
        self.exec_checked = {0} | {
            int(i) for i in self.rng.choice(np.arange(1, 150),
                                            size=EXEC_CHECKS - 2,
                                            replace=False)
        }

    def _kind(self) -> str:
        if not self.pending:
            block = [k for k, n in BLOCK.items() for _ in range(n)]
            self.pending = [block[i] for i in self.rng.permutation(len(block))]
        return self.pending.pop()

    def _cold_kernel(self) -> Kernel:
        name, draw = self.families[self.counts["cold"] % len(self.families)]
        for _ in range(1000):
            key, build, opts, entry = draw(self.rng)
            if (name, key) not in self.used:
                self.used.add((name, key))
                break
        else:
            raise RuntimeError(f"cold family {name} ran out of fresh shapes")
        opts = dataclasses.replace(opts, **VERIFIED)
        return _kernel(f"{name}{list(key)}", build(), entry, opts)

    def next(self) -> Spec:
        kind = self._kind()
        n = self.counts[kind]
        args = None
        if kind == "warm":
            kernel = self.warm_order[n % len(self.warm_order)]
            request = kernel.request("compile")
        elif kind == "exec":
            kernel = self.exec_set[n % len(self.exec_set)]
            x = self.rng.random(kernel.shapes[0])
            b = self.rng.random(kernel.shapes[1])
            args = [x, b, x.copy()]
            request = kernel.request("execute",
                                     args=[a.tolist() for a in args])
        else:
            kernel = self._cold_kernel()
            request = kernel.request("compile")
        self.counts[kind] += 1
        request["id"] = self.index
        line = json.dumps(request)
        self.hash.update(line.encode("utf-8"))
        spec = Spec(self.index, kind, n, kernel, line, args,
                    keep=kind == "exec" and n in self.exec_checked)
        self.index += 1
        return spec


# ---- the run -----------------------------------------------------------------


async def _send(service, spec: Spec, recorder) -> None:
    from repro.service import frontdoor

    start = time.perf_counter()
    request = json.loads(spec.line)
    if recorder is None:
        reply = await frontdoor.handle_request(service, request)
    else:
        with recorder.span("service.frontdoor", new_request=True) as attrs:
            reply = await frontdoor.handle_request(service, request)
            attrs["fingerprint"] = reply.get("fingerprint")
            attrs["kind"] = spec.kind
    spec.reply = json.loads(json.dumps(reply))
    spec.end = time.perf_counter()
    spec.latency = spec.end - start


def _new_service(cache):
    from repro.codegen.certificates import CertificateMemo, set_default_memo
    from repro.codegen.cache import set_default_cache
    from repro.service import CompileService, ServiceConfig

    set_default_cache(cache)
    set_default_memo(CertificateMemo())
    return CompileService(ServiceConfig(workers=THREADS), cache=cache)


async def setup_service() -> Tuple[Any, Any, List[Kernel]]:
    """The set-up: a fresh service and cache, the warm set built and
    compiled once through the front door."""
    from repro.codegen.cache import KernelCache
    from repro.service import frontdoor

    cache = KernelCache()
    service = _new_service(cache)
    hot = build_hot_set()
    for kernel in hot:
        reply = await frontdoor.handle_request(
            service, kernel.request("compile", id=kernel.name)
        )
        if reply.get("status") != "ok":
            raise RuntimeError(f"prewarm of {kernel.name} failed: {reply}")
    return service, cache, hot


async def _serve(seed: int, seconds: float, recorder,
                 max_ops: Optional[int]) -> Dict[str, Any]:
    setup_start = time.perf_counter()
    service, cache, hot = await setup_service()
    setup_s = time.perf_counter() - setup_start
    schedule = Schedule(seed, hot)
    done: List[Spec] = []
    last_exec: List[Spec] = []
    loop_start = time.perf_counter()

    async def client():
        while loop_open(loop_start, seconds, schedule.index, max_ops):
            spec = schedule.next()
            await _send(service, spec, recorder)
            done.append(spec)
            if spec.kind == "exec":
                # Keep the latest execute whole until a newer one ends.
                if last_exec:
                    last_exec.pop().strip()
                last_exec.append(spec)
            else:
                spec.strip()
            # A networked client yields here while its next line is in
            # flight; this lets the other client and job callbacks run.
            await asyncio.sleep(0)

    await asyncio.gather(*(client() for _ in range(2)))
    loop_end = time.perf_counter()
    await service.drain()
    return {
        "service": service, "cache": cache, "hot": hot, "setup_s": setup_s,
        "done": done, "loop_s": loop_end - loop_start, "schedule": schedule,
        "times": {"setup_start": setup_start, "loop_start": loop_start,
                  "loop_end": loop_end},
        "window": (loop_start, loop_end),
        "cache_stats": dataclasses.replace(cache.stats),
        "service_stats": service.snapshot(),
    }


# ---- correctness -------------------------------------------------------------


def _expected_fingerprint(kernel: Kernel) -> str:
    from repro.codegen.cache import module_fingerprint
    from repro.ir.parser import parse_module
    from repro.service.frontdoor import options_from_json

    return module_fingerprint(
        parse_module(kernel.ir), kernel.entry,
        options_from_json(kernel.options).cache_key(),
    )


def _interpret(kernel: Kernel, args: List[np.ndarray]) -> List[np.ndarray]:
    from repro.codegen.interpreter import Interpreter
    from repro.ir.parser import parse_module

    interp = Interpreter(parse_module(kernel.ir), checked=True)
    return interp.run(kernel.entry, *[a.copy() for a in args])


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.allclose(a, b, rtol=RTOL, atol=ATOL)


def _sample(specs: List[Spec], k: int, rng) -> List[Spec]:
    if len(specs) <= k:
        return list(specs)
    middle = rng.choice(np.arange(1, len(specs) - 1), size=k - 2,
                        replace=False)
    return [specs[0]] + [specs[int(i)] for i in sorted(middle)] + [specs[-1]]


def check_replies(result: Dict[str, Any], seed: int) -> Checks:
    """Every reply's status and fingerprint, plus sampled numerics."""
    checks = Checks()
    done: List[Spec] = result["done"]
    expected_fp: Dict[int, str] = {}
    for spec in done:
        checks.attempted += 1
        reply = spec.reply or {}
        if reply.get("status") != "ok":
            checks.fail(f"request {spec.index} ({spec.kind}): status "
                        f"{reply.get('status')}: {reply.get('error')}"
                        f" {reply.get('diagnostics')}")
            continue
        if reply.get("degraded_to"):
            checks.fail(f"request {spec.index} ({spec.kind}): degraded to "
                        f"{reply['degraded_to']}")
            continue
        key = id(spec.kernel)
        if key not in expected_fp:
            expected_fp[key] = _expected_fingerprint(spec.kernel)
        if reply.get("fingerprint") != expected_fp[key]:
            checks.fail(f"request {spec.index}: fingerprint mismatch")

    rng = np.random.default_rng(seed + 1)
    execs = [s for s in done if s.kind == "exec" and s.args is not None
             and (s.reply or {}).get("status") == "ok"]
    first = None
    for spec in execs:
        checks.compared += 1
        values = spec.reply.get("values") or []
        try:
            expected = _interpret(spec.kernel, spec.args)
        except Exception as exc:  # noqa: BLE001 - an out-of-bounds trap
            checks.fail(f"execute {spec.index}: checked interpreter raised "
                        f"{type(exc).__name__}: {exc}")
            continue
        if len(values) != len(expected) or not all(
                _close(v, e) for v, e in zip(values, expected)):
            checks.fail(f"execute {spec.index} ({spec.kernel.name}) disagrees "
                        "with the checked interpreter")
        elif first is None:
            first = (values[0], expected[0])
    if first is not None:
        tamper_self_test(checks, lambda f: _close(f, first[1]), first[0])
    else:
        checks.fail("no execute reply to check")

    colds = [s for s in done if s.kind == "cold"
             and (s.reply or {}).get("status") == "ok"]
    cache = result["cache"]
    for spec in _sample(colds, COLD_CHECKS, rng):
        kernel = cache.get(spec.reply["fingerprint"])
        args = [rng.random(s) for s in spec.kernel.shapes]
        checks.compared += 1
        if kernel is None:
            checks.fail(f"cold kernel {spec.kernel.name} not in the cache")
            continue
        try:
            got = kernel(*[a.copy() for a in args])
            expected = _interpret(spec.kernel, args)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            checks.fail(f"cold kernel {spec.kernel.name} raised "
                        f"{type(exc).__name__}: {exc}")
            continue
        if not all(_close(g, e) for g, e in zip(got, expected)):
            checks.fail(f"cold kernel {spec.kernel.name} disagrees with the "
                        "checked interpreter")
    return checks


def exec_prover(hot: List[Kernel]) -> Tuple[float, float, float]:
    """Static prover (flops, DRAM bytes, L2 bytes) of one execute
    request, averaged over the execute kernels (requested equally
    often)."""
    from repro.analysis.perf.lint import analyze_stencils
    from repro.ir.parser import parse_module
    from repro.service.frontdoor import options_from_json

    totals = np.zeros(3)
    kernels = _exec_set(hot)
    for k in kernels:
        reports = analyze_stencils(parse_module(k.ir),
                                   options_from_json(k.options),
                                   machine="xeon-6152")
        totals += [sum(r.flops for _, r in reports),
                   sum(r.bytes_dram for _, r in reports),
                   sum(r.bytes_l2 for _, r in reports)]
    return tuple(float(v) for v in totals / len(kernels))


def run_service(seed: int, seconds: float, recorder=None,
                max_ops: Optional[int] = None) -> Dict:
    from spans import ContextLoop

    factory = ContextLoop if recorder is not None else None
    with asyncio.Runner(loop_factory=factory) as runner:
        result = runner.run(_serve(seed, seconds, recorder, max_ops))
    checks = check_replies(result, seed)

    done: List[Spec] = result["done"]
    lat = {kind: [s.latency * 1e3 for s in done if s.kind == kind]
           for kind in BLOCK}
    loop_s = result["loop_s"]

    def tail(samples, q):
        return percentile(samples, q) if tail_ok(samples, q) else float("nan")

    e2e = {
        "peak_rss_mb": Metric(peak_rss_mib(), "MiB"),
        **timing_metrics([(s.end, s.latency * 1e3) for s in done],
                         *result["window"]),
    }
    detail = {
        "service.req_per_s": Metric(len(done) / loop_s, "1/s", len(done)),
        "service.warm_ms_p50": Metric(percentile(lat["warm"], 50), "ms",
                                      len(lat["warm"])),
        "service.warm_ms_p99": Metric(tail(lat["warm"], 99), "ms",
                                      len(lat["warm"])),
        "service.cold_ms_p50": Metric(percentile(lat["cold"], 50), "ms",
                                      len(lat["cold"])),
        "service.cold_ms_p90": Metric(tail(lat["cold"], 90), "ms",
                                      len(lat["cold"])),
        "service.exec_ms_p50": Metric(percentile(lat["exec"], 50), "ms",
                                      len(lat["exec"])),
        "service.exec_ms_p95": Metric(tail(lat["exec"], 95), "ms",
                                      len(lat["exec"])),
    }
    hot = result["hot"]
    working_set = sum(
        int(np.prod(s)) * 8 for k in _exec_set(hot) for s in k.shapes
    )
    return {
        "e2e": e2e,
        "detail": detail,
        "checks": checks,
        "env": environment(seed, working_set),
        "inputs_digest": result["schedule"].hash.hexdigest(),
        "setup_s": result["setup_s"],
        "times": result["times"],
        "cache_stats": result["cache_stats"],
        "service_stats": result["service_stats"],
        "steps_per_call": 1,
        "prover": lambda: exec_prover(hot),
    }
