"""The async compile/execute service: :class:`CompileService`.

A long-lived front door over the existing compilation stack, built for
overload rather than straight-line speed. One event loop owns all
coordination state (no locks); compile and execute jobs run on a
bounded thread pool. The robustness machinery, in request order:

* **Warm fast path** — the request fingerprint (the same sha256 the
  kernel cache uses) is checked against the cache before admission;
  a hit answers immediately without consuming queue capacity.
* **Admission control** — at most ``max_queue`` requests may be
  pending; beyond that the request is *rejected* (RS012) with a
  retry-after hint derived from the observed service-time EWMA,
  instead of growing an unbounded queue. A draining service rejects
  with RS016.
* **Load shedding** — under queue pressure newly admitted compiles
  walk the degradation chain at admission time: past
  ``shed_watermark`` they compile at ``opt_level=0``, past
  ``shed_floor`` they skip compilation entirely and are served by the
  reference interpreter. Every decision is recorded per request
  (RS015).
* **Single-flight dedup** — concurrent requests for one fingerprint
  share one leader compilation (futures keyed on fingerprint). When a
  leader crashes or is watchdog-killed, its waiters all wake (the
  flight is removed *before* the task completes, so nobody re-joins a
  dead flight) and the first to re-enter is promoted to a new leader —
  exactly one re-dispatch per failure round (RS014), with exponential
  backoff plus jitter. A crashed leader can never strand waiters.
* **Deadlines** — each request may carry a wall-clock budget; expiry
  returns a structured RS013 response. The shared leader task is
  deliberately *not* cancelled: other waiters (and the cache) still
  want its result.
* **Graceful drain** — :meth:`drain` stops admission (RS016), lets
  every in-flight flight finish (an injected ``service.drain`` fault
  becomes an RS009 finding, never a lost request), then shuts the
  worker pool down.

Each cold compile runs through the PR-5
:class:`~repro.runtime.resilience.driver.ResilientCompiler` (snapshot
retries, degradation chain, interpreter fallback), whose every attempt
is the shared :meth:`StencilCompiler.compile
<repro.core.pipeline.StencilCompiler.compile>` sequence. Service
kernels therefore carry schedule stamps and, for ``parallel`` options,
the parallel-safety certificate that multi-threaded wavefront dispatch
requires; and with ``validate_passes=True`` a fingerprint verified once
— even by another process, via the certificate memo's disk tier — is
never re-verified. The per-request
:class:`~repro.runtime.resilience.report.RecoveryReport` rides on the
response; the service-level view is a
:class:`~repro.service.stats.ServiceReport`.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import replace
from functools import partial
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.codegen.cache import KernelCache, default_cache, module_fingerprint
from repro.core.pipeline import CompileOptions
from repro.ir.module import ModuleOp
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.runtime.resilience.driver import InterpreterKernel, ResilientCompiler
from repro.runtime.resilience.execution import execute_kernel
from repro.runtime.resilience.faults import InjectedFault, maybe_inject
from repro.runtime.resilience.report import RecoveryReport
from repro.runtime.resilience.watchdog import call_with_watchdog
from repro.service.config import ServiceConfig
from repro.service.requests import ServiceResponse
from repro.service.stats import ServiceReport, ServiceStats


class ServiceClosed(RuntimeError):
    """A request was submitted after :meth:`CompileService.drain`
    completed and the service shut down its worker pool."""


class _Flight:
    """One in-flight leader compilation, shared by its waiters."""

    __slots__ = ("fingerprint", "task", "joiners")

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.task: Optional[asyncio.Task] = None
        self.joiners = 0


class CompileService:
    """See the module docstring. All public request methods are
    coroutines and must run on one event loop; jobs execute on the
    internal thread pool."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache: Optional[KernelCache] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._cache = cache if cache is not None else default_cache()
        self.stats = ServiceStats()
        self._events: list[Diagnostic] = []
        self._requests: list[Dict[str, Any]] = []
        self._flights: Dict[str, _Flight] = {}
        self._pending = 0
        self._inflight = 0
        self._draining = False
        self._closed = False
        self._next_id = 0
        self._ewma_latency = 0.05
        self._slots = asyncio.Semaphore(self.config.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )

    # ---- public API -----------------------------------------------------

    async def compile(
        self,
        module: ModuleOp,
        entry: str = "kernel",
        options: Optional[CompileOptions] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve one compile request; always returns a response."""
        return await self._handle(module, entry, options, deadline, None)

    async def execute(
        self,
        module: ModuleOp,
        make_args: Callable[[], Tuple[Any, ...]],
        entry: str = "kernel",
        options: Optional[CompileOptions] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResponse:
        """Compile (deduped/cached like :meth:`compile`) then execute.

        ``make_args`` must return a fresh argument tuple (kernels write
        into their outputs). The execution happens exactly once per
        successful request — a failure is returned as a structured
        RS005/RS006 response, never silently retried, so the service's
        accounting invariant (no double execution) holds by
        construction.
        """
        return await self._handle(module, entry, options, deadline, make_args)

    async def drain(self, poll: float = 0.005) -> None:
        """Graceful shutdown: reject new work, finish in-flight work.

        Idempotent. After it returns every previously admitted request
        has produced a response and the worker pool is shut down.
        """
        self._draining = True
        while self._flights or self._pending:
            flights = [f for f in self._flights.values() if f.task is not None]
            for flight in flights:
                try:
                    maybe_inject("service.drain", fingerprint=flight.fingerprint)
                except InjectedFault as exc:
                    # The drain path itself faulted: convert to a
                    # finding and keep draining — the flight's waiters
                    # still get their responses.
                    self._event(
                        "RS009",
                        f"drain finalization for "
                        f"{flight.fingerprint[:12]}… faulted ({exc}); "
                        f"continuing to drain",
                    )
            if flights:
                await asyncio.wait(
                    [f.task for f in flights],
                    return_when=asyncio.ALL_COMPLETED,
                )
            else:
                # Waiters are finishing their response bookkeeping.
                await asyncio.sleep(poll)
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def report(self) -> ServiceReport:
        """The health/stats surface: a point-in-time ServiceReport."""
        return ServiceReport(
            events=list(self._events),
            requests=list(self._requests),
            stats=self.snapshot(),
        )

    def snapshot(self) -> Dict[str, Any]:
        """The raw stats block of :meth:`report`."""
        st = self.stats
        lat = sorted(st.latencies)
        from repro.service.stats import percentile

        return {
            "queue_depth": self._pending,
            "inflight": self._inflight,
            "draining": self._draining,
            "closed": self._closed,
            "workers": self.config.workers,
            "max_queue": self.config.max_queue,
            "accepted": st.accepted,
            "completed": st.completed,
            "failed": st.failed,
            "rejected_backpressure": st.rejected_backpressure,
            "rejected_draining": st.rejected_draining,
            "deadlines_expired": st.deadlines_expired,
            "cache_hits": st.cache_hits,
            "single_flight_hits": st.single_flight_hits,
            "single_flight_hit_rate": st.single_flight_hit_rate,
            "compiles_started": st.compiles_started,
            "compiles_succeeded": st.compiles_succeeded,
            "redispatches": st.redispatches,
            "executions": st.executions,
            "shed": dict(st.shed),
            "degradations": dict(st.degradations),
            "p50_latency": percentile(lat, 50),
            "p99_latency": percentile(lat, 99),
            "latency_samples": len(lat),
        }

    # ---- request lifecycle ----------------------------------------------

    async def _handle(
        self,
        module: ModuleOp,
        entry: str,
        options: Optional[CompileOptions],
        deadline: Optional[float],
        make_args: Optional[Callable[[], Tuple[Any, ...]]],
    ) -> ServiceResponse:
        if self._closed:
            raise ServiceClosed("the service has drained and shut down")
        start = time.perf_counter()
        self._next_id += 1
        rid = self._next_id
        opts = options if options is not None else replace(self.config.options)
        budget = deadline if deadline is not None else \
            self.config.default_deadline
        ctx: Dict[str, Any] = {"fingerprint": ""}
        try:
            coro = self._process(module, entry, opts, make_args, ctx)
            if budget is not None:
                resp = await asyncio.wait_for(coro, budget)
            else:
                resp = await coro
        except asyncio.TimeoutError:
            self.stats.deadlines_expired += 1
            diag = self._event(
                "RS013",
                f"request {rid} exceeded its {budget:g}s deadline "
                f"(fingerprint {ctx['fingerprint'][:12]}…); any shared "
                f"compilation continues for other waiters",
            )
            resp = ServiceResponse(
                "deadline",
                fingerprint=ctx["fingerprint"],
                diagnostics=[diag],
            )
        return self._finish(rid, resp, start)

    async def _process(
        self,
        module: ModuleOp,
        entry: str,
        opts: CompileOptions,
        make_args: Optional[Callable[[], Tuple[Any, ...]]],
        ctx: Dict[str, Any],
    ) -> ServiceResponse:
        pristine = print_module(module)
        fingerprint = module_fingerprint(module, entry, opts.cache_key())
        ctx["fingerprint"] = fingerprint
        degraded_to: Optional[str] = None
        shed_diags: list[Diagnostic] = []

        # Warm fast path: a cache hit answers without queue capacity.
        kernel = self._cache.get(fingerprint) if opts.use_cache else None
        if kernel is not None:
            self.stats.cache_hits += 1
            self.stats.accepted += 1
            return await self._maybe_execute(
                ServiceResponse("ok", fingerprint=fingerprint, kernel=kernel),
                make_args, entry,
            )

        # Admission control.
        if self._draining:
            self.stats.rejected_draining += 1
            diag = self._event(
                "RS016",
                "request rejected: the service is draining "
                "(in-flight requests are being finished)",
            )
            return ServiceResponse(
                "rejected", fingerprint=fingerprint, diagnostics=[diag]
            )
        if self._pending >= self.config.max_queue:
            return self._reject_backpressure(
                fingerprint,
                f"bounded queue full ({self._pending}/"
                f"{self.config.max_queue} pending)",
            )

        # Load shedding: walk the degradation chain at admission time.
        pressure = self._pending / self.config.max_queue
        if pressure >= self.config.shed_floor:
            degraded_to = "interpreter"
            self.stats.shed[degraded_to] = \
                self.stats.shed.get(degraded_to, 0) + 1
            shed_diags.append(self._event(
                "RS015",
                f"queue pressure {pressure:.0%} >= floor "
                f"{self.config.shed_floor:.0%}: serving "
                f"{fingerprint[:12]}… from the reference interpreter "
                f"without compiling",
            ))
            self.stats.accepted += 1
            return await self._maybe_execute(
                ServiceResponse(
                    "ok",
                    fingerprint=fingerprint,
                    kernel=InterpreterKernel(pristine, entry),
                    degraded_to=degraded_to,
                    diagnostics=shed_diags,
                ),
                make_args, entry,
            )
        if pressure >= self.config.shed_watermark and opts.opt_level > 0:
            degraded_to = "opt_level -> O0"
            opts = replace(opts, opt_level=0)
            self.stats.shed[degraded_to] = \
                self.stats.shed.get(degraded_to, 0) + 1
            shed_diags.append(self._event(
                "RS015",
                f"queue pressure {pressure:.0%} >= watermark "
                f"{self.config.shed_watermark:.0%}: admitting "
                f"{fingerprint[:12]}… at O0 instead of "
                f"O{self.config.options.opt_level}",
            ))
            fingerprint = module_fingerprint(module, entry, opts.cache_key())
            ctx["fingerprint"] = fingerprint
            kernel = self._cache.get(fingerprint) if opts.use_cache else None
            if kernel is not None:
                self.stats.cache_hits += 1
                self.stats.accepted += 1
                return await self._maybe_execute(
                    ServiceResponse(
                        "ok",
                        fingerprint=fingerprint,
                        kernel=kernel,
                        degraded_to=degraded_to,
                        diagnostics=shed_diags,
                    ),
                    make_args, entry,
                )

        # The queue stage itself is a fault site: an injected failure
        # becomes an explicit rejection, never a lost request.
        try:
            maybe_inject("service.queue", fingerprint=fingerprint)
        except InjectedFault as exc:
            return self._reject_backpressure(
                fingerprint, f"admission stage faulted ({exc})"
            )

        self.stats.accepted += 1
        self._pending += 1
        try:
            kernel, report = await self._single_flight(
                fingerprint, pristine, opts, entry
            )
        except asyncio.CancelledError:
            raise  # deadline expiry propagates to _handle
        except Exception as exc:  # noqa: BLE001 - terminal, structured
            diag = self._event(
                "RS009",
                f"compile of {fingerprint[:12]}… failed beyond every "
                f"retry and fallback: {type(exc).__name__}: {exc}",
            )
            self.stats.failed += 1
            return ServiceResponse(
                "failed",
                fingerprint=fingerprint,
                degraded_to=degraded_to,
                diagnostics=shed_diags + [diag],
            )
        finally:
            self._pending -= 1

        if report is not None:
            for label in report.degradations:
                self.stats.degradations[label] = \
                    self.stats.degradations.get(label, 0) + 1
            if report.final == "interpreter":
                self.stats.degradations["interpreter-fallback"] = \
                    self.stats.degradations.get("interpreter-fallback", 0) + 1
                degraded_to = degraded_to or "interpreter"
            elif report.degradations:
                degraded_to = degraded_to or report.degradations[-1]
        return await self._maybe_execute(
            ServiceResponse(
                "ok",
                fingerprint=fingerprint,
                kernel=kernel,
                report=report,
                degraded_to=degraded_to,
                diagnostics=shed_diags,
            ),
            make_args, entry,
        )

    def _reject_backpressure(
        self, fingerprint: str, why: str
    ) -> ServiceResponse:
        self.stats.rejected_backpressure += 1
        retry_after = max(
            0.01,
            (self._pending + 1) * self._ewma_latency
            / max(1, self.config.workers),
        )
        diag = self._event(
            "RS012",
            f"request for {fingerprint[:12]}… rejected: {why}; "
            f"retry after ~{retry_after:.3f}s",
        )
        return ServiceResponse(
            "rejected",
            fingerprint=fingerprint,
            diagnostics=[diag],
            retry_after=retry_after,
        )

    async def _maybe_execute(
        self,
        resp: ServiceResponse,
        make_args: Optional[Callable[[], Tuple[Any, ...]]],
        entry: str,
    ) -> ServiceResponse:
        if make_args is None or not resp.ok:
            return resp
        loop = asyncio.get_running_loop()
        self.stats.executions += 1
        outcome = await loop.run_in_executor(
            self._executor,
            partial(
                execute_kernel,
                resp.kernel,
                *make_args(),
                timeout=self.config.execute_watchdog,
                what=f"service execute of entry {entry!r}",
            ),
        )
        if outcome.ok:
            resp.values = outcome.values
            return resp
        self.stats.failed += 1
        self._events.append(outcome.diagnostic)
        resp.diagnostics.append(outcome.diagnostic)
        return ServiceResponse(
            "failed",
            fingerprint=resp.fingerprint,
            report=resp.report,
            degraded_to=resp.degraded_to,
            diagnostics=resp.diagnostics,
        )

    # ---- single-flight --------------------------------------------------

    async def _single_flight(
        self,
        fingerprint: str,
        pristine: str,
        opts: CompileOptions,
        entry: str,
    ) -> Tuple[Any, Optional[RecoveryReport]]:
        """Await (or become) the leader compiling ``fingerprint``.

        On leader failure every waiter wakes — the flight is removed
        from the table *inside* the leader task, before it completes,
        so a waking waiter can never re-join a dead flight — and the
        first re-entrant waiter is promoted to a new leader: exactly
        one re-dispatch per failure round (RS014).
        """
        attempts = 0
        while True:
            flight = self._flights.get(fingerprint)
            if flight is None:
                flight = _Flight(fingerprint)
                self._flights[fingerprint] = flight
                flight.task = asyncio.ensure_future(
                    self._lead(flight, pristine, opts, entry)
                )
                # Retrieve the exception even when every waiter timed
                # out (asyncio would otherwise warn at GC time).
                flight.task.add_done_callback(
                    lambda t: t.exception() if not t.cancelled() else None
                )
                if attempts:
                    self.stats.redispatches += 1
            else:
                self.stats.single_flight_hits += 1
            flight.joiners += 1
            try:
                return await asyncio.shield(flight.task)
            except asyncio.CancelledError:
                raise  # our own deadline; the flight keeps running
            except Exception as exc:  # noqa: BLE001 - loser wakeup
                attempts += 1
                if attempts > self.config.max_retries:
                    raise
                self._event(
                    "RS014",
                    f"single-flight leader for {fingerprint[:12]}… "
                    f"failed ({type(exc).__name__}: {exc}); "
                    f"re-dispatching (attempt {attempts}/"
                    f"{self.config.max_retries})",
                )
                await asyncio.sleep(self._backoff(attempts))
            finally:
                flight.joiners -= 1

    async def _lead(
        self, flight: _Flight, pristine: str, opts: CompileOptions, entry: str
    ) -> Tuple[Any, RecoveryReport]:
        self.stats.compiles_started += 1
        loop = asyncio.get_running_loop()
        try:
            async with self._slot():
                self._inflight += 1
                try:
                    kernel, report, final_opts = await loop.run_in_executor(
                        self._executor,
                        self._compile_job,
                        flight.fingerprint, pristine, opts, entry,
                    )
                finally:
                    self._inflight -= 1
        finally:
            # Remove the flight before this task is marked done: a
            # waiter waking on failure must find the table empty and
            # promote itself instead of re-joining a dead flight.
            if self._flights.get(flight.fingerprint) is flight:
                del self._flights[flight.fingerprint]
        self.stats.compiles_succeeded += 1
        if opts.use_cache and report.final == "compiled":
            # Key degraded kernels under their *actual* configuration:
            # an uncontended future request at full quality must not
            # alias to a degraded artifact.
            actual = flight.fingerprint
            if final_opts is not None and \
                    final_opts.cache_key() != opts.cache_key():
                actual = module_fingerprint(
                    parse_module(pristine), entry, final_opts.cache_key()
                )
            self._cache.put(actual, kernel)
        return kernel, report

    def _slot(self):
        class _Slot:
            def __init__(self, sem: asyncio.Semaphore) -> None:
                self._sem = sem

            async def __aenter__(self):
                await self._sem.acquire()

            async def __aexit__(self, *exc):
                self._sem.release()

        return _Slot(self._slots)

    def _compile_job(
        self, fingerprint: str, pristine: str, opts: CompileOptions, entry: str
    ) -> Tuple[Any, RecoveryReport, Optional[CompileOptions]]:
        """The leader's job (worker thread): fault site, watchdog,
        resilient compile."""

        def job():
            maybe_inject("service.leader", fingerprint=fingerprint)
            driver = ResilientCompiler(
                opts,
                max_retries=self.config.pipeline_retries,
                backoff_base=self.config.backoff_base,
            )
            kernel, report = driver.compile(parse_module(pristine), entry)
            return kernel, report, driver.final_options

        if self.config.compile_watchdog is not None:
            return call_with_watchdog(
                job,
                self.config.compile_watchdog,
                what=f"leader compile of {fingerprint[:12]}…",
            )
        return job()

    # ---- bookkeeping ----------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        base = self.config.backoff_base * (2 ** (attempt - 1))
        return base * (1.0 + self.config.jitter * random.random())

    def _event(
        self, code: str, message: str, severity: Optional[str] = None
    ) -> Diagnostic:
        from repro.analysis.diagnostics import REGISTRY

        diag = Diagnostic(
            code, message, severity=severity or REGISTRY[code].severity
        )
        self._events.append(diag)
        return diag

    def _finish(
        self, rid: int, resp: ServiceResponse, start: float
    ) -> ServiceResponse:
        resp.request_id = rid
        resp.latency = time.perf_counter() - start
        self.stats.observe_latency(resp.latency, self.config.latency_window)
        self._ewma_latency = 0.8 * self._ewma_latency + 0.2 * resp.latency
        if resp.status == "ok":
            self.stats.completed += 1
        self._requests.append({
            "id": rid,
            "status": resp.status,
            "fingerprint": resp.fingerprint[:16],
            "codes": resp.codes(),
            "degraded_to": resp.degraded_to,
            "retry_after": resp.retry_after,
            "latency": resp.latency,
        })
        if len(self._requests) > self.config.latency_window:
            del self._requests[
                : len(self._requests) - self.config.latency_window
            ]
        return resp
