"""One verified-compile path: the compile service, the resilient driver
and the plain compiler all produce the same parallel-certified kernel.

``ResilientCompiler`` (and through it ``CompileService``) runs every
attempt through ``StencilCompiler.compile``, so a kernel handed out by
the service carries the same schedule stamps and parallel-safety
certificate as one compiled directly, and dispatches its wavefront
groups on threads instead of refusing (RS011).
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.analysis.corpus import build_corpus
from repro.cfdlib.heat import initial_temperature
from repro.codegen.cache import KernelCache, module_fingerprint
from repro.codegen.certificates import (
    CertificateMemo,
    default_memo,
    set_default_memo,
)
from repro.core.pipeline import StencilCompiler
from repro.runtime.parallel import (
    drain_events,
    last_dispatch_stats,
    num_threads,
)
from repro.runtime.resilience import FaultPlan, FaultSpec, injected
from repro.runtime.resilience.driver import ResilientCompiler
from repro.service import CompileService, ServiceConfig

ENTRY = next(
    e for e in build_corpus()["heat3d_implicit"]
    if e.name == "heat3d_implicit[Tr4]"
)
N = 24


@pytest.fixture(autouse=True)
def _fresh_memo():
    previous = set_default_memo(CertificateMemo())
    yield
    set_default_memo(previous)


def _direct(options=ENTRY.options):
    options = dataclasses.replace(options, use_cache=False)
    return StencilCompiler(options).compile(ENTRY.build(), ENTRY.entry)


def _resilient():
    kernel, report = ResilientCompiler(ENTRY.options).compile(
        ENTRY.build(), ENTRY.entry
    )
    assert report.final == "compiled" and not report.degraded
    return kernel


def _resilient_after_restore():
    # One transient LICM fault: the pass manager restores the last-good
    # IR snapshot (a new module object) and the kernel must be emitted,
    # stamped and certified from that module, not the abandoned one.
    plan = FaultPlan([FaultSpec(
        "pipeline.pass-run", match={"pass_name": "licm"},
    )])
    with injected(plan):
        kernel, report = ResilientCompiler(
            ENTRY.options, backoff_base=0.0
        ).compile(ENTRY.build(), ENTRY.entry)
    assert "RS001" in report.codes() and not report.degraded
    return kernel


def _served():
    async def scenario():
        svc = CompileService(ServiceConfig(), cache=KernelCache())
        resp = await svc.compile(
            ENTRY.build(), ENTRY.entry, options=ENTRY.options
        )
        await svc.drain()
        return resp

    resp = asyncio.run(scenario())
    assert resp.ok and resp.degraded_to is None
    return resp.kernel


def _args():
    t0 = initial_temperature(N, seed=7)[None]
    return t0, np.zeros_like(t0)


def _run(kernel, threads):
    t0, dt0 = _args()
    drain_events()
    with num_threads(threads):
        out = kernel(t0.copy(), dt0.copy())
    return out, last_dispatch_stats(), drain_events()


@pytest.fixture
def sequential():
    out, _, _ = _run(_direct(), 1)
    return out


@pytest.mark.parametrize(
    "path", [_served, _resilient, _resilient_after_restore, _direct],
    ids=["service", "resilient", "resilient-after-restore", "direct"],
)
def test_every_path_yields_the_certified_kernel(path, sequential):
    kernel = path()
    reference = _direct()
    assert kernel.parallel_certified
    assert kernel.namespace["_PARALLEL_CERTIFIED"] is True
    assert kernel.source == reference.source
    assert kernel.schedule and kernel.schedule == reference.schedule
    out, stats, events = _run(kernel, 2)
    assert stats.parallel_groups > 0
    assert stats.refusal is None
    assert "RS011" not in {e.code for e in events}
    for want, got in zip(sequential, out):
        assert np.array_equal(want, got)


def test_degraded_kernel_is_certified_under_its_final_options(sequential):
    # LICM runs only at O2, so failing it on every invocation forces
    # exactly one degradation step (O2 -> O1).
    plan = FaultPlan([FaultSpec(
        "pipeline.pass-run", times=10**6, match={"pass_name": "licm"},
    )])
    driver = ResilientCompiler(ENTRY.options, max_retries=1, backoff_base=0.0)
    with injected(plan):
        kernel, report = driver.compile(ENTRY.build(), ENTRY.entry)
    assert report.degradations == ["opt_level -> O1"]
    assert driver.final_options.opt_level == 1
    assert kernel.parallel_certified
    reference = _direct(driver.final_options)
    assert kernel.source == reference.source
    assert kernel.schedule == reference.schedule
    cert = default_memo().get(module_fingerprint(
        ENTRY.build(), ENTRY.entry, driver.final_options.cache_key()
    ))
    assert cert is not None and cert.parallel_clean
    out, stats, _ = _run(kernel, 2)
    assert stats.parallel_groups > 0 and stats.refusal is None
    for want, got in zip(sequential, out):
        assert np.array_equal(want, got)
