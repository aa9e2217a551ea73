"""The two solver workloads: ``heat3d-solve`` and ``lusgs-solve``.

Each compiles one generated in-place solver once during set-up and then
calls it repeatedly, chaining the state from call to call, for the
measured seconds (longer on a slow host, see ``common.loop_open``).
Every call goes through the runtime's execution entry
(``execute_kernel``), which runs the generated kernel and its wavefront
dispatch on ``THREADS`` workers.

Correctness: the input state of the first call, of one seeded call
among the first 40, and of the last call is kept; after the timed loop
the NumPy/Python reference re-runs each from the same input and the
outputs must agree to ``RTOL``/``ATOL``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    THREADS, Checks, Metric, environment, inputs_digest, loop_open,
    median, peak_rss_mib, percentile, tail_ok, tamper_self_test,
    timing_metrics,
)

#: The generated kernels agree with the references to rounding (~1e-15);
#: these leave room for summation order, not for a wrong cell.
RTOL = 1e-9
ATOL = 1e-12

#: Calls re-run at one thread after the timed loop (baseline context).
ONE_THREAD_CALLS = 6


@dataclass
class SolveCase:
    """One solver: how to build, compile, feed and check it."""

    name: str
    entry: str
    steps_per_call: int
    interior_cells: int
    working_set_bytes: int
    build: Callable[[], Any]
    options: Any
    initial_args: Callable[[int], Tuple[np.ndarray, ...]]
    next_args: Callable[[List[np.ndarray]], Tuple[np.ndarray, ...]]
    #: Reference output of one call (the oracle) for the given inputs.
    reference: Callable[[Tuple[np.ndarray, ...]], np.ndarray]
    #: The part of a call's output compared with the reference.
    observed: Callable[[List[np.ndarray]], np.ndarray]
    #: NumPy baseline: seconds per step from the given inputs.
    baseline: Callable[[Tuple[np.ndarray, ...]], Tuple[str, float]]


def heat3d_case() -> SolveCase:
    from repro.cfdlib.heat import (
        build_heat3d_module, heat3d_reference, initial_temperature,
    )
    from repro.core.pipeline import ablation_options

    n, steps = 48, 2
    interior = n - 2

    def initial(seed):
        t0 = initial_temperature(n, seed)[None]
        return t0, np.zeros_like(t0)

    def reference(args):
        return heat3d_reference(args[0][0], args[1][0], steps)[0]

    def baseline(args):
        start = time.perf_counter()
        heat3d_reference(args[0][0], args[1][0], 1)
        return "heat3d_reference", time.perf_counter() - start

    return SolveCase(
        name="heat3d-solve",
        entry="heat",
        steps_per_call=steps,
        interior_cells=interior ** 3,
        # T, dT and the fused laplacian temporary, float64.
        working_set_bytes=3 * n ** 3 * 8,
        build=lambda: build_heat3d_module(n, steps),
        options=ablation_options(
            "Tr4", (12, 12, interior), (6, 6, interior), vf=interior
        ),
        initial_args=initial,
        next_args=lambda out: (out[0], np.zeros_like(out[0])),
        reference=reference,
        observed=lambda out: out[0][0],
        baseline=baseline,
    )


def lusgs_case() -> SolveCase:
    from repro.baselines.elsa import elsa_solve
    from repro.cfdlib import euler
    from repro.cfdlib.boundary import add_ghost_layers
    from repro.cfdlib.lusgs import (
        NB_VAR, LUSGSConfig, build_lusgs_module, lusgs_reference, stable_dt,
    )
    from repro.cfdlib.mesh import StructuredMesh
    from repro.core.pipeline import CompileOptions

    n, steps = 16, 1
    shape = (n, n, n)
    mesh = StructuredMesh(shape, extent=(1.0, 1.0, 1.0))
    inner = (slice(None),) + (slice(1, -1),) * 3
    # dt comes from the unperturbed wave so the compiled module (and its
    # fingerprint) is the same for every seed; seeds perturb the state.
    config = LUSGSConfig(
        mesh=mesh,
        dt=stable_dt(euler.density_wave(shape, amplitude=0.05), mesh, cfl=1.0),
    )

    def initial(seed):
        rng = np.random.default_rng(seed)
        w0 = euler.density_wave(shape, amplitude=0.05)
        w0[0] *= 1.0 + 0.01 * rng.standard_normal(shape)
        return (add_ghost_layers(w0),)

    def baseline(args):
        start = time.perf_counter()
        elsa_solve(args[0][inner], config, 1)
        return "elsa_solve", time.perf_counter() - start

    return SolveCase(
        name="lusgs-solve",
        entry="lusgs",
        steps_per_call=steps,
        interior_cells=n ** 3,
        # W, B and dW at NB_VAR variables on the padded mesh, float64.
        working_set_bytes=3 * NB_VAR * (n + 2) ** 3 * 8,
        build=lambda: build_lusgs_module(config, steps=steps),
        # Shaped like the euler_lusgs lint-corpus entry, scaled to 16^3.
        options=CompileOptions(
            subdomain_sizes=(n // 2, n // 2, n), tile_sizes=(n // 4, n // 4, n),
            fuse=True, parallel=True, vectorize=n,
        ),
        initial_args=initial,
        next_args=lambda out: (out[0],),
        reference=lambda args: lusgs_reference(args[0][inner], config, steps),
        observed=lambda out: out[0][inner],
        baseline=baseline,
    )


CASES = {"heat3d-solve": heat3d_case, "lusgs-solve": lusgs_case}


def setup_solve(case: SolveCase):
    """The set-up: fresh caches, build the module, compile."""
    from repro.codegen.cache import KernelCache, set_default_cache
    from repro.codegen.certificates import CertificateMemo, set_default_memo
    from repro.core.pipeline import StencilCompiler

    cache = KernelCache()
    set_default_cache(cache)
    set_default_memo(CertificateMemo())
    kernel = StencilCompiler(case.options).compile(case.build(), case.entry)
    return kernel, cache


def _copy(args):
    return tuple(a.copy() for a in args)


def run_solve(name: str, seed: int, seconds: float,
              max_ops: Optional[int] = None) -> Dict:
    from repro.runtime.parallel import num_threads, shutdown_pools
    from repro.runtime.resilience import execution

    case = CASES[name]()
    setup_start = time.perf_counter()
    kernel, cache = setup_solve(case)
    setup_s = time.perf_counter() - setup_start
    args = case.initial_args(seed)
    digest = inputs_digest(args)
    rng = np.random.default_rng(seed)
    sampled = {0, int(rng.integers(1, 40))}
    kept: Dict[int, Tuple[Any, Any]] = {}
    checks = Checks()
    step_ms: List[float] = []
    ends: List[float] = []
    last = None

    with num_threads(THREADS):
        loop_start = time.perf_counter()
        calls = 0
        while loop_open(loop_start, seconds, calls, max_ops):
            inputs = _copy(args)
            start = time.perf_counter()
            outcome = execution.execute_kernel(kernel, *args)
            elapsed = time.perf_counter() - start
            checks.attempted += 1
            if not outcome.ok:
                checks.fail(f"call {calls}: {outcome.diagnostic.message}")
                args = inputs
                calls += 1
                continue
            step_ms.append(elapsed * 1e3 / case.steps_per_call)
            ends.append(start + elapsed)
            out = case.observed(outcome.values)
            if calls in sampled:
                kept[calls] = (inputs, out.copy())
            last = (calls, inputs, out.copy())
            args = case.next_args(outcome.values)
            calls += 1
        loop_end = time.perf_counter()
        loop_s = loop_end - loop_start

        one_thread_ms = []
        with num_threads(1):
            state = _copy(args)
            for _ in range(ONE_THREAD_CALLS):
                start = time.perf_counter()
                outcome = execution.execute_kernel(kernel, *state)
                one_thread_ms.append(
                    (time.perf_counter() - start) * 1e3 / case.steps_per_call
                )
                if outcome.ok:
                    state = case.next_args(outcome.values)
    shutdown_pools()

    if last is not None:
        kept[last[0]] = last[1:]
    first_compare = None
    for idx in sorted(kept):
        inputs, out = kept[idx]
        expected = case.reference(inputs)
        checks.compared += 1
        if not np.allclose(out, expected, rtol=RTOL, atol=ATOL):
            err = float(np.max(np.abs(out - expected)))
            checks.fail(f"call {idx}: max |generated - reference| = {err:.3e}")
        if first_compare is None:
            first_compare = (out, expected)
    if first_compare is not None:
        out, expected = first_compare
        tamper_self_test(
            checks,
            lambda f: np.allclose(f, expected, rtol=RTOL, atol=ATOL),
            out,
        )
    baseline_name, baseline_s = case.baseline(args)

    steps_done = len(step_ms) * case.steps_per_call
    e2e = {
        "peak_rss_mb": Metric(peak_rss_mib(), "MiB"),
        **timing_metrics(list(zip(ends, step_ms)), loop_start, loop_end,
                         case.steps_per_call),
    }
    detail = {
        "solve.mcups": Metric(
            case.interior_cells * steps_done / loop_s / 1e6, "Mcell/s",
            len(step_ms)),
        "solve.step_ms_p50": Metric(percentile(step_ms, 50), "ms",
                                    len(step_ms)),
        "solve.step_ms_p95": Metric(
            percentile(step_ms, 95) if tail_ok(step_ms, 95) else float("nan"),
            "ms", len(step_ms)),
        "baseline.one_thread_step_ms_p50": Metric(
            median(one_thread_ms), "ms", len(one_thread_ms)),
        f"baseline.{baseline_name}_step_ms": Metric(
            baseline_s * 1e3, "ms", 1),
    }
    return {
        "e2e": e2e,
        "detail": detail,
        "checks": checks,
        "env": environment(seed, case.working_set_bytes),
        "inputs_digest": digest,
        "setup_s": setup_s,
        "times": {"setup_start": setup_start, "loop_start": loop_start,
                  "loop_end": loop_end},
        "cache_stats": cache.stats,
        "service_stats": None,
        "steps_per_call": case.steps_per_call,
        "prover": lambda: solve_prover(case),
    }


def solve_prover(case: SolveCase) -> Tuple[int, int, int]:
    """Static prover (flops, DRAM bytes, L2 bytes) of one time step."""
    from repro.analysis.perf.lint import analyze_stencils

    reports = analyze_stencils(case.build(), case.options,
                               machine="xeon-6152")
    return (sum(r.flops for _, r in reports),
            sum(r.bytes_dram for _, r in reports),
            sum(r.bytes_l2 for _, r in reports))

