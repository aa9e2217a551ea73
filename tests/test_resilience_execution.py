"""Executor failure paths: structured RS005/RS006 diagnostics, watchdog."""

import time

import numpy as np
import pytest

from repro.codegen.executor import compile_function
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.runtime.resilience import (
    FaultPlan,
    FaultSpec,
    clear_plan,
    injected,
)
from repro.runtime.resilience.execution import ExecutionResult, execute_kernel
from repro.runtime.resilience.watchdog import (
    ExecutionTimeout,
    TimeoutDiagnostic,
    call_with_watchdog,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    clear_plan()


def _lowered_module(shape=(8, 8)):
    module = frontend.build_stencil_kernel(
        gauss_seidel_5pt_2d(), shape, frontend.identity_body(4.0)
    )
    StencilCompiler(CompileOptions()).lower(module)
    return module


def _args(shape=(8, 8)):
    x = np.random.default_rng(0).standard_normal((1,) + shape)
    return x, np.zeros_like(x), x.copy()


class _Hanging:
    """A kernel stand-in whose run() never finishes in time."""

    entry = "kernel"

    def run(self, *args):
        time.sleep(10.0)


class TestExecuteKernel:
    def test_clean_execution(self):
        kernel = compile_function(_lowered_module())
        result = execute_kernel(kernel, *_args())
        assert result.ok
        assert len(result.values) == 1

    def test_kernel_raising_mid_execution_is_rs005(self):
        kernel = compile_function(_lowered_module())
        with injected(FaultPlan([FaultSpec("executor.execute", at=1)])):
            result = execute_kernel(kernel, *_args())
        assert not result.ok
        assert result.values is None
        assert result.diagnostic.code == "RS005"
        assert "mid-execution" in result.diagnostic.message
        assert result.error is not None

    def test_bad_arguments_degrade_to_rs005(self):
        kernel = compile_function(_lowered_module())
        result = execute_kernel(kernel)  # no arguments at all
        assert not result.ok
        assert result.diagnostic.code == "RS005"

    def test_watchdog_timeout_is_rs006(self):
        result = execute_kernel(
            _Hanging(), timeout=0.05, what="hanging kernel"
        )
        assert not result.ok
        assert result.diagnostic.code == "RS006"
        assert "hanging kernel" in result.diagnostic.message
        assert isinstance(result.error, ExecutionTimeout)
        info = result.error.info
        assert info.budget_seconds == 0.05
        assert info.elapsed_seconds >= 0.05

    def test_injected_hang_trips_watchdog(self):
        kernel = compile_function(_lowered_module())

        class Wrapped:
            entry = "kernel"

            def run(self, *args):
                from repro.runtime.resilience.faults import maybe_inject
                maybe_inject("executor.hang")
                return kernel.run(*args)

        plan = FaultPlan([FaultSpec(
            "executor.hang", action="hang", hang_seconds=0.5
        )])
        with injected(plan):
            result = execute_kernel(Wrapped(), *_args(), timeout=0.05)
        assert result.diagnostic.code == "RS006"


class TestWatchdog:
    def test_returns_result_within_budget(self):
        assert call_with_watchdog(lambda: 41 + 1, 1.0) == 42

    def test_reraises_callable_exception(self):
        with pytest.raises(KeyError, match="inner"):
            call_with_watchdog(
                lambda: (_ for _ in ()).throw(KeyError("inner")), 1.0
            )

    def test_timeout_carries_structured_fields(self):
        with pytest.raises(ExecutionTimeout) as info:
            call_with_watchdog(
                lambda: time.sleep(10.0), 0.05, what="sleepy"
            )
        td = info.value.info
        assert isinstance(td, TimeoutDiagnostic)
        assert td.what == "sleepy"
        assert td.budget_seconds == 0.05
        diag = td.to_diagnostic()
        assert diag.code == "RS006"
        assert "wall-clock" in diag.message

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            call_with_watchdog(lambda: None, 0.0)


class TestExecutionResult:
    def test_ok_predicate(self):
        assert ExecutionResult([1]).ok
        assert not ExecutionResult(
            None, diagnostic=TimeoutDiagnostic("x", 1, 1).to_diagnostic()
        ).ok
