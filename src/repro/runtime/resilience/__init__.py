"""Resilient compilation & execution: fault injection, checkpointed
pipeline recovery, and graceful degradation.

Submodules
----------
``faults``
    Deterministic, seedable fault injection (:data:`FAULT_SITES`,
    :class:`FaultPlan`, :func:`maybe_inject`). Stdlib-only so low-level
    modules can instrument themselves without cycles.
``report``
    :class:`RecoveryReport` — the structured audit trail of every retry,
    degradation and fallback (RS-coded diagnostics).
``watchdog``
    Wall-clock budgets for executions (:class:`TimeoutDiagnostic`).
``checkpoint``
    Solver checkpoint/restart with bit-identical resume.
``driver``
    :class:`ResilientCompiler` / :class:`ResilientPassManager` — the
    snapshot-retry + degradation-chain pipeline driver.
``execution``
    Guarded kernel execution returning structured results.

This ``__init__`` exposes the public names lazily (PEP 562): ``faults``
is imported by ``repro.ir.pass_manager``, so importing the heavy driver
eagerly here would create a cycle.
"""

from __future__ import annotations

from repro.runtime.resilience.faults import (  # noqa: F401 - re-exported
    FAULT_SITES,
    FaultPlan,
    FaultSite,
    FaultSpec,
    InjectedFault,
    clear_plan,
    injected,
    install_plan,
    maybe_inject,
)

_LAZY = {
    "RecoveryReport": ("repro.runtime.resilience.report", "RecoveryReport"),
    "AttemptRecord": ("repro.runtime.resilience.report", "AttemptRecord"),
    "TimeoutDiagnostic": (
        "repro.runtime.resilience.watchdog", "TimeoutDiagnostic"
    ),
    "ExecutionTimeout": (
        "repro.runtime.resilience.watchdog", "ExecutionTimeout"
    ),
    "call_with_watchdog": (
        "repro.runtime.resilience.watchdog", "call_with_watchdog"
    ),
    "Checkpoint": ("repro.runtime.resilience.checkpoint", "Checkpoint"),
    "CheckpointManager": (
        "repro.runtime.resilience.checkpoint", "CheckpointManager"
    ),
    "run_checkpointed": (
        "repro.runtime.resilience.checkpoint", "run_checkpointed"
    ),
    "ResilientCompiler": ("repro.runtime.resilience.driver", "ResilientCompiler"),
    "ResilientPassManager": (
        "repro.runtime.resilience.driver", "ResilientPassManager"
    ),
    "InterpreterKernel": (
        "repro.runtime.resilience.driver", "InterpreterKernel"
    ),
    "ResilienceExhausted": (
        "repro.runtime.resilience.driver", "ResilienceExhausted"
    ),
    "degradation_chain": (
        "repro.runtime.resilience.driver", "degradation_chain"
    ),
    "ExecutionResult": ("repro.runtime.resilience.execution", "ExecutionResult"),
    "execute_kernel": ("repro.runtime.resilience.execution", "execute_kernel"),
}

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "InjectedFault",
    "clear_plan",
    "injected",
    "install_plan",
    "maybe_inject",
    *_LAZY,
]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
