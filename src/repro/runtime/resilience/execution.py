"""Guarded kernel execution: structured diagnostics, never raw tracebacks.

Wraps the two execution failure modes — a kernel raising mid-execution
and a watchdog timeout — into RS-coded
:class:`~repro.analysis.diagnostics.Diagnostic` values carried by an
:class:`ExecutionResult`, so callers branch on data instead of catching
arbitrary exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.runtime.resilience.watchdog import ExecutionTimeout, call_with_watchdog


@dataclass
class ExecutionResult:
    """Outcome of one guarded kernel call."""

    values: Optional[List[Any]]
    diagnostic: Optional[Diagnostic] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.diagnostic is None and self.error is None


def execute_kernel(
    kernel,
    *args: Any,
    timeout: Optional[float] = None,
    what: Optional[str] = None,
) -> ExecutionResult:
    """Run ``kernel.run(*args)``, optionally under the wall-clock watchdog.

    Any failure is returned as a structured result: RS006 for a watchdog
    timeout (with the :class:`TimeoutDiagnostic` rendered into the
    message), RS005 for an exception escaping the kernel.
    """
    label = what or f"kernel {getattr(kernel, 'entry', '?')!r}"
    try:
        if timeout is not None:
            values = call_with_watchdog(
                lambda: kernel.run(*args), timeout, what=label
            )
        else:
            values = kernel.run(*args)
    except ExecutionTimeout as exc:
        return ExecutionResult(None, exc.info.to_diagnostic(), exc)
    except Exception as exc:  # noqa: BLE001 - degrade, never crash
        return ExecutionResult(
            None,
            Diagnostic(
                "RS005",
                f"{label} raised mid-execution: "
                f"{type(exc).__name__}: {exc}",
            ),
            exc,
        )
    return ExecutionResult(list(values))
