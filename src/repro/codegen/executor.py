"""Compile emitted Python source and wrap it as a callable kernel."""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.codegen.python_backend import BackendError, emit_module
from repro.ir.module import ModuleOp
from repro.runtime.resilience.faults import maybe_inject


class CompiledKernel:
    """A compiled entry point of a lowered module.

    Calling the kernel returns the tuple of function results. The
    generated source is kept on ``.source`` for inspection (tests assert
    on it; EXPERIMENTS.md quotes it).
    """

    def __init__(self, source: str, namespace: Dict[str, Any], entry: str) -> None:
        self.source = source
        self.namespace = namespace
        self.entry = entry
        self._fn: Callable = namespace[entry]
        #: Set by :meth:`certify_parallel` once the race analyzer has
        #: cleared the lowered module; until then the runtime dispatcher
        #: executes wavefront groups sequentially.
        self.parallel_certified = False
        #: Diagnostics that blocked certification (empty when certified
        #: or never gated).
        self.parallel_diagnostics: List[Any] = []
        #: Static wavefront schedules stamped by the compiler
        #: (:class:`repro.core.scheduling.ScheduleStamp` per grouped
        #: loop with statically known extents).
        self.schedule: List[Any] = []

    def certify_parallel(self) -> None:
        """Allow multi-threaded wavefront dispatch for this kernel.

        Flips the module-level ``_PARALLEL_CERTIFIED`` flag the emitted
        dispatch calls read, so certification survives re-entry and is
        shared by every function in the namespace.
        """
        self.parallel_certified = True
        self.namespace["_PARALLEL_CERTIFIED"] = True

    def __call__(self, *args: Any):
        maybe_inject("executor.execute", entry=self.entry)
        maybe_inject("executor.hang", entry=self.entry)
        return self._fn(*args)

    def run(self, *args: Any) -> List[Any]:
        return list(self(*args))

    def __repr__(self) -> str:
        return (
            f"CompiledKernel(entry={self.entry!r}, "
            f"source={len(self.source)} chars)"
        )


def compile_module(module: ModuleOp) -> Dict[str, Any]:
    """Emit and exec a module; returns its namespace."""
    maybe_inject("executor.compile")
    source = emit_module(module)
    namespace: Dict[str, Any] = {}
    code = compile(source, "<repro-generated>", "exec")
    exec(code, namespace)  # noqa: S102 - this is the JIT of the backend
    namespace["__source__"] = source
    return namespace


def compile_function(module: ModuleOp, entry: str = "kernel") -> CompiledKernel:
    """Emit the lowered module and return the named function as a kernel.

    Always emits: kernels are cached one level up, on the *unlowered*
    module's fingerprint (``StencilCompiler.compile``, so a hit skips the
    pass pipeline too) and per request in the compile service.
    """
    namespace = compile_module(module)
    if entry not in namespace:
        raise BackendError(f"module defines no function {entry!r}")
    return CompiledKernel(namespace["__source__"], namespace, entry)
