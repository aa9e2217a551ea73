"""Content-addressed cache of compiled kernels.

Compiling a kernel means running the whole pass pipeline and re-emitting
Python source — for the autotuner sweeps and the Fig. 11-13 benchmarks,
which recompile the same four kernels dozens of times per process, that
cost dominates end-to-end time. This module caches :class:`CompiledKernel`
objects under a *content address*:

    fingerprint = sha256(printed IR || entry || options key || backend version)

where the printed IR is the *unlowered* module a compile starts from, so
a hit skips the pass pipeline as well as emission. A hit is possible
only when the input module, the compilation options and the emitter
that produced the cached source are all identical. Stale
entries are invalidated structurally — a changed emitter version changes
every fingerprint, so old entries simply never match again.

Two tiers:

* an in-memory LRU (:class:`KernelCache`), the default, process-local;
* optional on-disk persistence (``persist=True``) under
  ``~/.cache/repro-stencils/`` (override with ``$REPRO_CACHE_DIR``): the
  emitted source is stored next to a small metadata file and re-``exec``'d
  on load, which is orders of magnitude cheaper than re-lowering.

The disk tier is hardened: entries are written atomically (temp file +
rename) with a SHA-256 checksum of the source in the metadata, and loads
verify the checksum, the emitter version and the entry point before
``exec``-ing anything. A truncated, corrupted or version-skewed entry is
*quarantined* (moved to ``<disk_dir>/quarantine/``) and treated as a
cache miss — the kernel simply recompiles and the fresh entry replaces
the bad one, so a bad file can fail at most once. Disk I/O failures
(including injected ``cache.disk-read`` / ``cache.disk-write`` faults)
degrade the cache to memory-only; they never crash a compile.

The process-wide default instance (:func:`default_cache`) is what
``StencilCompiler.compile`` consults when ``CompileOptions.use_cache``
is set; tests and benchmarks swap it with :func:`set_default_cache`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.codegen.executor import CompiledKernel
from repro.codegen.python_backend import EMITTER_VERSION
from repro.ir.module import ModuleOp
from repro.ir.printer import print_module
from repro.runtime.resilience.faults import InjectedFault, maybe_inject


class CorruptCacheEntry(Exception):
    """A disk entry failed checksum/version/entry-point validation."""


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def default_disk_dir() -> Path:
    """The on-disk cache root (``$REPRO_CACHE_DIR`` overrides)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root).expanduser()
    return Path("~/.cache/repro-stencils").expanduser()


def module_fingerprint(
    module: ModuleOp,
    entry: str = "kernel",
    options_key: str = "",
    backend_version: str = EMITTER_VERSION,
) -> str:
    """The content address of one (module, entry, options, emitter) tuple.

    ``options_key`` must identify the *complete* compilation
    configuration — callers pass ``CompileOptions.cache_key()``, which is
    built from every option field, not the lossy human-oriented
    ``describe()`` string — otherwise two configurations that lower
    differently would alias to one cached kernel.
    """
    digest = hashlib.sha256()
    for part in (print_module(module), entry, options_key, backend_version):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters of one :class:`KernelCache` instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    puts: int = 0
    #: Disk entries that failed validation and were moved to quarantine.
    quarantined: int = 0
    #: Disk reads/writes that failed outright (I/O error or injected
    #: fault); the cache degraded to memory-only for that operation.
    disk_errors: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class KernelCache:
    """An LRU of compiled kernels keyed by :func:`module_fingerprint`.

    Thread-safe: the benchmark harness compiles from worker threads.
    With ``persist=True`` every entry is also written to ``disk_dir``
    (defaulting to :func:`default_disk_dir`), and lookups that miss in
    memory fall through to disk, re-``exec`` the stored source and
    promote the kernel back into the LRU.
    """

    def __init__(
        self,
        max_entries: int = 256,
        persist: bool = False,
        disk_dir: Optional[Path] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir else (
            default_disk_dir() if persist else None
        )
        self.stats = CacheStats()
        #: ``(fingerprint, reason)`` per quarantined disk entry.
        self.quarantine_log: List[Tuple[str, str]] = []
        self._entries: "OrderedDict[str, CompiledKernel]" = OrderedDict()
        self._lock = threading.Lock()

    # ---- lookup ---------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[CompiledKernel]:
        with self._lock:
            kernel = self._entries.get(fingerprint)
            if kernel is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return kernel
        kernel = self._load_from_disk(fingerprint)
        with self._lock:
            if kernel is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(fingerprint, kernel)
            else:
                self.stats.misses += 1
        return kernel

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ---- insertion ------------------------------------------------------

    def put(self, fingerprint: str, kernel: CompiledKernel) -> None:
        with self._lock:
            self.stats.puts += 1
            self._insert(fingerprint, kernel)
        if self.disk_dir is not None:
            self._store_to_disk(fingerprint, kernel)

    def _insert(self, fingerprint: str, kernel: CompiledKernel) -> None:
        self._entries[fingerprint] = kernel
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for path in self.disk_dir.glob("*.py"):
                path.unlink(missing_ok=True)
            for path in self.disk_dir.glob("*.json"):
                path.unlink(missing_ok=True)

    # ---- disk tier ------------------------------------------------------

    def _paths(self, fingerprint: str) -> tuple:
        assert self.disk_dir is not None
        return (
            self.disk_dir / f"{fingerprint}.py",
            self.disk_dir / f"{fingerprint}.json",
        )

    def _store_to_disk(self, fingerprint: str, kernel: CompiledKernel) -> None:
        source_path, meta_path = self._paths(fingerprint)
        meta = json.dumps({
            "entry": kernel.entry,
            "emitter": EMITTER_VERSION,
            "sha256": _source_digest(kernel.source),
            "parallel_certified": bool(
                getattr(kernel, "parallel_certified", False)
            ),
            "schedule": [
                s.to_json() for s in getattr(kernel, "schedule", [])
            ],
        })
        try:
            maybe_inject("cache.disk-write", fingerprint=fingerprint)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            # Atomic writes: a crash mid-write can never leave a torn
            # entry under the final name. The temp name is unique per
            # writer (pid + thread), so concurrent writers of the same
            # fingerprint never interleave on one temp file — last
            # rename wins and every rename installs a complete entry.
            suffix = f".{os.getpid()}.{threading.get_ident()}.tmp"
            for path, text in ((source_path, kernel.source), (meta_path, meta)):
                tmp = path.with_name(path.name + suffix)
                tmp.write_text(text)
                os.replace(tmp, path)
        except (OSError, InjectedFault):
            self.stats.disk_errors += 1  # degrade to memory-only

    def _load_from_disk(self, fingerprint: str) -> Optional[CompiledKernel]:
        if self.disk_dir is None:
            return None
        source_path, meta_path = self._paths(fingerprint)
        try:
            maybe_inject("cache.disk-read", fingerprint=fingerprint)
        except InjectedFault:
            self.stats.disk_errors += 1
            return None
        if not (source_path.exists() or meta_path.exists()):
            return None  # clean miss: the pair was never written
        try:
            meta = json.loads(meta_path.read_text())
            source = source_path.read_text()
            if meta.get("emitter") != EMITTER_VERSION:
                raise CorruptCacheEntry(
                    f"emitter version skew: entry has "
                    f"{meta.get('emitter')!r}, current is {EMITTER_VERSION!r}"
                )
            if meta.get("sha256") != _source_digest(source):
                raise CorruptCacheEntry(
                    "source checksum mismatch (truncated or corrupted entry)"
                )
            namespace: Dict[str, Any] = {}
            exec(compile(source, "<repro-cached>", "exec"), namespace)  # noqa: S102
            namespace["__source__"] = source
            entry = meta.get("entry")
            if not isinstance(entry, str) or entry not in namespace:
                raise CorruptCacheEntry(
                    f"cached namespace lacks entry point {entry!r}"
                )
            kernel = CompiledKernel(source, namespace, entry)
            if meta.get("parallel_certified"):
                kernel.certify_parallel()
            if meta.get("schedule"):
                from repro.core.scheduling import ScheduleStamp

                kernel.schedule = [
                    ScheduleStamp.from_json(s) for s in meta["schedule"]
                ]
        except Exception as exc:  # noqa: BLE001 - any bad entry is a miss
            self._quarantine(fingerprint, f"{type(exc).__name__}: {exc}")
            return None
        return kernel

    def _quarantine(self, fingerprint: str, reason: str) -> None:
        """Move a bad entry aside so it can fail at most once."""
        self.stats.quarantined += 1
        self.quarantine_log.append((fingerprint, reason))
        qdir = self.disk_dir / "quarantine"
        for path in self._paths(fingerprint):
            try:
                if path.exists():
                    qdir.mkdir(parents=True, exist_ok=True)
                    os.replace(path, qdir / path.name)
            except OSError:
                try:  # cannot even move it: drop it so it never re-trips
                    path.unlink(missing_ok=True)
                except OSError:
                    pass

    def events(self) -> List[Any]:
        """RS004 diagnostics for every quarantined entry (lazy import so
        the cache module itself stays analysis-free)."""
        from repro.analysis.diagnostics import Diagnostic

        return [
            Diagnostic(
                "RS004",
                f"quarantined disk-cache entry {fp[:12]}…: {reason}",
                severity="warning",
            )
            for fp, reason in self.quarantine_log
        ]


_default_cache = KernelCache()
_default_lock = threading.Lock()


def default_cache() -> KernelCache:
    """The process-wide cache used by ``StencilCompiler.compile``."""
    return _default_cache


def set_default_cache(cache: KernelCache) -> KernelCache:
    """Swap the process-wide cache (returns the previous one)."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
