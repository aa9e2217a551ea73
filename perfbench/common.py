"""Shared pieces of the benchmark: statistics, the environment record
and correctness bookkeeping."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Worker threads for every workload: the usable cores, nothing more.
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)

#: Fresh-process set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 7

#: Latency percentiles are medians over at most this many windows of
#: consecutive operations.
WINDOWS = 10

#: Operations a timed loop completes before it may stop: one p90 window
#: with ten samples beyond it. A loop short of them when its seconds are
#: up (a slow host) runs on, for at most ``MAX_STRETCH`` times its
#: seconds in all, instead of reporting no p90.
MIN_OPS = 100
MAX_STRETCH = 2.0


def loop_open(start: float, seconds: float, done: int,
              max_ops: Optional[int] = None) -> bool:
    """Whether a timed loop begun at ``start`` with ``done`` operations
    finished starts another: for ``seconds``, then until
    :data:`MIN_OPS` are done or the stretch runs out; never past
    ``max_ops``."""
    if max_ops is not None and done >= max_ops:
        return False
    elapsed = time.perf_counter() - start
    return elapsed < seconds or (
        done < MIN_OPS and elapsed < MAX_STRETCH * seconds)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); NaN if empty."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_windows(n: int, q: float) -> int:
    """Windows for the ``q``-th percentile of ``n`` samples: as many as
    leave every window ten samples beyond it, at most :data:`WINDOWS`;
    0 when the whole run has fewer."""
    return min(WINDOWS, int(n * (100.0 - q) / 100.0 / 10))


def tail_ok(samples: Sequence[float], q: float) -> bool:
    """At least ten samples lie beyond the ``q``-th percentile."""
    return tail_windows(len(samples), q) > 0


def timing_metrics(ops: Sequence[tuple], start: float, end: float,
                   weight: float = 1.0) -> Dict[str, "Metric"]:
    """``ops_per_s`` (``weight`` units per op): completed operations
    over the whole timed loop, ``start`` to ``end``.
    ``op_ms_p50``/``op_ms_p90``: the median over :func:`tail_windows`
    runs of consecutive operations of each run's percentile, NaN if the
    loop is too short for one.

    ``ops`` holds ``(end_time, latency_ms)`` per completed operation.
    """
    out = {"ops_per_s": Metric(len(ops) * weight / (end - start), "1/s",
                               len(ops))}
    latencies = [ms for _, ms in sorted(ops)]
    n = len(latencies)
    for q in (50, 90):
        k = tail_windows(n, q)
        chunks = [latencies[n * i // k:n * (i + 1) // k] for i in range(k)]
        out[f"op_ms_p{q}"] = Metric(
            median([percentile(c, q) for c in chunks]), "ms", n, k,
            min((len(c) for c in chunks), default=0))
    return out


def peak_rss_mib() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Metric:
    value: float
    unit: str
    samples: Optional[int] = None
    #: For a windowed percentile: windows, and samples in the smallest.
    windows: Optional[int] = None
    per_window: Optional[int] = None


@dataclass
class Checks:
    """Operations attempted, failures, and the oracle comparisons made."""

    attempted: int = 0
    failed: int = 0
    compared: int = 0
    notes: List[str] = field(default_factory=list)
    tamper_detected: Optional[bool] = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.tamper_detected is True

    def to_json(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "error_rate": self.failed / max(1, self.attempted),
            "reference_comparisons": self.compared,
            "tamper_detected": self.tamper_detected, "notes": self.notes,
        }


def tamper_self_test(checks: Checks, compare: Callable[[Any], bool],
                     field_: Any) -> None:
    """Perturb one cell of a returned field and require that the same
    comparison the run used counts it as a failure."""
    import numpy as np

    bad = np.array(field_, dtype=np.float64, copy=True)
    flat = bad.reshape(-1)
    k = flat.size // 2
    flat[k] += 1e-6 * (1.0 + abs(flat[k]))
    checks.tamper_detected = not compare(bad)


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cache_sizes() -> Dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        level = _read(f"{base}/index{idx}/level")
        kind = _read(f"{base}/index{idx}/type")
        size = _read(f"{base}/index{idx}/size")
        if level and size and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _size_bytes(text: Optional[str]) -> Optional[int]:
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    suffix = text[-1].upper()
    if suffix in units:
        return int(text[:-1]) * units[suffix]
    return int(text) if text.isdigit() else None


def _cpu_model() -> str:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(seed: int, working_set_bytes: int) -> Dict[str, Any]:
    """What the run executed on; recorded with every result."""
    import numpy as np

    caches = _cache_sizes()
    llc = _size_bytes(caches.get("L3") or caches.get("L2"))
    return {
        "nproc": os.cpu_count(),
        "usable_cores": THREADS,
        "threads": THREADS,
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": seed,
        "working_set_bytes": working_set_bytes,
        "llc_bytes": llc,
        "working_set_over_llc": (working_set_bytes / llc) if llc else None,
    }


def inputs_digest(items) -> str:
    """sha256 over the generated inputs (arrays or request lines)."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(str(item).encode("utf-8"))
    return h.hexdigest()


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else float("nan")
