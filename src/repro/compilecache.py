"""The unified content-hash cache behind every compiled artefact.

Compiled networks (:mod:`repro.bbn.compiled`), compiled and loaded
cases (:mod:`repro.arguments.compiled`), contraction paths and decoded
store tiles (:mod:`repro.store.reader`) are all *regions* of one core:

* :class:`ContentCache` — a thread-safe, size-bounded, in-memory LRU
  map from content-hash keys to values, with hit/miss accounting.
* :func:`region` — named process-wide cache instances.  Compilation
  layers ask for their region once at import time
  (``region("bbn.network")``, ``region("arguments.case")``, ...);
  ``sweep --metrics`` reports their ``cache.<region>.*`` counters.
* :func:`cache_stats` / :func:`clear_all_regions` — whole-process
  introspection and reset.

Keys are caller-defined strings; by convention they are canonical
content hashes (:meth:`BayesianNetwork.content_hash`,
:meth:`QuantifiedCase.content_hash`, :meth:`ScenarioSpec.key`), so a
stale value cannot be served after the thing it describes changes — the
key changes with the content, and invalidation is automatic.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .errors import DomainError
from .telemetry import metrics, tracer

__all__ = [
    "ContentCache",
    "region",
    "region_names",
    "cache_stats",
    "clear_all_regions",
    "compile_seconds",
]

# Process-wide factory-time accumulator: the streaming executor diffs
# this across a run to report the "compile" stage even when telemetry
# is off (worker *processes* accumulate in their own interpreter and
# are not visible here; threads are).
_compile_time = 0.0
_compile_time_lock = threading.Lock()


def compile_seconds() -> float:
    """Total seconds spent inside cache-miss factories so far."""
    return _compile_time


def _add_compile_time(seconds: float) -> None:
    global _compile_time
    with _compile_time_lock:
        _compile_time += seconds


class ContentCache:
    """A thread-safe LRU map from content-hash keys to cached values.

    ``maxsize`` bounds the entry count (least-recently-used entries are
    evicted first).
    """

    def __init__(self, maxsize: int = 100_000,
                 name: Optional[str] = None):
        if maxsize < 1:
            raise DomainError("cache maxsize must be positive")
        self._maxsize = int(maxsize)
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._name = name or "anonymous"
        prefix = f"cache.{self._name}"
        self._m_hits = metrics.counter(f"{prefix}.hits")
        self._m_misses = metrics.counter(f"{prefix}.misses")
        self._m_evictions = metrics.counter(f"{prefix}.evictions")
        self._m_compile = metrics.histogram(f"{prefix}.compile_s")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, Any]:
        """Entry count and hit/miss counters."""
        with self._lock:
            return {
                "entries": len(self._data),
                "hits": self._hits,
                "misses": self._misses,
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"{type(self).__name__}(entries={stats['entries']}, "
            f"hits={stats['hits']}, misses={stats['misses']}, "
            f"maxsize={self._maxsize})"
        )

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for ``key`` or ``default`` (counts hit/miss)."""
        with self._lock:
            if key not in self._data:
                self._misses += 1
                self._m_misses.add()
                return default
            self._data.move_to_end(key)
            self._hits += 1
            self._m_hits.add()
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, evicting LRU entries if full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            evicted = 0
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                evicted += 1
            if evicted:
                self._m_evictions.add(evicted)

    def get_or_create(self, key: str, factory) -> Any:
        """The cached value for ``key``, computing it once via ``factory``.

        The factory runs *outside* the lock (compilation can be slow and
        may itself consult other regions); if two threads race, the first
        stored value wins and both see it on their next lookup.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                self._m_hits.add()
                return self._data[key]
            self._misses += 1
            self._m_misses.add()
        started = time.perf_counter()
        with tracer.span("compilecache.compile", region=self._name,
                         key=key[:16]):
            value = factory()
        elapsed = time.perf_counter() - started
        _add_compile_time(elapsed)
        self._m_compile.observe(elapsed)
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0


# ---------------------------------------------------------------------- #
# Named regions: one process-wide cache per compiled-artefact family
# ---------------------------------------------------------------------- #

_regions: Dict[str, ContentCache] = {}
_regions_lock = threading.Lock()


def region(name: str, maxsize: int = 512) -> ContentCache:
    """The process-wide named cache region, created on first use.

    ``maxsize`` only applies when this call creates the region; later
    callers share the existing instance unchanged.
    """
    if not name:
        raise DomainError("cache region needs a non-empty name")
    with _regions_lock:
        cache = _regions.get(name)
        if cache is None:
            cache = ContentCache(maxsize=maxsize, name=name)
            _regions[name] = cache
        return cache


def region_names() -> Tuple[str, ...]:
    """The names of all regions created so far, sorted."""
    with _regions_lock:
        return tuple(sorted(_regions))


def cache_stats() -> Dict[str, Dict[str, Any]]:
    """Region name -> stats for every region in the process."""
    with _regions_lock:
        regions = dict(_regions)
    return {name: cache.stats() for name, cache in sorted(regions.items())}


def clear_all_regions() -> None:
    """Clear every named region (tests and long-lived servers)."""
    with _regions_lock:
        regions = list(_regions.values())
    for cache in regions:
        cache.clear()
