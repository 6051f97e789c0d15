"""Streaming sweep execution: plans run chunk-by-chunk in constant memory.

:func:`run_sweep_streaming` is the engine's scale path.  Where
:func:`repro.engine.run_sweep` materialises every scenario and every
result, the streaming executor lowers the sweep to an
:class:`~repro.engine.plan.ExecutionPlan` and walks it **chunk by
chunk**: each chunk's scenarios are reconstructed lazily (mixed-radix
grid decode + directly-addressed child seeds), executed on the chosen
backend, pushed through the registered :mod:`~repro.engine.sinks`, and
dropped.  Re-runs that should skip unchanged work write a tile store and
re-run it as a delta (:mod:`repro.store.delta`).  Peak memory is set
by the chunk size and the in-flight window — not the scenario count — so
million-scenario sweeps run in the same footprint as thousand-scenario
ones.

Backends mirror :func:`run_sweep`: ``serial`` loops the scalar pipeline
(the reference), ``vectorized`` runs each chunk through the pipeline's
batch kernel, and ``thread``/``process`` keep a bounded window of chunks
in flight in a pool — workers that finish early immediately pull the
next submitted chunk (work stealing), while emission stays strictly in
scenario order.  Because per-scenario seeds are pure functions of the
master seed and the scenario index (:func:`repro.numerics.spawn_seeds_range`),
every backend and every chunk layout produces bit-for-bit identical rows
for a given spec.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..compilecache import compile_seconds
from ..errors import DomainError
from ..telemetry import metrics, tracer
from .dtypes import use_dtype
from .plan import ExecutionPlan, lower
from .results import ScenarioResult
from .sinks import ResultSink
from .spec import ScenarioSpec

__all__ = ["run_sweep_streaming", "stream_results", "BACKENDS"]

# Run-level counters/gauges; see README's telemetry reference table.
_M_ROWS = metrics.counter("engine.rows")
_M_CHUNKS = metrics.counter("engine.chunks")
_M_STEALS = metrics.counter("engine.work_steals")
_M_QUEUE_DEPTH = metrics.gauge("engine.queue_depth")

BACKENDS = ("auto", "vectorized", "serial", "thread", "process")

#: Streaming default chunk for pooled backends: small enough that a
#: handful of chunks per worker are in flight, large enough to amortise
#: pickling and dispatch.
_POOLED_CHUNK_SIZE = 1024

ProgressFn = Callable[[int, int, int, int], None]


def _execute_chunk(
    pipeline_name: str, items, dtype: str = "float64"
) -> List[Dict[str, Any]]:
    """Run one chunk's items; module-level so process pools can pickle
    it by reference.  The plan's dtype policy is re-entered here so
    pool workers (threads or processes) honour it."""
    from .dtypes import use_dtype
    from .pipelines import get_pipeline

    with use_dtype(dtype):
        return get_pipeline(pipeline_name).run_batch(items)


def _resolve_backend(plan: ExecutionPlan, backend: str) -> Tuple[str, str]:
    """(effective backend, meta label) after ``auto`` resolution.

    ``auto`` prefers the active tuning profile's measured winner for
    the pipeline (when one is installed and compatible), then falls
    back to the static rule: vectorised when the pipeline has a batch
    kernel, serial otherwise.
    """
    if backend not in BACKENDS:
        raise DomainError(
            f"backend must be one of {', '.join(BACKENDS)}, got {backend!r}"
        )
    if backend == "auto":
        from ..tuning.profile import tuned_backend

        tuned = tuned_backend(plan.pipeline_name, plan.n_scenarios)
        if tuned in BACKENDS and tuned != "auto" and not (
            tuned == "vectorized" and not plan.pipeline.supports_batch
        ):
            return tuned, f"auto->tuned:{tuned}"
        effective = (
            "vectorized" if plan.pipeline.supports_batch else "serial"
        )
        return effective, f"auto->{effective}"
    if backend == "vectorized" and not plan.pipeline.supports_batch:
        raise DomainError(
            f"pipeline {plan.pipeline_name!r} has no vectorised kernel; "
            f"use backend='serial', 'thread' or 'process'"
        )
    return backend, backend


def _emit(scenarios: List[ScenarioSpec],
          values: Sequence[Dict[str, Any]]) -> List[ScenarioResult]:
    """One executed chunk's rows, counted into the run-level metrics."""
    _M_ROWS.add(len(scenarios))
    _M_CHUNKS.add()
    return [ScenarioResult(spec, value)
            for spec, value in zip(scenarios, values)]


def stream_results(
    plan: ExecutionPlan,
    backend: str = "auto",
    max_workers: Optional[int] = None,
):
    """Yield each chunk's ordered :class:`ScenarioResult` rows, lazily.

    The generator driving :func:`run_sweep_streaming`,
    :func:`repro.engine.run_sweep` and delta sweeps' executed tiles.
    ``backend`` must already name a concrete backend or ``auto``
    (resolved here).  Chunks are yielded strictly in scenario order;
    with pooled backends a bounded window of chunks runs ahead of the
    emission point, so memory stays constant while workers steal
    whatever is submitted.  Every yielded chunk counts once towards
    the ``engine.rows`` and ``engine.chunks`` metrics.
    """
    effective, _label = _resolve_backend(plan, backend)
    if plan.n_scenarios == 0:
        return
    if effective in ("serial", "vectorized"):
        pipeline = plan.pipeline
        for chunk in plan.chunks():
            with tracer.span("stream.chunk", index=chunk.index,
                             backend=effective) as span:
                scenarios = plan.chunk_scenarios(chunk)
                items = plan.chunk_items(scenarios)
                with use_dtype(plan.dtype):
                    if effective == "serial":
                        values = [
                            pipeline.run(params, seed)
                            for params, seed in items
                        ]
                    else:
                        values = pipeline.run_batch(items) if items else []
                span.set(n=len(scenarios))
                rows = _emit(scenarios, values)
            yield rows
        return

    pool_cls = (
        ThreadPoolExecutor if effective == "thread" else ProcessPoolExecutor
    )
    with pool_cls(max_workers=max_workers) as pool:
        workers = getattr(pool, "_max_workers", None) or 1
        # Several chunks per worker in flight: finished workers steal
        # the next submitted chunk instead of idling behind a slow
        # sibling, and the reorder buffer stays bounded by the window.
        window = max(2, workers * 4)
        n_chunks = plan.n_chunks
        in_flight: Dict[int, Tuple[Any, List[ScenarioSpec]]] = {}
        next_submit = 0
        # Work-steal accounting: a chunk that completes before every
        # lower-indexed chunk has completed was executed out of turn by
        # a worker that would otherwise have idled.  The done-callbacks
        # fire on pool threads, hence the lock.
        steal_state = {"expected": 0, "steals": 0}
        early_done: set = set()
        steal_lock = threading.Lock()

        def _completed(index: int) -> None:
            with steal_lock:
                if index == steal_state["expected"]:
                    steal_state["expected"] += 1
                    while steal_state["expected"] in early_done:
                        early_done.discard(steal_state["expected"])
                        steal_state["expected"] += 1
                else:
                    early_done.add(index)
                    steal_state["steals"] += 1
                    _M_STEALS.add()

        def submit_up_to(limit: int) -> None:
            nonlocal next_submit
            while next_submit < n_chunks and len(in_flight) < limit:
                scenarios = plan.chunk_scenarios(plan.chunk(next_submit))
                future = pool.submit(
                    _execute_chunk, plan.pipeline_name,
                    plan.chunk_items(scenarios), plan.dtype,
                )
                future.add_done_callback(
                    lambda _f, index=next_submit: _completed(index)
                )
                in_flight[next_submit] = (future, scenarios)
                next_submit += 1

        try:
            for emit_index in range(n_chunks):
                submit_up_to(window)
                _M_QUEUE_DEPTH.set(len(in_flight))
                with tracer.span("stream.chunk", index=emit_index,
                                 backend=effective,
                                 queue_depth=len(in_flight),
                                 window=window) as span:
                    future, scenarios = in_flight.pop(emit_index)
                    values = future.result()
                    span.set(n=len(scenarios),
                             steals=steal_state["steals"])
                    rows = _emit(scenarios, values)
                yield rows
        finally:
            # Only reachable with futures in flight when a chunk raised
            # or the consumer abandoned the stream; don't let the
            # remaining chunks run on.
            for future, _scenarios in in_flight.values():
                future.cancel()


def run_sweep_streaming(
    sweep,
    backend: str = "auto",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    dtype: Optional[str] = None,
    sinks: Sequence[ResultSink] = (),
    progress: Optional[ProgressFn] = None,
    shards: Optional[int] = None,
    resume: bool = False,
    manifest_path: Optional[str] = None,
    max_retries: int = 2,
    delta: bool = False,
) -> Dict[str, Any]:
    """Execute a sweep chunk-by-chunk, writing results through ``sinks``.

    ``sweep`` is a :class:`~repro.engine.spec.SweepSpec`, an explicit
    scenario sequence, or an already-lowered
    :class:`~repro.engine.plan.ExecutionPlan`.  Each finished chunk is
    written to every sink in scenario order and then released, so peak
    memory is independent of the scenario count.  ``progress`` (if
    given) is called after each chunk as ``progress(done_chunks,
    n_chunks, done_scenarios, n_scenarios)``.

    ``shards=k`` (or ``resume=True``) hands the sweep to the
    :mod:`~repro.engine.coordinator`: the plan is split into ``k``
    disjoint chunk ranges run in worker *processes*, merged through the
    same sinks in the same order — bit-identical output, and (with a
    path-backed :class:`JsonlSink`) checkpointed so a killed sweep
    resumes mid-stream via ``resume=True``.  ``max_retries`` bounds
    worker-death respawns per shard.

    ``delta=True`` hands the sweep to
    :func:`repro.store.delta.run_sweep_delta`: ``sinks`` must be
    exactly one :class:`~repro.store.TileSink`, and only the tiles
    whose content fingerprints are absent from the store's manifest
    are executed — the finished store is bit-identical to a full run.

    Returns the run's meta summary: pipeline, backend, scenario/chunk
    counts, rows written, elapsed seconds, and a
    ``stage_timings`` breakdown: seconds spent lowering the plan
    (``plan_s``), inside compile-cache factories (``compile_s``, the
    process-wide :func:`repro.compilecache.compile_seconds` delta — not
    visible across *process*-pool or shard workers), pulling executed
    chunks from the backend (``execute_s``) and writing sinks
    (``sink_s``).  The stream reproduces
    :func:`repro.engine.run_sweep` exactly — same rows, same order,
    same seeds — for every backend, chunk size and shard count.
    """
    if delta:
        if shards is not None or resume:
            raise DomainError(
                "delta sweeps run single-process (skipped tiles make "
                "sharding moot); drop shards/resume"
            )
        # Imported lazily: repro.store builds on this module.
        from ..store.delta import run_sweep_delta

        return run_sweep_delta(
            sweep,
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
            dtype=dtype,
            sinks=sinks,
            progress=progress,
        )
    if shards is not None or resume:
        from .coordinator import run_sweep_sharded

        return run_sweep_sharded(
            sweep,
            shards=shards if shards is not None else 1,
            backend=backend,
            chunk_size=chunk_size,
            dtype=dtype,
            sinks=sinks,
            progress=progress,
            resume=resume,
            manifest_path=manifest_path,
            max_retries=max_retries,
        )
    started = time.perf_counter()
    compile_before = compile_seconds()
    if isinstance(sweep, ExecutionPlan):
        if chunk_size is not None and chunk_size != sweep.chunk_size:
            raise DomainError(
                "chunk_size conflicts with the already-lowered plan; "
                "re-lower the sweep instead"
            )
        if dtype is not None and dtype != sweep.dtype:
            raise DomainError(
                "dtype conflicts with the already-lowered plan; "
                "re-lower the sweep instead"
            )
        plan = sweep
        plan_elapsed = 0.0
    else:
        if chunk_size is None and backend in ("thread", "process"):
            chunk_size = _POOLED_CHUNK_SIZE
        plan = lower(sweep, chunk_size=chunk_size, dtype=dtype)
        plan_elapsed = time.perf_counter() - started
    _effective, label = _resolve_backend(plan, backend)
    from ..tuning.profile import active_profile

    profile = active_profile()
    meta: Dict[str, Any] = {
        "pipeline": plan.pipeline_name,
        "backend": label,
        "n_scenarios": plan.n_scenarios,
        "n_chunks": plan.n_chunks,
        "chunk_size": plan.chunk_size,
        "dtype": plan.dtype,
        "tuned": bool(profile is not None
                      and plan.pipeline_name in profile),
    }
    rows = chunks_done = 0
    execute_elapsed = sink_elapsed = 0.0
    opened: List[ResultSink] = []
    with tracer.span("sweep.stream", pipeline=plan.pipeline_name,
                     backend=label, n_scenarios=plan.n_scenarios,
                     n_chunks=plan.n_chunks,
                     chunk_size=plan.chunk_size) as root_span:
        try:
            # Open inside the guard: if a later sink's open() fails, the
            # earlier sinks' handles are still closed on the way out.
            for sink in sinks:
                sink.open(plan)
                opened.append(sink)
            stream = stream_results(
                plan, backend=backend, max_workers=max_workers
            )
            while True:
                stage_start = time.perf_counter()
                try:
                    chunk_results = next(stream)
                except StopIteration:
                    execute_elapsed += time.perf_counter() - stage_start
                    break
                execute_elapsed += time.perf_counter() - stage_start
                stage_start = time.perf_counter()
                for sink in sinks:
                    sink.write(chunk_results)
                sink_elapsed += time.perf_counter() - stage_start
                rows += len(chunk_results)
                chunks_done += 1
                if progress is not None:
                    progress(chunks_done, plan.n_chunks, rows,
                             plan.n_scenarios)
        finally:
            stage_start = time.perf_counter()
            for sink in opened:
                sink.close()
            sink_elapsed += time.perf_counter() - stage_start
        root_span.set(rows=rows)
    meta["rows"] = rows
    meta["elapsed_s"] = time.perf_counter() - started
    meta["stage_timings"] = {
        "plan_s": plan_elapsed,
        "compile_s": compile_seconds() - compile_before,
        "execute_s": execute_elapsed,
        "sink_s": sink_elapsed,
    }
    return meta
