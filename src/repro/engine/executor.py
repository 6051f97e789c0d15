"""Sweep execution across serial, vectorised and concurrent backends.

:func:`run_sweep` is the engine's front door for in-memory sweeps: lower
the spec to an :class:`~repro.engine.plan.ExecutionPlan`, drive it
through the streaming core (:mod:`repro.engine.stream`) into a
:class:`~repro.engine.sinks.MemorySink`, and wrap everything in a
:class:`ResultSet` in the original scenario order.  It is deliberately a
thin wrapper: **one** execution core serves both this collecting API and
:func:`~repro.engine.run_sweep_streaming`, so the two are identical row
for row — the collecting path is just the stream with an in-memory sink.

Backends
--------

``auto``
    ``vectorized`` when the pipeline has a batch kernel, else ``serial``.
``vectorized``
    The pipeline's NumPy batch kernel, chunk by chunk.
``serial``
    A plain loop over the scalar pipeline — the reference the others
    must match.
``thread`` / ``process``
    ``concurrent.futures`` pools fed with *many small chunks* (default
    four per worker): workers that finish early immediately pull the next
    chunk off the submission window, which approximates work stealing and
    keeps the pool busy when scenario costs are skewed.  Chunks in the
    process pool run the pipeline's batch kernel, so vectorisation and
    multiprocessing compose.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence, Union

from ..errors import DomainError
from ..telemetry import tracer
from .pipelines import get_pipeline
from .plan import lower
from .results import ResultSet, ScenarioResult
from .sinks import MemorySink
from .spec import ScenarioSpec, SweepSpec
from .stream import BACKENDS, run_sweep_streaming

__all__ = ["run_scenario", "run_sweep", "BACKENDS"]

SweepLike = Union[SweepSpec, Sequence[ScenarioSpec]]


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute a single scenario."""
    pipeline = get_pipeline(spec.pipeline)
    with tracer.span("scenario.run", pipeline=spec.pipeline):
        return ScenarioResult(spec, pipeline.run(dict(spec.params), spec.seed))


def _wrapper_chunk_size(
    n: int, backend: str, max_workers: Optional[int],
    chunk_size: Optional[int],
) -> int:
    """The chunk layout preserving run_sweep's historical behaviour.

    Serial and vectorised sweeps run as one chunk (the collecting API
    holds everything in memory anyway, and a single ``run_batch`` call
    is the fastest shape for a batch kernel).  Pooled backends split
    into several chunks per worker so the pool can steal work.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise DomainError("chunk_size must be positive")
        return chunk_size
    if backend in ("thread", "process"):
        workers = max_workers or os.cpu_count() or 1
        n_chunks = min(n, max(workers * 4, 1))
        return max(1, -(-n // n_chunks))
    return max(n, 1)


def run_sweep(
    sweep: SweepLike,
    backend: str = "auto",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    dtype: Optional[str] = None,
) -> ResultSet:
    """Expand and execute a sweep; results keep the expansion order.

    ``sweep`` is a :class:`SweepSpec` or an explicit sequence of
    :class:`ScenarioSpec` (which must share one pipeline).  This is the
    collecting wrapper over
    :func:`~repro.engine.run_sweep_streaming` — for sweeps too large to
    hold in memory, use the streaming API with a file sink instead.
    """
    if backend not in BACKENDS:
        raise DomainError(
            f"backend must be one of {', '.join(BACKENDS)}, got {backend!r}"
        )
    started = time.perf_counter()
    if isinstance(sweep, SweepSpec):
        n = sweep.n_scenarios()
    else:
        sweep = list(sweep)
        if not all(isinstance(s, ScenarioSpec) for s in sweep):
            raise DomainError(
                "sweep must be a SweepSpec or a sequence of ScenarioSpec"
            )
        n = len(sweep)
    if n == 0:
        return ResultSet([], {
            "backend": backend,
            "n_scenarios": 0,
            "elapsed_s": time.perf_counter() - started,
        })
    plan = lower(
        sweep,
        chunk_size=_wrapper_chunk_size(n, backend, max_workers, chunk_size),
        dtype=dtype,
    )
    sink = MemorySink()
    meta = run_sweep_streaming(
        plan,
        backend=backend,
        max_workers=max_workers,
        sinks=(sink,),
    )
    meta["elapsed_s"] = time.perf_counter() - started
    return sink.result_set(meta)
