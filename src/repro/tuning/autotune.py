"""Measured autotuning: find each pipeline's fastest execution config.

:func:`autotune` runs a sweep (trimmed to a measurement budget) through
the streaming executor once per ``backend x chunk-size x dtype``
configuration, times each one (best of ``repeats``), and records the
winner — plus the full measurement grid as evidence — in a
:class:`~repro.tuning.profile.TuningProfile`.

The *fixed defaults* configuration (auto-resolved backend,
:data:`~repro.engine.plan.DEFAULT_CHUNK_SIZE` chunks, float64) is
always part of the grid, so the winning profile can never be slower
than the defaults on the measured workload — the argmax includes the
baseline.  Stage timings from the executor's telemetry
(``plan_s``/``compile_s``/``execute_s``/``sink_s``) ride along with
every grid point for later comparison via ``repro-case telemetry``.

Measurement runs write no sinks: they time the
plan → compile → execute core only, and they warm each configuration's
compile caches with one untimed round before the timed rounds.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..engine.plan import DEFAULT_CHUNK_SIZE, lower
from ..engine.spec import SweepSpec
from ..engine.stream import run_sweep_streaming
from ..errors import DomainError
from ..telemetry import tracer
from .profile import TuningEntry, TuningProfile

__all__ = ["autotune", "DEFAULT_BACKENDS", "DEFAULT_CHUNK_SIZES"]

#: Backends the tuner tries by default.  ``process`` is excluded: its
#: pool spin-up dwarfs the measurement budget and its win conditions
#: (CPU-bound scalar pipelines) are better probed explicitly.
DEFAULT_BACKENDS = ("vectorized", "serial", "thread")

#: Chunk sizes the tuner tries by default, bracketing the built-in.
DEFAULT_CHUNK_SIZES = (1024, 4096, DEFAULT_CHUNK_SIZE, 16384)

#: Scenario budget one measurement configuration runs.
DEFAULT_MAX_SCENARIOS = 4096


def _trimmed(sweep: SweepSpec, max_scenarios: int):
    """The sweep itself, or its first ``max_scenarios`` scenarios.

    Trimming reconstructs explicit scenarios through the plan's lazy
    decode, so parameters and per-scenario seeds are exactly what the
    full sweep's prefix would run.
    """
    total = sweep.n_scenarios()
    if total <= max_scenarios:
        return sweep, total
    plan = lower(sweep, chunk_size=DEFAULT_CHUNK_SIZE, dtype="float64")
    scenarios = tuple(
        plan.scenario(index) for index in range(max_scenarios)
    )
    return scenarios, max_scenarios


def _measure(
    sweep_like,
    backend: str,
    chunk_size: int,
    dtype: str,
    repeats: int,
) -> Tuple[float, Dict[str, float]]:
    """Best wall-clock seconds (and its stage timings) over ``repeats``."""
    best = float("inf")
    best_stages: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        plan = lower(sweep_like, chunk_size=chunk_size, dtype=dtype)
        started = time.perf_counter()
        meta = run_sweep_streaming(plan, backend=backend)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            best_stages = dict(meta.get("stage_timings", {}))
    return best, best_stages


def autotune(
    sweeps: Union[SweepSpec, Iterable[SweepSpec]],
    backends: Sequence[str] = DEFAULT_BACKENDS,
    chunk_sizes: Sequence[int] = DEFAULT_CHUNK_SIZES,
    dtypes: Sequence[str] = ("float64",),
    repeats: int = 3,
    max_scenarios: int = DEFAULT_MAX_SCENARIOS,
    profile: Optional[TuningProfile] = None,
    progress=None,
) -> TuningProfile:
    """Measure ``backend x chunk_size x dtype`` grids; return the winners.

    ``sweeps`` is one representative :class:`SweepSpec` per pipeline (a
    single spec or an iterable).  Each pipeline's grid always includes
    the fixed-defaults configuration, so the recorded winner is at
    least as fast as the defaults on the measured workload.  Pass
    ``profile`` to extend an existing profile; ``progress`` (if given)
    is called as ``progress(pipeline, config_index, n_configs)``.
    """
    if isinstance(sweeps, SweepSpec):
        sweeps = [sweeps]
    sweeps = list(sweeps)
    if not sweeps:
        raise DomainError("autotune needs at least one sweep to measure")
    if repeats < 1:
        raise DomainError("repeats must be positive")
    if max_scenarios < 1:
        raise DomainError("max_scenarios must be positive")
    profile = profile if profile is not None else TuningProfile()

    for sweep in sweeps:
        pipeline = sweep.pipeline
        sweep_like, n_scenarios = _trimmed(sweep, max_scenarios)
        probe = lower(sweep_like, chunk_size=DEFAULT_CHUNK_SIZE,
                      dtype="float64")
        default_backend = (
            "vectorized" if probe.pipeline.supports_batch else "serial"
        )
        configs: List[Tuple[str, int, str]] = []
        # The fixed-defaults config leads the grid: whatever else is
        # measured, the winner is argmax over a set containing it.
        default_config = (default_backend, DEFAULT_CHUNK_SIZE, "float64")
        configs.append(default_config)
        for backend in backends:
            if backend == "vectorized" and not probe.pipeline.supports_batch:
                continue
            for chunk_size in chunk_sizes:
                for dtype in dtypes:
                    config = (backend, int(chunk_size), str(dtype))
                    if config not in configs:
                        configs.append(config)

        with tracer.span("tuning.autotune", pipeline=pipeline,
                         n_configs=len(configs),
                         n_scenarios=n_scenarios):
            # One untimed warmup round primes compile caches (networks,
            # cases, grids) so the timed rounds measure execution.
            _measure(sweep_like, *default_config, repeats=1)
            grid: List[Dict[str, Any]] = []
            for index, (backend, chunk_size, dtype) in enumerate(configs):
                if progress is not None:
                    progress(pipeline, index, len(configs))
                elapsed, stages = _measure(
                    sweep_like, backend, chunk_size, dtype, repeats
                )
                grid.append({
                    "backend": backend,
                    "chunk_size": chunk_size,
                    "dtype": dtype,
                    "elapsed_s": elapsed,
                    "rows_per_s": (
                        n_scenarios / elapsed if elapsed > 0
                        else float("inf")
                    ),
                    "stage_timings_s": stages,
                    "default": (backend, chunk_size, dtype)
                    == default_config,
                })
            winner = max(grid, key=lambda point: point["rows_per_s"])
            profile.set_entry(pipeline, TuningEntry(
                backend=winner["backend"],
                chunk_size=winner["chunk_size"],
                dtype=winner["dtype"],
                rows_per_s=winner["rows_per_s"],
                n_scenarios=n_scenarios,
                grid=tuple(grid),
            ))
    return profile
