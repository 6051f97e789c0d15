"""Outside-in layer trace for the benchmark.

The benchmark's traced mode times calls *into* the library's public
functions, from the outside: while a :class:`Trace` is installed, each
target in :data:`TARGETS` is replaced by a wrapper that records one span
(layer, start, end, parent span, run id) per call.  Nothing inside
``src/`` changes, and nothing is wrapped outside an ``installed()``
block, so untimed and untraced runs execute the library untouched.

Spans stay in memory and are written out once, by :meth:`Trace.dump`.
A target that no longer exists (a refactor renamed or removed it) is
reported in :attr:`Trace.absent` instead of failing the run, so the
trace degrades layer by layer rather than breaking.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (layer, module, attribute path, byte counter or None).  Methods are
# patched on their class; plain functions are patched in every loaded
# ``repro`` module that holds them, because callers import them by name.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("plan.lower", "repro.engine.plan", "lower", None),
    ("plan.decode", "repro.engine.plan", "ExecutionPlan.chunk_scenarios",
     None),
    ("plan.resolve", "repro.engine.plan", "ExecutionPlan.chunk_items", None),
    ("plan.fingerprint", "repro.engine.plan", "ExecutionPlan.fingerprint",
     None),
    ("plan.fingerprint", "repro.engine.plan",
     "ExecutionPlan.region_fingerprint", None),
    ("pipelines.run_batch", "repro.engine.pipelines", "Pipeline.run_batch",
     None),
    ("kernel.case", "repro.arguments.compiled", "CompiledCase.evaluate_sweep",
     None),
    ("kernel.lw", "repro.bbn.compiled",
     "CompiledNetwork.likelihood_weighting_batch", None),
    ("sink.jsonl", "repro.engine.sinks", "JsonlSink.write", None),
    ("sink.jsonl", "repro.engine.sinks", "JsonlSink.close", None),
    ("store.write", "repro.store.sink", "TileSink.write", None),
    ("store.write", "repro.store.sink", "TileSink.close", None),
    ("store.write", "repro.store.sink", "TileWriter.write_tile", None),
    ("store.write", "repro.store.sink", "TileWriter.reuse_tile", None),
    ("store.write", "repro.store.sink", "TileWriter.finalise", None),
    ("delta.run", "repro.store.delta", "run_sweep_delta", None),
    ("reader.open", "repro.store.reader", "TileStore.open", None),
    ("reader.slice", "repro.store.reader", "TileStore.slice", None),
    ("reader.load", "repro.store.format", "decode_blob",
     lambda args: os.path.getsize(args[0])),
)

#: Layers whose self time is a named part of an operation's wall time;
#: whatever the parts leave over is ``stream.other_s``.
PARTS = ("plan.decode", "plan.resolve", "plan.fingerprint",
         "pipelines.run_batch", "kernel.case", "kernel.lw", "sink.jsonl",
         "store.write")


class Trace:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # Each span: [layer, start, end, parent index, run id, bytes].
        self.spans: List[List[Any]] = []
        self.absent: Dict[str, str] = {}
        self._stack: List[int] = []
        self._run: Optional[str] = None
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        # run id -> (first, stop) span indices; a run's spans are
        # contiguous because its root span encloses them all.
        self._runs: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent,
                           self._run, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, run_id: str):
        """Root span of one timed operation; spans inside share its id."""
        self._run = run_id
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._run = None
            self._runs[run_id] = (index, len(self.spans))

    def _wrap(self, layer: str, fn: Callable,
              counter: Optional[Callable]) -> Callable:
        trace = self

        def wrapper(*args, **kwargs):
            index = trace._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._close(index)
            if counter is not None:
                trace.spans[index][5] = counter(args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # ------------------------------------------------------------------ #
    # Installing the wrappers
    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target still present; record the missing ones."""
        for layer, module_name, path, counter in TARGETS:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[label] = f"{layer}: {exc}"
                continue
            owner_name, _dot, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, attr):
                self.absent[label] = f"{layer}: not found"
                continue
            if owner_name:
                raw = next((vars(klass)[attr] for klass in owner.__mro__
                            if attr in vars(klass)), None)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(layer, raw.__func__,
                                                   counter))
                else:
                    wrapped = self._wrap(layer, raw, counter)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, counter)
            for holder in [m for n, m in list(sys.modules.items())
                           if n == "repro" or n.startswith("repro.")]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)

    def uninstall(self) -> None:
        for owner, name, value, own in reversed(self._patches):
            if own:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # Analysis and export
    # ------------------------------------------------------------------ #

    def layers(self, run_id: Optional[str]) -> Dict[str, Dict[str, float]]:
        """Per-layer ``total`` (outermost spans), ``self`` time, ``calls``
        and ``bytes`` for the spans of one run (``None``: spans outside
        every operation)."""
        first, stop = self._runs.get(run_id, (0, len(self.spans)))
        indices = [index for index in range(first, stop)
                   if self.spans[index][4] == run_id]
        child_time: Dict[int, float] = {}
        for index in indices:
            parent = self.spans[index][3]
            if parent is not None:
                child_time[parent] = (child_time.get(parent, 0.0)
                                      + self.spans[index][2]
                                      - self.spans[index][1])
        out: Dict[str, Dict[str, float]] = {}
        for index in indices:
            layer, start, end, parent, _run, nbytes = self.spans[index]
            entry = out.setdefault(
                layer, {"total": 0.0, "self": 0.0, "calls": 0, "bytes": 0}
            )
            duration = end - start
            entry["self"] += duration - child_time.get(index, 0.0)
            entry["calls"] += 1
            entry["bytes"] += nbytes
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != layer:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                entry["total"] += duration
        return out

    def dump(self, path: str) -> None:
        """Write every span (one JSON object per line) and the absent
        targets, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, reason in sorted(self.absent.items()):
                handle.write(json.dumps({"absent": name, "reason": reason})
                             + "\n")
            for index, (layer, start, end, parent, run, nbytes) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": layer, "start": start, "end": end,
                    "parent": parent, "run": run, "bytes": nbytes,
                }) + "\n")
