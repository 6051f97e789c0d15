"""One benchmark workload in one fresh process.

Started by ``perfbench/run.py`` from the root of a source checkout, with
``PYTHONPATH=src``.  The process sets the workload up, runs its timed
phase for ``--seconds``, checks every output, and prints one JSON line:
end-to-end figures (timed mode) or per-layer figures (``--trace 1``),
plus the tally of attempted and failed operations.  ``--setup-only``
stops after set-up, so the caller can sample set-up time several times.

Every operation is closed-loop with one client: the next sweep, delta
or query starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

CASE_FILE = "perfbench/case_confidence.yaml"
P_TRUE = [(i + 1) / 100 for i in range(100)]
DEPENDENCE = [i / 2000 for i in range(2000)]
CASE_AXES = (("A1.p_true", P_TRUE), ("S1.dependence", DEPENDENCE))
LW_BASE = {
    "prior": 0.6, "n_samples": 4000,
    "leg1_validity": 0.9, "leg1_sensitivity": 0.95, "leg1_specificity": 0.9,
    "leg2_validity": 0.85, "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
}
DELTA_TILE_SCENARIOS = 2048
ORACLE_ROWS = 64
ZIPF_S = 1.1
POPULARITY_SEED = 0
# Point lookups are well over half the queries, so the median latency
# falls inside the point-lookup mode rather than on the boundary between
# two modes, where it would jump from run to run.
POINT_SHARE = 0.7

HERE = os.path.dirname(os.path.abspath(__file__))

#: Count metrics, read from public APIs only (cache_stats(), sweep and
#: delta meta, manifests, file sizes) or counted at the wrapped public
#: calls.  Each must repeat exactly across the operations of a run and
#: across two runs with the same seed.
COUNT_UNITS = {
    "plan.fingerprint_calls": "count",
    "kernel.case_rows": "count",
    "kernel.lw_samples": "count",
    "compilecache.case_file.lookups_per_row": "1/row",
    "sink.jsonl.bytes_per_row": "B/row",
    "store.tiles_written": "count",
    "store.bytes_per_row": "B/row",
    "delta.tiles_executed": "count",
    "delta.tiles_reused": "count",
    "delta.reuse_ratio": "ratio",
    "delta.rows_executed": "count",
    "reader.blob_loads": "1/query",
    "reader.blob_hit_ratio": "ratio",
    "reader.bytes_read": "B/query",
}


class Tally:
    """Attempted and failed operations.  An operation fails if it raises
    or if any check of its output fails; the run goes on and reports
    it.  A check applies to the operation run last."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._current_failed = False

    def run(self, label: str, fn: Callable[[], Any]) -> Any:
        self.attempted += 1
        self._current_failed = False
        try:
            return fn()
        except Exception:  # counted as a failed operation, not fatal
            self.fail(label, traceback.format_exc(limit=4))
            return None

    def check(self, ok: bool, label: str, detail: str) -> None:
        if not ok:
            self.fail(label, detail)

    def fail(self, label: str, detail: str) -> None:
        self.messages.append(f"{label}: {detail}")
        if not self._current_failed:
            self.failed += 1
            self._current_failed = True


def zipf_indices(rng, n: int, size: int):
    """``size`` Zipf-skewed indices into ``range(n)``.  Which indices are
    popular is fixed (a permutation under a constant seed), so every
    workload seed draws from one query distribution."""
    import numpy as np

    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    ranks = rng.choice(n, size=size, p=weights / weights.sum())
    return np.random.default_rng(POPULARITY_SEED).permutation(n)[ranks]


def make_queries(rng, axes, count: int) -> List[Tuple[Optional[int], ...]]:
    """Point lookups pinning every axis (:data:`POINT_SHARE`), otherwise
    lines that leave one axis free, split evenly between the axes.
    ``None`` marks the free axis.

    Tiles run along the first axis, so on a multi-axis store its values
    are Zipf-skewed: a hot set of tiles.  The other axes are uniform;
    skewing them too would pile the queries onto a few values and make
    the latency quantiles jump between them from run to run."""
    n_axes = len(axes)
    line = (1 - POINT_SHARE) / n_axes
    kinds = rng.choice(n_axes + 1, size=count,
                       p=[POINT_SHARE] + [line] * n_axes)
    picks = [
        zipf_indices(rng, len(values), count) if axis == 0 and n_axes > 1
        else rng.integers(len(values), size=count)
        for axis, (_name, values) in enumerate(axes)
    ]
    return [
        tuple(None if axis == kinds[q] - 1 else int(picks[axis][q])
              for axis in range(n_axes))
        for q in range(count)
    ]


def dense_digest(dense: Dict[str, Any]) -> str:
    digest = hashlib.sha256()
    for name in sorted(dense):
        digest.update(name.encode())
        digest.update(dense[name].tobytes())
    return digest.hexdigest()


def scan_jsonl(path: str, wanted) -> Tuple[str, Dict[int, Dict[str, Any]]]:
    """sha256 of a JSONL file and its ``wanted`` rows, parsed."""
    digest = hashlib.sha256()
    wanted = set(wanted)
    rows: Dict[int, Dict[str, Any]] = {}
    with open(path, "rb") as handle:
        for index, line in enumerate(handle):
            digest.update(line)
            if index in wanted:
                rows[index] = json.loads(line)
    return digest.hexdigest(), rows


def manifest_bytes(manifest: Dict[str, Any]) -> int:
    return sum(col["bytes"] for tile in manifest["tiles"]
               for col in tile["columns"].values())


def region_lookups(name: str) -> Tuple[int, int]:
    """(hits, misses) of one compile-cache region so far."""
    from repro.compilecache import cache_stats

    stats = cache_stats().get(name, {})
    return stats.get("hits", 0), stats.get("misses", 0)


def check_case_oracle(tally: Tally, dense, sample: Sequence[int],
                      rows: Optional[Dict[int, Dict[str, Any]]] = None):
    """Sampled points of the case grid against the scalar
    ``Pipeline.run`` oracle, to 1e-12."""
    from repro.engine import get_pipeline

    pipeline = get_pipeline("case_confidence")
    width = len(DEPENDENCE)
    for i in sample:
        row, col = divmod(i, width)
        want = pipeline.run({"case_file": CASE_FILE, "A1.p_true": P_TRUE[row],
                             "S1.dependence": DEPENDENCE[col]})
        for name, value in want.items():
            got = [float(dense[name][row, col])]
            if rows is not None:
                got.append(rows[i][name])
            tally.check(all(abs(g - value) <= 1e-12 for g in got), "oracle",
                        f"scenario {i} column {name}: {got} vs {value}")


def case_spec(p_true):
    from repro.engine import SweepSpec

    return SweepSpec(pipeline="case_confidence",
                     base={"case_file": CASE_FILE},
                     grid={"A1.p_true": p_true, "S1.dependence": DEPENDENCE})


class Workload:
    """Shared machinery: timed operations, queries, metrics."""

    #: Axes of the store the queries read, as (name, values).
    axes: Sequence[Tuple[str, Sequence[Any]]] = ()

    def __init__(self, args, tally: Tally, trace):
        import numpy as np

        self.args = args
        self.tally = tally
        self.trace = trace
        self.rng = np.random.default_rng(args.seed)
        self.work = args.workdir
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
            self.expected = json.load(f).get(args.workload, {})
        self.walls: Dict[bool, List[float]] = {False: [], True: []}
        self.rates: List[float] = []
        self.op_runs: List[str] = []
        self.op_counts: List[Dict[str, float]] = []
        self.latencies: List[float] = []
        self.query_runs: List[str] = []
        self.reader = {"queries": 0, "hits": 0, "loads": 0, "bytes": 0}
        self.sizes: Dict[str, Any] = {}
        self.paused = 0.0

    def traced(self, index: int) -> bool:
        """In traced mode odd operations (or rounds) are traced and even
        ones run bare; comparing the two gives the trace's overhead."""
        return self.trace is not None and index % 2 == 1

    def wrappers(self, traced: bool = True):
        return (self.trace.installed() if traced and self.trace is not None
                else contextlib.nullcontext())

    def span(self, run_id: str, traced: bool):
        return self.trace.op(run_id) if traced else contextlib.nullcontext()

    def timed_op(self, run_id: str, traced: bool, label: str,
                 fn: Callable[[], Dict[str, Any]],
                 extra: Callable[[Dict[str, Any], int], Dict[str, float]]):
        """Run one sweep or delta and record its figures.  ``extra`` adds
        the operation's store and sink counts from its meta.  Time the
        operation spends in queries run from its progress callback
        (``self.paused``) is not part of its wall time."""
        from repro.compilecache import compile_seconds

        lookups0 = sum(region_lookups("arguments.case_file"))
        compile0 = compile_seconds()
        self.paused = 0.0
        with self.wrappers(traced):
            started = time.perf_counter()
            with self.span(run_id, traced):
                meta = self.tally.run(label, fn)
            wall = time.perf_counter() - started - self.paused
        self.walls[traced].append(wall)
        if meta is None:
            return None
        if not traced:
            self.rates.append(meta["n_scenarios"] / wall)
            return meta
        delta = bool(meta.get("delta"))
        rows = meta["rows_executed"] if delta else meta["rows"]
        reused = meta.get("tiles_skipped", 0) + meta.get("tiles_moved", 0)
        layers = self.trace.layers(run_id)
        counts = {
            "compile_s": compile_seconds() - compile0,
            "plan.fingerprint_calls": layers.get(
                "plan.fingerprint", {}).get("calls", 0),
            "kernel.case_rows":
                rows if meta["pipeline"] == "case_confidence" else 0,
            "kernel.lw_samples": (rows * LW_BASE["n_samples"]
                                  if meta["pipeline"] == "bbn_query" else 0),
            "compilecache.case_file.lookups_per_row": (
                sum(region_lookups("arguments.case_file")) - lookups0) / rows,
            "delta.tiles_executed": meta["tiles_executed"] if delta else 0,
            "delta.tiles_reused": reused if delta else 0,
            "delta.reuse_ratio": reused / meta["tiles_total"] if delta else 0,
            "delta.rows_executed": rows if delta else 0,
        }
        counts.update(extra(meta, rows))
        self.op_runs.append(run_id)
        self.op_counts.append(counts)
        return meta

    @contextlib.contextmanager
    def querying(self, path: str, run_id: str, traced: bool, counted: bool):
        """Open the store at ``path``; yields ``ask(queries)``, which
        answers queries and checks each answer against the dense
        reference exactly."""
        import numpy as np
        from repro.store import TileStore

        hits0, loads0 = region_lookups("store.tiles")
        asked = 0
        with self.wrappers(traced), self.span(run_id, traced):
            store = self.tally.run("open", lambda: TileStore.open(path))

            def ask(queries) -> None:
                nonlocal asked
                for pins in queries if store is not None else ():
                    fixed = {name: values[i] for (name, values), i
                             in zip(self.axes, pins) if i is not None}
                    started = time.perf_counter()
                    answer = self.tally.run("query",
                                            lambda: store.slice(**fixed))
                    self.latencies.append(time.perf_counter() - started)
                    asked += 1
                    if answer is None:
                        continue
                    index = tuple(slice(None) if i is None else i
                                  for i in pins)
                    self.tally.check(
                        all(np.array_equal(answer.data[name], ref[index])
                            for name, ref in self.dense.items()),
                        "query", f"answer for {fixed} differs from the "
                        f"reference")

            yield ask
        if traced:
            self.query_runs.append(run_id)
        if traced and counted:
            hits1, loads1 = region_lookups("store.tiles")
            layer = self.trace.layers(run_id).get("reader.load", {})
            self.reader["queries"] += asked
            self.reader["hits"] += hits1 - hits0
            self.reader["loads"] += loads1 - loads0
            self.reader["bytes"] += layer.get("bytes", 0)

    # -- the timed phase ------------------------------------------------ #

    min_rounds = 2
    round_queries = 0

    def round(self, index: int, traced: bool, queries) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Checks of the set-up state, before the timed phase."""

    def finish(self) -> None:
        """Checks after the last round."""

    def timed(self, deadline: float) -> None:
        """Rounds until ``deadline``, at least :attr:`min_rounds` of them:
        the workload's sweeps or deltas and :attr:`round_queries`
        queries.  Count metrics come from the first :attr:`min_rounds`
        rounds, which every run makes."""
        index = 0
        while index < self.min_rounds or time.perf_counter() < deadline:
            queries = make_queries(self.rng, self.axes, self.round_queries)
            self.round(index, self.traced(index), queries)
            index += 1
        self.sizes.update(rounds=index, round_queries=self.round_queries)
        self.tally.run("final check", self.finish)

    # -- results -------------------------------------------------------- #

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        lat = sorted(self.latencies)
        if len(lat) < 1000:  # the p99 needs ten samples beyond it
            raise RuntimeError(f"only {len(lat)} queries ran; need 1000")
        return {
            "scenarios_per_s": (statistics.median(self.rates), "1/s"),
            "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "query_p99_ms": (statistics.quantiles(lat, n=100)[98] * 1e3,
                             "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MiB"),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer figures: means over the traced operations, so the
        named parts and ``stream.other_s`` add up to ``stream.wall_s``."""
        from tracing import PARTS

        per_op = [self.trace.layers(run) for run in self.op_runs]

        def mean(layer: str, field: str) -> float:
            return sum(op.get(layer, {}).get(field, 0.0)
                       for op in per_op) / len(per_op)

        def per_call(layer: str) -> float:
            total = calls = 0
            for run in self.query_runs:
                entry = self.trace.layers(run).get(layer, {})
                total += entry.get("total", 0.0)
                calls += entry.get("calls", 0)
            return total / max(calls, 1)

        wall = mean("op", "total")
        parts = {layer: mean(layer, "self") for layer in PARTS}
        other = wall - sum(parts.values())
        self.tally.check(other >= -1e-9, "trace",
                         f"named parts exceed the wall time by {-other} s")
        counts = {name: self.op_counts[0].get(name, 0.0)
                  for name in COUNT_UNITS}
        for op in self.op_counts[1:]:
            for name in COUNT_UNITS:
                self.tally.check(op.get(name, 0.0) == counts[name], "counts",
                                 f"{name} differs between operations")
        reader = self.reader
        queries = max(reader["queries"], 1)
        counts["reader.blob_loads"] = reader["loads"] / queries
        counts["reader.blob_hit_ratio"] = (
            reader["hits"] / max(reader["hits"] + reader["loads"], 1))
        counts["reader.bytes_read"] = reader["bytes"] / queries
        out = {
            "plan.lower_s": (self.trace.layers(None).get(
                "plan.lower", {}).get("total", 0.0), "s"),
            "plan.decode_s": (parts["plan.decode"], "s"),
            "plan.resolve_s": (parts["plan.resolve"], "s"),
            "plan.fingerprint_s": (parts["plan.fingerprint"], "s"),
            "pipelines.run_batch_s": (mean("pipelines.run_batch", "total"),
                                      "s"),
            "pipelines.run_batch.self_s": (parts["pipelines.run_batch"], "s"),
            "kernel.case_s": (parts["kernel.case"], "s"),
            "kernel.lw_s": (parts["kernel.lw"], "s"),
            "kernel.share": (
                (parts["kernel.case"] + parts["kernel.lw"]) / wall, "ratio"),
            "compilecache.compile_s": (statistics.mean(
                op["compile_s"] for op in self.op_counts), "s"),
            "stream.wall_s": (wall, "s"),
            "stream.other_s": (other, "s"),
            "sink.jsonl.write_s": (parts["sink.jsonl"], "s"),
            "store.write_s": (parts["store.write"], "s"),
            "delta.run_s": (mean("delta.run", "total"), "s"),
            "reader.open_s": (per_call("reader.open"), "s"),
            "reader.slice_s": (per_call("reader.slice"), "s"),
            "trace.overhead_frac": (statistics.mean(self.walls[True])
                                    / statistics.mean(self.walls[False])
                                    - 1.0, "ratio"),
        }
        for name, unit in COUNT_UNITS.items():
            out[name] = (counts[name], unit)
        return out


class RowSweep(Workload):
    """Rounds of one full sweep into a JSONL sink and a default-tile
    store (what ``repro-case sweep --stream --out --store`` does).

    Rounds alternate between two store directories, and from the second
    round on, the queries read the store the previous round wrote.  In
    the timed run they are spread over the sweep, a share after each
    chunk from its progress callback (and left out of its wall time):
    the host's speed drifts over seconds, and queries bunched between
    sweeps many seconds apart would each sample a single stretch of it.
    In the traced run they follow the sweep as one block, outside the
    traced operation."""

    round_queries = 2000

    def spec(self):
        raise NotImplementedError

    def check_outputs(self, store_path: str, first: bool) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        with self.wrappers():
            # Looked up inside the block, so a traced run sees the wrapper.
            from repro.engine import lower

            self.plan = lower(self.spec())
        self.jsonl = os.path.join(self.work, "rows.jsonl")
        self.store_paths = [os.path.join(self.work, f"store{i}")
                            for i in range(2)]
        n = self.plan.n_scenarios
        self.sample = sorted(int(i) for i in self.rng.choice(
            n, size=ORACLE_ROWS, replace=False))
        self.sizes = {"n_scenarios": n, "grid": list(self.plan.grid_shape)}

    def sweep(self, store_path: str, progress=None) -> Dict[str, Any]:
        from repro.engine import JsonlSink, run_sweep_streaming
        from repro.store import TileSink

        return run_sweep_streaming(
            self.plan, sinks=[JsonlSink(self.jsonl), TileSink(store_path)],
            progress=progress)

    def round(self, index: int, traced: bool, queries) -> None:
        from repro.store.format import read_manifest

        path = self.store_paths[index % 2]

        def counts(meta: Dict[str, Any], rows: int):
            manifest = read_manifest(path)
            return {
                "sink.jsonl.bytes_per_row":
                    os.path.getsize(self.jsonl) / rows,
                "store.tiles_written": len(manifest["tiles"]),
                "store.bytes_per_row": manifest_bytes(manifest) / rows,
            }

        if index == 0 or traced:
            meta = self.timed_op(f"r{index}", traced, "sweep",
                                 lambda: self.sweep(path), counts)
            if index:
                with self.querying(self.store_paths[(index - 1) % 2],
                                   f"r{index}q", traced,
                                   counted=index < self.min_rounds) as ask:
                    ask(queries)
        else:
            with self.querying(self.store_paths[(index - 1) % 2],
                               f"r{index}q", False, False) as ask:
                share = -(-len(queries) // self.plan.n_chunks)
                pending = list(queries)

                def between_chunks(*_progress) -> None:
                    started = time.perf_counter()
                    ask(pending[:share])
                    del pending[:share]
                    self.paused += time.perf_counter() - started

                meta = self.timed_op(
                    f"r{index}", False, "sweep",
                    lambda: self.sweep(path, between_chunks), counts)
                ask(pending)
        if meta is not None:
            self.tally.run("output check", lambda: self.check_outputs(
                path, first=index == 0))

    def read_store(self, path: str):
        from repro.store import TileStore

        store = TileStore.open(path)
        return store, store.slice().data


class CaseGrid(RowSweep):
    """case_grid_rows_store: 200k whole-case scenarios.  Per-row Python
    (decode, resolve, row dicts, JSON encoding) dominates."""

    axes = CASE_AXES
    round_queries = 4000  # a steadier p99: the column-query tail is thin

    def spec(self):
        return case_spec(P_TRUE)

    def check_outputs(self, store_path: str, first: bool) -> None:
        sha, rows = scan_jsonl(self.jsonl, self.sample)
        self.tally.check(sha == self.expected["jsonl_sha256"], "jsonl",
                         f"sha256 {sha} differs from the reference")
        store, self.dense = self.read_store(store_path)
        self.tally.check(
            store.store_fingerprint == self.expected["store_fingerprint"],
            "store", "store_fingerprint differs from the reference")
        self.tally.check(
            dense_digest(self.dense) == self.expected["dense_sha256"],
            "store", "store contents differ from the reference")
        if first:
            check_case_oracle(self.tally, self.dense, self.sample, rows)


class LwSampling(RowSweep):
    """lw_sampling_rows: 2000 seeded likelihood-weighting queries at
    4000 samples each.  The batched sampler dominates."""

    axes = (("dependence", DEPENDENCE),)
    min_rounds = 3

    def spec(self):
        from repro.engine import SweepSpec

        return SweepSpec(pipeline="bbn_query", base=LW_BASE,
                         grid={"dependence": DEPENDENCE}, seed=self.args.seed)

    def check_outputs(self, store_path: str, first: bool) -> None:
        import numpy as np
        from repro.engine import get_pipeline

        n = self.plan.n_scenarios
        sha, rows = scan_jsonl(self.jsonl, range(n))
        store, self.dense = self.read_store(store_path)
        if first:
            self.first = (sha, store.store_fingerprint)
            pipeline = get_pipeline("bbn_query")
            for i in self.sample:
                scenario = self.plan.scenario(i)
                want = pipeline.run(scenario.params, scenario.seed)["p_claim"]
                self.tally.check(
                    rows[i]["p_claim"] == want
                    and rows[i]["seed"] == scenario.seed, "oracle",
                    f"row {i}: {rows[i]['p_claim']!r} != scalar {want!r}")
        self.tally.check((sha, store.store_fingerprint) == self.first,
                         "jsonl", "a repeated sweep changed its output")
        column = np.array([rows[i]["p_claim"] for i in range(n)])
        self.tally.check(np.array_equal(self.dense["p_claim"], column),
                         "store", "store contents differ from the JSONL rows")


class StoreDeltaQuery(Workload):
    """store_delta_query: a 100-tile case store; rounds of a one-value
    edit and its revert as delta re-runs, then Zipf-skewed queries."""

    axes = CASE_AXES
    min_rounds = 10      # at least 20 deltas and 3000 queries
    round_queries = 300

    def setup(self) -> None:
        self.store_path = os.path.join(self.work, "store")
        with self.wrappers():
            from repro.engine import lower, run_sweep_streaming
            from repro.store import TileSink, TileStore

            plan = lower(case_spec(P_TRUE))
            run_sweep_streaming(plan, sinks=[TileSink(
                self.store_path, tile_scenarios=DELTA_TILE_SCENARIOS)])
            store = TileStore.open(self.store_path)
            self.dense = store.slice().data
        self.store_fp = store.store_fingerprint
        self.sizes = {"n_scenarios": plan.n_scenarios,
                      "grid": list(plan.grid_shape), "tiles": store.n_tiles}

    def check_setup(self) -> None:
        self.tally.check(self.store_fp == self.expected["store_fingerprint"],
                         "store", "store_fingerprint differs from reference")
        self.tally.check(
            dense_digest(self.dense) == self.expected["dense_sha256"],
            "store", "store contents differ from the reference")
        sample = sorted(int(i) for i in self.rng.choice(
            self.sizes["n_scenarios"], size=ORACLE_ROWS, replace=False))
        check_case_oracle(self.tally, self.dense, sample)

    def delta(self, p_true) -> Dict[str, Any]:
        from repro.engine import run_sweep_streaming
        from repro.store import TileSink

        sink = TileSink(self.store_path, tile_scenarios=DELTA_TILE_SCENARIOS)
        return run_sweep_streaming(case_spec(p_true), sinks=[sink], delta=True)

    @staticmethod
    def delta_counts(meta: Dict[str, Any], rows: int):
        return {"store.tiles_written": meta["tiles_executed"],
                "store.bytes_per_row": meta["bytes_written"] / rows}

    def round(self, index: int, traced: bool, queries) -> None:
        position = int(self.rng.integers(len(P_TRUE)))
        edited = list(P_TRUE)
        edited[position] = (position + 0.5) / 100  # off the grid
        for step, p_true in enumerate((edited, P_TRUE)):
            meta = self.timed_op(f"r{index}d{step}", traced, "delta",
                                 lambda p=p_true: self.delta(p),
                                 self.delta_counts)
            if meta is not None:
                self.tally.check(
                    meta["tiles_executed"] == 1 and meta["tiles_moved"] == 0,
                    "delta", f"delta executed {meta['tiles_executed']} of "
                    f"{meta['tiles_total']} tiles, expected 1")
        with self.querying(self.store_path, f"r{index}q", traced,
                           counted=index < self.min_rounds) as ask:
            ask(queries)

    def finish(self) -> None:
        from repro.store import TileStore

        store = TileStore.open(self.store_path)
        self.tally.check(store.store_fingerprint == self.store_fp, "store",
                         "the store after the last revert has another "
                         "fingerprint than the set-up store")
        self.tally.check(
            dense_digest(store.slice().data) == dense_digest(self.dense),
            "store", "the store after the last revert differs from set-up")


WORKLOADS = {
    "case_grid_rows_store": CaseGrid,
    "lw_sampling_rows": LwSampling,
    "store_delta_query": StoreDeltaQuery,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="trace the run and write its spans here")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    trace = None
    if args.trace_out:
        sys.path.insert(0, HERE)
        from tracing import Trace

        trace = Trace()
    tally = Tally()
    workload = WORKLOADS[args.workload](args, tally, trace)
    workload.setup()
    result: Dict[str, Any] = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        tally.run("set-up check", workload.check_setup)
        workload.timed(time.perf_counter() + args.seconds)
        figures = tally.run("metrics", workload.per_layer if trace
                            else workload.end_to_end)
        result["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in (figures or {}).items()}
        if trace is not None:
            result["absent"] = sorted(trace.absent)
            trace.dump(args.trace_out)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.messages[:10], sizes=workload.sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
