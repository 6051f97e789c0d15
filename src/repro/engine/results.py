"""Result containers for scenario sweeps.

A sweep produces one :class:`ScenarioResult` per scenario — the spec that
ran plus the flat ``{column: value}`` dict its pipeline returned — and the
executor wraps them in a :class:`ResultSet`, which offers tabular access:
column extraction as NumPy arrays, rendering through
:func:`repro.viz.format_records`, and CSV export.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import DomainError
from .spec import ScenarioSpec

__all__ = ["ScenarioResult", "ResultSet"]


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's spec and the values its pipeline produced."""

    spec: ScenarioSpec
    values: Mapping[str, Any]

    def record(self) -> Dict[str, Any]:
        """Parameters and values merged into one flat row."""
        return {**dict(self.spec.params), **dict(self.values)}


@dataclass(frozen=True)
class ResultSet:
    """An ordered collection of scenario results with tabular export."""

    results: Sequence[ScenarioResult]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ScenarioResult:
        return self.results[index]

    # ------------------------------------------------------------------ #
    # Columnar access
    # ------------------------------------------------------------------ #

    def columns(self) -> List[str]:
        """Union of parameter and value names, parameters first."""
        param_names: List[str] = []
        value_names: List[str] = []
        for result in self.results:
            for name in result.spec.params:
                if name not in param_names:
                    param_names.append(name)
            for name in result.values:
                if name not in value_names:
                    value_names.append(name)
        return param_names + [n for n in value_names if n not in param_names]

    def records(self) -> List[Dict[str, Any]]:
        return [result.record() for result in self.results]

    def values(self, column: str) -> np.ndarray:
        """One column across the sweep as a float array."""
        rows = self.records()
        if not rows:
            return np.empty(0, dtype=float)
        if not any(column in row for row in rows):
            raise DomainError(
                f"unknown column {column!r}; available: "
                f"{', '.join(self.columns())}"
            )
        return np.asarray(
            [float(row.get(column, np.nan)) for row in rows], dtype=float
        )

    def best(self, column: str, maximise: bool = True) -> ScenarioResult:
        """The scenario extremising a value column."""
        if not self.results:
            raise DomainError("cannot take the best of an empty result set")
        series = self.values(column)
        index = int(np.nanargmax(series) if maximise else np.nanargmin(series))
        return self.results[index]

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_table(self, columns: Optional[Sequence[str]] = None,
                 limit: Optional[int] = None) -> str:
        """Render as an aligned text table (see :mod:`repro.viz.tables`)."""
        from ..viz import format_records

        if not self.results:
            return "(empty sweep: 0 scenarios)"
        records = self.records()
        if limit is not None:
            records = records[: max(limit, 0)]
        return format_records(records, columns=columns or self.columns())

    def to_csv(self, path_or_buffer=None) -> Optional[str]:
        """Write CSV; returns the text when no path/buffer is given."""
        columns = self.columns()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for record in self.records():
            writer.writerow({k: record.get(k, "") for k in columns})
        text = buffer.getvalue()
        if path_or_buffer is None:
            return text
        if hasattr(path_or_buffer, "write"):
            path_or_buffer.write(text)
            return None
        with open(path_or_buffer, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return None

    def summary(self) -> str:
        """One-line account of the run for logs and the CLI."""
        meta = dict(self.meta)
        bits = [f"{len(self.results)} scenarios"]
        if "pipeline" in meta:
            bits.append(f"pipeline={meta['pipeline']}")
        if "backend" in meta:
            bits.append(f"backend={meta['backend']}")
        if "elapsed_s" in meta:
            bits.append(f"{meta['elapsed_s']:.3f}s")
        return ", ".join(bits)
