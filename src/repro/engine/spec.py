"""Declarative scenario and sweep specifications.

A :class:`ScenarioSpec` names a registered pipeline (see
:mod:`repro.engine.pipelines`) and binds its parameters; a
:class:`SweepSpec` adds a parameter *grid* whose cartesian product expands
into a family of scenarios.  Both round-trip through plain dicts, so specs
can live in YAML/JSON files and travel across process boundaries, and both
have a canonical :meth:`ScenarioSpec.key` that plan and tile fingerprints
anchor to.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import DomainError
from ..numerics import spawn_seeds

__all__ = [
    "ScenarioSpec",
    "SweepSpec",
    "canonical_key",
    "load_sweeps",
    "sweeps_from_data",
    "parse_spec_text",
]

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_param_value(name: str, value: Any) -> None:
    if not isinstance(value, _SCALAR_TYPES):
        raise DomainError(
            f"parameter {name!r} must be a scalar (str/int/float/bool/None), "
            f"got {type(value).__name__}"
        )


def canonical_key(pipeline: str, params: Mapping[str, Any],
                  seed: Optional[int] = None) -> str:
    """A stable content hash for (pipeline, params, seed).

    Parameters are serialised in sorted order with full float precision,
    so the key is independent of dict insertion order and identical across
    processes and sessions.
    """
    payload = json.dumps(
        {"pipeline": pipeline, "params": dict(sorted(params.items())),
         "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete scenario: a pipeline name plus bound parameters.

    ``seed`` is the scenario's private random seed; deterministic
    pipelines ignore it, stochastic ones (panel simulation, Monte-Carlo
    BBN queries) build their generator from it so the scenario is
    reproducible in isolation and inside any sweep.
    """

    pipeline: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.pipeline or not isinstance(self.pipeline, str):
            raise DomainError("pipeline must be a non-empty string")
        params = dict(self.params)
        for name, value in params.items():
            _check_param_value(name, value)
        object.__setattr__(self, "params", params)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))

    def key(self) -> str:
        """Canonical cache key for this scenario."""
        return canonical_key(self.pipeline, self.params, self.seed)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "pipeline": self.pipeline,
            "params": dict(self.params),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if "pipeline" not in data:
            raise DomainError("scenario spec needs a 'pipeline' entry")
        return cls(
            pipeline=data["pipeline"],
            params=dict(data.get("params", {})),
            seed=data.get("seed"),
        )

    def with_params(self, **overrides) -> "ScenarioSpec":
        """A copy with some parameters replaced."""
        merged = {**self.params, **overrides}
        return ScenarioSpec(self.pipeline, merged, self.seed)


@dataclass(frozen=True)
class SweepSpec:
    """A family of scenarios: shared ``base`` parameters x a ``grid``.

    ``grid`` maps parameter names to lists of values; :meth:`expand`
    yields the cartesian product in deterministic (sorted-name,
    row-major) order.  An empty grid expands to the single base scenario;
    an empty axis expands to no scenarios at all.  When ``seed`` is set,
    each expanded scenario receives an independent child seed spawned
    from it, so stochastic sweeps are reproducible end to end.
    """

    pipeline: str
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seed: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self):
        if not self.pipeline or not isinstance(self.pipeline, str):
            raise DomainError("pipeline must be a non-empty string")
        base = dict(self.base)
        for key, value in base.items():
            _check_param_value(key, value)
        grid: Dict[str, List[Any]] = {}
        for key, values in dict(self.grid).items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (list, tuple)
            ):
                raise DomainError(
                    f"grid axis {key!r} must be a list of values, "
                    f"got {type(values).__name__}"
                )
            for value in values:
                _check_param_value(key, value)
            grid[key] = list(values)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "grid", grid)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))

    @property
    def axes(self) -> Tuple[str, ...]:
        """Grid parameter names in expansion order."""
        return tuple(sorted(self.grid))

    def n_scenarios(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(self.grid[axis])
        return count

    def expand(self) -> List[ScenarioSpec]:
        """The cartesian product of the grid over the base parameters."""
        axes = self.axes
        value_lists = [self.grid[a] for a in axes]
        combos = list(itertools.product(*value_lists))
        seeds = spawn_seeds(self.seed, len(combos))
        scenarios = []
        for combo, child_seed in zip(combos, seeds):
            params = dict(self.base)
            params.update(zip(axes, combo))
            scenarios.append(
                ScenarioSpec(self.pipeline, params, seed=child_seed)
            )
        return scenarios

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "pipeline": self.pipeline,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        if "pipeline" not in data:
            raise DomainError("sweep spec needs a 'pipeline' entry")
        unknown = set(data) - {"pipeline", "base", "grid", "seed", "name"}
        if unknown:
            raise DomainError(
                f"unknown sweep spec entries: {', '.join(sorted(unknown))}"
            )
        return cls(
            pipeline=data["pipeline"],
            base=dict(data.get("base", {})),
            grid=dict(data.get("grid", {})),
            seed=data.get("seed"),
            name=data.get("name"),
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        """Load a sweep spec from a YAML or JSON file.

        YAML support is optional (PyYAML); JSON always works, and any
        JSON spec is also valid YAML.
        """
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        data = parse_spec_text(text, str(path))
        if not isinstance(data, Mapping):
            raise DomainError(f"spec file {path} must contain a mapping")
        return cls.from_dict(data)


def load_sweeps(path) -> List[SweepSpec]:
    """Load one *or several* sweep specs from a YAML/JSON file.

    A plain mapping is a single :class:`SweepSpec`; a mapping with a
    top-level ``sweeps:`` list holds many — one spec file can drive
    several pipelines (see ``examples/full_library_sweep.yaml``).  Each
    entry in ``sweeps`` is an ordinary sweep-spec mapping; a top-level
    ``name:`` becomes the default ``name`` of entries that do not set
    their own.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    data = parse_spec_text(text, str(path))
    return sweeps_from_data(data, str(path))


def sweeps_from_data(data, origin: str = "<spec>") -> List[SweepSpec]:
    """The sweep specs in already-parsed spec-file ``data``.

    The body of :func:`load_sweeps` after the file read — callers that
    already hold the parsed mapping (the CLI's ``validate`` subcommand
    sniffs it to tell sweep specs from case specs) reuse it without a
    second parse.
    """
    if not isinstance(data, Mapping):
        raise DomainError(f"spec file {origin} must contain a mapping")
    if "sweeps" not in data:
        return [SweepSpec.from_dict(data)]
    unknown = set(data) - {"sweeps", "name"}
    if unknown:
        raise DomainError(
            f"unknown multi-sweep entries: {', '.join(sorted(unknown))}"
        )
    entries = data["sweeps"]
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise DomainError("'sweeps' must be a list of sweep specs")
    if not entries:
        raise DomainError("'sweeps' must not be empty")
    default_name = data.get("name")
    sweeps = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise DomainError(
                f"sweep entry {position} in {origin} must be a mapping"
            )
        if default_name is not None and entry.get("name") is None:
            entry = {**entry, "name": default_name}
        sweeps.append(SweepSpec.from_dict(entry))
    return sweeps


def parse_spec_text(text: str, origin: str):
    """Parse spec-file text as JSON, falling back to YAML.

    Shared by sweep-spec loading, case-file loading
    (:meth:`repro.arguments.QuantifiedCase.from_file`) and the CLI's
    ``validate`` subcommand, so all structured spec files accept the
    same formats with the same errors.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - PyYAML is a test extra
        raise DomainError(
            f"spec file {origin} is not JSON and PyYAML is not installed"
        ) from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise DomainError(f"could not parse spec file {origin}: {exc}") from exc
