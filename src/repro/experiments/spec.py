"""The declarative study layer: one serializable spec for solve → sweep → validate.

A **study** is the paper's whole experimental pipeline as one pure-data value:
which workload to generate (:class:`WorkloadSpec`), which algorithms to run
with which construction options (:class:`~repro.experiments.config.AlgorithmSpec`,
validated against the solver registry's typed parameter schemas), how to
execute (:class:`ExecutionSpec`: workers, chunking, checkpoint stores, resume)
and, optionally, how to validate the solved allocations in the stream
simulator (:class:`ValidationSpec`: horizons × rate multipliers × injection
scenarios).  :class:`StudySpec` bundles the four and round-trips through
``as_dict``/``from_dict``/JSON, so a whole experiment is a reviewable artifact
(``study.json``) instead of a shell incantation:

.. code-block:: json

    {
      "name": "fig3-stress",
      "workload": {"setting": "small", "num_configurations": 100},
      "algorithms": [{"name": "ILP"}, {"name": "H2", "params": {"iterations": 1000}}],
      "execution": {"workers": 8, "store_dir": "runs"},
      "validation": {"horizons": [50.0], "rate_multipliers": [1.0, 1.05]}
    }

``repro-cloud run study.json`` (or :class:`repro.api.Study`) drives the
pipeline end to end; the ``figure`` and ``validate`` sub-commands are thin
constructors of the same specs.  Deserialisation is strict: unknown fields
raise :class:`~repro.core.exceptions.ConfigurationError` at every level, and
algorithm parameters are checked against the registry schemas before anything
runs.  :func:`study_fingerprint` hashes the *scientific* content of a spec
(workload, algorithms, validation, series — not the execution details), which
is what ties a study's sweep and campaign checkpoints together in the
:class:`repro.api.Study` manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.exceptions import ConfigurationError
from ..generators.workload import PAPER_SETTINGS, WorkloadSetting, get_setting
from ..simulation.scenarios import ScenarioSpec
from .config import AlgorithmSpec, ExperimentPlan
from .metrics import SERIES

__all__ = [
    "WorkloadSpec",
    "ExecutionSpec",
    "ValidationSpec",
    "StudySpec",
    "algorithm_spec_to_dict",
    "algorithm_spec_from_dict",
    "study_fingerprint",
]


def _reject_unknown(data: Mapping[str, Any], allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"{context} holds unknown field(s) {unknown}; allowed: {', '.join(allowed)}"
        )


def _as_path_text(value: "str | Path | None") -> str | None:
    return None if value is None else str(value)


# --------------------------------------------------------------------------- #
# workload
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkloadSpec:
    """The generated workload of a study: setting, scale, seeds.

    ``num_configurations`` and ``target_throughputs`` default (``None``) to
    the setting's own values, exactly like
    :func:`~repro.experiments.config.default_plan`; ``base_seed`` is the root
    of every derived seed, so two studies sharing a workload spec solve
    literally the same instances.
    """

    setting: WorkloadSetting
    num_configurations: int | None = None
    target_throughputs: tuple[float, ...] | None = None
    base_seed: int = 2016

    _FIELDS = ("setting", "num_configurations", "target_throughputs", "base_seed")
    # every workload field determines which instances get solved
    _FINGERPRINTED = ("setting", "num_configurations", "target_throughputs", "base_seed")
    _EXECUTION_ONLY = ()

    def __post_init__(self) -> None:
        if isinstance(self.setting, str):
            object.__setattr__(self, "setting", get_setting(self.setting))
        if not isinstance(self.setting, WorkloadSetting):
            raise ConfigurationError(
                f"workload setting must be a WorkloadSetting or a paper setting "
                f"name, got {self.setting!r}"
            )
        if self.num_configurations is not None:
            object.__setattr__(self, "num_configurations", int(self.num_configurations))
            if self.num_configurations <= 0:
                raise ConfigurationError(
                    f"num_configurations must be positive, got {self.num_configurations}"
                )
        if self.target_throughputs is not None:
            throughputs = tuple(float(rho) for rho in self.target_throughputs)
            if not throughputs:
                raise ConfigurationError("target_throughputs must not be empty")
            object.__setattr__(self, "target_throughputs", throughputs)
        object.__setattr__(self, "base_seed", int(self.base_seed))

    @property
    def resolved_num_configurations(self) -> int:
        return (
            self.setting.num_configurations
            if self.num_configurations is None
            else self.num_configurations
        )

    @property
    def resolved_target_throughputs(self) -> tuple[float, ...]:
        if self.target_throughputs is None:
            return tuple(float(rho) for rho in self.setting.target_throughputs)
        return self.target_throughputs

    def as_dict(self) -> dict[str, Any]:
        name = self.setting.name
        canonical = name in PAPER_SETTINGS and get_setting(name) == self.setting
        return {
            "setting": name if canonical else asdict(self.setting),
            "num_configurations": self.num_configurations,
            "target_throughputs": None
            if self.target_throughputs is None
            else list(self.target_throughputs),
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _reject_unknown(data, cls._FIELDS, "workload spec")
        if "setting" not in data:
            raise ConfigurationError("workload spec is missing the 'setting' field")
        setting = data["setting"]
        if isinstance(setting, Mapping):
            setting_data = dict(setting)
            allowed = tuple(
                spec.name for spec in WorkloadSetting.__dataclass_fields__.values()
            )
            _reject_unknown(setting_data, allowed, "workload setting")
            for tuple_field in ("throughput_range", "cost_range", "target_throughputs"):
                if tuple_field in setting_data:
                    setting_data[tuple_field] = tuple(setting_data[tuple_field])
            setting = WorkloadSetting(**setting_data)
        throughputs = data.get("target_throughputs")
        return cls(
            setting=setting,
            num_configurations=data.get("num_configurations"),
            target_throughputs=None if throughputs is None else tuple(throughputs),
            base_seed=int(data.get("base_seed", 2016)),
        )


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExecutionSpec:
    """How a study runs: parallelism, chunking, checkpoint stores, resume.

    ``workers`` follows the CLI convention (``None`` = default serial run,
    ``1`` = explicit serial, ``N`` = process pool of ``N``).  ``chunk_size``
    (throughputs per work unit) shapes the sweep only and ``chunk_policy``
    the validation campaign only.  Checkpoint paths can be given explicitly
    (``sweep_store`` / ``validation_store``) or derived from ``store_dir`` as
    ``<dir>/<study>-sweep.jsonl`` and ``<dir>/<study>-validation.jsonl``;
    with ``store_dir`` the study also keeps a ``<dir>/<study>-study.json``
    manifest whose fingerprint ties the two checkpoints to the spec that
    produced them.  None of these fields
    enters the study fingerprint — re-running with more workers or a
    different checkpoint location is still the same study.
    """

    workers: int | None = None
    chunk_size: int | None = None
    chunk_policy: str | None = None
    store_dir: str | None = None
    sweep_store: str | None = None
    validation_store: str | None = None
    validation_shards: int | None = None
    resume: bool = False
    capture_allocations: bool = False
    memo: bool = False
    memo_path: str | None = None

    _FIELDS = (
        "workers",
        "chunk_size",
        "chunk_policy",
        "store_dir",
        "sweep_store",
        "validation_store",
        "validation_shards",
        "resume",
        "capture_allocations",
        "memo",
        "memo_path",
    )
    # scheduling only: none of these may ever change a computed record
    _FINGERPRINTED = ()
    _EXECUTION_ONLY = (
        "workers",
        "chunk_size",
        "chunk_policy",
        "store_dir",
        "sweep_store",
        "validation_store",
        "validation_shards",
        "resume",
        "capture_allocations",
        "memo",
        "memo_path",
    )

    def __post_init__(self) -> None:
        if self.workers is not None:
            object.__setattr__(self, "workers", int(self.workers))
            if self.workers < 1:
                raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None:
            object.__setattr__(self, "chunk_size", int(self.chunk_size))
            if self.chunk_size <= 0:
                raise ConfigurationError(
                    f"chunk_size must be positive, got {self.chunk_size}"
                )
        if self.chunk_policy is not None:
            from .backends import parse_chunk_policy

            object.__setattr__(self, "chunk_policy", str(self.chunk_policy))
            parse_chunk_policy(self.chunk_policy)  # reject bad policies eagerly
        for field_name in ("store_dir", "sweep_store", "validation_store", "memo_path"):
            object.__setattr__(self, field_name, _as_path_text(getattr(self, field_name)))
        if self.validation_shards is not None:
            object.__setattr__(self, "validation_shards", int(self.validation_shards))
            if self.validation_shards < 1:
                raise ConfigurationError(
                    f"validation_shards must be >= 1, got {self.validation_shards}"
                )
            if not (self.store_dir or self.validation_store):
                raise ConfigurationError(
                    "validation_shards requires a validation store location "
                    "(store_dir or validation_store) to shard into"
                )
        object.__setattr__(self, "resume", bool(self.resume))
        object.__setattr__(self, "capture_allocations", bool(self.capture_allocations))
        object.__setattr__(self, "memo", bool(self.memo))
        if self.memo_path is not None and not self.memo:
            raise ConfigurationError("memo_path requires memo=True")
        if self.resume and not (self.store_dir or self.sweep_store or self.validation_store):
            raise ConfigurationError(
                "resume=True requires a checkpoint location (store_dir, "
                "sweep_store or validation_store)"
            )

    def build_backend(self):
        """The execution backend this spec asks for (``None`` = driver default)."""
        from .backends import make_backend

        return make_backend(self.workers)

    def build_memo(self):
        """The result-memo store this spec asks for (``None`` when disabled)."""
        if not self.memo:
            return None
        from .memo import ResultMemoStore, default_memo_path

        path = self.memo_path if self.memo_path is not None else default_memo_path()
        return ResultMemoStore(path)

    def sweep_store_path(self, study_name: str) -> Path | None:
        if self.sweep_store is not None:
            return Path(self.sweep_store)
        if self.store_dir is not None:
            return Path(self.store_dir) / f"{study_name}-sweep.jsonl"
        return None

    def validation_store_path(self, study_name: str) -> Path | None:
        if self.validation_store is not None:
            return Path(self.validation_store)
        if self.store_dir is not None:
            if self.validation_shards is not None:
                # a sharded campaign checkpoints into a directory of
                # shard-*.jsonl files, not a single store file
                return Path(self.store_dir) / f"{study_name}-validation"
            return Path(self.store_dir) / f"{study_name}-validation.jsonl"
        return None

    def manifest_path(self, study_name: str) -> Path | None:
        if self.store_dir is not None:
            return Path(self.store_dir) / f"{study_name}-study.json"
        return None

    def as_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionSpec":
        _reject_unknown(data, cls._FIELDS, "execution spec")
        return cls(**dict(data))


# --------------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ValidationSpec:
    """The simulator check of a study: horizons × multipliers × scenarios.

    The fields mirror :func:`~repro.experiments.validation.plan_from_sweep`
    one for one; ``algorithms`` optionally restricts the campaign to a subset
    of the study's algorithms and ``scenarios`` adds the injection axis
    (``None`` = the paper's single baseline scenario).  ``screen`` selects
    the fast-screen tier (``"none"`` = exact DES everywhere, ``"fluid"`` =
    analytic pre-screen escalating only cells whose fluid peak utilisation
    reaches ``screen_threshold``); both serialise only when non-default, so
    existing study fingerprints are unchanged.
    """

    horizons: tuple[float, ...] = (50.0,)
    rate_multipliers: tuple[float, ...] = (1.0,)
    warmup_fraction: float = 0.1
    max_datasets: int | None = None
    algorithms: tuple[str, ...] | None = None
    scenarios: tuple[ScenarioSpec, ...] | None = None
    screen: str = "none"
    screen_threshold: float = 0.85

    _FIELDS = (
        "horizons",
        "rate_multipliers",
        "warmup_fraction",
        "max_datasets",
        "algorithms",
        "scenarios",
        "screen",
        "screen_threshold",
    )
    # the whole grid (and the screen tier, which decides fluid-vs-DES records)
    # is scientific content
    _FINGERPRINTED = (
        "horizons",
        "rate_multipliers",
        "warmup_fraction",
        "max_datasets",
        "algorithms",
        "scenarios",
        "screen",
        "screen_threshold",
    )
    _EXECUTION_ONLY = ()

    def __post_init__(self) -> None:
        horizons = tuple(float(h) for h in self.horizons)
        multipliers = tuple(float(m) for m in self.rate_multipliers)
        object.__setattr__(self, "horizons", horizons)
        object.__setattr__(self, "rate_multipliers", multipliers)
        object.__setattr__(self, "warmup_fraction", float(self.warmup_fraction))
        if not horizons or any(h <= 0 for h in horizons):
            raise ConfigurationError(f"horizons must be positive, got {horizons}")
        if not multipliers or any(m <= 0 for m in multipliers):
            raise ConfigurationError(f"rate multipliers must be positive, got {multipliers}")
        if not (0 <= self.warmup_fraction < 1):
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.max_datasets is not None:
            object.__setattr__(self, "max_datasets", int(self.max_datasets))
            if self.max_datasets <= 0:
                raise ConfigurationError(
                    f"max_datasets must be positive (or None), got {self.max_datasets}"
                )
        if self.algorithms is not None:
            names = tuple(str(name) for name in self.algorithms)
            if not names:
                raise ConfigurationError(
                    "validation algorithms filter must not be empty (use None "
                    "to validate every algorithm)"
                )
            object.__setattr__(self, "algorithms", names)
        if self.scenarios is not None:
            scenarios = tuple(self.scenarios)
            if not scenarios:
                raise ConfigurationError(
                    "scenarios must not be empty (use None for the baseline scenario)"
                )
            names = [scenario.name for scenario in scenarios]
            if len(set(names)) != len(names):
                raise ConfigurationError(f"scenario names must be unique, got {names}")
            object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "screen", str(self.screen))
        object.__setattr__(self, "screen_threshold", float(self.screen_threshold))
        if self.screen not in ("none", "fluid"):
            raise ConfigurationError(
                f"unknown screen tier {self.screen!r} (choose 'none' or 'fluid')"
            )
        if not (0 < self.screen_threshold):
            raise ConfigurationError(
                f"screen_threshold must be positive, got {self.screen_threshold}"
            )

    def plan(self, sweep, *, name: str | None = None):
        """The :class:`~repro.experiments.validation.ValidationPlan` of ``sweep``."""
        from .validation import plan_from_sweep

        return plan_from_sweep(
            sweep,
            horizons=self.horizons,
            rate_multipliers=self.rate_multipliers,
            warmup_fraction=self.warmup_fraction,
            max_datasets=self.max_datasets,
            algorithms=self.algorithms,
            scenarios=self.scenarios,
            screen=self.screen,
            screen_threshold=self.screen_threshold,
            name=name,
        )

    def as_dict(self) -> dict[str, Any]:
        data = {
            "horizons": list(self.horizons),
            "rate_multipliers": list(self.rate_multipliers),
            "warmup_fraction": self.warmup_fraction,
            "max_datasets": self.max_datasets,
            "algorithms": None if self.algorithms is None else list(self.algorithms),
            "scenarios": None
            if self.scenarios is None
            else [scenario.as_dict() for scenario in self.scenarios],
        }
        # omitted when default so pre-screen study fingerprints are unchanged
        if self.screen != "none":
            data["screen"] = self.screen
            data["screen_threshold"] = self.screen_threshold
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ValidationSpec":
        _reject_unknown(data, cls._FIELDS, "validation spec")
        scenarios = data.get("scenarios")
        algorithms = data.get("algorithms")
        return cls(
            horizons=tuple(data.get("horizons", (50.0,))),
            rate_multipliers=tuple(data.get("rate_multipliers", (1.0,))),
            warmup_fraction=float(data.get("warmup_fraction", 0.1)),
            max_datasets=data.get("max_datasets"),
            algorithms=None if algorithms is None else tuple(algorithms),
            scenarios=None
            if scenarios is None
            else tuple(ScenarioSpec.from_dict(entry) for entry in scenarios),
            screen=str(data.get("screen", "none")),
            screen_threshold=float(data.get("screen_threshold", 0.85)),
        )


# --------------------------------------------------------------------------- #
# algorithm entries
# --------------------------------------------------------------------------- #


def algorithm_spec_to_dict(spec: AlgorithmSpec) -> dict[str, Any]:
    """Serialise one study algorithm entry."""
    return {
        "name": spec.name,
        "params": dict(spec.params),
        "seed_sensitive": spec.seed_sensitive,
    }


def algorithm_spec_from_dict(data: Mapping[str, Any]) -> AlgorithmSpec:
    """Deserialise one study algorithm entry (strict).

    ``seed_sensitive`` defaults to the registry's registration-time flag for
    the algorithm, so a ``study.json`` can simply say ``{"name": "H2"}`` and
    get the paper's per-sweep-point re-seeding behaviour.
    """
    from ..solvers.registry import solver_seed_sensitive

    _reject_unknown(data, ("name", "params", "seed_sensitive"), "algorithm spec")
    if "name" not in data:
        raise ConfigurationError("algorithm spec is missing the 'name' field")
    name = str(data["name"])
    seed_sensitive = data.get("seed_sensitive")
    if seed_sensitive is None:
        seed_sensitive = solver_seed_sensitive(name)
    return AlgorithmSpec(
        name=name,
        params=dict(data.get("params", {})),
        seed_sensitive=bool(seed_sensitive),
    )


# --------------------------------------------------------------------------- #
# the study
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StudySpec:
    """One declarative study: workload + algorithms + execution + validation.

    Construction validates eagerly: the series name must be registered in
    :data:`~repro.experiments.metrics.SERIES`, every algorithm entry is
    checked against the solver registry's typed parameter schema (unknown
    solvers and misspelled options raise before anything runs) and a
    validation ``algorithms`` filter may only name algorithms the study
    actually sweeps.
    """

    name: str
    workload: WorkloadSpec
    algorithms: tuple[AlgorithmSpec, ...]
    execution: ExecutionSpec = ExecutionSpec()
    validation: ValidationSpec | None = None
    series: str = "normalized_cost"
    description: str = ""

    _FIELDS = (
        "name",
        "workload",
        "algorithms",
        "execution",
        "validation",
        "series",
        "description",
    )
    # mirrors study_fingerprint: labels and scheduling stay out of the hash
    _FINGERPRINTED = ("workload", "algorithms", "validation", "series")
    _EXECUTION_ONLY = ("name", "description", "execution")

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ConfigurationError("a study needs a non-empty name")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ConfigurationError("a study needs at least one algorithm")
        if self.series not in SERIES:
            raise ConfigurationError(
                f"unknown series {self.series!r}; available: {', '.join(sorted(SERIES))}"
            )
        for spec in self.algorithms:
            spec.validate()
        if self.validation is not None and self.validation.algorithms is not None:
            swept = {spec.name for spec in self.algorithms}
            unknown = sorted(set(self.validation.algorithms) - swept)
            if unknown:
                raise ConfigurationError(
                    f"validation algorithms filter names {unknown}, which the "
                    f"study does not sweep (algorithms: {sorted(swept)})"
                )

    # -- derived plans --------------------------------------------------- #
    @property
    def capture_allocations(self) -> bool:
        """Whether the sweep records carry allocation payloads.

        Forced on when the study validates — the campaign then replays
        exactly what was solved instead of re-solving per simulation.
        """
        return self.execution.capture_allocations or self.validation is not None

    def experiment_plan(self) -> ExperimentPlan:
        """The sweep plan of this study (named after the workload setting,
        so study checkpoints interoperate with ``figure --out`` files)."""
        workload = self.workload
        return ExperimentPlan(
            name=workload.setting.name,
            setting=workload.setting,
            algorithms=self.algorithms,
            num_configurations=workload.resolved_num_configurations,
            target_throughputs=workload.resolved_target_throughputs,
            base_seed=workload.base_seed,
        )

    def validation_plan(self, sweep):
        """The campaign plan validating ``sweep`` (requires a validation spec)."""
        if self.validation is None:
            raise ConfigurationError(f"study {self.name!r} has no validation spec")
        return self.validation.plan(sweep)

    # -- serialisation ---------------------------------------------------- #
    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "series": self.series,
            "workload": self.workload.as_dict(),
            "algorithms": [algorithm_spec_to_dict(spec) for spec in self.algorithms],
            "execution": self.execution.as_dict(),
            "validation": None if self.validation is None else self.validation.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        _reject_unknown(data, cls._FIELDS, "study spec")
        for key in ("name", "workload", "algorithms"):
            if key not in data:
                raise ConfigurationError(f"study spec is missing the {key!r} field")
        validation = data.get("validation")
        execution = data.get("execution")
        return cls(
            name=str(data["name"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            algorithms=tuple(
                algorithm_spec_from_dict(entry) for entry in data["algorithms"]
            ),
            execution=ExecutionSpec()
            if execution is None
            else ExecutionSpec.from_dict(execution),
            validation=None if validation is None else ValidationSpec.from_dict(validation),
            series=str(data.get("series", "normalized_cost")),
            description=str(data.get("description", "")),
        )

    def to_json(self, path: "str | Path") -> Path:
        """Write the spec as an indented, reviewable ``study.json``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_json(cls, path: "str | Path") -> "StudySpec":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read study spec {path}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{path} does not hold a JSON object")
        try:
            return cls.from_dict(data)
        except (TypeError, ValueError) as exc:
            # bare coercions (int("four"), tuple(3), ...) on wrong-typed JSON
            # values must surface as the same clean error the CLI prints for
            # unknown fields, not as a traceback
            raise ConfigurationError(f"{path} holds an invalid study spec: {exc}") from exc

    def fingerprint(self) -> str:
        """See :func:`study_fingerprint`."""
        return study_fingerprint(self)

    # -- convenience ------------------------------------------------------ #
    def with_execution(self, **changes) -> "StudySpec":
        """A copy with some execution fields replaced (workers, resume, ...)."""
        return replace(self, execution=replace(self.execution, **changes))


def study_fingerprint(spec: StudySpec) -> str:
    """SHA-256 over the *scientific* content of a study (hex digest).

    Only the fields that determine what is computed are hashed: workload,
    algorithms, validation and series.  Execution details (workers, chunking,
    store locations, resume) are excluded — they change how the work is
    scheduled, never the results — and so are the name and description, which
    are labels: fixing a typo in a study's prose must not strand its
    checkpoints behind a manifest mismatch.
    """
    data = spec.as_dict()
    for label in ("execution", "name", "description"):
        del data[label]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
