"""Public facade: run a declarative study end to end.

:class:`Study` turns a :class:`~repro.experiments.spec.StudySpec` into the
paper's full pipeline — generate the workload, sweep every algorithm over
every (configuration, throughput), capture the solved allocations, replay
them through the stream simulator, aggregate the figure series — as **one
resumable run** through the existing execution backends and JSONL checkpoint
stores:

.. code-block:: python

    from repro.api import Study

    result = Study.from_file("study.json").run(progress=print)
    print(result.series.title, result.worst_ratio())

or fluently, without a JSON file:

.. code-block:: python

    result = (
        Study.builder("quick-look")
        .workload("small", configurations=5, throughputs=(60, 120))
        .paper_lineup(iterations=500)
        .execution(workers=4, store_dir="runs")
        .validation(horizons=(50.0,), rate_multipliers=(1.0, 1.05))
        .run(progress=print)
    )

When the spec names checkpoint stores, every completed work unit of both
stages is fsynced to disk and ``run(resume=True)`` (or ``repro-cloud run
study.json --resume``) picks up wherever the previous run stopped — mid-sweep
or mid-campaign.  With a ``store_dir`` the study also writes a
``<name>-study.json`` manifest carrying the
:func:`~repro.experiments.spec.study_fingerprint`; the fingerprint ties the
sweep and campaign checkpoints to the exact spec that produced them, and a
directory holding a different study's artifacts is refused instead of
silently mixed into.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .core.exceptions import ConfigurationError
from .experiments.config import AlgorithmSpec, paper_algorithms
from .experiments.metrics import SERIES, SeriesByAlgorithm
from .experiments.runner import SweepResult, run_plan
from .experiments.spec import (
    ExecutionSpec,
    StudySpec,
    ValidationSpec,
    WorkloadSpec,
    study_fingerprint,
)
from .experiments.store import ShardedStore, shard_paths
from .experiments.validation import CampaignResult, ValidationStore, run_validation
from .simulation.scenarios import ScenarioSpec

__all__ = ["Study", "StudyBuilder", "StudyResult"]


@dataclass
class StudyResult:
    """Everything one study run produced.

    ``campaign`` is ``None`` for studies without a validation spec; ``series``
    is the aggregation the spec's ``series`` field selected (normalised cost,
    best count, ...), computed lazily on first access — callers that only
    consume the campaign (the ``validate`` CLI) never pay for it.
    """

    spec: StudySpec
    sweep: SweepResult
    campaign: CampaignResult | None = None
    _series: SeriesByAlgorithm | None = field(default=None, init=False, repr=False)

    @property
    def series(self) -> SeriesByAlgorithm:
        if self._series is None:
            self._series = SERIES[self.spec.series](self.sweep)
        return self._series

    def worst_ratio(self) -> float:
        """The campaign's weakest achieved/target ratio (``nan`` if no campaign)."""
        if self.campaign is None:
            return float("nan")
        return self.campaign.worst_ratio()


class Study:
    """A runnable study: a :class:`StudySpec` bound to the execution machinery."""

    def __init__(self, spec: StudySpec) -> None:
        self.spec = spec

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def from_spec(cls, spec: StudySpec) -> "Study":
        return cls(spec)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Study":
        return cls(StudySpec.from_dict(data))

    @classmethod
    def from_file(cls, path: "str | Path") -> "Study":
        """Load a ``study.json`` written by :meth:`StudySpec.to_json` (or by hand)."""
        return cls(StudySpec.from_json(path))

    @staticmethod
    def builder(name: str) -> "StudyBuilder":
        return StudyBuilder(name)

    # -- derived paths ----------------------------------------------------- #
    @property
    def sweep_store_path(self) -> Path | None:
        return self.spec.execution.sweep_store_path(self.spec.name)

    @property
    def validation_store_path(self) -> Path | None:
        return self.spec.execution.validation_store_path(self.spec.name)

    @property
    def manifest_path(self) -> Path | None:
        return self.spec.execution.manifest_path(self.spec.name)

    # -- pipeline ---------------------------------------------------------- #
    def run(
        self,
        *,
        resume: bool | None = None,
        progress: Callable[[str], None] | None = None,
        backend=None,
        sweep_store=None,
        validation_store=None,
        sweep: SweepResult | None = None,
        check: bool = False,
    ) -> StudyResult:
        """Execute the study: sweep → (capture) → validation → series.

        Parameters default to the spec's :class:`ExecutionSpec`; ``backend``,
        ``sweep_store`` and ``validation_store`` accept the same objects as
        :func:`~repro.experiments.runner.run_plan` /
        :func:`~repro.experiments.validation.run_validation` and override it
        for programmatic callers (the figure wrappers pass their legacy
        ``backend=``/``store=`` arguments through here).  A pre-computed
        ``sweep`` skips the sweep stage — the ``validate`` CLI uses this to
        campaign over an existing checkpoint, including a partial one.

        With ``resume=True`` each stage resumes from its checkpoint when the
        file already exists and starts fresh otherwise, so one flag drives
        the whole pipeline no matter where the previous run stopped.
        """
        spec = self.spec
        execution = spec.execution
        if resume is None:
            resume = execution.resume
        if backend is None:
            backend = execution.build_backend()
        if sweep_store is None:
            sweep_store = self.sweep_store_path
        if validation_store is None:
            validation_store = self.validation_store_path
        if execution.validation_shards is not None and isinstance(
            validation_store, (str, Path)
        ):
            # the spec asks for a multi-writer campaign checkpoint: one
            # store file per shard under the derived directory, merged on
            # load byte-identically to a single-store run
            validation_store = ShardedStore(
                validation_store,
                store_type=ValidationStore,
                shards=execution.validation_shards,
            )
        if resume and sweep is None and sweep_store is None and validation_store is None:
            raise ConfigurationError(
                "resume=True requires a checkpoint location (store_dir, "
                "sweep_store or validation_store in the execution spec)"
            )
        self._reconcile_manifest()

        memo = execution.build_memo()
        if sweep is None:
            sweep = run_plan(
                spec.experiment_plan(),
                backend=backend,
                store=sweep_store,
                resume=bool(resume) and _existing(sweep_store),
                progress=progress,
                check=check,
                chunk_size=execution.chunk_size,
                capture_allocations=spec.capture_allocations,
                memo=memo,
            )
        campaign = None
        if spec.validation is not None:
            campaign = run_validation(
                spec.validation_plan(sweep),
                backend=backend,
                store=validation_store,
                resume=bool(resume) and _existing(validation_store),
                progress=progress,
                chunk_policy=execution.chunk_policy,
                memo=memo,
            )
        return StudyResult(spec=spec, sweep=sweep, campaign=campaign)

    # -- manifest ----------------------------------------------------------- #
    def _reconcile_manifest(self) -> None:
        """Create or verify the ``<name>-study.json`` manifest.

        The manifest records the study fingerprint next to the checkpoint
        files; running a spec whose fingerprint differs from the manifest in
        place is refused — the sweep/campaign checkpoints in that directory
        belong to a different study and must not be resumed against or
        overwritten by this one.
        """
        path = self.manifest_path
        if path is None:
            return
        fingerprint = study_fingerprint(self.spec)
        if path.exists():
            try:
                stored = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                raise ConfigurationError(
                    f"{path} exists but is not a readable study manifest; refusing "
                    f"to reuse the directory (delete the file to start over)"
                ) from None
            stored_fingerprint = (
                stored.get("fingerprint") if isinstance(stored, Mapping) else None
            )
            if stored_fingerprint != fingerprint:
                raise ConfigurationError(
                    f"{path} was written by a different study (fingerprint "
                    f"{str(stored_fingerprint)[:12]}... != {fingerprint[:12]}...); "
                    f"its checkpoints do not belong to this spec — use another "
                    f"store_dir or delete the stale study artifacts"
                )
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": "study-manifest",
            "fingerprint": fingerprint,
            "spec": self.spec.as_dict(),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _existing(store) -> bool:
    """Whether a store argument points at an existing checkpoint."""
    if store is None:
        return False
    if isinstance(store, ShardedStore):
        # the root directory existing is not enough — resume needs at least
        # one shard checkpoint to pick up from
        return bool(shard_paths(store.path))
    if isinstance(store, (str, Path)):
        return Path(store).exists()
    path = getattr(store, "path", None)
    return path is not None and Path(path).exists()


class StudyBuilder:
    """Fluent construction of a :class:`StudySpec`.

    Every method returns ``self`` so calls chain; :meth:`build` assembles and
    validates the spec, :meth:`run` additionally executes it.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._description = ""
        self._series = "normalized_cost"
        self._workload: WorkloadSpec | None = None
        self._algorithms: list[AlgorithmSpec] = []
        self._execution = ExecutionSpec()
        self._validation: ValidationSpec | None = None

    def description(self, text: str) -> "StudyBuilder":
        self._description = str(text)
        return self

    def series(self, kind: str) -> "StudyBuilder":
        self._series = str(kind)
        return self

    def workload(
        self,
        setting,
        *,
        configurations: int | None = None,
        throughputs: Sequence[float] | None = None,
        base_seed: int = 2016,
    ) -> "StudyBuilder":
        """Set the workload: a paper setting name (or a ``WorkloadSetting``)."""
        self._workload = WorkloadSpec(
            setting=setting,
            num_configurations=configurations,
            target_throughputs=None if throughputs is None else tuple(throughputs),
            base_seed=base_seed,
        )
        return self

    def algorithm(
        self, name: str, *, seed_sensitive: bool | None = None, **params
    ) -> "StudyBuilder":
        """Append one algorithm; options are validated against its registry schema.

        ``seed_sensitive`` defaults to the registry's flag for the algorithm
        (stochastic heuristics re-seed per sweep point, deterministic solvers
        do not).
        """
        from .solvers.registry import solver_seed_sensitive

        if seed_sensitive is None:
            seed_sensitive = solver_seed_sensitive(name)
        spec = AlgorithmSpec(name=name, params=dict(params), seed_sensitive=bool(seed_sensitive))
        spec.validate()
        self._algorithms.append(spec)
        return self

    def paper_lineup(
        self,
        *,
        iterations: int = 1000,
        ilp_time_limit: float | None = None,
        include_ilp: bool = True,
        include_h0: bool = False,
    ) -> "StudyBuilder":
        """Append the paper's figure line-up (ILP, H1, H2, H31, H32, H32Jump)."""
        self._algorithms.extend(
            paper_algorithms(
                iterations=iterations,
                ilp_time_limit=ilp_time_limit,
                include_ilp=include_ilp,
                include_h0=include_h0,
            )
        )
        return self

    def execution(
        self,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        chunk_policy: str | None = None,
        store_dir=None,
        sweep_store=None,
        validation_store=None,
        validation_shards: int | None = None,
        resume: bool = False,
        capture_allocations: bool = False,
        memo: bool = False,
        memo_path=None,
    ) -> "StudyBuilder":
        self._execution = ExecutionSpec(
            workers=workers,
            chunk_size=chunk_size,
            chunk_policy=chunk_policy,
            store_dir=store_dir,
            sweep_store=sweep_store,
            validation_store=validation_store,
            validation_shards=validation_shards,
            resume=resume,
            capture_allocations=capture_allocations,
            memo=memo,
            memo_path=memo_path,
        )
        return self

    def validation(
        self,
        *,
        horizons: Sequence[float] = (50.0,),
        rate_multipliers: Sequence[float] = (1.0,),
        warmup_fraction: float = 0.1,
        max_datasets: int | None = None,
        algorithms: Sequence[str] | None = None,
        scenarios: Sequence[ScenarioSpec] | None = None,
    ) -> "StudyBuilder":
        self._validation = ValidationSpec(
            horizons=tuple(horizons),
            rate_multipliers=tuple(rate_multipliers),
            warmup_fraction=warmup_fraction,
            max_datasets=max_datasets,
            algorithms=None if algorithms is None else tuple(algorithms),
            scenarios=None if scenarios is None else tuple(scenarios),
        )
        return self

    def build(self) -> StudySpec:
        if self._workload is None:
            raise ConfigurationError(
                f"study {self._name!r} has no workload; call .workload(...) first"
            )
        if not self._algorithms:
            raise ConfigurationError(
                f"study {self._name!r} has no algorithms; call .algorithm(...) "
                f"or .paper_lineup(...) first"
            )
        return StudySpec(
            name=self._name,
            workload=self._workload,
            algorithms=tuple(self._algorithms),
            execution=self._execution,
            validation=self._validation,
            series=self._series,
            description=self._description,
        )

    def run(self, **kwargs) -> StudyResult:
        """Build the spec and execute it (see :meth:`Study.run`)."""
        return Study(self.build()).run(**kwargs)
