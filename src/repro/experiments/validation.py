"""Validation campaigns: replay a sweep's allocations through the simulator.

The paper's cost model *claims* that the allocations it prices sustain the
target throughput; the discrete-event simulator of :mod:`repro.simulation`
is the piece that checks the claim.  This module scales that check from a
single ad-hoc run into a **campaign**: every allocation produced by a sweep
(:class:`~repro.experiments.runner.SweepResult`), replayed over a grid of
horizons, arrival-rate multipliers (e.g. ``1.0`` for the design point and
``1.05`` for a 5 % stress test) and injection scenarios
(:class:`~repro.simulation.scenarios.ScenarioSpec`: arrival process, per-type
slowdowns, seeded failure windows), sharded into picklable work units executed
by the same :class:`~repro.experiments.backends.ExecutionBackend` machinery
as the sweep itself, with per-unit JSONL checkpointing and resume under a
plan fingerprint.

The pieces mirror the sweep subsystem one-for-one:

=====================  ==========================================
sweep layer            validation layer
=====================  ==========================================
``ExperimentPlan``     :class:`ValidationPlan` (built by
                       :func:`plan_from_sweep`)
``WorkUnit``           :class:`ValidationUnit`
``RunRecord``          :class:`ValidationRecord`
``run_plan``           :func:`run_validation`
``SweepStore``         :class:`ValidationStore`
``SweepResult``        :class:`CampaignResult`
=====================  ==========================================

Allocations come from the sweep records' optional
:class:`~repro.experiments.runner.AllocationPayload` (captured with
``capture_allocations=True``), so campaigns simulate *exactly* what was
solved; records without a payload (older checkpoint files) fall back to
re-solving with the sweep's own deterministic seed derivation.  Simulation is
fully deterministic — stochastic scenarios draw from seeds derived per
(source, scenario) with :func:`~repro.utils.rng.stable_text_digest` — so
serial, parallel and interrupt-and-resume campaigns produce byte-identical
record lines; ``benchmarks/bench_validation.py`` and
``benchmarks/bench_scenarios.py`` assert this.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.fluid import fluid_estimate
from ..core.exceptions import ConfigurationError
from ..generators.workload import generate_configuration_at
from ..simulation.engine import StreamSimulator
from ..simulation.scenarios import DEFAULT_SCENARIO, ScenarioSpec
from ..solvers.registry import ensure_default_solvers
from ..utils.rng import derive_seed, stable_text_digest
from ..utils.timing import timed
from .backends import SerialBackend, backend_width, drive_units, parse_chunk_policy
from .config import ExperimentPlan, plan_from_dict, plan_to_dict
from .memo import MemoStats, ResultMemoStore, memo_key
from .metrics import SeriesByAlgorithm
from .runner import RHO_ABS_TOL, RHO_REL_TOL, AllocationPayload, SweepResult
from .store import JsonlCheckpointStore, ShardedStore, shard_paths

__all__ = [
    "AllocationSource",
    "scenario_seed",
    "ValidationPlan",
    "ValidationUnit",
    "ValidationChunk",
    "ValidationRecord",
    "CampaignResult",
    "ValidationStore",
    "plan_from_sweep",
    "plan_cells",
    "plan_validation_units",
    "validation_plan_to_dict",
    "validation_plan_from_dict",
    "validation_fingerprint",
    "run_validation",
    "load_campaign",
    "throughput_ratio_series",
    "latency_series",
    "utilization_series",
    "reorder_peak_series",
    "backlog_series",
]


# --------------------------------------------------------------------------- #
# plan
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AllocationSource:
    """One allocation to validate: where it came from and (optionally) what it is.

    ``payload`` carries the solved allocation when the sweep captured it;
    ``None`` means the executing side re-solves deterministically with the
    sweep's seed derivation (slower, but lets campaigns run against old
    checkpoint files that predate allocation capture).
    """

    configuration: int
    rho: float
    algorithm: str
    payload: AllocationPayload | None = None

    def as_dict(self) -> dict:
        data: dict = {
            "configuration": self.configuration,
            "rho": self.rho,
            "algorithm": self.algorithm,
        }
        if self.payload is not None:
            data["allocation"] = self.payload.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "AllocationSource":
        payload = data.get("allocation")
        return cls(
            configuration=int(data["configuration"]),
            rho=float(data["rho"]),
            algorithm=str(data["algorithm"]),
            payload=AllocationPayload.from_dict(payload) if payload is not None else None,
        )


#: The scenario axis every pre-scenario campaign implicitly ran: one default
#: (baseline) scenario.  Plans carrying exactly this tuple serialise without a
#: ``"scenarios"`` field, so their fingerprints — and therefore checkpoint
#: resume — match files written before scenarios existed.
_DEFAULT_SCENARIOS: tuple[ScenarioSpec, ...] = (DEFAULT_SCENARIO,)


def scenario_seed(base_seed: int, source: AllocationSource, scenario: ScenarioSpec) -> int:
    """The simulation seed of one (allocation source, scenario) cell.

    Derived with :func:`~repro.utils.rng.stable_text_digest` (never ``hash``),
    so it is identical across worker processes and ``PYTHONHASHSEED`` s —
    the byte-identity of serial/parallel/resumed campaigns under stochastic
    scenarios rests on this.  Horizon and rate multiplier are deliberately
    not folded in: all simulations of one cell share the arrival-sequence
    prefix, so a longer horizon extends a shorter one instead of reshuffling
    it.
    """
    return derive_seed(
        base_seed,
        stable_text_digest(
            f"{source.configuration}|{source.rho!r}|{source.algorithm}", bits=32
        ),
        stable_text_digest(scenario.name, bits=32),
    )


@dataclass(frozen=True)
class ValidationPlan:
    """One campaign: allocations x horizons x rate multipliers x scenarios.

    ``rate_multipliers`` scale each source's target throughput into the
    simulated arrival rate: ``1.0`` replays the design point, ``1.05`` injects
    5 % more load than the allocation was dimensioned for (a stress point the
    cost model makes no promise about).  ``scenarios`` replays every
    (source, horizon, multiplier) cell once per injection scenario
    (:class:`~repro.simulation.scenarios.ScenarioSpec`: arrival process,
    per-type slowdowns, seeded failure windows); the default single baseline
    scenario reproduces the pre-scenario behaviour — and serialisation —
    exactly.

    ``screen`` selects the campaign's fast-screen tier: ``"none"`` (the
    default) runs the exact DES for every grid cell; ``"fluid"`` first bounds
    each cell with the closed-form model of :mod:`repro.analysis.fluid` and
    only escalates to the DES the cells whose fluid peak utilisation reaches
    ``screen_threshold`` (or that the fluid model cannot bound).  Screened-out
    cells still produce one record each — marked ``tier="fluid"`` — so a
    screened campaign covers exactly the same grid, never silently less.
    """

    name: str
    sweep_plan: ExperimentPlan
    sources: tuple[AllocationSource, ...]
    horizons: tuple[float, ...] = (50.0,)
    rate_multipliers: tuple[float, ...] = (1.0,)
    warmup_fraction: float = 0.1
    max_datasets: int | None = None
    scenarios: tuple[ScenarioSpec, ...] = _DEFAULT_SCENARIOS
    screen: str = "none"
    screen_threshold: float = 0.85

    def __post_init__(self) -> None:
        if not self.sources:
            raise ConfigurationError("a validation plan needs at least one allocation source")
        if not self.horizons or any(h <= 0 for h in self.horizons):
            raise ConfigurationError(f"horizons must be positive, got {self.horizons}")
        if not self.rate_multipliers or any(m <= 0 for m in self.rate_multipliers):
            raise ConfigurationError(
                f"rate multipliers must be positive, got {self.rate_multipliers}"
            )
        if not (0 <= self.warmup_fraction < 1):
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.max_datasets is not None and self.max_datasets <= 0:
            raise ConfigurationError(
                f"max_datasets must be positive (or None for unlimited), "
                f"got {self.max_datasets}"
            )
        if not self.scenarios:
            raise ConfigurationError("a validation plan needs at least one scenario")
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"scenario names must be unique, got {names} "
                f"(the name keys seeds and series)"
            )
        if self.screen not in ("none", "fluid"):
            raise ConfigurationError(
                f"unknown screen tier {self.screen!r} (choose 'none' or 'fluid')"
            )
        if not (0 < self.screen_threshold):
            raise ConfigurationError(
                f"screen_threshold must be positive, got {self.screen_threshold}"
            )

    @property
    def num_simulations(self) -> int:
        return (
            len(self.sources)
            * len(self.horizons)
            * len(self.rate_multipliers)
            * len(self.scenarios)
        )


def plan_from_sweep(
    sweep: SweepResult,
    *,
    horizons: Sequence[float] = (50.0,),
    rate_multipliers: Sequence[float] = (1.0,),
    warmup_fraction: float = 0.1,
    max_datasets: int | None = None,
    algorithms: Sequence[str] | None = None,
    scenarios: Sequence[ScenarioSpec] | None = None,
    screen: str = "none",
    screen_threshold: float = 0.85,
    name: str | None = None,
) -> ValidationPlan:
    """Build the campaign that validates every allocation of ``sweep``.

    ``algorithms`` optionally restricts the campaign to a subset of the
    sweep's algorithms (e.g. skip re-simulating H0).  ``scenarios`` adds the
    injection axis (default: the single baseline scenario).  Records carrying
    an :class:`~repro.experiments.runner.AllocationPayload` are replayed
    exactly; the rest are re-solved deterministically at execution time.
    """
    keep = set(algorithms) if algorithms is not None else None
    sources = tuple(
        AllocationSource(
            configuration=record.configuration,
            rho=record.rho,
            algorithm=record.algorithm,
            payload=record.allocation,
        )
        for record in sweep.records
        if keep is None or record.algorithm in keep
    )
    if not sources:
        raise ConfigurationError(
            "the sweep holds no records to validate"
            + (f" for algorithms {sorted(keep)}" if keep is not None else "")
        )
    return ValidationPlan(
        name=name if name is not None else f"validate-{sweep.plan.name}",
        sweep_plan=sweep.plan,
        sources=sources,
        horizons=tuple(float(h) for h in horizons),
        rate_multipliers=tuple(float(m) for m in rate_multipliers),
        warmup_fraction=float(warmup_fraction),
        max_datasets=max_datasets,
        scenarios=(
            _DEFAULT_SCENARIOS if scenarios is None else tuple(scenarios)
        ),
        screen=screen,
        screen_threshold=float(screen_threshold),
    )


def validation_plan_to_dict(plan: ValidationPlan) -> dict[str, Any]:
    """Canonical JSON form of a validation plan (fingerprintable).

    The ``scenarios`` field is omitted for the default single-baseline axis,
    so scenario-free plans fingerprint identically to the pre-scenario format
    and their old checkpoints keep resuming.  The screen fields are likewise
    omitted for ``screen="none"`` — and included (threshold and all) for a
    screened plan, because which cells ran the exact DES *is* part of what
    the campaign computed and must participate in the fingerprint.
    """
    data: dict[str, Any] = {
        "name": plan.name,
        "sweep_plan": plan_to_dict(plan.sweep_plan),
        "sources": [source.as_dict() for source in plan.sources],
        "horizons": [float(h) for h in plan.horizons],
        "rate_multipliers": [float(m) for m in plan.rate_multipliers],
        "warmup_fraction": plan.warmup_fraction,
        "max_datasets": plan.max_datasets,
    }
    if plan.scenarios != _DEFAULT_SCENARIOS:
        data["scenarios"] = [scenario.as_dict() for scenario in plan.scenarios]
    if plan.screen != "none":
        data["screen"] = plan.screen
        data["screen_threshold"] = plan.screen_threshold
    return data


def validation_plan_from_dict(data: Mapping[str, Any]) -> ValidationPlan:
    """Inverse of :func:`validation_plan_to_dict`."""
    for key in ("name", "sweep_plan", "sources", "horizons", "rate_multipliers"):
        if key not in data:
            raise ConfigurationError(f"validation plan data is missing the {key!r} field")
    return ValidationPlan(
        name=str(data["name"]),
        sweep_plan=plan_from_dict(data["sweep_plan"]),
        sources=tuple(AllocationSource.from_dict(entry) for entry in data["sources"]),
        horizons=tuple(float(h) for h in data["horizons"]),
        rate_multipliers=tuple(float(m) for m in data["rate_multipliers"]),
        warmup_fraction=float(data.get("warmup_fraction", 0.1)),
        max_datasets=None if data.get("max_datasets") is None else int(data["max_datasets"]),
        scenarios=(
            tuple(ScenarioSpec.from_dict(entry) for entry in data["scenarios"])
            if "scenarios" in data
            else _DEFAULT_SCENARIOS
        ),
        screen=str(data.get("screen", "none")),
        screen_threshold=float(data.get("screen_threshold", 0.85)),
    )


def validation_fingerprint(plan: ValidationPlan) -> str:
    """SHA-256 of the canonical plan serialisation (hex digest)."""
    canonical = json.dumps(
        validation_plan_to_dict(plan), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# records and units
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ValidationRecord:
    """One simulated (allocation, horizon, arrival rate) measurement.

    Every field is a deterministic function of the plan — stochastic
    scenarios draw from :func:`scenario_seed`-derived generators, never the
    wall clock — so serial, parallel and resumed campaigns serialise
    byte-identically.  ``utilization`` holds ``(type, busy fraction)`` pairs
    in a canonical sort order rather than a mapping, for the same JSON-key
    reason as :class:`~repro.experiments.runner.AllocationPayload`.
    ``scenario`` names the plan scenario the simulation ran under; records
    from the default baseline scenario serialise without the field, so
    pre-scenario checkpoint lines round-trip unchanged.

    ``tier`` records which engine produced the measurement: ``"des"`` (the
    exact discrete-event simulation, the default — omitted from the dict
    form so pre-screen checkpoint lines round-trip unchanged) or ``"fluid"``
    (the closed-form screen of :mod:`repro.analysis.fluid`: utilisations and
    the throughput ratio are analytic bounds, latencies are the no-queueing
    critical-path estimate, and the reorder/backlog counters are zero by
    construction — the fluid system never queues in the screened-out regime).
    """

    configuration: int
    rho: float
    algorithm: str
    horizon: float
    rate_multiplier: float
    arrival_rate: float
    arrivals: int
    completed: int
    achieved_throughput: float
    throughput_ratio: float
    mean_latency: float
    max_latency: float
    utilization: tuple[tuple[Any, float], ...]
    reorder_buffer_peak: int
    backlog: int
    peak_in_flight: int
    scenario: str = DEFAULT_SCENARIO.name
    tier: str = "des"

    def sustains_target(self, tolerance: float = 0.05) -> bool:
        """True when the measured throughput is within ``tolerance`` of the rate."""
        return self.throughput_ratio >= 1.0 - tolerance

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return float(np.mean([u for _, u in self.utilization]))

    @property
    def max_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return float(max(u for _, u in self.utilization))

    def as_dict(self) -> dict:
        data = {
            "configuration": self.configuration,
            "rho": self.rho,
            "algorithm": self.algorithm,
            "horizon": self.horizon,
            "rate_multiplier": self.rate_multiplier,
            "arrival_rate": self.arrival_rate,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "achieved_throughput": self.achieved_throughput,
            "throughput_ratio": self.throughput_ratio,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "utilization": [[type_id, value] for type_id, value in self.utilization],
            "reorder_buffer_peak": self.reorder_buffer_peak,
            "backlog": self.backlog,
            "peak_in_flight": self.peak_in_flight,
        }
        if self.scenario != DEFAULT_SCENARIO.name:
            data["scenario"] = self.scenario
        if self.tier != "des":
            data["tier"] = self.tier
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ValidationRecord":
        return cls(
            configuration=int(data["configuration"]),
            rho=float(data["rho"]),
            algorithm=str(data["algorithm"]),
            horizon=float(data["horizon"]),
            rate_multiplier=float(data["rate_multiplier"]),
            arrival_rate=float(data["arrival_rate"]),
            arrivals=int(data["arrivals"]),
            completed=int(data["completed"]),
            achieved_throughput=float(data["achieved_throughput"]),
            throughput_ratio=float(data["throughput_ratio"]),
            mean_latency=float(data["mean_latency"]),
            max_latency=float(data["max_latency"]),
            utilization=tuple((entry[0], float(entry[1])) for entry in data["utilization"]),
            reorder_buffer_peak=int(data["reorder_buffer_peak"]),
            backlog=int(data["backlog"]),
            peak_in_flight=int(data["peak_in_flight"]),
            scenario=str(data.get("scenario", DEFAULT_SCENARIO.name)),
            tier=str(data.get("tier", "des")),
        )


@dataclass(frozen=True, slots=True)
class ValidationUnit:
    """One campaign shard: sources at one (horizon, multiplier, scenario).

    Like the sweep's :class:`~repro.experiments.backends.WorkUnit` it carries
    indices only; the executing side looks the sources and the scenario up in
    the (pickled) plan and regenerates each source's configuration from the
    sweep seeds.  ``scenario`` indexes ``plan.scenarios`` and is omitted from
    the dict form when ``0`` — the only value pre-scenario checkpoints could
    have held — so their sharding check keeps passing.
    """

    index: int
    horizon: float
    rate_multiplier: float
    sources: tuple[int, ...]
    scenario: int = 0

    def __reduce__(self):
        # frozen+slots dataclasses need an explicit constructor-based reduce
        # on Python 3.10 (default slot-state restore setattr's into a frozen
        # instance); units cross process boundaries constantly, so be exact
        return (
            self.__class__,
            (self.index, self.horizon, self.rate_multiplier, self.sources, self.scenario),
        )

    def as_dict(self) -> dict:
        data = {
            "index": self.index,
            "horizon": self.horizon,
            "rate_multiplier": self.rate_multiplier,
            "sources": list(self.sources),
        }
        if self.scenario != 0:
            data["scenario"] = self.scenario
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ValidationUnit":
        return cls(
            index=int(data["index"]),
            horizon=float(data["horizon"]),
            rate_multiplier=float(data["rate_multiplier"]),
            sources=tuple(int(s) for s in data["sources"]),
            scenario=int(data.get("scenario", 0)),
        )

    def execute(
        self,
        plan: ValidationPlan,
        *,
        check: bool = False,
        capture_allocations: bool = False,
    ) -> list[ValidationRecord]:
        """Simulate this unit's allocations (worker-process entry point).

        ``check``/``capture_allocations`` are accepted for signature
        compatibility with the generic backend dispatch; neither applies to a
        simulation replay.
        """
        context = _plan_context(plan)
        return [
            _simulate_cell(
                plan, context, self.horizon, self.rate_multiplier,
                self.scenario, source_index,
            )
            for source_index in self.sources
        ]


@dataclass(frozen=True, slots=True)
class ValidationChunk:
    """One adaptively-sized campaign shard: a contiguous span of grid cells.

    Where :class:`ValidationUnit` is bound to a single (horizon, multiplier,
    scenario) cell of the grid, a chunk spans ``[start, stop)`` of the plan's
    canonical cell list (:func:`plan_cells`) — many sources, horizons,
    multipliers and scenarios in one picklable value, sized so each shard
    carries enough simulation work to amortise the process-pool's per-task
    overhead.  ``index`` is the chunk's position in the canonical unit order
    (chunks tile the cell list in order), so checkpoint lines and reassembly
    work exactly as for per-cell units; the dict form carries a ``"cells"``
    span, which is how :class:`ValidationStore` tells the two shapes apart.
    """

    index: int
    start: int
    stop: int

    def __reduce__(self):
        # see ValidationUnit.__reduce__ (Python 3.10 frozen+slots pickling)
        return (self.__class__, (self.index, self.start, self.stop))

    def as_dict(self) -> dict:
        return {"index": self.index, "cells": [self.start, self.stop]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ValidationChunk":
        start, stop = data["cells"]
        return cls(index=int(data["index"]), start=int(start), stop=int(stop))

    def execute(
        self,
        plan: ValidationPlan,
        *,
        check: bool = False,
        capture_allocations: bool = False,
    ) -> list[ValidationRecord]:
        """Simulate this chunk's cell span (worker-process entry point)."""
        context = _plan_context(plan)
        return [
            _simulate_cell(plan, context, *cell)
            for cell in context.cells[self.start : self.stop]
        ]


def _validation_unit_from_dict(data: Mapping):
    """Checkpoint dispatch: a ``"cells"`` span is a chunk, anything else a unit."""
    if "cells" in data:
        return ValidationChunk.from_dict(data)
    return ValidationUnit.from_dict(data)


class _ExecutionContext:
    """Per-process cache of the deterministic objects a plan's cells share.

    Built once per (process, plan) by :func:`_plan_context` and reused across
    every work unit the process executes — this is the persistent worker
    state behind the :class:`~repro.experiments.backends.ProcessPoolBackend`
    (whose initializer ships the plan once per worker), and an equal win for
    serial runs.  Everything cached here is a pure function of the plan:
    configurations regenerate from the sweep seeds, problems from the
    configuration, allocations from the captured payload or the
    deterministic re-solve — so reuse cannot change a single record byte.
    """

    def __init__(self, plan: ValidationPlan) -> None:
        ensure_default_solvers()  # the re-solve fallback needs the registry
        self.plan = plan
        self._configurations: dict[int, Any] = {}
        self._problems: dict[tuple[int, float], Any] = {}
        self._allocations: dict[int, Any] = {}
        self._cells: "list[tuple[float, float, int, int]] | None" = None

    @property
    def cells(self) -> "list[tuple[float, float, int, int]]":
        if self._cells is None:
            self._cells = plan_cells(self.plan)
        return self._cells

    def configuration(self, index: int):
        configuration = self._configurations.get(index)
        if configuration is None:
            configuration = generate_configuration_at(
                self.plan.sweep_plan.setting,
                base_seed=self.plan.sweep_plan.base_seed,
                index=index,
            )
            self._configurations[index] = configuration
        return configuration

    def problem(self, source: AllocationSource):
        key = (source.configuration, source.rho)
        problem = self._problems.get(key)
        if problem is None:
            problem = self.configuration(source.configuration).problem(source.rho)
            self._problems[key] = problem
        return problem

    def allocation(self, source_index: int):
        allocation = self._allocations.get(source_index)
        if allocation is None:
            source = self.plan.sources[source_index]
            allocation = _resolve_allocation(
                self.plan.sweep_plan, source, self.problem(source)
            )
            self._allocations[source_index] = allocation
        return allocation


_CONTEXT: "_ExecutionContext | None" = None


def _plan_context(plan: ValidationPlan) -> _ExecutionContext:
    """The process-wide execution context of ``plan`` (one live slot).

    Keyed by object identity: in a pool worker the plan is the one object the
    initializer shipped, so all shards the worker executes share a context;
    a serial driver running several plans in turn rebuilds the slot per plan.
    """
    global _CONTEXT
    if _CONTEXT is None or _CONTEXT.plan is not plan:
        _CONTEXT = _ExecutionContext(plan)
    return _CONTEXT


def _simulate_cell(
    plan: ValidationPlan,
    context: _ExecutionContext,
    horizon: float,
    rate_multiplier: float,
    scenario_index: int,
    source_index: int,
) -> ValidationRecord:
    """Run one grid cell — the shared body of every unit shape.

    Byte-for-byte the record the original per-unit loop produced: the
    simulation seed depends only on (source, scenario), so how cells are
    grouped into units can never change a record.
    """
    source = plan.sources[source_index]
    scenario = plan.scenarios[scenario_index]
    problem = context.problem(source)
    allocation = context.allocation(source_index)
    arrival_rate = source.rho * rate_multiplier
    if plan.screen == "fluid":
        estimate = fluid_estimate(
            problem,
            allocation,
            arrival_rate=arrival_rate,
            horizon=horizon,
            scenario=scenario,
        )
        if not estimate.flagged(plan.screen_threshold):
            return _fluid_record(source, horizon, rate_multiplier, scenario, estimate)
    simulator = StreamSimulator(
        problem,
        allocation,
        arrival_rate=arrival_rate,
        warmup_fraction=plan.warmup_fraction,
        scenario=scenario,
        seed=scenario_seed(plan.sweep_plan.base_seed, source, scenario),
    )
    report = simulator.run(horizon=horizon, max_datasets=plan.max_datasets)
    return ValidationRecord(
        configuration=source.configuration,
        rho=source.rho,
        algorithm=source.algorithm,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        arrival_rate=report.target_throughput,
        arrivals=report.arrivals,
        completed=report.completed,
        achieved_throughput=report.achieved_throughput,
        throughput_ratio=report.throughput_ratio,
        mean_latency=report.mean_latency,
        max_latency=report.max_latency,
        utilization=_sorted_utilization(report.utilization),
        reorder_buffer_peak=report.reorder_buffer_peak,
        backlog=report.backlog,
        peak_in_flight=int(report.metadata.get("peak_in_flight", 0)),
        scenario=scenario.name,
    )


def _fluid_record(
    source: AllocationSource,
    horizon: float,
    rate_multiplier: float,
    scenario: ScenarioSpec,
    estimate,
) -> ValidationRecord:
    """The screen-tier record of a cell the fluid model cleared.

    Deterministic in the plan alone (the fluid model draws no randomness),
    so screened campaigns keep the serial/parallel/resume byte-identity
    guarantee.  Arrival and completion counts are the fluid expectation
    ``rate × horizon``; the queueing-born counters (reorder peak, backlog,
    peak in flight beyond the pipeline depth) are zero by construction.
    """
    expected = int(estimate.arrival_rate * horizon)
    return ValidationRecord(
        configuration=source.configuration,
        rho=source.rho,
        algorithm=source.algorithm,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        arrival_rate=estimate.arrival_rate,
        arrivals=expected,
        completed=expected,
        achieved_throughput=estimate.throughput_ratio * estimate.arrival_rate,
        throughput_ratio=estimate.throughput_ratio,
        mean_latency=estimate.latency,
        max_latency=estimate.latency,
        utilization=tuple((type_id, value) for type_id, value in estimate.utilization),
        reorder_buffer_peak=0,
        backlog=0,
        peak_in_flight=0,
        scenario=scenario.name,
        tier="fluid",
    )


def _sorted_utilization(utilization: Mapping) -> tuple:
    """Canonical (type, busy fraction) pairs: natural key order when the type
    ids are mutually comparable (the paper's integers), string order otherwise."""
    try:
        return tuple(sorted(utilization.items()))
    except TypeError:
        return tuple(sorted(utilization.items(), key=lambda kv: str(kv[0])))


def _resolve_allocation(sweep_plan: ExperimentPlan, source: AllocationSource, problem):
    """The allocation a source stands for: its payload, or a deterministic re-solve."""
    if source.payload is not None:
        return source.payload.to_allocation()
    spec = next(
        (s for s in sweep_plan.algorithms if s.name == source.algorithm), None
    )
    if spec is None:
        raise ConfigurationError(
            f"source references algorithm {source.algorithm!r} which is not in the "
            f"sweep plan (available: {[s.name for s in sweep_plan.algorithms]})"
        )
    # identical derivation to run_configuration, so the re-solved allocation is
    # the one the sweep record was measured on
    seed = derive_seed(
        sweep_plan.base_seed,
        source.configuration,
        int(source.rho),
        stable_text_digest(spec.name, bits=16),
    )
    return spec.build(seed=seed).solve(problem, check=False).allocation


def plan_cells(plan: ValidationPlan) -> list[tuple[float, float, int, int]]:
    """The campaign grid as a flat ``(horizon, multiplier, scenario, source)`` list.

    This is the *canonical cell order*: exactly the order in which the default
    (unchunked) unit list emits records — horizons × multipliers × scenarios
    outermost, sources grouped per sweep configuration innermost.  Chunked
    units tile this list in contiguous spans, which is what keeps a chunked
    campaign's record stream byte-identical to an unchunked one regardless of
    chunk size.
    """
    source_order = [index for group in _source_groups(plan) for index in group]
    cells: list[tuple[float, float, int, int]] = []
    for horizon in plan.horizons:
        for multiplier in plan.rate_multipliers:
            for scenario_index in range(len(plan.scenarios)):
                for source_index in source_order:
                    cells.append(
                        (float(horizon), float(multiplier), scenario_index, source_index)
                    )
    return cells


def _unit_cells(plan: ValidationPlan, unit, cells) -> list[tuple[float, float, int, int]]:
    """The grid cells a unit covers, in its record-emission order."""
    if isinstance(unit, ValidationChunk):
        return list(cells[unit.start : unit.stop])
    return [
        (unit.horizon, unit.rate_multiplier, unit.scenario, source_index)
        for source_index in unit.sources
    ]


def plan_validation_units(
    plan: ValidationPlan, *, cells_per_unit: int | None = None
) -> list:
    """Shard a campaign into its canonical list of work units.

    Two sharding shapes share the same record order:

    * the default (``cells_per_unit=None``) emits one :class:`ValidationUnit`
      per (horizon, multiplier, scenario, configuration) group;
    * ``cells_per_unit=N`` emits :class:`ValidationChunk` spans tiling the
      canonical cell list (:func:`plan_cells`) ``N`` cells at a time — the
      adaptive-sharding shape, whose per-shard cost the driver sizes from a
      measured per-cell estimate.

    The scenario loop sits innermost of the grid axes, so a single-scenario
    plan produces exactly the unit list (and indices) of the pre-scenario
    format.
    """
    if cells_per_unit is not None:
        if cells_per_unit <= 0:
            raise ConfigurationError(
                f"cells_per_unit must be positive, got {cells_per_unit}"
            )
        total = len(plan_cells(plan))
        return [
            ValidationChunk(index=index, start=start, stop=min(start + cells_per_unit, total))
            for index, start in enumerate(range(0, total, cells_per_unit))
        ]
    units: list[ValidationUnit] = []
    for horizon in plan.horizons:
        for multiplier in plan.rate_multipliers:
            for scenario_index in range(len(plan.scenarios)):
                for group in _source_groups(plan):
                    units.append(
                        ValidationUnit(
                            index=len(units),
                            horizon=float(horizon),
                            rate_multiplier=float(multiplier),
                            sources=group,
                            scenario=scenario_index,
                        )
                    )
    return units


def _source_groups(plan: ValidationPlan) -> list[tuple[int, ...]]:
    """Source indices grouped per sweep configuration, in configuration order."""
    by_configuration: dict[int, list[int]] = {}
    for index, source in enumerate(plan.sources):
        by_configuration.setdefault(source.configuration, []).append(index)
    return [tuple(by_configuration[configuration]) for configuration in sorted(by_configuration)]


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #


@dataclass
class CampaignResult:
    """All records of a validation campaign plus the plan that produced them."""

    plan: ValidationPlan
    records: list[ValidationRecord] = field(default_factory=list)
    memo_stats: "MemoStats | None" = field(default=None, repr=False, compare=False)

    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for source in self.plan.sources:
            seen.setdefault(source.algorithm, None)
        return list(seen)

    def throughputs(self) -> list[float]:
        seen: list[float] = []
        for source in self.plan.sources:
            if _match_float(source.rho, seen) is None:
                seen.append(float(source.rho))
        return sorted(seen)

    def horizons(self) -> list[float]:
        return [float(h) for h in self.plan.horizons]

    def rate_multipliers(self) -> list[float]:
        return [float(m) for m in self.plan.rate_multipliers]

    def scenarios(self) -> list[str]:
        return [scenario.name for scenario in self.plan.scenarios]

    def filter(
        self,
        *,
        algorithm: str | None = None,
        rho: float | None = None,
        horizon: float | None = None,
        rate_multiplier: float | None = None,
        scenario: str | None = None,
    ) -> list[ValidationRecord]:
        out = []
        for record in self.records:
            if algorithm is not None and record.algorithm != algorithm:
                continue
            if rho is not None and not _close(record.rho, rho):
                continue
            if horizon is not None and not _close(record.horizon, horizon):
                continue
            if rate_multiplier is not None and not _close(
                record.rate_multiplier, rate_multiplier
            ):
                continue
            if scenario is not None and record.scenario != scenario:
                continue
            out.append(record)
        return out

    def worst_ratio(self) -> float:
        """The campaign's weakest achieved/target ratio (1.0 = all sustained)."""
        if not self.records:
            return float("nan")
        return min(record.throughput_ratio for record in self.records)

    def extend(self, records: Iterable[ValidationRecord]) -> None:
        self.records.extend(records)


def _close(a: float, b: float) -> bool:
    return math.isclose(float(a), float(b), rel_tol=RHO_REL_TOL, abs_tol=RHO_ABS_TOL)


def _match_float(value: float, seen: Sequence[float]) -> float | None:
    for candidate in seen:
        if _close(candidate, value):
            return candidate
    return None


# --------------------------------------------------------------------------- #
# aggregation series (the campaign counterparts of experiments.metrics)
# --------------------------------------------------------------------------- #


def _scenario_series(
    campaign: CampaignResult,
    value: Callable[[ValidationRecord], float],
    reduce: Callable[[list[float]], float],
    *,
    horizon: float | None,
    rate_multiplier: float | None,
    scenario: str | None,
    ylabel: str,
    title: str,
) -> SeriesByAlgorithm:
    algorithms = campaign.algorithms()
    throughputs = campaign.throughputs()
    # one pass over the records, bucketing by (algorithm, canonical rho) —
    # not a filter() scan per series cell, which would be O(cells x records)
    buckets: dict[tuple[str, float], list[float]] = {}
    for record in campaign.records:
        if horizon is not None and not _close(record.horizon, horizon):
            continue
        if rate_multiplier is not None and not _close(record.rate_multiplier, rate_multiplier):
            continue
        if scenario is not None and record.scenario != scenario:
            continue
        rho = _match_float(record.rho, throughputs)
        if rho is None:
            continue
        buckets.setdefault((record.algorithm, rho), []).append(value(record))
    series: dict[str, list[float]] = {name: [] for name in algorithms}
    for rho in throughputs:
        for name in algorithms:
            values = buckets.get((name, rho))
            series[name].append(reduce(values) if values else float("nan"))
    return SeriesByAlgorithm(
        throughputs=throughputs, series=series, ylabel=ylabel, title=title
    )


def _mean(values: list[float]) -> float:
    return float(np.mean(values))


def _max(values: list[float]) -> float:
    return float(max(values))


def throughput_ratio_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Mean achieved/target throughput ratio per sweep point (1.0 = sustained)."""
    return _scenario_series(
        campaign,
        lambda r: r.throughput_ratio,
        _mean,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="achieved / target throughput",
        title="Measured throughput relative to the allocation's target",
    )


def latency_series(
    campaign: CampaignResult,
    *,
    stat: str = "mean",
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Data-set latency per sweep point: mean of means or max of maxima."""
    if stat not in ("mean", "max"):
        raise ConfigurationError(f"stat must be 'mean' or 'max', got {stat!r}")
    if stat == "mean":
        return _scenario_series(
            campaign, lambda r: r.mean_latency, _mean,
            horizon=horizon, rate_multiplier=rate_multiplier, scenario=scenario,
            ylabel="mean data-set latency", title="Mean data-set latency",
        )
    return _scenario_series(
        campaign, lambda r: r.max_latency, _max,
        horizon=horizon, rate_multiplier=rate_multiplier, scenario=scenario,
        ylabel="max data-set latency", title="Maximum data-set latency",
    )


def utilization_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Mean busy fraction over the rented machine types, per sweep point."""
    return _scenario_series(
        campaign,
        lambda r: r.mean_utilization,
        _mean,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="mean per-type utilization",
        title="Mean utilization of the rented machines",
    )


def reorder_peak_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Worst reorder-buffer occupancy per sweep point (the paper's buffer size)."""
    return _scenario_series(
        campaign,
        lambda r: float(r.reorder_buffer_peak),
        _max,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="peak reorder-buffer occupancy",
        title="Reorder buffer needed for in-order output",
    )


def backlog_series(
    campaign: CampaignResult,
    *,
    horizon: float | None = None,
    rate_multiplier: float | None = None,
    scenario: str | None = None,
) -> SeriesByAlgorithm:
    """Mean in-flight backlog at the horizon per sweep point."""
    return _scenario_series(
        campaign,
        lambda r: float(r.backlog),
        _mean,
        horizon=horizon,
        rate_multiplier=rate_multiplier,
        scenario=scenario,
        ylabel="data sets in flight at the horizon",
        title="Backlog at the end of the simulation",
    )


# --------------------------------------------------------------------------- #
# checkpoint store
# --------------------------------------------------------------------------- #


class ValidationStore(JsonlCheckpointStore):
    """Append-only JSONL checkpoint store for one validation campaign.

    The whole initialize/resume/append/parse flow lives in
    :class:`~repro.experiments.store.JsonlCheckpointStore`; this class only
    binds the campaign's plan/unit/record types to the base hooks.  The
    header carries ``"store": "validation"`` so the two checkpoint kinds can
    never be resumed against each other.
    """

    data_description = "validation"
    store_marker = "validation"
    run_noun = "campaign"
    sharding_option = "chunk_policy"
    plan_noun = "validation plan"

    _fingerprint = staticmethod(validation_fingerprint)
    _plan_to_dict = staticmethod(validation_plan_to_dict)
    _plan_from_dict = staticmethod(validation_plan_from_dict)
    _unit_from_dict = staticmethod(_validation_unit_from_dict)
    _record_from_dict = staticmethod(ValidationRecord.from_dict)


def load_campaign(path: str | Path, *, allow_partial: bool = False) -> CampaignResult:
    """Load a campaign checkpoint, merging unit lines in canonical order.

    ``path`` may be a single checkpoint file or a :class:`ShardedStore`
    directory (``shard-*.jsonl`` files written by concurrent writers); shard
    stores are merged under the plan fingerprint of the first shard —
    first-shard-wins on duplicate units, a foreign-fingerprint shard refused
    — and because reassembly is in canonical unit order either way, a merged
    sharded campaign is byte-identical to a single-store one.

    A checkpoint holding fewer units than its plan calls for (an
    interrupted, never-resumed campaign) is refused unless ``allow_partial``.
    """
    if not Path(path).exists():
        raise ConfigurationError(f"{path} does not exist")
    if Path(path).is_dir():
        plan, completed = _load_campaign_shards(Path(path))
    else:
        plan, completed, _ = ValidationStore(path)._load_checkpoint(None)
    result = CampaignResult(plan=plan)
    for index in sorted(completed):
        result.extend(completed[index])
    # compare record counts, not unit counts: the unit count depends on the
    # chunk_policy the checkpointing run used, the record count only on the plan
    expected = plan.num_simulations
    if len(result.records) != expected and not allow_partial:
        raise ConfigurationError(
            f"{path} holds {len(result.records)} of the {expected} simulations its "
            f"plan calls for (incomplete campaign); resume it, or pass "
            f"allow_partial=True to load it anyway"
        )
    return result


def _load_campaign_shards(root: Path) -> tuple[ValidationPlan, dict[int, list]]:
    """Merge every ``shard-*.jsonl`` under ``root`` (first-shard-wins)."""
    paths = shard_paths(root)
    if not paths:
        raise ConfigurationError(
            f"{root} is a directory holding no shard checkpoints "
            f"(shard-*.jsonl); not a sharded campaign store"
        )
    plan: ValidationPlan | None = None
    completed: dict[int, list] = {}
    for path in paths:
        # passing the first shard's plan makes _load_checkpoint refuse any
        # shard with a foreign fingerprint — one directory, one campaign
        shard_plan, shard_completed, _ = ValidationStore(path)._load_checkpoint(plan)
        if plan is None:
            plan = shard_plan
        for index, records in shard_completed.items():
            completed.setdefault(index, records)
    assert plan is not None
    return plan, completed


# --------------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------------- #


def _memo_study_key(plan: ValidationPlan) -> str:
    """The memo-cache study fingerprint of a validation campaign.

    Hashes everything that determines how one cell's records are computed:
    the sweep plan the campaign replays (minus its name and grid extents —
    labels and outer-loop bounds never change a cell) plus the campaign's
    warm-up fraction, data-set cap and screen tier.  Horizons / multipliers /
    scenarios are cell coordinates, not study parameters, so they live in the
    cell key — a wider grid reuses the cells of a narrower one.
    """
    sweep = plan_to_dict(plan.sweep_plan)
    for label in ("name", "num_configurations", "target_throughputs"):
        sweep.pop(label, None)
    return memo_key(
        {
            "kind": "validation",
            "sweep_plan": sweep,
            "warmup_fraction": plan.warmup_fraction,
            "max_datasets": plan.max_datasets,
            "screen": plan.screen,
            "screen_threshold": plan.screen_threshold,
        }
    )


def _memo_cell_key(plan: ValidationPlan, cell: tuple[float, float, int, int]) -> str:
    """The memo-cache fingerprint of one grid cell.

    The source dict carries the captured allocation payload, so a cell solved
    to a different allocation (or re-solved without capture) can never be
    served another allocation's records; the scenario dict carries the full
    injection spec, so a renamed-but-identical scenario still hits while any
    parameter change misses.
    """
    horizon, rate_multiplier, scenario_index, source_index = cell
    return memo_key(
        {
            "source": plan.sources[source_index].as_dict(),
            "horizon": horizon,
            "rate_multiplier": rate_multiplier,
            "scenario": plan.scenarios[scenario_index].as_dict(),
        }
    )


def _probe_cell_seconds(plan: ValidationPlan, cells) -> float:
    """Measure one cell's wall-clock cost, scaled to the grid's mean horizon.

    Runs the first canonical cell once (its record is discarded — the real
    run recomputes it, so determinism is untouched) and scales the elapsed
    time by mean-horizon/probe-horizon, since simulation cost is roughly
    linear in the horizon.
    """
    context = _plan_context(plan)
    probe = cells[0]
    with timed() as clock:
        _simulate_cell(plan, context, *probe)
    elapsed = max(clock[0], 1e-6)
    probe_horizon = probe[0]
    mean_horizon = sum(cell[0] for cell in cells) / len(cells)
    return elapsed * (mean_horizon / probe_horizon)


def _plan_units_for_run(
    plan: ValidationPlan,
    *,
    backend,
    store: "ValidationStore | ShardedStore | None",
    resume: bool,
    chunk_policy: "str | None",
) -> list:
    """Shard the campaign for one driver run, honouring the chunk policy.

    Without a policy (or on an empty grid) this is the default per-group
    sharding.  On resume against an existing checkpoint its sharding is
    recovered from the stored unit dicts (re-probing could pick a different
    span and the store refuses mismatched sharding); otherwise ``cells:N`` is
    taken literally and ``target:SECONDS`` divides the target by a measured
    per-cell cost.  With a multi-worker backend the span is capped so every
    worker gets several chunks — load balance beats amortisation once chunks
    are big enough.
    """
    policy = parse_chunk_policy(chunk_policy)
    if policy is None:
        return plan_validation_units(plan)
    cells = plan_cells(plan)
    if not cells:
        return plan_validation_units(plan)
    stored = store.peek_units() if resume and store is not None else {}
    if stored:
        first = min(stored.values(), key=lambda data: data["index"])
        if "cells" not in first:  # the checkpoint was written unchunked
            return plan_validation_units(plan)
        start, stop = first["cells"]
        span = int(start) // int(first["index"]) if first["index"] > 0 else int(stop) - int(start)
        return plan_validation_units(plan, cells_per_unit=max(1, span))
    kind, value = policy
    if kind == "cells":
        cells_per_unit = int(value)
    else:
        cells_per_unit = int(value / _probe_cell_seconds(plan, cells))
    workers = backend_width(backend)
    if workers > 1:
        cells_per_unit = min(cells_per_unit, math.ceil(len(cells) / (4 * workers)))
    return plan_validation_units(plan, cells_per_unit=max(1, cells_per_unit))


def _describe_unit(plan: ValidationPlan, unit, records: list) -> str:
    """The progress text of one campaign unit."""
    if isinstance(unit, ValidationChunk):
        label = f"cells {unit.start}..{unit.stop}"
    else:
        label = (
            f"horizon {unit.horizon:g}, rate x{unit.rate_multiplier:g}, "
            f"scenario {plan.scenarios[unit.scenario].name}"
        )
    return f"{label}, {len(records)} simulations"


def run_validation(
    plan: ValidationPlan,
    *,
    backend=None,
    store: "ValidationStore | ShardedStore | str | Path | None" = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
    chunk_policy: "str | None" = None,
    memo: "ResultMemoStore | str | Path | None" = None,
) -> CampaignResult:
    """Execute a validation campaign and collect every record.

    The counterpart of :func:`~repro.experiments.runner.run_plan`, over the
    same fan-out loop (:func:`~repro.experiments.backends.drive_units`): the
    campaign is sharded into work units, streamed through an
    :class:`~repro.experiments.backends.ExecutionBackend` (serial by default,
    pass a :class:`~repro.experiments.backends.ProcessPoolBackend` to
    parallelise), optionally checkpointed per unit into a
    :class:`ValidationStore` (or a :class:`ShardedStore` directory) and
    resumable with ``resume=True``.  Records are reassembled in canonical
    unit order, so backend choice and completion order never change the
    result — the simulation itself is deterministic.

    ``chunk_policy`` is the one sharding knob: ``None`` keeps one
    :class:`ValidationUnit` per (horizon, multiplier, scenario,
    configuration) group, while ``'adaptive'``, ``'target:SECONDS'`` or
    ``'cells:N'`` shard into contiguous :class:`ValidationChunk` spans of the
    canonical cell list, sized so each shard amortises the pool's
    fork/pickle overhead; record bytes are identical either way.  ``memo``
    attaches a :class:`~repro.experiments.memo.ResultMemoStore`: cells whose
    ``(study, cell)`` fingerprints are cached are served without simulating,
    freshly computed cells are written back, and the result's ``memo_stats``
    reports hits/misses.
    """
    if isinstance(store, (str, Path)):
        # a directory is a sharded store root; a file path a single store
        if Path(store).is_dir():
            store = ShardedStore(store, store_type=ValidationStore)
        else:
            store = ValidationStore(store)
    if backend is None:
        backend = SerialBackend()
    units = _plan_units_for_run(
        plan, backend=backend, store=store, resume=resume, chunk_policy=chunk_policy
    )
    cells = plan_cells(plan) if memo is not None else []
    records, memo_stats = drive_units(
        plan,
        units,
        backend=backend,
        store=store,
        resume=resume,
        progress=progress,
        memo=memo,
        study_key=_memo_study_key(plan) if memo is not None else "",
        cell_keys=lambda unit: [
            _memo_cell_key(plan, cell) for cell in _unit_cells(plan, unit, cells)
        ],
        records_per_cell=1,
        parse_record=ValidationRecord.from_dict,
        describe=lambda unit, records: _describe_unit(plan, unit, records),
    )
    return CampaignResult(plan=plan, records=records, memo_stats=memo_stats)
