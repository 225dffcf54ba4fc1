"""Execution backends: how a sweep's work units get run.

A sweep (:class:`~repro.experiments.config.ExperimentPlan`) is sharded into
:class:`WorkUnit` s — one (configuration, throughput-chunk) couple each.  A
work unit is a small picklable value object: it carries indices only, and the
executing side regenerates the configuration from the plan's seeds
(:func:`repro.generators.workload.generate_configuration_at`) and rebuilds the
solvers from their :class:`~repro.experiments.config.AlgorithmSpec`.  That
makes units cheap to ship to worker processes and guarantees that the serial
and parallel backends produce identical records (up to wall-clock timings)
for deterministic solvers.  The one caveat is time-limited solvers (e.g. the
ILP with ``time_limit``, Figure 8): they return their best incumbent when the
wall-clock limit fires, so their cost depends on how much CPU the worker got
— the runner warns when such a plan is parallelised.

Two backends are provided:

* :class:`SerialBackend` — the paper's original nested loop, streaming each
  unit's records as it completes;
* :class:`ProcessPoolBackend` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out that yields results in completion order.

Both backends execute through the generic :func:`execute_unit` dispatch, so
any picklable (plan, unit) pair following the ``unit.execute(plan, ...)``
convention rides the same machinery.  :func:`drive_units` is the one fan-out
loop on top of them — resume, memo service, checkpointing, progress and
reassembly in canonical unit order — which both the sweep
(:func:`~repro.experiments.runner.run_plan`) and the validation campaigns
(:func:`~repro.experiments.validation.run_validation`) adapt to their unit
and record types.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from ..core.exceptions import ConfigurationError
from ..generators.workload import generate_configuration_at
from ..solvers.registry import ensure_default_solvers
from .config import ExperimentPlan
from .memo import MemoStats, ResultMemoStore
from .runner import RunRecord, run_configuration

__all__ = [
    "WorkUnit",
    "plan_work_units",
    "execute_work_unit",
    "execute_unit",
    "parse_chunk_policy",
    "backend_width",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "drive_units",
]

#: Per-shard wall-clock the adaptive chunk policy aims for.  Large enough
#: that fork + pickle + result-transfer overhead (a few ms per unit) is
#: noise, small enough that checkpoint granularity and work stealing stay
#: useful (ISSUE 7 names 1-2 s as the target band).
DEFAULT_CHUNK_TARGET_SECONDS = 1.5


def parse_chunk_policy(policy: "str | None") -> "tuple[str, float] | None":
    """Parse an :class:`~repro.experiments.spec.ExecutionSpec` chunk policy.

    Three forms are accepted (``None`` means "no policy": keep the legacy
    per-cell sharding byte-for-byte):

    * ``"adaptive"`` — measure one cell, size shards to
      :data:`DEFAULT_CHUNK_TARGET_SECONDS` of work each;
    * ``"target:SECONDS"`` — like ``adaptive`` with an explicit per-shard
      wall-clock target;
    * ``"cells:N"`` — fixed shards of ``N`` grid cells each.

    Returns ``("target", seconds)`` or ``("cells", n)``; raises
    :class:`~repro.core.exceptions.ConfigurationError` on anything else.
    """
    if policy is None:
        return None
    text = str(policy).strip()
    if text == "adaptive":
        return ("target", DEFAULT_CHUNK_TARGET_SECONDS)
    kind, sep, value = text.partition(":")
    if sep and kind in ("target", "cells") and value:
        try:
            if kind == "cells":
                cells = int(value)
                if cells < 1:
                    raise ValueError
                return ("cells", float(cells))
            seconds = float(value)
            if not seconds > 0:
                raise ValueError
            return ("target", seconds)
        except ValueError:
            pass
    raise ConfigurationError(
        f"unknown chunk policy {policy!r} (choose 'adaptive', 'target:SECONDS' "
        f"or 'cells:N')"
    )


def make_backend(
    workers: int | None, *, mp_context: str | None = None
) -> "ExecutionBackend | None":
    """The backend a worker count asks for (the CLI/spec convention).

    ``None`` means "caller's default" (the drivers fall back to a fresh
    :class:`SerialBackend`), ``1`` is an explicit serial run and anything
    larger a :class:`ProcessPoolBackend` of that width.  Invalid counts raise
    :class:`~repro.core.exceptions.ConfigurationError`.
    """
    if workers is None:
        return None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialBackend()
    return ProcessPoolBackend(workers, mp_context=mp_context)


def backend_width(backend) -> int:
    """How many units a backend executes concurrently (1 for serial/None).

    The single place that inspects a backend's parallelism — the chunking
    driver caps shard spans with it and the sharded store sizes its default
    shard count from it, so a backend that spells its width differently only
    has to be taught about here.
    """
    return int(getattr(backend, "workers", 1) or 1)


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One shard of a sweep: a configuration index and a throughput chunk.

    ``index`` is the unit's position in the canonical unit order of the plan
    (the order :func:`plan_work_units` returns); it keys checkpointing and
    the deterministic reassembly of streamed results.
    """

    index: int
    configuration: int
    throughputs: tuple[float, ...]

    def __reduce__(self):
        # frozen+slots dataclasses need an explicit constructor-based reduce
        # on Python 3.10 (default slot-state restore setattr's into a frozen
        # instance); units cross process boundaries constantly, so be exact
        return (self.__class__, (self.index, self.configuration, self.throughputs))

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "configuration": self.configuration,
            "throughputs": list(self.throughputs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        return cls(
            index=int(data["index"]),
            configuration=int(data["configuration"]),
            throughputs=tuple(float(rho) for rho in data["throughputs"]),
        )

    def execute(
        self, plan: ExperimentPlan, *, check: bool = False, capture_allocations: bool = False
    ) -> list[RunRecord]:
        """Run this unit against its plan (see :func:`execute_work_unit`)."""
        return execute_work_unit(
            plan, self, check=check, capture_allocations=capture_allocations
        )


def plan_work_units(plan: ExperimentPlan, *, chunk_size: int | None = None) -> list[WorkUnit]:
    """Shard a plan into its canonical list of work units.

    ``chunk_size`` bounds the number of throughputs per unit; the default
    (``None``) keeps a configuration's whole throughput sweep in one unit,
    which matches the paper's outer loop and keeps checkpoint granularity at
    one configuration.  Smaller chunks expose more parallelism for plans with
    few configurations.
    """
    throughputs = tuple(plan.target_throughputs)
    if chunk_size is None:
        chunk_size = len(throughputs)
    if chunk_size <= 0:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    units: list[WorkUnit] = []
    for configuration in range(plan.num_configurations):
        for start in range(0, len(throughputs), chunk_size):
            units.append(
                WorkUnit(
                    index=len(units),
                    configuration=configuration,
                    throughputs=throughputs[start : start + chunk_size],
                )
            )
    return units


def execute_work_unit(
    plan: ExperimentPlan,
    unit: WorkUnit,
    *,
    check: bool = False,
    capture_allocations: bool = False,
) -> list[RunRecord]:
    """Run one work unit and return its records (worker-process entry point).

    Regenerates the unit's configuration from the plan seeds, so the only
    state shipped across a process boundary is (plan, unit) — both plain
    picklable dataclasses.
    """
    ensure_default_solvers()
    configuration = generate_configuration_at(
        plan.setting, base_seed=plan.base_seed, index=unit.configuration
    )
    return list(
        run_configuration(
            configuration,
            plan.algorithms,
            unit.throughputs,
            base_seed=plan.base_seed,
            check=check,
            capture_allocations=capture_allocations,
        )
    )


def execute_unit(plan, unit, *, check: bool = False, capture_allocations: bool = False) -> list:
    """Execute any work unit against its plan (generic worker entry point).

    Both backends funnel through this function so that any plan/unit pair
    implementing the ``unit.execute(plan, *, check, capture_allocations)``
    convention — the sweep's :class:`WorkUnit` as well as the validation
    campaign's units (:mod:`repro.experiments.validation`) — runs on the same
    execution machinery.
    """
    return unit.execute(plan, check=check, capture_allocations=capture_allocations)


#: The plan and unit list of the pool this worker process belongs to, set once
#: by the pool initializer.  Shipping both per *worker* instead of per
#: *submit* matters for validation campaigns, whose plan embeds every
#: captured allocation payload and can reach megabytes at paper scale — per
#: task only a bare integer position travels over the pipe, and the
#: plan-derived worker state (configurations, problems, resolved allocations;
#: see ``_plan_context`` in :mod:`repro.experiments.validation`) is built
#: once per worker process and reused across every shard it executes.
_WORKER_PLAN = None
_WORKER_UNITS: "tuple | None" = None


def _initialize_worker(plan, units: "tuple | None" = None) -> None:
    global _WORKER_PLAN, _WORKER_UNITS
    _WORKER_PLAN = plan
    _WORKER_UNITS = units


def _execute_indexed(position: int, *, check: bool = False, capture_allocations: bool = False):
    """Worker entry point of the index-only submission path.

    ``position`` indexes the unit tuple the initializer shipped — the task
    payload over the pipe is one integer, never a pickled unit.
    """
    return execute_unit(
        _WORKER_PLAN,
        _WORKER_UNITS[position],
        check=check,
        capture_allocations=capture_allocations,
    )


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes work units, streaming ``(unit, records)`` as units complete.

    The driver passes ``capture_allocations`` only when it is requested, so a
    minimal backend implementing just ``run(plan, units, *, check=False)``
    stays conformant for plain sweeps.
    """

    def run(
        self, plan: ExperimentPlan, units: Sequence[WorkUnit], *, check: bool = False
    ) -> Iterator[tuple[WorkUnit, list[RunRecord]]]:  # pragma: no cover - protocol
        ...


class SerialBackend:
    """In-process execution, one unit at a time, in canonical order."""

    def run(
        self,
        plan,
        units: Sequence,
        *,
        check: bool = False,
        capture_allocations: bool = False,
    ) -> Iterator[tuple]:
        for unit in units:
            yield unit, execute_unit(
                plan, unit, check=check, capture_allocations=capture_allocations
            )


class ProcessPoolBackend:
    """Process-pool execution: units are farmed out to worker processes.

    Results are yielded in completion order (so checkpointing and progress
    track real progress); the driver reassembles them in canonical unit
    order.  ``max_pending`` bounds the number of in-flight task submissions
    so a 100-configuration sweep does not queue every unit up front.

    Worker state is persistent: the plan and the full unit list ship once per
    worker process (pool initializer), each submitted task is a bare unit
    *position*, and plan-derived objects (configurations, problems, resolved
    allocations) are cached process-wide on the worker side and reused across
    every shard it executes.  The default start method is ``forkserver``
    (where available) with this module preloaded, so worker processes fork
    from a small warmed-up server instead of the full driver process;
    ``mp_context`` overrides the method explicitly.
    """

    def __init__(
        self,
        workers: int,
        *,
        mp_context: str | None = None,
        max_pending: int | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.mp_context = mp_context
        self.max_pending = max_pending if max_pending is not None else 4 * self.workers
        if self.max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {self.max_pending}")

    def _context(self):
        import multiprocessing
        import sys

        if self.mp_context:
            return multiprocessing.get_context(self.mp_context)
        methods = multiprocessing.get_all_start_methods()
        # forkserver (like spawn) re-imports __main__ in the server; a driver
        # run from stdin / `python -c` / a REPL has no importable main module,
        # so fall back to plain fork there rather than crash the pool
        main = sys.modules.get("__main__")
        main_file = getattr(main, "__file__", None)
        main_importable = main_file is not None and Path(main_file).exists()
        if "forkserver" in methods and main_importable:
            context = multiprocessing.get_context("forkserver")
            # preload so the server imports this package once and every worker
            # forks from the warmed-up image instead of re-importing repro
            context.set_forkserver_preload(["repro.experiments.backends"])
            return context
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return None  # platform default (spawn on Windows/macOS)

    def run(
        self,
        plan,
        units: Sequence,
        *,
        check: bool = False,
        capture_allocations: bool = False,
    ) -> Iterator[tuple]:
        queue = tuple(units)
        if not queue:  # e.g. resuming an already-complete checkpoint
            return
        # the plan and the unit tuple are pickled once per worker
        # (initializer), not once per submitted task — per task only the
        # integer position travels over the pipe
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context(),
            initializer=_initialize_worker,
            initargs=(plan, queue),
        )
        finished = False

        def submit(position):
            return pool.submit(
                _execute_indexed,
                position,
                check=check,
                capture_allocations=capture_allocations,
            )

        try:
            pending = {}
            position = 0
            while position < len(queue) and len(pending) < self.max_pending:
                pending[submit(position)] = queue[position]
                position += 1
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    unit = pending.pop(future)
                    yield unit, future.result()
                    if position < len(queue):
                        pending[submit(position)] = queue[position]
                        position += 1
            finished = True
        finally:
            if finished:
                pool.shutdown(wait=True)
            else:
                # interrupted (Ctrl-C, a raising store/progress hook, or the
                # driver abandoning the generator): drop queued units and do
                # not block on in-flight ones — the checkpoint already holds
                # every unit that was yielded
                pool.shutdown(wait=False, cancel_futures=True)


def drive_units(
    plan,
    units: Sequence,
    *,
    backend: "ExecutionBackend",
    store=None,
    resume: bool = False,
    progress: "Callable[[str], None] | None" = None,
    memo: "ResultMemoStore | str | Path | None" = None,
    study_key: str = "",
    cell_keys: "Callable[[Any], list[str]]",
    records_per_cell: int,
    parse_record: "Callable[[Mapping], Any]",
    describe: "Callable[[Any, list], str]",
    check: bool = False,
    capture_allocations: bool = False,
) -> "tuple[list, MemoStats | None]":
    """Run a plan's units to completion: the one fan-out loop of the library.

    The sweep and the validation campaigns supply only what is specific to
    them: the canonical ``units``, the memo fingerprints (``study_key`` plus
    ``cell_keys(unit)``: one key per cell, ``records_per_cell`` records
    each), ``parse_record`` for memo entries and ``describe(unit, records)``
    for progress text.  Units already in a resumed ``store`` are skipped and
    units whose every cell is cached are served from ``memo``; the rest
    stream through ``backend``.  Each finished unit is appended to the store,
    then written back to the memo, then reported to ``progress`` — a
    callback that raises (the service's graceful drain) never loses a unit
    it was told about.  Returns ``(records, memo_stats)`` with records in
    canonical unit order, whatever the completion order.
    """
    if resume and store is None:
        raise ConfigurationError("resume=True requires a store (the checkpoint to resume from)")
    if isinstance(memo, (str, Path)):
        memo = ResultMemoStore(memo)
    total = len(units)
    completed: dict[int, list] = {}
    if store is not None:
        completed = store.initialize(plan, resume=resume, units=units)
        if completed and progress is not None:
            progress(f"[{plan.name}] resumed {len(completed)}/{total} work units from {store.path}")
    pending = [unit for unit in units if unit.index not in completed]

    memo_stats = None
    unit_cell_keys: dict[int, list[str]] = {}
    if memo is not None and pending:
        memo_stats = MemoStats()
        still_pending = []
        for unit in pending:
            keys = cell_keys(unit)
            cached = [memo.lookup(study_key, key) for key in keys]
            if keys and all(entry is not None for entry in cached):
                records = [parse_record(data) for entry in cached for data in entry]
                memo_stats.hits += len(keys)
                completed[unit.index] = records
                if store is not None:
                    store.append(unit, records)
                if progress is not None:
                    progress(
                        f"[{plan.name}] work unit {len(completed)}/{total} served "
                        f"from memo ({describe(unit, records)})"
                    )
            else:
                memo_stats.misses += len(keys)
                unit_cell_keys[unit.index] = keys
                still_pending.append(unit)
        pending = still_pending

    # capture_allocations is passed only when set, so a third-party backend
    # unaware of the option keeps working for plain sweeps
    run_kwargs: dict = {"check": check}
    if capture_allocations:
        run_kwargs["capture_allocations"] = True
    for unit, records in backend.run(plan, pending, **run_kwargs):
        completed[unit.index] = records
        if store is not None:
            store.append(unit, records)
        keys = unit_cell_keys.get(unit.index)
        # records stream cell-major, one records_per_cell slice per cell
        if memo is not None and keys is not None and len(records) == len(keys) * records_per_cell:
            for position, key in enumerate(keys):
                cell = records[position * records_per_cell : (position + 1) * records_per_cell]
                memo.put(study_key, key, [record.as_dict() for record in cell])
        if progress is not None:
            progress(
                f"[{plan.name}] work unit {len(completed)}/{total} done "
                f"({describe(unit, records)})"
            )
    missing = [unit.index for unit in units if unit.index not in completed]
    if missing:
        raise ConfigurationError(
            f"backend returned no result for {len(missing)} work unit(s) "
            f"(indices {missing[:10]}{'...' if len(missing) > 10 else ''}); "
            f"a conforming backend must yield every unit or raise"
        )
    return [record for unit in units for record in completed[unit.index]], memo_stats
