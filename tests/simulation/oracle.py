"""Reference engine: the independent DES the library's simulator is checked against.

:class:`repro.simulation.StreamSimulator` runs one inlined hot loop.  This
module replays the same model through one object per concept — an
:class:`EventQueue` of :class:`Event` tuples, a :class:`DataSetInstance` per
arrival, a numpy :class:`RecipeRouter`, a :class:`ReorderBuffer` and the
pool's linear least-loaded scan for every dispatch — and the equivalence
suites assert that both give byte-identical reports.  Both push events in the
same order, so they see the same ``(time, sequence)`` event stream.

:class:`ReferenceSimulator` takes the library simulator's arguments and
shares only its setup (seeded pool, arrival stream, first-arrival check) and
its report shaping; the loop, the data-set bookkeeping, routing, selection,
the reorder buffer and instance service are all its own.  It reports no
``event_counters`` and no ``prefix_reports``: a prefix is checked by running
the oracle to that horizon.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, NamedTuple

import numpy as np

from repro.core import RecipeGraph, SimulationError, ThroughputSplit
from repro.simulation import ProcessorInstance, SimulationReport, StreamSimulator


# --------------------------------------------------------------------------- #
# events
# --------------------------------------------------------------------------- #
class EventKind(IntEnum):
    ARRIVAL = 0  # a data set enters the system
    TASK_COMPLETE = 1  # an instance finishes the task it was serving
    RESUME = 2  # an instance leaves a failure window with work queued


class Event(NamedTuple):
    """``(time, sequence, kind, arg)``; ordering stops at the unique ``sequence``."""

    time: float
    sequence: int
    kind: int
    arg: Any = None


class EventQueue:
    """Deterministic priority queue: equal-time events pop in push order."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: int, arg: Any = None) -> Event:
        event = Event(time, next(self._counter), kind, arg)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


# --------------------------------------------------------------------------- #
# instance service (FIFO at the instance's rate)
# --------------------------------------------------------------------------- #
class PendingTask(NamedTuple):
    """A (data set, task) pair waiting for or receiving service."""

    dataset_id: int
    task_id: int
    work: float


def enqueue(instance: ProcessorInstance, task: PendingTask) -> None:
    instance.queue.append(task)
    instance._pending_work += task.work


def start_next(instance: ProcessorInstance, now: float) -> tuple[PendingTask, float] | None:
    """Start the next queued task; return (task, completion time).

    ``None`` when there is nothing to start, a task is already in service, or
    the instance is inside a failure window.
    """
    if instance.current is not None or not instance.queue:
        return None
    if not instance.available_at(now):
        return None
    task = instance.queue.popleft()
    duration = task.work / instance.throughput
    instance.current = task
    instance.busy_until = now + duration
    instance.busy_time += duration
    return task, instance.busy_until


def finish_current(instance: ProcessorInstance, now: float) -> PendingTask:
    """Mark the in-service task as finished and return it."""
    task = instance.current
    if task is None:
        raise SimulationError(
            f"instance {instance.instance_id} has no task in service at t={now}"
        )
    instance.current = None
    # a drained instance snaps back to exactly zero pending work
    instance._pending_work = instance._pending_work - task[2] if instance.queue else 0.0
    return task


# --------------------------------------------------------------------------- #
# stream entities
# --------------------------------------------------------------------------- #
class DataSetInstance:
    """One data set flowing through one recipe graph."""

    def __init__(
        self, dataset_id: int, recipe_index: int, recipe: RecipeGraph, arrival_time: float
    ) -> None:
        self.dataset_id = dataset_id
        self.recipe_index = recipe_index
        self.recipe = recipe
        self.arrival_time = arrival_time
        self.completion_time: float | None = None
        # remaining predecessors per task; -1 once the task is dispatched
        self._remaining_preds = {
            task_id: len(recipe.predecessors(task_id)) for task_id in recipe.task_ids()
        }
        self._pending = set(recipe.task_ids())

    @property
    def is_complete(self) -> bool:
        return not self._pending

    def initial_tasks(self) -> list[int]:
        return self.recipe.sources()

    def mark_started(self, task_id: int) -> None:
        if task_id not in self._pending or self._remaining_preds[task_id] < 0:
            raise SimulationError(
                f"task {task_id} of data set {self.dataset_id} started twice or unknown"
            )
        remaining = self._remaining_preds[task_id]
        if remaining > 0:
            raise SimulationError(
                f"task {task_id} of data set {self.dataset_id} started with "
                f"{remaining} incomplete predecessor(s)"
            )
        self._remaining_preds[task_id] = -1

    def complete_task(self, task_id: int, time: float) -> list[int]:
        """Record the completion of ``task_id``; return the newly ready tasks."""
        if task_id not in self._pending:
            raise SimulationError(
                f"completion of unknown or already-finished task {task_id} "
                f"of data set {self.dataset_id}"
            )
        self._pending.discard(task_id)
        newly_ready: list[int] = []
        for succ in self.recipe.successors(task_id):
            if succ in self._pending and self._remaining_preds[succ] > 0:
                self._remaining_preds[succ] -= 1
                if self._remaining_preds[succ] == 0:
                    newly_ready.append(succ)
        if not self._pending:
            self.completion_time = time
        return newly_ready

    @property
    def latency(self) -> float | None:
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time


class RecipeRouter:
    """Stride routing: data set ``i`` goes to the active recipe ``j`` minimising
    ``(assigned_j + 1) / rho_j`` (``np.argmin``: the first minimum wins)."""

    def __init__(self, split: ThroughputSplit) -> None:
        weights = np.asarray(split.values, dtype=float)
        if weights.sum() <= 0:
            raise SimulationError("cannot route a stream with an all-zero throughput split")
        self.weights = weights
        self.assigned = np.zeros(weights.size, dtype=np.int64)

    def route(self) -> int:
        with np.errstate(divide="ignore"):
            scores = np.where(self.weights > 0, (self.assigned + 1) / self.weights, np.inf)
        recipe = int(np.argmin(scores))
        self.assigned[recipe] += 1
        return recipe

    def mix(self) -> np.ndarray:
        total = self.assigned.sum()
        if total == 0:
            return np.zeros_like(self.weights)
        return self.assigned / total


@dataclass
class ReorderBuffer:
    """Releases completed data sets in arrival order; tracks the peak held."""

    next_to_release: int = 0
    _held: set[int] = field(default_factory=set)
    peak_occupancy: int = 0
    released: int = 0

    def complete(self, dataset_id: int) -> list[int]:
        """Record a completion; return the data sets released in order."""
        if dataset_id < self.next_to_release or dataset_id in self._held:
            raise SimulationError(f"data set {dataset_id} completed twice")
        self._held.add(dataset_id)
        self.peak_occupancy = max(self.peak_occupancy, len(self._held))
        out: list[int] = []
        while self.next_to_release in self._held:
            self._held.discard(self.next_to_release)
            out.append(self.next_to_release)
            self.next_to_release += 1
            self.released += 1
        return out

    @property
    def occupancy(self) -> int:
        return len(self._held)


# --------------------------------------------------------------------------- #
# the reference loop
# --------------------------------------------------------------------------- #
class ReferenceSimulator(StreamSimulator):
    """:class:`StreamSimulator` with the reference loop in place of the fast one."""

    def run(self, horizon: float = 50.0, *, max_datasets: int | None = None) -> SimulationReport:
        pool, arrival_times = self._build_pool()
        router = RecipeRouter(self.allocation.split)
        reorder = ReorderBuffer()
        queue = EventQueue()
        recipes = self.problem.application.recipes()

        datasets: dict[int, DataSetInstance] = {}
        peak_in_flight = 0
        latencies: list[float] = []
        completions: list[tuple[float, float]] = []
        arrivals = 0

        first_arrival = self._first_arrival(arrival_times)
        if first_arrival <= horizon:
            queue.push(first_arrival, EventKind.ARRIVAL, 0)
        while queue:
            event = queue.pop()
            now = event.time
            if now > horizon:
                break
            if event.kind == EventKind.ARRIVAL:
                dataset_id = event.arg
                if max_datasets is not None and dataset_id >= max_datasets:
                    continue
                recipe_index = router.route()
                dataset = DataSetInstance(dataset_id, recipe_index, recipes[recipe_index], now)
                datasets[dataset_id] = dataset
                arrivals += 1
                peak_in_flight = max(peak_in_flight, len(datasets))
                for task_id in dataset.initial_tasks():
                    self._dispatch(pool, queue, dataset, task_id, now)
                next_time = next(arrival_times)
                if next_time < now:
                    raise SimulationError(
                        f"arrival process {self.scenario.arrival.kind!r} went backwards "
                        f"({next_time} after {now})"
                    )
                if next_time <= horizon:
                    queue.push(next_time, EventKind.ARRIVAL, dataset_id + 1)
            elif event.kind == EventKind.TASK_COMPLETE:
                instance = event.arg
                finished = finish_current(instance, now)
                dataset = datasets[finished.dataset_id]
                for ready in dataset.complete_task(finished.task_id, now):
                    self._dispatch(pool, queue, dataset, ready, now)
                if dataset.is_complete:
                    latency = dataset.latency
                    if latency is None:
                        # recording 0.0 here would silently poison mean_latency
                        raise SimulationError(
                            f"data set {dataset.dataset_id} completed at t={now} "
                            "without a completion timestamp"
                        )
                    latencies.append(latency)
                    completions.append((dataset.arrival_time, now))
                    reorder.complete(dataset.dataset_id)
                    del datasets[dataset.dataset_id]
                self._start_or_wake(queue, instance, now)
            elif event.kind == EventKind.RESUME:
                instance = event.arg
                instance.wake_at = None
                self._start_or_wake(queue, instance, now)
            else:
                raise SimulationError(f"unknown event kind {event.kind!r}")

        recipe_mix = tuple(float(x) for x in router.mix())
        return self._report(
            horizon, arrivals, latencies, completions, pool, reorder.peak_occupancy,
            recipe_mix, len(datasets), peak_in_flight,
        )

    def _dispatch(self, pool, queue, dataset: DataSetInstance, task_id: int, now: float) -> None:
        """Send a ready task to the least-loaded available instance of its type."""
        task = dataset.recipe.task(task_id)
        instance = pool.select_instance(task.task_type, now)
        dataset.mark_started(task_id)
        enqueue(instance, PendingTask(dataset.dataset_id, task_id, task.work))
        self._start_or_wake(queue, instance, now)

    def _start_or_wake(self, queue: EventQueue, instance: ProcessorInstance, now: float) -> None:
        """Start the instance's next task, or schedule one wake-up at its window's end.

        ``wake_at`` dedupes: several dispatches during one window schedule a
        single ``RESUME``.
        """
        started = start_next(instance, now)
        if started is not None:
            queue.push(started[1], EventKind.TASK_COMPLETE, instance)
            return
        if instance.current is None and instance.queue:
            wake = instance.next_available(now)
            if wake > now and instance.wake_at != wake:
                instance.wake_at = wake
                queue.push(wake, EventKind.RESUME, instance)
