"""Processor instances: the rented virtual machines of the simulated platform.

Each :class:`ProcessorInstance` models one rented machine of a given type:
it serves tasks of that type one at a time, FIFO, at the type's steady-state
rate ``r_q`` (a task of work ``w`` takes ``w / r_q`` time units).  A
:class:`ProcessorPool` groups all instances of the allocation and implements
the dispatch rule used by the engine: a ready task goes to the instance of its
type with the least pending work (join-the-shortest-queue in work units).

The pool holds the state; the engine's hot loop mutates it directly (queues,
pending work, service start and completion).  Types renting at least
:data:`HEAP_MIN_GROUP` instances get a lazily-invalidated selection heap keyed
on ``(pending_work, instance_id)``: the loop pushes an instance's new key each
time its pending work changes, and discards a top entry whose recorded key no
longer matches the instance's current pending work.  Because the key includes
the unique instance id, the heap top is exactly the instance the linear
least-loaded scan would choose.  Small groups — the common case, where a
direct walk over the instances is cheaper than heap maintenance — are walked
directly, and any selection inside an open failure window (the availability
filter must inspect every candidate) runs :meth:`ProcessorPool.select_instance`,
the linear scan.

Scenario injection (:mod:`repro.simulation.scenarios`) hooks in at two points:
per-type *slowdown* factors scale the instance service rates at pool
construction, and seeded transient *failure windows* mark instances
unavailable — an unavailable instance accepts no new dispatch (unless every
instance of the type is down, in which case work queues on the least-loaded
one) and starts no queued task until the window ends.  Each instance carries
``guard_until`` (the end of its last own window) and the pool tracks the same
bound per type, so availability checks cost one float comparison for the
unaffected majority of dispatches.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Mapping, Sequence

import numpy as np

from ..core.allocation import Allocation
from ..core.exceptions import SimulationError
from ..core.platform import CloudPlatform
from ..core.task import TaskType
from .scenarios import FailureWindow

__all__ = ["HEAP_MIN_GROUP", "ProcessorInstance", "ProcessorPool"]

#: Smallest per-type instance count for which the heap index is built.  Below
#: this a direct least-loaded walk is faster than heap maintenance (two key
#: pushes plus amortised stale pops per served task); the break-even sits
#: around eight instances for CPython's heapq.
HEAP_MIN_GROUP = 9


class ProcessorInstance:
    """One rented machine of a given processor type."""

    __slots__ = (
        "instance_id",
        "type_id",
        "throughput",
        "queue",
        "current",
        "busy_until",
        "busy_time",
        "_pending_work",
        "unavailable",
        "guard_until",
        "wake_at",
        "_heap",
    )

    def __init__(self, instance_id: int, type_id: TaskType, throughput: float) -> None:
        if throughput <= 0:
            raise SimulationError(f"instance throughput must be positive, got {throughput}")
        self.instance_id = instance_id
        self.type_id = type_id
        self.throughput = float(throughput)
        # queued and in-service tasks are bare (dataset_id, task_id, work) tuples
        self.queue: Deque[tuple[int, int, float]] = deque()
        self.current: tuple[int, int, float] | None = None
        self.busy_until: float = 0.0
        self.busy_time: float = 0.0
        # incremental accumulator behind the pending_work property: the
        # dispatch rule reads it on every ready task, so it must be O(1),
        # not a re-sum of the whole queue
        self._pending_work: float = 0.0
        # merged, sorted (start, end) unavailability windows (failure injection)
        self.unavailable: tuple[tuple[float, float], ...] = ()
        # end of the instance's last window: before this time availability
        # must be checked, after it the instance is always available — one
        # float comparison replaces the window walk for unaffected instances
        self.guard_until: float = 0.0
        # pending wake-up the engine scheduled for the end of a window
        # (dedupes RESUME events; None = nothing scheduled)
        self.wake_at: float | None = None
        # the owning pool's selection heap when the instance's type group is
        # heap-indexed (None for small groups and standalone instances); the
        # engine pushes the updated (pending_work, id) key on every change
        self._heap: list | None = None

    # ------------------------------------------------------------------ #
    @property
    def pending_work(self) -> float:
        """Work units queued on this instance (including the task in service).

        The engine maintains it incrementally on dispatch and completion —
        summing the deque here would make every dispatch O(queue length).
        The accumulator snaps back to exactly ``0.0`` whenever the instance
        drains, so float cancellation error cannot build up across a long
        simulation.
        """
        return self._pending_work

    # -- availability (failure windows) --------------------------------- #
    def set_unavailable(self, windows: Iterable[tuple[float, float]]) -> None:
        """Install the instance's unavailability windows (merged, sorted)."""
        merged = _merge_windows(windows)
        self.unavailable = merged
        self.guard_until = merged[-1][1] if merged else 0.0

    def available_at(self, now: float) -> bool:
        """True when no failure window covers ``now``."""
        for start, end in self.unavailable:
            if start > now:
                break
            if now < end:
                return False
        return True

    def next_available(self, now: float) -> float:
        """Earliest time ``>= now`` at which the instance is available."""
        at = now
        for start, end in self.unavailable:
            if start > at:
                break
            if at < end:
                at = end
        return at

    def utilization(self, horizon: float) -> float:
        """Fraction of the horizon this instance spent serving tasks.

        ``busy_time`` accrues the full service duration when a task starts, so
        a task still in service at the horizon would overstate the busy
        fraction; the overshoot past the horizon is truncated before dividing.
        (Completion events at or before the horizon reset ``busy_until`` no
        later than the horizon, so a positive overshoot can only come from the
        task cut by the end of the simulation.)
        """
        if horizon <= 0:
            return 0.0
        busy = self.busy_time - max(0.0, self.busy_until - horizon)
        return min(1.0, max(0.0, busy) / horizon)


def _merge_windows(windows: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort (start, end) intervals and merge overlapping/adjacent ones."""
    ordered = sorted((float(start), float(end)) for start, end in windows)
    merged: list[tuple[float, float]] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


class ProcessorPool:
    """All rented instances of an allocation, indexed by type.

    ``slowdowns`` maps a type to a service-rate factor (``0.5`` = half speed);
    types not in the mapping run at the platform rate.  Factors for types the
    allocation does not rent are ignored — a scenario is shared by
    allocations with different machine mixes.
    """

    def __init__(
        self,
        platform: CloudPlatform,
        allocation: Allocation,
        *,
        slowdowns: Mapping[TaskType, float] | None = None,
    ) -> None:
        self.platform = platform
        self._by_type: dict[TaskType, list[ProcessorInstance]] = {}
        # lazily-invalidated selection heaps the engine keeps, only for
        # heap-indexed groups (len >= HEAP_MIN_GROUP); small groups are walked
        self._heaps: dict[TaskType, list] = {}
        instance_id = 0
        for type_id, count in allocation.machines.items():
            rate = platform.throughput_of(type_id)
            if slowdowns is not None:
                rate *= float(slowdowns.get(type_id, 1.0))
            instances = []
            for _ in range(int(count)):
                instances.append(ProcessorInstance(instance_id, type_id, rate))
                instance_id += 1
            self._by_type[type_id] = instances
            if len(instances) >= HEAP_MIN_GROUP:
                # (0.0, increasing id): already a valid heap, no heapify needed
                heap = [(0.0, inst.instance_id, inst) for inst in instances]
                for inst in instances:
                    inst._heap = heap
                self._heaps[type_id] = heap
        self._all = [inst for group in self._by_type.values() for inst in group]
        # set by apply_failures; lets availability checks be skipped entirely
        # for failure-free scenarios (the common case)
        self._any_unavailable = False
        # per-type end of the last failure window: selections for a type past
        # its bound (or never affected, bound 0.0) need no availability filter
        self._type_guard: dict[TaskType, float] = {}

    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return len(self._all)

    def instances(self) -> list[ProcessorInstance]:
        return list(self._all)

    def instances_of(self, type_id: TaskType) -> list[ProcessorInstance]:
        return list(self._by_type.get(type_id, []))

    def has_type(self, type_id: TaskType) -> bool:
        return bool(self._by_type.get(type_id))

    def apply_failures(
        self, failures: Sequence[FailureWindow], rng: np.random.Generator
    ) -> None:
        """Install the scenario's transient failure windows on the pool.

        For each window, ``count`` instances of the type are drawn from
        ``rng`` (without replacement, capped at the type's instance count) —
        the seeded draw is what makes campaigns reproducible.  Windows naming
        a type the allocation does not rent are skipped without consuming
        randomness, so the assignment depends only on the windows that apply.
        """
        by_instance: dict[int, list[tuple[float, float]]] = {}
        for window in failures:
            instances = self._by_type.get(window.type_id)
            if not instances:
                continue
            count = min(window.count, len(instances))
            picked = sorted(rng.choice(len(instances), size=count, replace=False).tolist())
            for position in picked:
                instance = instances[position]
                by_instance.setdefault(instance.instance_id, []).append(
                    (window.start, window.end)
                )
        for instance in self._all:
            windows = by_instance.get(instance.instance_id)
            if windows:
                instance.set_unavailable(windows)
                self._any_unavailable = True
                guard = self._type_guard.get(instance.type_id, 0.0)
                self._type_guard[instance.type_id] = max(guard, instance.guard_until)

    def guard_until(self, type_id: TaskType) -> float:
        """End of the type's last failure window (0.0 when never affected)."""
        return self._type_guard.get(type_id, 0.0)

    def select_instance(self, type_id: TaskType, now: float | None = None) -> ProcessorInstance:
        """Dispatch rule: the instance of ``type_id`` with the least pending work.

        A linear scan, ties broken by the lower instance id.  With ``now``
        given, instances inside a failure window are excluded — unless every
        instance of the type is down, in which case the work queues on the
        least-loaded failed instance and starts when its window ends.
        """
        candidates = self._by_type.get(type_id)
        if not candidates:
            raise SimulationError(
                f"the allocation rents no machine of type {type_id!r} "
                "but a task of that type was dispatched"
            )
        if now is not None and self._any_unavailable:
            available = [inst for inst in candidates if inst.available_at(now)]
            if available:
                candidates = available
        return min(candidates, key=lambda inst: (inst._pending_work, inst.instance_id))

    def utilization_by_type(self, horizon: float) -> dict[TaskType, float]:
        """Mean utilization of the instances of each type."""
        result: dict[TaskType, float] = {}
        for type_id, instances in self._by_type.items():
            if instances:
                result[type_id] = sum(inst.utilization(horizon) for inst in instances) / len(instances)
        return result
