"""Tests for the processor instances and pool of the stream simulator.

The engine's loop drives instance service inline; the tests drive it through
the reference oracle's ``enqueue`` / ``start_next`` / ``finish_current``.
"""

import pytest
from oracle import PendingTask, enqueue, finish_current, start_next

from repro.core import Allocation, SimulationError
from repro.simulation import ProcessorInstance, ProcessorPool


class TestProcessorInstance:
    def test_fifo_processing(self):
        instance = ProcessorInstance(0, 1, throughput=1.0)
        enqueue(instance, PendingTask(0, 0, 1.0))
        enqueue(instance, PendingTask(1, 0, 1.0))
        task, done = start_next(instance, 0.0)
        assert task.dataset_id == 0 and done == 1.0
        assert start_next(instance, 0.0) is None  # busy
        finished = finish_current(instance, 1.0)
        assert finished.dataset_id == 0
        task, done = start_next(instance, 1.0)
        assert task.dataset_id == 1 and done == 2.0

    def test_finish_without_current_rejected(self):
        with pytest.raises(SimulationError):
            finish_current(ProcessorInstance(0, 1, 1.0), 0.0)

    def test_pending_work_and_utilization(self):
        instance = ProcessorInstance(0, 1, throughput=2.0)
        enqueue(instance, PendingTask(0, 0, 1.0))
        enqueue(instance, PendingTask(1, 0, 1.0))
        assert instance.pending_work == 2.0
        start_next(instance, 0.0)
        finish_current(instance, 0.5)
        assert instance.utilization(1.0) == 0.5

    def test_invalid_throughput_rejected(self):
        with pytest.raises(SimulationError):
            ProcessorInstance(0, 1, throughput=0)

    def test_utilization_truncates_task_cut_by_horizon(self):
        # a task started at t=0.5 that runs until t=2.5 only occupies the
        # instance for 0.5 of a 1.0 horizon — the overshoot must not count
        instance = ProcessorInstance(0, 1, throughput=1.0)
        enqueue(instance, PendingTask(0, 0, work=2.0))
        start_next(instance, 0.5)
        assert instance.busy_until == 2.5
        assert instance.utilization(1.0) == pytest.approx(0.5)
        # at a horizon past the completion the full service counts again
        assert instance.utilization(4.0) == pytest.approx(2.0 / 4.0)

    def test_pending_work_accumulator_matches_resummation(self):
        # pending_work is maintained incrementally (O(1) per dispatch, not a
        # re-sum of the deque); a randomized op sequence must keep it equal
        # to the explicit sum it replaced
        import numpy as np

        rng = np.random.default_rng(123)
        instance = ProcessorInstance(0, 1, throughput=2.0)
        now = 0.0

        def resummed():
            total = sum(task.work for task in instance.queue)
            if instance.current is not None:
                total += instance.current.work
            return total

        for step in range(500):
            action = rng.integers(0, 3)
            if action == 0:
                enqueue(instance, PendingTask(step, 0, float(rng.uniform(0.1, 3.0))))
            elif action == 1:
                started = start_next(instance, now)
                if started is not None:
                    now = started[1]
            elif instance.current is not None:
                finish_current(instance, now)
            assert instance.pending_work == pytest.approx(resummed(), abs=1e-9)
        # drain completely: the accumulator snaps back to exactly zero
        while instance.current is not None or instance.queue:
            if instance.current is None:
                now = start_next(instance, now)[1]
            finish_current(instance, now)
        assert instance.pending_work == 0.0

    def test_dispatch_order_unchanged_by_incremental_accumulator(
        self, illustrating_app, illustrating_cloud
    ):
        # the dispatch rule still ranks by (pending work, instance id)
        allocation = Allocation.from_split(illustrating_app, illustrating_cloud, [10, 30, 30])
        pool = ProcessorPool(illustrating_cloud, allocation)
        import numpy as np

        rng = np.random.default_rng(7)
        for step in range(200):
            expected = min(
                pool.instances_of(1), key=lambda inst: (inst.pending_work, inst.instance_id)
            )
            chosen = pool.select_instance(1)
            assert chosen is expected
            enqueue(chosen, PendingTask(step, 0, float(rng.uniform(0.5, 2.0))))
            if step % 3 == 0:
                start_next(chosen, float(step))
            if step % 5 == 0 and chosen.current is not None:
                finish_current(chosen, float(step))

    def test_availability_windows(self):
        instance = ProcessorInstance(0, 1, throughput=1.0)
        instance.set_unavailable([(4.0, 6.0), (1.0, 2.0), (5.0, 7.0)])
        # merged + sorted: [(1, 2), (4, 7)]
        assert instance.unavailable == ((1.0, 2.0), (4.0, 7.0))
        assert instance.available_at(0.5) and not instance.available_at(1.0)
        assert instance.available_at(2.0)  # window end is exclusive
        assert not instance.available_at(5.5)
        assert instance.next_available(0.5) == 0.5
        assert instance.next_available(1.5) == 2.0
        assert instance.next_available(4.0) == 7.0

    def test_start_next_refuses_inside_failure_window(self):
        instance = ProcessorInstance(0, 1, throughput=1.0)
        instance.set_unavailable([(1.0, 3.0)])
        enqueue(instance, PendingTask(0, 0, 1.0))
        assert start_next(instance, 2.0) is None
        task, done = start_next(instance, 3.0)
        assert task.dataset_id == 0 and done == 4.0

    def test_utilization_exact_at_full_load(self):
        # back-to-back unit tasks ending exactly at the horizon: 100 % busy,
        # not the >100 % the pre-truncation accounting could report
        instance = ProcessorInstance(0, 1, throughput=1.0)
        now = 0.0
        for i in range(3):
            enqueue(instance, PendingTask(i, 0, work=1.0))
        for _ in range(3):
            _task, done = start_next(instance, now)
            finish_current(instance, done)
            now = done
        assert instance.utilization(3.0) == pytest.approx(1.0)


class TestProcessorPool:
    def build_pool(self, illustrating_app, illustrating_cloud) -> ProcessorPool:
        allocation = Allocation.from_split(illustrating_app, illustrating_cloud, [10, 30, 30])
        return ProcessorPool(illustrating_cloud, allocation)

    def test_instance_counts_match_allocation(self, illustrating_app, illustrating_cloud):
        pool = self.build_pool(illustrating_app, illustrating_cloud)
        assert pool.num_instances == 7
        assert len(pool.instances_of(1)) == 3
        assert len(pool.instances_of(4)) == 1
        assert pool.has_type(2) and not pool.has_type(99)

    def test_select_instance_prefers_least_loaded(self, illustrating_app, illustrating_cloud):
        pool = self.build_pool(illustrating_app, illustrating_cloud)
        first = pool.select_instance(1)
        enqueue(first, PendingTask(0, 0, 5.0))
        second = pool.select_instance(1)
        assert second is not first

    def test_select_unknown_type_rejected(self, illustrating_app, illustrating_cloud):
        pool = self.build_pool(illustrating_app, illustrating_cloud)
        with pytest.raises(SimulationError):
            pool.select_instance(99)

    def test_utilization_by_type_initially_zero(self, illustrating_app, illustrating_cloud):
        pool = self.build_pool(illustrating_app, illustrating_cloud)
        assert all(u == 0 for u in pool.utilization_by_type(10.0).values())

    def test_slowdown_scales_instance_throughput(self, illustrating_app, illustrating_cloud):
        allocation = Allocation.from_split(illustrating_app, illustrating_cloud, [10, 30, 30])
        pool = ProcessorPool(illustrating_cloud, allocation, slowdowns={1: 0.5, 99: 0.1})
        full = ProcessorPool(illustrating_cloud, allocation)
        for slowed, normal in zip(pool.instances_of(1), full.instances_of(1)):
            assert slowed.throughput == pytest.approx(0.5 * normal.throughput)
        # other types are untouched; unrented type 99 is ignored
        for slowed, normal in zip(pool.instances_of(2), full.instances_of(2)):
            assert slowed.throughput == normal.throughput

    def test_apply_failures_is_seeded_and_skips_unrented_types(
        self, illustrating_app, illustrating_cloud
    ):
        import numpy as np

        from repro.simulation import FailureWindow

        allocation = Allocation.from_split(illustrating_app, illustrating_cloud, [10, 30, 30])
        windows = (FailureWindow(1, 1.0, 2.0, count=2), FailureWindow(99, 0.0, 5.0))

        def failed_ids(seed):
            pool = self.build_pool(illustrating_app, illustrating_cloud)
            pool.apply_failures(windows, np.random.default_rng(seed))
            return [inst.instance_id for inst in pool.instances() if inst.unavailable]

        assert failed_ids(3) == failed_ids(3)
        assert len(failed_ids(3)) == 2
        type1_ids = {
            inst.instance_id
            for inst in self.build_pool(illustrating_app, illustrating_cloud).instances_of(1)
        }
        assert set(failed_ids(3)) <= type1_ids

    def test_select_instance_avoids_failed_instances(self, illustrating_app, illustrating_cloud):
        import numpy as np

        from repro.simulation import FailureWindow

        pool = self.build_pool(illustrating_app, illustrating_cloud)
        # take out all but one instance of type 1 during [0, 5)
        count = len(pool.instances_of(1))
        pool.apply_failures(
            (FailureWindow(1, 0.0, 5.0, count=count - 1),), np.random.default_rng(0)
        )
        healthy = [inst for inst in pool.instances_of(1) if not inst.unavailable]
        assert len(healthy) == 1
        assert pool.select_instance(1, 2.0) is healthy[0]
        # outside the window the normal least-loaded rule applies again
        enqueue(healthy[0], PendingTask(0, 0, 50.0))
        assert pool.select_instance(1, 6.0) is not healthy[0]
        # with every instance down, work still queues on the least loaded one
        pool2 = self.build_pool(illustrating_app, illustrating_cloud)
        pool2.apply_failures(
            (FailureWindow(1, 0.0, 5.0, count=99),), np.random.default_rng(0)
        )
        chosen = pool2.select_instance(1, 2.0)
        assert chosen in pool2.instances_of(1)
