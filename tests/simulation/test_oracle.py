"""Tests for the reference oracle's own parts: event queue, data-set
instances, recipe routing and the reorder buffer.

The equivalence suites compare the library engine against the oracle as a
whole; these pin the pieces, so a fault in the oracle cannot hide behind a
matching fault in the engine.
"""

import numpy as np
import pytest
from oracle import DataSetInstance, EventKind, EventQueue, RecipeRouter, ReorderBuffer

from repro.core import RecipeGraph, SimulationError, Task, ThroughputSplit


def diamond_recipe() -> RecipeGraph:
    recipe = RecipeGraph(name="diamond")
    for i, t in enumerate([1, 2, 3, 4]):
        recipe.add_task(Task(i, t))
    recipe.add_edge(0, 1)
    recipe.add_edge(0, 2)
    recipe.add_edge(1, 3)
    recipe.add_edge(2, 3)
    return recipe


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.ARRIVAL, 1)
        queue.push(1.0, EventKind.ARRIVAL, 0)
        queue.push(3.0, EventKind.TASK_COMPLETE)
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_many_way_ties_pop_in_push_order(self):
        queue = EventQueue()
        for tag in range(20):
            queue.push(1.0, EventKind.TASK_COMPLETE, tag)
        # interleave an earlier and later event: ordering is (time, sequence)
        queue.push(0.5, EventKind.ARRIVAL, "early")
        queue.push(2.0, EventKind.ARRIVAL, "late")
        assert queue.pop().arg == "early"
        assert [queue.pop().arg for _ in range(20)] == list(range(20))
        assert queue.pop().arg == "late"

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestDataSetInstance:
    def test_initial_tasks_are_sources(self):
        dataset = DataSetInstance(0, 0, diamond_recipe(), arrival_time=0.0)
        assert dataset.initial_tasks() == [0]
        assert not dataset.is_complete

    def test_dependency_progression(self):
        dataset = DataSetInstance(0, 0, diamond_recipe(), arrival_time=0.0)
        dataset.mark_started(0)
        ready = dataset.complete_task(0, 1.0)
        assert set(ready) == {1, 2}
        dataset.mark_started(1)
        dataset.mark_started(2)
        assert dataset.complete_task(1, 2.0) == []  # task 3 still waits for 2
        ready = dataset.complete_task(2, 3.0)
        assert ready == [3]
        dataset.mark_started(3)
        dataset.complete_task(3, 4.0)
        assert dataset.is_complete
        assert dataset.completion_time == 4.0
        assert dataset.latency == 4.0

    def test_double_completion_rejected(self):
        dataset = DataSetInstance(0, 0, diamond_recipe(), arrival_time=0.0)
        dataset.mark_started(0)
        dataset.complete_task(0, 1.0)
        with pytest.raises(SimulationError):
            dataset.complete_task(0, 2.0)

    def test_double_start_rejected(self):
        dataset = DataSetInstance(0, 0, diamond_recipe(), arrival_time=0.0)
        dataset.mark_started(0)
        with pytest.raises(SimulationError):
            dataset.mark_started(0)

    def test_start_with_incomplete_predecessors_rejected(self):
        # task 1 depends on task 0: dispatching it before 0 completes used to
        # be accepted silently, corrupting the predecessor bookkeeping
        dataset = DataSetInstance(0, 0, diamond_recipe(), arrival_time=0.0)
        with pytest.raises(SimulationError, match="incomplete predecessor"):
            dataset.mark_started(1)
        # the sink (two predecessors) is rejected even after one completes
        dataset.mark_started(0)
        dataset.complete_task(0, 1.0)
        dataset.mark_started(1)
        dataset.complete_task(1, 2.0)
        with pytest.raises(SimulationError, match="incomplete predecessor"):
            dataset.mark_started(3)

    def test_latency_none_until_complete(self):
        dataset = DataSetInstance(0, 0, diamond_recipe(), arrival_time=1.0)
        assert dataset.latency is None


class TestRecipeRouter:
    def test_proportional_routing(self):
        router = RecipeRouter(ThroughputSplit.from_sequence([10, 30, 0]))
        counts = np.zeros(3, dtype=int)
        for _ in range(40):
            counts[router.route()] += 1
        assert counts[2] == 0
        assert counts[0] == 10 and counts[1] == 30
        assert np.allclose(router.mix(), [0.25, 0.75, 0.0])

    def test_single_active_recipe(self):
        router = RecipeRouter(ThroughputSplit.from_sequence([0, 5]))
        assert all(router.route() == 1 for _ in range(10))

    def test_all_zero_split_rejected(self):
        with pytest.raises(SimulationError):
            RecipeRouter(ThroughputSplit.from_sequence([0, 0]))

    def test_mix_before_any_routing(self):
        router = RecipeRouter(ThroughputSplit.from_sequence([1, 1]))
        assert np.allclose(router.mix(), [0, 0])


class TestReorderBuffer:
    def test_in_order_completions_release_immediately(self):
        buffer = ReorderBuffer()
        assert buffer.complete(0) == [0]
        assert buffer.complete(1) == [1]
        assert buffer.peak_occupancy == 1
        assert buffer.released == 2

    def test_out_of_order_completions_are_held(self):
        buffer = ReorderBuffer()
        assert buffer.complete(2) == []
        assert buffer.complete(1) == []
        assert buffer.occupancy == 2
        assert buffer.complete(0) == [0, 1, 2]
        assert buffer.peak_occupancy == 3
        assert buffer.occupancy == 0

    def test_releases_in_arrival_order(self):
        buffer = ReorderBuffer()
        released: list[int] = []
        # completions arrive shuffled; releases must come out 0,1,2,...
        for dataset_id in (2, 0, 1, 4, 5, 3):
            released.extend(buffer.complete(dataset_id))
        assert released == [0, 1, 2, 3, 4, 5]
        assert buffer.occupancy == 0
        assert buffer.released == 6
        assert buffer.peak_occupancy == 3  # {3, 4, 5} held while waiting for 3

    def test_duplicate_completion_rejected(self):
        buffer = ReorderBuffer()
        buffer.complete(0)
        with pytest.raises(SimulationError):
            buffer.complete(0)

    def test_duplicate_completion_of_held_dataset_rejected(self):
        # the duplicate is still in the buffer (not yet released): the id is
        # not below next_to_release, so the held-set check must catch it
        buffer = ReorderBuffer()
        buffer.complete(2)
        with pytest.raises(SimulationError):
            buffer.complete(2)
        assert buffer.occupancy == 1  # the failed call must not corrupt state

    def test_completion_below_release_cursor_rejected(self):
        buffer = ReorderBuffer()
        for dataset_id in (1, 0, 2):
            buffer.complete(dataset_id)
        assert buffer.next_to_release == 3
        for stale in (0, 1, 2):
            with pytest.raises(SimulationError):
                buffer.complete(stale)
        # and the buffer keeps releasing correctly afterwards
        assert buffer.complete(3) == [3]
