"""Library engine/reference oracle equivalence and hot-path regression tests.

The library's inlined loop is only allowed to exist because it is
*byte-identical* to the reference loop in ``oracle.py``: both push events in
the same order, so every report field matches exactly — which is what keeps
validation records identical to pre-optimization checkpoints.  These tests pin
that contract across the scenario matrix (stochastic arrivals, slowdowns,
seeded failure windows, ``max_datasets`` caps) and the selection-strategy
boundary (direct walk for small instance groups, lazy heap for groups of
``HEAP_MIN_GROUP`` and up).
"""

import pytest
from oracle import (
    DataSetInstance,
    EventKind,
    EventQueue,
    PendingTask,
    ReferenceSimulator,
    enqueue,
)

from repro.core import (
    Allocation,
    Application,
    CloudPlatform,
    MinCostProblem,
    RecipeGraph,
    SimulationError,
    ThroughputSplit,
)
from repro.simulation import (
    BatchArrivals,
    BurstyArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
    StreamSimulator,
)
from repro.simulation.processor import HEAP_MIN_GROUP, ProcessorPool

SCENARIOS = [
    ScenarioSpec(),
    ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
    ScenarioSpec(name="batch", arrival=BatchArrivals(size=3)),
    ScenarioSpec(
        name="bursty+degraded",
        arrival=BurstyArrivals(on=1.0, off=2.0),
        slowdowns=((1, 0.8),),
        failures=(FailureWindow(1, 1.0, 2.0), FailureWindow(2, 4.0, 1.0)),
    ),
    ScenarioSpec(
        name="failheavy",
        arrival=PoissonArrivals(),
        failures=(
            FailureWindow(1, 0.5, 3.0, count=2),
            FailureWindow(2, 2.0, 5.0),
            FailureWindow(1, 6.0, 1.0),
        ),
    ),
]


def _comparable(report):
    """The report with the library engine's diagnostic counters stripped.

    ``metadata["event_counters"]`` is instrumentation of the library's event
    core (the oracle doesn't carry it), so equivalence compares everything
    *except* that key — which also documents that the counters are diagnostic
    metadata, never record content.
    """
    from dataclasses import replace

    metadata = {k: v for k, v in report.metadata.items() if k != "event_counters"}
    return replace(report, metadata=metadata)


def _both(problem, allocation, *, scenario, seed, horizon, max_datasets=None, **kw):
    reports = []
    for engine in (StreamSimulator, ReferenceSimulator):
        sim = engine(problem, allocation, scenario=scenario, seed=seed, **kw)
        reports.append(_comparable(sim.run(horizon=horizon, max_datasets=max_datasets)))
    return reports


class TestEngineEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_reports_identical_across_scenarios(
        self, illustrating_problem_70, scenario, seed
    ):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        fast, reference = _both(
            illustrating_problem_70, allocation,
            scenario=scenario, seed=seed, horizon=8.0,
        )
        assert fast == reference

    def test_identical_under_max_datasets_cap(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        fast, reference = _both(
            illustrating_problem_70, allocation,
            scenario=SCENARIOS[3], seed=5, horizon=10.0, max_datasets=40,
        )
        assert fast == reference

    def test_identical_under_rate_stress_and_warmup(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        fast, reference = _both(
            illustrating_problem_70, allocation,
            scenario=SCENARIOS[4], seed=2, horizon=9.0,
            arrival_rate=70 * 1.05, warmup_fraction=0.2,
        )
        assert fast == reference

    def test_identical_with_heap_indexed_group(self):
        """A type group at/above HEAP_MIN_GROUP exercises the lazy-heap arm."""
        recipe = RecipeGraph.from_type_sequence([1, 1, 2], name="wide")
        platform = CloudPlatform.from_table([(1, 1.0, 2.0), (2, 2.0, 5.0)])
        problem = MinCostProblem(Application([recipe]), platform, target_throughput=8)
        machines = {1: HEAP_MIN_GROUP + 3, 2: 4}
        allocation = Allocation(
            split=ThroughputSplit.from_sequence([8.0]), machines=machines, cost=0.0
        )
        scenario = ScenarioSpec(
            name="wide+fail",
            arrival=PoissonArrivals(),
            failures=(FailureWindow(1, 1.0, 2.0, count=3),),
        )
        for seed in (0, 7):
            fast, reference = _both(
                problem, allocation, scenario=scenario, seed=seed, horizon=12.0
            )
            assert fast == reference


class TestEventCounters:
    def test_engine_reports_event_core_counters(self, illustrating_problem_70):
        """The library engine publishes heappush/heappop/dispatch-scan totals
        in report metadata — the numbers the ROADMAP's calendar-queue question
        needs — while the oracle stays counter-free."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        sim = StreamSimulator(
            illustrating_problem_70, allocation, scenario=SCENARIOS[3], seed=1
        )
        report = sim.run(horizon=8.0)
        counters = report.metadata["event_counters"]
        assert set(counters) == {"heappush", "heappop", "dispatch_scan"}
        assert counters["heappush"] >= counters["heappop"] > 0
        assert counters["dispatch_scan"] > 0

        reference = ReferenceSimulator(
            illustrating_problem_70, allocation, scenario=SCENARIOS[3], seed=1
        ).run(horizon=8.0)
        assert "event_counters" not in reference.metadata


class TestWakeDedupe:
    def test_repeated_dispatches_schedule_one_resume(self, illustrating_problem_70):
        """Several dispatches inside one failure window must not pile up
        RESUME events — ``wake_at`` dedupes to one wake-up per window end."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        pool = ProcessorPool(illustrating_problem_70.platform, allocation)
        instance = pool.instances_of(1)[0]
        instance.set_unavailable([(0.0, 5.0)])
        simulator = ReferenceSimulator(illustrating_problem_70, allocation)
        queue = EventQueue()
        for task_id in range(4):
            enqueue(instance, PendingTask(0, task_id, 1.0))
            simulator._start_or_wake(queue, instance, now=1.0)
        events = [queue.pop() for _ in range(len(queue))]
        resumes = [e for e in events if e.kind == EventKind.RESUME]
        assert len(resumes) == 1
        assert resumes[0].time == 5.0
        assert instance.wake_at == 5.0

    def test_fast_and_reference_agree_on_wake_heavy_scenario(
        self, illustrating_problem_70
    ):
        """End-to-end: a window over the busiest type forces queued work to
        wake exactly once per instance, identically in the engine and the oracle."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        scenario = ScenarioSpec(
            name="stall",
            failures=(FailureWindow(1, 0.0, 3.0, count=99), FailureWindow(1, 4.0, 1.0)),
        )
        fast, reference = _both(
            illustrating_problem_70, allocation, scenario=scenario, seed=0, horizon=8.0
        )
        assert fast == reference


class TestHotPathRegressions:
    def test_missing_completion_timestamp_raises(self, illustrating_problem_70):
        """A data set finishing without a completion stamp must raise, not
        silently record latency 0.0 (which poisons mean_latency)."""
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        original = DataSetInstance.complete_task

        def no_stamp(self, task_id, time):
            newly_ready = original(self, task_id, time)
            self.completion_time = None
            return newly_ready

        simulator = ReferenceSimulator(illustrating_problem_70, allocation)
        try:
            DataSetInstance.complete_task = no_stamp
            with pytest.raises(SimulationError, match="without a completion timestamp"):
                simulator.run(horizon=5.0)
        finally:
            DataSetInstance.complete_task = original

    def test_negative_first_arrival_rejected_at_schedule_boundary(
        self, illustrating_problem_70
    ):
        """Event times are validated at the schedule boundary, not per push:
        a misbehaving arrival process is caught at the first draw."""

        class NegativeArrivals(PoissonArrivals):
            def times(self, rate, rng):
                yield -1.0
                yield from super().times(rate, rng)

        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        for engine in (StreamSimulator, ReferenceSimulator):
            simulator = engine(
                illustrating_problem_70,
                allocation,
                scenario=ScenarioSpec(name="neg", arrival=NegativeArrivals()),
            )
            with pytest.raises(SimulationError, match="negative"):
                simulator.run(horizon=5.0)

    def test_engine_option_is_gone(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        with pytest.raises(TypeError, match="engine"):
            StreamSimulator(illustrating_problem_70, allocation, engine="reference")
