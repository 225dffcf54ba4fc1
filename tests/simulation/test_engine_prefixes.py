"""Property test: the reports one pass takes at shorter horizons.

``StreamSimulator.run(horizon, prefixes=...)`` runs the stream once, to
``horizon``, and snapshots a report each time the loop passes a prefix.  Each
of those reports must equal the report of a separate ``run(prefix)`` — of the
library engine and of the reference oracle — because the events up to a
horizon are the same events in the same ``(time, seq)`` order however far the
run goes on.  Validation campaigns rely on this to simulate every stream once
for all of a plan's horizons.
"""

from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import ReferenceSimulator

from repro.analysis.fluid import _critical_path_time
from repro.core import (
    Application,
    CloudPlatform,
    MinCostProblem,
    RecipeGraph,
    SimulationError,
)
from repro.simulation import (
    BatchArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
    StreamSimulator,
)

TYPES = (1, 2, 3)


@dataclass(frozen=True)
class DelayedArrivals(DeterministicArrivals):
    """The paper's stream shifted by ``delay``: nothing arrives before it."""

    delay: float = 1.0

    def times(self, rate, rng):
        for time in super().times(rate, rng):
            yield self.delay + time


def _comparable(report):
    """The report without the library engine's per-pass metadata."""
    metadata = {
        key: value
        for key, value in report.metadata.items()
        if key not in ("event_counters", "prefix_reports")
    }
    return replace(report, metadata=metadata)


@st.composite
def recipes(draw):
    num_tasks = draw(st.integers(1, 4))
    recipe = RecipeGraph()
    for _ in range(num_tasks):
        recipe.new_task(draw(st.sampled_from(TYPES)), work=draw(st.sampled_from((0.5, 1.0, 2.0))))
    for succ in range(1, num_tasks):
        for pred in range(succ):
            if draw(st.booleans()):
                recipe.add_edge(pred, succ)
    return recipe


@st.composite
def cases(draw):
    """A random (problem, allocation, scenario, seed, rate, horizons, cap) case."""
    platform = CloudPlatform.from_table(
        [(t, draw(st.sampled_from((1.0, 2.0, 3.5))), 1.0) for t in TYPES]
    )
    application = Application(draw(st.lists(recipes(), min_size=1, max_size=2)))
    split = [draw(st.integers(0, 4)) for _ in range(application.num_recipes)]
    split[draw(st.integers(0, len(split) - 1))] += 1
    problem = MinCostProblem(application, platform, target_throughput=float(sum(split)))
    allocation = problem.allocation_for([float(v) for v in split])
    rate = problem.target_throughput * draw(st.sampled_from((0.5, 1.0, 1.4)))

    kind = draw(st.sampled_from(("deterministic", "poisson", "bursty", "batch", "delayed")))
    arrival = {
        "deterministic": DeterministicArrivals(),
        "poisson": PoissonArrivals(),
        "bursty": BurstyArrivals(on=1.0, off=draw(st.sampled_from((0.5, 2.0)))),
        "batch": BatchArrivals(size=draw(st.integers(2, 4))),
        "delayed": DelayedArrivals(delay=draw(st.sampled_from((0.75, 2.5)))),
    }[kind]
    failures = tuple(
        FailureWindow(
            draw(st.sampled_from(TYPES)),
            draw(st.floats(0.0, 6.0)),
            draw(st.floats(0.1, 3.0)),
            count=draw(st.integers(1, 3)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    slowdowns = ((1, 0.7),) if draw(st.booleans()) else ()
    scenario = ScenarioSpec(name=kind, arrival=arrival, slowdowns=slowdowns, failures=failures)

    horizon = draw(st.floats(2.0, 8.0))
    stops = set(draw(st.lists(st.floats(0.01, 7.99), max_size=3)))
    if kind == "deterministic":
        # a horizon exactly on an arrival time (arrival k is at k / rate)
        stops.add(draw(st.integers(1, int(horizon * rate))) / rate)
    if kind == "delayed":
        stops.add(arrival.delay / 2)  # before the first arrival
    prefixes = sorted(stop for stop in stops if stop < horizon)
    max_datasets = draw(st.one_of(st.none(), st.integers(1, 25)))
    return problem, allocation, scenario, draw(st.integers(0, 50)), rate, horizon, prefixes, max_datasets


class TestPrefixReports:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(cases())
    def test_one_pass_equals_separate_runs(self, case):
        problem, allocation, scenario, seed, rate, horizon, prefixes, max_datasets = case

        def simulator(engine):
            return engine(
                problem, allocation, arrival_rate=rate, scenario=scenario, seed=seed
            )

        # no data set finishes faster than the quickest critical path among
        # the recipes it can be routed to, at the rates after slowdowns
        slowdowns = scenario.slowdown_map()
        rates = {
            t: problem.platform.throughput_of(t) * slowdowns.get(t, 1.0) for t in TYPES
        }
        shortest_path = min(
            _critical_path_time(recipe, rates)
            for recipe, weight in zip(problem.application.recipes(), allocation.split.values)
            if weight > 0
        )

        full = simulator(StreamSimulator).run(
            horizon, max_datasets=max_datasets, prefixes=prefixes
        )
        reports = [*full.metadata.get("prefix_reports", ()), full]
        assert [report.horizon for report in reports] == [*prefixes, horizon]
        assert "event_counters" in full.metadata
        for report in reports:
            for engine in (StreamSimulator, ReferenceSimulator):
                alone = simulator(engine).run(report.horizon, max_datasets=max_datasets)
                assert _comparable(report) == _comparable(alone)
            assert report.arrivals == report.completed + report.backlog
            assert all(0.0 <= value <= 1.0 for value in report.utilization.values())
            if report.completed > 0:
                assert report.mean_latency >= shortest_path * (1 - 1e-9)

    def test_prefix_reports_equal_oracle_runs(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        full = StreamSimulator(illustrating_problem_70, allocation).run(
            8.0, prefixes=(2.0, 5.0)
        )
        oracle = ReferenceSimulator(illustrating_problem_70, allocation)
        assert [
            _comparable(report) for report in (*full.metadata["prefix_reports"], full)
        ] == [_comparable(oracle.run(horizon)) for horizon in (2.0, 5.0, 8.0)]

    def test_single_horizon_run_carries_no_prefix_reports(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(5.0)
        assert "prefix_reports" not in report.metadata

    @pytest.mark.parametrize("prefixes", [(0.0,), (5.0,), (2.0, 6.0), (-1.0,)])
    def test_prefix_outside_the_run_rejected(self, illustrating_problem_70, prefixes):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        with pytest.raises(SimulationError, match="prefix horizons"):
            StreamSimulator(illustrating_problem_70, allocation).run(5.0, prefixes=prefixes)
