"""Tests for the discrete-event engine and the allocation validation helpers."""

import math

import pytest

from repro.core import Allocation, MinCostProblem, SimulationError, ThroughputSplit
from repro.simulation import (
    SimulationReport,
    StreamSimulator,
    simulate_allocation,
    static_check,
    validate_allocation,
)
from repro.solvers import MilpSolver


class TestStreamSimulator:
    def test_optimal_allocation_sustains_target(self, illustrating_problem_70):
        allocation = MilpSolver().solve(illustrating_problem_70).allocation
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=20.0)
        assert report.sustains_target(tolerance=0.05)
        assert report.arrivals >= report.completed
        assert report.completed > 0
        assert 0 < report.mean_latency <= report.max_latency

    def test_recipe_mix_follows_split(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        assert report.recipe_mix[0] == pytest.approx(10 / 70, abs=0.02)
        assert report.recipe_mix[1] == pytest.approx(30 / 70, abs=0.02)

    def test_utilization_bounded_by_one(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        assert all(0 <= u <= 1 for u in report.utilization.values())

    def test_overprovisioned_platform_has_low_utilization(self, illustrating_problem_70):
        generous = illustrating_problem_70.allocation_for([10, 30, 30])
        doubled = Allocation(
            split=generous.split,
            machines={t: 2 * c for t, c in generous.machines.items()},
            cost=2 * generous.cost,
        )
        report = StreamSimulator(illustrating_problem_70, doubled).run(horizon=10.0)
        assert all(u <= 0.75 for u in report.utilization.values())
        assert report.sustains_target()

    def test_underprovisioned_allocation_detected(self, illustrating_problem_70):
        good = illustrating_problem_70.allocation_for([0, 0, 70])
        starved = Allocation(
            split=good.split,
            machines={**good.machines, 1: good.machines[1] - 2},
            cost=good.cost,
        )
        report = StreamSimulator(illustrating_problem_70, starved).run(horizon=15.0)
        assert not report.sustains_target(tolerance=0.05)
        assert report.backlog > 0

    def test_max_datasets_limits_arrivals(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0, max_datasets=5)
        assert report.arrivals == 5

    def test_zero_split_rejected(self, illustrating_problem_70):
        empty = Allocation(split=ThroughputSplit.zeros(3), machines={}, cost=0)
        with pytest.raises(SimulationError):
            StreamSimulator(illustrating_problem_70, empty)

    def test_invalid_horizon_rejected(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        with pytest.raises(SimulationError):
            StreamSimulator(illustrating_problem_70, allocation).run(horizon=0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_horizon_and_rate_rejected(self, illustrating_problem_70, bad):
        # an infinite horizon never ends on the deterministic stream (every
        # n / rate <= inf); max_datasets bounds the run should one start
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        with pytest.raises(SimulationError, match="finite"):
            StreamSimulator(illustrating_problem_70, allocation).run(bad, max_datasets=5)
        with pytest.raises(SimulationError, match="finite"):
            StreamSimulator(illustrating_problem_70, allocation, arrival_rate=bad)

    def test_invalid_warmup_rejected(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        with pytest.raises(SimulationError):
            StreamSimulator(illustrating_problem_70, allocation, warmup_fraction=1.0)

    def test_report_summary_text(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=5.0)
        text = report.summary()
        assert "throughput" in text and "utilization" in text

    def test_max_datasets_cutoff_still_completes_in_flight_work(self, illustrating_problem_70):
        # arrivals stop at the cutoff but the already-injected data sets are
        # drained normally — the campaign uses this to bound simulation size
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(
            horizon=50.0, max_datasets=5
        )
        assert report.arrivals == 5
        assert report.completed == 5
        assert report.backlog == 0

    def test_warmup_window_excluded_from_throughput(self, illustrating_problem_70):
        # with a 50 % warm-up only completions in [h/2, h] count, over a
        # window of h/2 — the measured rate stays near the target either way
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        simulator = StreamSimulator(illustrating_problem_70, allocation, warmup_fraction=0.5)
        report = simulator.run(horizon=20.0)
        assert report.warmup == 10.0
        assert report.achieved_throughput == pytest.approx(70, rel=0.1)
        # zero-warm-up accounting covers the whole horizon
        cold = StreamSimulator(illustrating_problem_70, allocation, warmup_fraction=0.0)
        full = cold.run(horizon=20.0)
        assert full.warmup == 0.0
        assert full.completed >= report.completed

    def test_backlog_counts_only_in_flight_datasets(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        assert report.backlog == report.arrivals - report.completed

    def test_long_horizon_memory_stays_bounded(self, illustrating_problem_70):
        # completed data sets are evicted on release: thousands of arrivals,
        # but only the in-flight few are ever held at once
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=100.0)
        assert report.arrivals > 5000
        peak = report.metadata["peak_in_flight"]
        assert peak < 100  # a small multiple of the pipeline depth, not O(arrivals)
        assert report.backlog <= peak

    def test_long_horizon_arrival_count_is_drift_free(self, illustrating_problem_70):
        # arrival n is scheduled at exactly n / rate (computed by index):
        # accumulating `now += 1/rate` loses the final arrival to float error
        # once the sum drifts past the horizon (1/3 and 1/7 both drift)
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        for rate, horizon in ((3.0, 100.0), (7.0, 200.0)):
            report = StreamSimulator(
                illustrating_problem_70, allocation, arrival_rate=rate
            ).run(horizon=horizon)
            assert report.arrivals == math.floor(horizon * rate) + 1, (rate, horizon)

    def test_achieved_throughput_cannot_exceed_window_arrivals(self, illustrating_problem_70):
        # the warm-up fix: only data sets arriving after the warm-up count, so
        # the measured rate is capped by what actually arrived in the window
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(
            illustrating_problem_70, allocation, warmup_fraction=0.25
        ).run(horizon=12.0)
        window = report.horizon - report.warmup
        cap = window * report.target_throughput + 1  # +1: the boundary arrival
        assert report.achieved_throughput * window <= cap
        assert report.window_throughput >= report.achieved_throughput

    def test_reorder_peak_matches_out_of_order_depth(self, illustrating_problem_70):
        # the engine's peak covers every data set held for an earlier one
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = StreamSimulator(illustrating_problem_70, allocation).run(horizon=10.0)
        assert report.reorder_buffer_peak >= 1
        assert report.reorder_buffer_peak <= report.completed


class TestValidationHelpers:
    def test_static_check_agrees_with_problem(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        assert static_check(illustrating_problem_70, allocation)

    def test_validate_allocation_full_pipeline(self, illustrating_problem_70):
        allocation = MilpSolver().solve(illustrating_problem_70).allocation
        validation = validate_allocation(illustrating_problem_70, allocation, horizon=15.0)
        assert validation.valid
        assert validation.report is not None

    def test_validate_statically_infeasible_skips_simulation(self, illustrating_problem_70):
        bad = Allocation(split=ThroughputSplit.from_sequence([0, 0, 70]), machines={}, cost=0)
        validation = validate_allocation(illustrating_problem_70, bad)
        assert not validation.valid
        assert validation.report is None

    def test_simulate_allocation_wrapper(self, illustrating_problem_70):
        allocation = illustrating_problem_70.allocation_for([10, 30, 30])
        report = simulate_allocation(illustrating_problem_70, allocation, horizon=5.0)
        assert isinstance(report, SimulationReport)

    def test_latency_stats_empty(self):
        assert SimulationReport.latency_stats([]) == (0.0, 0.0)

    def test_every_solver_allocation_survives_simulation(self, illustrating_problem_70):
        from repro import create_solver

        for name in ("ILP", "H1", "H2", "H32Jump"):
            solver = create_solver(name, seed=3) if name in ("H2", "H32Jump") else create_solver(name)
            allocation = solver.solve(illustrating_problem_70).allocation
            validation = validate_allocation(illustrating_problem_70, allocation, horizon=10.0)
            assert validation.valid, name
