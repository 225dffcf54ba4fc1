"""Tests for the validation campaign subsystem (experiments.validation)."""

import json
from dataclasses import replace

import pytest

from repro.core import ConfigurationError
from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import default_plan
from repro.experiments.runner import AllocationPayload, RunRecord, SweepResult, run_plan
from repro.experiments.store import SweepStore, load_sweep_result
from repro.experiments.validation import (
    AllocationSource,
    CampaignResult,
    ValidationPlan,
    ValidationRecord,
    ValidationStore,
    ValidationUnit,
    backlog_series,
    latency_series,
    load_campaign,
    plan_from_sweep,
    plan_validation_units,
    reorder_peak_series,
    run_validation,
    scenario_seed,
    throughput_ratio_series,
    utilization_series,
    validation_fingerprint,
    validation_plan_from_dict,
    validation_plan_to_dict,
)
from repro.simulation import (
    DEFAULT_SCENARIO,
    BurstyArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
)


def small_plan(num_configurations=2, throughputs=(50, 100), algorithms=("ILP", "H1")):
    plan = default_plan(
        "small",
        num_configurations=num_configurations,
        target_throughputs=throughputs,
        iterations=100,
    )
    return replace(plan, algorithms=tuple(a for a in plan.algorithms if a.name in algorithms))


def record_lines(campaign: CampaignResult) -> list[str]:
    """Canonical JSONL serialisation of every record (the byte-identity probe)."""
    return [
        json.dumps(record.as_dict(), sort_keys=True, separators=(",", ":"))
        for record in campaign.records
    ]


@pytest.fixture(scope="module")
def captured_sweep() -> SweepResult:
    return run_plan(small_plan(), capture_allocations=True)


@pytest.fixture(scope="module")
def campaign_plan(captured_sweep) -> ValidationPlan:
    return plan_from_sweep(
        captured_sweep, horizons=(8.0,), rate_multipliers=(1.0, 1.05)
    )


@pytest.fixture(scope="module")
def serial_campaign(campaign_plan) -> CampaignResult:
    return run_validation(campaign_plan)


class TestAllocationPayload:
    def test_capture_attaches_round_trippable_payload(self, captured_sweep):
        record = captured_sweep.records[0]
        assert record.allocation is not None
        rebuilt = AllocationPayload.from_dict(record.allocation.as_dict())
        assert rebuilt == record.allocation
        allocation = rebuilt.to_allocation()
        assert allocation.cost == pytest.approx(record.cost)
        assert allocation.split.total >= record.rho - 1e-9

    def test_payload_survives_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path), capture_allocations=True)
        loaded = load_sweep_result(path)
        assert all(r.allocation is not None for r in loaded.records)
        direct = run_plan(small_plan(), capture_allocations=True)
        assert [r.allocation for r in loaded.records] == [r.allocation for r in direct.records]

    def test_record_without_payload_still_loads(self, tmp_path):
        # a pre-payload checkpoint line (no "allocation" key) must round-trip
        legacy = {
            "configuration": 0,
            "rho": 50.0,
            "algorithm": "ILP",
            "cost": 124.0,
            "time": 0.01,
            "optimal": True,
            "iterations": 3,
        }
        record = RunRecord.from_dict(legacy)
        assert record.allocation is None
        assert record.as_dict() == legacy  # and no key is invented on the way out

    def test_uncaptured_sweep_has_no_payloads(self):
        sweep = run_plan(small_plan(num_configurations=1, throughputs=(50,)))
        assert all(r.allocation is None for r in sweep.records)

    def test_identity_ignores_payload(self, captured_sweep):
        plain = run_plan(small_plan())
        assert [r.identity() for r in plain.records] == [
            r.identity() for r in captured_sweep.records
        ]


class TestPlanFromSweep:
    def test_one_source_per_record(self, captured_sweep, campaign_plan):
        assert len(campaign_plan.sources) == len(captured_sweep.records)
        assert campaign_plan.num_simulations == len(captured_sweep.records) * 2

    def test_algorithm_filter(self, captured_sweep):
        plan = plan_from_sweep(captured_sweep, algorithms=("ILP",))
        assert {source.algorithm for source in plan.sources} == {"ILP"}
        with pytest.raises(ConfigurationError, match="no records"):
            plan_from_sweep(captured_sweep, algorithms=("H99",))

    def test_invalid_parameters_rejected(self, captured_sweep):
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, horizons=())
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, horizons=(0.0,))
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, rate_multipliers=(-1.0,))
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, warmup_fraction=1.0)

    def test_plan_round_trips_through_dict(self, campaign_plan):
        rebuilt = validation_plan_from_dict(validation_plan_to_dict(campaign_plan))
        assert rebuilt == campaign_plan
        assert validation_fingerprint(rebuilt) == validation_fingerprint(campaign_plan)

    def test_fingerprint_sensitive_to_scenario_grid(self, captured_sweep, campaign_plan):
        other = plan_from_sweep(captured_sweep, horizons=(8.0,), rate_multipliers=(1.0,))
        assert validation_fingerprint(other) != validation_fingerprint(campaign_plan)


class TestUnits:
    def test_units_cover_the_grid(self, campaign_plan):
        units = plan_validation_units(campaign_plan)
        covered = {
            (unit.horizon, unit.rate_multiplier, source)
            for unit in units
            for source in unit.sources
        }
        expected = {
            (h, m, s)
            for h in campaign_plan.horizons
            for m in campaign_plan.rate_multipliers
            for s in range(len(campaign_plan.sources))
        }
        assert covered == expected
        assert [unit.index for unit in units] == list(range(len(units)))

    def test_default_chunking_groups_by_configuration(self, campaign_plan):
        units = plan_validation_units(campaign_plan)
        for unit in units:
            configurations = {
                campaign_plan.sources[s].configuration for s in unit.sources
            }
            assert len(configurations) == 1


class TestCampaignExecution:
    def test_parallel_byte_identical_to_serial(self, campaign_plan, serial_campaign):
        parallel = run_validation(campaign_plan, backend=ProcessPoolBackend(2))
        assert record_lines(parallel) == record_lines(serial_campaign)

    def test_chunked_byte_identical_to_serial(self, campaign_plan, serial_campaign):
        chunked = run_validation(campaign_plan, chunk_policy="cells:1")
        assert record_lines(chunked) == record_lines(serial_campaign)

    def test_resume_byte_identical_to_serial(self, tmp_path, campaign_plan, serial_campaign):
        class _Interrupt(Exception):
            pass

        path = tmp_path / "campaign.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            run_validation(campaign_plan, store=ValidationStore(path), progress=tripwire)
        with pytest.raises(ConfigurationError, match="incomplete campaign"):
            load_campaign(path)
        assert load_campaign(path, allow_partial=True).records
        resumed = run_validation(campaign_plan, store=ValidationStore(path), resume=True)
        assert record_lines(resumed) == record_lines(serial_campaign)
        assert record_lines(load_campaign(path)) == record_lines(serial_campaign)

    def test_payload_free_sources_are_re_solved(self, campaign_plan, serial_campaign):
        # deterministic algorithms (ILP, H1) re-solve to the same allocation,
        # so a campaign without payloads replays the same simulations
        stripped = replace(
            campaign_plan,
            sources=tuple(replace(s, payload=None) for s in campaign_plan.sources),
        )
        re_solved = run_validation(stripped)
        assert record_lines(re_solved) == record_lines(serial_campaign)

    def test_unknown_algorithm_in_source_rejected(self, campaign_plan):
        bad = replace(
            campaign_plan,
            sources=(
                replace(campaign_plan.sources[0], algorithm="H99", payload=None),
            ),
        )
        with pytest.raises(ConfigurationError, match="H99"):
            run_validation(bad)

    def test_resume_without_store_rejected(self, campaign_plan):
        with pytest.raises(ConfigurationError, match="requires a store"):
            run_validation(campaign_plan, resume=True)

    def test_adaptive_chunking_byte_identical_to_serial(
        self, campaign_plan, serial_campaign
    ):
        # fixed-span chunks and probe-sized adaptive chunks both tile the
        # canonical cell list, so record bytes cannot depend on the policy
        fixed = run_validation(campaign_plan, chunk_policy="cells:5")
        assert record_lines(fixed) == record_lines(serial_campaign)
        adaptive = run_validation(campaign_plan, chunk_policy="adaptive")
        assert record_lines(adaptive) == record_lines(serial_campaign)

    def test_adaptive_chunking_parallel_byte_identical(
        self, campaign_plan, serial_campaign
    ):
        pooled = run_validation(
            campaign_plan, chunk_policy="cells:3", backend=ProcessPoolBackend(2)
        )
        assert record_lines(pooled) == record_lines(serial_campaign)

    def test_unknown_chunk_policy_rejected(self, campaign_plan):
        with pytest.raises(ConfigurationError, match="unknown chunk policy"):
            run_validation(campaign_plan, chunk_policy="bogus:3")

    def test_resume_mid_chunk_with_truncated_tail(
        self, tmp_path, campaign_plan, serial_campaign
    ):
        """A kill mid-append inside a *chunked* campaign — the final JSONL
        line torn partway through a multi-cell unit — must resume to records
        byte-identical to the serial campaign."""

        class _Interrupt(Exception):
            pass

        path = tmp_path / "campaign.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            run_validation(
                campaign_plan,
                store=ValidationStore(path),
                progress=tripwire,
                chunk_policy="cells:5",
            )
        # tear the last checkpoint line mid-record, as a power cut would
        torn = path.read_bytes()[:-40]
        path.write_bytes(torn)
        resumed = run_validation(
            campaign_plan,
            store=ValidationStore(path),
            resume=True,
            chunk_policy="cells:5",
        )
        assert record_lines(resumed) == record_lines(serial_campaign)
        assert record_lines(load_campaign(path)) == record_lines(serial_campaign)

    def test_resume_recovers_chunk_span_from_checkpoint(
        self, tmp_path, campaign_plan, serial_campaign
    ):
        """Resuming with a *different* policy value must reuse the span the
        checkpoint was written with (the store refuses mixed sharding)."""

        class _Interrupt(Exception):
            pass

        path = tmp_path / "campaign.jsonl"

        def tripwire(_msg):
            raise _Interrupt

        with pytest.raises(_Interrupt):
            run_validation(
                campaign_plan,
                store=ValidationStore(path),
                progress=tripwire,
                chunk_policy="cells:4",
            )
        resumed = run_validation(
            campaign_plan,
            store=ValidationStore(path),
            resume=True,
            chunk_policy="adaptive",
        )
        assert record_lines(resumed) == record_lines(serial_campaign)

    def test_campaign_sustains_design_point(self, serial_campaign):
        # the paper's claim, checked end to end: at the design rate every
        # exact allocation keeps up within the simulator's tolerance
        design = [
            record
            for record in serial_campaign.records
            if record.rate_multiplier == 1.0 and record.algorithm == "ILP"
        ]
        assert design
        assert all(record.sustains_target(tolerance=0.1) for record in design)


SCENARIOS = (
    DEFAULT_SCENARIO,
    ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
    ScenarioSpec(
        name="bursty+fail",
        arrival=BurstyArrivals(on=1.0, off=2.0),
        slowdowns=((1, 0.8),),
        failures=(FailureWindow(1, 1.0, 2.0),),
    ),
)


@pytest.fixture(scope="module")
def scenario_plan(captured_sweep) -> ValidationPlan:
    return plan_from_sweep(
        captured_sweep, horizons=(6.0,), rate_multipliers=(1.0,), scenarios=SCENARIOS
    )


@pytest.fixture(scope="module")
def scenario_campaign(scenario_plan) -> CampaignResult:
    return run_validation(scenario_plan)


class TestScenarioAxis:
    def test_grid_covers_every_scenario(self, scenario_plan):
        assert scenario_plan.num_simulations == len(scenario_plan.sources) * 3
        units = plan_validation_units(scenario_plan)
        covered = {
            (unit.horizon, unit.rate_multiplier, unit.scenario, source)
            for unit in units
            for source in unit.sources
        }
        expected = {
            (h, m, s, i)
            for h in scenario_plan.horizons
            for m in scenario_plan.rate_multipliers
            for s in range(len(SCENARIOS))
            for i in range(len(scenario_plan.sources))
        }
        assert covered == expected

    def test_records_carry_their_scenario(self, scenario_plan, scenario_campaign):
        names = {record.scenario for record in scenario_campaign.records}
        assert names == {"baseline", "poisson", "bursty+fail"}
        assert scenario_campaign.scenarios() == ["baseline", "poisson", "bursty+fail"]
        per_scenario = len(scenario_plan.sources)
        for name in names:
            assert len(scenario_campaign.filter(scenario=name)) == per_scenario

    def test_scenario_plan_round_trips_and_fingerprints(self, scenario_plan, campaign_plan):
        data = validation_plan_to_dict(scenario_plan)
        assert "scenarios" in data
        rebuilt = validation_plan_from_dict(data)
        assert rebuilt == scenario_plan
        assert validation_fingerprint(rebuilt) == validation_fingerprint(scenario_plan)
        assert validation_fingerprint(scenario_plan) != validation_fingerprint(campaign_plan)

    def test_scenario_free_plan_serialises_in_pre_scenario_format(self, campaign_plan):
        # the default axis is omitted from the plan dict and the unit dicts,
        # so fingerprints — and checkpoint resume — match files written
        # before scenarios existed
        data = validation_plan_to_dict(campaign_plan)
        assert "scenarios" not in data
        assert validation_plan_from_dict(data).scenarios == (DEFAULT_SCENARIO,)
        for unit in plan_validation_units(campaign_plan):
            assert "scenario" not in unit.as_dict()
        legacy_unit = ValidationUnit.from_dict(
            {"index": 0, "horizon": 6.0, "rate_multiplier": 1.0, "sources": [0]}
        )
        assert legacy_unit.scenario == 0

    def test_baseline_records_serialise_in_pre_scenario_format(self, scenario_campaign):
        baseline = scenario_campaign.filter(scenario="baseline")
        assert baseline
        for record in baseline:
            data = record.as_dict()
            assert "scenario" not in data
            assert ValidationRecord.from_dict(data).scenario == "baseline"
        stressed = scenario_campaign.filter(scenario="poisson")[0]
        assert stressed.as_dict()["scenario"] == "poisson"

    def test_duplicate_scenario_names_rejected(self, captured_sweep):
        with pytest.raises(ConfigurationError, match="unique"):
            plan_from_sweep(
                captured_sweep,
                scenarios=(ScenarioSpec(), ScenarioSpec(name="baseline")),
            )
        with pytest.raises(ConfigurationError, match="at least one scenario"):
            plan_from_sweep(captured_sweep, scenarios=())

    def test_parallel_and_resume_byte_identical_under_scenarios(
        self, tmp_path, scenario_plan, scenario_campaign
    ):
        serial_lines = record_lines(scenario_campaign)
        parallel = run_validation(scenario_plan, backend=ProcessPoolBackend(2))
        assert record_lines(parallel) == serial_lines

        class _Interrupt(Exception):
            pass

        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise _Interrupt

        path = tmp_path / "scenario-campaign.jsonl"
        with pytest.raises(_Interrupt):
            run_validation(scenario_plan, store=ValidationStore(path), progress=tripwire)
        resumed = run_validation(scenario_plan, store=ValidationStore(path), resume=True)
        assert record_lines(resumed) == serial_lines
        assert record_lines(load_campaign(path)) == serial_lines

    def test_scenario_seed_depends_on_source_and_scenario(self, scenario_plan):
        base = scenario_plan.sweep_plan.base_seed
        a, b = scenario_plan.sources[0], scenario_plan.sources[1]
        poisson, bursty = SCENARIOS[1], SCENARIOS[2]
        assert scenario_seed(base, a, poisson) == scenario_seed(base, a, poisson)
        assert scenario_seed(base, a, poisson) != scenario_seed(base, b, poisson)
        assert scenario_seed(base, a, poisson) != scenario_seed(base, a, bursty)

    def test_series_filter_by_scenario(self, scenario_campaign):
        overall = throughput_ratio_series(scenario_campaign)
        baseline = throughput_ratio_series(scenario_campaign, scenario="baseline")
        stressed = throughput_ratio_series(scenario_campaign, scenario="bursty+fail")
        assert set(baseline.series) == set(overall.series) == {"ILP", "H1"}
        # the degraded scenario cannot beat the baseline on average
        for name in baseline.series:
            for clean, noisy in zip(baseline.series[name], stressed.series[name]):
                assert noisy <= clean + 0.05


class TestValidationStore:
    def test_sweep_checkpoint_is_refused(self, tmp_path, campaign_plan):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        with pytest.raises(ConfigurationError, match="not a validation checkpoint"):
            run_validation(campaign_plan, store=ValidationStore(path), resume=True)

    def test_validation_checkpoint_not_resumable_as_sweep(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        with pytest.raises(ConfigurationError, match="not a sweep checkpoint"):
            run_plan(small_plan(), store=SweepStore(path), resume=True)

    def test_validation_checkpoint_not_loadable_as_sweep(self, tmp_path, campaign_plan):
        # e.g. `repro-cloud validate campaign.jsonl` passed the campaign file
        # instead of the sweep: the loader must name the real problem
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        with pytest.raises(ConfigurationError, match="validation checkpoint, not a sweep"):
            load_sweep_result(path)

    def test_mismatched_fingerprint_refused(self, tmp_path, captured_sweep, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        other = plan_from_sweep(captured_sweep, horizons=(5.0,))
        with pytest.raises(ConfigurationError, match="different validation plan"):
            run_validation(other, store=ValidationStore(path), resume=True)

    def test_populated_checkpoint_not_overwritten(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path))
        with pytest.raises(ConfigurationError, match="resume=True"):
            run_validation(campaign_plan, store=ValidationStore(path))

    def test_header_only_foreign_checkpoint_not_overwritten(self, tmp_path, campaign_plan):
        # a campaign that died before its first unit leaves a bare validation
        # header; a sweep mistakenly pointed at the same --out must not wipe it
        path = tmp_path / "campaign.jsonl"
        ValidationStore(path).initialize(campaign_plan)
        header = path.read_text()
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            run_plan(small_plan(), store=SweepStore(path))
        assert path.read_text() == header
        # and the mirror image: a bare sweep header is safe from a campaign
        sweep_path = tmp_path / "sweep.jsonl"
        SweepStore(sweep_path).initialize(small_plan())
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            run_validation(campaign_plan, store=ValidationStore(sweep_path))
        # same-kind header-only files may still be recreated (aborted runs)
        ValidationStore(path).initialize(campaign_plan)

    def test_store_accepts_path_argument(self, tmp_path, campaign_plan):
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=path)
        assert record_lines(load_campaign(path))

    def test_chunked_checkpoint_loads_complete(self, tmp_path, campaign_plan, serial_campaign):
        # a finished campaign checkpointed with a non-default chunk_policy must
        # load as complete — completeness is about simulations, not unit count
        path = tmp_path / "campaign.jsonl"
        run_validation(campaign_plan, store=ValidationStore(path), chunk_policy="cells:1")
        loaded = load_campaign(path)
        assert record_lines(loaded) == record_lines(serial_campaign)


class TestSeries:
    def test_ratio_series_near_one_at_design_rate(self, serial_campaign):
        series = throughput_ratio_series(serial_campaign, rate_multiplier=1.0)
        assert series.throughputs == [50.0, 100.0]
        for name, values in series.series.items():
            assert all(v > 0.8 for v in values), name

    def test_stress_rate_does_not_exceed_design_ratio(self, serial_campaign):
        design = throughput_ratio_series(serial_campaign, rate_multiplier=1.0)
        stress = throughput_ratio_series(serial_campaign, rate_multiplier=1.05)
        for name in design.series:
            for d, s in zip(design.series[name], stress.series[name]):
                assert s <= d + 0.05

    def test_latency_and_utilization_series_shapes(self, serial_campaign):
        for series in (
            latency_series(serial_campaign),
            latency_series(serial_campaign, stat="max"),
            utilization_series(serial_campaign),
            reorder_peak_series(serial_campaign),
            backlog_series(serial_campaign),
        ):
            assert set(series.series) == {"ILP", "H1"}
            assert all(len(v) == 2 for v in series.series.values())

    def test_utilization_bounded(self, serial_campaign):
        series = utilization_series(serial_campaign)
        for values in series.series.values():
            assert all(0 <= v <= 1 for v in values)

    def test_invalid_latency_stat_rejected(self, serial_campaign):
        with pytest.raises(ConfigurationError):
            latency_series(serial_campaign, stat="median")

    def test_worst_ratio_is_minimum(self, serial_campaign):
        assert serial_campaign.worst_ratio() == pytest.approx(
            min(r.throughput_ratio for r in serial_campaign.records)
        )

    def test_filter_by_scenario(self, serial_campaign):
        subset = serial_campaign.filter(algorithm="ILP", rho=50.0, rate_multiplier=1.05)
        assert subset
        assert all(
            r.algorithm == "ILP" and r.rho == 50.0 and r.rate_multiplier == 1.05
            for r in subset
        )


# --------------------------------------------------------------------------- #
# the fluid fast-screen tier
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def screen_grid():
    """A grid with clearly underloaded cells (x0.5) and design-point cells."""
    return dict(
        horizons=(10.0,),
        rate_multipliers=(0.5, 1.0),
        scenarios=[ScenarioSpec(name="poisson", arrival=PoissonArrivals())],
    )


@pytest.fixture(scope="module")
def screened_plan(captured_sweep, screen_grid) -> ValidationPlan:
    return plan_from_sweep(
        captured_sweep, screen="fluid", screen_threshold=0.85, **screen_grid
    )


@pytest.fixture(scope="module")
def screened_campaign(screened_plan) -> CampaignResult:
    return run_validation(screened_plan)


@pytest.fixture(scope="module")
def unscreened_campaign(captured_sweep, screen_grid) -> CampaignResult:
    return run_validation(plan_from_sweep(captured_sweep, **screen_grid))


def _cell(record):
    return (
        record.configuration, record.rho, record.algorithm,
        record.horizon, record.rate_multiplier, record.scenario,
    )


class TestFluidScreen:
    def test_invalid_screen_values_rejected(self, captured_sweep, screen_grid):
        with pytest.raises(ConfigurationError):
            plan_from_sweep(captured_sweep, screen="magic", **screen_grid)
        with pytest.raises(ConfigurationError):
            plan_from_sweep(
                captured_sweep, screen="fluid", screen_threshold=0.0, **screen_grid
            )

    def test_screened_plan_round_trips(self, screened_plan):
        data = validation_plan_to_dict(screened_plan)
        assert data["screen"] == "fluid"
        assert data["screen_threshold"] == 0.85
        assert validation_plan_from_dict(data) == screened_plan

    def test_screen_participates_in_fingerprint(
        self, captured_sweep, screened_plan, screen_grid
    ):
        plain = plan_from_sweep(captured_sweep, **screen_grid)
        assert validation_fingerprint(screened_plan) != validation_fingerprint(plain)
        tighter = plan_from_sweep(
            captured_sweep, screen="fluid", screen_threshold=0.7, **screen_grid
        )
        assert validation_fingerprint(screened_plan) != validation_fingerprint(tighter)

    def test_unscreened_plan_serialises_without_screen_fields(self, campaign_plan):
        data = validation_plan_to_dict(campaign_plan)
        assert "screen" not in data
        assert "screen_threshold" not in data

    def test_every_grid_cell_is_recorded(
        self, screened_plan, screened_campaign, unscreened_campaign
    ):
        assert len(screened_campaign.records) == screened_plan.num_simulations
        assert sorted(map(_cell, screened_campaign.records)) == sorted(
            map(_cell, unscreened_campaign.records)
        )

    def test_both_tiers_present(self, screened_campaign):
        tiers = {record.tier for record in screened_campaign.records}
        assert tiers == {"fluid", "des"}
        # the underloaded half of the grid screens out, the design point runs
        for record in screened_campaign.records:
            if record.rate_multiplier == 0.5:
                assert record.tier == "fluid"

    def test_escalated_cells_byte_identical_to_unscreened(
        self, screened_campaign, unscreened_campaign
    ):
        exact = {_cell(r): r for r in unscreened_campaign.records}
        escalated = [r for r in screened_campaign.records if r.tier == "des"]
        assert escalated
        for record in escalated:
            assert record.as_dict() == exact[_cell(record)].as_dict()

    def test_screened_out_cells_agree_with_exact_des(
        self, screened_campaign, unscreened_campaign
    ):
        """Capacity verdict: every cell the fluid model cleared is one where
        the exact DES kept up with what actually arrived."""
        exact = {_cell(r): r for r in unscreened_campaign.records}
        cleared = [r for r in screened_campaign.records if r.tier == "fluid"]
        assert cleared
        for record in cleared:
            des = exact[_cell(record)]
            assert des.completed >= 0.95 * des.arrivals
            assert record.throughput_ratio == pytest.approx(1.0)

    def test_fluid_records_round_trip_with_tier(self, screened_campaign):
        record = next(r for r in screened_campaign.records if r.tier == "fluid")
        data = record.as_dict()
        assert data["tier"] == "fluid"
        assert ValidationRecord.from_dict(data) == record

    def test_des_records_serialise_without_tier(self, serial_campaign):
        for record in serial_campaign.records:
            assert "tier" not in record.as_dict()

    def test_screened_campaign_is_deterministic(self, screened_plan, screened_campaign):
        again = run_validation(screened_plan)
        assert record_lines(again) == record_lines(screened_campaign)

    def test_screened_checkpoint_round_trips(
        self, tmp_path, screened_plan, screened_campaign
    ):
        store = ValidationStore(tmp_path / "screened.jsonl")
        run_validation(screened_plan, store=store)
        loaded = load_campaign(store.path)
        assert record_lines(loaded) == record_lines(screened_campaign)
