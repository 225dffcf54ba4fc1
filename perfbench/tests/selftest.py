"""Self-tests of the benchmark harness (smoke sizes, a few minutes in total).

Run from the root of a checkout with::

    python3 -m pytest perfbench/tests/selftest.py -q

The file name keeps it out of the repository's own test collection: these
tests start real servers and process pools and belong to the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def invoke(*args: str, cwd: Path = ROOT) -> "tuple[int, list[str]]":
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["sweep", "campaign", "serve"])
def test_smoke_size_emits_every_metric_with_its_unit(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = invoke("--workload", workload, "--seconds", "1", "--trace", str(trace))
        assert code == 0, "\n".join(lines[-20:])
        summary = json.loads(lines[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] is True and summary["failed"] == 0
        expected = {entry["name"]: entry["unit"] for entry in declared[key]}
        got = {name: metric["unit"] for name, metric in summary["metrics"].items()}
        assert got == expected
        if trace:
            assert any(line.startswith("tracing overhead:") for line in lines)
            assert any(line.startswith("coverage:") for line in lines)


def test_tampered_record_fails_the_digest_and_the_reference(tmp_path):
    workload = workloads.SweepWorkload(2016, 1, tmp_path)
    result = workload.run_pass()
    lines = workload.lines(result)
    assert workload.check(result, lines) == 0
    records, store_path = result.output
    records[0] = dataclasses.replace(records[0], cost=records[0].cost + 1.0)
    result.output = (records, store_path)
    tampered = workload.lines(result)
    assert workloads.digest(tampered) != workloads.digest(lines)
    assert workload.check(result, tampered) > 0


def test_injected_event_shows_as_a_count_diff(tmp_path):
    """One extra simulated event per run moves ``simulation.events`` by the run count."""
    from repro.simulation import engine

    workload = workloads.CampaignWorkload(2016, 1, tmp_path)
    workload.workers = 1  # in-process, so the injecting wrapper reaches every run
    workload.prepare()

    def traced_counters(name):
        tracer = spans.install(spans.Tracer(tmp_path / name, "main"))
        try:
            workload.run_pass()
        finally:
            spans.uninstall()
        return tracer.counters

    baseline = traced_counters("baseline")
    original = engine.StreamSimulator.run

    def one_more_event(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        report.metadata["event_counters"]["heappop"] += 1
        return report

    engine.StreamSimulator.run = one_more_event
    try:
        injected = traced_counters("injected")
    finally:
        engine.StreamSimulator.run = original
    runs = baseline["simulation.runs"]
    assert runs > 0 and injected["simulation.runs"] == runs
    assert injected["simulation.events"] - baseline["simulation.events"] == runs
    for name in layers.DETERMINISTIC:
        if name not in ("simulation.events", "simulation.heap_ops", "startup.modules"):
            assert injected.get(name, 0) == baseline.get(name, 0), name


def test_non_default_seed_runs_clean():
    code, lines = invoke("--workload", "campaign", "--seed", "7", "--seconds", "1")
    assert code == 0, "\n".join(lines[-20:])
    assert json.loads(lines[-1])["correct"] is True


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = invoke("--workload", "sweep", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_percentiles_and_units_match_the_declared_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER_UNITS
    assert workloads.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert workloads.percentile([1.0, 2.0], 90) == pytest.approx(1.9)
