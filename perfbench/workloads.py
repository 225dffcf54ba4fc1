"""The benchmark's three workloads: ``sweep``, ``campaign`` and ``serve``.

Each workload drives one user path through the library's public API (or, for
``serve``, through a real ``repro-cloud serve`` subprocess over HTTP) on
inputs made from the workload seed, which becomes ``WorkloadSpec.base_seed``.
``--seconds`` sets the size of the fixed work one pass measures, calibrated
so that a pass takes about that long on a 2-CPU box; the amount of work never
depends on how fast the program runs, so a parent commit and a change always
measure the same inputs.

A workload object goes through ``prepare`` (untimed inputs, such as the sweep
checkpoint the campaign validates), ``run_pass`` (the measured work) and
``check`` (the correctness oracle: a serial in-process reference run of the
same seed, the paper's ILP <= heuristic invariant, and a canonical record
digest).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# --------------------------------------------------------------------------- #
# canonical records and digests
# --------------------------------------------------------------------------- #


def canonical_lines(record_dicts, *, drop: tuple = ()) -> list[str]:
    """One sorted-key JSON line per record, in the order given."""
    return [
        json.dumps(
            {key: value for key, value in data.items() if key not in drop},
            sort_keys=True,
            separators=(",", ":"),
        )
        for data in record_dicts
    ]


def sweep_lines(records) -> list[str]:
    """Sweep records without ``time``, the solve wall-clock."""
    return canonical_lines((record.as_dict() for record in records), drop=("time",))


def campaign_lines(records) -> list[str]:
    return canonical_lines(record.as_dict() for record in records)


def digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def ilp_violations(records) -> int:
    """Sweep cells where a heuristic beat the exact ILP (must never happen)."""
    best: dict = {}
    for record in records:
        if record.algorithm == "ILP":
            best[(record.configuration, record.rho)] = record.cost
    return sum(
        1
        for record in records
        if record.algorithm != "ILP"
        and record.cost < best[(record.configuration, record.rho)] * (1 - 1e-9)
    )


def lines_mismatch(got: list[str], expected: list[str]) -> int:
    """How many lines differ (missing or extra lines count too)."""
    differing = sum(1 for a, b in zip(got, expected) if a != b)
    return differing + abs(len(got) - len(expected))


@dataclass
class PassResult:
    """One measured pass: work done, wall-clock and per-item latencies."""

    items: int
    seconds: float
    latencies: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    output: object = None  # what ``check`` compares against the reference


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of a process (VmHWM), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def python_env() -> dict:
    """This environment with ``src/`` on ``PYTHONPATH``, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def checkpoint_gaps(start: float, stamps: list[float]) -> list[float]:
    """Waits between successive durable results, the first one from ``start``."""
    return [stamp - previous for previous, stamp in zip([start, *stamps], stamps)]


class SpeedProbe:
    """Runs ``probe.py`` beside a pass; ``speed`` is its mean rate.

    The samples are evenly spaced in time, so their mean is the machine's
    speed averaged over the pass, the same average the pass's own wall-clock
    integrates.
    """

    def __init__(self, out: Path) -> None:
        self.out = out
        self.speed = 0.0
        self.samples = 0

    def __enter__(self) -> "SpeedProbe":
        self.out.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py")), str(self.out)]
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.process.send_signal(signal.SIGTERM)
        self.process.wait(timeout=30.0)
        rates = json.loads(self.out.read_text())
        if not rates:
            raise RuntimeError("the speed probe took no samples")
        self.samples = len(rates)
        self.speed = statistics.fmean(rates)


def fresh_import_seconds() -> float:
    """Fresh interpreter launch until ``repro.api`` is imported and callable."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", "import repro.api; print('ready', flush=True)"],
        stdout=subprocess.PIPE,
        text=True,
        env=python_env(),
    )
    try:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        child.stdout.close()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"importing repro.api failed (exit {code})")
    return seconds


# --------------------------------------------------------------------------- #
# sweep: repro-cloud run study.json, solvers and heuristics
# --------------------------------------------------------------------------- #


class SweepWorkload:
    """The paper line-up over ``medium`` configurations, serial, checkpointed.

    Instance difficulty varies a lot between configurations (the ILP's
    per-configuration time has a coefficient of variation near 0.5), so the
    pass covers many configurations at two throughputs rather than few at
    five: the seed-to-seed spread of the pass time then stays near 5%.
    """

    name = "sweep"
    throughputs = (40.0, 80.0)
    configurations_per_second = 2.5

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        from repro.experiments.config import paper_algorithms
        from repro.experiments.spec import ExecutionSpec, StudySpec, WorkloadSpec

        self.seed = seed
        self.workdir = workdir
        self.configurations = max(2, round(seconds * self.configurations_per_second))
        self.spec = StudySpec(
            name="perfbench-sweep",
            workload=WorkloadSpec(
                setting="medium",
                num_configurations=self.configurations,
                target_throughputs=self.throughputs,
                base_seed=seed,
            ),
            algorithms=tuple(paper_algorithms(iterations=1000)),
            execution=ExecutionSpec(workers=None),
        )
        self._passes = 0

    def describe(self) -> str:
        return (
            f"medium, {self.configurations} configurations x throughputs "
            f"{self.throughputs} x {len(self.spec.algorithms)} algorithms = "
            f"{self.configurations * len(self.throughputs) * len(self.spec.algorithms)} "
            f"solves, serial, checkpointed"
        )

    def prepare(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        from repro.api import Study

        self._passes += 1
        store_dir = self.workdir / f"sweep-pass-{self._passes}"
        shutil.rmtree(store_dir, ignore_errors=True)
        study = Study(self.spec.with_execution(store_dir=str(store_dir)))
        done: list[float] = []
        start = time.perf_counter()
        result = study.run(progress=lambda _message: done.append(time.perf_counter()))
        seconds = time.perf_counter() - start
        records = result.sweep.records
        return PassResult(
            items=len(records),
            seconds=seconds,
            latencies=checkpoint_gaps(start, done),
            peak_rss_mb=peak_rss_mb(),
            attempted=len(records),
            output=(records, study.sweep_store_path),
        )

    def lines(self, result: PassResult) -> list[str]:
        return sweep_lines(result.output[0])

    def check(self, result: PassResult, lines: list[str]) -> int:
        """-> failed operations."""
        from repro.experiments.backends import execute_work_unit, plan_work_units
        from repro.experiments.runner import SweepResult

        records, store_path = result.output
        failed = ilp_violations(records)
        # the checkpoint must reload to exactly what the run returned
        failed += lines_mismatch(sweep_lines(SweepResult.load(store_path).records), lines)
        # serial in-process reference: re-solve the first and last work units
        plan = self.spec.experiment_plan()
        units = plan_work_units(plan)
        expected: dict = {}
        for unit in (units[0], units[-1]):
            expected[unit.configuration] = sweep_lines(execute_work_unit(plan, unit))
        for configuration, reference in expected.items():
            got = [
                line
                for record, line in zip(records, lines)
                if record.configuration == configuration
            ]
            failed += lines_mismatch(got, reference)
        return failed


# --------------------------------------------------------------------------- #
# campaign: repro-cloud validate over a sweep checkpoint, DES + process pool
# --------------------------------------------------------------------------- #


def bench_scenarios():
    from repro.simulation import BurstyArrivals, FailureWindow, PoissonArrivals, ScenarioSpec

    return (
        ScenarioSpec(name="poisson", arrival=PoissonArrivals()),
        ScenarioSpec(
            name="bursty+degraded",
            arrival=BurstyArrivals(on=1.0, off=2.0),
            slowdowns=((1, 0.8),),
            failures=(FailureWindow(1, 1.0, 2.0), FailureWindow(2, 4.0, 1.0)),
        ),
    )


def small_lineup(iterations: int = 400):
    from repro.experiments.config import paper_algorithms

    return tuple(
        spec
        for spec in paper_algorithms(iterations=iterations)
        if spec.name in ("ILP", "H1", "H32")
    )


class CampaignWorkload:
    """A validation campaign over a ``small`` sweep checkpoint, 2 workers.

    Each configuration contributes 3 allocations (throughput 100 x
    ILP/H1/H32) and every allocation is simulated on horizons (15, 30) x
    multipliers (1.0, 1.05) x the two ``bench_scenarios`` scenarios: 24
    simulations per configuration.  Simulation cost follows each
    configuration's recipe sizes, so the pass spreads its simulations over
    many configurations at one throughput rather than few at four: that keeps
    the seed-to-seed spread of the pass time small.
    """

    name = "campaign"
    throughputs = (100.0,)
    configurations_per_second = 1.8
    workers = 2

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        from repro.experiments.spec import StudySpec, WorkloadSpec

        self.seed = seed
        self.workdir = workdir
        self.configurations = max(1, round(seconds * self.configurations_per_second))
        self.sweep_spec = StudySpec(
            name="perfbench-campaign-input",
            workload=WorkloadSpec(
                setting="small",
                num_configurations=self.configurations,
                target_throughputs=self.throughputs,
                base_seed=seed,
            ),
            algorithms=small_lineup(),
        )
        self.sweep_path = workdir / "campaign-input-sweep.jsonl"
        self._passes = 0

    def describe(self) -> str:
        sims = self.configurations * len(self.throughputs) * 3 * 8
        return (
            f"small checkpoint of {self.configurations} configurations x "
            f"{self.throughputs} x ILP/H1/H32; horizons (15, 30) x multipliers "
            f"(1.0, 1.05) x the bench_scenarios pair poisson and bursty+degraded = "
            f"{sims} simulations, workers=2"
        )

    def prepare(self) -> None:
        """Write the sweep checkpoint the campaign validates (untimed)."""
        from repro.api import Study

        self.sweep_path.unlink(missing_ok=True)
        Study(
            self.sweep_spec.with_execution(
                sweep_store=str(self.sweep_path), capture_allocations=True
            )
        ).run()

    def _validate_spec(self, *, workers, out):
        """The spec ``repro-cloud validate`` builds for this campaign."""
        from repro.cli import validation_study_spec
        from repro.experiments.runner import SweepResult

        sweep = SweepResult.load(self.sweep_path, allow_partial=True)
        spec = validation_study_spec(
            sweep.plan,
            sweep_store=self.sweep_path,
            horizons=(15.0, 30.0),
            rate_multipliers=(1.0, 1.05),
            scenarios=bench_scenarios(),
            workers=workers,
            validation_store=out,
        )
        return spec, sweep

    def run_pass(self) -> PassResult:
        from repro.api import Study

        self._passes += 1
        out = self.workdir / f"campaign-pass-{self._passes}.jsonl"
        out.unlink(missing_ok=True)
        done: list[float] = []
        start = time.perf_counter()
        spec, sweep = self._validate_spec(workers=self.workers, out=out)
        result = Study.from_spec(spec).run(
            sweep=sweep, progress=lambda _message: done.append(time.perf_counter())
        )
        seconds = time.perf_counter() - start
        records = result.campaign.records
        return PassResult(
            items=len(records),
            seconds=seconds,
            latencies=checkpoint_gaps(start, done),
            peak_rss_mb=peak_rss_mb(),
            attempted=len(records),
            output=(records, out),
        )

    def lines(self, result: PassResult) -> list[str]:
        return campaign_lines(result.output[0])

    def check(self, result: PassResult, lines: list[str]) -> int:
        """Pool records against a serial in-process run of the same cells.

        A simulation's seed depends only on its allocation and scenario, so
        the serial reference replays the allocations of the first and last
        configuration alone and must reproduce their records byte for byte.
        """
        from repro.experiments.runner import SweepResult
        from repro.experiments.validation import load_campaign, run_validation

        records, out = result.output
        expected_count = self.configurations * len(self.throughputs) * 3 * 8
        failed = abs(len(records) - expected_count)
        failed += lines_mismatch(campaign_lines(load_campaign(out).records), lines)
        spec, sweep = self._validate_spec(workers=None, out=None)
        sampled = {0, self.configurations - 1}
        subset = SweepResult(
            plan=sweep.plan,
            records=[record for record in sweep.records if record.configuration in sampled],
        )
        reference = run_validation(spec.validation.plan(subset))
        got = [
            line
            for record, line in zip(records, lines)
            if record.configuration in sampled
        ]
        failed += lines_mismatch(got, campaign_lines(reference.records))
        return failed


# --------------------------------------------------------------------------- #
# serve: repro-cloud serve --jobs 2 --workers 2, two closed-loop clients
# --------------------------------------------------------------------------- #


def http(method: str, url: str, body: "bytes | None" = None, timeout: float = 120.0):
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class Server:
    """One ``repro-cloud serve`` subprocess on an ephemeral port."""

    def __init__(self, store_root: Path, command: "list[str] | None" = None) -> None:
        start = time.perf_counter()
        if command is None:
            command = [sys.executable, "-m", "repro"]
        command = command + [
            "serve", "--store-root", str(store_root), "--port", "0",
            "--jobs", "2", "--workers", "2",
        ]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=python_env(),
        )
        self.output: list[str] = []
        self.base = self._banner()
        while True:
            try:
                if http("GET", self.url("/healthz"), timeout=5.0)[0] == 200:
                    break
            except OSError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError("serve exited during start-up:\n" + "".join(self.output))
            time.sleep(0.005)
        self.start_seconds = time.perf_counter() - start

    def _banner(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("serve exited before announcing its port")
            self.output.append(line)
            match = re.search(r"listening on (http://[\w.]+:\d+)", line)
            if match:
                self._drain = threading.Thread(
                    target=lambda: self.output.extend(self.process.stdout), daemon=True
                )
                self._drain.start()
                return match.group(1)
        raise RuntimeError("timed out waiting for the serve banner")

    def url(self, path: str) -> str:
        return f"{self.base}{path}"

    def stop(self) -> int:
        """SIGTERM (the graceful drain) and wait for the process to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._drain.join(timeout=10.0)
        self.process.stdout.close()
        return code


@dataclass
class StudyOutcome:
    client: int
    k: int
    latency: float
    polls: int
    ok: bool
    sweep: list = field(default_factory=list)
    campaign: list = field(default_factory=list)


class ServeWorkload:
    """Two closed-loop clients submitting growing studies to one server.

    Study ``k`` of client ``c`` is ``small`` (ILP/H1/H32 at 400 iterations,
    throughputs 40 and 80, horizon 15, multipliers 1.0 and 1.05) with
    ``num_configurations = k`` and ``base_seed = seed + c``: it computes one
    new configuration and reads the other ``k - 1`` from the server's shared
    memo, while the job's store bytes, re-read by every status poll, grow
    with ``k``.
    """

    name = "serve"
    clients = 2
    studies_per_second = 1.4
    poll_interval = 0.02

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.studies = max(2, round(seconds * self.studies_per_second))
        self.server: "Server | None" = None
        self.server_command: "list[str] | None" = None
        self.client_tracer = None
        self._passes = 0

    def describe(self) -> str:
        return (
            f"{self.clients} closed-loop clients x {self.studies} studies "
            f"(k = 1..{self.studies} configurations of small), serve --jobs 2 --workers 2"
        )

    def spec(self, client: int, k: int):
        from repro.experiments.spec import StudySpec, ValidationSpec, WorkloadSpec

        return StudySpec(
            name=f"perfbench-serve-{client}-{k}",
            workload=WorkloadSpec(
                setting="small",
                num_configurations=k,
                target_throughputs=(40.0, 80.0),
                base_seed=self.seed + client,
            ),
            algorithms=small_lineup(),
            validation=ValidationSpec(horizons=(15.0,), rate_multipliers=(1.0, 1.05)),
        )

    def start_server(self) -> Server:
        self._passes += 1
        root = self.workdir / f"serve-root-{self._passes}"
        shutil.rmtree(root, ignore_errors=True)
        return Server(root, self.server_command)

    def prepare(self) -> None:
        pass

    def _timed(self, name: str, fn, *args, **kwargs):
        if self.client_tracer is None:
            return fn(*args, **kwargs)
        return self.client_tracer.call(name, fn, args, kwargs)

    def _client(self, server: Server, client: int, outcomes: list) -> None:
        for k in range(1, self.studies + 1):
            body = json.dumps(self.spec(client, k).as_dict()).encode("utf-8")
            start = time.perf_counter()
            outcome = StudyOutcome(client=client, k=k, latency=0.0, polls=0, ok=False)
            try:
                status, payload = self._timed(
                    "service.submit", http, "POST", server.url("/v1/studies"), body
                )
                if status in (200, 202):
                    job = payload["id"]
                    while True:
                        status, payload = self._timed(
                            "service.status", http, "GET", server.url(f"/v1/studies/{job}")
                        )
                        outcome.polls += 1
                        if status != 200 or payload["state"] in ("done", "failed"):
                            break
                        time.sleep(self.poll_interval)
                    if status == 200 and payload["state"] == "done":
                        status, payload = self._timed(
                            "service.results", http, "GET",
                            server.url(f"/v1/studies/{job}/results"),
                        )
                        if status == 200:
                            outcome.ok = True
                            outcome.sweep = payload["sweep"]
                            outcome.campaign = payload["campaign"]
            except (OSError, ValueError, KeyError):
                outcome.ok = False
            outcome.latency = time.perf_counter() - start
            outcomes.append(outcome)

    def run_pass(self) -> PassResult:
        server = self.server if self.server is not None else self.start_server()
        self.server = None
        outcomes: list[StudyOutcome] = []
        try:
            threads = [
                threading.Thread(target=self._client, args=(server, client, outcomes))
                for client in range(self.clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
            rss = peak_rss_mb(server.process.pid)
        finally:
            server.stop()
        done = [outcome for outcome in outcomes if outcome.ok]
        # every HTTP request is an attempted operation: submit + polls + results
        requests = sum(1 + outcome.polls + (1 if outcome.ok else 0) for outcome in outcomes)
        outcomes.sort(key=lambda outcome: (outcome.client, outcome.k))
        return PassResult(
            items=len(done),
            seconds=seconds,
            latencies=[outcome.latency for outcome in outcomes],
            peak_rss_mb=rss,
            attempted=requests,
            failed=len(outcomes) - len(done),
            output=outcomes,
        )

    def lines(self, result: PassResult) -> list[str]:
        lines: list[str] = []
        for outcome in result.output:
            lines.extend(canonical_lines(outcome.sweep, drop=("time",)))
            lines.extend(canonical_lines(outcome.campaign))
        return lines

    def check(self, result: PassResult, lines: list[str]) -> int:
        """Every served study must equal the local serial run of its spec.

        The local run of client ``c``'s largest study holds, configuration by
        configuration, the records of every smaller study of that client
        (records never depend on ``num_configurations``), so one local run
        per client is the reference of all its studies.
        """
        from repro.api import Study

        outcomes = result.output
        failed = 0
        for client in range(self.clients):
            reference = Study.from_spec(self.spec(client, self.studies)).run()
            ref_sweep = reference.sweep.records
            ref_campaign = reference.campaign.records
            failed += ilp_violations(ref_sweep)
            for outcome in outcomes:
                if outcome.client != client or not outcome.ok:
                    continue
                sweep = canonical_lines(outcome.sweep, drop=("time",))
                campaign = canonical_lines(outcome.campaign)
                expected_sweep = sweep_lines(
                    record for record in ref_sweep if record.configuration < outcome.k
                )
                expected_campaign = campaign_lines(
                    record for record in ref_campaign if record.configuration < outcome.k
                )
                if sweep != expected_sweep or campaign != expected_campaign:
                    failed += 1
        return failed


WORKLOADS = {
    workload.name: workload
    for workload in (SweepWorkload, CampaignWorkload, ServeWorkload)
}


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

