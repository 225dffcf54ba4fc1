"""The repository's benchmark: one workload, measured end to end, or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|campaign|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the workload with no tracing and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced pass (the base of the
tracing overhead), then two traced passes that wrap every layer's public
entry points from outside the library, prints the per-layer table, checks
that the deterministic counts repeat exactly, and reports the per-layer
metrics.  Either way every pass's outputs go through the workload's
correctness oracle, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
command exits non-zero when a check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2016
SETUP_SAMPLES = 3
#: Mean probe loops per second on a typical 2-CPU sandbox; pass timings are
#: reported as if the machine had run at this speed (see SpeedProbe).
REFERENCE_SPEED = 700.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def environment_stamp() -> dict:
    """CPUs usable by this process, library versions and the source commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
    }


def startup_sample() -> dict:
    """A fresh interpreter's cost of ``import repro.api``, measured inside it."""
    from workloads import python_env

    code = (
        "import sys, time\n"
        "before = len(sys.modules)\n"
        "start = time.perf_counter()\n"
        "import repro.api\n"
        "seconds = time.perf_counter() - start\n"
        "print(seconds, len(sys.modules) - before, int('scipy' in sys.modules))\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=python_env(), timeout=120,
    ).stdout.split()
    return {
        "import_s": float(output[0]),
        "modules": int(output[1]),
        "scipy_loaded": int(output[2]),
    }


def measure_setup(workload) -> list[float]:
    """Set up several times; ``serve`` keeps its last server for the pass."""
    from workloads import fresh_import_seconds

    samples = []
    for attempt in range(SETUP_SAMPLES):
        if workload.name == "serve":
            server = workload.start_server()
            samples.append(server.start_seconds)
            if attempt < SETUP_SAMPLES - 1:
                server.stop()
            else:
                workload.server = server
        else:
            samples.append(fresh_import_seconds())
    return samples


def end_to_end(setup: list[float], setup_speed: float, result, speed: float) -> dict:
    """The end-to-end metrics, with timings scaled to the reference speed."""
    from workloads import percentile

    scale = speed / REFERENCE_SPEED
    return {
        "setup_s": statistics.median(setup) * setup_speed / REFERENCE_SPEED,
        "items_per_s": result.items / (result.seconds * scale),
        "latency_p50_s": percentile(result.latencies, 50) * scale,
        "latency_p90_s": percentile(result.latencies, 90) * scale,
        "peak_rss_mb": result.peak_rss_mb,
    }


def pinned_digest(workload: str, seed: int, seconds: int) -> "str | None":
    pins = json.loads((HERE / "digests.json").read_text())
    pin = pins.get(workload)
    if pin and pin["seed"] == seed and pin["seconds"] == seconds:
        return pin["digest"]
    return None


def check_pass(workload, result, seconds: int, notes: list) -> "tuple[int, str]":
    """Run the correctness oracle on one pass; -> (failed operations, digest)."""
    from workloads import digest

    lines = workload.lines(result)
    failed = workload.check(result, lines)
    record_digest = digest(lines)
    notes.append(f"{workload.name}: record digest {record_digest}")
    pin = pinned_digest(workload.name, workload.seed, seconds)
    if pin is not None and pin != record_digest:
        notes.append(f"{workload.name}: digest differs from the pinned {pin}")
        failed += 1
    return failed + result.failed, record_digest


def traced_pass(workload, trace_dir: Path):
    """One pass with every layer wrapped; -> (result, LayerStats)."""
    import spans
    from layers import LayerStats

    shutil.rmtree(trace_dir, ignore_errors=True)
    tracer = spans.Tracer(trace_dir, "main")
    if workload.name == "serve":
        # the library runs in the server: trace it there, and the HTTP calls here
        workload.server_command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_dir)]
        workload.client_tracer = tracer
        try:
            workload.server = workload.start_server()
            result = workload.run_pass()
        finally:
            workload.server_command = None
            workload.client_tracer = None
    else:
        spans.install(tracer)
        try:
            result = workload.run_pass()
        finally:
            spans.uninstall()
    tracer.dump()
    return result, LayerStats(spans.load_traces(trace_dir))


def stop_helper_processes() -> None:
    """Stop the process-pool helpers (forkserver, resource tracker) and reap them.

    They would otherwise end on their own only after this process exits.
    """
    for module, helper in (
        ("multiprocessing.forkserver", "_forkserver"),
        ("multiprocessing.resource_tracker", "_resource_tracker"),
    ):
        if module in sys.modules:
            try:
                getattr(sys.modules[module], helper)._stop()
            except (AttributeError, OSError):
                pass  # not running, or already reaped


def run(args) -> int:
    from workloads import WORKLOADS, SpeedProbe

    load_before = os.getloadavg()[0]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # temporary files of this process and its children (the pool's
    # forkserver socket among them) stay inside the checkout
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    print(f"workload {args.workload}: {workload.describe()}", flush=True)
    notes: list[str] = []

    with SpeedProbe(workdir / "setup-probe.json") as setup_probe:
        setup = measure_setup(workload)
    workload.prepare()
    with SpeedProbe(workdir / "probe.json") as probe:
        result = workload.run_pass()
    attempted = result.attempted
    failed, record_digest = check_pass(workload, result, args.seconds, notes)
    samples = {
        "setup": len(setup),
        "latency": len(result.latencies),
        "items": result.items,
        "probe": probe.samples,
    }

    if args.trace:
        from layers import DETERMINISTIC, PER_LAYER_UNITS
        from workloads import digest

        startups = [startup_sample(), startup_sample()]
        passes = []
        for number in (1, 2):
            traced, stats = traced_pass(workload, workdir / f"trace-{number}")
            attempted += traced.attempted
            failed += traced.failed
            if digest(workload.lines(traced)) != record_digest:
                notes.append(f"traced pass {number} changed the records")
                failed += 1
            passes.append((traced, stats))
        counts = [
            {name: stats.counters.get(name, 0) for name in DETERMINISTIC} for _, stats in passes
        ]
        for index, startup in enumerate(startups):
            counts[index]["startup.modules"] = startup["modules"]
        for name in DETERMINISTIC:
            if counts[0][name] != counts[1][name]:
                notes.append(f"deterministic count {name} differs: "
                             f"{counts[0][name]} != {counts[1][name]}")
                failed += 1
        traced, stats = passes[0]
        overhead = traced.seconds / result.seconds
        values = stats.metrics(
            startup=startups,
            server_starts=setup if workload.name == "serve" else [],
            studies=traced.items,
            overhead=overhead,
        )
        print(f"\ntrace table ({workload.name}, traced pass 1, wall {traced.seconds:.3f} s; "
              f"share = self time / wall-clock):")
        print(stats.table(traced.seconds))
        if workload.name == "serve":
            print("(the library runs in the server process: it is traced there through "
                  "perfbench/serve_traced.py, and its pool workers through their initializer)")
        print(f"tracing overhead: {overhead:.3f}x ({traced.seconds:.3f} s traced over "
              f"{result.seconds:.3f} s untraced)")
        print(f"coverage: {stats.coverage():.1%} of the api entry spans' wall-clock is "
              f"inside named layers")
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        values = end_to_end(setup, setup_probe.speed, result, probe.speed)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }

    stamp = environment_stamp()
    stamp["loadavg_1m_before"] = load_before
    stamp["loadavg_1m_after"] = os.getloadavg()[0]
    stamp["samples"] = samples
    stamp["pass_seconds"] = result.seconds
    stamp["probe_speed"] = probe.speed
    stamp["setup_seconds"] = setup
    stamp["setup_probe_speed"] = setup_probe.speed
    stamp["failed_frac"] = failed / attempted
    for note in notes:
        print(note)
    print("environment: " + json.dumps(stamp, sort_keys=True))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json").write_text(
        json.dumps({"args": vars(args), "environment": stamp, **summary}, indent=2) + "\n"
    )
    print(json.dumps(summary), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "campaign", "serve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run(args)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())
