"""Per-layer numbers and the trace table, computed from the traced pass's spans.

A span's layer is the part of its name before the first dot
(``heuristics.H2`` belongs to ``heuristics``).  Each process of the pass --
the benchmark itself (``main``), pool workers (``worker``) and the traced
``serve`` process (``server``) -- contributed one trace file; counts add up
across them, times are summed per layer.
"""

from __future__ import annotations

import statistics

from workloads import percentile

#: Counts that must repeat exactly across two traced passes of the same code.
DETERMINISTIC = (
    "heuristics.iterations",
    "evaluator.rows",
    "solvers.milp_nodes",
    "simulation.events",
    "simulation.heap_ops",
    "simulation.dispatch_scans",
    "memo.hits",
    "memo.misses",
    "startup.modules",
)

#: Every per-layer metric the traced pass reports, with its unit.
PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "startup.modules": "count",
    "startup.scipy_loaded": "bool",
    "generators.calls": "count",
    "generators.s": "s",
    "solvers.milp_calls": "count",
    "solvers.milp_s": "s",
    "solvers.milp_nodes": "count",
    "heuristics.calls": "count",
    "heuristics.s": "s",
    "heuristics.iterations": "count",
    "evaluator.batch_calls": "count",
    "evaluator.rows": "count",
    "evaluator.cache_hits": "count",
    "runner.units": "count",
    "runner.self_s": "s",
    "backends.units": "count",
    "backends.first_result_s": "s",
    "backends.wait_s": "s",
    "validation.cells": "count",
    "validation.units": "count",
    "validation.self_s": "s",
    "simulation.runs": "count",
    "simulation.s": "s",
    "simulation.events": "count",
    "simulation.heap_ops": "count",
    "simulation.dispatch_scans": "count",
    "simulation.us_per_event": "us",
    "store.appends": "count",
    "store.append_s": "s",
    "store.bytes": "bytes",
    "store.load_s": "s",
    "memo.loads": "count",
    "memo.load_s": "s",
    "memo.lookups": "count",
    "memo.lookup_s": "s",
    "memo.puts": "count",
    "memo.put_s": "s",
    "memo.hits": "count",
    "memo.misses": "count",
    "memo.hit_ratio": "ratio",
    "memo.bytes": "bytes",
    "service.requests": "count",
    "service.submit_s": "s",
    "service.status_p50_s": "s",
    "service.status_p95_s": "s",
    "service.results_s": "s",
    "service.polls_per_study": "count",
    "service.server_start_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class LayerStats:
    """Merged spans, hot aggregates, counters and samples of one traced pass."""

    def __init__(self, traces: list[dict]) -> None:
        self.rows: dict = {}  # (role, name) -> {"durations": [...], "self": s, ...}
        self.counters: dict = {}
        self.samples: dict = {}
        self.api_total = 0.0
        self.api_self = 0.0
        for trace in traces:
            role = trace["role"]
            for name, start, end, self_s, _id, _parent, _pid in trace["spans"]:
                row = self._row(role, name)
                row["durations"].append(end - start)
                row["count"] += 1
                row["total"] += end - start
                row["self"] += self_s
                if name == "api.study_run":
                    self.api_total += end - start
                    self.api_self += self_s
            for name, (count, total, self_s) in trace["hot"].items():
                row = self._row(role, name)
                row["count"] += count
                row["total"] += total
                row["self"] += self_s
            for name, value in trace["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, values in trace.get("samples", {}).items():
                self.samples.setdefault(name, []).extend(values)

    def _row(self, role: str, name: str) -> dict:
        row = self.rows.get((role, name))
        if row is None:
            row = self.rows[(role, name)] = {
                "durations": [], "count": 0, "total": 0.0, "self": 0.0,
            }
        return row

    def total(self, prefix: str, *, kind: str = "total") -> float:
        return sum(
            row[kind] for (_role, name), row in self.rows.items() if name.startswith(prefix)
        )

    def durations(self, name: str) -> list[float]:
        values: list[float] = []
        for (_role, row_name), row in self.rows.items():
            if row_name == name:
                values.extend(row["durations"])
        return values

    def coverage(self) -> float:
        """Share of the ``api`` entry spans' wall-clock inside named layers."""
        if self.api_total <= 0:
            return 0.0
        return (self.api_total - self.api_self) / self.api_total

    def metrics(self, *, startup: list[dict], server_starts: list[float],
                studies: int, overhead: float) -> dict:
        counter = self.counters.get
        events = counter("simulation.events", 0)
        simulated = self.total("simulation.")
        hits, misses = counter("memo.hits", 0), counter("memo.misses", 0)
        status = self.durations("service.status")
        submits = self.durations("service.submit")
        results = self.durations("service.results")
        first = self.samples.get("backends.first_result_s", [])
        values = {
            "startup.import_s": statistics.median(s["import_s"] for s in startup),
            "startup.modules": startup[0]["modules"],
            "startup.scipy_loaded": startup[0]["scipy_loaded"],
            "generators.calls": counter("generators.calls", 0),
            "generators.s": self.total("generators."),
            "solvers.milp_calls": counter("solvers.milp_calls", 0),
            "solvers.milp_s": self.total("solvers.highs"),
            "solvers.milp_nodes": counter("solvers.milp_nodes", 0),
            "heuristics.calls": counter("heuristics.calls", 0),
            "heuristics.s": self.total("heuristics."),
            "heuristics.iterations": counter("heuristics.iterations", 0),
            "evaluator.batch_calls": counter("evaluator.batch_calls", 0),
            "evaluator.rows": counter("evaluator.rows", 0),
            "evaluator.cache_hits": counter("evaluator.cache_hits", 0),
            "runner.units": counter("runner.units", 0),
            "runner.self_s": self.total("runner.", kind="self"),
            "backends.units": counter("backends.units", 0),
            "backends.first_result_s": statistics.median(first) if first else 0.0,
            "backends.wait_s": self.total("backends.wait", kind="self"),
            "validation.cells": counter("validation.cells", 0),
            "validation.units": counter("validation.units", 0),
            "validation.self_s": self.total("validation.", kind="self"),
            "simulation.runs": counter("simulation.runs", 0),
            "simulation.s": simulated,
            "simulation.events": events,
            "simulation.heap_ops": counter("simulation.heap_ops", 0),
            "simulation.dispatch_scans": counter("simulation.dispatch_scans", 0),
            "simulation.us_per_event": simulated / events * 1e6 if events else 0.0,
            "store.appends": counter("store.appends", 0),
            "store.append_s": self.total("store.append"),
            "store.bytes": counter("store.bytes", 0),
            "store.load_s": self.total("store.load"),
            "memo.loads": counter("memo.loads", 0),
            "memo.load_s": self.total("memo.load"),
            "memo.lookups": counter("memo.lookups", 0),
            "memo.lookup_s": self.total("memo.lookup"),
            "memo.puts": counter("memo.puts", 0),
            "memo.put_s": self.total("memo.put"),
            "memo.hits": hits,
            "memo.misses": misses,
            "memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "memo.bytes": counter("memo.bytes", 0),
            "service.requests": len(status) + len(submits) + len(results),
            "service.submit_s": statistics.median(submits) if submits else 0.0,
            "service.status_p50_s": percentile(status, 50) if status else 0.0,
            "service.status_p95_s": percentile(status, 95) if status else 0.0,
            "service.results_s": statistics.median(results) if results else 0.0,
            "service.polls_per_study": len(status) / studies if status and studies else 0.0,
            "service.server_start_s": statistics.median(server_starts) if server_starts else 0.0,
            "trace.overhead": overhead,
            "trace.coverage": self.coverage(),
        }
        assert set(values) == set(PER_LAYER_UNITS)
        return values

    def table(self, wall: float) -> str:
        """Per layer: count, total, self, p50/p95 and self share of wall-clock."""
        header = (
            f"{'process':<8} {'span':<34} {'count':>9} {'total_s':>9} {'self_s':>9} "
            f"{'p50_ms':>9} {'p95_ms':>9} {'share':>7}"
        )
        lines = [header, "-" * len(header)]
        ordered = sorted(self.rows.items(), key=lambda item: (item[0][1], item[0][0]))
        for (role, name), row in ordered:
            durations = row["durations"]
            p50 = f"{percentile(durations, 50) * 1e3:9.2f}" if durations else f"{'-':>9}"
            p95 = f"{percentile(durations, 95) * 1e3:9.2f}" if durations else f"{'-':>9}"
            share = row["self"] / wall if wall > 0 else 0.0
            lines.append(
                f"{role:<8} {name:<34} {row['count']:>9} {row['total']:>9.3f} "
                f"{row['self']:>9.3f} {p50} {p95} {share:>7.1%}"
            )
        return "\n".join(lines)
