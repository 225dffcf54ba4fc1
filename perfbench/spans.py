"""Span tracing for the benchmark's traced pass, installed from outside the library.

``install`` wraps the public entry points of each layer (``Study.run``,
``run_plan``, ``Solver.solve``, ``StreamSimulator.run``, the checkpoint and
memo stores, ...) by monkeypatching them in the running process; nothing in
``src/`` knows it is traced.  A wrapped call records a span -- name, start,
end, self time, span id, parent span id, process id -- in memory, and adds
deterministic counts read from the call's arguments or result (simulated
events, heuristic iterations, memo hits, ...).  Very frequent calls (the
split evaluator, memo lookups) are aggregated per name instead of kept one
by one, so the trace stays small; their time still counts as child time of
the enclosing span.

Pool workers are reached through the worker initializer the process-pool
backend looks up at pool creation: the traced process swaps it for
``worker_init``, which installs the same wrappers in the worker and writes
the worker's trace after every task.  Every process writes its trace to its
own JSON file under one directory; ``load_traces`` reads them back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "install", "uninstall", "worker_init", "load_traces"]


class Tracer:
    """Spans, aggregated hot calls and counters of one process."""

    def __init__(self, trace_dir: "str | Path", role: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.role = role
        self.pid = os.getpid()
        self.token = f"{role}-{self.pid}-{os.urandom(4).hex()}"
        self.spans: list = []
        self.hot: dict = {}
        self.counters: dict = {}
        self.samples: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def call(self, name, fn, args=(), kwargs=None, *, hot: bool = False, after=None):
        """Run ``fn`` inside a span; ``after(result, seconds)`` may add counts."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self_s = duration - frame[1]
            if hot:
                with self._lock:
                    entry = self.hot.get(name)
                    if entry is None:
                        entry = self.hot[name] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_s
            else:
                self.spans.append(
                    (name, start, end, self_s, span_id,
                     None if parent is None else parent[0], self.pid)
                )
        if after is not None:
            after(result, duration)
        return result

    def dump(self) -> Path:
        """Write this process's trace (atomically replacing an earlier dump)."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"trace-{self.token}.json"
        with self._lock:
            payload = {
                "role": self.role,
                "pid": self.pid,
                "spans": list(self.spans),
                "hot": {name: list(entry) for name, entry in self.hot.items()},
                "counters": dict(self.counters),
                "samples": {name: list(values) for name, values in self.samples.items()},
            }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return path


_ORIGINALS: list = []  # (owner, attribute, original) in install order


def _patch(owner, attribute: str, make_wrapper) -> None:
    """Replace ``owner.attribute`` and every ``repro`` module alias of it."""
    original = getattr(owner, attribute)
    wrapper = make_wrapper(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attribute, wrapper)
    _ORIGINALS.append((owner, attribute, original))
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is owner or not name.startswith("repro"):
            continue
        if getattr(module, attribute, None) is original:
            setattr(module, attribute, wrapper)
            _ORIGINALS.append((module, attribute, original))


def _span(tracer: Tracer, name, *, hot: bool = False, after=None):
    """Wrapper factory: every call becomes a span called ``name``.

    ``name`` may be a callable of the call's arguments, for spans named after
    the object they run on (``heuristics.H2``).
    """

    def make(original):
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            post = None
            if after is not None:
                post = functools.partial(after, args)
            return tracer.call(label, original, args, kwargs, hot=hot, after=post)

        return wrapper

    return make


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points in this process."""
    import scipy.optimize

    from repro import api
    from repro.core import evaluator
    from repro.experiments import backends, memo, runner, store, validation
    from repro.generators import workload
    from repro.simulation import engine
    from repro.solvers import base

    count = tracer.count

    # -- api, runner, generators ------------------------------------------------
    _patch(api.Study, "run", _span(tracer, "api.study_run"))
    _patch(runner, "run_plan", _span(tracer, "runner.run_plan"))
    _patch(backends.WorkUnit, "execute", _span(
        tracer, "runner.unit", after=lambda args, result, s: count("runner.units")))
    _patch(workload, "generate_configuration_at", _span(
        tracer, "generators.configuration",
        after=lambda args, result, s: count("generators.calls")))
    _patch(workload.Configuration, "problem", _span(
        tracer, "generators.problem",
        after=lambda args, result, s: count("generators.calls")))

    # -- solvers and heuristics -------------------------------------------------
    def solve_name(solver, *args, **kwargs):
        layer = "solvers" if solver.exact else "heuristics"
        return f"{layer}.{solver.name}"

    def after_solve(args, result, seconds):
        if not args[0].exact:
            count("heuristics.calls")
            count("heuristics.iterations", int(result.iterations))

    _patch(base.Solver, "solve", _span(tracer, solve_name, after=after_solve))

    def after_milp(args, result, seconds):
        count("solvers.milp_calls")
        nodes = getattr(result, "mip_node_count", None)
        if nodes is not None:
            count("solvers.milp_nodes", int(nodes))

    _patch(scipy.optimize, "milp", _span(tracer, "solvers.highs", after=after_milp))

    # -- core.evaluator (hot: aggregated, not kept span by span) ----------------
    def scored(rows_of, batched: bool):
        def after(args, result, seconds):
            count("evaluator.rows", rows_of(args))
            if batched:
                count("evaluator.batch_calls")
        return after

    def memo_aware(label):
        def make(original):
            def wrapper(self, *args, **kwargs):
                hits = self.cache_hits
                result = tracer.call(label, original, (self, *args), kwargs, hot=True)
                count("evaluator.rows")
                count("evaluator.cache_hits", self.cache_hits - hits)
                return result
            return wrapper
        return make

    split_evaluator = evaluator.SplitEvaluator
    _patch(split_evaluator, "evaluate", memo_aware("evaluator.evaluate"))
    _patch(split_evaluator, "score_exchange", memo_aware("evaluator.score_exchange"))
    _patch(split_evaluator, "evaluate_batch", _span(
        tracer, "evaluator.evaluate_batch", hot=True,
        after=scored(lambda args: len(args[1]), True)))
    _patch(split_evaluator, "score_exchanges", _span(
        tracer, "evaluator.score_exchanges", hot=True,
        after=scored(lambda args: len(args[1]), True)))
    _patch(split_evaluator, "reset", _span(
        tracer, "evaluator.reset", hot=True, after=scored(lambda args: 1, False)))

    # -- backends ------------------------------------------------------------
    def backend_run(original):
        def run(self, *args, **kwargs):
            stream = original(self, *args, **kwargs)
            start = time.perf_counter()
            first = True
            try:
                while True:
                    try:
                        item = tracer.call("backends.wait", next, (stream,))
                    except StopIteration:
                        return
                    if first:
                        tracer.sample("backends.first_result_s", time.perf_counter() - start)
                        first = False
                    count("backends.units")
                    yield item
            finally:
                stream.close()
        return run

    _patch(backends.SerialBackend, "run", backend_run)
    _patch(backends.ProcessPoolBackend, "run", backend_run)
    # looked up by ProcessPoolBackend.run at pool creation and pickled by
    # reference into each worker, so it must stay a plain partial
    _ORIGINALS.append((backends, "_initialize_worker", backends._initialize_worker))
    backends._initialize_worker = functools.partial(worker_init, str(tracer.trace_dir))

    # -- validation and simulation ----------------------------------------------
    def after_unit(args, result, seconds):
        count("validation.units")
        count("validation.cells", len(result))

    _patch(validation, "run_validation", _span(tracer, "validation.run"))
    _patch(validation.ValidationUnit, "execute", _span(
        tracer, "validation.unit", after=after_unit))
    _patch(validation.ValidationChunk, "execute", _span(
        tracer, "validation.unit", after=after_unit))

    def after_simulation(args, report, seconds):
        counters = report.metadata.get("event_counters", {})
        count("simulation.runs")
        count("simulation.events", int(counters.get("heappop", 0)))
        count("simulation.heap_ops",
              int(counters.get("heappush", 0)) + int(counters.get("heappop", 0)))
        count("simulation.dispatch_scans", int(counters.get("dispatch_scan", 0)))

    _patch(engine.StreamSimulator, "run", _span(
        tracer, "simulation.run", after=after_simulation))

    # -- experiments.store ------------------------------------------------------
    def store_append(original):
        def append(self, unit, records):
            before = _size(self.path)
            result = tracer.call("store.append", original, (self, unit, records))
            count("store.appends")
            count("store.bytes", _size(self.path) - before)
            return result
        return append

    _patch(store.JsonlCheckpointStore, "append", store_append)
    # initialize reads an existing checkpoint back (or starts a fresh file)
    _patch(store.JsonlCheckpointStore, "initialize", _span(tracer, "store.load"))
    _patch(store, "load_sweep_result", _span(tracer, "store.load"))
    _patch(validation, "load_campaign", _span(tracer, "store.load"))

    # -- experiments.memo -------------------------------------------------------
    def memo_call(kind, hot):
        def make(original):
            def wrapper(self, *args, **kwargs):
                # the store reads its file on first use: that call is the load
                loading = self._entries is None
                label = "memo.load" if loading else f"memo.{kind}"
                result = tracer.call(label, original, (self, *args), kwargs,
                                     hot=hot and not loading)
                if loading:
                    count("memo.loads")
                    count("memo.bytes", _size(self.path))
                if kind == "lookup":
                    count("memo.lookups")
                    count("memo.hits" if result is not None else "memo.misses")
                else:
                    count("memo.puts")
                return result
            return wrapper
        return make

    _patch(memo.ResultMemoStore, "lookup", memo_call("lookup", True))
    _patch(memo.ResultMemoStore, "put", memo_call("put", False))

    # -- service (server side; a no-op where the service is never imported) ----
    if "repro.service.server" in sys.modules:
        from repro.service import server

        def request_name(handler, *args, **kwargs):
            return f"service.http.{_route(handler.command, handler.path)}"

        for method in ("do_GET", "do_POST"):
            _patch(server._RequestHandler, method, _span(tracer, request_name))
    return tracer


def uninstall() -> None:
    """Restore every patched attribute, newest first."""
    while _ORIGINALS:
        owner, attribute, original = _ORIGINALS.pop()
        setattr(owner, attribute, original)


def _route(method: str, path: str) -> str:
    """The route template of a request, as a span-name suffix."""
    parts = path.split("?", 1)[0].strip("/").split("/")
    if parts[:2] == ["v1", "studies"]:
        if len(parts) == 2:
            return "submit" if method == "POST" else "list"
        return "results" if parts[-1] == "results" else "status"
    return parts[0] or "root"


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def worker_init(trace_dir: str, plan, units=None) -> None:
    """Pool-worker initializer of a traced run.

    Installs the wrappers in the worker, hands over to the backend's own
    initializer, and dumps the worker's trace after every task so that
    nothing is lost when the pool shuts the worker down.
    """
    from repro.experiments import backends

    initialize = backends._initialize_worker
    tracer = install(Tracer(trace_dir, "worker"))
    original = backends._execute_indexed

    def execute_indexed(position, **kwargs):
        try:
            return tracer.call("backends.task", original, (position,), kwargs)
        finally:
            tracer.dump()

    functools.update_wrapper(execute_indexed, original)
    # the task function is unpickled by name after this initializer returns,
    # so the worker runs the wrapper
    backends._execute_indexed = execute_indexed
    initialize(plan, units)


def load_traces(trace_dir: "str | Path") -> list[dict]:
    """Every process trace written under ``trace_dir``."""
    traces = []
    for path in sorted(Path(trace_dir).glob("trace-*.json")):
        traces.append(json.loads(path.read_text()))
    return traces
