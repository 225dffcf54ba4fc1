"""The HTTP layer: a stdlib threaded server wired to the router and metrics.

:class:`StudyService` is :class:`http.server.ThreadingHTTPServer` holding the
job manager, metrics and router; requests are handled on daemon threads with
a per-request socket timeout, latencies measured with the sanctioned
:func:`repro.utils.timing.timed` helper, and every response rendered as
canonical JSON.  :func:`serve` is the ``repro-cloud serve`` entry point: it
recovers journaled jobs, runs the server on a background thread, and turns
SIGTERM/SIGINT into a graceful drain — stop accepting requests, let running
jobs reach their next (fsynced) unit boundary, exit — so a restarted server
resumes every interrupted study from its checkpoints.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from ..utils.timing import timed
from .errors import BadRequest, PayloadTooLarge, ServiceError
from .jobs import JobManager
from .metrics import ServiceMetrics
from .routes import Router

__all__ = ["StudyService", "serve"]

DEFAULT_REQUEST_TIMEOUT = 30.0

#: Largest request body the service reads; a StudySpec is a few KiB.
MAX_BODY_BYTES = 1 << 20


class StudyService(ThreadingHTTPServer):
    """The service's HTTP server: one router, one job manager, one metrics hub.

    Pass ``("127.0.0.1", 0)`` to bind an ephemeral port (``.port`` reports
    the bound one) — the tests and the benchmark run against port 0 so they
    never collide.
    """

    daemon_threads = True

    def __init__(
        self,
        address: "tuple[str, int]",
        *,
        manager: JobManager,
        metrics: "ServiceMetrics | None" = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        self.manager = manager
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.router = Router(manager, self.metrics)
        self.request_timeout = float(request_timeout)
        super().__init__(address, _RequestHandler)

    @property
    def port(self) -> int:
        return int(self.server_address[1])


class _RequestHandler(BaseHTTPRequestHandler):
    """One request: route template in, canonical JSON out, latency observed."""

    server: StudyService
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming contract
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming contract
        self._handle("POST")

    def _handle(self, method: str) -> None:
        # a stuck client may not hold a handler thread forever
        self.connection.settimeout(self.server.request_timeout)
        route = self.path
        with timed() as clock:
            try:
                body = self._read_body() if method == "POST" else None
                status, payload, route = self.server.router.dispatch(
                    method, self.path, body
                )
            except ServiceError as exc:
                status, payload = exc.status, {"error": exc.code, "message": str(exc)}
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # a handler bug must not kill the server
                status, payload = 500, {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
        self.server.metrics.observe_request(route, status, clock[0])
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            return  # client gone or socket timed out: nothing left to answer

    def _read_body(self) -> bytes:
        text = self.headers.get("Content-Length", "0").strip()
        if not (text.isascii() and text.isdigit()):
            # the body's extent is unknown, so the connection cannot be reused
            self.close_connection = True
            raise BadRequest(f"invalid Content-Length header {text!r}")
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body must not parse as a request
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length > 0 else b""

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default per-request stderr log; /metrics covers it."""


def serve(
    *,
    store_root,
    host: str = "127.0.0.1",
    port: int = 8080,
    jobs: int = 2,
    workers: "int | None" = None,
    chunk_policy: "str | None" = None,
    validation_shards: "int | None" = None,
    memo_path=None,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    echo: "Callable[[str], None] | None" = None,
) -> int:
    """Run the service until SIGTERM/SIGINT; the ``repro-cloud serve`` body.

    Startup prints ``listening on http://HOST:PORT`` (after binding, so
    ``--port 0`` reports the real port).  On signal the server stops
    accepting, running jobs abort at their next checkpointed unit boundary,
    and the process exits 0 — everything needed to resume lives in the
    store root.
    """
    if echo is None:
        echo = lambda message: print(message, flush=True)  # noqa: E731
    metrics = ServiceMetrics()
    manager = JobManager(
        store_root,
        jobs=jobs,
        workers=workers,
        chunk_policy=chunk_policy,
        validation_shards=validation_shards,
        memo_path=memo_path,
        metrics=metrics,
    )
    recovered = manager.recover()
    server = StudyService(
        (host, int(port)),
        manager=manager,
        metrics=metrics,
        request_timeout=request_timeout,
    )
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    echo(
        f"repro-cloud serve: listening on http://{host}:{server.port} "
        f"(store root {manager.store_root})"
    )
    if recovered:
        echo(f"repro-cloud serve: recovered {recovered} journaled job(s)")
    stop.wait()
    echo("repro-cloud serve: draining (in-flight units checkpoint, then exit)")
    server.shutdown()
    thread.join()
    server.server_close()
    manager.shutdown()
    return 0
