"""Run ``repro-cloud serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_traced.py TRACE_DIR serve --store-root ...``;
the arguments after ``TRACE_DIR`` go to the ``repro-cloud`` command line
unchanged.  The server's trace, and through the pool initializer those of its
workers, are written under ``TRACE_DIR`` when the server drains.
"""

from __future__ import annotations

import sys


def main() -> int:
    import spans
    from repro.cli import main as cli_main
    from repro.service import server  # noqa: F401 -- lets install wrap the HTTP handler

    tracer = spans.install(spans.Tracer(sys.argv[1], "server"))
    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
