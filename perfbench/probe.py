"""Machine-speed probe: times a fixed pure-Python loop while a pass runs.

Usage: ``python perfbench/probe.py OUT``.  Every ``INTERVAL`` seconds the
probe runs ``LOOP`` iterations of a fixed loop and records how many such
loops per second it achieved; on SIGTERM it writes the list of rates to
``OUT`` as JSON and exits.  Its duty cycle is about 1%, so it barely loads
the machine it measures.

The benchmark runs on shared machines whose CPU speed drifts by 10-20%
between 20-second windows.  Dividing a pass's wall-clock by the speed the
probe saw over the same window removes most of that drift from the
end-to-end timings (see ``perfbench/README.md``).
"""

from __future__ import annotations

import json
import signal
import sys
import time

INTERVAL = 0.2
LOOP = 20000


def loop() -> int:
    total = 0
    for value in range(LOOP):
        total += value * value
    return total


def main() -> int:
    out = sys.argv[1]
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    rates: list[float] = []
    while not stop:
        time.sleep(INTERVAL)
        start = time.perf_counter()
        loop()
        rates.append(1.0 / (time.perf_counter() - start))
    with open(out, "w") as handle:
        json.dump(rates, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
