"""Gauge sampler: ``python3 gauge.py <period seconds>``.

Prints ``ready``, then times the gauge kernel of :mod:`common` once every
period until SIGTERM, and then prints one ``<start> <CPU seconds>`` line
per sample (``start`` from ``time.perf_counter``, the system's monotonic
clock).
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import gauge_once  # noqa: E402


def main(period: float) -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    print("ready", flush=True)
    while not stopped:
        samples.append((time.perf_counter(), gauge_once()))
        time.sleep(period)
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1])))
