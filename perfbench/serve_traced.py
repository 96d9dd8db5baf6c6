"""Traced server launcher: ``python3 serve_traced.py <store dir> <trace out>``.

Installs the layer wrappers of :mod:`layertrace`, then serves the store
exactly as ``python -m repro serve <dir> --port 0`` does (the same
``open_store`` + ``repro.server.run_server`` calls and the same ready
line).  On SIGTERM the server drains and flushes; the spans, the
coalescer's accounting and the store's probe counters are then written to
``<trace out>``.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import Tracer, install_layers  # noqa: E402


def main(path: str, out: str) -> int:
    tracer = Tracer()
    install_layers(tracer)
    from repro.api import open_store
    from repro.server import run_server

    def ready(host: str, port: int) -> None:
        print(f"serving {path} on {host}:{port} (coalescing; traced)", flush=True)

    with open_store(path=path) as db:
        server = asyncio.run(run_server(db, "127.0.0.1", 0, on_ready=ready))
        info = server.info()
        counters = db.stats.counters()
    tracer.dump(out, {"coalescer": info, "counters": counters})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
