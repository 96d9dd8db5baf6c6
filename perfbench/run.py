"""Benchmark entry point: ``python3 perfbench/run.py --workload <name> ...``.

Run from the root of a checkout.  Prints a detail line (environment,
sizes, sample counts) and then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once with every layer wrapped, and reports the per-layer
metrics plus the tracing overhead.  Exits non-zero on any wrong answer,
and before measuring anything when the program's sources are missing.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import END_TO_END_UNITS, environment, loadavg  # noqa: E402
from layertrace import PER_LAYER_UNITS, Tracer, install_layers, layer_metrics  # noqa: E402

WORKLOADS = ("ingest", "served")


class Context:
    """What a workload gets: its seed, size, scratch directory, trace flag."""

    def __init__(self, args: argparse.Namespace, root: Path, work: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = args.scale
        self.flip = args.flip_answers
        self.root = root
        self.work = work
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        """A new, not yet existing directory under the run's scratch space."""
        self._dirs += 1
        return self.work / f"{prefix}-{self._dirs}"

    def traced(self, run_pass, rate, coalescer=None) -> dict:
        """Untraced pass, then the same pass traced: the per-layer result.

        ``run_pass()`` returns the pass's measurements (with ``checker``
        and ``counters``); ``rate(m)`` is its timed throughput.
        """
        plain = run_pass()
        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = run_pass()
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - tracer.started
        metrics = layer_metrics(
            tracer.spans, tracer.counters, traced["counters"], coalescer, wall
        )
        metrics["trace.traced_ops_per_s"] = rate(traced)
        metrics["trace.overhead"] = rate(plain) / rate(traced)
        checker = plain["checker"]
        checker.attempted += traced["checker"].attempted
        checker.failed += traced["checker"].failed
        return {"metrics": metrics, "checker": checker, "detail": {}}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test knobs: a smaller data set, and answers deliberately corrupted
    # before checking (proves that a wrong answer counts as a failure).
    p.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    p.add_argument("--flip-answers", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root} holds no program sources (src/repro); run from "
            "the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    module = importlib.import_module(args.workload)
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = environment(root)
    env["loadavg_start"] = loadavg()
    try:
        result = module.run(Context(args, root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_end"] = loadavg()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    checker = result["checker"]
    missing = set(units) - set(result["metrics"])
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    correct = checker.failed == 0
    print(json.dumps({"environment": env, "detail": result["detail"]}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(checker.attempted),
                "failed": int(checker.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
