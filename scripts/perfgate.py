#!/usr/bin/env python
"""CI's performance gate: one ``perfbench`` run against the committed baseline.

Reads the last line of ``python perfbench/run.py --workload <name> --seed 1
--seconds 2`` output (the JSON result) and ``scripts/perfgate_baseline.json``,
and fails when the run

* reports ``correct: false``;
* has more ``failed`` operations than the baseline; or
* is worse than the baseline on a gated metric by more than that metric's
  ``bound`` in ``BENCHMARK.json``, in its ``better`` direction.

Only the metrics in :data:`GATED` are compared.  Each repeats exactly
between runs at one seed (``served``'s ``write_amp`` moves by up to ~0.1 %), so
any move past a bound is the program's, not the machine's.  Timings and
``peak_rss_mb`` are printed but never gated: on shared runners they swing
wider than their bounds between identical runs.

Usage::

    python perfbench/run.py --workload ingest --seed 1 --seconds 2 > ingest.txt
    python scripts/perfgate.py ingest ingest.txt
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = Path(__file__).resolve().with_name("perfgate_baseline.json")

GATED = (
    "ok_ratio",
    "point_fpr",
    "range_fpr",
    "filter_bits_per_key",
    "write_amp",
    "space_amp",
)


def load_bounds() -> dict[str, dict]:
    """``{metric: {"bound": ..., "better": ...}}`` from ``BENCHMARK.json``."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def last_result(output: str) -> dict:
    """The JSON object on the last non-empty line of ``run.py`` output."""
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench output is empty")
    return json.loads(lines[-1])


def check(result: dict, baseline: dict, bounds: dict[str, dict]) -> list[str]:
    """Every way ``result`` fails the gate against one workload's baseline."""
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, not true")
    if result["failed"] > baseline["failed"]:
        problems.append(
            f"{result['failed']} failed operations (baseline {baseline['failed']})"
        )
    for name in GATED:
        base = baseline["metrics"][name]
        got = result["metrics"][name]["value"]
        bound, better = bounds[name]["bound"], bounds[name]["better"]
        if better == "lower":
            worse = got > base * (1 + bound)
        else:
            worse = got < base * (1 - bound)
        if worse:
            problems.append(
                f"{name} {got:.6g} is worse than baseline {base:.6g} "
                f"by more than {bound:.0%} ({better} is better)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="perfbench workload name")
    parser.add_argument("output", type=Path, help="file holding run.py's output")
    args = parser.parse_args(argv)

    result = last_result(args.output.read_text())
    baseline = json.loads(BASELINE.read_text())["workloads"][args.workload]
    for name, metric in sorted(result["metrics"].items()):
        tag = "gated" if name in GATED else "info "
        base = baseline["metrics"].get(name)
        ref = f"  (baseline {base:.6g})" if base is not None else ""
        print(f"{tag} {name:>20} {metric['value']:12.6g} {metric['unit']}{ref}")
    problems = check(result, baseline, load_bounds())
    for problem in problems:
        print(f"FAIL {args.workload}: {problem}")
    if not problems:
        print(f"ok   {args.workload}: {len(GATED)} gated metrics within bounds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
