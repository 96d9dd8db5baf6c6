#!/usr/bin/env python
"""Bench-regression gate: freshly generated BENCH_*.json vs the committed ones.

CI's perf-smoke job regenerates every operational benchmark in ``--quick``
mode; this script compares each generated file against the committed
repo-root artifact of the same name and fails the build when a *quality
regression* appears.  Machine speed and workload scale differ between the
committed (full, maintainer-machine) runs and CI smoke runs, so raw
throughput is never compared.  Two classes of field are:

* **acceptance booleans** — every boolean that is ``true`` in the
  committed artifact must still be ``true`` in the generated one
  (``bit_identical``, ``reopen_counters_identical``,
  ``compaction_bounds_runs``, per-row flags, ...).  Booleans are
  collected recursively, so new acceptance flags are guarded the moment
  a benchmark starts emitting them.
* **dimensionless ratios** — machine-independent quality metrics
  (speedups, slowdowns, write amplification, run counts) listed per
  benchmark in :data:`RATIO_GUARDS`, compared within ``--tolerance``
  in their *bad* direction only: a ``higher``-is-better ratio may not
  fall below ``committed / tolerance``; a ``lower``-is-better ratio may
  not rise above ``committed * tolerance``.

Usage::

    python scripts/check_bench.py --generated bench-artifacts
    python scripts/check_bench.py --generated bench-artifacts --tolerance 2.5
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# (dotted path pattern, direction); patterns match the flattened JSON
# paths of numeric scalars, list indices spelled out (fnmatch wildcards).
RATIO_GUARDS: dict[str, list[tuple[str, str]]] = {
    "pointbatch": [
        ("speedup", "higher"),
        ("filter_speedup", "higher"),
    ],
    "rangebatch": [
        ("speedup", "higher"),
    ],
    "shardedlsm": [],  # acceptance is boolean-only (exactness ladder)
    "store": [
        # identity flags (reopen_bit_identical, reopen_counters_identical,
        # answers_match_none, zlib_shrink_ok) carry exactness; this one
        # guards the compression win itself.
        ("codec_sweep.zlib_disk_shrink", "higher"),
    ],
    "wal": [
        # a dict keyed by shard count -> paths like batch_vs_off_slowdown.1
        ("batch_vs_off_slowdown.*", "lower"),
    ],
    "compaction": [
        ("policies.*.write_amp", "lower"),
        ("policies.*.final_runs", "lower"),
        ("policies.*.mean_runs_during_ingest", "lower"),
    ],
    "server": [
        # dimensionless wins of the coalescing front-end; raw QPS and
        # latency stay unguarded (machine-dependent).
        ("coalesce_qps_speedup", "higher"),
        ("engine_call_reduction", "higher"),
    ],
}


def flatten(obj, prefix: str = ""):
    """Yield ``(dotted_path, value)`` for every scalar in a JSON tree."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from flatten(value, f"{prefix}{key}." if prefix or key else key)
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from flatten(value, f"{prefix}{index}.")
    else:
        yield prefix.rstrip("."), obj


def flatten_dict(obj) -> dict:
    return dict(flatten(obj))


def check_file(name: str, committed: dict, generated: dict, tolerance: float):
    """All violations for one benchmark, as human-readable strings."""
    problems = []
    bench = committed.get("benchmark", name)
    if generated.get("benchmark") != bench:
        problems.append(
            f"benchmark name mismatch: committed {bench!r} vs generated "
            f"{generated.get('benchmark')!r}"
        )
        return problems

    committed_flat = flatten_dict(committed)
    generated_flat = flatten_dict(generated)

    # 1. acceptance booleans must not regress.
    for path, value in sorted(committed_flat.items()):
        if value is not True or path == "mode":
            continue
        got = generated_flat.get(path)
        if got is None:
            # Quick/full runs may shape rows differently (e.g. list
            # lengths); a missing flag is only a problem when the whole
            # key vanished everywhere.
            if not any(
                candidate.split(".")[-1] == path.split(".")[-1]
                and generated_flat[candidate] is True
                for candidate in generated_flat
            ):
                problems.append(f"{path}: acceptance flag missing from output")
            continue
        if got is not True:
            problems.append(f"{path}: was true in committed run, now {got!r}")

    # 2. guarded ratios must stay within tolerance in the bad direction.
    for pattern, direction in RATIO_GUARDS.get(bench, []):
        matched = False
        for path, value in sorted(committed_flat.items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if not fnmatch.fnmatch(path, pattern):
                continue
            matched = True
            got = generated_flat.get(path)
            if not isinstance(got, (int, float)) or isinstance(got, bool):
                problems.append(f"{path}: guarded ratio missing from output")
                continue
            if direction == "higher" and got < value / tolerance:
                problems.append(
                    f"{path}: {got:.3g} fell below committed {value:.3g} "
                    f"/ tolerance {tolerance:g}"
                )
            elif direction == "lower" and got > value * tolerance:
                problems.append(
                    f"{path}: {got:.3g} rose above committed {value:.3g} "
                    f"* tolerance {tolerance:g}"
                )
        if not matched:
            problems.append(
                f"guard pattern {pattern!r} matched nothing in the committed "
                "artifact (stale guard?)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--generated",
        type=Path,
        required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--committed",
        type=Path,
        default=REPO_ROOT,
        help=f"directory holding the committed artifacts (default: {REPO_ROOT})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        help="allowed ratio drift factor, bad direction only (default: 4.0 — "
        "quick CI runs vs committed full runs; tighten for full-vs-full)",
    )
    args = parser.parse_args(argv)

    committed_files = sorted(args.committed.glob("BENCH_*.json"))
    if not committed_files:
        print(f"no committed BENCH_*.json under {args.committed}")
        return 2

    failures = 0
    checked = 0
    for committed_path in committed_files:
        generated_path = args.generated / committed_path.name
        if not generated_path.is_file():
            print(f"MISSING {committed_path.name}: not generated by this run")
            failures += 1
            continue
        committed = json.loads(committed_path.read_text())
        generated = json.loads(generated_path.read_text())
        problems = check_file(
            committed_path.stem, committed, generated, args.tolerance
        )
        checked += 1
        if problems:
            failures += 1
            print(f"FAIL {committed_path.name}:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"ok   {committed_path.name}")

    print(
        f"bench gate: {checked} compared, {failures} failing "
        f"(tolerance {args.tolerance:g})"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
