"""The benchmark's own tests, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "ingest": ["--scale", "0.05", "--seconds", "0.3"],
    "served": ["--scale", "0.05", "--seconds", "0.5"],
}

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def bench(workload: str, *extra: str, seed: int = 1, cwd: Path = ROOT):
    """Run the benchmark; returns (exit code, result line, detail line)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), *TINY[workload], *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_emits_every_declared_metric_with_its_unit(workload, trace):
    code, result, detail = bench(workload, "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    env = detail["environment"]
    for key in ("python", "numpy", "nproc", "source_sha256", "loadavg_start", "loadavg_end"):
        assert key in env


def test_same_seed_repeats_counts_exactly():
    exact = ["point_fpr", "range_fpr", "filter_bits_per_key", "write_amp", "space_amp"]
    runs = [bench("ingest") for _ in range(2)]
    (_, a, da), (_, b, db) = runs
    for name in exact:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert da["detail"]["counters"] == db["detail"]["counters"]
    assert a["attempted"] == b["attempted"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_a_different_seed_changes_the_inputs(workload):
    import importlib

    module = importlib.import_module(workload)
    first = module.make_inputs(1, 0.05, 0.3)
    second = module.make_inputs(2, 0.05, 0.3)
    again = module.make_inputs(1, 0.05, 0.3)
    keys = {"ingest": "base_keys", "served": "read_keys"}[workload]
    assert not (getattr(first, keys) == getattr(second, keys)).all()
    assert (getattr(first, keys) == getattr(again, keys)).all()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_an_injected_wrong_answer_is_a_failure(workload):
    code, result, _ = bench(workload, "--flip-answers", "1")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    code, result, _ = bench("ingest", cwd=tmp_path)
    assert code != 0
    assert result is None


def test_gauge_scales_each_timing_by_the_samples_near_it():
    import numpy as np
    from common import GAUGE_REFERENCE_S, local_factors

    ref = GAUGE_REFERENCE_S
    samples = np.array([[0.0, 2 * ref], [1.0, 2 * ref], [10.0, ref / 2]])
    factors = local_factors(samples, np.array([0.5, 10.2, 50.0]), 0.6)
    # Slow near 0.5 s, fast near 10 s; no sample near 50 s: all samples.
    assert factors.tolist() == [0.5, 2.0, 0.5]
