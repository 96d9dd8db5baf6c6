"""Perf smoke for the batched range-query engine (CI tooling).

Runs ``benchmarks/bench_ops_rangebatch.py --quick``: asserts the batch
speedup clears the script's quick floor, that the results are
bit-identical, that a 1-row ``scan_nonempty_many`` at 28 runs costs
at most ``MAX_RUN_COST_RATIO`` times its cost at 1 run, and that the same
scan right after a 16-key ``put_many`` costs at most
``MAX_WRITE_SCAN_COST_RATIO`` times its cost with no write before it.
Writes its JSON to a temp path so it never clobbers the
repo-root ``BENCH_rangebatch.json`` (that trajectory artifact holds the
*full*-mode run; refresh it with
``PYTHONPATH=src python benchmarks/bench_ops_rangebatch.py``).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

pytestmark = [pytest.mark.bench, pytest.mark.slow]

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_ops_rangebatch.py"


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_ops_rangebatch", BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_quick_mode_batch_beats_scalar(tmp_path):
    bench = _load_bench_module()
    out = tmp_path / "BENCH_rangebatch.json"
    exit_code = bench.main(["--quick", "--output", str(out)])
    assert exit_code == 0, "quick perf smoke failed (speedup below floor or mismatch)"
    result = json.loads(out.read_text())
    assert result["bit_identical"] is True
    assert result["batch_qps"] >= result["scalar_qps"]
    assert result["run_answers_identical"] is True
    assert result["run_cost_ratio"] <= bench.MAX_RUN_COST_RATIO
    assert result["write_scan_cost_ratio"] <= bench.MAX_WRITE_SCAN_COST_RATIO
    assert result["mode"] == "quick"
