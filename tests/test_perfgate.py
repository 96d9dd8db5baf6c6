"""CI's performance gate (``scripts/perfgate.py``) as a library.

The gate is CI tooling, so its failure modes are tested directly on
results built from the committed baseline: a self-comparison passes, an
FPR worse by more than its ``BENCHMARK.json`` bound fails, an improvement
passes, ``correct: false`` and extra failed operations fail, and a timing
never gates however far it moves.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "perfgate.py"
WORKLOADS = ("ingest", "served")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perfgate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline(gate):
    return json.loads(gate.BASELINE.read_text())


def _result(baseline, workload):
    """A run.py result line that matches ``workload``'s baseline exactly."""
    base = baseline["workloads"][workload]
    metrics = {name: {"value": value, "unit": ""} for name, value in base["metrics"].items()}
    metrics["ops_per_s"] = {"value": 1000.0, "unit": "1/s"}
    metrics["p99_ms"] = {"value": 10.0, "unit": "ms"}
    return {"correct": True, "attempted": 100, "failed": base["failed"], "metrics": metrics}


def _run(gate, tmp_path, workload, result):
    out = tmp_path / f"{workload}.txt"
    out.write_text('{"detail": "line"}\n' + json.dumps(result) + "\n")
    return gate.main([workload, str(out)])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_comparison_passes(gate, baseline, tmp_path, workload):
    assert _run(gate, tmp_path, workload, _result(baseline, workload)) == 0


@pytest.mark.parametrize("metric", ["point_fpr", "range_fpr"])
def test_fpr_worse_than_its_bound_fails(gate, baseline, tmp_path, metric):
    bound = gate.load_bounds()[metric]["bound"]
    result = _result(baseline, "ingest")
    within = copy.deepcopy(result)
    within["metrics"][metric]["value"] *= 1 + bound / 2
    assert _run(gate, tmp_path, "ingest", within) == 0
    result["metrics"][metric]["value"] *= 1 + 2 * bound
    assert _run(gate, tmp_path, "ingest", result) == 1


def test_improvement_passes(gate, baseline, tmp_path):
    result = _result(baseline, "served")
    result["metrics"]["point_fpr"]["value"] /= 2
    result["metrics"]["write_amp"]["value"] *= 0.5
    result["metrics"]["filter_bits_per_key"]["value"] *= 1.5
    assert _run(gate, tmp_path, "served", result) == 0


def test_lower_bits_per_key_fails(gate, baseline, tmp_path):
    result = _result(baseline, "ingest")
    result["metrics"]["filter_bits_per_key"]["value"] *= 0.5
    assert _run(gate, tmp_path, "ingest", result) == 1


def test_incorrect_run_fails(gate, baseline, tmp_path):
    result = _result(baseline, "ingest")
    result["correct"] = False
    assert _run(gate, tmp_path, "ingest", result) == 1


def test_more_failed_operations_than_baseline_fails(gate, baseline, tmp_path):
    result = _result(baseline, "served")
    result["failed"] += 1
    assert _run(gate, tmp_path, "served", result) == 1


@pytest.mark.parametrize(
    "metric, factor",
    [("ops_per_s", 1e-3), ("p99_ms", 1e3), ("p50_ms", 1e3), ("setup_s", 1e3),
     ("peak_rss_mb", 1e3)],
)
def test_timings_and_memory_are_never_gated(gate, baseline, tmp_path, metric, factor):
    assert metric not in gate.GATED
    result = _result(baseline, "served")
    result["metrics"].setdefault(metric, {"value": 1.0, "unit": ""})
    result["metrics"][metric]["value"] *= factor
    assert _run(gate, tmp_path, "served", result) == 0


def test_committed_baseline_names_every_gated_metric(gate, baseline):
    assert (baseline["seed"], baseline["seconds"]) == (1, 2)
    bounds = gate.load_bounds()
    for workload in WORKLOADS:
        base = baseline["workloads"][workload]
        assert base["failed"] == 0
        assert set(base["metrics"]) == set(gate.GATED)
        for name in gate.GATED:
            assert name in bounds
            assert base["metrics"][name] > 0


def test_empty_output_is_an_error(gate):
    with pytest.raises(ValueError, match="empty"):
        gate.last_result("\n\n")
