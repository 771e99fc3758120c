"""Checks of the benchmark itself: names, repeatable counts, the traced run.

    python3 -m pytest -q perfbench/test_counts.py

Takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MEASURED_UNITS = {"ms", "s", "fraction"}


def _run(workload: str, seed: int, trace: int, seconds: float = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = _run(workload, 5, 1), _run(workload, 5, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] not in MEASURED_UNITS}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("transforms", 3, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_stack_counts_match_the_adapter_shapes():
    metrics = {k: v["value"] for k, v in _run("stack", 9, 1)["metrics"].items()}
    # two adapter blocks at 16x32x32: 3x3, 5x5, 7x7, agg 1x1 and proj 1x1 each
    per_block = 2 * 16 * 16 * (9 + 25 + 49 + 1 + 1) * 32 * 32
    assert metrics["tensor.conv2d.calls"] == 10
    assert metrics["tensor.conv2d.gflop"] == pytest.approx(2 * per_block / 1e9)
    # style: 1 forward and 1 inverse FFT; cross-modal: 1 + 1; hf_shift summary: 2 forward
    assert metrics["spectral.bins"] == 6 * 16 * 32 * 32
    assert metrics["tensorfile.read_tensor.bytes"] == 12 + 3 * 8 + 16 * 32 * 32 * 8
