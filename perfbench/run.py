"""Run one freqadapt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stack --seed 1 --seconds 45 --trace 0

Workloads: ``stack`` and ``transforms`` (see README.md). Each
run is a closed loop with one client in a worker process whose BLAS and
OpenMP threads are pinned to 1. With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; set-up is measured in several
processes and ``setup_s`` is their median. Set-up and request times are
scaled to a reference host speed (see ``at_reference``). With ``--trace 1`` it prints the
per-layer metrics of BENCHMARK.json from one traced worker. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 11  # worker processes whose set-up is timed; the last one also runs the loop
DEADLINE_S = 170.0  # a run must end within 180 s
P90_MIN_SAMPLES = 100  # p90 has at least ten samples beyond it
CALIB_REF_MS = 5.0  # worker.calibrate() on a 2-vCPU Intel Xeon VM in its fast phase
CALIB_NEIGHBOURS = 2  # a request is scaled by the median calibration of itself and 2 on each side
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("FREQADAPT_THREADS", None)  # the package's default, sequential channels
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args, seconds: float, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another worker")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def low_decile(sorted_ms: list[float]) -> float:
    """10th percentile, interpolated between samples; the one sample if there is one."""
    if len(sorted_ms) == 1:
        return sorted_ms[0]
    return statistics.quantiles(sorted_ms, n=10, method="inclusive")[0]


def at_reference(times: list[float], calibs_ms: list[float]) -> list[float]:
    """Times as they would be at the reference host speed, sorted.

    Each time is multiplied by CALIB_REF_MS over the time of the worker's
    calibration loop measured next to it: just before a request, and on
    both sides of a set-up. The host's speed drifts by half and more over
    minutes; the ratio cancels that drift, and a change to the program
    still moves it in full, since the loop uses no freqadapt code.
    """
    return sorted(t * CALIB_REF_MS / cal for t, cal in zip(times, calibs_ms))


def smoothed(calibs_ms: list[float]) -> list[float]:
    """Each calibration replaced by the median of it and its neighbours.

    One 5-ms timing jitters more than the host's speed drifts between a
    few requests, so the median of neighbouring timings tracks the speed
    better.
    """
    k = CALIB_NEIGHBOURS
    return [statistics.median(calibs_ms[max(0, i - k):i + k + 1]) for i in range(len(calibs_ms))]


def end_to_end(runs: list[dict], failed: int, attempted: int) -> tuple[dict, list[str]]:
    """End-to-end metric values and the lines that print them."""
    last = runs[-1]
    lat = sorted(last["latencies_ms"])
    n = len(lat)
    setups = [r["setup_s"] for r in runs]
    values = {
        "setup_s": statistics.median(at_reference(setups, [r["setup_calib_ms"] for r in runs])),
        "peak_rss_mb": last["peak_rss_mb"],
    }
    lines = []
    if n:
        scaled = at_reference(last["latencies_ms"], smoothed(last["calibs_ms"]))
        values["scaled_latency_p10_ms"] = low_decile(scaled)
        lines += [
            f"scaled_latency_p10_ms {values['scaled_latency_p10_ms']:.6g} ms (n={n}, "
            f"calibration loop median {statistics.median(last['calibs_ms']):.4g} ms, "
            f"reference {CALIB_REF_MS:g} ms)",
            f"latency_p10_ms {low_decile(lat):.6g} ms (n={n})",
            f"latency_p50_ms {statistics.median(lat):.6g} ms (n={n})",
        ]
    if n >= P90_MIN_SAMPLES:
        lines.append(f"latency_p90_ms {statistics.quantiles(lat, n=10)[-1]:.6g} ms (n={n})")
    else:
        lines.append(f"latency_p90_ms not reported: {n} passed requests, fewer than {P90_MIN_SAMPLES}")
    lines += [
        f"throughput_rps {last['throughput_rps']:.6g} 1/s",
        f"setup_s {values['setup_s']:.6g} s (median of {len(setups)} at reference speed; "
        + "as measured: " + ", ".join(f"{s:.4g}" for s in setups) + ")",
        f"peak_rss_mb {values['peak_rss_mb']:.6g} MB",
        f"error_rate {failed / attempted:.6g} ({failed}/{attempted}, warm-up requests included)",
    ]
    return values, lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "freqadapt" / "__init__.py").is_file():
        print(f"error: no freqadapt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    try:
        if args.trace:
            runs = [run_worker(args, args.seconds, env, deadline)]
        else:
            runs = [run_worker(args, 0, env, deadline) for _ in range(SETUPS - 1)]
            runs.append(run_worker(args, args.seconds, env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(last["env"], sort_keys=True))
    if args.trace:
        values = last["layers"]
        wanted = spec["per_layer"]
        print(f"spans written to {last['spans_file']}")
        lines = [f"{m['name']} {values[m['name']]:.6g} {m['unit']}" for m in wanted
                 if m["name"] in values]
    else:
        values, lines = end_to_end(runs, failed, attempted)
        wanted = spec["end_to_end"]
    for line in lines:
        print(f"{args.workload} {line}")
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"error: no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
