"""One benchmark process: set up a workload, run its closed loop, report JSON.

run.py starts this with BLAS threads pinned to 1 and ``src`` on the path.
Set-up time runs from the top of this file, before numpy or freqadapt
is imported, to the end of one warm-up request; a warm-up that
fails counts as a failed request. ``--seconds 0`` stops after set-up. With
``--trace 1`` untraced and traced requests alternate. Before each request
a fixed calibration loop is timed, so run.py can scale request times to a
reference host speed. The last line of stdout is one JSON object.
"""

import time

CALIB_ROUNDS = 20_000  # about 5 ms of pure Python on a 2-vCPU Intel Xeon VM


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast the host runs right now.

    The loop mixes 64-bit integers and uses nothing from freqadapt, so no
    change to the package moves it; only the host's speed does.
    """
    t0 = time.perf_counter_ns()
    x, acc, mask = 0, 0, (1 << 64) - 1
    for _ in range(CALIB_ROUNDS):
        x = (x + 0x9E3779B97F4A7C15) & mask
        acc ^= ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    return (time.perf_counter_ns() - t0) / 1e9


def _calibration_ms() -> float:
    """Median of three calibrations, in ms."""
    return sorted(calibrate() for _ in range(3))[1] * 1e3


# Set-up is bracketed by calibrations, which are not part of its time.
_CALIB_BEFORE_MS = _calibration_ms()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TRACED_FIRST = 1_000_000  # traced requests get fixed indices, so their seeds never depend on timing


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    from run import PINNED  # imported here, so set-up time does not include it

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_vars": {name: os.environ.get(name) for name in (*PINNED, "FREQADAPT_THREADS")},
        "workload": workload,
        "seed": seed,
    }


def timed_request(workload, i: int):
    """Run request ``i``; returns its output, whether it raised nothing, and its seconds."""
    t0 = time.perf_counter_ns()
    try:
        out, ok = workload.request(i), True
    except Exception:
        traceback.print_exc()
        out, ok = None, False
    return out, ok, (time.perf_counter_ns() - t0) / 1e9


def passes(workload, i: int, out, ok: bool) -> bool:
    """Check request ``i``'s output, outside the timed interval."""
    if not ok:
        return False
    try:
        return bool(workload.check(i, out))
    except Exception:
        traceback.print_exc()
        return False


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: the next request starts when the last is checked.

    A request starts only if it is expected to end within ``seconds``. Only
    the request itself is timed. Throughput counts every completed request,
    failed ones too; latencies are those of the requests that passed, each
    paired with the calibration time taken just before it. With a tracer,
    untraced and traced requests alternate, so drift in machine speed hits both sides alike; the wrappers
    are put in place and removed outside the timed interval. Traced requests
    get fixed indices, so their seeds never depend on timing.
    """
    sides = {False: _side(), True: _side()}
    plain_index, traced_index = 1, TRACED_FIRST
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n < (2 if tracer else 1) or time.perf_counter() - start + last <= seconds:
        traced = tracer is not None and n % 2 == 1
        if traced:
            i, traced_index = traced_index, traced_index + 1
            tracer.install()
            tracer.begin(i)
        else:
            i, plain_index = plain_index, plain_index + 1
        calib = calibrate()
        out, ok, last = timed_request(workload, i)
        if traced:
            tracer.end(int(last * 1e9))
            tracer.uninstall()
        ok = passes(workload, i, out, ok)
        out = None  # a live output would make every other request allocate elsewhere
        side = sides[traced]
        side["indices"].append(i)
        side["elapsed_s"] += last
        if ok:
            side["latencies"].append(last)
            side["calibs"].append(calib)
        else:
            side["failed"] += 1
        n += 1
    for side in sides.values():
        side["throughput_rps"] = len(side["indices"]) / side["elapsed_s"] if side["indices"] else 0.0
    return sides


def _side() -> dict:
    return {"indices": [], "latencies": [], "calibs": [], "failed": 0, "elapsed_s": 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import freqadapt

    if Path(freqadapt.__file__).resolve().parent != ROOT / "src" / "freqadapt":
        print(f"error: imported freqadapt from {freqadapt.__file__}, not from src/", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run(args, workdir) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.begin(spans.SETUP_REQUEST)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    warm, ok, _ = timed_request(workload, 0)
    setup_s = time.perf_counter() - _STARTED
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    warm_failed = int(not passes(workload, 0, warm, ok))
    del warm
    setup_calib_ms = (_CALIB_BEFORE_MS + _calibration_ms()) / 2
    result = {"setup_s": setup_s, "setup_calib_ms": setup_calib_ms,
              "env": environment(args.workload, args.seed), "attempted": 1, "failed": warm_failed}
    if args.seconds <= 0:
        return result
    sides = run_loop(workload, args.seconds, tracer)
    plain, traced = sides[False], sides[True]
    result["attempted"] += sum(len(s["indices"]) for s in sides.values())
    result["failed"] += sum(s["failed"] for s in sides.values())
    if tracer is None:
        result.update(
            throughput_rps=plain["throughput_rps"],
            latencies_ms=[x * 1e3 for x in plain["latencies"]],
            calibs_ms=[x * 1e3 for x in plain["calibs"]],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        return result
    layers = tracer.layer_metrics(traced["indices"])
    layers["trace.overhead_frac"] = 1.0 - traced["throughput_rps"] / plain["throughput_rps"]
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path, {"env": result["env"], "traced_requests": traced["indices"]})
    result.update(layers=layers, spans_file=str(spans_path.relative_to(ROOT)))
    return result


if __name__ == "__main__":
    sys.exit(main())
