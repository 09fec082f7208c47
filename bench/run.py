"""Benchmark of the retesting engine: one workload per invocation.

    python3 bench/run.py --workload census-k3 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ops per second, median
and tail op latency, set-up time and peak memory. With ``--trace 1`` it runs
the workload twice for half the time each, untraced and traced, and prints
the per-layer metrics of the traced half plus the tracing overhead. The last
line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Ops run in a fresh worker process (``worker.py``), one closed-loop caller
with no extra threads. Set-up time is measured from starting a worker to the
end of its set-up, as the median of several workers.

Times are stated at reference speed: each op's wall time is scaled by a
host-speed probe timed next to it (``pace.py``), because on a shared machine
the same op can take twice as long from one minute to the next. The wall
times as measured are printed too. Results, with the ``output_sha256`` of the
run, also go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6  # set-up-only workers, besides the measuring one
# A worker is killed after these, so that a run ends within 180 s.
SETUP_TIMEOUT_S = 15
RUN_SLACK_S = 45


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               ops=None) -> tuple[float, dict]:
    """Start one worker; return its set-up seconds and its result record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + RUN_SLACK_S
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise WorkerFailed(f"{mode} worker for {workload} exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    if mode == "setup":
        return setup_s, result
    if not result["latencies"]:
        raise WorkerFailed(f"{mode} worker for {workload} completed no op")
    return setup_s, result


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timing(lat: list[float], percentile: float) -> tuple[dict, int]:
    """Timing metrics of one run, and the number of ops beyond the tail."""
    tail_s, beyond = tail(lat, percentile)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
    }, beyond


def scaled(res: dict) -> list[float]:
    return [t * f for t, f in zip(res["latencies"], res["scales"])]


def end_to_end(args, spec) -> tuple[dict, dict]:
    setups, raw_setups = [], []
    for i in range(SETUP_PROBES + 1):
        if i < SETUP_PROBES:
            setup_s, res = run_worker(args.workload, args.seed, 0, "setup")
        else:
            setup_s, res = run_worker(args.workload, args.seed, args.seconds, "plain",
                                      ops=args.ops)
        raw_setups.append(setup_s)
        setups.append(setup_s * pace.scale(spec.probe, res["setup_probe_s"]))
    metrics, beyond = timing(scaled(res), spec.tail_percentile)
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    raw, _ = timing(res["latencies"], spec.tail_percentile)
    raw["setup_s"] = (statistics.median(raw_setups), "s")
    print(f"op_tail_ms is p{spec.tail_percentile} of {len(res['latencies'])} ops, "
          f"{beyond} beyond it")
    print("as measured, before scaling to reference speed: " + ", ".join(
        f"{name} {value:.4g}" for name, (value, _) in raw.items()))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    res["raw"] = {name: value for name, (value, _) in raw.items()}
    return metrics, res


def per_layer(args, spec) -> tuple[dict, dict]:
    half = args.seconds / 2
    _, plain = run_worker(args.workload, args.seed, half, "plain", ops=args.ops)
    _, traced = run_worker(args.workload, args.seed, half, "traced", ops=args.ops)
    summary = traced["layers"]
    op_seconds = sum(scaled(traced))
    # layer times to reference speed, at the run's mean scale
    factor = op_seconds / sum(traced["latencies"])
    summary["self_s"] = {k: v * factor for k, v in summary["self_s"].items()}
    summary["total_s"] = {k: v * factor for k, v in summary["total_s"].items()}
    metrics = spans.per_layer_metrics(summary, traced["attempted"], op_seconds)
    plain_rate = plain["attempted"] / sum(scaled(plain))
    traced_rate = traced["attempted"] / op_seconds
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
    metrics["trace.ops"] = (traced["attempted"], "count")
    absent = summary["absent"] + [
        layer for layer in spans.LAYERS if layer not in summary["present"]
    ]
    print(f"traced {traced['attempted']} ops, {summary['spans']} spans written to {traced['spans_file']}")
    print("absent from the program (reported as 0): " + (", ".join(absent) or "none"))
    merged = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "output_sha256": traced["output_sha256"],
        "sha_ops": traced["sha_ops"],
        "layers": summary,
    }
    return metrics, merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one workload of the retesting engine.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop each measuring worker after this many ops (for tests)")
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]

    try:
        metrics, res = (per_layer if args.trace else end_to_end)(args, spec)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"failed_op_ratio {failed / attempted:.4g}")
    for line in res["failures"]:
        print(f"  failure: {line}")
    print(f"output_sha256 {res['output_sha256']} over the first {res['sha_ops']} ops")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted,
        "failures": res["failures"],
        "output_sha256": res["output_sha256"],
        "sha_ops": res["sha_ops"],
        "as_measured": res.get("raw"),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
