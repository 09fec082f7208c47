"""One benchmark process: set up a workload, then run its ops for a while.

``run.py`` starts each worker as a fresh interpreter, so set-up time and peak
memory belong to one workload alone. On stdout the worker prints ``ready``
when set-up is done, then one JSON line of results. With ``--mode setup`` it
runs no op and reports only one host-speed probe (see ``pace.py``); otherwise
it probes before the first op and again every ``pace.EVERY_S`` between ops.
The program is imported from ``src/`` of the checkout this file sits in,
never from anywhere else.

    python3 bench/worker.py --workload census-k3 --seed 1 --seconds 10 --mode plain
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURES_SHOWN = 5


def import_program() -> None:
    """Import numpy and the ``retesting`` package from this checkout."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (set-up covers numpy even if the program imports it lazily)

    import retesting
    import retesting.cli  # noqa: F401

    if not Path(retesting.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"retesting came from {retesting.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    parser.add_argument("--ops", type=int, default=None, help="stop after this many ops")
    args = parser.parse_args(argv)

    import_program()
    import pace
    import spans
    import workloads

    recorder = None
    if args.mode == "traced":
        recorder = spans.Recorder()
        recorder.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    host = pace.Pace(workload.probe)
    if args.mode == "setup":
        print(json.dumps({"setup_probe_s": host.probe()}), flush=True)
        return 0

    starts: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    failed = 0
    digest = hashlib.sha256()
    deadline = time.perf_counter() + args.seconds
    i = 0
    host.probe()
    while (args.ops is None or i < args.ops) and time.perf_counter() < deadline:
        if time.perf_counter() - host.at[-1] >= pace.EVERY_S:
            host.probe()
        if recorder is not None:
            recorder.begin_op(i)
        start = time.perf_counter()
        try:
            output = workload.op(i)
            problem = None
        except Exception as exc:  # a failed op is counted, never fatal
            problem = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        starts.append(start)
        if recorder is not None:
            recorder.end_op()
        if problem is None:
            problem, canonical = workload.check(i, output)
            if i < workload.sha_ops:
                digest.update(canonical)
        if problem is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append(f"op {i}: {problem}")
        i += 1

    host.probe()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "latencies": latencies,
        "scales": host.scales(starts),
        "setup_probe_s": host.seconds[0],
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_sha256": digest.hexdigest(),
        "sha_ops": min(len(latencies), workload.sha_ops),
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
        result["spans_file"] = str(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json")
        recorder.write(Path(result["spans_file"]), {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
