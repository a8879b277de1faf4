"""Run one workload in a fresh process; ``run.py`` starts it.

    python bench/child.py WORKLOAD --seed N --seconds S --mode MODE [--smoke]

``MODE`` is ``setup`` (set up, print ``ready``, exit), ``measure`` (set
up, print ``ready``, run the workload with tracing and ``repro.obs`` off)
or ``trace`` (the same inputs with spans around every layer).  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from stats import BENCH_DIR, WORKLOADS, Tally, expected_digest
from tracing import Tracer


def peak_rss_mb() -> float:
    """Peak RSS of this process (VmHWM) and of its waited-for children
    (pool workers).  ``ru_maxrss`` of the process itself would also count
    the parent's memory at the fork that preceded exec."""
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    tally = Tally()
    tracer = Tracer() if args.mode == "trace" else None
    if args.workload == "serve":
        import serve

        result = serve.run(args.seed, args.seconds, args.smoke, tracer, tally, dict(os.environ))
    else:
        import library

        library.setup(tally, tracer)
        print("ready", flush=True)
        if args.mode == "setup":
            return 1 if tally.failed else 0
        if tracer is None:
            result = library.MEASURE[args.workload](args.seed, args.seconds, args.smoke, tally)
        else:
            result = library.TRACE[args.workload](args.seed, args.seconds, args.smoke, tally, tracer)
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
        result["samples"] = {**result["samples"], "peak_rss_mb": 1}

    if "digest" in result:
        expected = expected_digest(args.seed, args.workload, args.smoke)
        result["digest_expected"] = expected
        tally.check(not expected or expected == result["digest"], "outputs differ from expected.json")
    if tracer is not None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = BENCH_DIR / "out" / f"trace-{stamp}-{args.workload}-{os.getpid()}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "smoke": args.smoke})
        result["trace_file"] = str(path.relative_to(BENCH_DIR.parent))
    result.update(tally.as_dict())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
