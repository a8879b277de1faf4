#!/usr/bin/env python3
"""Measure the rank program end to end and layer by layer.

    python bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out FILE]

Each workload runs in a fresh process (``child.py``) with ``repro.obs``
off.  Every end-to-end metric is printed as ``<workload>.<metric> <value>
<unit>`` with its sample count, every output is checked, and a wrong
answer makes the run exit 1.  ``--trace`` re-runs the same inputs with
spans around each layer and prints the per-layer metrics instead; the
spans are written to ``bench/out/``.  ``--out FILE`` appends the run to
a results file that ``compare.py`` reads.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from machine import describe, fingerprint
from stats import BENCH_DIR, ROOT, WORKLOADS, Samples, Speed, load_spec, median, one_cpu

#: Spawns timed for ``setup_s``.
SETUP_SAMPLES = 7
#: Smoke runs shrink op counts and run time by this factor.
SMOKE_DIVISOR = 20
#: Seconds a child's leftover processes get to end before they are killed.
GROUP_GRACE_S = 5.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(workload: str, mode: str, seed: int, seconds: float, smoke: bool) -> Tuple[Optional[float], dict]:
    """Run ``child.py`` to completion; returns (spawn-to-ready seconds, result)."""
    command = [
        sys.executable, str(BENCH_DIR / "child.py"), workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
    ] + (["--smoke"] if smoke else [])
    started = time.perf_counter()
    # Its own session, so a hung child and whatever it started (a server,
    # pool workers) can be killed together.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True,
    )
    watchdog = threading.Timer(60 + 4 * seconds, _kill_group, (proc.pid,))
    watchdog.start()
    ready = None
    lines: List[str] = []
    try:
        assert proc.stdout is not None
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace").strip()
            if line == "ready" and ready is None:
                ready = time.perf_counter() - started
            elif line:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
        # What the child started and did not wait for (a multiprocessing
        # resource tracker ends only once its parent has gone).
        _end_group(proc.pid)
    if mode == "setup":
        return ready, {} if code == 0 and ready is not None else _broken(workload, code)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ready, _broken(workload, code)
    return ready, result if code == 0 else _broken(workload, code)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group has already exited


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running (zombies,
    which only wait to be reaped, do not count)."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        return True
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone meanwhile
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _end_group(pgid: int, grace_s: float = GROUP_GRACE_S) -> None:
    """Wait until no process of group ``pgid`` runs, killing the group
    once ``grace_s`` seconds have passed."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            _kill_group(pgid)
        time.sleep(0.01)


def _broken(workload: str, code: int) -> dict:
    return {
        "metrics": {}, "samples": {}, "attempted": 1, "failed": 1,
        "notes": [f"{workload}: child exited with code {code} without a result"],
    }


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The end-to-end run: set up several times, then measure once.
    (``serve`` times its own set-ups: the server's start.)"""
    if workload == "serve":
        return spawn(workload, "measure", seed, seconds, smoke)[1]
    setups = Samples()
    failures = 0
    # On one CPU with the children: unpinned, a set-up read 14% slower and
    # spread 50% wider, the kernel sampling another CPU than the child's.
    with one_cpu():
        speed = Speed()
        for _ in range(1 if smoke else SETUP_SAMPLES):
            (ready, broken), _, factor = speed.time(lambda: spawn(workload, "setup", seed, seconds, smoke))
            if ready is None or broken:
                failures += 1
            else:
                setups.add(ready, factor)
    result = spawn(workload, "measure", seed, seconds, smoke)[1]
    result["failed"] += failures
    result["attempted"] += failures
    if setups:
        result["metrics"]["setup_s"] = median(setups.scaled)
        result.setdefault("raw", {})["setup_s"] = median(setups.wall)
        result["samples"] = {**result["samples"], "setup_s": len(setups)}
    return result


def trace(workload: str, seed: int, seconds: float, smoke: bool, borrow: bool) -> dict:
    """The traced run.  With ``borrow``, layers this workload never enters
    are measured on a smoke-sized traced run of the workloads that do."""
    result = spawn(workload, "trace", seed, seconds, smoke)[1]
    result["borrowed"] = {}
    for other in WORKLOADS if borrow else ():
        if other == workload:
            continue
        extra = spawn(other, "trace", seed, seconds / (1 if smoke else SMOKE_DIVISOR), True)[1]
        result["attempted"] += extra["attempted"]
        result["failed"] += extra["failed"]
        result["notes"] += extra["notes"]
        for name, value in extra["metrics"].items():
            if name not in result["metrics"]:
                result["metrics"][name] = value
                result["borrowed"][name] = other
    return result


def sample_note(name: str, value: float, samples: Dict[str, int], raw: Dict[str, float]) -> str:
    n = samples.get(name, samples.get("latency", 0))
    note = f"n={n}"
    if name.startswith("latency_"):
        # The percentile is taken over each input's median latency
        # (library workloads), or per window of requests (serve).
        inputs, windows = samples.get("inputs"), samples.get("windows")
        if inputs:
            note += f" ops, over the medians of {inputs} inputs"
            m = inputs
        elif windows:
            note += f", median over {windows} windows"
            m = n // windows
        else:
            m = n
        if name == "latency_p90_s":
            note += f", {m - math.ceil(0.9 * m)} beyond"
    if raw.get(name, value) != value:
        note += f"; wall clock {raw[name]!r}"
    return note


def report(workload: str, result: dict, metrics: List[dict], traced: bool) -> Dict[str, dict]:
    """Print one workload's metrics; returns them in the result format."""
    out: Dict[str, dict] = {}
    borrowed = result.get("borrowed", {})
    for spec in metrics:
        name = spec["name"]
        if name not in result["metrics"]:
            continue
        value = result["metrics"][name]
        out[name] = {"value": value, "unit": spec["unit"]}
        note = (
            f"from a smoke trace of {borrowed[name]}" if name in borrowed
            else "traced" if traced else sample_note(name, value, result.get("samples", {}), result.get("raw", {}))
        )
        print(f"{workload}.{name} {value!r} {spec['unit']} ({note})")
    digest = result.get("digest")
    if digest:
        expected = result.get("digest_expected")
        verdict = "unchecked (seed not in expected.json)" if not expected else (
            "ok" if expected == digest else f"MISMATCH (expected {expected})"
        )
        print(f"{workload}: outputs_sha256 {digest} {verdict}")
    if "valid" in result and not result["valid"]:
        print(f"{workload}: INVALID: the generator ran {result['lag_p95_s']:.4f} s late (95th percentile)")
    if "trace_file" in result:
        print(f"{workload}: spans written to {result['trace_file']}")
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
    for note in result.get("notes", []):
        print(f"{workload}: failure: {note}")
    return out


def append_run(path: Path, run: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"format": "repro.bench.runs", "runs": []}
    data["runs"].append(run)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help=f"op counts and time divided by {SMOKE_DIVISOR}")
    parser.add_argument("--out", type=Path, default=None, help="append this run to a results file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds /= SMOKE_DIVISOR
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    machine = fingerprint()
    print(describe(machine), flush=True)
    run = {
        "time": time.time(), "machine": machine, "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "trace": bool(args.trace), "workloads": {},
    }
    final: Dict[str, dict] = {}
    covered: set = set()
    attempted = failed = 0
    for workload in workloads:
        if args.trace:
            result = trace(workload, args.seed, seconds, args.smoke, borrow=len(workloads) == 1)
        else:
            result = measure(workload, args.seed, seconds, args.smoke)
        shown = report(workload, result, metrics, bool(args.trace))
        covered.update(shown)
        # Every end-to-end metric on every workload; every per-layer
        # metric somewhere in the run.
        missing = [m["name"] for m in metrics if m["name"] not in shown]
        if missing and not (args.trace and len(workloads) > 1):
            print(f"{workload}: MISSING metrics: {' '.join(missing)}")
            result["failed"] += 1
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in shown.items():
            final.setdefault(name if len(workloads) == 1 else f"{workload}.{name}", value)
        run["workloads"][workload] = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "valid": result.get("valid", True),
            "digest": result.get("digest"),
            "metrics": {name: item["value"] for name, item in shown.items()},
            "raw": result.get("raw", {}),
        }
        sys.stdout.flush()
    missing = [m["name"] for m in metrics if m["name"] not in covered]
    if missing:
        print(f"MISSING metrics: {' '.join(missing)}")
        failed += 1
    if args.out is not None:
        append_run(args.out, run)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
