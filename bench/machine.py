"""The machine fingerprint recorded with every run.

Besides what the OS reports (``nproc``, the affinity mask, the CPU
model), it measures parallelism: the wall-clock speedup of a fixed
pure-Python CPU burn run in ``nproc`` processes at once over the same
burn in one.  An affinity mask can list CPUs that a container does not
really get; the measured number is what a worker pool can hope for.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from typing import Dict, List, Tuple

from stats import ROOT

#: Iterations of the burn loop (about 0.1 s of one core).
BURN_STEPS = 1_500_000

#: Fields that must agree for two runs to be compared.
IDENTITY = ("cpu_model", "nproc", "affinity", "python", "numpy", "machine")


#: Seconds from launching the burns to their common start, long enough
#: for every interpreter to be up.
BURN_DELAY_S = 0.5

#: One burn: sleep until the start time given as its argument (on the
#: system-wide monotonic clock), burn, print when it began and ended.
BURN = f"""
import sys, time
start = float(sys.argv[1])
while time.monotonic() < start:
    time.sleep(0.001)
began = time.monotonic()
total = 0
for i in range({BURN_STEPS}):
    total += i * i
print(began, time.monotonic())
"""


def _burn_in(processes: int) -> float:
    """Wall time of ``processes`` simultaneous burns.

    Plain interpreters rather than ``multiprocessing``, whose semaphores
    start a resource tracker process that outlives the caller."""
    start = time.monotonic() + BURN_DELAY_S
    workers: List[subprocess.Popen] = []
    try:
        for _ in range(processes):
            workers.append(subprocess.Popen(
                [sys.executable, "-c", BURN, repr(start)], stdout=subprocess.PIPE, text=True
            ))
        spans: List[Tuple[float, ...]] = [
            tuple(float(t) for t in worker.communicate(timeout=60)[0].split()) for worker in workers
        ]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    return max(end for _, end in spans) - min(began for began, _ in spans)


def measured_parallelism(processes: int) -> float:
    """Speedup of ``processes`` concurrent burns over one (ideal: ``processes``)."""
    single = _burn_in(1)
    return processes * single / _burn_in(processes)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass  # not Linux: fall back to what platform knows
    return platform.processor() or "unknown"


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def fingerprint() -> Dict[str, object]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        affinity = os.cpu_count() or 1
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "parallelism": measured_parallelism(affinity),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
        "commit": commit or None,
        "dirty": bool(_git("status", "--porcelain")) if commit else None,
    }


def describe(machine: Dict[str, object]) -> str:
    return (
        f"machine: nproc={machine['nproc']} affinity={machine['affinity']} "
        f"parallelism={machine['parallelism']:.2f}x cpu={machine['cpu_model']!r} "
        f"python={machine['python']} numpy={machine['numpy']} "
        f"commit={machine['commit']} dirty={machine['dirty']}"
    )
