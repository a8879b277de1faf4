"""Small helpers shared by the runner, the workload children and compare.

Kept free of any ``repro`` import so ``run.py`` and ``compare.py`` start
without loading the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Directory holding the benchmark (``bench/``) and the repository root.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Workload names, in the order a full run executes them.
WORKLOADS = ("solve", "table4_sweep", "budget_curve", "serve")

#: The golden baseline: 1M gates, 130 nm, Table 2 knobs, bunch 10000,
#: 512 cells (``tests/test_golden_values.py``).
GOLDEN_RANK = 1_305_475

#: Seconds the reference kernel takes when the host is quiet: about the
#: 5th percentile of its samples on the 2-vCPU Xeon VM the benchmark was
#: defined on.
REFERENCE_S = 1.2e-3
REFERENCE_LOOP = 20_000
REFERENCE_ARRAY = 20_000


class Speed:
    """Corrects timings for how fast the host runs at the moment.

    On the VM the benchmark was defined on, other tenants slow this
    guest by 20-100% in bursts lasting from milliseconds to minutes (the
    guest reports no steal time), so the same operation's wall time
    wanders far more than any bound a change should be held to.  Every
    timed region is therefore bracketed by ``samples`` runs of a fixed
    ~1 ms reference kernel (a pure-Python loop and NumPy on a cache-sized
    array, the program's two kinds of work) on each side, and its wall
    time is multiplied by ``REFERENCE_S`` over the mean of the two
    sides' medians: seconds at the host's quiet speed.  A change to the
    program cannot move the kernel, so a slower program still reads
    slower; a slower host does not.

    ``cpus`` names the CPUs to sample on (each in turn), for regions
    whose work runs on CPUs other than the caller's.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None, samples: int = 5) -> None:
        import numpy as np

        self._array = np.random.default_rng(0).random(REFERENCE_ARRAY)
        self._cpus = list(cpus) if cpus else []
        self._samples = samples
        for _ in range(3):  # the first runs pay for page faults and cold caches
            self._kernel()

    def _kernel(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        np.minimum.accumulate(np.cumsum(np.sort(self._array)))
        return time.perf_counter() - start

    def reference(self) -> float:
        """Median seconds of the kernel now, over the configured CPUs."""
        if not self._cpus:
            return statistics.median(self._kernel() for _ in range(self._samples))
        own = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                times.extend(self._kernel() for _ in range(self._samples))
        finally:
            os.sched_setaffinity(0, own)
        return statistics.median(times)

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn``; returns (its result, wall seconds, speed factor).

        Wall seconds times the factor are seconds at the quiet speed.
        """
        before = self.reference()
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        return out, wall, self.factor(before)

    def factor(self, before: float) -> float:
        """The speed factor of a region that began when the kernel took
        ``before`` seconds and ends now."""
        return 2.0 * REFERENCE_S / (before + self.reference())


class Samples:
    """Timed operations: wall seconds and seconds at the quiet speed,
    each with the input it ran."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.scaled: List[float] = []
        self.inputs: List[Any] = []

    def add(self, wall: float, factor: float, input: Any = None) -> None:
        self.wall.append(wall)
        self.scaled.append(wall * factor)
        self.inputs.append(input)

    def extend(self, other: "Samples") -> None:
        self.wall += other.wall
        self.scaled += other.scaled
        self.inputs += other.inputs

    def __len__(self) -> int:
        return len(self.wall)


def latency_metrics(samples: Samples) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(metrics at the quiet speed, the same from wall times): ops per
    second of timed work, and the median and 90th percentile over the
    inputs of each input's median latency.

    Every round runs the same inputs, so an input's median over the rounds
    is its typical latency; a percentile of the pooled samples instead
    falls between two inputs' clusters and jumps with noise."""

    def of(times: Sequence[float]) -> Dict[str, float]:
        by_input: Dict[Any, List[float]] = {}
        for input, seconds in zip(samples.inputs, times):
            by_input.setdefault(input, []).append(seconds)
        typical = [median(v) for v in by_input.values()]
        return {
            "throughput_per_s": len(times) / sum(times),
            "latency_p50_s": median(typical),
            "latency_p90_s": percentile(typical, 0.9),
        }

    return of(samples.scaled), of(samples.wall)


def rounds(seconds: float) -> Iterator[int]:
    """Round numbers 0, 1, ... while another round of the mean length
    so far still ends within ``seconds`` (always at least one)."""
    start = time.perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return


def load_spec() -> dict:
    """``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    of the samples at or below it."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[index])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest(records: object) -> str:
    """SHA-256 over the canonical JSON of ``records``."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_digest(seed: int, workload: str, smoke: bool) -> str:
    """The committed output digest for ``seed`` (empty when unknown)."""
    table: Dict[str, Dict[str, str]] = json.loads(
        (BENCH_DIR / "expected.json").read_text()
    )
    key = f"{workload}.smoke" if smoke else workload
    return table.get(str(seed), {}).get(key, "")


def usable_cpus() -> List[int]:
    """The CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


@contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this process, and the processes it starts meanwhile, to its
    first usable CPU, so that :class:`Speed` samples the CPU they run on."""
    cpus = usable_cpus()
    pin = hasattr(os, "sched_setaffinity")
    if pin:
        os.sched_setaffinity(0, cpus[:1])
    try:
        yield
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        """Count a wrong output as a failed operation."""
        if not ok:
            self.fail(note)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "notes": self.notes}
