"""The ``serve`` workload: ``/v1/rank`` over real sockets.

The server is ``python -m repro.cli serve --port 0`` with its default
configuration, in its own process.  This process is the only load
generator, with ``nproc`` keep-alive connections:

* phase A, an open loop at :data:`RATE` requests per second, each
  request timed from the moment the generator issued it; the requests
  are a seeded Zipf(s=1) draw over :data:`WORKING_SET` distinct bodies;
* phase B, a closed loop over the fingerprints the memo holds at the
  end of phase A (mostly hits).

Requests are timed from their issue rather than their due time because
the generator's event loop sleeps in whole milliseconds: it woke a
median 0.76 ms late, as long as a memo hit takes, so timing from the due
time would mostly measure the generator.  Its lateness is reported apart.

The server and the generator run on one CPU.  A request then passes
between them by a context switch on that CPU; across two CPUs every
hand-off at 80 requests per second had to wake an idle vCPU, which on
the VM the benchmark was defined on took 0.1-0.8 ms and spread phase A's
median latency by 40% (IQR over median) over ten seeds, against 10% on
one CPU.  The requests are small (:data:`GATES`), so misses keep the
server under a third busy.
The working set is 600 bodies, 2.3 times the memo: a quarter of phase A
misses, so the 90th percentile lies amid the miss latencies.  With 1024
bodies a third missed, the 90th percentile lay in their queueing tail,
and it spread by 29% over ten seeds, against 8%.

Phase A runs in windows of :data:`WINDOW` requests and phase B in
half-second segments.  Between two of them nothing is in flight, and the
reference kernel (``stats.Speed``) is timed on the CPU the server
shares: each window's latencies and each segment's duration are
corrected to the quiet speed.  Percentiles are taken per window and
rates per segment, and the medians over windows and segments reported,
so a stall of the host (they lasted up to seconds) moves a few windows
rather than the result.

The traced run replays the recorded traffic through the service's
layers in this process (HTTP parsing and rendering, the wire schema,
the memo, the solve job) and reads the server's own timing header.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import re
import selectors
import signal
import subprocess
import sys
import time
from collections import OrderedDict
from itertools import accumulate, count
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sweep import PAPER_TABLE4_C, PAPER_TABLE4_K, PAPER_TABLE4_R
from repro.schema import RankRequest, canonical_json_bytes
from repro.service import solve
from repro.service.http import read_request, render_response
from repro.service.memo import ResultCache

import library
from stats import ROOT, Samples, Speed, Tally, digest, median, one_cpu, percentile, usable_cpus
from tracing import Tracer

#: Phase A arrival rate (requests per second) and its share of the run.
RATE = 80.0
PHASE_A_SHARE = 0.7
#: Distinct request bodies, and the server's default memo size.
WORKING_SET = 600
MEMO_ENTRIES = 256
GATES = 20_000
UNITS = 128
BUNCHES = (5_000, 10_000)
#: Phase A requests whose (fingerprint, body) pairs are digested.
DIGEST_REQUESTS = 64
#: Servers started for ``setup_s``; the last one takes the load.
SETUPS = 7
#: Phase A requests sent before timing starts (the memo starts empty, and
#: the queue of early misses took up to two seconds to drain), and per
#: latency window (12 beyond the 90th percentile); the length of a phase B
#: segment in seconds.
WARMUP = 160
WINDOW = 120
SEGMENT_B_S = 0.5
#: Seconds to wait for a server to come up.
START_TIMEOUT_S = 60.0


def working_set(seed: int) -> List[bytes]:
    """:data:`WORKING_SET` distinct bodies, most popular first."""
    rng = random.Random(f"serve:{seed}")
    combos = [
        (bunch, clock, fraction, permittivity)
        for bunch in BUNCHES
        for clock, _ in PAPER_TABLE4_C
        for fraction, _ in PAPER_TABLE4_R
        for permittivity, _ in PAPER_TABLE4_K
    ]
    return [
        json.dumps({
            "gates": GATES,
            "repeater_units": UNITS,
            "bunch_size": bunch,
            "clock_frequency": clock,
            "repeater_fraction": fraction,
            "permittivity": permittivity,
        }).encode("utf-8")
        for bunch, clock, fraction, permittivity in rng.sample(combos, WORKING_SET)
    ]


def zipf_draws(seed: int, phase: str, count: int) -> List[int]:
    rng = random.Random(f"serve:{seed}:{phase}")
    cumulative = list(accumulate(1.0 / (rank + 1) for rank in range(WORKING_SET)))
    return rng.choices(range(WORKING_SET), cum_weights=cumulative, k=count)


def lru_contents(sequence: Sequence[str], size: int) -> List[str]:
    """Keys an LRU of ``size`` holds after ``sequence``, oldest first."""
    lru: "OrderedDict[str, None]" = OrderedDict()
    for key in sequence:
        lru[key] = None
        lru.move_to_end(key)
        if len(lru) > size:
            lru.popitem(last=False)
    return list(lru)


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """One ``ia-rank serve`` process; it is ready once it answers
    ``/v1/healthz`` with a 200."""

    def __init__(self, env: Dict[str, str]) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
        )
        try:
            self.port = self._read_port(started + START_TIMEOUT_S)
            self._wait_healthy(started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(max(0.0, deadline - time.perf_counter())):
                raise RuntimeError("server did not report its port in time")
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(match.group(1))

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/v1/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass  # not listening yet
            finally:
                connection.close()
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ---------------------------------------------------------------------------
# The load generator
# ---------------------------------------------------------------------------


class Reply:
    __slots__ = ("index", "issued", "sent", "done", "status", "source", "elapsed", "body", "raw")

    def __init__(self, index: int, issued: float, sent: float) -> None:
        self.index = index
        self.issued = issued
        self.sent = sent
        self.done = sent
        self.status = 0
        self.source = ""
        self.elapsed = 0.0
        self.body = b""
        self.raw = b""


class Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough HTTP."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, raw: bytes, reply: Reply) -> None:
        self.writer.write(raw)
        await self.writer.drain()
        status_line = await self.reader.readline()
        reply.status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-repro-cache":
                reply.source = value.strip()
            elif name == "x-repro-elapsed-s":
                reply.elapsed = float(value)
        reply.body = await self.reader.readexactly(length)
        reply.done = time.perf_counter()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass  # the server may close first on shutdown


def request_bytes(body: bytes) -> bytes:
    head = (
        "POST /v1/rank HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def open_loop(
    pool: Sequence[Connection], raws: Sequence[bytes], first: int
) -> Tuple[List[Reply], List[float]]:
    """Send ``raws`` at :data:`RATE` per second, numbering them from
    ``first``, and wait for every reply.

    A request is timed from the moment the generator issued it, so a wait
    for a free connection counts; how late the generator woke against the
    schedule is returned apart, one value per request.
    """
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    replies: List[Reply] = []
    lags: List[float] = []
    start = time.perf_counter() + 0.01

    async def schedule() -> None:
        for offset in range(len(raws)):
            due = start + offset / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            issued = time.perf_counter()
            lags.append(issued - due)
            queue.put_nowait((offset, issued))
        for _ in pool:
            queue.put_nowait(None)

    async def work(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            offset, issued = item
            reply = Reply(first + offset, issued, time.perf_counter())
            reply.raw = raws[offset]
            await connection.post(raws[offset], reply)
            replies.append(reply)

    await asyncio.gather(schedule(), *(work(c) for c in pool))
    replies.sort(key=lambda r: r.index)
    return replies, lags


async def closed_loop(
    pool: Sequence[Connection], raws: Sequence[bytes], cursor: Iterator[int], seconds: float
) -> List[Reply]:
    """Each connection sends its next request when the last one returns,
    taking ``raws`` at the positions ``cursor`` gives, for ``seconds``."""
    replies: List[Reply] = []
    end = time.perf_counter() + seconds

    async def work(connection: Connection) -> None:
        while time.perf_counter() < end:
            index = next(cursor)
            now = time.perf_counter()
            reply = Reply(index, now, now)
            await connection.post(raws[index % len(raws)], reply)
            replies.append(reply)

    await asyncio.gather(*(work(c) for c in pool))
    return replies


class Load:
    """The two load phases, each on ``conns`` keep-alive connections.

    Between two phase A windows, and between two phase B segments,
    nothing is in flight, and the reference kernel (``stats.Speed``) is
    timed on the CPU the server shares with this process; each window's
    latencies and each segment's duration are corrected by the factor
    from the samples on its two sides."""

    def __init__(self, port: int, conns: int, speed: Speed) -> None:
        self.port = port
        self.conns = conns
        self.speed = speed
        #: Phase A: its replies, each window's corrected latencies, and
        #: the generator's lateness per request.
        self.replies_a: List[Reply] = []
        self.windows: List[List[float]] = []
        self.lags: List[float] = []
        #: Phase B: its replies, each segment's corrected rate, and its
        #: wall-clock duration.
        self.replies_b: List[Reply] = []
        self.rates: List[float] = []
        self.wall_b = 0.0

    async def phase_a(self, raws: Sequence[bytes], warmup: int) -> None:
        pool = [await Connection.open(self.port) for _ in range(self.conns)]
        try:
            replies, lags = await open_loop(pool, raws[:warmup], 0)
            self.replies_a += replies
            for first in range(warmup, len(raws), WINDOW):
                before = self.speed.reference()
                replies, lags = await open_loop(pool, raws[first:first + WINDOW], first)
                factor = self.speed.factor(before)
                self.replies_a += replies
                self.lags += lags
                self.windows.append([(r.done - r.issued) * factor for r in replies])
        finally:
            for connection in pool:
                await connection.close()

    async def phase_b(self, raws: Sequence[bytes], segments: int) -> None:
        pool = [await Connection.open(self.port) for _ in range(self.conns)]
        cursor = count()
        try:
            for _ in range(segments):
                before = self.speed.reference()
                start = time.perf_counter()
                replies = await closed_loop(pool, raws, cursor, SEGMENT_B_S)
                wall = time.perf_counter() - start
                self.rates.append(len(replies) / (wall * self.speed.factor(before)))
                self.wall_b += wall
                self.replies_b += replies
        finally:
            for connection in pool:
                await connection.close()


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def check_replies(
    replies: Sequence[Reply],
    fingerprints: Sequence[str],
    first_body: Dict[str, bytes],
    tally: Tally,
) -> None:
    """Every reply a 200 whose body answers its own fingerprint, and is
    byte-identical to the first body served for that fingerprint."""
    for reply, fp in zip(replies, fingerprints):
        tally.attempted += 1
        if reply.status != 200:
            tally.fail(f"request {reply.index}: HTTP {reply.status}")
            continue
        payload = json.loads(reply.body)
        if payload.get("fingerprint") != fp or not 0 <= payload.get("rank", -1) <= payload.get("total_wires", -1):
            tally.fail(f"request {reply.index}: body does not answer {fp[:12]}")
            continue
        known = first_body.setdefault(fp, reply.body)
        tally.check(known == reply.body, f"request {reply.index}: replay of {fp[:12]} differs")


def run(seed: int, seconds: float, smoke: bool, tracer: Optional[Tracer], tally: Tally, env: Dict[str, str]) -> dict:
    bodies = working_set(seed)
    fps = [RankRequest.from_wire(json.loads(body)).fingerprint() for body in bodies]
    raws = [request_bytes(body) for body in bodies]
    seconds_a = max(1.0, PHASE_A_SHARE * seconds)
    warmup = 0 if smoke else WARMUP
    windows = max(1, int((RATE * seconds_a - warmup) // WINDOW))
    segments = max(1, round((seconds - seconds_a) / SEGMENT_B_S))
    draws_a = zipf_draws(seed, "A", warmup + windows * WINDOW)

    setups = Samples()
    server: Optional[Server] = None
    conns = len(usable_cpus())
    with one_cpu():  # the servers inherit it
        try:
            speed = Speed()
            # Set up several times; the last server takes the load.
            for _ in range(1 if smoke else SETUPS):
                if server is not None:
                    server.stop()
                server, wall, factor = speed.time(lambda: Server(env))
                setups.add(wall, factor)
            load = Load(server.port, conns, speed)
            asyncio.run(load.phase_a([raws[i] for i in draws_a], warmup))
            memoized = lru_contents([fps[i] for i in draws_a], MEMO_ENTRIES)
            index_of = {fp: i for i, fp in enumerate(fps)}
            rng = random.Random(f"serve:{seed}:B")
            draws_b = [index_of[rng.choice(memoized)] for _ in range(100_000)]
            asyncio.run(load.phase_b([raws[i] for i in draws_b], segments))
            peak_rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()

    first_body: Dict[str, bytes] = {}
    replies_a, replies_b = load.replies_a, load.replies_b
    check_replies(replies_a, [fps[i] for i in draws_a], first_body, tally)
    check_replies(replies_b, [fps[draws_b[r.index % len(draws_b)]] for r in replies_b], first_body, tally)
    missed = sum(1 for r in replies_b if r.source != "hit")
    if missed:
        print(f"serve: {missed} of {len(replies_b)} phase B requests missed the memo", file=sys.stderr)
    head = sorted({fps[i] for i in draws_a[:DIGEST_REQUESTS]})

    latencies = [r.done - r.issued for r in replies_a[warmup:]]
    lag_p95 = percentile(load.lags, 0.95)
    metrics = {
        "setup_s": median(setups.scaled),
        "throughput_per_s": median(load.rates),
        "latency_p50_s": median([median(w) for w in load.windows]),
        "latency_p90_s": median([percentile(w, 0.9) for w in load.windows]),
        "peak_rss_mb": peak_rss,
    }
    raw_windows = [latencies[i:i + WINDOW] for i in range(0, len(latencies), WINDOW)]
    result = {
        "metrics": metrics,
        "raw": {
            "setup_s": median(setups.wall),
            "throughput_per_s": len(replies_b) / load.wall_b,
            "latency_p50_s": median([median(w) for w in raw_windows]),
            "latency_p90_s": median([percentile(w, 0.9) for w in raw_windows]),
        },
        "samples": {
            "setup_s": len(setups), "throughput_per_s": len(load.rates),
            "latency": len(latencies), "windows": len(load.windows), "peak_rss_mb": 1,
        },
        "digest": digest([[fp, first_body.get(fp, b"").decode("utf-8")] for fp in head]),
        "lag_p95_s": lag_p95,
        "valid": lag_p95 <= 1.0 / RATE,
    }
    if tracer is not None:
        result["metrics"]["service.latency_p99_s"] = percentile(latencies, 0.99)
        result["metrics"].update(
            layers(replies_a, [fps[i] for i in draws_a], first_body, load.lags, seconds_a, tally, tracer)
        )
    return result


def layers(
    replies: Sequence[Reply],
    fingerprints: Sequence[str],
    first_body: Dict[str, bytes],
    lags: Sequence[float],
    budget_s: float,
    tally: Tally,
    tracer: Tracer,
) -> Dict[str, float]:
    """Per-layer metrics: phase A's headers plus in-process replays."""
    hits = [r for r in replies if r.source == "hit"]
    misses = [r for r in replies if r.source == "miss"]
    metrics: Dict[str, float] = {
        "service.server_elapsed_hit_s": median([r.elapsed for r in hits]),
        "service.server_elapsed_miss_s": median([r.elapsed for r in misses]),
        "service.transport_s": median([(r.done - r.sent) - r.elapsed for r in hits]),
        "service.coalesced": sum(1 for r in replies if r.source == "coalesced"),
        "service.rejected": sum(1 for r in replies if r.status == 429),
        "loadgen.lag_max_s": max(lags),
    }

    # The wire schema over the distinct bodies of phase A.
    payloads = {fp: json.loads(r.raw.split(b"\r\n\r\n", 1)[1]) for r, fp in zip(replies, fingerprints)}
    for payload in payloads.values():
        with tracer.span("schema.from_wire"):
            request = RankRequest.from_wire(payload)
        with tracer.span("schema.canonicalize"):
            request.canonicalize()
        with tracer.span("schema.fingerprint"):
            request.fingerprint()

    # HTTP parsing and rendering of the recorded bytes.
    async def parse_all() -> None:
        for reply in replies:
            reader = asyncio.StreamReader()
            reader.feed_data(reply.raw)
            reader.feed_eof()
            with tracer.span("service.http.read_request"):
                await read_request(reader, max_body_bytes=1 << 20)

    asyncio.run(parse_all())
    for reply in replies:
        headers = (("X-Repro-Cache", reply.source), ("X-Repro-Elapsed-S", f"{reply.elapsed:.6f}"))
        with tracer.span("service.http.render_response"):
            render_response(reply.status, reply.body, extra_headers=headers)

    # The phase A sequence through a memo of the server's size.
    memo = ResultCache(MEMO_ENTRIES)
    for fp in fingerprints:
        with tracer.span("service.memo.get"):
            body = memo.get(fp)
        if body is None:
            with tracer.span("service.memo.put"):
                memo.put(fp, first_body[fp])
    for name in (
        "schema.from_wire", "schema.canonicalize", "schema.fingerprint",
        "service.http.read_request", "service.http.render_response",
        "service.memo.get", "service.memo.put",
    ):
        metrics[f"{name}_s"] = median(tracer.durations(name))
    replay_hits = memo.stats()["hits"]
    metrics["service.memo.hit_ratio"] = replay_hits / len(fingerprints)
    served = len(hits) + metrics["service.coalesced"]
    if abs(replay_hits - served) > 0.05 * len(fingerprints):
        print(f"serve: memo replay gives {replay_hits} hits, the server {served}", file=sys.stderr)

    # The solve job on the misses, checked against the served bodies.
    solve.configure(8, warm=RankRequest().canonicalize())
    library.install(tracer)
    started = time.perf_counter()
    try:
        for fp in dict.fromkeys(r_fp for r, r_fp in zip(replies, fingerprints) if r.source == "miss"):
            if time.perf_counter() - started > budget_s / 2:
                break
            canonical = RankRequest.from_wire(payloads[fp]).canonicalize()
            tally.attempted += 1
            with tracer.operation("service.solve_job"):
                payload = solve.solve_rank_job(canonical, None)
            tally.check(canonical_json_bytes(payload) == first_body[fp], f"solve job {fp[:12]} differs from the served body")
    finally:
        tracer.unwrap()
    metrics["service.solve_job_s"] = median(tracer.durations("service.solve_job"))
    metrics["service.queue_wait_est_s"] = metrics["service.server_elapsed_miss_s"] - metrics["service.solve_job_s"]
    ops = [s.op for s in tracer.spans if s.name == "service.solve_job"]
    metrics.update(library.layer_metrics(tracer, ops))
    return metrics
