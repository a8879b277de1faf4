#!/usr/bin/env python3
"""Closed-loop load generator for the serving layer: ``BENCH_service.json``.

Starts a :class:`repro.service.RankService` in-process on an ephemeral
port, then measures the serving contract end to end over real
sockets:

* **memoization gate** — one cold solve, then the identical request
  again; the memoized replay must be byte-identical AND faster than
  the cold solve, or the run exits non-zero (this is the acceptance
  gate CI's ``service-smoke`` job asserts).
* **closed loop** — ``--clients`` concurrent keep-alive connections
  each issue requests back-to-back (no open-loop arrival process) over
  a working set of ``--points`` distinct rank requests for
  ``--requests`` total; requests/sec and latency quantiles (p50/p99)
  are reported per the observed distribution.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service.py \
        --gates 200000 --points 4 --clients 4 --requests 200

Wall-clock absolute numbers are machine-dependent; the gates
(byte-identity, hit-faster-than-cold, zero transport errors) are not.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Schema of the emitted file.
BENCH_FORMAT = "repro.bench_service"
BENCH_VERSION = 1


def _cpu_affinity() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class _Client:
    """One keep-alive HTTP/1.1 connection speaking just enough HTTP."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: bench\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self._reader.readexactly(int(headers["content-length"]))
        return status, headers, payload


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


async def _run_bench(args: argparse.Namespace) -> Dict[str, object]:
    from repro.schema import RankRequest
    from repro.service import RankService, ServiceConfig
    from repro.units import MEGA

    config = ServiceConfig(
        port=0,
        workers=args.workers,
        queue_depth=max(args.queue_depth, args.clients),
        cache_entries=args.cache_entries,
        default_deadline_s=120.0,
    )
    service = RankService(config)
    await service.start()
    try:
        # Distinct working-set points: vary the clock so each is a
        # different fingerprint but shares coarsened tables.
        requests = [
            RankRequest(
                gates=args.gates,
                bunch_size=args.bunch,
                repeater_units=args.units,
                clock_frequency=(450.0 + 10.0 * index) * MEGA,
            )
            for index in range(args.points)
        ]
        bodies = [json.dumps(r.canonicalize()).encode("utf-8") for r in requests]

        probe = _Client(config.host, service.port)
        await probe.connect()

        # --- memoization gate: cold solve vs byte-identical replay.
        t0 = time.perf_counter()
        status, headers, first = await probe.request("POST", "/v1/rank", bodies[0])
        cold_s = time.perf_counter() - t0
        assert status == 200, f"cold solve failed: {status} {first!r}"
        assert headers.get("x-repro-cache") == "miss", headers
        t0 = time.perf_counter()
        status, headers, again = await probe.request("POST", "/v1/rank", bodies[0])
        hit_s = time.perf_counter() - t0
        assert status == 200, f"memoized request failed: {status}"
        assert headers.get("x-repro-cache") == "hit", headers
        byte_identical = first == again
        speedup = cold_s / hit_s if hit_s > 0 else float("inf")

        # --- closed loop over the working set.
        latencies: List[float] = []
        statuses: Dict[int, int] = {}
        counter = {"issued": 0}

        async def client_loop(client_index: int) -> None:
            client = _Client(config.host, service.port)
            await client.connect()
            try:
                while counter["issued"] < args.requests:
                    index = counter["issued"]
                    counter["issued"] += 1
                    body = bodies[(client_index + index) % len(bodies)]
                    start = time.perf_counter()
                    status, _, _ = await client.request("POST", "/v1/rank", body)
                    latencies.append(time.perf_counter() - start)
                    statuses[status] = statuses.get(status, 0) + 1
            finally:
                await client.close()

        loop_start = time.perf_counter()
        await asyncio.gather(
            *(client_loop(index) for index in range(args.clients))
        )
        loop_s = time.perf_counter() - loop_start

        status, _, metrics_raw = await probe.request("GET", "/v1/metrics")
        assert status == 200
        metrics = json.loads(metrics_raw)
        await probe.close()

        latencies.sort()
        completed = sum(statuses.values())
        return {
            "format": BENCH_FORMAT,
            "version": BENCH_VERSION,
            "config": {
                "gates": args.gates,
                "bunch_size": args.bunch,
                "repeater_units": args.units,
                "points": args.points,
                "clients": args.clients,
                "requests": args.requests,
                "workers": args.workers,
            },
            "machine": {
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "cpu_affinity": _cpu_affinity(),
            },
            "memoization": {
                "cold_s": cold_s,
                "hit_s": hit_s,
                "speedup": speedup,
                "byte_identical": byte_identical,
            },
            "closed_loop": {
                "requests": completed,
                "duration_s": loop_s,
                "rps": completed / loop_s if loop_s > 0 else 0.0,
                "p50_s": _quantile(latencies, 0.50),
                "p99_s": _quantile(latencies, 0.99),
                "max_s": latencies[-1] if latencies else 0.0,
                "statuses": {str(k): v for k, v in sorted(statuses.items())},
            },
            "service": {
                "cache": metrics["cache"],
                "counters": {
                    name: value
                    for name, value in sorted(
                        metrics["metrics"]["counters"].items()
                    )
                    if name.startswith("service.")
                },
            },
        }
    finally:
        await service.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--gates", type=int, default=200_000)
    parser.add_argument("--bunch", type=int, default=5_000)
    parser.add_argument("--units", type=int, default=128)
    parser.add_argument(
        "--points", type=int, default=4, help="distinct requests in the working set"
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="concurrent closed-loop connections"
    )
    parser.add_argument(
        "--requests", type=int, default=100, help="total closed-loop requests"
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--cache-entries", type=int, default=256)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    report = asyncio.run(_run_bench(args))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    memo = report["memoization"]
    loop = report["closed_loop"]
    print(
        f"cold {memo['cold_s'] * 1e3:.1f} ms -> hit {memo['hit_s'] * 1e3:.2f} ms "
        f"({memo['speedup']:.0f}x), byte_identical={memo['byte_identical']}"
    )
    print(
        f"closed loop: {loop['requests']} requests in {loop['duration_s']:.2f}s "
        f"= {loop['rps']:.0f} rps, p50 {loop['p50_s'] * 1e3:.2f} ms, "
        f"p99 {loop['p99_s'] * 1e3:.2f} ms"
    )
    print(f"wrote {args.out}")

    # The gates: a memoized replay that is not byte-identical, or not
    # faster than the cold solve, means the serving contract is broken.
    if not memo["byte_identical"]:
        print("GATE FAILED: memoized replay is not byte-identical", file=sys.stderr)
        return 1
    if memo["hit_s"] >= memo["cold_s"]:
        print(
            "GATE FAILED: memoized hit "
            f"({memo['hit_s']:.4f}s) not faster than cold solve "
            f"({memo['cold_s']:.4f}s)",
            file=sys.stderr,
        )
        return 1
    non_200 = {k: v for k, v in loop["statuses"].items() if k != "200"}
    if non_200:
        print(f"GATE FAILED: non-200 responses: {non_200}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
