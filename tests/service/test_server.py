"""End-to-end service tests over real sockets.

Each test boots a :class:`repro.service.RankService` on an ephemeral
port inside ``asyncio.run`` and speaks raw HTTP/1.1 to it — the same
pipeline ``ia-rank serve`` runs, minus the signal handling.
"""

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.schema import SCHEMA_VERSION

from tests.service.client import (
    Client,
    rank_body,
    running_service,
    wait_until_async,
)


def gate_job(event):
    """Occupies an executor worker until the test releases it."""
    event.wait(10.0)
    return {"held": True}


def counter(metrics, name):
    return metrics["metrics"]["counters"].get(name, 0)


class TestRankMemoization:
    def test_miss_then_hit_byte_identical(self):
        async def scenario():
            async with running_service() as (service, client):
                body = rank_body(clock_frequency="480MHz")
                status, headers, first = await client.request(
                    "POST", "/v1/rank", body
                )
                assert status == 200
                assert headers["x-repro-cache"] == "miss"
                status, headers, again = await client.request(
                    "POST", "/v1/rank", body
                )
                assert status == 200
                assert headers["x-repro-cache"] == "hit"
                assert again == first

                payload = json.loads(first)
                assert payload["schema_version"] == SCHEMA_VERSION
                assert payload["rank"] > 0
                assert 0.0 < payload["normalized"] <= 1.0

                _, _, raw = await client.request("GET", "/v1/metrics")
                metrics = json.loads(raw)
                assert counter(metrics, "service.cache.hits") >= 1
                assert counter(metrics, "service.cache.misses") >= 1
                assert counter(metrics, "service.requests.rank") == 2

        asyncio.run(scenario())

    def test_equivalent_spellings_share_the_memo_entry(self):
        async def scenario():
            async with running_service() as (service, client):
                status, headers, first = await client.request(
                    "POST", "/v1/rank", rank_body(clock_frequency="470MHz")
                )
                assert (status, headers["x-repro-cache"]) == (200, "miss")
                status, headers, again = await client.request(
                    "POST", "/v1/rank", rank_body(clock_frequency=4.7e8)
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")
                assert again == first

        asyncio.run(scenario())

    def test_timing_lives_in_headers_not_the_body(self):
        async def scenario():
            async with running_service() as (service, client):
                _, headers, body = await client.request(
                    "POST", "/v1/rank", rank_body()
                )
                assert "x-repro-elapsed-s" in headers
                payload = json.loads(body)
                assert "elapsed" not in json.dumps(payload)

        asyncio.run(scenario())


class TestErrors:
    def test_schema_error_is_400_with_field_name(self):
        async def scenario():
            async with running_service() as (service, client):
                status, _, body = await client.request(
                    "POST", "/v1/rank", b'{"gates": -5}'
                )
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "SchemaError"
                assert "gates" in payload["message"]

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "body,field",
        [
            (
                b'{"gates": 200000, "bunch_size": 5000, '
                b'"repeater_units": 1000000000000}',
                "repeater_units",
            ),
            (b'{"gates": 1000000000000000000000000000000}', "gates"),
            (b'{"local_pairs": 100000000}', "local_pairs"),
        ],
    )
    def test_oversized_request_is_400_not_500(self, body, field):
        """Sizes the solve could not allocate are refused up front."""
        async def scenario():
            async with running_service() as (service, client):
                status, _, raw = await client.request("POST", "/v1/rank", body)
                assert status == 400
                payload = json.loads(raw)
                assert payload["error"] == "SchemaError"
                assert payload["message"].startswith(f"{field}: must be")

        asyncio.run(scenario())

    def test_retired_backend_field(self):
        """``backend`` is an ignored v1 field: a known value hits the
        memo entry of the same request without it, an unknown value is
        a 400 naming the field."""
        async def scenario():
            async with running_service() as (service, client):
                status, headers, first = await client.request(
                    "POST", "/v1/rank", rank_body(clock_frequency="460MHz")
                )
                assert (status, headers["x-repro-cache"]) == (200, "miss")
                status, headers, again = await client.request(
                    "POST",
                    "/v1/rank",
                    rank_body(clock_frequency="460MHz", backend="python"),
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")
                assert again == first
                status, _, body = await client.request(
                    "POST", "/v1/rank", rank_body(backend="fortran")
                )
                assert status == 400
                payload = json.loads(body)
                assert payload["error"] == "SchemaError"
                assert "backend" in payload["message"]

        asyncio.run(scenario())

    def test_invalid_json_is_400(self):
        async def scenario():
            async with running_service() as (service, client):
                status, _, body = await client.request(
                    "POST", "/v1/rank", b"{not json"
                )
                assert status == 400
                assert json.loads(body)["status"] == 400

        asyncio.run(scenario())

    def test_unknown_path_is_404(self):
        async def scenario():
            async with running_service() as (service, client):
                status, _, _ = await client.request("GET", "/v1/nope")
                assert status == 404

        asyncio.run(scenario())

    def test_wrong_method_is_405_with_allow(self):
        async def scenario():
            async with running_service() as (service, client):
                status, headers, _ = await client.request("GET", "/v1/rank")
                assert status == 405
                assert headers["allow"] == "POST"

        asyncio.run(scenario())

    def test_oversize_body_is_413_and_closes(self):
        async def scenario():
            async with running_service(max_body_bytes=64) as (service, client):
                status, _, _ = await client.request(
                    "POST", "/v1/rank", b"x" * 100
                )
                assert status == 413
                assert await client.at_eof()

        asyncio.run(scenario())


class TestDeadlines:
    def test_expired_deadline_is_504(self):
        async def scenario():
            async with running_service() as (service, client):
                status, _, body = await client.request(
                    "POST", "/v1/rank", rank_body(deadline_s=1e-9)
                )
                assert status == 504
                assert json.loads(body)["error"] == "DeadlineExceeded"
                _, _, raw = await client.request("GET", "/v1/metrics")
                assert counter(json.loads(raw), "service.deadline.expired") >= 1

        asyncio.run(scenario())

    def test_sweep_allow_partial_returns_prefix(self):
        async def scenario():
            async with running_service() as (service, client):
                body = json.dumps({
                    "knob": "C",
                    "values": ["450MHz", "500MHz"],
                    "gates": 20_000,
                    "deadline_s": 1e-9,
                    "allow_partial": True,
                }).encode()
                status, headers, raw = await client.request(
                    "POST", "/v1/sweep", body
                )
                assert status == 200
                payload = json.loads(raw)
                assert payload["partial"] is True
                assert payload["points"] == []
                # Partial results must not poison the memo.
                assert headers["x-repro-cache"] == "miss"
                status, headers, _ = await client.request(
                    "POST", "/v1/sweep", body
                )
                assert headers["x-repro-cache"] == "miss"

        asyncio.run(scenario())

    def test_sweep_without_allow_partial_is_504(self):
        async def scenario():
            async with running_service() as (service, client):
                body = json.dumps({
                    "knob": "C",
                    "values": ["450MHz"],
                    "gates": 20_000,
                    "deadline_s": 1e-9,
                    "allow_partial": False,
                }).encode()
                status, _, raw = await client.request("POST", "/v1/sweep", body)
                assert status == 504
                assert json.loads(raw)["error"] == "DeadlineExceeded"

        asyncio.run(scenario())


class TestSweep:
    def test_sweep_completes_and_memoizes(self):
        async def scenario():
            async with running_service() as (service, client):
                body = json.dumps({
                    "knob": "K",
                    "values": [3.9, 2.8],
                    "gates": 20_000,
                    "bunch_size": 2_000,
                }).encode()
                status, headers, raw = await client.request(
                    "POST", "/v1/sweep", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "miss")
                payload = json.loads(raw)
                assert payload["partial"] is False
                assert [p["value"] for p in payload["points"]] == [3.9, 2.8]
                # Lower permittivity -> faster wires -> higher rank.
                assert payload["points"][1]["rank"] >= payload["points"][0]["rank"]
                status, headers, again = await client.request(
                    "POST", "/v1/sweep", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")
                assert again == raw

        asyncio.run(scenario())

    def test_sweep_points_share_the_rank_memo(self):
        async def scenario():
            async with running_service() as (service, client):
                sweep = json.dumps({
                    "knob": "C",
                    "values": ["460MHz"],
                    "gates": 20_000,
                    "bunch_size": 2_000,
                }).encode()
                status, _, _ = await client.request("POST", "/v1/sweep", sweep)
                assert status == 200
                # The equivalent plain rank request replays from memo.
                status, headers, _ = await client.request(
                    "POST", "/v1/rank",
                    rank_body(clock_frequency="460MHz"),
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")

        asyncio.run(scenario())


class TestCorners:
    def test_corner_rollup(self):
        async def scenario():
            async with running_service() as (service, client):
                body = json.dumps({
                    "corners": ["fast-clock", "nominal"],
                    "gates": 20_000,
                    "bunch_size": 2_000,
                }).encode()
                status, headers, raw = await client.request(
                    "POST", "/v1/corners", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "miss")
                payload = json.loads(raw)
                names = [c["corner"] for c in payload["corners"]]
                assert sorted(names) == ["fast-clock", "nominal"]
                assert payload["worst"] in names
                assert payload["guardband"] >= 0.0
                status, headers, again = await client.request(
                    "POST", "/v1/corners", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")
                assert again == raw

        asyncio.run(scenario())

    def test_selections_share_per_corner_results(self):
        async def scenario():
            async with running_service() as (service, client):
                base = {"gates": 20_000, "bunch_size": 2_000}
                status, _, _ = await client.request(
                    "POST", "/v1/corners",
                    json.dumps({**base, "corners": ["nominal"]}).encode(),
                )
                assert status == 200
                _, _, raw = await client.request("GET", "/v1/metrics")
                hits_before = counter(json.loads(raw), "service.cache.hits")
                # A wider selection re-uses the nominal per-corner entry.
                status, _, _ = await client.request(
                    "POST", "/v1/corners",
                    json.dumps(
                        {**base, "corners": ["nominal", "fast-clock"]}
                    ).encode(),
                )
                assert status == 200
                _, _, raw = await client.request("GET", "/v1/metrics")
                assert counter(json.loads(raw), "service.cache.hits") > hits_before

        asyncio.run(scenario())


class TestOptimize:
    def test_tiny_space_end_to_end(self):
        async def scenario():
            async with running_service() as (service, client):
                body = json.dumps({
                    "local_pairs_choices": [1],
                    "semi_global_pairs_choices": [1],
                    "global_pairs_choices": [1],
                    "permittivities": [2.8],
                    "miller_factors": [1.0],
                    "gates": 20_000,
                    "bunch_size": 2_000,
                    "exhaustive_limit": 4,
                }).encode()
                status, headers, raw = await client.request(
                    "POST", "/v1/optimize", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "miss")
                payload = json.loads(raw)
                assert payload["evaluated"] >= 1
                assert payload["best"]["rank"] > 0
                assert payload["pareto"]
                status, headers, again = await client.request(
                    "POST", "/v1/optimize", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")
                assert again == raw

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self):
        async def scenario():
            async with running_service(
                workers=1, queue_depth=0
            ) as (service, client):
                gate = threading.Event()
                held = service.app.executor.submit(gate_job, gate)
                try:
                    status, headers, body = await client.request(
                        "POST", "/v1/rank", rank_body(clock_frequency="490MHz")
                    )
                    assert status == 429
                    assert float(headers["retry-after"]) > 0
                    assert json.loads(body)["error"] == "ServiceOverloaded"
                finally:
                    gate.set()
                    held.result(timeout=5)
                await wait_until_async(
                    lambda: service.app.executor.stats()["inflight"] == 0
                )
                # Capacity freed: the same request now succeeds.
                status, _, _ = await client.request(
                    "POST", "/v1/rank", rank_body(clock_frequency="490MHz")
                )
                assert status == 200
                _, _, raw = await client.request("GET", "/v1/metrics")
                assert counter(
                    json.loads(raw), "service.backpressure.rejections"
                ) >= 1

        asyncio.run(scenario())


class TestDedup:
    def test_concurrent_identical_requests_coalesce(self):
        async def scenario():
            async with running_service(
                workers=1, queue_depth=2
            ) as (service, client):
                gate = threading.Event()
                # Block the only worker so the solve cannot finish
                # before both requests are in flight.
                held = service.app.executor.submit(gate_job, gate)
                try:
                    other = Client(service.config.host, service.port)
                    await other.connect()
                    body = rank_body(clock_frequency="440MHz")
                    first = asyncio.ensure_future(
                        client.request("POST", "/v1/rank", body)
                    )
                    second = asyncio.ensure_future(
                        other.request("POST", "/v1/rank", body)
                    )

                    def coalesced():
                        counters = obs.snapshot()["counters"]
                        return counters.get("service.dedup.coalesced", 0) >= 1

                    assert await wait_until_async(coalesced)
                    gate.set()
                    (s1, h1, b1), (s2, h2, b2) = await asyncio.gather(
                        first, second
                    )
                    await other.close()
                finally:
                    gate.set()
                    held.result(timeout=5)
                assert (s1, s2) == (200, 200)
                assert b1 == b2
                assert {h1["x-repro-cache"], h2["x-repro-cache"]} == {
                    "miss", "coalesced"
                }

        asyncio.run(scenario())


class TestIntrospection:
    def test_healthz(self):
        async def scenario():
            async with running_service() as (service, client):
                status, _, raw = await client.request("GET", "/v1/healthz")
                assert status == 200
                payload = json.loads(raw)
                assert payload["status"] == "ok"
                assert payload["schema_version"] == SCHEMA_VERSION
                assert set(payload["executor"]) == {
                    "workers", "queue_depth", "capacity", "inflight",
                }

        asyncio.run(scenario())

    def test_metrics_shape(self):
        async def scenario():
            async with running_service() as (service, client):
                await client.request("POST", "/v1/rank", rank_body())
                status, _, raw = await client.request("GET", "/v1/metrics")
                assert status == 200
                payload = json.loads(raw)
                assert set(payload) >= {
                    "metrics", "latency", "cache", "executor", "precompute",
                }
                assert "service.requests" in payload["metrics"]["counters"]
                assert "rank" in payload["latency"]
                assert payload["cache"]["entries"] >= 1

        asyncio.run(scenario())


class TestMultiWorker:
    """``--workers N``: N solve threads sharing one precompute cache."""

    BODIES = [rank_body(clock_frequency=f"{400 + 10 * i}MHz") for i in range(8)]

    def test_concurrent_misses_match_single_worker_bytes(self):
        async def sequential():
            async with running_service(workers=1, warm_on_start=False) as (
                service,
                client,
            ):
                replies = []
                for body in self.BODIES:
                    status, _, raw = await client.request("POST", "/v1/rank", body)
                    assert status == 200
                    replies.append(raw)
                return replies

        async def concurrent():
            async with running_service(workers=2, warm_on_start=False) as (
                service,
                client,
            ):
                clients = [
                    Client(service.config.host, service.port) for _ in self.BODIES
                ]
                for extra in clients:
                    await extra.connect()
                try:
                    replies = await asyncio.gather(
                        *(
                            extra.request("POST", "/v1/rank", body)
                            for extra, body in zip(clients, self.BODIES)
                        )
                    )
                finally:
                    for extra in clients:
                        await extra.close()
                _, _, raw = await client.request("GET", "/v1/metrics")
                return replies, json.loads(raw)

        expected = asyncio.run(sequential())
        replies, metrics = asyncio.run(concurrent())
        assert [status for status, _, _ in replies] == [200] * len(self.BODIES)
        assert {headers["x-repro-cache"] for _, headers, _ in replies} == {"miss"}
        assert [raw for _, _, raw in replies] == expected
        assert metrics["executor"]["workers"] == 2
        precompute = metrics["precompute"]
        for stage in ("coarsened", "tables"):
            lookups = precompute["hits"][stage] + precompute["misses"][stage]
            assert lookups == len(self.BODIES)


class TestConnectionHandling:
    def test_keep_alive_serves_many_requests(self):
        async def scenario():
            async with running_service() as (service, client):
                for _ in range(3):
                    status, _, _ = await client.request("GET", "/v1/healthz")
                    assert status == 200

        asyncio.run(scenario())

    def test_connection_close_is_honored(self):
        async def scenario():
            async with running_service() as (service, client):
                status, headers, _ = await client.request(
                    "GET", "/v1/healthz",
                    extra_headers=(("Connection", "close"),),
                )
                assert status == 200
                assert headers["connection"] == "close"
                assert await client.at_eof()

        asyncio.run(scenario())

    def test_malformed_request_answers_400_and_closes(self):
        async def scenario():
            async with running_service() as (service, client):
                client._writer.write(b"NONSENSE\r\n\r\n")
                await client._writer.drain()
                line = await client._reader.readline()
                assert b"400" in line

        asyncio.run(scenario())
