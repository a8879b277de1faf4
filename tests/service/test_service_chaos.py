"""Chaos leg: deterministic fault injection through the serving stack.

The service solves on threads in this process, so the installed
schedule (a process-global) is visible to the workers; the faults exercise the
error containment of :meth:`RankApp.dispatch` — an injected failure
answers 500 without killing the connection, the server recovers on the
next request, and failures are never memoized.
"""

import asyncio
import json

from repro.faultkit import FaultSchedule, FaultSpec, activated

from tests.service.client import rank_body, running_service


def raise_at(site, times=1):
    return FaultSchedule(
        specs=(FaultSpec(site=site, kind="raise", times=times),), seed=7
    )


class TestSolveFaults:
    def test_injected_solve_fault_answers_500_then_recovers(self):
        async def scenario():
            async with running_service() as (service, client):
                body = rank_body(clock_frequency="430MHz")
                with activated(raise_at("service.solve.start")):
                    status, _, raw = await client.request(
                        "POST", "/v1/rank", body
                    )
                    assert status == 500
                    payload = json.loads(raw)
                    assert payload["error"] == "InjectedFault"
                    # The failure must not be memoized: the retry below
                    # recomputes (and succeeds, the spec fired once).
                    status, headers, _ = await client.request(
                        "POST", "/v1/rank", body
                    )
                    assert (status, headers["x-repro-cache"]) == (200, "miss")
                status, headers, _ = await client.request(
                    "POST", "/v1/rank", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")

        asyncio.run(scenario())

    def test_sweep_records_injected_fault_as_point_failure(self):
        async def scenario():
            async with running_service() as (service, client):
                body = json.dumps({
                    "knob": "K",
                    "values": [3.9, 2.8],
                    "gates": 20_000,
                    "bunch_size": 2_000,
                }).encode()
                with activated(raise_at("service.solve.start")):
                    status, headers, raw = await client.request(
                        "POST", "/v1/sweep", body
                    )
                assert status == 200
                payload = json.loads(raw)
                # First point failed by injection, second succeeded.
                assert len(payload["failures"]) == 1
                assert payload["failures"][0]["error"] == "InjectedFault"
                assert len(payload["points"]) == 1
                assert payload["partial"] is False
                # A sweep with failures is not memoized; the clean retry
                # recomputes the failed point and then memoizes.
                status, headers, raw = await client.request(
                    "POST", "/v1/sweep", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "miss")
                assert len(json.loads(raw)["points"]) == 2
                status, headers, _ = await client.request(
                    "POST", "/v1/sweep", body
                )
                assert (status, headers["x-repro-cache"]) == (200, "hit")

        asyncio.run(scenario())


class TestRequestFaults:
    def test_injected_dispatch_fault_answers_500(self):
        async def scenario():
            async with running_service() as (service, client):
                with activated(raise_at("service.request.start")):
                    status, _, raw = await client.request("GET", "/v1/healthz")
                    assert status == 500
                    assert json.loads(raw)["error"] == "InjectedFault"
                status, _, _ = await client.request("GET", "/v1/healthz")
                assert status == 200

        asyncio.run(scenario())
