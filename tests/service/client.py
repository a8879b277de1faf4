"""Test helpers: a minimal keep-alive HTTP client + service harness."""

import asyncio
import json
import time
from typing import Dict, Optional, Tuple

from repro.service import RankService, ServiceConfig

#: Fast solve defaults for integration tests.
SMALL_GATES = 20_000


def rank_body(**overrides) -> bytes:
    payload = {"gates": SMALL_GATES, "bunch_size": 2_000}
    payload.update(overrides)
    return json.dumps(payload).encode("utf-8")


class Client:
    """One keep-alive HTTP/1.1 connection, just enough for the tests."""

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

    async def at_eof(self) -> bool:
        """Whether the server closed its side (drains any buffered data)."""
        assert self._reader is not None
        try:
            data = await asyncio.wait_for(self._reader.read(1), timeout=2.0)
        except asyncio.TimeoutError:
            return False
        return data == b""

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: test",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        for name, value in extra_headers:
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
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


class running_service:
    """``async with running_service(...) as (service, client):``"""

    def __init__(self, **overrides) -> None:
        overrides.setdefault("port", 0)
        self._config = ServiceConfig(**overrides)
        self._service: Optional[RankService] = None
        self._client: Optional[Client] = None

    async def __aenter__(self):
        self._service = RankService(self._config)
        await self._service.start()
        self._client = Client(self._config.host, self._service.port)
        await self._client.connect()
        return self._service, self._client

    async def __aexit__(self, *exc_info) -> None:
        if self._client is not None:
            await self._client.close()
        if self._service is not None:
            await self._service.stop()


async def wait_until_async(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return False
