"""The socket layer: asyncio connections around :class:`RankApp`.

Separated from :mod:`.app` so the request pipeline is testable (and
benchmarkable) without a port; this module owns only connection
acceptance, keep-alive, per-connection error containment, and graceful
shutdown on SIGTERM/SIGINT.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from typing import Optional

from .app import RankApp, Response, ServiceConfig
from .http import HttpError, json_error_body, read_request, render_response

__all__ = ["RankService", "serve"]

#: Largest request body accepted; a longer one answers ``413``.
MAX_BODY_BYTES = 1 << 20

#: Seconds an idle keep-alive connection waits for its next request.
IDLE_TIMEOUT_S = 75.0


class RankService:
    """One serving instance: app + listening socket.

    Usage (tests / embedding)::

        service = RankService(ServiceConfig(port=0))
        await service.start()
        ...  # talk to 127.0.0.1:service.port
        await service.stop()
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.app = RankApp(self.config)
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        port: int = self._server.sockets[0].getsockname()[1]
        return port

    async def start(self) -> None:
        self.app.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.app.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("start() the service first")
        await self._server.serve_forever()

    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive connection: read, dispatch, write, repeat."""
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, max_body_bytes=MAX_BODY_BYTES),
                        timeout=IDLE_TIMEOUT_S,
                    )
                except asyncio.TimeoutError:
                    break
                except HttpError as exc:
                    # Parse failures poison stream framing: answer and
                    # close rather than resynchronize.
                    writer.write(
                        render_response(
                            exc.status,
                            json_error_body(exc.status, "BadRequest", exc.message),
                            keep_alive=False,
                            extra_headers=exc.headers,
                        )
                    )
                    await writer.drain()
                    break
                except ConnectionError:
                    break
                if request is None:
                    break
                response: Response = await self.app.dispatch(request)
                writer.write(
                    render_response(
                        response.status,
                        response.body,
                        keep_alive=request.keep_alive,
                        extra_headers=response.headers,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                with contextlib.suppress(asyncio.CancelledError):
                    await writer.wait_closed()


async def _run(config: ServiceConfig) -> int:
    """Start, serve until SIGTERM/SIGINT, stop cleanly."""
    service = RankService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    print(
        f"ia-rank serve: listening on http://{config.host}:{service.port} "
        f"(workers={config.workers}, queue_depth={config.queue_depth})",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        await service.stop()
    return 0


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Blocking entry point used by ``ia-rank serve``."""
    try:
        return asyncio.run(_run(config or ServiceConfig()))
    except KeyboardInterrupt:
        return 130
