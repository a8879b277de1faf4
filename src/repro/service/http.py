"""A deliberately small HTTP/1.1 layer over asyncio streams.

The service speaks exactly the HTTP it needs — ``GET``/``POST``,
``Content-Length`` bodies, keep-alive — hand-rolled on
:mod:`asyncio.streams` so the package stays stdlib-only (the repo's
no-new-dependencies rule).  Anything outside that envelope (chunked
transfer, upgrades, multipart) is rejected with the appropriate 4xx/5xx
rather than guessed at.

Requests are parsed into :class:`HttpRequest`; handler-visible
failures raise :class:`HttpError`, which the connection loop turns
into a JSON error response.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "render_response",
    "json_error_body",
]

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    504: "Gateway Timeout",
}

#: Hard parsing limits: one request line / header line, header count.
MAX_LINE_BYTES = 8192
MAX_HEADERS = 64


class HttpError(Exception):
    """An HTTP-level failure with a definite status code."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:  # longer than the stream's own buffer limit
        raise HttpError(400, "header line too long") from None
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(400, "header line too long")
    return line


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> Optional[HttpRequest]:
    """Parse one request off the stream.

    Returns ``None`` on a clean EOF before any request bytes (the peer
    closed an idle keep-alive connection); raises :class:`HttpError`
    for anything malformed or outside the supported envelope.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        text = request_line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise HttpError(400, "request line is not ASCII") from None
    parts = text.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {text!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol version {version!r}")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpError(400, "connection closed mid-headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise HttpError(400, "undecodable header") from None
        if not _:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, f"more than {MAX_HEADERS} headers")

    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked transfer encoding is not supported")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_text!r}") from None
        if length < 0:
            raise HttpError(400, f"bad Content-Length {length!r}")
        if length > max_body_bytes:
            raise HttpError(
                413, f"request body of {length} bytes exceeds {max_body_bytes}"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "connection closed mid-body") from None

    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:
        keep_alive = connection == "keep-alive"

    # Strip any query string: the API is pure-path + JSON bodies.
    path = target.split("?", 1)[0]
    return HttpRequest(
        method=method, path=path, headers=headers, body=body,
        keep_alive=keep_alive,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """Serialize one response, headers and body, ready to write."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_error_body(status: int, error: str, message: str) -> bytes:
    """The uniform JSON error payload."""
    payload: Mapping[str, object] = {
        "status": status,
        "error": error,
        "message": message,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")
