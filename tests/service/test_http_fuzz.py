"""Hostile byte streams: ``read_request`` parses a request or raises HttpError.

The connection loop answers an :class:`~repro.service.http.HttpError`
with its status and closes; any other exception would drop the
connection without an answer.  So whatever bytes a peer sends, the
parser may only return a request, return ``None`` (clean EOF) or raise
``HttpError``.  Lines are drawn up to and past both length caps: the
parser's own 8 KiB and the stream's 64 KiB buffer limit.
"""

import asyncio

from hypothesis import example, given
from hypothesis import strategies as st

from repro.service.http import MAX_HEADERS, HttpError, HttpRequest, read_request

#: Small enough that drawn Content-Length values also hit the 413 path.
MAX_BODY_BYTES = 256

#: Line lengths at and around the 8 KiB cap and the 64 KiB stream limit.
LONG_LINES = st.sampled_from([8191, 8192, 8193, 65535, 65536, 70000]).map(
    lambda n: b"a" * n
)

tokens = st.one_of(
    st.sampled_from(
        [b"GET", b"POST", b"/v1/rank", b"/v1/healthz?x=1", b"HTTP/1.1",
         b"HTTP/1.0", b"HTTP/2", b"", b" ", b"\xff\xfe", b"\x00"]
    ),
    st.binary(max_size=12),
    LONG_LINES,
)

header_values = st.one_of(
    st.sampled_from(
        [b"0", b"12", b"-1", b"999999", b"1e3", b"", b"close", b"keep-alive",
         b"chunked", b"\xff"]
    ),
    st.binary(max_size=12),
    LONG_LINES,
)

header_names = st.one_of(
    st.sampled_from(
        [b"Content-Length", b"content-length", b"Connection",
         b"Transfer-Encoding", b"Host"]
    ),
    st.binary(max_size=8),
)

headers = st.lists(
    st.one_of(
        st.tuples(header_names, header_values).map(lambda kv: kv[0] + b": " + kv[1]),
        st.binary(max_size=16),
        LONG_LINES,
    ),
    max_size=MAX_HEADERS + 2,
)

endings = st.sampled_from([b"\r\n", b"\n", b""])

#: Request-shaped streams: a request line, header lines, a body.
structured = st.builds(
    lambda line, header_lines, end, body: (
        b" ".join(line) + end + b"".join(h + end for h in header_lines) + end + body
    ),
    st.lists(tokens, min_size=0, max_size=4),
    headers,
    endings,
    st.binary(max_size=64),
)


def parse(raw):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes=MAX_BODY_BYTES)

    return asyncio.run(run())


@given(raw=st.one_of(st.binary(max_size=512), structured))
@example(raw=b"a" * 70000)
@example(raw=b"GET / HTTP/1.1\r\nHost: " + b"a" * 70000 + b"\r\n\r\n")
def test_read_request_parses_or_raises_http_error(raw):
    try:
        request = parse(raw)
    except HttpError as exc:
        assert 400 <= exc.status < 600
        return
    assert request is None or isinstance(request, HttpRequest)
