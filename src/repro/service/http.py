"""Minimal HTTP/1.1 framing over asyncio streams.

The service speaks a deliberately small slice of HTTP — JSON bodies over
``GET``/``POST`` with keep-alive — implemented directly on
:mod:`asyncio` streams so the library gains a network face without any
new runtime dependency.  The framing is strict where it matters for a
JSON API (request-line shape, header syntax, ``Content-Length`` bodies,
size limits) and silent about everything it does not need (chunked
transfer, multipart, range requests all answer 400).

:func:`read_request` parses one request off a stream (``None`` on a
clean end-of-stream between requests), :func:`encode_response` frames
one JSON response, and :class:`HttpError` carries a status code from the
parser to the connection loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from urllib.parse import urlsplit

__all__ = ["HttpError", "Request", "encode_response", "read_request"]

_MAX_LINE = 8192
_MAX_HEADERS = 64
#: Request body cap: a batch of a few thousand specs fits comfortably.
MAX_BODY = 8 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """Protocol-level failure; ``status`` becomes the response code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request: method, target path, lower-cased headers, raw body."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    def json(self):
        """The body decoded as JSON (:class:`HttpError` 400 when it isn't)."""
        if not self.body:
            raise HttpError(400, "request body is empty (expected JSON)")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line off ``reader``; :class:`HttpError` 400 from ``_MAX_LINE`` bytes on."""
    try:
        line = await reader.readline()
    except ValueError:  # past the stream's own buffer limit (64 KiB by default)
        raise HttpError(400, f"{what} too long") from None
    if len(line) >= _MAX_LINE:
        raise HttpError(400, f"{what} too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a clean end-of-stream.

    A ``Content-Length`` past :data:`MAX_BODY` is :class:`HttpError` 413,
    raised before the body is read.
    """
    line = await _read_line(reader, "request line")
    if not line:
        return None  # connection closed between requests: normal keep-alive end
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line: {line.decode('latin-1')!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line: {line.decode('latin-1')!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, f"more than {_MAX_HEADERS} headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "Content-Length is not an integer") from None
    if length < 0:
        raise HttpError(400, "Content-Length is negative")
    if length > MAX_BODY:
        raise HttpError(413, f"request body of {length} bytes exceeds the {MAX_BODY}-byte cap")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None  # peer hung up mid-body; nothing to answer
    return Request(
        method=method.upper(),
        path=urlsplit(target).path,
        headers=headers,
        body=body,
    )


def encode_response(
    status: int,
    payload,
    *,
    keep_alive: bool = True,
    headers: dict[str, str] | None = None,
) -> bytes:
    """Frame one JSON response (``allow_nan=False``: the wire is strict JSON).

    ``headers`` adds extra response headers (e.g. ``Retry-After`` on a 429
    shed); names and values must be latin-1 encodable.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False).encode(
        "utf-8"
    )
    reason = _REASONS.get(status, "Unknown")
    extra = ""
    if headers:
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        "\r\n"
    )
    return head.encode("latin-1") + body
