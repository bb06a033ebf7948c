"""The HTTP client the tests scrape a live ``ObsServer`` with."""

from __future__ import annotations

import asyncio
from typing import Tuple


async def scrape(
    host: str, port: int, path: str = "/metrics", timeout: float = 5.0
) -> Tuple[int, str]:
    """Minimal HTTP GET; returns ``(status, body)``.

    Stdlib-only and loop-friendly: ``urllib`` would block the event loop
    of the service under test mid-run.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        request = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(request.encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    try:
        status = int(status_line.split()[1])
    except (IndexError, ValueError):
        raise ValueError(f"malformed HTTP response: {status_line!r}")
    return status, body.decode("utf-8", "replace")
