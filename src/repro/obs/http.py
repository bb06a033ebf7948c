"""Asyncio HTTP endpoint for ``/metrics``, ``/healthz`` and ``/events``.

A deliberately small HTTP/1.0-style server on ``asyncio.start_server`` —
no frameworks, no threads — good enough for a Prometheus scraper, a
``curl``, and the CI gate:

* ``GET /metrics`` — the Prometheus text exposition of a freshly written
  :class:`~repro.obs.prom.Exposition` (the ``source`` callable renders
  live state per scrape);
* ``GET /healthz`` — JSON liveness: ``{"status": "ok", ...}``, merged
  with the optional ``health`` callable's payload (``repro serve`` adds
  its gateway's progress and queue state).  Always
  HTTP 200: an instance that rode out its deadlines has a verdict like
  any other, and the tier verdicts live in ``/metrics``;
* ``GET /events`` — the event bus's recent ring buffer as JSON
  (``?n=50`` bounds the tail);
* anything else — 404.

Port 0 binds an ephemeral port; :attr:`ObsServer.port` reports the real
one after :meth:`ObsServer.start`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.events import EventBus
from repro.obs.prom import Exposition, metrics_registry

__all__ = ["ObsServer"]

_MAX_REQUEST_BYTES = 8192


class ObsServer:
    """Serves one exposition snapshot per scrape, plus health and events."""

    def __init__(
        self,
        source: Callable[[], Exposition],
        health: Optional[Callable[[], Dict[str, object]]] = None,
        bus: Optional[EventBus] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.source = source
        self.health = health
        self.bus = bus
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @classmethod
    def for_service(cls, service, port: int) -> "ObsServer":
        """The endpoint ``repro serve`` puts on a service.

        ``/metrics`` snapshots the service's aggregate recorder, gateway
        state, and the bus and tracer that recorder carries per scrape;
        ``/events`` serves that bus; ``/healthz`` adds the gateway's
        progress and queue state to ``"status": "ok"``.
        """
        aggregate = service.aggregate_metrics
        bus = aggregate.bus
        return cls(
            lambda: metrics_registry(
                aggregate, service=service, bus=bus, tracer=aggregate.tracer
            ),
            health=lambda: {
                "instances_done": service.decided,
                "inflight": service.inflight,
                "queue_depth": service.queue_depth,
            },
            bus=bus,
            port=port,
        )

    @property
    def port(self) -> int:
        """The actually bound port (resolves port 0 after start)."""
        if self._server is None:
            return self._requested_port
        sockets = self._server.sockets or []
        if not sockets:
            return self._requested_port
        return sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._requested_port
        )

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ObsServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            # Drain headers (bounded); we never need their contents.
            drained = len(request_line)
            while drained < _MAX_REQUEST_BYTES:
                line = await reader.readline()
                drained += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
            try:
                method, target, _version = (
                    request_line.decode("latin-1").split(None, 2)
                )
            except ValueError:
                await self._respond(
                    writer, 400, "text/plain", "bad request\n"
                )
                return
            if method.upper() not in ("GET", "HEAD"):
                await self._respond(
                    writer, 405, "text/plain", "method not allowed\n"
                )
                return
            status, content_type, body = self._route(target)
            if method.upper() == "HEAD":
                body = ""
            await self._respond(writer, status, content_type, body)
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception:
            # A broken scrape must never take the service down with it.
            try:
                await self._respond(
                    writer, 500, "text/plain", "internal error\n"
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _route(self, target: str) -> Tuple[int, str, str]:
        parts = urlsplit(target)
        path = parts.path
        if path == "/metrics":
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.source().render(),
            )
        if path == "/healthz":
            # The health callable's payload is merged over the default.
            # Always HTTP 200: the process is alive and scrapable, and a
            # probe must not misread anything in the body as "restart me".
            payload: Dict[str, object] = {"status": "ok"}
            if self.health is not None:
                payload.update(self.health())
            return 200, "application/json", json.dumps(payload) + "\n"
        if path == "/events":
            if self.bus is None:
                events = []
            else:
                n: Optional[int] = None
                raw = parse_qs(parts.query).get("n")
                if raw:
                    try:
                        n = max(0, int(raw[0]))
                    except ValueError:
                        return 400, "text/plain", "bad ?n= value\n"
                events = [e.to_dict() for e in self.bus.recent(n)]
            return (
                200,
                "application/json",
                json.dumps({"events": events}) + "\n",
            )
        return 404, "text/plain", f"no route for {path}\n"

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            500: "Internal Server Error",
        }.get(status, "OK")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
