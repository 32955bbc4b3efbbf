"""The asyncio HTTP + WebSocket front door over the query service.

One :class:`ReproServer` owns a :class:`~repro.service.service.QueryService`
(thread or process backend — the server never touches engine internals, it
consumes the same facade surface as ``repro.connect``), a
:class:`~repro.server.scheduler.FairScheduler` in front of it, and a plain
``asyncio.start_server`` socket loop speaking just enough HTTP/1.1:

========  ==========================  =======================================
method    path                        behaviour
========  ==========================  =======================================
POST      ``/queries``                admit SQL for a tenant -> 201 + id
                                      (429 + Retry-After when throttled)
GET       ``/queries``                every known query's status snapshot
GET       ``/queries/{id}``           one query's status + latest progress
DELETE    ``/queries/{id}``           cooperative cancel
GET       ``/queries/{id}/events``    WebSocket: queued / sample* / end
GET       ``/metrics``                queue depths, per-tenant ticks/s,
                                      p50/p99 latency
GET       ``/healthz``                liveness + loop flavor
========  ==========================  =======================================

Connections are one-request (``Connection: close``) except the WebSocket
upgrade, which hands the socket to the event stream: frames are the
query's buffered-and-live :class:`~repro.server.bridge.EventStream`, so a
client connecting at any point sees the complete ordered sequence —
``queued``, every cadence ``sample`` (estimates live, ``actual`` null
mid-run), then ``end`` carrying the sealed, truth-labeled trace.
A connection that has not delivered its request line, headers and body
within :data:`REQUEST_READ_TIMEOUT` seconds is answered 408 and closed;
an upgraded WebSocket stream is not timed.

Everything runs on the standard library; ``uvloop``/``websockets`` are
picked up through :mod:`repro.server.compat` when installed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Dict, Optional, Tuple

from repro.server import compat, wsproto
from repro.server.bridge import EventStream, StreamSink
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.server.scheduler import FairScheduler, TenantThrottled
from repro.service.service import QueryService

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 414: "URI Too Long", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
}

#: most header lines one request may carry (``http.client``'s own limit);
#: a line longer than the ``StreamReader`` buffer limit is refused too
MAX_HEADERS = 100
#: seconds a connection may take to deliver its request line, headers and
#: body before it is answered 408 and closed (WebSocket streams, once
#: upgraded, are not timed)
REQUEST_READ_TIMEOUT = 30.0


class _RequestError(Exception):
    """A request refused before routing, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ReproServer:
    """The network tier: HTTP admission, WebSocket streams, fair dispatch."""

    def __init__(
        self,
        catalog=None,
        *,
        config: Optional[ServerConfig] = None,
        service: Optional[QueryService] = None,
    ) -> None:
        self.config = (config or ServerConfig()).resolved()
        self.service = service if service is not None else QueryService(
            catalog,
            options=self.config.options,
            default_deadline=self.config.default_deadline,
        )
        self._owns_service = service is None
        self.metrics = ServerMetrics()
        self.scheduler = FairScheduler(
            self.service,
            metrics=self.metrics,
            default_quota=self.config.default_quota,
            quotas=self.config.quotas,
            sinks=self.config.sinks,
        )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle (on the loop) ---------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is set on return."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain the scheduler, shut the service down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.shutdown()
        if self._owns_service:
            self.service.shutdown()

    # -- lifecycle (background thread, for the CLI / tests / benchmarks) -----------

    def start_background(self, timeout: float = 30.0) -> "ReproServer":
        """Run the event loop on a daemon thread; returns once bound."""
        ready = threading.Event()

        def main() -> None:
            loop = compat.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:
                self._startup_error = exc
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True,
                    ))
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-server-loop", daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("server failed to start within %ss" % timeout)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop_background(self, timeout: float = 30.0) -> None:
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        try:
            future.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            self._thread = None

    @contextlib.contextmanager
    def running(self, timeout: float = 30.0):
        """``with server.running():`` — background start/stop bracketing."""
        self.start_background(timeout)
        try:
            yield self
        finally:
            self.stop_background(timeout)

    # -- in-process admission ------------------------------------------------------

    def submit_local(self, tenant: str, query, *, name: Optional[str] = None,
                     deadline: Optional[float] = None,
                     target_samples: Optional[int] = None,
                     stream: bool = True):
        """Admit a query from in-process code, streams and all.

        The HTTP body only carries SQL text; workloads defined as plan
        factories (the CLI's TPC-H mix, benchmarks) enter here instead and
        get the same event stream a POSTed query would, so their WebSocket
        endpoint works identically.
        """
        if self._loop is None:
            raise RuntimeError("server is not running")
        event_stream = EventStream(self._loop) if stream else None
        return self.scheduler.submit(
            tenant, query, name=name, deadline=deadline,
            target_samples=target_samples, stream=event_stream,
            sinks=(StreamSink(event_stream),) if event_stream else (),
        )

    # -- connection handling -------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        keep_open = False
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_READ_TIMEOUT,
                )
            except asyncio.TimeoutError:
                raise _RequestError(
                    408, "no complete request within %g s"
                    % REQUEST_READ_TIMEOUT,
                ) from None
            if request is None:
                return
            method, path, headers, body = request
            self.metrics.record_request()
            keep_open = await self._route(
                method, path, headers, body, reader, writer,
            )
        except asyncio.IncompleteReadError:
            pass
        except _RequestError as exc:
            with contextlib.suppress(Exception):
                self._respond(writer, exc.status, {"error": str(exc)})
        except Exception as exc:
            with contextlib.suppress(Exception):
                self._respond(writer, 500, {"error": str(exc)})
        finally:
            if not keep_open:
                with contextlib.suppress(Exception):
                    writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readline()
        except ValueError:  # longer than the StreamReader buffer limit
            raise _RequestError(414, "request line too long") from None
        if not line.strip():
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise _RequestError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                header = await reader.readline()
            except ValueError:
                raise _RequestError(431, "header line too long") from None
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _RequestError(431, "more than %d header lines"
                                % MAX_HEADERS)
        raw_length = headers.get("content-length", "0") or "0"
        # 1*DIGIT only: no sign, so a negative length never reaches
        # readexactly.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _RequestError(400, "invalid Content-Length %r" % raw_length)
        length = int(raw_length)
        if length > self.config.max_body_bytes:
            raise _RequestError(413, "request body exceeds %d bytes"
                                % self.config.max_body_bytes)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request; True when the socket was handed to a WS."""
        if path == "/healthz" and method == "GET":
            self._respond(writer, 200, {
                "ok": True, "loop": compat.event_loop_flavor(),
            })
            return False
        if path == "/metrics" and method == "GET":
            self._respond(writer, 200, self.metrics.snapshot(
                queue_depths=self.scheduler.queue_depths(),
            ))
            return False
        if path == "/queries" and method == "POST":
            self._post_query(writer, body)
            return False
        if path == "/queries" and method == "GET":
            self._respond(writer, 200, {"queries": [
                scheduled.snapshot()
                for scheduled in self.scheduler.queries()
            ]})
            return False
        if path.startswith("/queries/"):
            rest = path[len("/queries/"):]
            if rest.endswith("/events") and method == "GET":
                query_id = rest[: -len("/events")]
                return await self._websocket(
                    query_id, headers, reader, writer,
                )
            if "/" not in rest:
                if method == "GET":
                    self._get_query(writer, rest)
                    return False
                if method == "DELETE":
                    self._delete_query(writer, rest)
                    return False
        self._respond(writer, 404 if method in ("GET", "POST", "DELETE")
                      else 405, {"error": "no route for %s %s"
                                 % (method, path)})
        return False

    # -- HTTP handlers --------------------------------------------------------------

    def _post_query(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            self._respond(writer, 400, {"error": "body must be JSON"})
            return
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self._respond(writer, 400, {
                "error": "a non-empty 'sql' string is required",
            })
            return
        tenant = str(payload.get("tenant") or "default")
        stream = EventStream(asyncio.get_running_loop())
        try:
            scheduled = self.scheduler.submit(
                tenant,
                sql,
                name=payload.get("name"),
                deadline=payload.get("deadline"),
                target_samples=payload.get("target_samples"),
                stream=stream,
                sinks=(StreamSink(stream),),
            )
        except TenantThrottled as exc:
            self._respond(writer, 429, {
                "error": str(exc), "tenant": exc.tenant,
                "pending": exc.pending, "max_pending": exc.max_pending,
            }, extra_headers={"Retry-After": "1"})
            return
        except Exception as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        record = scheduled.snapshot()
        record["events_path"] = "/queries/%s/events" % scheduled.query_id
        self._respond(writer, 201, record)

    def _get_query(self, writer: asyncio.StreamWriter, query_id: str) -> None:
        scheduled = self.scheduler.get(query_id)
        if scheduled is None:
            self._respond(writer, 404, {"error": "unknown query %r"
                                        % query_id})
            return
        self._respond(writer, 200, scheduled.snapshot())

    def _delete_query(self, writer: asyncio.StreamWriter,
                      query_id: str) -> None:
        scheduled = self.scheduler.get(query_id)
        if scheduled is None:
            self._respond(writer, 404, {"error": "unknown query %r"
                                        % query_id})
            return
        cancelled = self.scheduler.cancel(query_id)
        self._respond(writer, 200, {
            "id": query_id, "cancelled": cancelled,
            "state": scheduled.state_name(),
        })

    # -- the WebSocket leg -----------------------------------------------------------

    async def _websocket(self, query_id: str, headers: Dict[str, str],
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        scheduled = self.scheduler.get(query_id)
        if scheduled is None or scheduled.stream is None:
            self._respond(writer, 404, {"error": "unknown query %r"
                                        % query_id})
            return False
        key = headers.get("sec-websocket-key")
        if (headers.get("upgrade", "").lower() != "websocket"
                or key is None):
            self._respond(writer, 400, {
                "error": "this endpoint requires a WebSocket upgrade",
            })
            return False
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            "Sec-WebSocket-Accept: %s\r\n\r\n" % wsproto.accept_key(key)
        ).encode("latin-1"))
        await writer.drain()
        queue = scheduled.stream.subscribe()
        self.metrics.record_ws_open()
        sender = asyncio.ensure_future(self._ws_send(writer, queue))
        receiver = asyncio.ensure_future(self._ws_recv(reader, writer))
        try:
            await asyncio.wait(
                {sender, receiver}, return_when=asyncio.FIRST_COMPLETED,
            )
            sender.cancel()  # a no-op for the task that already finished
            receiver.cancel()
            # Retrieve both outcomes: when the peer drops mid-stream the
            # sender's drain() fails with a ConnectionError, which would
            # otherwise be logged as "Task exception was never retrieved".
            await asyncio.gather(sender, receiver, return_exceptions=True)
        finally:
            scheduled.stream.unsubscribe(queue)
            self.metrics.record_ws_close()
            with contextlib.suppress(Exception):
                writer.close()
        return True

    async def _ws_send(self, writer: asyncio.StreamWriter,
                       queue: "asyncio.Queue") -> None:
        while True:
            frame = await queue.get()
            if frame is None:
                writer.write(wsproto.encode_close(1000, "stream complete"))
                await writer.drain()
                return
            writer.write(wsproto.encode_text(
                json.dumps(frame, sort_keys=True),
            ))
            await writer.drain()

    async def _ws_recv(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        """Honour client close/ping; returns when the peer goes away."""
        while True:
            try:
                opcode, payload, _fin = await wsproto.read_frame_async(
                    reader.readexactly, wsproto.MAX_CONTROL_PAYLOAD,
                )
            except wsproto.FrameTooLarge as exc:
                with contextlib.suppress(Exception):
                    writer.write(wsproto.encode_close(
                        wsproto.CLOSE_TOO_BIG, str(exc),
                    ))
                    await writer.drain()
                return
            except (asyncio.IncompleteReadError, wsproto.WebSocketError,
                    ConnectionError):
                return
            if opcode == wsproto.OP_CLOSE:
                with contextlib.suppress(Exception):
                    writer.write(wsproto.encode_close())
                    await writer.drain()
                return
            if opcode == wsproto.OP_PING:
                writer.write(wsproto.encode_frame(
                    payload, wsproto.OP_PONG,
                ))
                await writer.drain()

    # -- response plumbing -----------------------------------------------------------

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 payload: Dict[str, object],
                 extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
            "Content-Type: application/json",
            "Content-Length: %d" % len(body),
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append("%s: %s" % (name, value))
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
