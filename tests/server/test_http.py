"""The HTTP surface: admission, status, cancel, throttling, metrics.

One module-scoped server on the thread backend serves most tests; the
throttle test gets a dedicated one-worker server with a one-slot quota,
whose worker a gated query holds while the backlog is observed, and the
dropped-client test gets one whose event loop records every exception it
is handed.  Malformed requests go over raw sockets, since ``http.client``
refuses to send them.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import socket
import struct
import threading
import time

import pytest

from repro.engine.operators import RowSource
from repro.engine.plan import Plan
from repro.options import ExecutionOptions
from repro.server import (
    ReproServer,
    ServerClient,
    ServerClientError,
    ServerConfig,
    TenantQuota,
)
from repro.server import wsproto
from repro.stats import StatisticsManager
from repro.storage import Table, schema_of
from repro.workloads import generate_tpch


@pytest.fixture(scope="module")
def db():
    database = generate_tpch(scale=0.0004, skew=2.0, seed=7)
    database.catalog.add_table(Table(
        "big",
        schema_of("big", "x:int", "g:int"),
        [(i, i % 13) for i in range(30000)],
    ))
    StatisticsManager(database.catalog).analyze_all()
    return database


@pytest.fixture(scope="module")
def server(db):
    instance = ReproServer(db.catalog, config=ServerConfig(
        options=ExecutionOptions(backend="thread", max_workers=2,
                                 queue_depth=32),
    ))
    with instance.running():
        yield instance


@pytest.fixture(scope="module")
def client(server):
    return ServerClient(server.config.host, server.port)


BIG_SQL = "SELECT g, COUNT(*), SUM(x) FROM big GROUP BY g"


def raw_request(server, data: bytes):
    """Send raw bytes; return the response's status code and JSON body."""
    with socket.create_connection(
        (server.config.host, server.port), timeout=10.0,
    ) as sock:
        sock.sendall(data)
        response = bytearray()
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
    head, _, body = bytes(response).partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n")[0].decode("latin-1")
    return int(status_line.split()[1]), status_line, json.loads(body)


class TestHealthAndRouting:
    def test_healthz(self, client):
        record = client.healthz()
        assert record["ok"] is True
        assert record["loop"] in ("asyncio", "uvloop")

    def test_unknown_route_is_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_unknown_method_is_405(self, client):
        status, _payload = client.request("PUT", "/queries")
        assert status == 405

    def test_unknown_query_is_404(self, client):
        status, _payload = client.request("GET", "/queries/q-999999")
        assert status == 404
        status, _payload = client.request("DELETE", "/queries/q-999999")
        assert status == 404


class TestAdmission:
    def test_submit_executes_and_reports(self, client):
        record = client.submit(
            "SELECT COUNT(*) FROM lineitem",
            tenant="t-http", name="count-li", target_samples=10,
        )
        assert record["id"].startswith("q-")
        assert record["query"] == "count-li"
        assert record["tenant"] == "t-http"
        assert record["events_path"].endswith("/events")
        frames = client.stream_events(record["id"])
        events = [frame["event"] for frame in frames]
        assert events[0] == "queued"
        assert events[-1] == "end"
        assert set(events[1:-1]) == {"sample"}
        end = frames[-1]
        assert end["state"] == "done"
        assert end["total"] > 0
        assert len(end["trace"]) == len(events) - 2
        # Live samples are unlabeled; the sealed
        # trace in the terminal frame carries the back-filled truth.
        for frame in frames[1:-1]:
            assert frame["actual"] is None
        for sample in end["trace"]:
            assert sample["actual"] is not None
        status = client.status(record["id"])
        assert status["state"] == "done"
        assert status["done"] is True

    def test_listing_contains_submitted_queries(self, client):
        record = client.submit(
            "SELECT COUNT(*) FROM region", tenant="t-list",
            name="list-me", target_samples=5,
        )
        names = {entry["query"] for entry in client.queries()}
        assert "list-me" in names
        client.stream_events(record["id"])

    def test_body_must_be_json(self, client):
        conn_status, payload = client.request("POST", "/queries")
        assert conn_status == 400
        assert "sql" in payload["error"]

    def test_sql_required(self, client):
        status, payload = client.request("POST", "/queries",
                                         {"tenant": "x"})
        assert status == 400
        assert "sql" in payload["error"]

    def test_invalid_sql_fails_the_query(self, client):
        # Planning happens at dispatch (POST stays fast), so bad SQL is
        # admitted and then surfaces as a failed query with the error on
        # the stream's terminal frame.
        record = client.submit("FROBNICATE THE LINEITEMS",
                               tenant="t-bad")
        frames = client.stream_events(record["id"])
        assert [frame["event"] for frame in frames] == ["queued", "end"]
        assert frames[-1]["state"] == "failed"
        assert frames[-1]["error"]
        status = client.status(record["id"])
        assert status["state"] == "failed"
        assert "error" in status

    def test_websocket_upgrade_required_on_events(self, client, server):
        record = client.submit("SELECT COUNT(*) FROM region",
                               tenant="t-up", target_samples=5)
        status, payload = client.request(
            "GET", "/queries/%s/events" % record["id"],
        )
        assert status == 400
        assert "WebSocket" in payload["error"]
        client.stream_events(record["id"])


class TestMalformedRequests:
    def test_malformed_request_line_is_400(self, server):
        status, _line, payload = raw_request(server, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert "request line" in payload["error"]

    @pytest.mark.parametrize("length", ["-5", "abc", "+3", "1.5"])
    def test_invalid_content_length_is_400(self, server, length):
        status, _line, payload = raw_request(server, (
            "POST /queries HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % length
        ).encode("latin-1"))
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_body_is_413(self, server):
        length = server.config.max_body_bytes + 1
        status, line, payload = raw_request(server, (
            "POST /queries HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length
        ).encode("latin-1"))
        assert status == 413
        assert line.endswith("Payload Too Large")
        assert str(server.config.max_body_bytes) in payload["error"]

    def test_overlong_request_line_is_414(self, server):
        status, line, payload = raw_request(server, (
            "GET /%s HTTP/1.1\r\n\r\n" % ("a" * 70000)
        ).encode("latin-1"))
        assert status == 414
        assert line.endswith("URI Too Long")
        assert "request line" in payload["error"]

    def test_overlong_header_line_is_431(self, server):
        status, line, payload = raw_request(server, (
            "GET /healthz HTTP/1.1\r\nX-Big: %s\r\n\r\n" % ("a" * 70000)
        ).encode("latin-1"))
        assert status == 431
        assert line.endswith("Request Header Fields Too Large")
        assert "header line" in payload["error"]

    def test_too_many_headers_is_431(self, server):
        def request_with(count):
            headers = "".join("X-H%d: v\r\n" % i for i in range(count))
            return raw_request(server, (
                "GET /healthz HTTP/1.1\r\n%s\r\n" % headers
            ).encode("latin-1"))

        for count in (5000, 101):
            status, line, payload = request_with(count)
            assert status == 431
            assert line.endswith("Request Header Fields Too Large")
            assert "100 header lines" in payload["error"]
        status, _line, payload = request_with(100)  # the limit itself
        assert status == 200
        assert payload["ok"] is True

    def test_oversized_websocket_frame_is_closed_1009(self, client, server):
        # A never-finishing ⋈NL keeps the stream open while the frame
        # lands, so the only close the server can send is the refusal.
        record = client.submit(
            "SELECT COUNT(*) FROM big a, big b WHERE a.x < b.g",
            tenant="t-ws-limit", target_samples=200,
        )
        try:
            with socket.create_connection(
                (server.config.host, server.port), timeout=10.0,
            ) as sock:
                key = base64.b64encode(os.urandom(16)).decode("ascii")
                sock.sendall((
                    "GET /queries/%s/events HTTP/1.1\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    "Sec-WebSocket-Key: %s\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                    % (record["id"], key)
                ).encode("latin-1"))
                # Byte-wise, so no frame byte is read past the handshake.
                response = b""
                while not response.endswith(b"\r\n\r\n"):
                    response += sock.recv(1)
                assert response.startswith(b"HTTP/1.1 101 ")
                # Masked text frame header declaring 2**63 - 1 payload
                # bytes; no payload follows.
                sock.sendall(bytes([0x81, 0x80 | 127])
                             + struct.pack(">Q", 2 ** 63 - 1)
                             + os.urandom(4))
                read_exact = wsproto.reader_from_socket(sock)
                deadline = time.monotonic() + 10.0
                while True:
                    assert time.monotonic() < deadline, "no close frame"
                    opcode, payload, _fin = wsproto.read_frame(read_exact)
                    if opcode == wsproto.OP_CLOSE:
                        break
                assert struct.unpack(">H", payload[:2])[0] == 1009
        finally:
            client.cancel(record["id"])
        assert client.healthz()["ok"] is True

    def test_server_still_serves_after_bad_requests(self, client):
        assert client.healthz()["ok"] is True


class TestCancel:
    def test_cancel_running_query(self, client):
        record = client.submit(BIG_SQL, tenant="t-cancel",
                               target_samples=200)
        # Wait until the first live sample proves it is on a worker.
        while True:
            status = client.status(record["id"])
            if status.get("progress") is not None or status["done"]:
                break
            time.sleep(0.002)
        outcome = client.cancel(record["id"])
        assert outcome["id"] == record["id"]
        frames = client.stream_events(record["id"])
        assert frames[-1]["event"] == "end"
        assert frames[-1]["state"] in ("cancelled", "done")


class _GatedSource(RowSource):
    """A row source whose first pull parks its worker until the test opens
    the gate, so a query occupies the one worker slot for exactly as long
    as the test needs it to."""

    def __init__(self, entered, gate):
        super().__init__(schema_of("gated", "x:int"), [(i,) for i in range(8)])
        self.entered = entered
        self.gate = gate

    def _next(self):
        if not self.entered.is_set():
            self.entered.set()
            self.gate.wait(timeout=30.0)
        return super()._next()


class TestThrottle:
    def test_tenant_quota_yields_429(self, db):
        config = ServerConfig(
            options=ExecutionOptions(backend="thread", max_workers=1),
            default_quota=TenantQuota(max_pending=1, max_inflight=1),
        )
        instance = ReproServer(db.catalog, config=config)
        entered, gate = threading.Event(), threading.Event()
        with instance.running():
            try:
                client = ServerClient(instance.config.host, instance.port)
                # noisy's one inflight slot — and the one worker — stay
                # held until the gate opens.
                instance.submit_local(
                    "noisy",
                    lambda: Plan(_GatedSource(entered, gate), "gated"),
                    target_samples=5,
                )
                assert entered.wait(timeout=10.0)
                backlog = client.submit(BIG_SQL, tenant="noisy",
                                        target_samples=5)
                with pytest.raises(ServerClientError) as caught:
                    client.submit(BIG_SQL, tenant="noisy", target_samples=5)
                throttled = caught.value
                assert throttled.status == 429
                assert throttled.payload["tenant"] == "noisy"
                assert throttled.payload["max_pending"] == 1
                # Another tenant still gets in while noisy is throttled.
                other = client.submit("SELECT COUNT(*) FROM region",
                                      tenant="quiet", target_samples=5)
                gate.set()
                frames = client.stream_events(other["id"])
                assert frames[-1]["state"] == "done"
                metrics = client.metrics()
                assert metrics["queries"]["throttled"] >= 1
                assert metrics["tenants"]["noisy"]["throttled"] >= 1
                client.cancel(backlog["id"])
            finally:
                gate.set()


class TestMetrics:
    def test_snapshot_shape(self, client, server):
        record = client.submit("SELECT COUNT(*) FROM nation",
                               tenant="t-metrics", target_samples=5)
        client.stream_events(record["id"])
        metrics = client.metrics()
        assert metrics["uptime_seconds"] >= 0
        assert metrics["http_requests"] > 0
        assert metrics["queries"]["submitted"] >= 1
        assert metrics["queries"]["completed"].get("done", 0) >= 1
        assert metrics["ticks"] > 0
        assert "service_pending" in metrics["queue_depths"]
        latency = metrics["latency"]
        assert latency["count"] >= 1
        assert latency["p50_seconds"] <= latency["p99_seconds"]
        tenant = metrics["tenants"]["t-metrics"]
        assert tenant["submitted"] >= 1
        assert tenant["completed"].get("done", 0) >= 1
        assert tenant["ticks"] > 0
        assert tenant["ticks_per_second"] is None or \
            tenant["ticks_per_second"] >= 0

    def test_ws_connection_counters(self, client, server):
        before = client.metrics()["ws_connections"]
        record = client.submit("SELECT COUNT(*) FROM region",
                               tenant="t-ws", target_samples=5)
        client.stream_events(record["id"])
        # The server records the close after the client sees the close
        # frame — allow it a beat to finish its side of the teardown.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            after = client.metrics()["ws_connections"]
            if after["closed"] >= before["closed"] + 1:
                break
            time.sleep(0.01)
        assert after["opened"] >= before["opened"] + 1
        assert after["closed"] >= before["closed"] + 1
        assert after["open"] >= 0


class TestDroppedClient:
    def test_abort_mid_stream_leaves_no_unretrieved_exception(self, db):
        instance = ReproServer(db.catalog, config=ServerConfig(
            options=ExecutionOptions(backend="thread", max_workers=1),
        ))
        with instance.running():
            client = ServerClient(instance.config.host, instance.port)
            seen = []
            instance._loop.set_exception_handler(
                lambda loop, context: seen.append(context)
            )
            closed_before = client.metrics()["ws_connections"]["closed"]
            aborts = 3
            for _ in range(aborts):
                record = client.submit(BIG_SQL, tenant="t-drop",
                                       target_samples=200)
                sock = socket.create_connection(
                    (instance.config.host, instance.port), timeout=10.0,
                )
                key = base64.b64encode(os.urandom(16)).decode("ascii")
                sock.sendall((
                    "GET /queries/%s/events HTTP/1.1\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    "Sec-WebSocket-Key: %s\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                    % (record["id"], key)
                ).encode("latin-1"))
                ServerClient._read_handshake(sock, key)
                sock.recv(1)  # frames are flowing
                # Abortive close: the peer sees a reset, not a FIN, while
                # the server is still writing frames.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                closed = client.metrics()["ws_connections"]["closed"]
                if closed >= closed_before + aborts:
                    break
                time.sleep(0.01)
            assert closed >= closed_before + aborts
            gc.collect()
            assert seen == []
