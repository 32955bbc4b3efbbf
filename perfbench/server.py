"""The server-mixed workload: open-loop HTTP/WebSocket traffic.

A ``ReproServer`` runs in its own process (``server_proc.py``).  This
process is the load generator and the checker: one thread, one asyncio
loop, never more open connections than ``nproc``.  Each query is POSTed
when due and its WebSocket is drained to the terminal frame; the queries
chosen for cancellation are cancelled by ``DELETE`` after their first
sample frame.  ``/metrics`` is read once a second.

Each query holds one connection slot from POST to terminal frame.  A
cancel closes the query's WebSocket, sends the ``DELETE`` on the same
slot and re-subscribes; the server replays the stream, so the terminal
frame is still seen.

Set-up (repeated; ``setup_s`` is the median) starts a fresh server while
this process generates the same data and computes solo reference traces of
every pool query with ``Session.run``.  Each fresh server's first
sequential pass over the pool is its cold pass.
"""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import os
import struct
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.metrics import END_TO_END, PER_LAYER, median, percentile, result
from perfbench.tracing import (
    Tracer, clock, covered, install_layers, layer_metrics,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SCALE = 0.01
SETUPS = 3
#: solo runs per interactive query behind overhead_x
OVERHEAD_REPEATS = 3
SLOTS = max(1, len(os.sched_getaffinity(0)))
#: how long the open loop may take to drain after the last arrival
DRAIN_TIMEOUT_S = 60.0
#: spans must cover each query's wall time this closely (see _span_problems);
#: the slack is one interpreter switch interval, the longest a server thread
#: may wait for the GIL at any boundary between two spans
SPAN_TOLERANCE = 0.05
SPAN_SLACK_S = sys.getswitchinterval()


@dataclass
class QueryRecord:
    sql_index: int
    due: float
    cancel: bool = False
    sent: float = 0.0
    posted: float = 0.0
    ws_start: float = 0.0
    first_sample: Optional[float] = None
    end: Optional[float] = None
    qid: Optional[str] = None
    state: Optional[str] = None
    cancel_accepted: Optional[bool] = None
    frames: int = 0
    ws_bytes: int = 0
    end_frame: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


# -- a minimal HTTP / WebSocket client over asyncio streams -----------------

async def _http(port: int, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write((
            "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: %d\r\n"
            "Connection: close\r\n\r\n" % (method, path, len(body))
        ).encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), (json.loads(rest) if rest else {})


class _WebSocket:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.frames = 0
        self.bytes = 0

    @classmethod
    async def open(cls, port: int, qid: str) -> "_WebSocket":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write((
            "GET /queries/%s/events HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            "Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n"
            % (qid, key)
        ).encode("latin-1"))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0] + b" ":
            writer.close()
            raise ConnectionError("WebSocket upgrade refused: %r" % head[:80])
        return cls(reader, writer)

    async def next_frame(self) -> Optional[dict]:
        """The next JSON text frame; None once the server closes."""
        while True:
            first, second = await self.reader.readexactly(2)
            length = second & 0x7F
            extra = 0
            if length == 126:
                extra = 2
                (length,) = struct.unpack(
                    ">H", await self.reader.readexactly(2))
            elif length == 127:
                extra = 8
                (length,) = struct.unpack(
                    ">Q", await self.reader.readexactly(8))
            payload = await self.reader.readexactly(length)
            self.frames += 1
            self.bytes += 2 + extra + length
            opcode = first & 0x0F
            if not first & 0x80:
                raise ConnectionError("fragmented WebSocket frame")
            if opcode == 0x8:
                return None
            if opcode == 0x1:
                return json.loads(payload)

    async def close(self) -> None:
        """Close politely: send a masked close frame (RFC 6455 requires
        clients to mask), then read until the server's close frame."""
        try:
            self.writer.write(b"\x88\x80" + os.urandom(4))
            await self.writer.drain()
            while await self.next_frame() is not None:
                pass
        except (OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass


async def _drive(port: int, sql: str, tenant: str, record: QueryRecord,
                 slots: asyncio.Semaphore) -> None:
    """POST one query and follow it to its terminal frame."""
    async with slots:
        record.sent = clock()
        status, body = await _http(port, "POST", "/queries", {
            "sql": sql, "tenant": tenant,
            "target_samples": inputs.SERVER_SAMPLES,
        })
        record.posted = clock()
        if status != 201:
            record.error = "POST returned %d: %s" % (status, body)
            return
        record.qid = body["id"]
        record.ws_start = clock()
        ws = await _WebSocket.open(port, record.qid)
        sockets = [ws]
        try:
            while True:
                frame = await ws.next_frame()
                if frame is None:
                    record.error = "stream closed without a terminal frame"
                    return
                kind = frame.get("event")
                if kind == "sample" and record.first_sample is None:
                    record.first_sample = clock()
                    if record.cancel:
                        await ws.close()
                        status, body = await _http(
                            port, "DELETE", "/queries/%s" % record.qid)
                        if status != 200:
                            record.error = "DELETE returned %d" % status
                            return
                        record.cancel_accepted = bool(body.get("cancelled"))
                        ws = await _WebSocket.open(port, record.qid)
                        sockets.append(ws)
                elif kind == "end":
                    record.end = clock()
                    record.state = frame.get("state")
                    record.end_frame = frame
                    return
        finally:
            await ws.close()
            record.frames = sum(s.frames for s in sockets)
            record.ws_bytes = sum(s.bytes for s in sockets)


async def _guarded(coro, record: QueryRecord) -> None:
    try:
        await coro
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        record.error = "%s: %s" % (type(exc).__name__, exc)


async def _closed_pass(port: int, pool) -> Tuple[float, List[QueryRecord]]:
    slots = asyncio.Semaphore(1)
    records = []
    started = clock()
    for index, (_kind, sql) in enumerate(pool):
        record = QueryRecord(index, clock())
        await _guarded(_drive(port, sql, inputs.TENANTS[0], record, slots),
                       record)
        records.append(record)
    return clock() - started, records


async def _open_loop(port: int, pool, schedule
                     ) -> Tuple[float, List[QueryRecord], List[Optional[str]]]:
    """Returns the start time, one record per arrival, and the outcome of
    every ``/metrics`` read (None when it succeeded)."""
    slots = asyncio.Semaphore(SLOTS)
    metrics_reads: List[Optional[str]] = []
    done = asyncio.Event()

    async def read_metrics() -> None:
        while not done.is_set():
            async with slots:
                try:
                    status, _body = await _http(port, "GET", "/metrics")
                    metrics_reads.append(
                        None if status == 200
                        else "/metrics returned %d" % status)
                except OSError as exc:
                    metrics_reads.append("/metrics: %s" % exc)
            try:
                await asyncio.wait_for(done.wait(), 1.0)
            except asyncio.TimeoutError:
                pass

    t0 = clock() + 0.05
    records = [QueryRecord(a.sql_index, t0 + a.due, a.cancel)
               for a in schedule]

    async def one(arrival, record) -> None:
        await asyncio.sleep(max(0.0, record.due - clock()))
        await _guarded(_drive(port, pool[arrival.sql_index][1],
                              arrival.tenant, record, slots), record)

    poller = asyncio.ensure_future(read_metrics())
    tasks = [asyncio.ensure_future(one(a, r))
             for a, r in zip(schedule, records)]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks),
                               schedule[-1].due + DRAIN_TIMEOUT_S)
    finally:
        done.set()
        await poller
    return t0, records, metrics_reads


# -- the server process -----------------------------------------------------

class _ServerProcess:
    def __init__(self, seed: int, scale: float, trace: bool,
                 spans: Optional[str]) -> None:
        command = [sys.executable, os.path.join(HERE, "server_proc.py"),
                   "--seed", str(seed), "--scale", str(scale),
                   "--trace", "1" if trace else "0"]
        if spans:
            command += ["--spans", spans]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.port: Optional[int] = None

    def _line(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited (code %s)"
                               % self.proc.wait(timeout=30))
        return json.loads(line)

    def ready(self) -> None:
        self.port = self._line()["port"]

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        self._line()

    def stop(self) -> dict:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            report = self._line()
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# -- reference runs and checks ----------------------------------------------

def _references(seed: int, scale: float, pool, tracer: Optional[Tracer]):
    """Solo ``Session.run`` traces of every pool query, in terminal-frame
    form, plus the session; traced runs also run each query bare once."""
    import repro
    from repro.stats.manager import StatisticsManager
    from repro.workloads.tpch import generate_tpch

    db = generate_tpch(scale=scale, skew=inputs.SKEW, seed=seed,
                       build_statistics=False)
    StatisticsManager(db.catalog).analyze_all()
    session = repro.connect(catalog=db.catalog)
    traces = []
    for index, (_kind, sql) in enumerate(pool):
        if tracer is not None:
            tracer.set_query("ref%d:bare" % index)
            session.execute(sql)
            tracer.set_query("ref%d" % index)
        report = session.run(sql, target_samples=inputs.SERVER_SAMPLES)
        traces.append(json.loads(json.dumps([
            {"curr": s.curr, "actual": s.actual,
             "estimates": dict(s.estimates),
             "lower_bound": s.lower_bound, "upper_bound": s.upper_bound}
            for s in report.trace.samples
        ])))
    return traces, session


def _overhead(session, pool) -> float:
    """Instrumented over bare time of the interactive queries, as on the
    tpch workloads: per query the median of ``Session.run`` over that of
    ``Session.execute``, then their sums."""
    instrumented = bare = 0.0
    for _kind, sql in pool[:inputs.INTERACTIVE]:
        runs, bares = [], []
        for _ in range(OVERHEAD_REPEATS):
            started = clock()
            session.execute(sql)
            bares.append(clock() - started)
            started = clock()
            session.run(sql, target_samples=inputs.SERVER_SAMPLES)
            runs.append(clock() - started)
        instrumented += median(runs)
        bare += median(bares)
    return instrumented / bare


class _Checker:
    def __init__(self, references: List[list]) -> None:
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.traces = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def check_reads(self, outcomes: List[Optional[str]]) -> None:
        self.attempted += len(outcomes)
        for problem in outcomes:
            if problem is not None:
                self.fail(problem)

    def check(self, record: QueryRecord) -> bool:
        """True when the query ended correctly; its trace is kept."""
        from repro.core.metrics import ProgressTrace, TraceSample

        self.attempted += 1
        label = "%s (pool %d)" % (record.qid, record.sql_index)
        if record.error is not None:
            self.fail("%s: %s" % (label, record.error))
            return False
        if record.state == "cancelled" and record.cancel_accepted:
            return True
        if record.state != "done":
            self.fail("%s: ended %r (%s)" % (
                label, record.state, record.end_frame.get("error")))
            return False
        trace = record.end_frame.get("trace")
        if trace != self.references[record.sql_index]:
            self.fail("%s: sealed trace differs from the solo run" % label)
            return False
        self.traces.append(ProgressTrace(
            total=record.end_frame["total"],
            samples=[TraceSample(**sample) for sample in trace],
        ))
        return True

    def quality(self) -> Dict[str, float]:
        dne = [t.avg_ratio_error("dne") for t in self.traces]
        return {
            "safe_err_max": max(
                (t.max_ratio_error("safe") for t in self.traces),
                default=0.0),
            "dne_err_avg": sum(dne) / len(dne) if dne else 0.0,
            "ok_frac": ((self.attempted - self.failed) / self.attempted
                        if self.attempted else 0.0),
        }


# -- the workload -----------------------------------------------------------

def _setup(seed: int, scale: float, pool, trace: bool,
           tracer: Optional[Tracer], spans: Optional[str]):
    gc.collect()
    started = clock()
    server = _ServerProcess(seed, scale, trace, spans)
    try:
        references, session = _references(seed, scale, pool, tracer)
        server.ready()
    except BaseException:
        server.kill()
        raise
    return clock() - started, server, references, session


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        out_dir: Optional[str] = None) -> dict:
    scale = 0.002 if tiny else SCALE
    pool = inputs.sql_pool()
    schedule = inputs.arrival_schedule(seed, seconds)
    if trace:
        return _traced(seed, scale, seconds, pool, schedule, out_dir)
    setup_s, cold_s = [], []
    checker = None
    server = None
    try:
        for _ in range(1 if tiny else SETUPS):
            if server is not None:
                server.stop()
            took, server, references, session = _setup(
                seed, scale, pool, False, None, None)
            setup_s.append(took)
            if checker is None:
                checker = _Checker(references)
            elif references != checker.references:
                checker.fail("solo reference traces differ across set-ups")
            cold, records = asyncio.run(_closed_pass(server.port, pool))
            cold_s.append(cold)
            for record in records:
                checker.check(record)
        t0, records, metrics_reads = asyncio.run(
            _open_loop(server.port, pool, schedule))
        overhead_x = _overhead(session, pool)
        report = server.stop()
    finally:
        if server is not None:
            server.kill()
    checker.check_reads(metrics_reads)
    values = {
        "setup_s": median(setup_s),
        "cold_pass_s": median(cold_s),
        "rss_mb": report["rss_mb"],
        "overhead_x": overhead_x,
    }
    values.update(_open_loop_metrics(checker, records, t0))
    values.update(checker.quality())
    return result(checker.attempted, checker.failed, checker.messages,
                  values, END_TO_END)


def _open_loop_metrics(checker: _Checker, records: List[QueryRecord],
                       t0: float) -> Dict[str, float]:
    """Each pool query's median over its arrivals, then the pool mix.

    Per-query medians keep chance collisions and interpreter switch-interval
    stalls of single arrivals from moving the percentiles.
    """
    done = [r for r in records if checker.check(r) and r.state == "done"]

    def typical(rows, value) -> Dict[int, float]:
        by_sql: Dict[int, List[float]] = {}
        for r in rows:
            by_sql.setdefault(r.sql_index, []).append(value(r))
        return {index: median(v) for index, v in by_sql.items()}

    latency = typical(done, lambda r: r.end - r.due)
    ticks = typical(done, lambda r: r.end_frame["total"])
    firsts = typical([r for r in records if r.first_sample is not None],
                     lambda r: r.first_sample - r.due)
    last_end = max((r.end for r in records if r.end is not None),
                   default=t0)
    within = sum(1 for r in done if r.end - r.due <= inputs.LATENCY_LIMIT_S)
    return {
        "query_s_p50": median(list(latency.values())),
        "query_s_p90": percentile(list(latency.values()), 0.9),
        "first_sample_s_p50": median(list(firsts.values())),
        "ticks_per_s": (sum(ticks.values()) / sum(latency.values())
                        if latency else 0.0),
        "goodput_qps": within / (last_end - t0) if last_end > t0 else 0.0,
    }


def _traced(seed: int, scale: float, seconds: float, pool, schedule,
            out_dir: Optional[str]) -> dict:
    """One traced set-up (both processes), an untraced and a traced warm
    closed pass for ``trace.overhead_x``, then the open loop traced."""
    tracer = Tracer()
    install_layers(tracer)
    tracer.enabled = True
    spans = (os.path.join(out_dir, "server-mixed.server.spans.jsonl")
             if out_dir else None)
    _took, server, references, _session = _setup(
        seed, scale, pool, True, tracer, spans)
    tracer.uninstall()
    local = layer_metrics(tracer)
    checker = _Checker(references)
    try:
        server.command("trace off")
        for _ in range(2):  # cold, then warm
            untraced_s, records = asyncio.run(
                _closed_pass(server.port, pool))
            for record in records:
                checker.check(record)
        server.command("trace on")
        server.command("reset")
        traced_s, closed_records = asyncio.run(
            _closed_pass(server.port, pool))
        _t0, open_records, metrics_reads = asyncio.run(
            _open_loop(server.port, pool, schedule))
        report = server.stop()
    finally:
        server.kill()
    checker.check_reads(metrics_reads)
    finished = [r for r in closed_records + open_records
                if checker.check(r)]
    for problem in _span_problems(finished, report["marks"]):
        checker.fail("spans: " + problem)
    if out_dir:
        tracer.write(os.path.join(out_dir, "server-mixed.spans.jsonl"))

    values = dict(report["layers"])
    marks = report["marks"]
    done = [r for r in finished if r.state == "done"]

    def between(first: str, second: str) -> float:
        return sum(marks[r.qid][second] - marks[r.qid][first]
                   for r in finished if r.qid in marks
                   and first in marks[r.qid] and second in marks[r.qid])

    values.update({
        "runner.sample_s": sum(r.end_frame["profile"]["sample_seconds"]
                               for r in done),
        "runner.samples": sum(r.end_frame["profile"]["samples"]
                              for r in done),
        "engine.bare_s": local["engine.bare_s"],
        "engine.self_s": local["engine.self_s"],
        "engine.stepping_s": local["engine.self_s"] - local["engine.bare_s"],
        "engine.ticks": sum(r.end_frame["total"] for r in done),
        "service.queue_wait_s": between("service_queued", "run_start"),
        "service.run_s": between("run_start", "run_end"),
        "server.sched_wait_s": between("sched_queued", "service_submit"),
        "server.post_s": sum(r.posted - r.sent for r in finished),
        "server.ws_frames": sum(r.frames for r in finished),
        "server.ws_bytes": sum(r.ws_bytes for r in finished),
        "server.ws_tail_s": sum(
            r.end - marks[r.qid]["run_end"] for r in done
            if "run_end" in marks.get(r.qid, {})),
        "loadgen.late_s_p90": percentile(
            [r.sent - r.due for r in open_records if r.sent], 0.9),
        "trace.overhead_x": traced_s / untraced_s,
    })
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    return result(checker.attempted, checker.failed, checker.messages,
                  values, PER_LAYER)


#: the server-side boundaries of one query, in the order it crosses them
_MARKS = ("sched_submit", "sched_queued", "service_submit", "service_queued",
          "run_start", "run_end", "frame_start", "frame_built")


def _span_problems(records: List[QueryRecord], marks) -> List[str]:
    """Each query's spans must account for its wall time.

    The server's spans of a query (scheduler submit, service submit,
    ``ProgressRunner.run``, terminal frame build) must exist
    and, with the two queue waits between them, lie in order inside the
    client's POST-to-terminal-frame interval.  For a completed query, the
    client's lateness and POST spans, those server spans and waits, and the
    terminal frame's delivery (built to received) must cover the
    wall time from due to terminal frame; what they leave out is server
    work no span or wait names, such as the run's completion callbacks.
    """
    problems = []
    for r in records:
        if r.end is None:
            continue
        entry = marks.get(r.qid, {})
        missing = [name for name in _MARKS if name not in entry]
        if missing:
            problems.append("%s: no server span for %s"
                            % (r.qid, ", ".join(missing)))
            continue
        times = [r.sent] + [entry[name] for name in _MARKS] + [r.end]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            problems.append("%s: server spans out of order or outside the "
                            "client's view of the query" % r.qid)
            continue
        if r.state != "done":
            continue  # a cancel's DELETE and re-subscribe are not spanned
        wall = r.end - r.due
        cover = covered([
            (r.due, r.sent), (r.sent, r.posted),
            (entry["sched_submit"], entry["run_end"]),
            (entry["frame_start"], r.end),
        ], r.due, r.end)
        if wall - cover > SPAN_TOLERANCE * wall + SPAN_SLACK_S:
            problems.append("%s: spans cover %.6f s of %.6f s"
                            % (r.qid, cover, wall))
    return problems
