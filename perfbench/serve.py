"""The serve-tail workload: ``repro serve`` under an open-loop client.

The server runs as a subprocess (``python -m repro serve``).  The client
is this module's own minimal HTTP/1.1 + NDJSON implementation, so the
measured system is the server alone.  Sessions arrive on a fixed
schedule derived from the seed — one per ``1 / RATE`` seconds slot, at a
seeded offset inside its slot — whatever the server's progress (an open
loop), over one connection (``CONNECTIONS``).

Latency runs from a session's *due* time to its ``done`` event, on the
server's CPU clock: a session's service time is the CPU time the server
process spent between the request being sent and the ``done`` event
(read from ``/proc/<pid>/schedstat``; one session is in flight at a time,
so that time is the session's alone), and a session that falls due while
an earlier one is still being served waits for it on that clock.  The
same latencies on the wall clock are in the report line; on a shared VM
they mostly measure the hypervisor's stolen time.

The generator's own lateness (how far past a due time it woke up) is
reported; a run whose lateness exceeds ``LATENESS_BOUND_S`` is invalid.

With ``--trace 1`` the same sessions are also replayed in-process, layer
by layer: ``SpannerService`` sessions (``server.service``), the NDJSON
rendering of every mapping (``server.protocol``) and a bare
``StreamingEvaluator`` (``runtime.streaming``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import inputs, oracles
from perfbench.measure import Result, peak_rss_mb, percentile, tail

__all__ = ["run"]

clock = time.perf_counter
#: The in-process replay is pure computation in this thread: like the
#: in-process workloads, it is timed on the thread's CPU clock.
thread_clock = time.thread_time

PATTERN = inputs.LOG_PATTERN
#: Characters per ``chunk`` event.
CHUNK = 4096
#: Concurrent connections (= sessions in flight) the client may hold.  One,
#: so that the server's CPU time during a session belongs to that session.
CONNECTIONS = 1
#: Session arrivals per second.  A session costs the server about 5 ms of
#: CPU, so one connection sustains several times this and the backlog
#: stays empty; 35/s gives a 10 s run 350 sessions, so its p95 tail has
#: 17 samples beyond it.
RATE = 35.0
#: Set-up samples: server boots, each timed up to its first session's end.
BOOTS = 3
#: A run whose generator woke this late (at its tail percentile) is invalid.
LATENESS_BOUND_S = 0.050
#: Seconds to wait for a server to announce its port or to exit.
SERVER_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):([0-9]+)")


# --------------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` subprocess; always stop it (``with`` does)."""

    def __init__(self) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--warm", PATTERN],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.host, self.port = self._await_port()

    def _await_port(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError(f"repro serve did not start (exit {self.process.returncode})")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        """CPU time the server's main thread has run (ns-precise schedstat)."""
        with open(f"/proc/{self.process.pid}/schedstat", encoding="ascii") as stat:
            return int(stat.read().split()[0]) / 1e9

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then kill; always reaped."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=SERVER_TIMEOUT_S / 4)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


# --------------------------------------------------------------------------- #
# The client
# --------------------------------------------------------------------------- #


def request_bytes(host: str, port: int, text: str) -> bytes:
    """One session's whole request: head plus chunk-framed NDJSON events."""
    events = [{"pattern": PATTERN, "emit": "incremental"}]
    events += [{"chunk": text[at:at + CHUNK]} for at in range(0, len(text), CHUNK)]
    events.append({"finish": True})
    body = bytearray()
    for event in events:
        line = (json.dumps(event) + "\n").encode("utf-8")
        body += b"%x\r\n" % len(line) + line + b"\r\n"
    head = (
        f"POST /v1/stream HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + bytes(body) + b"0\r\n\r\n"


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, list[dict]]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "chunked" not in headers.get("transfer-encoding", ""):
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
    else:
        parts = []
        while True:
            size = int((await reader.readline()).split(b";")[0].strip() or b"0", 16)
            if size == 0:
                await reader.readline()
                break
            parts.append(await reader.readexactly(size))
            await reader.readexactly(2)
        body = b"".join(parts)
    return status, [json.loads(line) for line in body.splitlines() if line.strip()]


async def _session(host: str, port: int, request: bytes) -> tuple[int, list[dict]]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        response = asyncio.ensure_future(_read_response(reader))
        await writer.drain()
        return await response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def get_json(host: str, port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        await writer.drain()
        while (await reader.readline()).strip():
            pass  # status line and headers; the body runs to the close
        return json.loads(await reader.read())
    finally:
        writer.close()
        await writer.wait_closed()


def schedule(seed: int, sessions: int) -> list[float]:
    """Due offsets (seconds from start): one seeded point per 1/RATE slot."""
    rng = random.Random(f"serve-tail-schedule:{seed}")
    return [(slot + rng.random()) / RATE for slot in range(sessions)]


async def _open_loop(server, requests, offsets):
    """Send every request at its due time; returns per-session records."""
    host, port = server.host, server.port
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNECTIONS)
    records: list[dict] = [{} for _ in requests]
    lateness: list[float] = []
    tasks = []

    async def one(index: int, due: float) -> None:
        record = records[index]
        try:
            record["sent"], record["cpu"] = loop.time(), server.cpu_seconds()
            status, events = await _session(host, port, requests[index])
            record.update(status=status, events=events)
        except (OSError, ValueError, asyncio.IncompleteReadError) as error:
            record.update(status=0, events=[], error=repr(error))
        finally:
            record["done"], record["cpu"] = loop.time(), server.cpu_seconds() - record["cpu"]
            record["due"] = due
            slots.release()

    start = loop.time() + 0.05
    for index, offset in enumerate(offsets):
        due = start + offset
        now = loop.time()
        if now < due:
            await asyncio.sleep(due - now)
            lateness.append(loop.time() - due)
        await slots.acquire()
        tasks.append(asyncio.ensure_future(one(index, due)))
    await asyncio.gather(*tasks)
    return records, lateness


def _boot_and_warm(seed: int) -> tuple[Server, float]:
    """Boot a server and run its first session; returns it and the seconds."""
    warm = inputs.warmup_document("serve-tail", seed)
    start = clock()
    server = Server()
    try:
        status, events = asyncio.run(
            _session(server.host, server.port, request_bytes(server.host, server.port, warm))
        )
        if status != 200 or not events or not events[-1].get("done"):
            raise RuntimeError(f"warm-up session failed: {status} {events[-1:]}")
    except BaseException:
        server.stop()
        raise
    return server, clock() - start


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("serve-tail")
    sessions = max(1, round(RATE * seconds))
    offsets = schedule(seed, sessions)
    stream = inputs.documents("serve-tail", seed)
    texts = [next(stream) for _ in range(sessions)]

    setups = []
    for _ in range(BOOTS - 1):
        server, seconds_taken = _boot_and_warm(seed)
        server.stop()
        setups.append(seconds_taken)
    server, seconds_taken = _boot_and_warm(seed)
    setups.append(seconds_taken)
    with server:
        requests = [request_bytes(server.host, server.port, text) for text in texts]
        records, lateness = asyncio.run(_open_loop(server, requests, offsets))
        rss = server.peak_rss_mb()
        metrics = asyncio.run(get_json(server.host, server.port, "/metrics"))

    late_point, late_value = tail(lateness) if lateness else (100.0, 0.0)
    if late_value > LATENESS_BOUND_S:
        raise InvalidRun(
            f"generator lateness {1e3 * late_value:.1f} ms at p{late_point:g} "
            f"exceeds the {1e3 * LATENESS_BOUND_S:.0f} ms bound"
        )

    from repro import Spanner

    facade = Spanner(PATTERN)
    wall = []
    served_mappings = 0
    served: list[list[dict]] = []
    for index, (text, record) in enumerate(zip(texts, records)):
        result.attempted += 1
        events = record.get("events", [])
        spans = [event["mapping"] for event in events if "mapping" in event]
        served.append(spans)
        wall.append(record["done"] - record["due"])
        if record.get("status") != 200 or not events or not events[-1].get("done"):
            result.fail(f"session {index}: status {record.get('status')}, "
                        f"last event {events[-1:]} {record.get('error', '')}")
            continue
        served_mappings += len(spans)
        expected = oracles.span_tuples(facade.evaluate(text, kernel="scalar"))
        message = oracles.check_serve(spans, expected)
        if message:
            result.fail(f"session {index}: {message}")
    phase = max(r["done"] for r in records) - min(r["due"] for r in records)
    latencies = cpu_clock_latencies(offsets, [r["cpu"] for r in records])
    tail_point, tail_value = tail(latencies)
    wall_point, wall_value = tail(wall)
    plan_cache = metrics.get("plan_cache", {})
    hits, misses = plan_cache.get("hits", 0), plan_cache.get("misses", 0)
    result.report = {
        "seed": seed,
        "loop": f"open, {RATE:g} sessions/s, <= {CONNECTIONS} connections",
        "arrival_rate_per_s": RATE,
        "documents": sessions,
        "chars": sum(map(len, texts)),
        "distinct_alphabets": len({frozenset(text) for text in texts}),
        "compiled_share": 0.0,
        "runlength_share": 0.0,
        "mappings": served_mappings,
        "measured_s": phase,
        "setup_samples_s": setups,
        "tail_percentile": tail_point,
        "tail_samples": len(latencies),
        "wall_clock_ms": {"p50": 1e3 * percentile(wall, 50),
                          f"p{wall_point:g}": 1e3 * wall_value},
        "server_cpu_ms_per_session": 1e3 * sum(r["cpu"] for r in records) / sessions,
        "generator_lateness_ms": {f"p{late_point:g}": 1e3 * late_value,
                                  "max": 1e3 * max(lateness, default=0.0)},
        "server_metrics": {"plan_cache": plan_cache,
                           "sessions": metrics.get("sessions")},
        "failed_share": result.failed_share,
    }
    if not trace:
        result.metric("setup_s", statistics.median(setups), "s")
        result.metric("chars_per_s", sum(map(len, texts)) / phase, "chars/s")
        result.metric("mappings_per_s", served_mappings / phase, "mappings/s")
        result.metric("p50_ms", 1e3 * percentile(latencies, 50), "ms")
        result.metric("tail_ms", 1e3 * tail_value, "ms")
        result.metric("peak_rss_mb", rss, "MiB")
        return result
    _replay(result, texts, served, [r["cpu"] for r in records], seconds,
            hits / (hits + misses) if hits + misses else 0.0)
    return result


def cpu_clock_latencies(offsets: list[float], service: list[float]) -> list[float]:
    """Due-time latencies of a one-connection FIFO on the server's CPU clock."""
    latencies = []
    free = float("-inf")
    for due, cost in zip(offsets, service):
        free = max(due, free) + cost
        latencies.append(free - due)
    return latencies


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule: the run proves nothing."""


# --------------------------------------------------------------------------- #
# The traced in-process replay
# --------------------------------------------------------------------------- #


def _replay(result, texts, served, server_cpu, seconds, hit_ratio) -> None:
    """Replay sessions through service, protocol and streaming, layer by layer.

    ``server.http.overhead_ms`` is the server's CPU time per HTTP session
    minus the in-process session time: what the HTTP front-end adds.
    """
    from repro import Spanner
    from repro.regex import parse_regex
    from repro.runtime.encoding import encoding_passes
    from repro.server import DEFAULT_SERVE_ALPHABET, OpenRequest, SpannerService
    from repro.server.protocol import mapping_event

    service = SpannerService()
    service.warm(PATTERN)
    streamer = Spanner(PATTERN)
    streamer.stream(alphabet=DEFAULT_SERVE_ALPHABET, emit="incremental")
    request = OpenRequest(pattern=PATTERN, alphabet=None, emit="incremental")

    def event_line(mapping, settled: bool) -> bytes:
        """One mapping rendered exactly as the HTTP layer writes it."""
        payload = mapping_event(mapping, settled=settled)
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

    def session_run(text, spans):
        """One in-process session; with *spans*, every layer call is timed."""
        tick = thread_clock if spans is not None else float  # float() == 0.0
        t0 = tick()
        session = service.open_session(request)
        t1 = tick()
        out = []
        lines = []
        feed = protocol = 0.0
        try:
            for at in range(0, len(text), CHUNK):
                t2 = tick()
                delivered = session.feed(text[at:at + CHUNK])
                t3 = tick()
                feed += t3 - t2
                lines += [event_line(mapping, True) for mapping in delivered]
                protocol += tick() - t3
                out.extend(delivered)
            t2 = tick()
            rest = session.finish()
            t3 = tick()
            lines += [event_line(mapping, False) for mapping in rest]
            protocol += tick() - t3
            out.extend(rest)
        finally:
            session.close()
        if spans is not None:
            spans["server.service.open"] = t1 - t0
            spans["server.service.feed"] = feed + (t3 - t2)
            spans["server.protocol"] = protocol
        return out, lines

    parse = []
    for _ in range(20):
        start = thread_clock()
        parse_regex(PATTERN)
        parse.append(thread_clock() - start)
    compile_s = []
    for _ in range(3):
        start = thread_clock()
        Spanner(PATTERN).stream(alphabet=DEFAULT_SERVE_ALPHABET, emit="incremental")
        compile_s.append(thread_clock() - start)
    result.metric("regex.parse_ms", 1e3 * percentile(parse, 50), "ms")
    result.metric("spanners.compile_ms", 1e3 * percentile(compile_s, 50), "ms")

    tally: dict[str, float] = {}
    session_ms, events = [], 0
    traced = untraced = 0.0
    feed_seconds, feed_chars, peak_cells = 0.0, 0, 0
    busy = 0.0
    for index, text in enumerate(texts):
        if busy >= seconds:
            break
        start = thread_clock()
        plain, _ = session_run(text, None)
        untraced += thread_clock() - start
        spans: dict[str, float] = {}
        passes = encoding_passes()
        start = thread_clock()
        replayed, lines = session_run(text, spans)
        elapsed = thread_clock() - start
        traced += elapsed
        if encoding_passes() == passes:
            result.fail(f"session {index}: replay did not encode (a cache answered it)")
        for name, value in spans.items():
            tally[name] = tally.get(name, 0.0) + value
        session_ms.append(spans["server.service.open"] + spans["server.service.feed"])
        events += len(lines)
        evaluator = streamer.stream(alphabet=DEFAULT_SERVE_ALPHABET, emit="incremental",
                                    retain_settled=False)
        t0 = thread_clock()
        for at in range(0, len(text), CHUNK):
            evaluator.feed(text[at:at + CHUNK])
        evaluator.finish()
        feed_seconds += thread_clock() - t0
        feed_chars += len(text)
        peak_cells = max(peak_cells, evaluator.peak_arena_cells)
        got = [{var: [span.begin, span.end] for var, span in m.items()} for m in replayed]
        plain_spans = oracles.span_tuples(plain)
        if oracles.check_serve(got, plain_spans) or oracles.check_serve(
            served[index], plain_spans
        ):
            result.fail(f"session {index}: in-process replay differs from the server")
        busy += elapsed
    spans_total = sum(tally.values())
    result.metric("runtime.streaming.feed_ns_per_char", 1e9 * feed_seconds / feed_chars,
                  "ns/char")
    result.metric("runtime.streaming.peak_arena_cells", peak_cells, "cells")
    result.metric("server.service.session_ms", 1e3 * percentile(session_ms, 50), "ms")
    result.metric("server.protocol.event_us",
                  1e6 * tally["server.protocol"] / events if events else 0.0, "us")
    result.metric("server.http.overhead_ms", 1e3 * (
        percentile(server_cpu, 50) - percentile(session_ms, 50)), "ms")
    result.metric("server.plan_cache_hit_ratio", hit_ratio, "ratio")
    result.metric("trace.coverage", spans_total / traced, "ratio")
    result.metric("trace.overhead", traced / untraced, "ratio")
    shares = {name: value / traced for name, value in tally.items()}
    result.report["layer_shares"] = dict(sorted(shares.items(), key=lambda i: -i[1]))
    result.report["dominant_layer"] = max(shares, key=shares.get)
    result.report["replayed_sessions"] = len(session_ms)
