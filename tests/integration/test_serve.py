"""End-to-end tests of the ``repro serve`` subsystem.

Boots the real asyncio server on an ephemeral port inside each test and
drives it with the reference :class:`~repro.server.client.StreamClient`:

* **equivalence** — a session's emitted mappings match a direct
  :meth:`Spanner.stream` run over the same adversarial chunkings
  (including, for a wildcard-free pattern, the delivered-then-retracted
  conflicts incremental mode may legitimately refuse, which the server
  must surface as in-band ``streaming`` errors, not wrong answers), and a
  wildcard pattern matches ``extract`` on characters the session never
  declared;
* **shared-cache eviction** — a plan cache under pressure evicts while
  sessions holding the evicted entries are still feeding, without
  corrupting them;
* **admission control** — opens past the session cap get 429 +
  ``Retry-After`` and the slot frees on session close;
* **/metrics** — the plan-cache hit ratio is visible after the second
  identical request, gauges return to zero, idle sessions expire.
"""

from __future__ import annotations

import asyncio
import json

from repro import Spanner, StreamingError
from repro.server import ReproServer, ServerConfig, SpannerService, StreamClient
from repro.server.client import fetch_json
from repro.server.service import AdmissionError

from harness import adversarial_chunkings, adversarial_documents

PATTERN = ".*x{a+b}.*"
#: The same language over the letters a and b, without a wildcard.
WILDCARD_FREE_PATTERN = "(a|b)*x{a+b}(a|b)*"


def serve(config: ServerConfig):
    """Decorator-style runner: build service+server, run the body, close."""

    def run(body):
        async def main():
            service = SpannerService(config)
            server = ReproServer(service)
            await server.start()
            try:
                return await body(server, service)
            finally:
                await server.close()

        return asyncio.run(main())

    return run


def span_set(events):
    """Canonical mapping set from the server's NDJSON mapping events."""
    return frozenset(
        json.dumps(event["mapping"], sort_keys=True)
        for event in events
        if "mapping" in event
    )


def direct_outcome(pattern: str, alphabet: str, chunks):
    """What Spanner.stream does on the same feed: a mapping set or an error."""
    spanner = Spanner.from_regex(pattern)
    evaluator = spanner.stream(alphabet=alphabet, emit="incremental")
    collected = []
    try:
        for chunk in chunks:
            collected.extend(evaluator.feed(chunk))
    except StreamingError:
        return "streaming-error", None
    collected.extend(evaluator.finish().residual)
    return "ok", frozenset(
        json.dumps(
            {var: [span.begin, span.end] for var, span in mapping.items()},
            sort_keys=True,
        )
        for mapping in collected
    )


class TestEquivalence:
    def test_sessions_match_direct_streaming_over_adversarial_chunkings(self):
        documents = [doc for doc in adversarial_documents(seed=3) if doc]
        config = ServerConfig(port=0, idle_timeout=30.0, plan_cache_size=16)

        @serve(config)
        async def _(server, service):
            for pattern, text in (
                (pattern, text)
                for pattern in (PATTERN, WILDCARD_FREE_PATTERN)
                for text in documents
            ):
                alphabet = "".join(sorted(set(text)))
                for label, chunks in adversarial_chunkings(text, seed=7):
                    if label.startswith("bytes-"):
                        continue  # the JSON protocol carries decoded text
                    expected_kind, expected = direct_outcome(
                        pattern, alphabet, chunks
                    )
                    client = await StreamClient.open(
                        server.config.host, server.port, pattern, alphabet=alphabet
                    )
                    assert client.status == 200, client.error_body
                    for chunk in chunks:
                        await client.feed(chunk)
                    events = await client.finish()
                    await client.close()
                    errors = [e for e in events if "error" in e]
                    if expected_kind == "streaming-error":
                        assert errors and errors[0]["code"] == "streaming", (
                            f"doc={text!r} chunking={label!r}: direct run "
                            f"raised but the server answered {events!r}"
                        )
                        continue
                    assert not errors, f"doc={text!r} chunking={label!r}: {errors}"
                    assert events[-1]["done"] is True
                    got = span_set(events)
                    assert got == expected, (
                        f"doc={text!r} chunking={label!r}: server={sorted(got)} "
                        f"direct={sorted(expected)}"
                    )

    def test_on_finish_mode_delivers_everything_unsettled(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN,
                alphabet="ab", emit="on_finish",
            )
            await client.feed("aa")
            await client.feed("ba")
            events = await client.finish()
            await client.close()
            mapping_events = [e for e in events if "mapping" in e]
            assert mapping_events, events
            assert all(e["settled"] is False for e in mapping_events)
            incremental = direct_outcome(PATTERN, "ab", ["aa", "ba"])[1]
            assert span_set(events) == incremental

    def test_undeclared_characters_match_extract_in_both_emit_modes(self):
        # The declared alphabet omits 'q' and 'z'; the wildcards must still
        # read them, so the session answers exactly what extract does.
        pattern = ".*ERROR w{[0-9]} .*"
        text = "q ERROR 4 z"
        expected = frozenset(
            json.dumps({var: [span.begin, span.end] for var, span in m.items()})
            for m in Spanner.from_regex(pattern).evaluate(text)
        )
        assert expected == {json.dumps({"w": [8, 9]})}
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            for emit in ("incremental", "on_finish"):
                client = await StreamClient.open(
                    server.config.host, server.port, pattern,
                    alphabet="ERO 0123456789", emit=emit,
                )
                assert client.status == 200, client.error_body
                await client.feed(text[:5])
                await client.feed(text[5:])
                events = await client.finish()
                await client.close()
                assert not [e for e in events if "error" in e], events
                assert span_set(events) == expected, (emit, events)


class TestSharedCacheEviction:
    def test_eviction_under_pressure_keeps_in_flight_sessions_correct(self):
        # Three distinct patterns through a 2-entry cache: opening the
        # third evicts the first while its session is still feeding.
        patterns = [".*x{a+b}.*", ".*y{ab+}.*", ".*z{aab}.*"]
        config = ServerConfig(port=0, plan_cache_size=2)

        @serve(config)
        async def _(server, service):
            clients = []
            for pattern in patterns:
                clients.append(
                    await StreamClient.open(
                        server.config.host, server.port, pattern, alphabet="ab"
                    )
                )
            assert all(client.status == 200 for client in clients)
            stats = service.plan_cache.stats()
            assert stats.evictions >= 1
            assert stats.entries <= 2

            # Every session — including the one whose entry was evicted —
            # still evaluates correctly on text fed *after* the eviction.
            text = "aabba"
            for client, pattern in zip(clients, patterns):
                await client.feed(text[:3])
                await client.feed(text[3:])
            for client, pattern in zip(clients, patterns):
                events = await client.finish()
                await client.close()
                assert events[-1]["done"] is True, (pattern, events)
                expected = direct_outcome(pattern, "ab", [text])[1]
                assert span_set(events) == expected, pattern

            # Reopening the evicted pattern simply recompiles: a miss,
            # not an error.
            reopened = await StreamClient.open(
                server.config.host, server.port, patterns[0], alphabet="ab"
            )
            assert reopened.status == 200
            assert reopened.ready["plan_cache"] in ("hit", "miss")
            await reopened.finish()
            await reopened.close()


class TestAdmissionControl:
    def test_rejects_past_cap_and_recovers(self):
        config = ServerConfig(port=0, max_sessions=2)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            first = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            second = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert (first.status, second.status) == (200, 200)

            third = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert third.status == 429
            assert "session cap" in third.error_body["error"]
            # The default AdmissionError carries retry_after=1.0: the header
            # must be exactly its integer form, and the machine-readable
            # value rides in the body.
            assert third.headers["retry-after"] == "1"
            assert third.error_body["retry_after"] == 1.0
            assert service.metrics.snapshot()["sessions"]["rejected"] == 1

            # Finishing one session frees its admission slot.
            await first.finish()
            await first.close()
            retry = await StreamClient.open(host, server.port, PATTERN, alphabet="ab")
            assert retry.status == 200
            await retry.finish()
            await second.finish()
            await retry.close()
            await second.close()
            assert service.active_sessions == 0

    def test_retry_after_header_rounds_up(self):
        # Retry-After is delta-seconds: a fractional backoff must round
        # *up* (0.3s -> "1", 1.2s -> "2"), never truncate to a header
        # that invites retrying before the window reopens.
        config = ServerConfig(port=0, max_sessions=2)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            for backoff, expected in [(0.3, "1"), (1.0, "1"), (1.2, "2"), (4.0, "4")]:

                def reject(request, _backoff=backoff):
                    raise AdmissionError("session cap reached", retry_after=_backoff)

                original = service.open_session
                service.open_session = reject
                try:
                    client = await StreamClient.open(
                        host, server.port, PATTERN, alphabet="ab"
                    )
                finally:
                    service.open_session = original
                assert client.status == 429
                assert client.headers["retry-after"] == expected, backoff
                assert client.error_body["retry_after"] == backoff

    def test_session_byte_cap_surfaces_in_band(self):
        config = ServerConfig(port=0, max_session_bytes=8)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN, alphabet="ab"
            )
            await client.feed("abab")
            await client.feed("ababab")  # 10 bytes total > 8
            events = await client.finish()
            await client.close()
            errors = [e for e in events if e.get("code") == "too_large"]
            assert errors and "per-session cap" in errors[0]["error"]
            assert service.metrics.snapshot()["sessions"]["failed"] == 1

    def test_session_arena_cell_cap_surfaces_in_band(self):
        # A tiny cell budget trips the resource guard once the evaluator
        # has accumulated live arena state; the session fails with a typed
        # in-band event instead of an opaque disconnect.
        config = ServerConfig(port=0, max_session_arena_cells=2)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN, alphabet="ab"
            )
            for _ in range(6):
                await client.feed("aaaa")
            events = await client.finish()
            await client.close()
            errors = [e for e in events if e.get("code") == "resource_limit"]
            assert errors and "arena cells" in errors[0]["error"]
            assert service.metrics.snapshot()["sessions"]["failed"] == 1
            resilience = service.metrics.snapshot()["resilience"]
            assert resilience["resource_limit_trips"] >= 1


class TestMetricsEndpoint:
    def test_plan_cache_hit_ratio_positive_on_second_identical_request(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            for expected_outcome in ("miss", "hit"):
                client = await StreamClient.open(
                    host, server.port, PATTERN, alphabet="ab"
                )
                assert client.ready["plan_cache"] == expected_outcome
                await client.feed("aab")
                await client.finish()
                await client.close()

            status, metrics = await fetch_json(host, server.port, "/metrics")
            assert status == 200
            assert metrics["plan_cache"]["hit_ratio"] > 0
            assert metrics["plan_cache"]["hits"] == 1
            assert metrics["sessions"]["opened"] == 2
            assert metrics["sessions"]["active"] == 0
            assert metrics["sessions"]["peak_active"] == 1
            assert metrics["data"]["mappings_emitted"] > 0
            assert metrics["requests_total"] >= 2
            assert metrics["latency_seconds"]["recorded"] >= 2

    def test_sessions_declaring_different_alphabets_share_one_plan(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            ratios = []
            for alphabet, expected_outcome in (("ab", "miss"), ("xyz", "hit"), (None, "hit")):
                client = await StreamClient.open(
                    host, server.port, PATTERN, alphabet=alphabet
                )
                assert client.ready["plan_cache"] == expected_outcome, alphabet
                await client.feed("aab")
                await client.finish()
                await client.close()
                ratios.append(service.plan_cache.stats().hit_ratio)
            assert service.plan_cache.stats().entries == 1
            assert ratios[0] < ratios[1] < ratios[2]

    def test_healthz(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            status, body = await fetch_json(
                server.config.host, server.port, "/healthz"
            )
            assert (status, body) == (200, {"status": "ok"})

    def test_idle_session_expires_with_in_band_error(self):
        config = ServerConfig(port=0, idle_timeout=0.2)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN, alphabet="ab"
            )
            assert client.status == 200
            # Send nothing: the server must time the session out on its own.
            event = await client.read_event()
            assert event["code"] == "idle_timeout"
            await client.close()
            assert service.metrics.snapshot()["sessions"]["expired"] == 1
            assert service.active_sessions == 0


class TestHttpErrors:
    @staticmethod
    async def raw_exchange(host, port, payload: bytes) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(payload)
        await writer.drain()
        from repro.server.client import _read_head

        status, headers = await _read_head(reader)
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b"{}"
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return status, json.loads(body)

    def test_malformed_pattern_is_400(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, "x{", alphabet="ab"
            )
            assert client.status == 400
            assert "expected" in client.error_body["error"]

    def test_bad_opening_json_is_400(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            body = b"this is not json\n"
            status, payload = await self.raw_exchange(
                server.config.host,
                server.port,
                b"POST /v1/stream HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            assert status == 400
            assert "not valid JSON" in payload["error"]

    def test_unknown_path_is_404_and_wrong_method_405(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            host = server.config.host
            status, payload = await fetch_json(host, server.port, "/nope")
            assert status == 404
            status, payload = await self.raw_exchange(
                host,
                server.port,
                b"GET /v1/stream HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            assert status == 405

    def test_unknown_emit_mode_is_400(self):
        config = ServerConfig(port=0)

        @serve(config)
        async def _(server, service):
            client = await StreamClient.open(
                server.config.host, server.port, PATTERN,
                alphabet="ab", emit="sometimes",
            )
            assert client.status == 400
            assert "unknown emit mode" in client.error_body["error"]


class TestConcurrency:
    def test_interleaved_sessions_do_not_cross_talk(self):
        # Two patterns, four sessions, feeds interleaved through the
        # shared loop: every session must see exactly its own results.
        config = ServerConfig(port=0, max_sessions=8)
        jobs = [
            (".*x{a+b}.*", "aabab"),
            (".*y{ab+}.*", "babba"),
            (".*x{a+b}.*", "bbaab"),
            (".*y{ab+}.*", "ababa"),
        ]

        @serve(config)
        async def _(server, service):
            async def run_job(pattern, text):
                client = await StreamClient.open(
                    server.config.host, server.port, pattern, alphabet="ab"
                )
                for char in text:
                    await client.feed(char)
                events = await client.finish()
                await client.close()
                return span_set(events)

            results = await asyncio.gather(
                *(run_job(pattern, text) for pattern, text in jobs)
            )
            for (pattern, text), got in zip(jobs, results):
                expected = direct_outcome(pattern, "ab", [text])[1]
                assert got == expected, (pattern, text)
            assert service.metrics.snapshot()["sessions"]["peak_active"] >= 2
