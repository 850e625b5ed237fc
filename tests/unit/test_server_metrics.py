"""Unit tests for the server's observability and protocol layers.

Covers the latency ring's nearest-rank percentiles (including the
wraparound that bounds a long-lived server's memory), the ``/metrics``
snapshot shape, and the strict NDJSON event grammar of
:mod:`repro.server.protocol`.
"""

import pytest

from repro import PlanCache
from repro.core.errors import ReproError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.server import LatencyRing, ProtocolError, ServerMetrics
from repro.server.protocol import mapping_event, parse_event, parse_open


class TestLatencyRing:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity must be positive"):
            LatencyRing(0)

    def test_empty_ring_reports_zero(self):
        ring = LatencyRing(8)
        assert ring.percentile(50) == 0.0
        assert ring.percentiles() == {"p50": 0.0, "p99": 0.0}

    def test_nearest_rank_is_exact(self):
        ring = LatencyRing(100)
        for value in range(1, 101):  # 1..100 milliseconds
            ring.record(value / 1000.0)
        assert ring.percentile(50) == pytest.approx(0.050)
        assert ring.percentile(99) == pytest.approx(0.099)
        assert ring.percentile(100) == pytest.approx(0.100)
        assert ring.percentile(1) == pytest.approx(0.001)

    def test_percentile_range_is_validated(self):
        ring = LatencyRing(4)
        with pytest.raises(ValueError, match="percentile must be in"):
            ring.percentile(101)

    def test_wraparound_keeps_only_recent_samples(self):
        ring = LatencyRing(4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0, 200.0):
            ring.record(value)
        # 1.0 and 2.0 were overwritten; the resident set is {3,4,100,200}.
        assert len(ring) == 4
        assert ring.recorded == 6
        assert ring.percentile(50) == 4.0
        assert ring.percentile(100) == 200.0

    def test_percentiles_labels(self):
        ring = LatencyRing(8)
        ring.record(0.5)
        assert ring.percentiles((50.0, 99.0, 100.0)) == {
            "p50": 0.5,
            "p99": 0.5,
            "p100": 0.5,
        }


class TestServerMetrics:
    def test_snapshot_shape(self):
        metrics = ServerMetrics(latency_capacity=8)
        metrics.record_request(200)
        metrics.record_request(200)
        metrics.record_request(429)
        metrics.record_latency(0.25)
        metrics.session_opened()
        metrics.session_opened()
        metrics.session_closed()
        metrics.session_rejected()
        metrics.session_expired()
        metrics.session_failed()
        metrics.chunk_fed(1024)
        metrics.mappings_emitted(3)

        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 3
        assert snapshot["responses_by_status"] == {"200": 2, "429": 1}
        assert snapshot["sessions"] == {
            "opened": 2,
            "rejected": 1,
            "expired": 1,
            "failed": 1,
            "active": 1,
            "peak_active": 2,
        }
        assert snapshot["data"] == {
            "bytes_fed": 1024,
            "chunks_fed": 1,
            "mappings_emitted": 3,
        }
        assert snapshot["latency_seconds"]["p50"] == 0.25
        assert snapshot["latency_seconds"]["samples"] == 1
        assert "plan_cache" not in snapshot

    def test_snapshot_exposes_resilience_counters(self):
        from repro.runtime.resilience import RESILIENCE_METRICS

        RESILIENCE_METRICS.reset()
        snapshot = ServerMetrics().snapshot()
        assert snapshot["resilience"] == {
            "tasks_retried": 0,
            "worker_crashes": 0,
            "deadlines_exceeded": 0,
            "pool_rebuilds": 0,
            "inline_fallbacks": 0,
            "documents_quarantined": 0,
            "resource_limit_trips": 0,
        }
        RESILIENCE_METRICS.resource_limit_tripped()
        try:
            assert (
                ServerMetrics().snapshot()["resilience"]["resource_limit_trips"] == 1
            )
        finally:
            RESILIENCE_METRICS.reset()

    def test_snapshot_merges_plan_cache_stats(self):
        metrics = ServerMetrics()
        cache = PlanCache(4)
        cache.get_or_create("a", object)
        cache.get("a")
        snapshot = metrics.snapshot(cache)
        assert snapshot["plan_cache"]["hits"] == 1
        assert snapshot["plan_cache"]["hit_ratio"] == 0.5

    def test_peak_active_tracks_high_water_mark(self):
        metrics = ServerMetrics()
        for _ in range(3):
            metrics.session_opened()
        metrics.session_closed()
        metrics.session_opened()
        assert metrics.active_sessions == 3
        assert metrics.snapshot()["sessions"]["peak_active"] == 3


class TestParseOpen:
    def test_minimal_open(self):
        request = parse_open('{"pattern": "x{a+}"}')
        assert request.pattern == "x{a+}"
        assert request.alphabet is None
        assert request.emit == "incremental"

    def test_full_open_and_cache_key(self):
        request = parse_open(
            '{"pattern": "x{a+}", "alphabet": "ab", "emit": "on_finish"}'
        )
        assert request.cache_key() == "x{a+}"
        assert request.emit == "on_finish"

    def test_cache_key_resolves_omitted_alphabet_to_default(self):
        explicit = parse_open('{"pattern": "x{a+}", "alphabet": "ab"}')
        omitted = parse_open('{"pattern": "x{a+}"}')
        assert omitted.cache_key() == explicit.cache_key() == "x{a+}"

    def test_bytes_input(self):
        request = parse_open(b'{"pattern": "x{a+}"}')
        assert request.pattern == "x{a+}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ("{}", 'non-empty "pattern"'),
            ('{"pattern": ""}', 'non-empty "pattern"'),
            ('{"pattern": 7}', 'non-empty "pattern"'),
            ('{"pattern": "x{a}", "alphabet": 3}', '"alphabet" must be a string'),
            ('{"pattern": "x{a}", "emit": "never"}', "unknown emit mode"),
            ('{"pattern": "x{a}", "extra": 1}', "unknown opening fields"),
        ],
    )
    def test_rejections(self, line, message):
        with pytest.raises(ProtocolError, match=message):
            parse_open(line)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ProtocolError, match="not valid UTF-8"):
            parse_open(b'\xff\xfe{"pattern": "x"}')

    def test_protocol_error_is_a_repro_error(self):
        # The CLI's one-line-stderr handler catches ReproError; protocol
        # violations must ride the same path.
        assert issubclass(ProtocolError, ReproError)
        assert issubclass(ProtocolError, ValueError)


class TestParseEvent:
    def test_chunk(self):
        event = parse_event('{"chunk": "hello"}')
        assert (event.kind, event.text) == ("chunk", "hello")

    def test_empty_chunk_is_legal(self):
        assert parse_event('{"chunk": ""}').kind == "chunk"

    def test_finish(self):
        assert parse_event('{"finish": true}').kind == "finish"

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"chunk": 5}', '"chunk" must carry a string'),
            ('{"chunk": "a", "finish": true}', "carries only"),
            ('{"finish": false}', "expected a"),
            ('{"finish": true, "extra": 1}', "carries only"),
            ('{"other": 1}', "expected a"),
        ],
    )
    def test_rejections(self, line, message):
        with pytest.raises(ProtocolError, match=message):
            parse_event(line)


class TestMappingEvent:
    def test_spans_only_payload(self):
        mapping = Mapping({"x": Span(1, 3), "y": Span(0, 4)})
        payload = mapping_event(mapping, settled=True)
        assert payload == {"mapping": {"x": [1, 3], "y": [0, 4]}, "settled": True}

    def test_settled_flag_passthrough(self):
        mapping = Mapping({"x": Span(0, 1)})
        assert mapping_event(mapping, settled=False)["settled"] is False
