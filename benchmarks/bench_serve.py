"""B13 — the ``repro serve`` front-end under concurrent multi-tenant load.

Boots the asyncio server in-process (ephemeral port) and drives it with
many concurrent clients — all sessions **open before any feeds**, so the
server demonstrably sustains the full session count at once — over the
``tailing-logs`` scenario.  Every client uses the same pattern, so the
shared plan cache compiles once and serves the rest from memory.  Reported per workload:

* **requests_per_second** — completed sessions over the wall-clock of
  the whole storm (opens included).
* **latency_p50_ms / latency_p99_ms** — per-request latency (open →
  ``done`` event), nearest-rank percentiles.
* **speedup_p99_vs_budget** — the latency budget over the measured p99;
  CI floors this at 1.0, i.e. p99 must stay inside the budget.
* **speedup_serve_vs_direct** — direct in-process
  ``StreamingEvaluator`` time over server wall-clock for the same work:
  the cost of the HTTP/session layer, tracked as a trajectory ratio.
* **plan_cache_hit_ratio** — from ``/metrics``; with N sessions on one
  pattern it must approach (N-1)/N, and CI floors it at 0.5.

The bench also asserts the differential check (server mappings ==
direct mappings) and that ``peak_active_sessions`` reached the full
concurrency — a server that serialized the opens would fail here, not
just look slow.

Usage::

    python benchmarks/bench_serve.py [--smoke] [--output report.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.server import ReproServer, ServerConfig, SpannerService, StreamClient  # noqa: E402
from repro.server.client import fetch_json  # noqa: E402
from repro.spanners.spanner import Spanner  # noqa: E402
from repro.workloads.collections import chunked_document, scenario  # noqa: E402

#: The per-request latency budgets the p99 is gated against (milliseconds).
#: Smoke runs on shared CI runners with ~50 sessions multiplexed onto one
#: event loop, so the budget is deliberately generous — the floor catches
#: order-of-magnitude regressions (a blocking call in the accept path, an
#: O(sessions) scan per event), not scheduler jitter.
P99_BUDGET_MS = {"smoke": 4000.0, "full": 20000.0}


def percentile(samples: list[float], point: float) -> float:
    ordered = sorted(samples)
    rank = max(1, -(-point * len(ordered) // 100))  # nearest rank, ceil
    return ordered[int(rank) - 1]


def direct_time(pattern: str, alphabet: str, documents, *, chunk_size: int):
    """The same work without the server: one evaluator per session."""
    spanner = Spanner.from_regex(pattern)
    start = time.perf_counter()
    mappings = 0
    for document in documents:
        evaluator = spanner.stream(
            alphabet=alphabet, emit="incremental", retain_settled=False
        )
        for chunk in chunked_document(document, chunk_size):
            mappings += len(evaluator.feed(chunk))
        mappings += sum(1 for _mapping in evaluator.finish().residual)
    return time.perf_counter() - start, mappings


async def storm(
    service: SpannerService,
    port: int,
    pattern: str,
    alphabet: str,
    documents,
    *,
    concurrency: int,
    chunk_size: int,
):
    """Open *concurrency* sessions at once, then feed each a document."""
    host = service.config.host
    jobs = [documents[index % len(documents)] for index in range(concurrency)]
    start = time.perf_counter()

    async def open_one(index: int):
        opened_at = time.perf_counter()
        client = await StreamClient.open(
            host, port, pattern, alphabet=alphabet, emit="incremental"
        )
        if client.status != 200:
            raise AssertionError(
                f"session {index} refused: {client.status} {client.error_body}"
            )
        return client, opened_at

    opened = await asyncio.gather(*(open_one(index) for index in range(concurrency)))
    peak_active = service.metrics.snapshot()["sessions"]["peak_active"]
    if peak_active < concurrency:
        raise AssertionError(
            f"server never held all sessions at once: peak_active={peak_active}, "
            f"expected >= {concurrency}"
        )

    async def drive(client: StreamClient, opened_at: float, document):
        for chunk in chunked_document(document, chunk_size):
            await client.feed(chunk)
        events = await client.finish()
        latency = time.perf_counter() - opened_at
        await client.close()
        done = events[-1] if events else {}
        if not done.get("done"):
            raise AssertionError(f"session ended without a done event: {events[-3:]}")
        return latency, done.get("mappings", 0)

    outcomes = await asyncio.gather(
        *(
            drive(client, opened_at, document)
            for (client, opened_at), document in zip(opened, jobs)
        )
    )
    elapsed = time.perf_counter() - start
    latencies = [latency for latency, _count in outcomes]
    mappings = sum(count for _latency, count in outcomes)
    return elapsed, latencies, mappings, peak_active


async def bench_workload(
    name: str,
    *,
    num_documents: int,
    scale: int,
    concurrency: int,
    chunk_size: int,
    budget_ms: float,
):
    workload = scenario(name, num_documents=num_documents, scale=scale)
    documents = list(workload.collection)
    # The declared alphabet no longer affects compilation; the sessions
    # still send one to keep the protocol field exercised.
    alphabet = "".join(sorted({char for doc in documents for char in doc.text}))
    jobs = [documents[index % len(documents)] for index in range(concurrency)]

    direct_seconds, direct_mappings = direct_time(
        workload.pattern, alphabet, jobs, chunk_size=chunk_size
    )

    config = ServerConfig(
        port=0,
        max_sessions=concurrency,
        idle_timeout=120.0,
        plan_cache_size=8,
    )
    service = SpannerService(config)
    server = ReproServer(service)
    await server.start()
    try:
        elapsed, latencies, served_mappings, peak_active = await storm(
            service,
            server.port,
            workload.pattern,
            alphabet,
            documents,
            concurrency=concurrency,
            chunk_size=chunk_size,
        )
        _status, metrics = await fetch_json(config.host, server.port, "/metrics")
    finally:
        await server.close()

    if served_mappings != direct_mappings:
        raise AssertionError(
            f"{name}: engines disagree — served={served_mappings}, "
            f"direct={direct_mappings}"
        )

    p50_ms = percentile(latencies, 50.0) * 1000.0
    p99_ms = percentile(latencies, 99.0) * 1000.0
    results = {
        "serve": {
            "requests": concurrency,
            "concurrency": concurrency,
            "elapsed_seconds": elapsed,
            "peak_active_sessions": peak_active,
            "chunk_size": chunk_size,
        },
        "direct": {"total_seconds": direct_seconds},
        "requests_per_second": concurrency / elapsed if elapsed else float("inf"),
        "latency_p50_ms": p50_ms,
        "latency_p99_ms": p99_ms,
        "latency_budget_ms": budget_ms,
        "speedup_p99_vs_budget": budget_ms / p99_ms if p99_ms else float("inf"),
        "speedup_serve_vs_direct": direct_seconds / elapsed
        if elapsed
        else float("inf"),
        "plan_cache_hit_ratio": metrics["plan_cache"]["hit_ratio"],
    }
    return {
        "workload": f"{name}-serve",
        "documents": len(documents),
        "total_chars": workload.total_length,
        "mappings": served_mappings,
        "results": results,
    }


def print_report(entry) -> None:
    rows = entry["results"]
    serve = rows["serve"]
    print(
        f"\n### {entry['workload']}: {serve['concurrency']} concurrent sessions, "
        f"{entry['total_chars']} chars/doc-set, {entry['mappings']} mappings"
    )
    print(
        f"throughput: {rows['requests_per_second']:.1f} req/s   "
        f"p50: {rows['latency_p50_ms']:.1f}ms   "
        f"p99: {rows['latency_p99_ms']:.1f}ms (budget {rows['latency_budget_ms']:.0f}ms)"
    )
    print(
        f"peak active: {serve['peak_active_sessions']}   "
        f"plan-cache hit ratio: {rows['plan_cache_hit_ratio']:.3f}   "
        f"serve vs direct: {rows['speedup_serve_vs_direct']:.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads for CI (a few seconds)"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "serve_report.json"),
        help="path of the JSON report",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        configs = [
            dict(
                num_documents=2,
                scale=1500,
                concurrency=50,
                chunk_size=1024,
                budget_ms=P99_BUDGET_MS["smoke"],
            )
        ]
    else:
        configs = [
            dict(
                num_documents=4,
                scale=8000,
                concurrency=64,
                chunk_size=4096,
                budget_ms=P99_BUDGET_MS["full"],
            )
        ]

    report = {"smoke": args.smoke, "cpu_count": os.cpu_count(), "workloads": []}
    for config in configs:
        entry = asyncio.run(bench_workload("tailing-logs", **config))
        report["workloads"].append(entry)
        print_report(entry)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
