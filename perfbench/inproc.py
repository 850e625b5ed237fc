"""The in-process workloads: logs-extract, contacts-dense, nested-enumerate.

One caller runs a closed loop through the public :class:`repro.Spanner`
facade.  Set-up is wall time; operations are timed on the thread's CPU
clock (see :data:`clock`).  Inputs are generated in batches while the
clock is stopped; the measured phase is the sum of the timed operations
and ends once it reaches ``--seconds``.  Every timed operation gets a ``str`` this process
has never evaluated, and must advance ``encoding_passes()`` — otherwise a
per-document cache answered it and the run fails.

With ``--trace 1`` each document is also *replayed*: the facade's steps
are called one by one on a second, identically warmed spanner, each call
into one layer's public function timed as a span.  The replay's output
must equal the untraced facade result on the same document.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs, oracles
from perfbench.measure import Result, peak_rss_mb, percentile, reference_seconds, tail

__all__ = ["SPECS", "run", "setup_once"]

#: Operations and layer spans are timed on the calling thread's CPU clock.
#: They are pure computation in one thread, so that equals wall time on an
#: idle machine, but it leaves out the stretches the hypervisor or the OS
#: had the thread descheduled — on a shared VM those stolen stretches
#: otherwise dominate the run-to-run spread of every latency percentile.
clock = time.thread_time


@dataclass(frozen=True)
class Spec:
    pattern: str
    #: Operations cycled over consecutive documents; the first is primary.
    ops: tuple[str, ...]


SPECS = {
    "logs-extract": Spec(inputs.LOG_PATTERN, ("extract",)),
    "contacts-dense": Spec(inputs.CONTACT_PATTERN, ("extract", "count")),
    "nested-enumerate": Spec(inputs.NESTED_PATTERN, ("enumerate",)),
}

#: Documents generated per pause of the clock (bounds the input pool's RSS).
BATCH = 8
#: Set-up samples per run: this process plus SETUP_SAMPLES - 1 fresh ones.
SETUP_SAMPLES = 5
#: Operations per window of the throughput figures (see windowed_rates).
WINDOW = 32
#: contacts-dense: one document in this many is also run on engine="reference".
REFERENCE_EVERY = 16
#: Untraced runs sample the kernel auto-selection on one document in this many.
KERNEL_SAMPLE_EVERY = 8


def _call(spanner, op: str, text: str):
    """One facade operation; returns ``(output, mappings)``."""
    if op == "extract":
        rows = spanner.extract(text)
        return rows, len(rows)
    if op == "count":
        total = spanner.count(text)
        return total, total
    delivered = 0
    for _mapping in spanner.enumerate(text):
        delivered += 1
    return delivered, delivered


def setup_once(workload: str, seed: int):
    """Import, compile and warm every operation; returns ``(seconds, spanner)``.

    The warm-up document is outside the measured stream.
    """
    warm = inputs.warmup_document(workload, seed)
    start = time.perf_counter()
    from repro import Spanner

    spanner = Spanner(SPECS[workload].pattern)
    for op in SPECS[workload].ops:
        _call(spanner, op, warm)
    return time.perf_counter() - start, spanner


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter (own import, compile)."""
    bench = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--setup-probe", workload,
         "--seed", str(seed)],
        cwd=bench.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# The traced replay
# --------------------------------------------------------------------------- #


def _replay(spanner, op: str, text: str, spans: dict[str, float]):
    """The facade's steps as separate timed calls into each layer.

    Returns ``(output, mappings, resolved_kernel, arena)``.
    """
    from repro.runtime.runlength import (
        count_with_kernel,
        evaluate_arena_with_kernel,
        resolve_kernel,
    )

    misses = spanner.cache_stats().misses
    t0 = clock()
    runtime = spanner.runtime(text)
    t1 = clock()
    plan = spanner.plan(text)
    t2 = clock()
    if spanner.cache_stats().misses != misses:
        spans["spanners.compile"] = t2 - t0
    else:
        spans["spanners.lookup"] = t1 - t0
        spans["spanners.plan"] = t2 - t1
    if plan.engine != "compiled":
        raise RuntimeError(f"replay expects the compiled engine, plan is {plan!r}")
    t0 = clock()
    encoded = runtime.encode(text)
    t1 = clock()
    resolved = resolve_kernel(plan.kernel, encoded)
    t2 = clock()
    spans["runtime.encoding"] = t1 - t0
    spans["runtime.runlength"] = t2 - t1
    if op == "count":
        t0 = clock()
        total = count_with_kernel(runtime, encoded, kernel=resolved)
        spans["runtime.kernel.count"] = clock() - t0
        return total, total, resolved, None
    t0 = clock()
    arena = evaluate_arena_with_kernel(runtime, encoded, kernel=resolved)
    t1 = clock()
    spans["runtime.kernel.arena"] = t1 - t0
    if op == "enumerate":
        delivered = 0
        for _mapping in arena:
            delivered += 1
        spans["runtime.dag"] = clock() - t1
        return delivered, delivered, resolved, arena
    mappings = list(arena)
    t2 = clock()
    rows = [mapping.contents(text) for mapping in mappings]
    spans["runtime.dag"] = t2 - t1
    spans["core.mappings"] = clock() - t2
    return rows, len(rows), resolved, arena


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #


def _oracle(workload: str, op: str, spanner, text: str, output, index: int):
    if workload == "logs-extract":
        return oracles.check_logs(text, output)
    if workload == "nested-enumerate":
        return oracles.check_nested(text, output)
    if op == "extract":
        count, rows = spanner.count(text), output
    else:
        count, rows = output, spanner.extract(text)
    reference = None
    if index % REFERENCE_EVERY == 0:
        reference = spanner.extract(text, engine="reference")
    return oracles.check_contacts(count, rows, reference)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    spec = SPECS[workload]
    result = Result(workload)
    setups = [_probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    own_setup, spanner = setup_once(workload, seed)
    setups.append(own_setup)

    from repro.runtime.encoding import encoding_passes
    from repro.runtime.runlength import resolve_kernel

    replayer = setup_once(workload, seed)[1] if trace else None
    primary = spec.ops[0]
    stream = inputs.documents(workload, seed)
    per_op: dict[str, list[float]] = defaultdict(list)   # latencies by op
    chars: dict[str, list[int]] = defaultdict(list)      # document sizes by op
    mappings: dict[str, list[int]] = defaultdict(list)   # outputs by op
    misses_before = spanner.cache_stats().misses
    passes_total = 0
    alphabets: set[frozenset] = set()
    kernel_samples: list[str] = []
    layer = _LayerTally() if trace else None
    measured = 0.0
    index = 0
    reference: list[float] = []
    while measured < seconds:
        batch = [next(stream) for _ in range(BATCH)]
        reference.append(reference_seconds(clock))
        for text in batch:
            op = spec.ops[index % len(spec.ops)]
            passes = encoding_passes()
            start = clock()
            output, delivered = _call(spanner, op, text)
            elapsed = clock() - start
            passes = encoding_passes() - passes
            result.attempted += 1
            measured += elapsed
            per_op[op].append(elapsed)
            chars[op].append(len(text))
            mappings[op].append(delivered)
            passes_total += passes
            if passes < 1:
                result.fail(f"doc {index}: {op} did not encode (a cache answered it)")
            message = _oracle(workload, op, spanner, text, output, index)
            if message:
                result.fail(f"doc {index}: {message}")
            alphabets.add(frozenset(text))
            if layer is not None:
                layer.replay(replayer, op, text, output, elapsed, result, index)
            elif index % KERNEL_SAMPLE_EVERY == 0:
                encoded = spanner.runtime(text).encode(text)
                kernel_samples.append(resolve_kernel("auto", encoded))
            index += 1
    latencies = per_op[primary]
    tail_point, tail_value = tail(latencies)
    compiles = spanner.cache_stats().misses - misses_before
    result.report = {
        "seed": seed,
        "loop": "closed, 1 caller",
        "documents": index,
        "chars": sum(map(sum, chars.values())),
        "distinct_alphabets": len(alphabets),
        "compiled_share": compiles / index,
        "mappings": sum(map(sum, mappings.values())),
        "measured_s": measured,
        "setup_samples_s": setups,
        "tail_percentile": tail_point,
        "tail_samples": len(latencies),
        "encoding_passes_per_op": passes_total / index,
        "machine_reference_ms": 1e3 * statistics.median(reference),
        "failed_share": result.failed_share,
    }
    if "count" in per_op:
        result.report["count_chars_per_s"] = sum(chars["count"]) / sum(per_op["count"])
        result.report["count_p50_ms"] = 1e3 * percentile(per_op["count"], 50)
        result.report["count_ops"] = len(per_op["count"])
    if not trace:
        result.report["runlength_share"] = (
            kernel_samples.count("runlength") / len(kernel_samples)
        )
        result.metric("setup_s", statistics.median(setups), "s")
        rates = windowed_rates(latencies, chars[primary], mappings[primary])
        result.metric("chars_per_s", rates[0], "chars/s")
        result.metric("mappings_per_s", rates[1], "mappings/s")
        result.metric("p50_ms", 1e3 * percentile(latencies, 50), "ms")
        result.metric("tail_ms", 1e3 * tail_value, "ms")
        result.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        return result
    layer.finish(result, spec.pattern, workload, per_op, chars, index, compiles,
                 passes_total)
    return result


def windowed_rates(latencies, sizes, delivered) -> tuple[float, float]:
    """Chars/s and mappings/s: the median over windows of WINDOW operations.

    Each window's rate is its characters (mappings) over its busy time; the
    median over windows keeps a short slow or fast stretch of the shared
    host from moving the run's figure, as the p50 latency already does.
    A trailing partial window is dropped.
    """
    windows = max(1, len(latencies) // WINDOW)
    size = len(latencies) // windows
    chars, maps = [], []
    for at in range(0, windows * size, size):
        busy = sum(latencies[at:at + size])
        chars.append(sum(sizes[at:at + size]) / busy)
        maps.append(sum(delivered[at:at + size]) / busy)
    return statistics.median(chars), statistics.median(maps)


class _LayerTally:
    """Per-layer spans of the traced replay, folded into per-layer metrics."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.plan: list[float] = []
        self.resolve: list[float] = []
        self.compile: list[float] = []
        self.kernels: list[str] = []
        self.chars: dict[str, int] = defaultdict(int)
        self.mappings = 0
        self.cells = 0
        self.traced = 0.0
        self.untraced = 0.0

    def replay(self, spanner, op, text, output, untraced, result, index) -> None:
        spans: dict[str, float] = {}
        start = clock()
        replayed, delivered, resolved, arena = _replay(spanner, op, text, spans)
        self.traced += clock() - start
        self.untraced += untraced
        if replayed != output:
            result.fail(f"doc {index}: traced replay of {op} differs from the facade")
        for name, seconds in spans.items():
            self.sums[name] += seconds
        if "spanners.plan" in spans:
            self.plan.append(spans["spanners.plan"])
        if "spanners.compile" in spans:
            self.compile.append(spans["spanners.compile"])
        self.resolve.append(spans["runtime.runlength"])
        self.kernels.append(resolved)
        self.chars[op] += len(text)
        if op != "count":
            self.mappings += delivered
            self.cells += arena.node_count()

    def finish(self, result, pattern, workload, per_op, chars, ops, compiles,
               passes_total) -> None:
        from repro import Spanner
        from repro.regex import parse_regex

        parse = []
        for _ in range(20):
            start = clock()
            parse_regex(pattern)
            parse.append(clock() - start)
        warm = inputs.warmup_document(workload, 0)
        for _ in range(3):
            fresh = Spanner(pattern)
            start = clock()
            fresh.runtime(warm)
            self.compile.append(clock() - start)
        sums = self.sums
        arena_chars = sum(n for op, n in self.chars.items() if op != "count")
        count_chars = self.chars.get("count", 0)
        spans_total = sum(sums.values())
        metrics = {
            "regex.parse_ms": (1e3 * percentile(parse, 50), "ms"),
            "spanners.compile_ms": (1e3 * percentile(self.compile, 50), "ms"),
            "spanners.compiles_per_kop": (1e3 * compiles / ops, "count"),
            "spanners.plan_ms": (1e3 * percentile(self.plan, 50), "ms"),
            "runtime.encoding.ns_per_char": (
                1e9 * sums["runtime.encoding"] / sum(self.chars.values()), "ns/char"),
            "runtime.encoding.passes_per_op": (passes_total / ops, "count"),
            "runtime.runlength.resolve_ms": (1e3 * percentile(self.resolve, 50), "ms"),
            "runtime.runlength.runlength_share": (
                self.kernels.count("runlength") / len(self.kernels), "ratio"),
            "trace.coverage": (spans_total / self.traced, "ratio"),
            "trace.overhead": (self.traced / self.untraced, "ratio"),
        }
        if arena_chars:
            metrics["runtime.kernel.arena_ns_per_char"] = (
                1e9 * sums["runtime.kernel.arena"] / arena_chars, "ns/char")
            metrics["runtime.kernel.arena_cells_per_kchar"] = (
                1e3 * self.cells / arena_chars, "cells/kchar")
            metrics["runtime.dag.us_per_mapping"] = (
                1e6 * sums["runtime.dag"] / self.mappings, "us/mapping")
        if "core.mappings" in sums:
            metrics["core.mappings.contents_us_per_mapping"] = (
                1e6 * sums["core.mappings"] / self.mappings, "us/mapping")
        if count_chars:
            metrics["runtime.kernel.count_ns_per_char"] = (
                1e9 * sums["runtime.kernel.count"] / count_chars, "ns/char")
            metrics["spanners.count_p50_ms"] = (
                1e3 * percentile(per_op["count"], 50), "ms")
            metrics["spanners.count_chars_per_s"] = (
                sum(chars["count"]) / sum(per_op["count"]), "chars/s")
        for name, (value, unit) in metrics.items():
            result.metric(name, value, unit)
        shares = {name: seconds / self.traced for name, seconds in sums.items()}
        result.report["layer_shares"] = dict(
            sorted(shares.items(), key=lambda item: -item[1])
        )
        result.report["dominant_layer"] = max(shares, key=shares.get)
        result.report["runlength_share"] = metrics[
            "runtime.runlength.runlength_share"][0]
