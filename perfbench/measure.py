"""Statistics, memory probes and the result line shared by every workload."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

__all__ = [
    "TAIL_LADDER",
    "Result",
    "peak_rss_mb",
    "percentile",
    "reference_seconds",
    "tail",
]

#: Percentiles the tail latency may be read at.  A run reports the highest
#: one that still has at least ten samples beyond it; a fixed ladder keeps
#: the chosen percentile the same across runs of similar length.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], point: float) -> float:
    """Linear-interpolation percentile (``point`` in 0–100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * point / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` at the highest ladder point with ≥10 beyond."""
    count = len(values)
    for point in TAIL_LADDER:
        if count * (100.0 - point) / 100.0 >= TAIL_MIN_BEYOND:
            return point, percentile(values, point)
    return 50.0, percentile(values, 50.0)


def reference_seconds(clock) -> float:
    """CPU time of a fixed pure-Python loop: the machine's current speed.

    Timed between operations (never inside one) and reported beside the
    metrics, so a run made while the shared host was unusually fast or
    slow can be recognised as such.
    """
    start = clock()
    table: dict[int, int] = {}
    total = 0
    for i in range(20_000):
        table[i & 255] = i
        total += table.get(i & 127, 0)
    return clock() - start


def _status_kib(path: str, field: str) -> int:
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not found in {path}")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    return _status_kib(f"/proc/{pid}/status", "VmHWM") / 1024.0


class Result:
    """Accumulates one run's verdict and metrics; prints the final line."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.report: dict[str, object] = {}

    def fail(self, message: str) -> None:
        """Count one failed, refused or oracle-mismatching operation."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        if not isinstance(value, (int, float)) or math.isnan(value):
            raise ValueError(f"metric {name} is not a number: {value!r}")
        self.metrics[name] = (float(value), unit)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def lines(self) -> list[str]:
        """The human-readable table, the JSON report and the result line."""
        out = [f"workload {self.workload}: {self.attempted} operations, "
               f"{self.failed} failed (failed_share {self.failed_share:.4f})"]
        for message in self.failures:
            out.append(f"  failure: {message}")
        for name, (value, unit) in self.metrics.items():
            out.append(f"  {name:<42} {value:>16.6g} {unit}")
        out.append("report " + json.dumps(self.report, sort_keys=True, default=str))
        out.append(json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }))
        return out
