"""The benchmark's own tests: ``python -m pytest perfbench -q``.

Inputs must be a pure function of the seed, every oracle must notice a
single dropped mapping, and the metric names a run prints must be exactly
those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from perfbench import inputs, oracles, serve  # noqa: E402
from perfbench.measure import tail  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = list(islice(inputs.documents(workload, 7), 12))
    again = list(islice(inputs.documents(workload, 7), 12))
    other = list(islice(inputs.documents(workload, 8), 12))
    assert [d.encode("utf-8") for d in first] == [d.encode("utf-8") for d in again]
    assert first != other
    assert len(set(first)) == len(first)
    assert inputs.warmup_document(workload, 7) not in first


def test_serve_schedule_is_seeded_and_one_arrival_per_slot():
    assert serve.schedule(3, 40) == serve.schedule(3, 40)
    assert serve.schedule(3, 40) != serve.schedule(4, 40)
    for slot, due in enumerate(serve.schedule(3, 40)):
        assert slot <= due * serve.RATE < slot + 1


def test_input_properties_hold():
    logs = list(islice(inputs.documents("logs-extract", 1), 20))
    assert all(inputs.LOG_MIN_CHARS <= len(d) <= inputs.LOG_MAX_CHARS + 200 for d in logs)
    named = [d for d in logs if frozenset(d) != inputs.LOG_ALPHABET]
    assert len(named) == 20 // inputs.NAME_EVERY
    contacts = islice(inputs.documents("contacts-dense", 1), 5)
    assert all(frozenset(d) == inputs.CONTACT_ALPHABET for d in contacts)
    tails = islice(inputs.documents("serve-tail", 1), 3)
    assert all(frozenset(d) == inputs.LOG_ALPHABET for d in tails)


def _drop_one(rows):
    assert rows, "an oracle test needs at least one mapping"
    return rows[:-1]


def test_logs_oracle_catches_a_dropped_mapping():
    from repro import Spanner

    text = inputs.log_document(1, 3)
    rows = Spanner(inputs.LOG_PATTERN).extract(text)
    assert oracles.check_logs(text, rows) is None
    assert oracles.check_logs(text, _drop_one(rows)) is not None


def test_contacts_oracle_catches_a_dropped_mapping():
    from repro import Spanner

    text = inputs.contact_document(1, 0)
    spanner = Spanner(inputs.CONTACT_PATTERN)
    rows, count = spanner.extract(text), spanner.count(text)
    reference = spanner.extract(text, engine="reference")
    assert oracles.check_contacts(count, rows, reference) is None
    assert oracles.check_contacts(count, _drop_one(rows)) is not None
    assert oracles.check_contacts(count - 1, rows) is not None
    assert oracles.check_contacts(count - 1, _drop_one(rows), reference) is not None


def test_nested_oracle_catches_a_dropped_mapping():
    from repro import Spanner

    text = inputs.nested_document(1, 0)
    delivered = sum(1 for _ in Spanner(inputs.NESTED_PATTERN).enumerate(text))
    assert delivered == oracles.expected_nested(inputs.NESTED_LENGTH)
    assert oracles.check_nested(text, delivered) is None
    assert oracles.check_nested(text, delivered - 1) is not None


def test_serve_oracle_catches_a_dropped_mapping():
    from repro import Spanner
    from repro.server import DEFAULT_SERVE_ALPHABET

    text = inputs.tail_document(1, 0)
    spanner = Spanner(inputs.LOG_PATTERN)
    evaluator = spanner.stream(alphabet=DEFAULT_SERVE_ALPHABET, emit="incremental",
                               retain_settled=False)
    streamed = []
    for at in range(0, len(text), serve.CHUNK):
        streamed += evaluator.feed(text[at:at + serve.CHUNK])
    streamed += list(evaluator.finish().residual)
    served = [{v: [s.begin, s.end] for v, s in m.items()} for m in streamed]
    facade = oracles.span_tuples(spanner.evaluate(text))
    assert oracles.check_serve(served, facade) is None
    assert oracles.check_serve(_drop_one(served), facade) is not None


def test_tail_reads_the_highest_ladder_point_with_ten_beyond():
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(200)))[0] == 95.0


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metric_names_match_benchmark_json(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("logs-extract", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cpu_clock_latencies_queue_behind_a_slow_session():
    latencies = serve.cpu_clock_latencies([0.0, 0.1, 0.2], [0.01, 0.25, 0.01])
    assert latencies == pytest.approx([0.01, 0.25, 0.16])
