"""Property tests: shard-parallel evaluation is exactly serial evaluation.

Two families of guarantees:

* **Algebraic** — per-shard transition summaries form a monoid under
  :func:`compose_summaries`: composition is associative, composing the
  summaries of adjacent slices equals the summary of their concatenation,
  and applying a summary to an entry set commutes with union.  These are
  the properties the left-to-right stitch relies on.

* **Operational** — for every generated spanner, document and shard
  count, the stitched arena is bit-identical to the serial engine's
  (through the shared harness helper) and the replay-free sharded count
  is exact, including boundaries inside quiescent sprint runs, between
  multi-byte codepoints, and shard counts beyond the document length.
"""

from hypothesis import given, settings, strategies as st

from harness import (
    adversarial_documents,
    adversarial_shard_counts,
    assert_all_engines_agree,
    assert_arena_identical,
)

from repro import Spanner
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.sharding import (
    apply_summary,
    compose_summaries,
    count_sharded,
    evaluate_sharded,
    shard_summary,
)
from repro.workloads.collections import scenario

#: Patterns chosen to cover the shard-relevant regimes: sprint-heavy
#: wildcard scans, capture-dense cores, run death on foreign characters,
#: and multi-variable nondeterminism resolved by determinization.
PATTERNS = [
    ".*x{a}.*",
    "x{a*}b*",
    ".*x{ab}y{b*}a.*",
    "x{a}b",
    ".*x{aé*b}.*",
]

DOCUMENT_ALPHABET = "abé\x00"


documents = st.text(alphabet=DOCUMENT_ALPHABET, max_size=24)
patterns = st.sampled_from(PATTERNS)


def _runtime(pattern: str, text: str):
    spanner = Spanner.from_regex(pattern)
    return spanner.runtime()


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, text=documents, data=st.data())
def test_summary_composition_is_associative_and_exact(pattern, text, data):
    """compose(S(a), S(b)) == S(a+b), and composition is associative."""
    runtime = _runtime(pattern, text)
    encoded = runtime.encode(text)
    buf, length = encoded.buffer, encoded.length
    cut_one = data.draw(st.integers(min_value=0, max_value=length))
    cut_two = data.draw(st.integers(min_value=cut_one, max_value=length))

    first = shard_summary(runtime, buf[:cut_one], cut_one)
    second = shard_summary(runtime, buf[cut_one:cut_two], cut_two - cut_one)
    third = shard_summary(runtime, buf[cut_two:], length - cut_two)

    left = compose_summaries(compose_summaries(first, second), third)
    right = compose_summaries(first, compose_summaries(second, third))
    whole = shard_summary(runtime, buf, length)
    assert left == right
    assert left == whole


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, text=documents, data=st.data())
def test_apply_summary_is_a_union_homomorphism(pattern, text, data):
    """The frontier of a state set is the union of per-state frontiers."""
    runtime = _runtime(pattern, text)
    encoded = runtime.encode(text)
    summary = shard_summary(runtime, encoded.buffer, encoded.length)
    entries = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=runtime.num_states - 1),
            max_size=4,
            unique=True,
        )
    )
    combined = set(apply_summary(summary, entries))
    union = set()
    for state in entries:
        union.update(apply_summary(summary, [state]))
    assert combined == union


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, text=documents, shards=st.integers(min_value=1, max_value=30))
def test_sharded_arena_is_bit_identical(pattern, text, shards):
    runtime = _runtime(pattern, text)
    serial = evaluate_compiled_arena(runtime, text)
    arena = evaluate_sharded(runtime, text, shards=shards)
    assert_arena_identical(arena, serial, context=f" (shards={shards})")
    assert count_sharded(runtime, text, shards=shards) == count_compiled(
        runtime, text
    )


def test_adversarial_corpus_through_the_full_harness():
    """Every corpus document, every engine, every shard count agrees."""
    for pattern in PATTERNS:
        spanner = Spanner.from_regex(pattern)
        for text in adversarial_documents(seed=11):
            assert_all_engines_agree(
                pattern, text, seed=11, streaming=False, spanner=spanner
            )


def test_sparse_logs_scenario_bit_identity():
    """The benchmark scenario itself: real matches across shard bounds."""
    bench = scenario("sparse-logs", num_documents=1, scale=800)
    spanner = bench.build_spanner()
    document = next(iter(bench.collection))
    runtime = spanner.runtime()
    serial = evaluate_compiled_arena(runtime, document)
    assert count_compiled(runtime, document) > 0, "scenario must match"
    for shards in adversarial_shard_counts(len(document), seed=3):
        arena = evaluate_sharded(runtime, document, shards=shards)
        assert_arena_identical(arena, serial, context=f" (shards={shards})")
