"""Unit tests for the chunk-fed streaming evaluator (repro.runtime.streaming)."""

import pytest

from repro import Spanner, StreamingError
from repro.core.documents import Document
from repro.runtime.engine import EvaluationScratch, evaluate_compiled_arena
from repro.runtime.plan import ExecutionPlan, choose_plan
from repro.runtime.streaming import (
    StreamingEvaluator,
    evaluate_streaming,
    settled_sinks,
)
from repro.runtime.subset import CompiledSubsetEVA
from repro.workloads.collections import chunked_document, scenario


def tail_runtime(scale=300, seed=2):
    workload = scenario("tailing-logs", num_documents=1, scale=scale, seed=seed)
    document = next(iter(workload.collection))
    spanner = Spanner.from_regex(workload.pattern)
    return spanner.runtime(document), document


class TestOnFinishArenaIdentity:
    def test_arena_is_array_identical_to_whole_document_engine(self):
        runtime, document = tail_runtime()
        whole = evaluate_compiled_arena(runtime, document)
        for chunk_size in (1, 7, 100, len(document)):
            evaluator = StreamingEvaluator(runtime)
            for chunk in chunked_document(document, chunk_size):
                assert evaluator.feed(chunk) == []
            result = evaluator.finish()
            assert result.document_length == whole.document_length
            assert result.node_markers == whole.node_markers
            assert result.node_positions == whole.node_positions
            assert result.node_starts == whole.node_starts
            assert result.node_ends == whole.node_ends
            assert result.cell_nodes == whole.cell_nodes
            assert result.cell_nexts == whole.cell_nexts
            assert result.final_entries == whole.final_entries

    def test_fast_path_disabled_matches(self):
        runtime, document = tail_runtime(scale=60)
        whole = {str(m) for m in evaluate_compiled_arena(runtime, document)}
        evaluator = StreamingEvaluator(runtime, fast_path=False)
        for chunk in chunked_document(document, 13):
            evaluator.feed(chunk)
        assert {str(m) for m in evaluator.finish()} == whole

    def test_empty_document(self):
        spanner = Spanner.from_regex("x{a*}")
        runtime = spanner.runtime("a")
        evaluator = StreamingEvaluator(runtime)
        result = evaluator.finish()
        expected = {str(m) for m in evaluate_compiled_arena(runtime, "")}
        assert {str(m) for m in result} == expected
        assert result.document_length == 0

    def test_empty_chunks_are_no_ops(self):
        spanner = Spanner.from_regex("x{a+}")
        runtime = spanner.runtime("a")
        evaluator = StreamingEvaluator(runtime)
        evaluator.feed("")
        evaluator.feed(b"")
        evaluator.feed("aa")
        evaluator.feed("")
        expected = {str(m) for m in evaluate_compiled_arena(runtime, "aa")}
        assert {str(m) for m in evaluator.finish()} == expected


class TestBytesProtocol:
    def test_multibyte_split_reassembled(self):
        spanner = Spanner.from_regex(".*x{a+}.*")
        text = "bé aa é"
        runtime = spanner.runtime(text)
        expected = {str(m) for m in evaluate_compiled_arena(runtime, text)}
        raw = text.encode("utf-8")
        assert len(raw) > len(text)  # multi-byte characters present
        evaluator = StreamingEvaluator(runtime)
        for index in range(len(raw)):
            evaluator.feed(raw[index : index + 1])
        assert {str(m) for m in evaluator.finish()} == expected

    def test_str_after_partial_bytes_raises(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        evaluator.feed("é".encode("utf-8")[:1])
        with pytest.raises(StreamingError):
            evaluator.feed("a")

    def test_truncated_utf8_at_finish_raises(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        evaluator.feed("é".encode("utf-8")[:1])
        with pytest.raises(StreamingError):
            evaluator.finish()

    def test_non_chunk_type_rejected(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        with pytest.raises(StreamingError):
            evaluator.feed(42)


class TestProtocol:
    def test_feed_after_finish_raises(self):
        runtime, _document = tail_runtime(scale=20)
        evaluator = StreamingEvaluator(runtime)
        evaluator.finish()
        with pytest.raises(StreamingError):
            evaluator.feed("a")
        with pytest.raises(StreamingError):
            evaluator.finish()

    def test_rejects_subset_runtime(self):
        spanner = Spanner.from_regex("x{a+}b")
        subset = CompiledSubsetEVA(spanner.compiled("ab"))
        with pytest.raises(StreamingError):
            StreamingEvaluator(subset)

    def test_rejects_unknown_emit_mode(self):
        runtime, _document = tail_runtime(scale=20)
        with pytest.raises(StreamingError):
            StreamingEvaluator(runtime, emit="eager")

    def test_scratch_reused_and_returned_clean(self):
        runtime, document = tail_runtime(scale=80)
        scratch = EvaluationScratch(runtime)
        first = evaluate_streaming(runtime, document, chunk_size=64, scratch=scratch)
        second = evaluate_streaming(runtime, document, chunk_size=64, scratch=scratch)
        assert {str(m) for m in first} == {str(m) for m in second}
        # The scratch comes back with every slot cleared, so the plain
        # arena engine can borrow it right after.
        direct = evaluate_compiled_arena(runtime, document, scratch=scratch)
        assert {str(m) for m in direct} == {str(m) for m in first}


class TestIncrementalEmission:
    def test_settled_sinks_exist_for_tailing_pattern(self):
        runtime, _document = tail_runtime(scale=30)
        sinks = settled_sinks(runtime)
        assert sinks, "the tailing pattern must have a settled sink"
        for state in sinks:
            assert runtime.is_final[state]
            assert runtime.silent[state]

    def test_mappings_settle_before_finish(self):
        runtime, document = tail_runtime(scale=400)
        expected = {str(m) for m in evaluate_compiled_arena(runtime, document)}
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        settled = []
        for chunk in chunked_document(document, 512):
            settled.extend(evaluator.feed(chunk))
        result = evaluator.finish()
        assert settled, "matches must settle while the stream is open"
        assert {str(m) for m in settled} <= expected
        assert {str(m) for m in result} == expected
        assert result.count() == len(expected)
        assert evaluator.settled_count() == len(settled)

    def test_no_duplicate_between_settled_and_residual(self):
        runtime, document = tail_runtime(scale=200)
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        for chunk in chunked_document(document, 256):
            evaluator.feed(chunk)
        result = evaluator.finish()
        everything = [str(m) for m in result]
        assert len(everything) == len(set(everything))

    def test_arena_stays_bounded(self):
        runtime, document = tail_runtime(scale=4000, seed=9)
        whole = evaluate_compiled_arena(runtime, document)
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        for chunk in chunked_document(document, 2048):
            evaluator.feed(chunk)
        result = evaluator.finish()
        assert {str(m) for m in result} == {str(m) for m in whole}
        assert evaluator.peak_arena_cells < len(whole.cell_nodes)

    def test_foreign_char_before_delivery_kills_like_the_engines(self):
        # A wildcard-free pattern does not read 'Z': every run dies.
        runtime = Spanner.from_regex("[ab]*x{a+}[ab]*").runtime()
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        delivered = evaluator.feed("Zaa")
        assert delivered == []
        result = evaluator.finish()
        assert result.is_empty()
        assert {str(m) for m in evaluate_compiled_arena(runtime, "Zaa")} == set()
        # A wildcard reads 'Z' as OTHER: the stream equals extract.
        spanner = Spanner.from_regex(".*x{a+}.*")
        evaluator = StreamingEvaluator(spanner.runtime(), emit="incremental")
        evaluator.feed("Zaa")
        streamed = sorted(map(str, evaluator.finish()))
        assert streamed == sorted(map(str, spanner.evaluate("Zaa")))
        assert len(streamed) == 3

    def test_foreign_char_after_delivery_raises(self):
        runtime = Spanner.from_regex("[ab ]*x{a+} [ab ]*").runtime()
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        delivered = evaluator.feed("aa b")
        assert delivered, "the match should settle in the trailing class"
        with pytest.raises(StreamingError):
            evaluator.feed("Z")
        # With a trailing wildcard 'Z' is OTHER: nothing to retract.
        spanner = Spanner.from_regex(".*x{a+} .*")
        evaluator = StreamingEvaluator(spanner.runtime(), emit="incremental")
        assert evaluator.feed("aa b"), "the match should settle in the wildcard"
        assert evaluator.feed("Z") == []
        streamed = sorted(map(str, evaluator.finish()))
        assert streamed == sorted(map(str, spanner.evaluate("aa bZ")))

    def test_retain_settled_false_delivers_without_replaying(self):
        runtime, document = tail_runtime(scale=300)
        expected = {str(m) for m in evaluate_compiled_arena(runtime, document)}
        evaluator = StreamingEvaluator(
            runtime, emit="incremental", retain_settled=False
        )
        delivered = []
        for chunk in chunked_document(document, 512):
            delivered.extend(evaluator.feed(chunk))
        result = evaluator.finish()
        # feed() delivered everything; finish() holds only the residue —
        # but the result still counts the true total.
        assert {str(m) for m in delivered} | {str(m) for m in result} == expected
        assert result.settled == []
        assert result.count() == len(expected)
        assert not result.is_empty()
        assert evaluator.settled_count() == len(delivered)
        # '\x01' reads as OTHER, so the stream goes on exactly.
        evaluator2 = StreamingEvaluator(
            runtime, emit="incremental", retain_settled=False
        )
        assert evaluator2.feed("r ERROR worker-1 r\n")
        assert evaluator2.feed("\x01") == []
        assert evaluator2.finish().count() == 1
        # The retraction guard of a wildcard-free pattern still counts
        # deliveries made with retain_settled=False.
        guarded = StreamingEvaluator(
            Spanner.from_regex("[ab]*x{a}[ab]*").runtime(),
            emit="incremental",
            retain_settled=False,
        )
        assert guarded.feed("ab")
        with pytest.raises(StreamingError):
            guarded.feed("\x01")

    def test_empty_mapping_settles_immediately_for_plain_star(self):
        spanner = Spanner.from_regex("a*")
        runtime = spanner.runtime("a")
        evaluator = StreamingEvaluator(runtime, emit="incremental")
        delivered = evaluator.feed("aaa")
        assert [dict(m.items()) for m in delivered] == [{}]
        result = evaluator.finish()
        assert result.count() == 1


class TestUnmentionedCharacters:
    """Wildcards read characters the stream never declared (regression).

    Streams used to compile wildcards over the declared alphabet, so an
    undeclared character silently killed every run: the stream below
    finished with ``[]`` while ``extract`` found ``{'w': '4'}``.
    """

    PATTERN = ".*ERROR w{[0-9]} .*"
    TEXT = "q ERROR 4 z"

    @pytest.mark.parametrize("emit", ["on_finish", "incremental"])
    @pytest.mark.parametrize("chunks", [[TEXT], list(TEXT), [TEXT[:5], TEXT[5:]]])
    def test_stream_equals_extract(self, emit, chunks):
        spanner = Spanner.from_regex(self.PATTERN)
        evaluator = spanner.stream(alphabet="ERO 0123456789", emit=emit)
        for chunk in chunks:
            evaluator.feed(chunk)
        streamed = [m.contents(self.TEXT) for m in evaluator.finish()]
        assert streamed == spanner.extract(self.TEXT) == [{"w": "4"}]

    def test_incremental_delivers_before_the_end(self):
        spanner = Spanner.from_regex(self.PATTERN)
        evaluator = spanner.stream(emit="incremental")
        delivered = evaluator.feed(self.TEXT)
        assert [m.contents(self.TEXT) for m in delivered] == [{"w": "4"}]
        assert evaluator.feed("\U0001f600\x00") == []
        assert evaluator.finish().count() == 1


class TestPlanLayer:
    def test_choose_plan_streaming_resolves_auto_to_compiled(self):
        plan = choose_plan(engine="auto", streaming=True)
        assert plan.engine == "compiled" and plan.streaming

    def test_choose_plan_streaming_rejects_other_engines(self):
        for engine in ("reference", "compiled-otf", "hybrid"):
            with pytest.raises(ValueError):
                choose_plan(engine=engine, streaming=True)

    def test_execution_plan_streaming_requires_compiled(self):
        with pytest.raises(ValueError):
            ExecutionPlan("reference", True, "bad", streaming=True)

    def test_spanner_stream_respects_engine_override(self):
        spanner = Spanner.from_regex("x{a}")
        with pytest.raises(ValueError):
            spanner.stream(engine="compiled-otf")
        evaluator = spanner.stream(engine="compiled")
        assert isinstance(evaluator, StreamingEvaluator)

    def test_streaming_rejects_hybrid_expression_plans(self):
        # A join over a non-provably-functional union operand must run
        # the hybrid operator plan; the monolithic fused automaton
        # silently loses mappings, so streaming refuses it rather than
        # quietly downgrading.
        from repro.algebra.expressions import Atom

        expression = Atom("x{a}b").join(Atom("x{a}b").union(Atom("(a)y{b}")))
        spanner = Spanner.from_expression(expression)
        assert len(spanner.evaluate("ab")) == 2  # hybrid, the sound route
        with pytest.raises(ValueError, match="hybrid"):
            spanner.stream(alphabet="ab")
        with pytest.raises(ValueError, match="hybrid"):
            spanner.run_batch(["ab"], streaming=True)

    def test_fully_fused_expression_still_streams(self):
        # When the optimizer fuses everything, the monolithic automaton
        # IS the plan — streaming it is sound and must keep working.
        from repro.algebra.expressions import Atom

        expression = Atom(".*x{a+}.*").union(Atom(".*x{b+}.*"))
        spanner = Spanner.from_expression(expression)
        document = "aabba"
        expected = {str(m) for m in spanner.evaluate(document)}
        evaluator = spanner.stream(alphabet=frozenset(document))
        for char in document:
            evaluator.feed(char)
        assert {str(m) for m in evaluator.finish()} == expected


class TestBatchStreaming:
    def test_serial_and_process_streaming_match_whole_document_batch(self):
        workload = scenario("tailing-logs", num_documents=3, scale=200, seed=4)
        spanner = Spanner.from_regex(workload.pattern)
        base = {
            str(doc_id): {str(m) for m in result}
            for doc_id, result in spanner.run_batch(workload.collection)
        }
        streamed = {
            str(doc_id): {str(m) for m in result}
            for doc_id, result in spanner.run_batch(
                workload.collection, streaming=True, stream_chunk_size=128
            )
        }
        assert streamed == base
        processes = {
            str(doc_id): {str(m) for m in result}
            for doc_id, result in spanner.run_batch(
                workload.collection,
                streaming=True,
                mode="processes",
                max_workers=2,
                stream_chunk_size=128,
            )
        }
        assert processes == base

    def test_streaming_rejects_non_compiled_engines(self):
        workload = scenario("tailing-logs", num_documents=1, scale=50)
        spanner = Spanner.from_regex(workload.pattern)
        with pytest.raises(ValueError):
            list(spanner.run_batch(workload.collection, streaming=True, engine="reference"))

    def test_document_iter_chunks(self):
        document = Document("abcdefg")
        assert list(document.iter_chunks(3)) == ["abc", "def", "g"]
        with pytest.raises(ValueError):
            list(document.iter_chunks(0))

    def test_chunked_document_accepts_plain_strings(self):
        assert list(chunked_document("abcd", 3)) == ["abc", "d"]
        with pytest.raises(ValueError):
            list(chunked_document("abcd", 0))
