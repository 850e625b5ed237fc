"""Unit tests for the Spanner facade and the compilation pipeline."""

import pytest

from repro import Document, Mapping, Span, Spanner
from repro.core.errors import CompilationError
from repro.algebra.expressions import Atom
from repro.automata.transforms import to_deterministic_sequential_eva
from repro.regex.parser import parse_regex
from repro.runtime import encoding
from repro.spanners.pipeline import CompilationPipeline
from repro.workloads.spanners import figure2_va, figure3_eva


class TestConstruction:
    def test_from_regex_text(self):
        spanner = Spanner.from_regex("x{a+}")
        assert spanner.variables() == frozenset({"x"})

    def test_from_regex_ast(self):
        spanner = Spanner.from_regex(parse_regex("x{a}"))
        assert spanner.evaluate("a") == [Mapping({"x": Span(0, 1)})]

    def test_from_va(self):
        spanner = Spanner.from_va(figure2_va())
        assert set(spanner.evaluate("a")) == figure2_va().evaluate("a")

    def test_from_eva(self):
        spanner = Spanner.from_eva(figure3_eva())
        assert set(spanner.evaluate("ab")) == figure3_eva().evaluate("ab")

    def test_from_expression(self):
        expression = Atom("x{a}b")
        spanner = Spanner.from_expression(expression)
        assert spanner.evaluate("ab") == [Mapping({"x": Span(0, 1)})]

    def test_plain_constructor_with_string(self):
        assert Spanner("x{a}").count("a") == 1

    def test_invalid_source(self):
        with pytest.raises(CompilationError):
            Spanner(3.14)

    def test_repr(self):
        assert "Spanner" in repr(Spanner("a"))


class TestEvaluation:
    def test_evaluate_enumerate_count_agree(self):
        spanner = Spanner.from_regex("a*x{a}a*")
        document = "aaaa"
        evaluated = spanner.evaluate(document)
        enumerated = list(spanner.enumerate(document))
        assert set(evaluated) == set(enumerated)
        assert spanner.count(document) == len(evaluated) == 4

    def test_extract(self):
        spanner = Spanner.from_regex(".*name{[A-Z][a-z]+} .*")
        rows = spanner.extract("hi Ada and Bob !")
        names = sorted(row["name"] for row in rows)
        assert names == ["Ada", "Bob"]

    def test_call_shortcut(self):
        spanner = Spanner.from_regex("x{a}")
        assert spanner("a") == spanner.evaluate("a")

    def test_document_object_accepted(self):
        spanner = Spanner.from_regex("x{a+}")
        assert spanner.evaluate(Document("aa")) == [Mapping({"x": Span(0, 2)})]

    def test_empty_output(self):
        spanner = Spanner.from_regex("x{a}")
        assert spanner.evaluate("b") == []
        assert spanner.count("b") == 0

    def test_empty_document(self):
        spanner = Spanner.from_regex("x{a*}")
        assert spanner.evaluate("") == [Mapping({"x": Span(0, 0)})]

    def test_no_variable_spanner_boolean_matching(self):
        spanner = Spanner.from_regex("(ab)+")
        assert spanner.evaluate("abab") == [Mapping.EMPTY]
        assert spanner.evaluate("aba") == []

    def test_wildcards_follow_document_alphabet(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        assert spanner.count("za!") == 1
        assert spanner.count("zz") == 0

    def test_preprocess_exposes_result_dag(self):
        spanner = Spanner.from_regex("x{a}")
        result = spanner.preprocess("a")
        assert result.count() == 1


class TestCompilationAndCaching:
    def test_compiled_is_deterministic_and_sequential(self):
        spanner = Spanner.from_regex("(x{a}|y{b})c")
        automaton = spanner.compiled("abc")
        assert automaton.is_deterministic()
        assert automaton.is_sequential()

    def test_cache_reused_for_same_alphabet(self):
        spanner = Spanner.from_regex(".*x{a}.*")
        first = spanner.compiled("aba")
        second = spanner.compiled("aab")
        assert first is second

    def test_cache_extends_for_new_alphabet(self):
        # The one compilation reads 'z' as OTHER: no recompilation.
        spanner = Spanner.from_regex(".*x{a}.*")
        first = spanner.compiled("aa")
        second = spanner.compiled("az")
        assert first is second
        assert spanner.extract("az") == [{"x": "a"}]
        assert spanner.cache_stats().misses == 1

    def test_alphabet_independent_source_compiled_once(self):
        spanner = Spanner.from_regex("x{a}b")
        assert spanner.compiled("ab") is spanner.compiled("zzz")

    def test_statistics(self):
        stats = Spanner.from_regex("x{a}b").statistics("ab")
        assert stats.deterministic
        assert stats.sequential
        assert stats.num_variables == 1

    def test_compilation_report(self):
        report = Spanner.from_regex("x{a}b").compilation_report("ab")
        assert report.total_seconds >= 0
        assert report.final_stage.num_states > 0
        assert "stage" in report.summary()


class TestCompileOnce:
    """One spanner compiles once, whatever documents it reads."""

    def test_forty_alphabets_one_compile_one_encoding_pass_each(self):
        spanner = Spanner.from_regex(".*ERROR w{[0-9]} .*")
        documents = [
            f"{chr(0x100 + index)} ERROR {index % 10} " + chr(0x4E00 + index)
            for index in range(40)
        ]
        assert len({frozenset(text) for text in documents}) == 40
        for index, text in enumerate(documents):
            passes = encoding.encoding_passes()
            assert spanner.extract(text) == [{"w": str(index % 10)}]
            assert encoding.encoding_passes() == passes + 1
        assert spanner.cache_stats().misses == 1

    def test_explain_without_a_document_describes_the_running_automaton(self):
        spanner = Spanner.from_regex(".*ERROR w{[0-9]} .*")
        document = "q ERROR 4 z"
        spanner.extract(document)
        assert spanner.explain() == spanner.explain(document)
        assert spanner.statistics() == spanner.statistics(document)
        assert spanner.compiled() is spanner.compiled(document)
        assert spanner.cache_stats().misses == 1

    def test_other_symbol_avoids_the_pattern_literals(self):
        spanner = Spanner.from_regex("x{\ufdd0}.*")
        assert spanner.compiled().other.symbol == "\ufdd1"
        for engine in ("reference", "compiled", "compiled-otf"):
            assert spanner.extract("\ufdd0a\ufdd1", engine=engine) == [{"x": "\ufdd0"}]
            assert spanner.extract("\ufdd1", engine=engine) == []

    def test_wildcards_match_any_character(self):
        spanner = Spanner.from_regex("x{.}[^a]")
        for engine in ("reference", "compiled", "compiled-otf"):
            assert spanner.extract("\U0001f600b", engine=engine) == [{"x": "\U0001f600"}]
            assert spanner.extract("ba", engine=engine) == []


class TestPipeline:
    def test_pipeline_from_regex(self):
        pipeline = CompilationPipeline("x{a}b")
        automaton, report = pipeline.compile()
        assert automaton.is_deterministic()
        assert [stage.name for stage in report.stages][0] == "regex→VA"

    def test_pipeline_from_va(self):
        pipeline = CompilationPipeline(figure2_va())
        automaton, _ = pipeline.compile()
        assert automaton.evaluate("a") == figure2_va().evaluate("a")

    def test_pipeline_from_eva(self):
        pipeline = CompilationPipeline(figure3_eva())
        automaton, _ = pipeline.compile()
        assert automaton.evaluate("ab") == figure3_eva().evaluate("ab")

    def test_pipeline_from_expression(self):
        pipeline = CompilationPipeline(Atom("x{a}b") & Atom("y{a}b"))
        automaton, _ = pipeline.compile()
        reference = to_deterministic_sequential_eva(
            figure2_va()
        )  # only used to ensure imports stay exercised
        assert reference.is_deterministic()
        assert automaton.variables() == frozenset({"x", "y"})

    def test_pipeline_rejects_unknown_source(self):
        with pytest.raises(CompilationError):
            CompilationPipeline(object())

    def test_source_needs_alphabet(self):
        assert CompilationPipeline(".*x{a}").source_needs_alphabet()
        assert not CompilationPipeline("x{a}b").source_needs_alphabet()
        assert CompilationPipeline(Atom(".*") & Atom("x{a}")).source_needs_alphabet()

    def test_pipeline_statistics(self):
        stats = CompilationPipeline("x{a}b").statistics()
        assert stats.deterministic
        assert stats.sequential

    def test_report_final_stage_requires_stages(self):
        from repro.spanners.pipeline import CompilationReport

        with pytest.raises(CompilationError):
            CompilationReport().final_stage
