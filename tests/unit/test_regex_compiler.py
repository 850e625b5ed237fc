"""Unit tests for the regex → VA compiler (repro.regex.compiler)."""

import pytest

from repro.core.errors import CompilationError
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.regex.compiler import compile_to_va
from repro.regex.semantics import evaluate_regex


def assert_compiles_like_reference(pattern: str, documents, alphabet=None):
    """The compiled VA must agree with the Table 1 reference semantics."""
    automaton = compile_to_va(pattern, alphabet)
    for document in documents:
        assert automaton.evaluate(document) == evaluate_regex(pattern, document), (
            pattern,
            document,
        )


class TestEquivalenceWithReference:
    def test_literals_and_concat(self):
        assert_compiles_like_reference("ab", ["", "a", "ab", "abc", "ba"])

    def test_union(self):
        assert_compiles_like_reference("a|bc", ["a", "bc", "b", "abc", ""])

    def test_star_plus_optional(self):
        assert_compiles_like_reference("a*b+c?", ["b", "ab", "aabbc", "c", ""])

    def test_captures(self):
        assert_compiles_like_reference("a*x{a}a*", ["", "a", "aa", "aaa"])
        assert_compiles_like_reference("x{a+}y{b+}", ["ab", "aabb", "ba", ""])

    def test_nested_captures(self):
        assert_compiles_like_reference(".*x{.*y{.*}.*}.*", ["", "a", "ab"], alphabet="ab")

    def test_optional_capture(self):
        assert_compiles_like_reference("x{a}?b", ["b", "ab", "aab"])

    def test_capture_under_star(self):
        assert_compiles_like_reference("(x{a}b)*", ["", "ab", "abab"])

    def test_char_classes(self):
        assert_compiles_like_reference("[ab]+x{[0-9]}", ["a1", "ab3", "1", ""])

    def test_negated_class(self):
        assert_compiles_like_reference("[^a]+", ["bb", "ab", "a", ""], alphabet="abc")

    def test_wildcard(self):
        assert_compiles_like_reference(".x{.}", ["ab", "a", "abc"], alphabet="abc")

    def test_union_with_different_variables(self):
        assert_compiles_like_reference("x{a}|y{b}", ["a", "b", ""])

    def test_epsilon(self):
        assert_compiles_like_reference("", ["", "a"])


class TestCompilerProperties:
    def test_compiled_automaton_size_is_linear(self):
        # Linear-time translation (Section 4): automaton size grows linearly
        # with the formula.
        small = compile_to_va("x0{a}b")
        large = compile_to_va("".join(f"x{i}{{a}}b" for i in range(10)))
        assert large.num_states <= 12 * small.num_states

    def test_alphabet_required_for_wildcard(self):
        with pytest.raises(CompilationError):
            compile_to_va(".")

    def test_alphabet_required_for_negated_class(self):
        with pytest.raises(CompilationError):
            compile_to_va("[^a]")

    def test_alphabet_inferred_from_literals(self):
        automaton = compile_to_va("ab|cd")
        assert automaton.alphabet() == frozenset("abcd")

    def test_explicit_alphabet_extends_literals(self):
        automaton = compile_to_va("a.", alphabet="abc")
        assert automaton.alphabet() == frozenset("abc")

    def test_invalid_alphabet_member(self):
        with pytest.raises(CompilationError):
            compile_to_va("a", alphabet=["ab"])

    def test_capture_produces_variable(self):
        automaton = compile_to_va("name{a}")
        assert automaton.variables() == frozenset({"name"})

    def test_compiled_automaton_is_trim(self):
        from repro.automata.analysis import coreachable_states, reachable_states

        automaton = compile_to_va("a(b|c)x{d}")
        useful = reachable_states(automaton) & coreachable_states(automaton)
        assert useful == automaton.states

    def test_wildcard_expansion_matches_document_alphabet(self):
        automaton = compile_to_va(".*x{a}.*", alphabet="abz")
        assert automaton.evaluate("zaz") == {Mapping({"x": Span(1, 2)})}
