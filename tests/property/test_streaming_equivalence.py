"""Property tests: chunk-fed evaluation is exactly whole-document evaluation.

Everything routes through the shared differential harness
(:mod:`harness`): for every spanner and document drawn, every facade
engine and the streaming evaluator — both emit modes, every adversarial
chunking, including one-character chunks and UTF-8 byte streams split
inside multi-byte sequences — must produce one and the same mapping set.

The deterministic tests add the seeded adversarial corpus (foreign
characters at chunk boundaries, empty documents, astral-plane symbols)
and the ``tailing-logs`` bounded-buffering guarantee: under
``emit="incremental"`` the peak buffered arena stays strictly below the
whole-document arena.
"""

from hypothesis import given, settings, strategies as st

from harness import OTHER_SYMBOL, adversarial_documents, assert_all_engines_agree

from repro import Spanner
from repro.algebra.compile import evaluate_expression_setwise
from repro.algebra.expressions import Atom
from repro.automata.builders import VABuilder
from repro.regex.ast import (
    AnyChar,
    Capture,
    CharClass,
    Concat,
    Epsilon,
    Literal,
    Optional,
    Plus,
    Star,
    Union,
)
from repro.regex.semantics import evaluate_regex
from repro.runtime.engine import evaluate_compiled_arena
from repro.workloads.collections import chunked_document, scenario

#: Documents deliberately range beyond the pattern alphabet ``ab``: the
#: extra characters are unmentioned by every pattern and exercise the OTHER
#: letter plus multi-byte chunk splits.
DOCUMENT_ALPHABET = "abé\x00\u0301\U0001f600" + OTHER_SYMBOL


def regex_nodes():
    """A strategy generating small regex-formula ASTs."""
    leaves = st.sampled_from(
        [Epsilon(), AnyChar(), Literal("a"), Literal("b"), CharClass("b", negated=True)]
    )

    def extend(children):
        variable = st.sampled_from(["x", "y"])
        return st.one_of(
            st.builds(lambda a, b: Concat([a, b]), children, children),
            st.builds(lambda a, b: Union([a, b]), children, children),
            st.builds(Star, children),
            st.builds(Plus, children),
            st.builds(Optional, children),
            st.builds(Capture, variable, children),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@settings(max_examples=30, deadline=None)
@given(
    node=regex_nodes(),
    document=st.text(alphabet=DOCUMENT_ALPHABET, min_size=0, max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_streaming_agrees_with_every_engine_on_every_chunking(node, document, seed):
    agreed = assert_all_engines_agree(node, document, seed=seed)
    # Anchor the agreement against the paper's reference regex semantics,
    # so a bug shared by every engine cannot hide behind consensus.
    assert agreed == {str(m) for m in evaluate_regex(node, document)}


def test_adversarial_corpus_all_patterns_all_chunkings():
    patterns = [
        ".*x{a+}.*",
        "x{.*}",
        ".*x{a}b?y{.?}.*",
        "(a|b)*x{ab}(a|b)*",
        "[^b]*x{[^a]+}.*",
        # 'b' occurs only in a negated class: no transition reads it, yet
        # it must not read as OTHER.
        "x{[^b]*}",
    ]
    for pattern in patterns:
        spanner = Spanner.from_regex(pattern)
        for index, document in enumerate(adversarial_documents(seed=7)):
            agreed = assert_all_engines_agree(
                pattern, document, seed=index, spanner=spanner
            )
            assert agreed == {str(m) for m in evaluate_regex(pattern, document)}, (
                pattern,
                document,
            )


def test_corpus_plants_the_other_representative():
    other = Spanner.from_regex(".*x{a+}.*").compiled().other
    assert other.symbol == OTHER_SYMBOL
    assert any(OTHER_SYMBOL in document for document in adversarial_documents(seed=7))


def test_join_of_wildcard_atom_with_explicit_va_atom():
    # (a|b)* x{a} (a|b)* as a hand-built VA: it reads only a and b, so
    # the join dies on every other character while the wildcard atom
    # reads it as OTHER.
    va = (
        VABuilder()
        .initial(0)
        .final(3)
        .letter(0, "ab", 0)
        .open(0, "x", 1)
        .letter(1, "a", 2)
        .close(2, "x", 3)
        .letter(3, "ab", 3)
        .build()
    )
    expression = Atom(".*x{a}.*") & Atom(va)
    spanner = Spanner.from_expression(expression)
    for index, document in enumerate(adversarial_documents(seed=7) + ["abab", "ba"]):
        agreed = assert_all_engines_agree(
            expression, document, seed=index, spanner=spanner
        )
        oracle = evaluate_expression_setwise(expression, document)
        assert agreed == {str(m) for m in oracle}, document


def test_tailing_logs_incremental_buffer_strictly_below_full_arena():
    """The bounded-buffering acceptance criterion, on the real scenario."""
    workload = scenario("tailing-logs", num_documents=2, scale=2500, seed=11)
    spanner = Spanner.from_regex(workload.pattern)
    for document in workload.collection:
        runtime = spanner.runtime(document)
        full = evaluate_compiled_arena(runtime, document)
        expected = {str(m) for m in full}
        assert expected, "the scenario must actually produce matches"

        evaluator = spanner.stream(alphabet=document.alphabet(), emit="incremental")
        settled = []
        for chunk in chunked_document(document, 2048):
            settled.extend(evaluator.feed(chunk))
        result = evaluator.finish()

        assert {str(m) for m in result} == expected
        # Matches settle while the stream is still running, ...
        assert settled, "no mapping settled before EOF"
        # ... and the buffered arena never grows to the whole-document one.
        assert evaluator.peak_arena_cells < len(full.cell_nodes), (
            f"peak {evaluator.peak_arena_cells} cells is not below the "
            f"whole-document arena ({len(full.cell_nodes)} cells)"
        )


def test_single_char_chunks_preserve_sprint_resume_on_tailing_logs():
    """Chunk boundaries inside quiescent runs (sprint interrupted per char)."""
    workload = scenario("tailing-logs", num_documents=1, scale=120, seed=3)
    document = next(iter(workload.collection))
    spanner = Spanner.from_regex(workload.pattern)
    expected = {str(m) for m in spanner.evaluate(document)}

    evaluator = spanner.stream(alphabet=document.alphabet(), emit="on_finish")
    for char in document.text:
        evaluator.feed(char)
    assert {str(m) for m in evaluator.finish()} == expected
