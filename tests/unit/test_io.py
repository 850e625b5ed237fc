"""Unit tests for repro.io.serialization."""

import json

import pytest

from repro import Spanner
from repro.core.mappings import Mapping
from repro.core.spans import Span
from repro.automata.transforms import to_deterministic_sequential_eva
from repro.io.serialization import (
    SerializationError,
    eva_from_dict,
    eva_to_dict,
    expression_from_dict,
    expression_to_dict,
    load_automaton,
    mapping_to_dict,
    save_automaton,
    va_from_dict,
    va_to_dict,
)
from repro.workloads.spanners import contact_expression, figure2_va, figure3_eva


class TestVaSerialization:
    def test_round_trip_preserves_semantics(self):
        va = figure2_va()
        rebuilt = va_from_dict(va_to_dict(va))
        for document in ["", "a", "aa"]:
            assert rebuilt.evaluate(document) == va.evaluate(document)

    def test_dict_is_json_compatible(self):
        payload = va_to_dict(figure2_va())
        assert json.loads(json.dumps(payload)) == payload

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SerializationError):
            va_from_dict({"kind": "eva", "initial": 0})

    def test_unserializable_states_rejected(self):
        va = figure2_va().rename_states({state: (state,) for state in figure2_va().states})
        with pytest.raises(SerializationError):
            va_to_dict(va)


class TestEvaSerialization:
    def test_round_trip_preserves_semantics(self):
        eva = figure3_eva()
        rebuilt = eva_from_dict(eva_to_dict(eva))
        for document in ["ab", "ba", "aabb"]:
            assert rebuilt.evaluate(document) == eva.evaluate(document)

    def test_round_trip_of_compiled_automaton(self):
        compiled = to_deterministic_sequential_eva(figure2_va())
        rebuilt = eva_from_dict(eva_to_dict(compiled))
        assert rebuilt.is_deterministic()
        assert rebuilt.evaluate("aa") == compiled.evaluate("aa")

    def test_round_trip_keeps_the_other_letter(self):
        compiled = Spanner.from_regex(".*x{a}[^,]*").compiled()
        payload = json.loads(json.dumps(eva_to_dict(compiled)))
        rebuilt = eva_from_dict(payload)
        assert rebuilt.other == compiled.other
        for document in ["zaz", "za,", "\U0001f600a"]:
            assert rebuilt.evaluate(document) == compiled.evaluate(document)
        assert Spanner(rebuilt).extract("zaz") == [{"x": "a"}]

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SerializationError):
            eva_from_dict({"kind": "va", "initial": 0})

    def test_malformed_marker_rejected(self):
        payload = eva_to_dict(figure3_eva())
        payload["variable_transitions"][0][1] = [["x", "sideways"]]
        with pytest.raises(SerializationError):
            eva_from_dict(payload)


class TestFiles:
    def test_save_and_load_eva(self, tmp_path):
        path = tmp_path / "automaton.json"
        save_automaton(figure3_eva(), path)
        loaded = load_automaton(path)
        assert loaded.evaluate("ab") == figure3_eva().evaluate("ab")

    def test_save_and_load_va(self, tmp_path):
        path = tmp_path / "automaton.json"
        save_automaton(figure2_va(), path)
        loaded = load_automaton(path)
        assert loaded.evaluate("a") == figure2_va().evaluate("a")

    def test_save_rejects_other_objects(self, tmp_path):
        with pytest.raises(SerializationError):
            save_automaton("not an automaton", tmp_path / "x.json")

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}', encoding="utf-8")
        with pytest.raises(SerializationError):
            load_automaton(path)


class TestExpressionSerialization:
    def test_regex_atom_round_trip_is_exact(self):
        from repro.algebra.expressions import Atom

        atom = Atom("x{a+}(b|c)*")
        rebuilt = expression_from_dict(expression_to_dict(atom))
        assert rebuilt.source == atom.source

    def test_full_tree_round_trip_preserves_semantics(self):
        from repro.algebra.compile import evaluate_expression_setwise

        expression = contact_expression()
        payload = expression_to_dict(expression)
        rebuilt = expression_from_dict(json.loads(json.dumps(payload)))
        document = "John <j@g.be>"
        assert evaluate_expression_setwise(
            rebuilt, document
        ) == evaluate_expression_setwise(expression, document)

    def test_automaton_atoms_round_trip(self):
        from repro.algebra.expressions import Atom

        for source in (figure2_va(), figure3_eva()):
            rebuilt = expression_from_dict(expression_to_dict(Atom(source)))
            assert set(rebuilt.source.evaluate("ab")) == set(source.evaluate("ab"))

    def test_operator_structure_survives(self):
        from repro.algebra.expressions import Atom, Join, Projection, UnionExpr

        expression = Projection(
            Join(Atom("x{a}"), UnionExpr(Atom("y{b}"), Atom("y{a}"))), ["x", "y"]
        )
        rebuilt = expression_from_dict(expression_to_dict(expression))
        assert isinstance(rebuilt, Projection)
        assert rebuilt.keep == frozenset({"x", "y"})
        assert isinstance(rebuilt.child, Join)
        assert isinstance(rebuilt.child.right, UnionExpr)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(SerializationError):
            expression_from_dict({"kind": "automaton"})
        with pytest.raises(SerializationError):
            expression_from_dict({"kind": "expression", "op": "negate"})
        with pytest.raises(SerializationError):
            expression_to_dict("not an expression")


class TestMappingSerialization:
    def test_spans_only(self):
        mapping = Mapping({"x": Span(0, 4)})
        assert mapping_to_dict(mapping) == {"x": {"begin": 0, "end": 4}}

    def test_with_document_text(self):
        mapping = Mapping({"x": Span(0, 4)})
        assert mapping_to_dict(mapping, "John Doe") == {
            "x": {"begin": 0, "end": 4, "text": "John"}
        }

    def test_empty_mapping(self):
        assert mapping_to_dict(Mapping.EMPTY) == {}
