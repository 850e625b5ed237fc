"""Compilation of regex formulas into variable-set automata.

The construction is a Thompson-style translation extended with capture
markers: a capture ``x{γ}`` compiles into an ``x⊢`` transition, the
automaton for ``γ``, and a ``⊣x`` transition.  ε-transitions introduced by
the glue of unions and stars are eliminated at the end, so the result is a
plain :class:`~repro.automata.va.VariableSetAutomaton` (the paper's model,
which has no ε-transitions).

Wildcards and negated character classes expand over an explicit alphabet —
see :func:`compile_to_va`.  The spanner pipeline passes the formula's
literals plus one extra letter, OTHER
(:class:`~repro.automata.eva.OtherLetter`), which stands for every
character the formula does not mention.  A formula therefore compiles
once, whatever documents it later reads: this is the one-letter
case of symbolic automata (D'Antoni & Veanes, "The Power of Symbolic
Automata and Transducers", CAV 2017), and since OTHER is an ordinary
letter the paper's finite-alphabet constructions apply unchanged.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import CompilationError
from repro.automata.analysis import trim
from repro.automata.markers import Marker, close, open_
from repro.automata.va import VariableSetAutomaton
from repro.regex.ast import (
    AnyChar,
    Capture,
    CharClass,
    Concat,
    Epsilon,
    Literal,
    Optional,
    Plus,
    RegexNode,
    Star,
    Union,
)
from repro.regex.parser import parse_regex

__all__ = ["compile_to_va"]

_EPSILON = None


class _Compiler:
    """Stateful Thompson construction over integer states."""

    def __init__(self, alphabet: frozenset[str]) -> None:
        self._alphabet = alphabet
        self._next_state = 0
        # (source, label, target); label is a char, a Marker, or None for ε.
        self._transitions: list[tuple[int, object, int]] = []

    def fresh_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def add(self, source: int, label: object, target: int) -> None:
        self._transitions.append((source, label, target))

    # ------------------------------------------------------------------ #

    def compile(self, node: RegexNode) -> tuple[int, int]:
        """Compile *node* into a fragment and return its (start, end) states."""
        if isinstance(node, Epsilon):
            start, end = self.fresh_state(), self.fresh_state()
            self.add(start, _EPSILON, end)
            return start, end
        if isinstance(node, Literal):
            return self._character_fragment([node.symbol])
        if isinstance(node, AnyChar):
            return self._character_fragment(sorted(self._alphabet))
        if isinstance(node, CharClass):
            characters = node.expand(self._alphabet) if node.negated else node.characters
            return self._character_fragment(sorted(characters))
        if isinstance(node, Capture):
            start, end = self.fresh_state(), self.fresh_state()
            inner_start, inner_end = self.compile(node.inner)
            self.add(start, open_(node.variable), inner_start)
            self.add(inner_end, close(node.variable), end)
            return start, end
        if isinstance(node, Concat):
            start, end = self.compile(node.parts[0])
            for part in node.parts[1:]:
                next_start, next_end = self.compile(part)
                self.add(end, _EPSILON, next_start)
                end = next_end
            return start, end
        if isinstance(node, Union):
            start, end = self.fresh_state(), self.fresh_state()
            for part in node.parts:
                inner_start, inner_end = self.compile(part)
                self.add(start, _EPSILON, inner_start)
                self.add(inner_end, _EPSILON, end)
            return start, end
        if isinstance(node, Star):
            start, end = self.fresh_state(), self.fresh_state()
            inner_start, inner_end = self.compile(node.inner)
            self.add(start, _EPSILON, end)
            self.add(start, _EPSILON, inner_start)
            self.add(inner_end, _EPSILON, inner_start)
            self.add(inner_end, _EPSILON, end)
            return start, end
        if isinstance(node, Plus):
            start, end = self.compile(node.inner)
            self.add(end, _EPSILON, start)
            return start, end
        if isinstance(node, Optional):
            start, end = self.fresh_state(), self.fresh_state()
            inner_start, inner_end = self.compile(node.inner)
            self.add(start, _EPSILON, end)
            self.add(start, _EPSILON, inner_start)
            self.add(inner_end, _EPSILON, end)
            return start, end
        raise TypeError(f"unknown regex node {node!r}")

    def _character_fragment(self, characters: Iterable[str]) -> tuple[int, int]:
        characters = list(characters)
        if not characters:
            # An unsatisfiable atom (e.g. a negated class covering the whole
            # alphabet); represented by a fragment with no transition.
            return self.fresh_state(), self.fresh_state()
        start, end = self.fresh_state(), self.fresh_state()
        for character in characters:
            self.add(start, character, end)
        return start, end

    # ------------------------------------------------------------------ #

    def to_va(self, start: int, end: int) -> VariableSetAutomaton:
        """Eliminate ε-transitions and build the final VA."""
        epsilon_successors: dict[int, set[int]] = {}
        concrete: dict[int, list[tuple[object, int]]] = {}
        for source, label, target in self._transitions:
            if label is _EPSILON:
                epsilon_successors.setdefault(source, set()).add(target)
            else:
                concrete.setdefault(source, []).append((label, target))

        def closure(state: int) -> set[int]:
            reached = {state}
            frontier = [state]
            while frontier:
                current = frontier.pop()
                for successor in epsilon_successors.get(current, ()):
                    if successor not in reached:
                        reached.add(successor)
                        frontier.append(successor)
            return reached

        closures = {state: closure(state) for state in range(self._next_state)}

        automaton = VariableSetAutomaton()
        automaton.set_initial(start)
        for state in range(self._next_state):
            if end in closures[state]:
                automaton.add_final(state)
        for state in range(self._next_state):
            for member in closures[state]:
                for label, target in concrete.get(member, ()):
                    if isinstance(label, Marker):
                        automaton.add_variable_transition(state, label, target)
                    else:
                        automaton.add_letter_transition(state, label, target)
        return trim(automaton)


def compile_to_va(
    pattern: str | RegexNode, alphabet: Iterable[str] | None = None
) -> VariableSetAutomaton:
    """Compile a regex formula into an equivalent variable-set automaton.

    Parameters
    ----------
    pattern:
        Either the concrete syntax (see :mod:`repro.regex.parser`) or an
        already-built AST node.
    alphabet:
        The alphabet over which wildcards (``.``) and negated character
        classes expand.  May be omitted when the formula does not contain
        such constructs, in which case the formula's own literals are used.

    The translation is linear in the size of the formula, as stated in the
    paper (Section 4, "regex formulas can be translated into VA in linear
    time") — up to the alphabet factor introduced by wildcard expansion.
    """
    node = parse_regex(pattern)
    if alphabet is None:
        if node.needs_alphabet():
            raise CompilationError(
                "the formula contains a wildcard or negated class; "
                "pass the alphabet it should range over"
            )
        alphabet_set = frozenset(node.literals())
    else:
        alphabet_set = frozenset(alphabet) | frozenset(node.literals())
    for character in alphabet_set:
        if not isinstance(character, str) or len(character) != 1:
            raise CompilationError(f"alphabet members must be single characters, got {character!r}")
    compiler = _Compiler(alphabet_set)
    start, end = compiler.compile(node)
    return compiler.to_va(start, end)
