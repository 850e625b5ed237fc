"""The compiled, integer-indexed representation of a deterministic seVA.

The reference evaluation engine (:mod:`repro.enumeration.evaluate`) walks
hashable-state dictionaries and per-state ``frozenset`` tables for every
character of every document.  For the batch workloads targeted by the
roadmap the automaton is fixed while millions of characters stream through
it, so it pays to *compile* the automaton once:

* states are interned to the contiguous integers ``0 .. num_states - 1``;
* alphabet symbols are interned to ``0 .. num_symbols - 1``;
* letter transitions become one dense row per state (a list indexed by
  symbol id, ``-1`` meaning "no transition");
* extended variable transitions become one flat tuple of
  ``(marker_set_id, target_state_id)`` pairs per state, with the marker
  sets themselves interned into a side table.

The resulting :class:`CompiledEVA` is immutable, cheap to pickle (plain
tuples and lists of ints plus the interned marker sets), and is the input
format of every generated Algorithm-1 inner loop in
:mod:`repro.runtime.kernel` (the engine entry points in
:mod:`repro.runtime.engine` and its siblings bind one kernel each) and of
the multiprocessing batch engine in :mod:`repro.runtime.batch`.
"""

from __future__ import annotations

import re
from typing import Hashable

from repro.core.errors import CompilationError, NotDeterministicError
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.runtime import resilience
from repro.runtime.encoding import SymbolClassing

__all__ = [
    "CompiledEVA",
    "compile_eva",
    "classify_columns",
    "encode_symbols",
    "marker_decode_tables_for",
    "store_stop_pattern",
]

State = Hashable

#: Sentinel target meaning "no transition" in the dense letter table.
NO_TARGET = -1


def marker_decode_tables_for(marker_sets) -> tuple[tuple, tuple]:
    """Per-marker-set-id ``(opened, closed)`` variable-name tuples.

    Shared by every compiled runtime (:class:`CompiledEVA` and the lazy
    :class:`~repro.runtime.subset.CompiledSubsetEVA`), so the arena
    enumerator decodes run steps identically whichever engine produced
    the arena.
    """
    opens = tuple(tuple(sorted(s.opened())) for s in marker_sets)
    closes = tuple(tuple(sorted(s.closed())) for s in marker_sets)
    return opens, closes


def encode_symbols(symbol_index: dict[str, int], text: str) -> list[int]:
    """Translate *text* into symbol ids (``NO_TARGET`` for foreign chars).

    A character outside the compiled alphabet can never be consumed by any
    letter transition, so the engines treat ``-1`` as "every live run dies
    here".

    .. deprecated-in-practice:: the engines no longer call this — they
       consume the cached, C-level class-id buffers of
       :mod:`repro.runtime.encoding` instead.  Kept for introspection and
       backward compatibility; new engines should not call it (see
       CONTRIBUTING).
    """
    get = symbol_index.get
    return [get(character, NO_TARGET) for character in text]


#: Upper bound on cached sprint patterns per runtime — a backstop against
#: pathological automata whose evaluations visit unboundedly many distinct
#: quiescent state sets; past the cap, patterns are compiled per use.
SPRINT_PATTERN_CACHE_CAP = 4096


def store_stop_pattern(cache: dict, key, stop_ids) -> "re.Pattern":
    """Compile the byte-class pattern matching any of *stop_ids*, caching it.

    Shared by every compiled runtime's ``sprint_pattern`` variants: the
    caller enumerates the class ids on which its live state (or state set)
    stops self-looping, and receives a compiled ``bytes`` character-class
    pattern whose ``search`` is the C-level quiescent skip.  The pattern is
    stored in *cache* under *key* unless the cache has reached
    :data:`SPRINT_PATTERN_CACHE_CAP`.
    """
    stops = b"".join(
        re.escape(bytes((class_id,))) for class_id in sorted(set(stop_ids))
    )
    pattern = re.compile(b"[" + stops + b"]")
    if len(cache) < SPRINT_PATTERN_CACHE_CAP:
        cache[key] = pattern
    return pattern


def classify_columns(columns) -> tuple[list[int], list]:
    """Group identical *columns* into equivalence classes.

    Returns ``(class_of, representatives)``: the class id of each column in
    input order, and one representative column per class id.  Used by both
    compiled runtimes to collapse alphabet symbols with identical transition
    behaviour into one character class.
    """
    class_of: list[int] = []
    index: dict = {}
    representatives: list = []
    for column in columns:
        class_id = index.get(column)
        if class_id is None:
            class_id = len(representatives)
            index[column] = class_id
            representatives.append(column)
        class_of.append(class_id)
    return class_of, representatives


class CompiledEVA:
    """An immutable dense-table view of a deterministic sequential eVA.

    Instances are produced by :func:`compile_eva`; all fields are plain
    containers of ints (plus the interned marker-set table), which keeps
    pickling cheap — the batch engine ships one compiled automaton to each
    worker process and never re-derives the tables per document.
    """

    __slots__ = (
        "state_objects",
        "state_index",
        "initial",
        "final_ids",
        "is_final",
        "symbols",
        "symbol_index",
        "letter_table",
        "marker_sets",
        "marker_set_index",
        "variable_table",
        "source",
        "classing",
        "class_table",
        "silent",
        "_marker_decode",
        "_sprint_patterns",
        "_runlength",
    )

    def __init__(
        self,
        *,
        state_objects: tuple[State, ...],
        initial: int,
        final_ids: tuple[int, ...],
        symbols: tuple[str, ...],
        letter_table: tuple[tuple[int, ...], ...],
        marker_sets: tuple[MarkerSet, ...],
        variable_table: tuple[tuple[tuple[int, int], ...], ...],
        source: ExtendedVA,
    ) -> None:
        self.state_objects = state_objects
        self.state_index = {state: index for index, state in enumerate(state_objects)}
        self.initial = initial
        self.final_ids = final_ids
        finals = set(final_ids)
        self.is_final = tuple(index in finals for index in range(len(state_objects)))
        self.symbols = symbols
        self.symbol_index = {symbol: index for index, symbol in enumerate(symbols)}
        self.letter_table = letter_table
        self.marker_sets = marker_sets
        self.marker_set_index = {
            marker_set: index for index, marker_set in enumerate(marker_sets)
        }
        self.variable_table = variable_table
        self.source = source
        self._marker_decode: tuple[tuple, tuple] | None = None

        # Derived (never pickled): symbol equivalence classes, the
        # class-indexed dense rows with a trailing all-dead foreign column,
        # the per-state "no variable transition" flags driving the
        # quiescent-run fast path, and the lazily built sprint patterns.
        columns = tuple(zip(*letter_table)) if letter_table and symbols else ()
        class_of, representatives = classify_columns(columns)
        other = source.other
        self.classing = SymbolClassing(symbols, class_of, other.symbol if other else None)
        if representatives:
            self.class_table = tuple(
                row + (NO_TARGET,) for row in zip(*representatives)
            )
        else:
            self.class_table = tuple((NO_TARGET,) for _ in state_objects)
        self.silent = tuple(not row for row in variable_table)
        self._sprint_patterns: dict[int, re.Pattern] = {}
        # The run-length kernel (repro.runtime.runlength) caches its
        # per-class matrices here; like the sprint patterns it is derived
        # and never pickled (__setstate__ re-runs __init__).
        self._runlength = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_states(self) -> int:
        """The number of interned states."""
        return len(self.state_objects)

    @property
    def num_symbols(self) -> int:
        """The number of interned alphabet symbols."""
        return len(self.symbols)

    @property
    def num_marker_sets(self) -> int:
        """The number of distinct interned marker sets."""
        return len(self.marker_sets)

    @property
    def num_classes(self) -> int:
        """Distinct symbol equivalence classes (excluding the foreign class)."""
        return self.classing.num_classes

    def sprint_pattern(self, state: int) -> re.Pattern:
        """A compiled byte-pattern matching every class id that *leaves* *state*.

        The quiescent-run fast path uses it to skip, at C speed, over the
        (usually long) stretches of a ``bytes`` class buffer on which
        *state* only self-loops: ``pattern.search(buffer, pos)`` finds the
        next position whose class either moves to another state or kills
        the run (the foreign column guarantees the stop set is never
        empty).  Only meaningful for byte buffers, i.e. classings with at
        most 256 ids.
        """
        pattern = self._sprint_patterns.get(state)
        if pattern is None:
            row = self.class_table[state]
            pattern = store_stop_pattern(
                self._sprint_patterns,
                state,
                (
                    class_id
                    for class_id, target in enumerate(row)
                    if target != state
                ),
            )
        return pattern

    def sprint_pattern_multi(self, states: tuple[int, ...]) -> re.Pattern:
        """The union stop pattern of several live states.

        Matches every class id on which at least one of *states* does not
        self-loop: positions before the next match are guaranteed to leave
        the whole active set (and its parked lists) untouched, so the
        engines skip them in one C-level scan even when more than one
        silent run is live — the steady state of sparse-match scanning,
        where a finished-match run and the scanning run coexist to the end
        of the document.  *states* must be a sorted tuple (the cache key).
        """
        pattern = self._sprint_patterns.get(states)
        if pattern is None:
            class_table = self.class_table
            pattern = store_stop_pattern(
                self._sprint_patterns,
                states,
                (
                    class_id
                    for state in states
                    for class_id, target in enumerate(class_table[state])
                    if target != state
                ),
            )
        return pattern

    def marker_decode_tables(self) -> tuple[tuple, tuple]:
        """Per-marker-set-id ``(opened, closed)`` variable-name tuples.

        Precomputed once so the arena enumerator decodes each run step with
        two tuple iterations instead of walking :class:`MarkerSet` objects.
        """
        if self._marker_decode is None:
            self._marker_decode = marker_decode_tables_for(self.marker_sets)
        return self._marker_decode

    def portable_state_key(self, state_id: int) -> int:
        """A process-stable key for *state_id* (the id itself: compilation
        is deterministic, so every process interns states identically)."""
        return state_id

    def resolve_state_key(self, key: int) -> int:
        """Inverse of :meth:`portable_state_key`."""
        return key

    def encode_text(self, text: str) -> list[int]:
        """Translate *text* into a list of symbol ids (``-1`` for foreign chars).

        Introspection only — the engines consume :meth:`encode` (class-id
        buffers, cached per document) instead.
        """
        return encode_symbols(self.symbol_index, text)

    def encode(self, document: object):
        """The cached class-id :class:`~repro.runtime.encoding.EncodedDocument`
        of *document* under this automaton's classing."""
        if resilience._ACTIVE_PLAN is not None:
            resilience.maybe_fault("encode")
        return self.classing.encode(document)

    # ------------------------------------------------------------------ #
    # Pickling: the derived index dicts are rebuilt on load so that only
    # the flat tables travel between processes.
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        return {
            "state_objects": self.state_objects,
            "initial": self.initial,
            "final_ids": self.final_ids,
            "symbols": self.symbols,
            "letter_table": self.letter_table,
            "marker_sets": self.marker_sets,
            "variable_table": self.variable_table,
            "source": self.source,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def __repr__(self) -> str:
        return (
            f"CompiledEVA(states={self.num_states}, symbols={self.num_symbols}, "
            f"classes={self.num_classes}, marker_sets={self.num_marker_sets})"
        )


def _ordered_states(automaton: ExtendedVA) -> tuple[State, ...]:
    """A deterministic state order with the initial state first."""
    initial = automaton.initial
    rest = sorted((s for s in automaton.states if s != initial), key=repr)
    return (initial, *rest)


def compile_eva(automaton: ExtendedVA, *, check_determinism: bool = True) -> CompiledEVA:
    """Intern *automaton* into a :class:`CompiledEVA`.

    The automaton must be deterministic (the dense letter rows hold a
    single target per symbol).  Sequentiality is not checked here — the
    same caveat as for the reference engine applies.  When the automaton
    has an OTHER letter, every one of its letters is interned (even one no
    transition reads, such as the ``,`` of ``[^,]``) and unmentioned
    characters read as the OTHER symbol.
    """
    if not automaton.has_initial:
        raise CompilationError("cannot compile an automaton without an initial state")
    if check_determinism and not automaton.is_deterministic():
        raise NotDeterministicError(
            "the compiled runtime requires a deterministic extended VA"
        )

    state_objects = _ordered_states(automaton)
    state_index = {state: index for index, state in enumerate(state_objects)}
    symbols = tuple(sorted(automaton.letters()))
    symbol_index = {symbol: index for index, symbol in enumerate(symbols)}

    letter_rows: list[tuple[int, ...]] = []
    for state in state_objects:
        row = [NO_TARGET] * len(symbols)
        for symbol, target in automaton.letter_transitions_from(state):
            column = symbol_index[symbol]
            if row[column] != NO_TARGET:
                raise NotDeterministicError(
                    f"state {state!r} has two letter transitions on {symbol!r}"
                )
            row[column] = state_index[target]
        letter_rows.append(tuple(row))

    marker_sets: list[MarkerSet] = []
    marker_set_index: dict[MarkerSet, int] = {}
    variable_rows: list[tuple[tuple[int, int], ...]] = []
    for state in state_objects:
        pairs: list[tuple[int, int]] = []
        for marker_set, target in automaton.variable_transitions_from(state):
            set_id = marker_set_index.get(marker_set)
            if set_id is None:
                set_id = len(marker_sets)
                marker_set_index[marker_set] = set_id
                marker_sets.append(marker_set)
            pairs.append((set_id, state_index[target]))
        variable_rows.append(tuple(pairs))

    final_ids = tuple(sorted(state_index[state] for state in automaton.finals))

    return CompiledEVA(
        state_objects=state_objects,
        initial=state_index[automaton.initial],
        final_ids=final_ids,
        symbols=symbols,
        letter_table=tuple(letter_rows),
        marker_sets=tuple(marker_sets),
        variable_table=tuple(variable_rows),
        source=automaton,
    )
