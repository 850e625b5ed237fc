"""On-the-fly subset construction in the compiled runtime.

The paper's Section 4 closes by noting that its translations "can be fed to
Algorithm 1 on-the-fly, thus rarely needing to materialize the entire
deterministic seVA".  The reference implementation of that remark
(:mod:`repro.enumeration.onthefly`) hashes ``frozenset`` subsets of
original states on every phase of every document.  This module is its
compiled counterpart:

* the *possibly non-deterministic* sequential eVA is interned once into
  dense integer tables (states, symbols and marker sets get contiguous
  ids); alphabet symbols with identical letter behaviour across **all**
  base states collapse into one equivalence class, and documents are
  translated into cached class-id buffers exactly like the dense runtime
  (:mod:`repro.runtime.encoding` — one C-level pass per document and
  classing signature, shared with any other engine of the same signature);
* reachable subset-states are interned to integers **on demand** — a
  subset is hashed exactly once, when first discovered, and from then on
  it is just an int;
* discovered subset rows (variable successors and per-class letter
  successors) are cached on the :class:`CompiledSubsetEVA` itself, so they
  are reused across positions *and across every document* evaluated with
  the same instance — the batch engine evaluates a whole collection
  without ever re-deriving a row, and without the up-front (potentially
  exponential) :func:`~repro.automata.transforms.determinize` call.

:func:`evaluate_subset_arena` runs the same arena-building Algorithm 1 loop
as :func:`repro.runtime.engine.evaluate_compiled_arena` over the lazily
determinized automaton — including the quiescent-run fast path: a subset
whose members all lack variable transitions is *silent*, capturing phases
are skipped while every live subset is silent, and a lone silent subset
sprints through byte buffers via a per-subset compiled stop pattern.
:func:`count_subset` is the matching integer Algorithm 3.  Both keep
per-subset slots in dictionaries keyed by subset id, because the state
space grows while evaluating.
"""

from __future__ import annotations

import re

from repro.core.errors import CompilationError
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.runtime.compiled import (
    NO_TARGET,
    classify_columns,
    encode_symbols,
    marker_decode_tables_for,
    store_stop_pattern,
)
from repro.runtime.dag import CompiledResultDag
from repro.runtime.encoding import SymbolClassing
from repro.runtime.kernel import KernelSpec, build_kernel, subset_sprint

__all__ = ["CompiledSubsetEVA", "count_subset", "evaluate_subset_arena"]

#: Sentinel in a lazily filled letter row: "successor not discovered yet".
UNKNOWN = -2


class CompiledSubsetEVA:
    """A lazily determinized, integer-indexed view of a sequential eVA.

    The instance is **stateful**: its subset tables grow monotonically as
    documents are evaluated, which is exactly the point — discovery work is
    paid once per reachable subset, not once per document.  The base
    automaton's interning (states, symbols, marker sets, symbol classes)
    happens eagerly in the constructor and is deterministic, so marker-set
    ids are stable across processes; subset ids are *not* (each process
    discovers subsets in its own order), which is why portable results key
    final states by the subset's member tuple (see
    :meth:`portable_state_key`).
    """

    def __init__(self, automaton: ExtendedVA) -> None:
        if not automaton.has_initial:
            raise CompilationError("cannot compile an automaton without an initial state")
        self.source = automaton

        # --- eager interning of the (non-deterministic) base automaton --- #
        base_initial = automaton.initial
        base_states = (base_initial, *sorted(
            (s for s in automaton.states if s != base_initial), key=repr
        ))
        self.base_state_objects: tuple = base_states
        base_index = {state: i for i, state in enumerate(base_states)}
        self.symbols: tuple[str, ...] = tuple(sorted(automaton.letters()))
        self.symbol_index = {symbol: i for i, symbol in enumerate(self.symbols)}

        marker_sets: list[MarkerSet] = []
        marker_set_index: dict[MarkerSet, int] = {}
        base_variable: list[tuple[tuple[int, int], ...]] = []
        base_letter: list[tuple[tuple[int, ...], ...]] = []
        for state in base_states:
            pairs: list[tuple[int, int]] = []
            for marker_set, target in sorted(
                automaton.variable_transitions_from(state), key=lambda pair: repr(pair)
            ):
                set_id = marker_set_index.get(marker_set)
                if set_id is None:
                    set_id = len(marker_sets)
                    marker_set_index[marker_set] = set_id
                    marker_sets.append(marker_set)
                pairs.append((set_id, base_index[target]))
            base_variable.append(tuple(pairs))
            row: list[list[int]] = [[] for _ in self.symbols]
            for symbol, target in automaton.letter_transitions_from(state):
                row[self.symbol_index[symbol]].append(base_index[target])
            base_letter.append(tuple(tuple(sorted(targets)) for targets in row))
        self.marker_sets: tuple[MarkerSet, ...] = tuple(marker_sets)
        self.marker_set_index = marker_set_index
        self.base_variable = tuple(base_variable)
        self.base_letter = tuple(base_letter)
        self.base_finals = frozenset(base_index[s] for s in automaton.finals)

        # --- symbol equivalence classes over the base letter columns --- #
        # Two symbols share a class iff every base state maps them to the
        # same target set; out-of-alphabet characters read as OTHER's class
        # or, without OTHER, as one trailing empty foreign column.
        columns = (
            tuple(zip(*self.base_letter)) if self.base_letter and self.symbols else ()
        )
        class_of, representatives = classify_columns(columns)
        other = automaton.other
        self.classing = SymbolClassing(self.symbols, class_of, other.symbol if other else None)
        if representatives:
            self.base_letter_by_class = tuple(
                row + ((),) for row in zip(*representatives)
            )
        else:
            self.base_letter_by_class = tuple(((),) for _ in base_states)
        #: states without any extended variable transition, by base id
        self._base_silent = tuple(not row for row in self.base_variable)

        # --- lazily grown subset tables --- #
        #: member tuple (sorted base ids) per subset id
        self.subset_members: list[tuple[int, ...]] = []
        self._subset_index: dict[tuple[int, ...], int] = {}
        #: per-subset (marker_set_id, target_subset_id) rows, None = unknown
        self.subset_variable: list[tuple[tuple[int, int], ...] | None] = []
        #: per-subset per-class successor, UNKNOWN until discovered
        self.subset_letter: list[list[int]] = []
        self.subset_is_final: list[bool] = []
        #: per-subset "all members silent" flag (quiescent fast path)
        self.subset_silent: list[bool] = []
        #: frozensets of base state objects, for ResultDag conversion
        self._state_objects: list[frozenset] = []
        self._marker_decode: tuple[tuple, tuple] | None = None
        self._sprint_patterns: dict[int, re.Pattern] = {}

        self.initial = self.intern_subset((0,))

    # ------------------------------------------------------------------ #
    # Subset interning and lazy row discovery
    # ------------------------------------------------------------------ #

    def intern_subset(self, members: tuple[int, ...]) -> int:
        """The id of the subset-state *members* (a sorted tuple of base ids)."""
        subset_id = self._subset_index.get(members)
        if subset_id is None:
            subset_id = len(self.subset_members)
            self._subset_index[members] = subset_id
            self.subset_members.append(members)
            self.subset_variable.append(None)
            self.subset_letter.append([UNKNOWN] * self.classing.num_ids)
            self.subset_is_final.append(
                any(state in self.base_finals for state in members)
            )
            base_silent = self._base_silent
            self.subset_silent.append(all(base_silent[state] for state in members))
            self._state_objects.append(
                frozenset(self.base_state_objects[state] for state in members)
            )
        return subset_id

    def variable_row(self, subset_id: int) -> tuple[tuple[int, int], ...]:
        """The subset-automaton variable transitions from *subset_id*.

        Discovered on first use: targets of the member states are grouped
        by marker-set id, each group's union interned as a subset.
        """
        row = self.subset_variable[subset_id]
        if row is None:
            grouped: dict[int, set[int]] = {}
            base_variable = self.base_variable
            for state in self.subset_members[subset_id]:
                for set_id, target in base_variable[state]:
                    grouped.setdefault(set_id, set()).add(target)
            row = tuple(
                (set_id, self.intern_subset(tuple(sorted(targets))))
                for set_id, targets in sorted(grouped.items())
            )
            self.subset_variable[subset_id] = row
        return row

    def letter_successor(self, subset_id: int, symbol_class: int) -> int:
        """``δ(subset, class)`` — ``NO_TARGET`` if every member run dies.

        *symbol_class* is an equivalence-class id of :attr:`classing` (the
        foreign class yields ``NO_TARGET``: its base columns are empty).
        """
        row = self.subset_letter[subset_id]
        successor = row[symbol_class]
        if successor == UNKNOWN:
            targets: set[int] = set()
            base_letter = self.base_letter_by_class
            for state in self.subset_members[subset_id]:
                targets.update(base_letter[state][symbol_class])
            successor = (
                self.intern_subset(tuple(sorted(targets))) if targets else NO_TARGET
            )
            row[symbol_class] = successor
        return successor

    def sprint_pattern(self, subset_id: int) -> re.Pattern:
        """A compiled byte-pattern matching every class id leaving *subset_id*.

        Forces discovery of the subset's full letter row on first use, then
        caches the pattern; rows are immutable once discovered, so the
        pattern stays valid for the instance's lifetime.  Only meaningful
        for byte buffers (classings with at most 256 ids).
        """
        pattern = self._sprint_patterns.get(subset_id)
        if pattern is None:
            # The foreign class never self-loops, so the stop set is
            # non-empty.
            pattern = store_stop_pattern(
                self._sprint_patterns,
                subset_id,
                (
                    class_id
                    for class_id in range(self.classing.num_ids)
                    if self.letter_successor(subset_id, class_id) != subset_id
                ),
            )
        return pattern

    def sprint_pattern_multi(self, subset_ids: tuple[int, ...]) -> re.Pattern:
        """The union stop pattern of several live subsets (sorted tuple key).

        Matches every class id on which at least one of *subset_ids* does
        not self-loop — see :meth:`CompiledEVA.sprint_pattern_multi` for
        how the engines use it to skip multi-run quiescent stretches.
        """
        pattern = self._sprint_patterns.get(subset_ids)
        if pattern is None:
            letter_successor = self.letter_successor
            pattern = store_stop_pattern(
                self._sprint_patterns,
                subset_ids,
                (
                    class_id
                    for subset_id in subset_ids
                    for class_id in range(self.classing.num_ids)
                    if letter_successor(subset_id, class_id) != subset_id
                ),
            )
        return pattern

    # ------------------------------------------------------------------ #
    # Introspection and the CompiledResultDag provider protocol
    # ------------------------------------------------------------------ #

    @property
    def num_base_states(self) -> int:
        """The number of states of the underlying non-deterministic eVA."""
        return len(self.base_state_objects)

    @property
    def num_subset_states(self) -> int:
        """The number of subset-states discovered so far."""
        return len(self.subset_members)

    @property
    def num_classes(self) -> int:
        """Distinct symbol equivalence classes (excluding the foreign class)."""
        return self.classing.num_classes

    @property
    def state_objects(self) -> list[frozenset]:
        """Subset-state objects (frozensets of base states), by subset id."""
        return self._state_objects

    @property
    def state_index(self) -> dict[frozenset, int]:
        """Subset-object → id mapping (built on demand; conversion only)."""
        return {subset: i for i, subset in enumerate(self._state_objects)}

    def marker_decode_tables(self) -> tuple[tuple, tuple]:
        """Per-marker-set-id ``(opened, closed)`` variable-name tuples."""
        if self._marker_decode is None:
            self._marker_decode = marker_decode_tables_for(self.marker_sets)
        return self._marker_decode

    def portable_state_key(self, state_id: int) -> tuple[int, ...]:
        """A process-stable key: the subset's member tuple of base ids
        (base interning is deterministic; subset discovery order is not)."""
        return self.subset_members[state_id]

    def resolve_state_key(self, key: tuple[int, ...]) -> int:
        """Re-intern a member tuple received from another process."""
        return self.intern_subset(tuple(key))

    def encode_text(self, text: str) -> list[int]:
        """Translate *text* into symbol ids (``-1`` for foreign characters).

        Introspection only — the engines consume :meth:`encode` (class-id
        buffers, cached per document) instead.
        """
        return encode_symbols(self.symbol_index, text)

    def encode(self, document: object):
        """The cached class-id :class:`~repro.runtime.encoding.EncodedDocument`
        of *document* under this automaton's classing."""
        return self.classing.encode(document)

    def __repr__(self) -> str:
        return (
            f"CompiledSubsetEVA(base_states={self.num_base_states}, "
            f"subsets={self.num_subset_states}, symbols={len(self.symbols)}, "
            f"classes={self.num_classes})"
        )


# Back-compat alias: the subset sprint moved to the kernel module with
# the kernel-spec refactor.
_sprint_subset = subset_sprint

# The two subset-table kernels (dict-keyed slots in discovery order —
# the ``tables="subset"`` spec points).
_subset_arena_kernel = build_kernel(KernelSpec(capture="arena", tables="subset"))
_subset_count_kernel = build_kernel(KernelSpec(capture="count", tables="subset"))


def evaluate_subset_arena(
    subset_eva: CompiledSubsetEVA,
    document: object,
    *,
    fast_path: bool = True,
) -> CompiledResultDag:
    """Algorithm 1 over the lazily determinized automaton, arena output.

    The same loop as :func:`repro.runtime.engine.evaluate_compiled_arena`
    (the ``tables="subset"`` point of the kernel spec in
    :mod:`repro.runtime.kernel`) — cached class-id buffer, skipped
    capturing phases while every live subset is silent, single-run
    sprint — with per-subset ``(start, end)``
    list pairs held in dicts keyed by subset id (the state space grows
    during evaluation, so there is no fixed-size scratch).  The subset
    automaton is deterministic by construction, so the lazy-list append
    discipline holds and every path of the resulting DAG yields a distinct
    mapping.
    """
    encoded = subset_eva.encode(document)
    buf = encoded.buffer
    n = encoded.length
    (
        lists,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
    ) = _subset_arena_kernel(subset_eva, buf, n, fast_path)

    is_final = subset_eva.subset_is_final
    final_entries = [
        (subset_id, start, end)
        for subset_id, (start, end) in lists.items()
        if is_final[subset_id]
    ]
    return CompiledResultDag(
        subset_eva,
        n,
        node_markers,
        node_positions,
        node_starts,
        node_ends,
        cell_nodes,
        cell_nexts,
        final_entries,
    )


def count_subset(
    subset_eva: CompiledSubsetEVA,
    document: object,
    *,
    fast_path: bool = True,
) -> int:
    """Algorithm 3 over the lazily determinized automaton.

    Counts without determinizing up front and without building any DAG;
    the per-subset partial-run counts live in a dict keyed by subset id.
    Row discovery — and the cached document encoding — is shared with (and
    cached for) every other evaluation through the same
    :class:`CompiledSubsetEVA`, and quiescent stretches sprint exactly as
    in :func:`evaluate_subset_arena`.
    """
    encoded = subset_eva.encode(document)
    buf = encoded.buffer
    n = encoded.length
    counts = _subset_count_kernel(subset_eva, buf, n, fast_path)

    is_final = subset_eva.subset_is_final
    return sum(amount for subset_id, amount in counts.items() if is_final[subset_id])
