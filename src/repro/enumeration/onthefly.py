"""On-the-fly determinization during evaluation (Section 4, closing remark).

The paper notes that the translations of Section 4 "can be fed to
Algorithm 1 on-the-fly, thus rarely needing to materialize the entire
deterministic seVA".  This module implements that idea: the input is a
*sequential but possibly non-deterministic* extended VA, and the evaluator
runs Algorithm 1 over the subset-construction automaton whose states are
built lazily, only for the subsets actually reached while reading the
document.

Compared with determinizing up front (:func:`repro.automata.transforms.determinize`):

* no exponential preprocessing of the automaton — only subsets reachable on
  *this* document are ever created, and they are cached across positions;
* the result is the same :class:`~repro.enumeration.evaluate.ResultDag`, so
  enumeration and counting work unchanged, and duplicate-freeness still
  follows from the (virtual) determinism of the subset automaton.

The trade-off is a higher per-position constant (subset hashing) and no
reuse of the determinization across documents.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.errors import NotSequentialError
from repro.automata.eva import ExtendedVA
from repro.automata.markers import MarkerSet
from repro.enumeration.dag import BOTTOM, DagNode
from repro.enumeration.evaluate import ResultDag
from repro.enumeration.lazylist import LazyList

__all__ = ["evaluate_on_the_fly"]

State = Hashable
Subset = frozenset


def evaluate_on_the_fly(
    automaton: ExtendedVA,
    document: object,
    *,
    check_sequentiality: bool = False,
) -> ResultDag:
    """Run Algorithm 1 on the lazily determinized subset automaton.

    The input automaton may be non-deterministic; it must be *sequential*
    (as required by the constant-delay algorithm), which can optionally be
    verified with *check_sequentiality*.
    """
    if not automaton.has_initial:
        raise NotSequentialError("the automaton has no initial state")
    if check_sequentiality and not automaton.is_sequential():
        raise NotSequentialError("on-the-fly evaluation requires a sequential extended VA")

    text = automaton.read(document)
    n = len(text)

    # Per-state transition tables of the underlying automaton.
    variable_transitions: dict[State, list[tuple[MarkerSet, State]]] = {}
    letter_transitions: dict[State, dict[str, set[State]]] = {}
    for state in automaton.states:
        outgoing = list(automaton.variable_transitions_from(state))
        if outgoing:
            variable_transitions[state] = outgoing
        for symbol, target in automaton.letter_transitions_from(state):
            letter_transitions.setdefault(state, {}).setdefault(symbol, set()).add(target)

    # Caches of the subset-automaton transitions discovered so far.
    subset_variable_cache: dict[Subset, list[tuple[MarkerSet, Subset]]] = {}
    subset_letter_cache: dict[tuple[Subset, str], Subset] = {}

    def subset_variable_successors(subset: Subset) -> list[tuple[MarkerSet, Subset]]:
        cached = subset_variable_cache.get(subset)
        if cached is not None:
            return cached
        grouped: dict[MarkerSet, set[State]] = {}
        for state in subset:
            for marker_set, target in variable_transitions.get(state, ()):
                grouped.setdefault(marker_set, set()).add(target)
        successors = [(marker_set, frozenset(targets)) for marker_set, targets in grouped.items()]
        subset_variable_cache[subset] = successors
        return successors

    def subset_letter_successor(subset: Subset, symbol: str) -> Subset | None:
        key = (subset, symbol)
        if key in subset_letter_cache:
            return subset_letter_cache[key]
        targets: set[State] = set()
        for state in subset:
            targets.update(letter_transitions.get(state, {}).get(symbol, ()))
        successor = frozenset(targets) if targets else None
        subset_letter_cache[key] = successor
        return successor

    initial_subset: Subset = frozenset({automaton.initial})
    initial_list = LazyList()
    initial_list.add(BOTTOM)
    lists: dict[Subset, LazyList] = {initial_subset: initial_list}

    def capturing(position: int) -> None:
        snapshot = [(subset, lazy_list.lazycopy()) for subset, lazy_list in lists.items()]
        for subset, old_list in snapshot:
            for marker_set, successor in subset_variable_successors(subset):
                node = DagNode(marker_set, position, old_list)
                target_list = lists.get(successor)
                if target_list is None:
                    target_list = LazyList()
                    lists[successor] = target_list
                target_list.add(node)

    def reading(position: int) -> None:
        nonlocal lists
        symbol = text[position]
        old_lists = lists
        lists = {}
        for subset, old_list in old_lists.items():
            successor = subset_letter_successor(subset, symbol)
            if successor is None:
                continue
            target_list = lists.get(successor)
            if target_list is None:
                target_list = LazyList()
                lists[successor] = target_list
            target_list.append(old_list)

    for position in range(n):
        capturing(position)
        reading(position)
    capturing(n)

    finals = automaton.finals
    final_lists = {
        subset: lazy_list
        for subset, lazy_list in lists.items()
        if (subset & finals) and not lazy_list.is_empty()
    }

    # The ResultDag's automaton is only used for introspection; expose the
    # original (non-determinized) automaton to the caller.
    return ResultDag(automaton, n, final_lists)
