"""The compilation pipeline from a spanner specification to a deterministic seVA.

The pipeline mirrors Section 4 of the paper: regex formulas compile to VA,
VA convert to extended VA, algebra expressions compile bottom-up with the
operator constructions of Proposition 4.4, and the result is
sequentialized (if needed) and determinized so that the constant-delay
algorithm applies.  Wildcards and negated classes compile over the
source's literals plus the OTHER letter (:class:`OtherLetter`), so no stage
depends on the documents the spanner later reads.  Each stage's size and
wall-clock time are recorded in a :class:`CompilationReport`, which the
benchmarks use to reproduce the paper's translation-cost statements
(Propositions 4.1–4.6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import CompilationError
from repro.automata.analysis import AutomatonStatistics, is_sequential, statistics, trim
from repro.automata.eva import ExtendedVA, OtherLetter
from repro.automata.transforms import (
    determinize,
    relabel_states,
    sequentialize,
    va_to_eva,
)
from repro.automata.va import VariableSetAutomaton
from repro.algebra.compile import compile_expression
from repro.algebra.expressions import SpannerExpression
from repro.regex.ast import RegexNode
from repro.regex.compiler import compile_to_va
from repro.regex.parser import parse_regex

__all__ = ["CompilationPipeline", "CompilationReport", "StageReport"]

SpannerSource = "RegexNode | VariableSetAutomaton | ExtendedVA | SpannerExpression | str"


@dataclass(frozen=True)
class StageReport:
    """Size and timing of one pipeline stage."""

    name: str
    num_states: int
    num_transitions: int
    seconds: float

    @property
    def size(self) -> int:
        """States plus transitions after this stage."""
        return self.num_states + self.num_transitions


@dataclass
class CompilationReport:
    """The full record of one compilation run."""

    stages: list[StageReport] = field(default_factory=list)

    def record(self, name: str, automaton: VariableSetAutomaton | ExtendedVA, seconds: float) -> None:
        """Append a stage entry."""
        self.stages.append(
            StageReport(name, automaton.num_states, automaton.num_transitions, seconds)
        )

    def copy(self) -> "CompilationReport":
        """An independent report continuing from the same stages."""
        return CompilationReport(stages=list(self.stages))

    @property
    def total_seconds(self) -> float:
        """Total compilation time across stages."""
        return sum(stage.seconds for stage in self.stages)

    @property
    def final_stage(self) -> StageReport:
        """The last stage (the deterministic sequential eVA)."""
        if not self.stages:
            raise CompilationError("the pipeline has not produced any stage yet")
        return self.stages[-1]

    def summary(self) -> str:
        """A human-readable multi-line summary (used by the examples)."""
        lines = ["stage                     states  transitions   seconds"]
        for stage in self.stages:
            lines.append(
                f"{stage.name:<24} {stage.num_states:>7} {stage.num_transitions:>12} "
                f"{stage.seconds:>9.4f}"
            )
        return "\n".join(lines)


class CompilationPipeline:
    """Compile any supported spanner specification into a deterministic seVA."""

    def __init__(
        self,
        source: object,
        alphabet: Iterable[str] = (),
        *,
        check_functional_joins: bool = False,
    ) -> None:
        if isinstance(source, str):
            source = parse_regex(source)
        if not isinstance(
            source, (RegexNode, VariableSetAutomaton, ExtendedVA, SpannerExpression)
        ):
            raise CompilationError(f"unsupported spanner source {source!r}")
        self._source = source
        self._base_alphabet = frozenset(alphabet)
        self._check_functional_joins = check_functional_joins
        letters = self._base_alphabet | _source_letters(source)
        if self.source_needs_alphabet():
            self._other: OtherLetter | None = OtherLetter.outside(letters)
        else:  # an eVA source keeps the OTHER letter it was compiled with
            self._other = source.other if isinstance(source, ExtendedVA) else None
        self._letters = self._other.letters if self._other else letters

    @property
    def source(self) -> object:
        """The original spanner specification."""
        return self._source

    @property
    def base_alphabet(self) -> frozenset[str]:
        """The user-supplied alphabet, unioned into every compilation."""
        return self._base_alphabet

    @property
    def other(self) -> OtherLetter | None:
        """The OTHER letter of the source, or ``None`` without wildcards."""
        return self._other

    def source_needs_alphabet(self) -> bool:
        """Whether the source has a wildcard or negated class (reads OTHER)."""
        if isinstance(self._source, RegexNode):
            return self._source.needs_alphabet()
        if isinstance(self._source, SpannerExpression):
            return any(
                isinstance(atom.source, RegexNode) and atom.source.needs_alphabet()
                for atom in self._source.atoms()
            )
        return False

    def compile_sequential(self) -> tuple[ExtendedVA, CompilationReport]:
        """Run the pipeline up to (and including) sequentialization.

        The result is a *sequential but possibly non-deterministic* eVA —
        the input format of the on-the-fly subset runtime and of the
        planner (which inspects it to decide whether determinizing up
        front is affordable).  :meth:`compile` continues from here.
        """
        report = CompilationReport()
        extended, assume_sequential = self._to_extended(report)

        start = time.perf_counter()
        sequential = assume_sequential or is_sequential(extended)
        if not sequential:
            extended = sequentialize(extended)
            report.record("sequentialize", extended, time.perf_counter() - start)
        else:
            extended = trim(extended)
            report.record("trim", extended, time.perf_counter() - start)
        extended.other = self._other  # trim and sequentialize built it afresh
        return extended, report

    def determinize_stage(
        self, extended: ExtendedVA, report: CompilationReport
    ) -> tuple[ExtendedVA, CompilationReport]:
        """Determinize (if needed) and relabel a sequential eVA.

        Appends its stage entry to *report* and returns the deterministic
        seVA.  Callers that cached the :meth:`compile_sequential` output
        (the :class:`~repro.spanners.Spanner` facade does, so one alphabet
        key never runs the front of the pipeline twice) pass a *copy* of
        the sequential report to keep the two records independent.
        """
        start = time.perf_counter()
        if not extended.is_deterministic():
            extended = determinize(extended)
            extended = relabel_states(extended)
            report.record("determinize", extended, time.perf_counter() - start)
        else:
            extended = relabel_states(extended)
            report.record("relabel", extended, time.perf_counter() - start)
        extended.other = self._other
        return extended, report

    def compile(self) -> tuple[ExtendedVA, CompilationReport]:
        """Run the full pipeline and return the deterministic seVA plus a report."""
        extended, report = self.compile_sequential()
        return self.determinize_stage(extended, report)

    def intern(self, extended: ExtendedVA, report: CompilationReport):
        """Intern a pipeline-produced deterministic seVA into dense tables.

        The single place where a :class:`CompiledEVA` is built and its cost
        recorded as an ``"intern"`` stage — both :meth:`compile_runtime`
        and the :class:`~repro.spanners.Spanner` facade funnel through it.
        """
        from repro.runtime.compiled import compile_eva

        start = time.perf_counter()
        compiled = compile_eva(extended, check_determinism=False)
        report.record("intern", extended, time.perf_counter() - start)
        return compiled

    def optimize_expression(self, **options):
        """Run the cost-based expression optimizer for this source.

        Returns the :class:`~repro.algebra.optimizer.OptimizedPlan` whose
        physical tree still needs :meth:`PhysicalOperator.prepare` (the
        :class:`~repro.spanners.Spanner` facade prepares and caches it).
        Non-expression sources are wrapped in an
        :class:`~repro.algebra.expressions.Atom`, so ``repro explain`` can
        render the (trivial) plan of a plain regex or automaton spanner.
        *options* are forwarded to :func:`repro.algebra.optimizer.optimize`
        (``unchecked``, thresholds, ``enable_rewrites``).
        """
        from repro.algebra.expressions import Atom
        from repro.algebra.optimizer import optimize

        source = self._source
        if not isinstance(source, SpannerExpression):
            source = Atom(source)
        return optimize(source, self._letters, **options)

    def compile_runtime(self):
        """Run the pipeline and intern the result into a :class:`CompiledEVA`.

        This is the compile-once entry point of the batch engine: the dense
        integer tables are built a single time here and then reused across
        every document (and pickled once per worker in process mode).  The
        interning cost is recorded as its own pipeline stage.
        """
        extended, report = self.compile()
        return self.intern(extended, report), report

    def _to_extended(self, report: CompilationReport) -> tuple[ExtendedVA, bool]:
        """Produce the initial extended VA and whether it is known sequential."""
        source = self._source
        if isinstance(source, RegexNode):
            start = time.perf_counter()
            automaton = compile_to_va(source, self._letters)
            report.record("regex→VA", automaton, time.perf_counter() - start)
            start = time.perf_counter()
            extended = va_to_eva(automaton)
            report.record("VA→eVA", extended, time.perf_counter() - start)
            return extended, False
        if isinstance(source, VariableSetAutomaton):
            start = time.perf_counter()
            extended = va_to_eva(source)
            report.record("VA→eVA", extended, time.perf_counter() - start)
            return extended, False
        if isinstance(source, ExtendedVA):
            report.record("eVA", source, 0.0)
            return source, False
        if isinstance(source, SpannerExpression):
            start = time.perf_counter()
            extended = compile_expression(
                source, self._letters, check_functional_joins=self._check_functional_joins
            )
            report.record("algebra→eVA", extended, time.perf_counter() - start)
            return extended, False
        raise CompilationError(f"unsupported spanner source {source!r}")

    def statistics(self) -> AutomatonStatistics:
        """Statistics of the compiled deterministic seVA."""
        compiled, _report = self.compile()
        return statistics(compiled, check_properties=True)


def _source_letters(source: object) -> frozenset[str]:
    """The characters *source* mentions: regex literals, automaton alphabets."""
    if isinstance(source, RegexNode):
        return source.literals()
    if isinstance(source, SpannerExpression):
        return frozenset().union(*(_source_letters(atom.source) for atom in source.atoms()))
    return source.alphabet()
