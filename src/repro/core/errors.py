"""Exception hierarchy used across the library.

Every exception raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "CompilationError",
    "EvaluationError",
    "NotDeterministicError",
    "NotFunctionalError",
    "NotSequentialError",
    "ParseError",
    "ReproError",
    "ResourceLimitError",
    "SpanError",
    "StreamingError",
    "TaskDeadlineError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class of all exceptions raised by the library."""


class SpanError(ReproError, ValueError):
    """Raised when a span is malformed or does not fit a document."""


class ParseError(ReproError, ValueError):
    """Raised when a regex formula cannot be parsed."""


class CompilationError(ReproError):
    """Raised when a spanner cannot be compiled into the requested form."""


class EvaluationError(ReproError):
    """Raised when a spanner cannot be evaluated over a document."""


class NotSequentialError(EvaluationError):
    """Raised when an algorithm requires a sequential automaton.

    The constant-delay algorithm of the paper (Section 3.2) requires the
    extended VA to be *sequential*: every accepting run opens and closes
    variables consistently.  Non-sequential automata must first be
    sequentialized (see :mod:`repro.automata.transforms`).
    """


class NotDeterministicError(EvaluationError):
    """Raised when an algorithm requires a deterministic extended VA.

    Determinism guarantees that distinct accepting runs produce distinct
    mappings, which is what makes duplicate-free enumeration possible
    without an explicit deduplication step.
    """


class NotFunctionalError(EvaluationError):
    """Raised when an algorithm requires a functional automaton."""


class ResourceLimitError(EvaluationError):
    """Raised when a document exceeds a configured resource budget.

    The guards (:class:`repro.runtime.resilience.ResourceBudget`, the
    server's per-session arena-cell cap) raise this *before* an
    evaluation can exhaust a worker's memory.  Deterministic: the same
    document trips the same budget on every attempt, so the supervised
    executors never retry it — they quarantine or propagate.
    """


class WorkerCrashError(EvaluationError):
    """Raised when a pool worker died (or its task was lost) for good.

    The supervised executors (:mod:`repro.runtime.resilience`) only
    raise this after the retry budget, the one pool rebuild and — when
    enabled — the inline fallback are all exhausted or disabled; a
    single worker death is normally absorbed by a resubmission.
    """


class TaskDeadlineError(WorkerCrashError):
    """Raised when a pooled task missed its per-task deadline.

    A deadline miss is indistinguishable from a hung or silently dead
    worker (``multiprocessing.Pool`` never fails the task of a worker
    that died mid-run), so this is a :class:`WorkerCrashError` — callers
    treating crashes and hangs alike catch the base class.
    """


class StreamingError(EvaluationError):
    """Raised when a chunk-fed evaluation cannot proceed.

    Covers protocol misuse (feeding a finished stream, a ``str`` chunk
    while a partial UTF-8 sequence is pending), byte streams that end
    inside a multi-byte sequence, and — under ``emit="incremental"`` —
    a character that a wildcard-free pattern does not mention arriving
    *after* mappings have been delivered, which it would retract.
    """
