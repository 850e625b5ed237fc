"""The reusable cross-engine differential-testing harness.

One call — :func:`assert_all_engines_agree` — pins every evaluation route
of the library against each other on one ``(spanner, document)`` pair:

* the facade engines (``reference``, ``compiled``, ``compiled-otf``) plus
  the ``auto`` plan, for both enumeration and counting, the counts under
  both the scalar and the run-length kernel;
* the chunk-fed :class:`~repro.runtime.streaming.StreamingEvaluator`, in
  **both** emit modes, over a seeded adversarial set of chunkings of the
  same document: whole-document, one-character chunks, empty chunks
  interspersed, random seeded splits, and UTF-8 byte streams split
  *inside* multi-byte sequences;
* the shard-parallel engine (:mod:`repro.runtime.sharding`), pinned
  **arena-for-arena** (bit-identical arrays, not just equal mapping
  sets) against the serial arena engine over adversarial shard counts:
  one-character shards, more shards than characters, and seeded counts
  that land boundaries inside quiescent sprint runs and between the
  codepoints of multi-byte text;
* the run-length kernel (:mod:`repro.runtime.runlength`): its count
  must equal the scalar count and its generalized-sprint arena must be
  bit-identical to the scalar arena with the fast path both on and off,
  and the sharded count is re-run with ``kernel="runlength"`` so
  interior-shard summary passes go through the matrix path too.

The streaming evaluator is opened with **no** declared alphabet: a
spanner compiles once, over its literals plus the OTHER letter, so the
comparison is engine-vs-engine on one compiled automaton, and characters
the pattern never mentions (the adversarial corpus plants them at chunk
boundaries) must read as OTHER on every route rather than kill the
stream.

:func:`adversarial_documents` is the seeded document corpus used by the
deterministic streaming tests: multi-byte runs around chunk boundaries,
characters no pattern mentions (an astral emoji, ``\x00``, a combining
mark and the OTHER representative itself), empty documents and single
characters.

Since the kernel-spec refactor every route above executes a loop
generated by :mod:`repro.runtime.kernel` — one :class:`KernelSpec` point
per engine entry — so one harness call doubles as the equivalence gate
over the whole spec lattice: capture modes against each other, dense
tables against the on-the-fly subset tables, whole-buffer against
resumable chunking, and the scalar kernel against the run-length one,
arena-for-arena where the contract is bit-identity.
"""

from __future__ import annotations

import random

from repro import Spanner, StreamingError
from repro.core.documents import as_text
from repro.runtime.engine import count_compiled, evaluate_compiled_arena
from repro.runtime.runlength import count_runlength, evaluate_runlength_arena
from repro.runtime.sharding import count_sharded, evaluate_sharded

__all__ = [
    "FACADE_ENGINES",
    "OTHER_SYMBOL",
    "adversarial_chunkings",
    "adversarial_documents",
    "adversarial_shard_counts",
    "assert_all_engines_agree",
    "assert_arena_identical",
    "facade_results",
]

#: The monolithic engines reachable through the facade's ``engine=`` knob.
FACADE_ENGINES = ("reference", "compiled", "compiled-otf")

#: The character a pattern over ``a``/``b`` represents OTHER by.
OTHER_SYMBOL = "\ufdd0"


def adversarial_chunkings(text: str, seed: int = 0, random_splits: int = 2):
    """Yield ``(label, chunks)`` pairs covering the nasty chunk shapes.

    Every chunking concatenates back to *text*.  ``bytes`` chunkings
    split the UTF-8 encoding at positions chosen to land *inside*
    multi-byte sequences whenever the text has any, so the streaming
    evaluator's incremental decoder is exercised on every call.
    """
    yield "whole", [text]
    yield "single-chars", list(text)
    yield "empty-interspersed", [piece for char in text for piece in ("", char)] + [""]

    rng = random.Random(seed)
    for trial in range(random_splits):
        chunks = []
        begin = 0
        while begin < len(text):
            end = min(len(text), begin + rng.randint(1, max(1, len(text) // 2)))
            chunks.append(text[begin:end])
            begin = end
        yield f"random-{trial}", chunks or [""]

    raw = text.encode("utf-8")
    if len(raw) != len(text):
        # Multi-byte characters present: cut every byte apart, which is
        # guaranteed to split inside each multi-byte sequence.
        yield "bytes-single", [raw[i : i + 1] for i in range(len(raw))]
        cut = rng.randint(1, max(1, len(raw) - 1)) if len(raw) > 1 else 1
        yield "bytes-split", [raw[:cut], raw[cut:]]
    elif raw:
        yield "bytes-whole", [raw]


def adversarial_documents(seed: int = 0) -> list[str]:
    """The seeded corpus of streaming-hostile documents.

    Mixes the two-letter pattern alphabet with characters the patterns
    never mention (an accented letter, ``\x00``, an astral-plane emoji,
    a combining mark and :data:`OTHER_SYMBOL`, the character the OTHER
    letter is represented by) so that wildcard expansion, the OTHER and
    foreign classes and multi-byte chunk splits are all on the table.
    """
    rng = random.Random(seed)
    corpus = [
        "",
        "a",
        "é",
        "ab" * 3,
        "aéb",
        "a\x00b",
        "ab\U0001f600ba",
        "éé" + "ab" * 2 + "é",
        "a\u0301b",
        OTHER_SYMBOL,
        "ab" + OTHER_SYMBOL + "\U0001f600ba",
    ]
    alphabet = "abé\x00\u0301\U0001f600" + OTHER_SYMBOL
    for _ in range(4):
        corpus.append(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        )
    return corpus


def adversarial_shard_counts(length: int, seed: int = 0) -> list[int]:
    """Shard counts that stress every boundary-placement hazard.

    One-character shards put a boundary at *every* position (so inside
    every quiescent sprint run and between every pair of codepoints of a
    multi-byte document); a count above the length exercises the
    degenerate more-shards-than-characters plan; small counts land
    boundaries mid-run; a seeded count adds variety across calls.
    """
    rng = random.Random(seed)
    counts = {1, 2, 3, max(1, length // 2), max(1, length), length + 3}
    counts.add(rng.randint(1, max(1, length + 1)))
    return sorted(counts)


_ARENA_ARRAYS = (
    "node_markers",
    "node_positions",
    "node_starts",
    "node_ends",
    "cell_nodes",
    "cell_nexts",
    "final_entries",
)


def assert_arena_identical(actual, expected, *, context: str = "") -> None:
    """Assert two :class:`CompiledResultDag` arenas are bit-identical.

    Stronger than comparing mapping sets: every array must match element
    for element, which pins node sharing, allocation order and list
    splicing — exactly what shard stitching must reproduce.
    """
    for name in _ARENA_ARRAYS:
        left = list(getattr(actual, name))
        right = list(getattr(expected, name))
        assert left == right, (
            f"arena array {name!r} differs{context}: {left} != {right}"
        )


def _mapping_set(mappings) -> frozenset[str]:
    return frozenset(str(mapping) for mapping in mappings)


def facade_results(spanner: Spanner, text: str) -> dict[str, frozenset[str]]:
    """The mapping set per facade engine (plus the ``auto`` plan)."""
    results = {"auto": _mapping_set(spanner.evaluate(text))}
    for engine in FACADE_ENGINES:
        results[engine] = _mapping_set(spanner.evaluate(text, engine=engine))
    return results


def assert_all_engines_agree(
    spanner_spec,
    document,
    *,
    seed: int = 0,
    streaming: bool = True,
    sharded: bool = True,
    spanner: Spanner | None = None,
) -> frozenset[str]:
    """Assert every engine and every chunking yields one mapping set.

    *spanner_spec* is anything :class:`Spanner` accepts (pattern text,
    regex AST, VA, eVA); pass a prebuilt *spanner* instead to reuse its
    compilation cache across calls.  Returns the agreed mapping set, so
    callers can additionally compare it against an external oracle (the
    reference regex semantics, a baseline enumerator, ...).
    """
    if spanner is None:
        spanner = Spanner(spanner_spec)
    text = as_text(document)

    results = facade_results(spanner, text)
    expected = results["compiled"]
    counts = {
        engine: spanner.count(text, engine=engine) for engine in FACADE_ENGINES
    }
    counts["auto"] = spanner.count(text)
    if spanner.plan().engine != "hybrid":
        for engine in ("compiled", "compiled-otf"):
            for kernel in ("scalar", "runlength"):
                counts[f"{engine}/{kernel}"] = spanner.count(
                    text, engine=engine, kernel=kernel
                )
    for engine, mapping_set in results.items():
        assert mapping_set == expected, (
            f"engine {engine!r} disagrees with 'compiled': "
            f"{sorted(mapping_set) } != {sorted(expected)}"
        )
    for engine, count in counts.items():
        assert count == len(expected), (
            f"count({engine!r}) = {count}, enumeration found {len(expected)}"
        )

    # The run-length kernel is held to the sharding engine's standard:
    # its count must match the scalar Algorithm 3 exactly and its
    # generalized-sprint arena must be bit-identical to the scalar
    # arena — with the fast path both on (runs jumped via the Boolean
    # reachability matrices) and off (every character stepped).
    runtime = spanner.runtime(text)
    serial_arena = evaluate_compiled_arena(runtime, text)
    serial_count = count_compiled(runtime, text)
    assert count_runlength(runtime, text) == serial_count, (
        f"count_runlength = {count_runlength(runtime, text)}, "
        f"scalar count = {serial_count}"
    )
    for fast_path in (True, False):
        runlength_arena = evaluate_runlength_arena(
            runtime, text, fast_path=fast_path
        )
        assert_arena_identical(
            runlength_arena,
            serial_arena,
            context=f" (runlength kernel, fast_path={fast_path})",
        )

    if sharded:
        # The shard-parallel engine is held to a stronger standard than
        # agreement on mapping sets: its stitched arena must be
        # bit-identical to the serial one for every shard count, and the
        # replay-free sharded count must be exact.
        for shards in adversarial_shard_counts(len(text), seed=seed):
            arena = evaluate_sharded(runtime, text, shards=shards)
            assert_arena_identical(
                arena, serial_arena, context=f" (shards={shards})"
            )
            sharded_count = count_sharded(runtime, text, shards=shards)
            assert sharded_count == serial_count, (
                f"count_sharded(shards={shards}) = {sharded_count}, "
                f"serial count = {serial_count}"
            )
            runlength_count = count_sharded(
                runtime, text, shards=shards, kernel="runlength"
            )
            assert runlength_count == serial_count, (
                f"count_sharded(shards={shards}, kernel='runlength') = "
                f"{runlength_count}, serial count = {serial_count}"
            )
            assert _mapping_set(arena) == expected, (
                f"sharded enumeration (shards={shards}) disagrees"
            )

    if not streaming:
        return expected

    # Stream with no declared alphabet: the spanner's one compiled
    # automaton reads unmentioned characters as OTHER.  Only a
    # wildcard-free pattern has no OTHER letter; a character it does not
    # mention kills every run, so the whole-document output is empty —
    # and incremental mode is allowed to raise instead *if* it already
    # delivered mappings it would now have to retract.
    classing = spanner.runtime().classing
    foreign = (
        classing.other_class == classing.foreign_class
        and bool(set(text) - set(classing.symbols))
    )
    for emit in ("on_finish", "incremental"):
        for label, chunks in adversarial_chunkings(text, seed=seed):
            evaluator = spanner.stream(emit=emit)
            fed = []
            try:
                for chunk in chunks:
                    fed.extend(evaluator.feed(chunk))
            except StreamingError:
                assert emit == "incremental", (
                    f"emit='on_finish' must never raise (chunking {label!r})"
                )
                assert foreign and fed and not expected, (
                    f"chunking {label!r} raised without a delivered-then-"
                    "retracted conflict (the only legitimate reason)"
                )
                continue
            result = evaluator.finish()
            got = _mapping_set(result)
            assert got == expected, (
                f"streaming emit={emit!r} chunking={label!r} disagrees: "
                f"{sorted(got)} != {sorted(expected)}"
            )
            assert result.count() == len(expected), (
                f"streaming emit={emit!r} chunking={label!r} count mismatch"
            )
            if emit == "incremental":
                assert _mapping_set(fed) <= expected, (
                    f"chunking {label!r} flushed a mapping outside the output"
                )
    return expected
