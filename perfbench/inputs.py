"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of ``(seed, index)``: document ``i`` of a
workload is rebuilt from a :class:`random.Random` seeded with the workload
name, the run seed and ``i``, so the same seed always yields byte-identical
documents however many of them a run ends up consuming.  Nothing here
imports ``repro`` — the program under test only ever sees the generated
``str`` objects.

Document *sizes* follow a fixed low-discrepancy sequence that does not
depend on the seed; only the content does.  That keeps the amount of work
per run the same across seeds, so run-to-run spread measures the program
and the machine, not the luck of the size draw.
"""

from __future__ import annotations

import hashlib
import math
import random
import string
from collections.abc import Iterator

__all__ = [
    "CONTACT_ALPHABET",
    "CONTACT_PATTERN",
    "CONTACT_RECORDS",
    "LOG_ALPHABET",
    "LOG_PATTERN",
    "NAME_POOL",
    "NESTED_LENGTH",
    "NESTED_PATTERN",
    "contact_document",
    "documents",
    "log_document",
    "nested_document",
    "tail_document",
    "warmup_document",
]

#: Sparse ERROR lines, one mapping per ``ERROR worker-<digit> `` occurrence.
LOG_PATTERN = r".*ERROR worker-w{[0-9]} .*"
#: The paper's Example 2.1 contact spanner (names with an email or phone).
CONTACT_PATTERN = (
    r"(.*, )?"
    r"name{[A-Za-z]+} "
    r"<(email{[a-z]+@[a-z.]+}|phone{[0-9]+-[0-9]+})>"
    r"(, .*)?"
)
#: Depth-2 nested captures: a document of length n has C(n+4, 4) outputs.
NESTED_PATTERN = ".*x1{.*x2{.*}.*}.*"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# --------------------------------------------------------------------------- #
# Server logs (logs-extract, serve-tail)
# --------------------------------------------------------------------------- #

_LOG_MESSAGES = (
    "request served", "cache miss", "timeout after 30s", "connection reset",
    "retrying upstream", "disk nearly full", "user login", "user logout",
)
_LOG_LEVELS = ("INFO", "WARN")

#: Every character a generated log line can carry (ASCII only).  Each log
#: document contains exactly this set, plus the characters of at most one
#: non-ASCII user name, so the base documents share one alphabet.
LOG_ALPHABET = frozenset(
    "".join(_LOG_MESSAGES) + "".join(_LOG_LEVELS) + "ERROR"
    + "worker-" + string.digits + " :\n"
)

#: Non-ASCII user names.  The pool is larger than the facade's default
#: 8-entry per-alphabet cache, and documents cycle through a seeded
#: permutation of it, so every name document brings an alphabet that was
#: evicted (or never seen) and forces a recompile.
NAME_POOL = (
    "Zoë", "Jürgen", "Łukasz", "Søren", "Núñez", "Ólafur", "Çelik", "Dvořák",
    "Šimon", "Øystein", "Björk", "Renée", "François", "José", "Małgorzata",
    "Ángel", "Grégoire", "Håkon", "Zdeněk", "Jiří", "Ştefan", "Đorđe", "Ærin",
    "Tomáš", "Gökhan", "Müller", "Ingrið", "Yiğit", "Ōtsuka", "Ēriks",
    "Ūna", "Quỳnh",
)
#: One log document in this many carries a non-ASCII user name.
NAME_EVERY = 10
LOG_MIN_CHARS = 15_000
LOG_MAX_CHARS = 60_000
LOG_ERROR_RATE = 0.004
TAIL_CHARS = 50_000
TAIL_ERROR_RATE = 0.03


def _log_line(rng: random.Random, level: str) -> str:
    day = rng.randint(1, 28)
    hour, minute, second = rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
    return (
        f"2024-03-{day:02d} {hour:02d}:{minute:02d}:{second:02d} "
        f"{level} worker-{rng.randint(0, 9)} {rng.choice(_LOG_MESSAGES)}"
    )


def _log_text(rng: random.Random, target: int, error_rate: float) -> str:
    """Log lines until *target* chars, carrying exactly :data:`LOG_ALPHABET`.

    The number of ERROR lines is fixed by the size (``error_rate`` of the
    lines, at least one) and only their positions are drawn, so the
    mappings per character do not vary with the seed.
    """
    while True:
        lines: list[str] = []
        size = 0
        while size < target:
            line = _log_line(rng, rng.choice(_LOG_LEVELS))
            lines.append(line)
            size += len(line) + 1
        errors = max(1, round(error_rate * len(lines)))
        for at in rng.sample(range(len(lines)), errors):
            lines[at] = _log_line(rng, "ERROR")
        text = "\n".join(lines)
        if frozenset(text) == LOG_ALPHABET:
            return text


def _name_for(seed: int, ordinal: int) -> str:
    """The *ordinal*-th name document's user: a seeded walk over the pool."""
    cycle, at = divmod(ordinal, len(NAME_POOL))
    order = list(NAME_POOL)
    random.Random(f"names:{seed}:{cycle}").shuffle(order)
    return order[at]


def log_document(seed: int, index: int) -> str:
    """Sparse server log *index* (15–60K chars, rare ERROR lines)."""
    rng = random.Random(f"logs-extract:{seed}:{index}")
    target = LOG_MIN_CHARS + int((LOG_MAX_CHARS - LOG_MIN_CHARS) * ((index * _GOLDEN) % 1.0))
    text = _log_text(rng, target, LOG_ERROR_RATE)
    if index % NAME_EVERY == NAME_EVERY - 1:
        name = _name_for(seed, index // NAME_EVERY)
        lines = text.split("\n")
        at = rng.randrange(len(lines))
        lines[at] = lines[at].rsplit(" worker-", 1)[0] + (
            f" worker-{rng.randint(0, 9)} user login {name}"
        )
        text = "\n".join(lines)
    return text


def tail_document(seed: int, index: int) -> str:
    """Tailing log *index* for serve-tail: ~50K ASCII chars, ~30 matches."""
    rng = random.Random(f"serve-tail:{seed}:{index}")
    return _log_text(rng, TAIL_CHARS, TAIL_ERROR_RATE)


# --------------------------------------------------------------------------- #
# Contact records (contacts-dense)
# --------------------------------------------------------------------------- #

_FIRST_NAMES = (
    "John", "Jane", "Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald",
    "Leslie", "Tim", "Shafi", "Silvio", "Kurt", "Emmy", "Sofia", "Niklaus",
)
_DOMAINS = ("g.be", "uc.cl", "ulb.ac.be", "example.org", "mail.com")
#: Records per contacts document (the facade never recompiles: every
#: document carries exactly :data:`CONTACT_ALPHABET`).
CONTACT_RECORDS = 150
CONTACT_ALPHABET = frozenset(
    "".join(_FIRST_NAMES) + "".join(_DOMAINS) + string.ascii_lowercase
    + string.digits + " <>@-,"
)


def contact_document(seed: int, index: int) -> str:
    """Contact list *index*: ``Name <email>`` / ``Name <phone>`` records."""
    rng = random.Random(f"contacts-dense:{seed}:{index}")
    while True:
        records = []
        for _ in range(CONTACT_RECORDS):
            name = rng.choice(_FIRST_NAMES)
            if rng.random() < 0.5:
                local = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 5)))
                contact = f"{local}@{rng.choice(_DOMAINS)}"
            else:
                contact = f"{rng.randint(100, 999)}-{rng.randint(10, 99)}"
            records.append(f"{name} <{contact}>")
        text = ", ".join(records)
        if frozenset(text) == CONTACT_ALPHABET:
            return text


# --------------------------------------------------------------------------- #
# Nested captures (nested-enumerate)
# --------------------------------------------------------------------------- #

#: Length of every nested document: C(24, 4) = 10,626 mappings each.
NESTED_LENGTH = 20


def nested_document(seed: int, index: int) -> str:
    """A random two-letter string of :data:`NESTED_LENGTH` chars."""
    rng = random.Random(f"nested-enumerate:{seed}:{index}")
    return "".join(rng.choices("ab", k=NESTED_LENGTH))


# --------------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------------- #

_MAKERS = {
    "logs-extract": log_document,
    "contacts-dense": contact_document,
    "nested-enumerate": nested_document,
    "serve-tail": tail_document,
}


def documents(workload: str, seed: int, start: int = 0) -> Iterator[str]:
    """The workload's document stream from index *start*, duplicates skipped.

    Skipping keeps every operation's input fresh even where the input
    space is small (two-letter nested strings), and the warm-up document
    counts as seen; it is deterministic, so the stream stays a pure
    function of the seed.
    """
    make = _MAKERS[workload]
    seen = {_digest(warmup_document(workload, seed))}
    index = start
    while True:
        text = make(seed, index)
        index += 1
        digest = _digest(text)
        if digest not in seen:
            seen.add(digest)
            yield text


def _digest(text: str) -> bytes:
    """A fixed-size fingerprint, so remembering a document costs no RSS."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def warmup_document(workload: str, seed: int) -> str:
    """A document of the workload's shape outside its measured stream.

    Drawn from the seed's complement, so it never equals a measured input.
    Logs warm-up documents are base-alphabet ones (no user name).
    """
    return _MAKERS[workload](~seed, NAME_EVERY * 1000)
