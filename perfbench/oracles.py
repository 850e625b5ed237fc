"""Independent oracles: each returns ``None`` when an output is right.

None of them runs the program's own evaluation path for the operation
they check.  The logs oracle uses Python's ``re``; the nested oracle a
closed form; the contacts oracle cross-checks ``count`` against
``extract`` (two different kernels) and, on a sample, the dict-based
reference engine; the serve oracle compares the spans a server session
streamed with the in-process facade on the same text.
"""

from __future__ import annotations

import re
from collections import Counter
from math import comb

__all__ = [
    "check_contacts",
    "check_logs",
    "check_nested",
    "check_serve",
    "expected_nested",
    "span_tuples",
]

_ERROR_WORKER = re.compile(r"ERROR worker-([0-9]) ")


def check_logs(text: str, extracted: list[dict[str, str]]) -> str | None:
    """``extract`` output vs ``re``: the same multiset of worker digits."""
    expected = Counter(_ERROR_WORKER.findall(text))
    got = Counter(row.get("w") for row in extracted)
    if got != expected:
        return (
            f"logs: extract gave {sum(got.values())} mappings, "
            f"re found {sum(expected.values())}"
        )
    return None


def check_contacts(
    count: int, extracted: list[dict[str, str]], reference: list | None = None
) -> str | None:
    """``count(d) == len(extract(d))``, and equality with the reference engine."""
    if count != len(extracted):
        return f"contacts: count {count} != len(extract) {len(extracted)}"
    if reference is not None:
        rows = sorted(sorted(row.items()) for row in extracted)
        if sorted(sorted(row.items()) for row in reference) != rows:
            return "contacts: extract differs from engine='reference'"
    return None


def expected_nested(length: int) -> int:
    """Mappings of ``.*x1{.*x2{.*}.*}.*`` on a length-n document: C(n+4, 4)."""
    return comb(length + 4, 4)


def check_nested(text: str, mappings: int) -> str | None:
    expected = expected_nested(len(text))
    if mappings != expected:
        return f"nested: {mappings} mappings, closed form C(n+4,4) = {expected}"
    return None


def span_tuples(mappings) -> list[tuple]:
    """Sorted ``((var, begin, end), ...)`` tuples of facade mappings."""
    return sorted(
        tuple(sorted((var, span.begin, span.end) for var, span in mapping.items()))
        for mapping in mappings
    )


def check_serve(served: list[dict], facade: list[tuple]) -> str | None:
    """Spans a session streamed (``{"x": [b, e]}`` events) vs the facade's."""
    got = sorted(
        tuple(sorted((var, span[0], span[1]) for var, span in event.items()))
        for event in served
    )
    if got != facade:
        return f"serve: session streamed {len(got)} mappings, facade has {len(facade)}"
    return None
