"""The newline-delimited JSON session protocol of ``repro serve``.

One HTTP exchange carries one extraction session.  The request body is a
stream of NDJSON events:

.. code-block:: json

    {"pattern": ".*x{a+b}.*", "alphabet": "ab", "emit": "incremental"}
    {"chunk": "aab"}
    {"chunk": "ba"}
    {"finish": true}

The first line **opens** the session — it names the pattern, an optional
declared alphabet and the emit mode.  The alphabet is accepted for
compatibility and no longer affects compilation: every pattern compiles
once, and its wildcards match any character, exactly like ``repro
stream``.  Every following ``chunk`` event feeds
document text; ``finish`` (or simply the end of the body) runs the final
capturing phase.  The response is NDJSON too: a ``ready``
acknowledgement, one ``mapping`` line per output mapping (spans only —
the server retains no document text), and a closing ``done`` summary:

.. code-block:: json

    {"ready": true, "session": 7, "variables": ["x"], "plan_cache": "hit"}
    {"mapping": {"x": [1, 3]}, "settled": true}
    {"done": true, "mappings": 1, "position": 5}

Protocol violations raise :class:`ProtocolError` — the HTTP layer turns
one into a ``400`` before the response starts, or into an ``error``
NDJSON line once streaming.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ReproError
from repro.core.mappings import Mapping
from repro.runtime.streaming import EMIT_MODES

__all__ = [
    "MAX_EVENT_BYTES",
    "OpenRequest",
    "ProtocolError",
    "SessionEvent",
    "mapping_event",
    "parse_event",
    "parse_open",
]

#: Upper bound on one NDJSON event line.  A chunk event carries at most
#: this many bytes of JSON; larger documents are simply split into more
#: chunk events, so the bound caps per-event buffering without capping
#: document size.
MAX_EVENT_BYTES = 4 * 1024 * 1024


class ProtocolError(ReproError, ValueError):
    """Raised when a session event cannot be parsed or is out of order."""


@dataclass(frozen=True)
class OpenRequest:
    """The parsed session-opening event."""

    pattern: str
    alphabet: str | None
    emit: str

    def cache_key(self) -> str:
        """The shared plan-cache key: the pattern alone.

        Emit mode is per-session, and the declared alphabet no longer
        affects compilation, so sessions over one pattern share one plan.
        """
        return self.pattern


@dataclass(frozen=True)
class SessionEvent:
    """A post-open event: either a document chunk or an explicit finish."""

    kind: str  # "chunk" | "finish"
    text: str = ""


def _load(line: bytes | str) -> dict[str, Any]:
    if isinstance(line, (bytes, bytearray)):
        if len(line) > MAX_EVENT_BYTES:
            raise ProtocolError(
                f"event line of {len(line)} bytes exceeds the "
                f"{MAX_EVENT_BYTES}-byte bound; split the document into "
                "smaller chunk events"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"event line is not valid UTF-8: {error}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"event line is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"event must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_open(line: bytes | str) -> OpenRequest:
    """Parse the session-opening event (the first body line)."""
    payload = _load(line)
    pattern = payload.get("pattern")
    if not isinstance(pattern, str) or not pattern:
        raise ProtocolError('the opening event needs a non-empty "pattern" string')
    alphabet = payload.get("alphabet")
    if alphabet is not None and not isinstance(alphabet, str):
        raise ProtocolError('"alphabet" must be a string of allowed characters')
    emit = payload.get("emit", "incremental")
    if emit not in EMIT_MODES:
        raise ProtocolError(
            f'unknown emit mode {emit!r}; expected one of {list(EMIT_MODES)}'
        )
    unknown = set(payload) - {"pattern", "alphabet", "emit"}
    if unknown:
        raise ProtocolError(
            f"unknown opening fields {sorted(unknown)}; "
            'expected "pattern", "alphabet", "emit"'
        )
    return OpenRequest(pattern=pattern, alphabet=alphabet, emit=emit)


def parse_event(line: bytes | str) -> SessionEvent:
    """Parse a post-open event line."""
    payload = _load(line)
    if "chunk" in payload:
        text = payload["chunk"]
        if not isinstance(text, str):
            raise ProtocolError('"chunk" must carry a string of document text')
        if set(payload) - {"chunk"}:
            raise ProtocolError("a chunk event carries only the \"chunk\" field")
        return SessionEvent("chunk", text)
    if payload.get("finish") is True:
        if set(payload) - {"finish"}:
            raise ProtocolError("a finish event carries only {\"finish\": true}")
        return SessionEvent("finish")
    raise ProtocolError(
        f'expected a {{"chunk": ...}} or {{"finish": true}} event, '
        f"got fields {sorted(payload)}"
    )


def mapping_event(mapping: Mapping, *, settled: bool) -> dict[str, Any]:
    """Render one output mapping as its NDJSON event payload.

    Spans only — ``{"x": [begin, end]}`` per variable — because the
    server retains no document text to slice contents from; clients that
    fed the stream hold the text and can slice locally.
    """
    return {
        "mapping": {
            variable: [span.begin, span.end] for variable, span in mapping.items()
        },
        "settled": settled,
    }
